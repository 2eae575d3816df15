"""The exhaustive pair sweep: counts, witnesses, kernels, determinism."""

from __future__ import annotations

import copy
import json
import math
import multiprocessing
import pickle
import types

import pytest

import addcomb as ac
import addcomb.catalog as catalog
import addcomb.exhaustive as sweep_mod
from addcomb import cli
from addcomb.catalog import _delta_value, _omega_value, _pillai_value
from addcomb.core import INF, _commutes
from support import (
    commutative_span_masks,
    set_fact_columns,
    statement_oracle,
    sumset_oracle,
)


def _swept_masks(n, max_size=None):
    """Non-empty masks of at most max_size elements, ascending."""
    cap = n if max_size is None else max_size
    return [m for m in range(1, 1 << n) if m.bit_count() <= cap]


def _brute_summary(A, statement, max_size=None):
    """Reference sweep over all non-empty pairs within the size cap, using
    the scalar verifiers, each report checked against statement_oracle."""
    return _brute_summaries(A, statement, [max_size])[max_size]


def _brute_summaries(A, statement, caps):
    """_brute_summary at each cap in caps, from one pass over the pairs."""
    statement = ac.normalize_statement(statement)
    n = A.n
    top = max(n if cap is None else cap for cap in caps)
    masks = _swept_masks(n, top)
    out = {
        cap: {
            "pairs": 0,
            "applicable": 0,
            "satisfied": 0,
            "violations": 0,
            "tight": 0,
            "first_tight": None,
            "viol_list": [],
        }
        for cap in caps
    }
    sets = [(m, ac.ElementSet(n, m), tuple(z for z in range(n) if m >> z & 1)) for m in masks]
    for xm, X, xs in sets:
        for ym, Y, ys in sets:
            rep = ac.run_statement(A, statement, X, Y)
            # the scalar side is itself checked against the definitions,
            # which the sweep and the verifiers do not share
            lhs, rhs, hyps = statement_oracle(A, statement, xs, ys)
            report = (rep.lhs, rep.rhs, rep.hypotheses)
            assert report == (lhs, rhs, tuple(hyps.items())), (statement, str(X), str(Y))
            size = max(xm.bit_count(), ym.bit_count())
            for cap, got in out.items():
                if cap is not None and size > cap:
                    continue
                got["pairs"] += 1
                if not rep.applicable:
                    continue
                got["applicable"] += 1
                if rep.satisfied:
                    got["satisfied"] += 1
                else:
                    got["violations"] += 1
                    got["viol_list"].append((str(X), str(Y)))
                if rep.rhs == rep.lhs:
                    got["tight"] += 1
                    if got["first_tight"] is None:
                        got["first_tight"] = (str(X), str(Y), rep.lhs)
    return out


def _as_comparable(s: ac.SweepSummary):
    return {
        "pairs": s.pairs,
        "applicable": s.applicable,
        "satisfied": s.satisfied,
        "violations": s.violation_count,
        "tight": s.tight,
        "first_tight": (
            None
            if s.first_tight is None
            else (s.first_tight.x, s.first_tight.y, s.first_tight.value)
        ),
    }


# ---------------------------------------------------------------------------
# Pinned whole-carrier counts
# ---------------------------------------------------------------------------


def test_sweep_z7_prime_bound_counts():
    s = ac.sweep(ac.cyclic(7), "CD-1813")
    assert s.pairs == 127 * 127 == 16129
    assert s.applicable == 16129
    assert s.violation_count == 0 and not s.violations
    assert s.satisfied == s.applicable
    assert s.tight > 0 and s.first_tight is not None


def test_sweep_d4_gated_counts():
    s = ac.sweep(ac.dihedral(4), "Thm2.2")
    assert s.pairs == 255 * 255
    # applicable = 255 choices of X times the commutative-span Y subsets
    comm = len(commutative_span_masks(ac.dihedral(4)))
    assert comm == 39
    assert s.applicable == 255 * comm == 9945
    assert s.violation_count == 0


def test_sweep_non_cancellative_all_gated():
    s = ac.sweep(ac.maxchain(3), "Thm2.2")
    assert s.pairs == 49 and s.applicable == 0 and s.satisfied == 0


# ---------------------------------------------------------------------------
# Vectorized kernel vs scalar verifiers
# ---------------------------------------------------------------------------


def test_vectorized_matches_scalar_on_group_statements():
    carriers = [ac.cyclic(5), ac.cyclic(6), ac.dihedral(3), ac.maxchain(3)]
    for A in carriers:
        for statement in ("CD-1813", "Thm2.2", "Cor2.4", "Cor2.7", "Kemperman-weak"):
            got = _as_comparable(ac.sweep(A, statement))
            want = _brute_summary(A, statement)
            for key in ("pairs", "applicable", "satisfied", "violations", "tight", "first_tight"):
                assert got[key] == want[key], (A.label, statement, key)


def test_vectorized_matches_scalar_on_residue_statements():
    for m in (5, 6):
        A = ac.cyclic(m)
        for statement in ("Chowla", "Pillai", "Cor2.9"):
            got = _as_comparable(ac.sweep(A, statement))
            want = _brute_summary(A, statement)
            for key in ("pairs", "applicable", "satisfied", "violations", "tight", "first_tight"):
                assert got[key] == want[key], (A.label, statement, key)


def test_vectorized_matches_scalar_on_hk():
    for A in (ac.cyclic(6), ac.quaternion8()):
        got = _as_comparable(ac.sweep(A, "HK"))
        want = _brute_summary(A, "HK")
        for key in ("pairs", "applicable", "satisfied", "violations", "tight", "first_tight"):
            assert got[key] == want[key], (A.label, key)


def _assert_capped_sweep_matches_scalar(A, statement, max_size):
    """Returns whether the pair raised NotGroup (on both sides)."""
    try:
        want = _brute_summary(A, statement, max_size)
    except ac.NotGroup:
        with pytest.raises(ac.NotGroup):
            ac.sweep(A, statement, max_size=max_size)
        return True
    got = _as_comparable(ac.sweep(A, statement, max_size=max_size))
    for key in got:
        assert got[key] == want[key], (A.label, statement, max_size, key)
    return False


@pytest.mark.parametrize("max_size", [1, 2, 3])
def test_capped_sweeps_match_scalar_verifiers(max_size):
    carriers = [ac.cyclic(5), ac.cyclic(6), ac.dihedral(3), ac.maxchain(3)]
    mismatched = [
        (A.label, statement)
        for A in carriers
        for statement in ac.STATEMENTS
        if _assert_capped_sweep_matches_scalar(A, statement, max_size)
    ]
    # residue statements off the standard cyclic tables, HK off groups
    assert len(mismatched) == 2 * 3 + 1
    # the columns are the swept masks, on every carrier and at every cap
    for A in carriers:
        cols = sweep_mod._SweepContext(A, "CD-1813", max_size).cols
        assert cols == _swept_masks(A.n, max_size), (A.label, max_size)


def test_capped_sweeps_above_16_elements_match_scalar_verifiers():
    for A, statement in [
        (ac.cyclic(17), "CD-1813"),
        (ac.product(ac.cyclic(4), ac.cyclic(5)), "Thm2.2"),
    ]:
        assert not _assert_capped_sweep_matches_scalar(A, statement, 2)


def _unreduced_two_chunk_case():
    """Kemperman-weak on dihedral:16 at cap 2: p = 2, so its gate opens
    every row, |X| <= 2, and span commutativity is not invariant under left
    translation, so none is reduced; the 528 rows fill two chunks."""
    A = ac.dihedral(16)
    ctx = sweep_mod._SweepContext(A, "Kemperman-weak", 2)
    assert ctx.weight is None and len(ctx.rows) == len(ctx.cols) == 528
    assert len(range(0, len(ctx.rows), sweep_mod.CHUNK)) == 2
    return A, "Kemperman-weak", 2


def test_chunk_boundaries_leave_the_summary_unchanged(monkeypatch):
    # Thm2.2 on dihedral:5 runs 3-row chunks of orbit rows of mixed
    # weights; the unreduced case runs 176 chunks of weight 1
    D5 = ac.dihedral(5)
    weight = sweep_mod._SweepContext(D5, "Thm2.2", None).weight
    assert weight is not None and len(set(weight.values())) > 1
    for A, st, cap in ((D5, "Thm2.2", None), _unreduced_two_chunk_case()):
        want = ac.sweep(A, st, max_size=cap)
        monkeypatch.setattr(sweep_mod, "CHUNK", 3)
        got = ac.sweep(A, st, max_size=cap)
        monkeypatch.undo()
        assert got.tight > 0 and got.first_tight is not None
        assert got == want
        assert got.to_json_dict() == want.to_json_dict()


def _assert_witnesses_match_brute_force(monkeypatch, A, max_size=None):
    # every statement is a theorem, so witnesses only appear under a false
    # bound: raise omega(Y) to n + 3, past the n + 1 the kernel clips to
    n = A.n
    false_omega = n + 3

    def inflated_omega(A, S, reduce):
        return false_omega

    monkeypatch.setattr(catalog, "_omega_value", inflated_omega)

    masks = _swept_masks(n, max_size)
    want = []
    for xm in masks:
        xs = [i for i in range(n) if xm >> i & 1]
        for ym in masks:
            ys = [i for i in range(n) if ym >> i & 1]
            lhs = len(sumset_oracle(A, xs, ys))
            rhs = min(false_omega, len(xs) + len(ys) - 1)
            if lhs < rhs:
                want.append((str(ac.ElementSet(n, xm)), str(ac.ElementSet(n, ym)), lhs, rhs))
        if len(want) >= sweep_mod._MAX_RECORDED:
            break
    want = want[: sweep_mod._MAX_RECORDED]
    assert len(want) == sweep_mod._MAX_RECORDED

    summaries = [ac.sweep(A, "Thm2.2", max_size=max_size, jobs=jobs) for jobs in (1, 2)]
    for s in summaries:
        assert [(v.x, v.y, v.lhs, v.rhs) for v in s.violations] == want
        assert s.violation_count > len(want)
        assert s.satisfied + s.violation_count == s.applicable == s.pairs
    assert summaries[0] == summaries[1]
    return want


@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_violation_witnesses_match_brute_force(monkeypatch, chunk_rows):
    A = ac.cyclic(10)
    if chunk_rows is not None:
        monkeypatch.setattr(sweep_mod, "CHUNK", chunk_rows)
    want = _assert_witnesses_match_brute_force(monkeypatch, A)
    assert any(rhs > A.n + 1 for *_, rhs in want)


def test_capped_violation_witnesses_match_brute_force(monkeypatch):
    # 1,350 swept masks of cyclic:20 in three chunks
    A = ac.cyclic(20)
    assert len(sweep_mod._SweepContext(A, "Thm2.2", 3).cols) == 1350
    _assert_witnesses_match_brute_force(monkeypatch, A, max_size=3)


# ---------------------------------------------------------------------------
# Feature tables and orbit reduction
# ---------------------------------------------------------------------------


def column_flags(ctx, holds):
    """A test on the context's columns, a column set or True, as one bool
    per column."""
    return [holds is True or bool(holds >> j & 1) for j in range(len(ctx.cols))]


def feature_columns(ctx):
    """The context's columns of omega, span commutativity, delta and
    pillai_delta, each the constants definition on its reduction."""
    A, S = ctx.A, sweep_mod._Masks(ctx)
    return [
        list(_omega_value(A, S, ctx._reduce)),
        column_flags(ctx, _commutes(A, S, ctx._reduce)),
        list(_delta_value(A.n, S, ctx._reduce)),
        list(_pillai_value(A.n, S, ctx._reduce)),
    ]


def _assert_tables_match_oracles(A, max_size=None):
    """The sweep's feature columns, and its "0 in Y" and "Y coprime to m"
    columns, against the plain-set definitions."""
    ctx = sweep_mod._SweepContext(A, "CD-1813", max_size)
    omega, commutes, delta, pillai = set_fact_columns(A, ctx.cols)
    want = [[INF if w == math.inf else w for w in omega], commutes, delta, pillai]
    assert feature_columns(ctx) == want, A.label
    S = sweep_mod._Masks(ctx)
    zero = catalog._TESTS["holds_zero"](A, S, ctx._reduce)
    assert column_flags(ctx, zero) == [m & 1 == 1 for m in ctx.cols]
    coprime = catalog._TESTS["coprime"](A, S, ctx._reduce)
    want = [all(math.gcd(A.n, z) == 1 for z in range(1, A.n) if m >> z & 1) for m in ctx.cols]
    assert column_flags(ctx, coprime) == want
    return ctx


def test_feature_tables_match_scalar_constants():
    carriers = [ac.cyclic(m) for m in range(1, 11)]
    carriers += [ac.dihedral(k) for k in (3, 4, 5)]
    carriers += [
        ac.quaternion8(),
        ac.product(ac.cyclic(2), ac.cyclic(4)),
        ac.maxchain(4),
        ac.leftzero(4),
    ]
    for A in carriers:
        assert len(_assert_tables_match_oracles(A).cols) == (1 << A.n) - 1
    # 1,350 capped masks of cyclic:20
    assert len(_assert_tables_match_oracles(ac.cyclic(20), 3).cols) == 1350


_ORBIT_CARRIERS = {
    "dihedral:3": lambda: ac.dihedral(3),
    "dihedral:4": lambda: ac.dihedral(4),
    "quaternion8": ac.quaternion8,
    "product:(cyclic:2,cyclic:4)": lambda: ac.product(ac.cyclic(2), ac.cyclic(4)),
    "cyclic:6": lambda: ac.cyclic(6),
    "cyclic:7": lambda: ac.cyclic(7),
}


@pytest.mark.parametrize("spec", sorted(_ORBIT_CARRIERS))
def test_orbit_reduced_sweeps_match_scalar_verifiers(spec):
    A = _ORBIT_CARRIERS[spec]()
    caps = [None, 1, 2, 3]
    for statement in ac.STATEMENTS:
        try:
            want = _brute_summaries(A, statement, caps)
        except ac.NotGroup:
            with pytest.raises(ac.NotGroup):
                ac.sweep(A, statement)
            continue
        for cap in caps:
            got = _as_comparable(ac.sweep(A, statement, max_size=cap))
            for key in got:
                assert got[key] == want[cap][key], (spec, statement, cap, key)
            reduced = sweep_mod._SweepContext(A, statement, cap).weight is not None
            if statement in ("CD-1813", "Thm2.2", "HK", "Cor2.9"):
                assert reduced, (spec, statement, cap)


def test_orbit_reduction_applies_only_where_rows_are_invariant():
    D4 = ac.dihedral(4)
    ctx = sweep_mod._SweepContext(D4, "Thm2.2", None)
    # 255 X masks of dihedral:4 in 42 orbits of left translates
    assert sum(ctx.weight.values()) == 255 and len(ctx.weight) == 42
    # "span(X) commutative" is not invariant under left translation
    assert sweep_mod._SweepContext(D4, "Cor2.7", None).weight is None
    # nor is anything on a carrier that is not a group
    for statement in ac.STATEMENTS:
        try:
            ac.sweep(ac.maxchain(3), statement)
        except ac.NotGroup:
            continue
        assert sweep_mod._SweepContext(ac.maxchain(3), statement, None).weight is None


def test_witness_checks_reach_the_unreduced_rerun(monkeypatch):
    """The witness tests above sweep under a false bound: the reduced pass
    finds violations, and the witnesses come from the unreduced rerun."""
    passes = []
    real = sweep_mod._SweepContext.eval_chunk

    def spy(ctx, xs, w):
        passes.append(max(w) > 1)
        return real(ctx, xs, w)

    monkeypatch.setattr(sweep_mod._SweepContext, "eval_chunk", spy)
    for A, max_size in ((ac.cyclic(10), None), (ac.cyclic(20), 3)):
        ctx = sweep_mod._SweepContext(A, "Thm2.2", max_size)
        assert ctx.weight is not None
        chunks = -(-len(ctx.rows) // sweep_mod.CHUNK)
        passes.clear()
        _assert_witnesses_match_brute_force(monkeypatch, A, max_size)
        # each sweep first evaluates its orbit rows, one chunk in process,
        # some weighted by more than 1; then jobs=1 reruns every chunk with
        # weight 1 here, jobs=2 in workers
        assert passes == [True] + [False] * chunks + [True]


def test_reduced_sweep_over_several_chunks_is_identical_for_any_jobs(monkeypatch):
    A = ac.cyclic(13)
    want = ac.sweep(A, "CD-1813")
    # 630 orbit rows of weight 13 and the full set of weight 1, in chunks
    # of 100; the last one mixes the two weights
    monkeypatch.setattr(sweep_mod, "CHUNK", 100)
    for jobs in (1, 2):
        got = ac.sweep(A, "CD-1813", jobs=jobs)
        assert got.to_json_dict() == want.to_json_dict()
    assert want.pairs == want.applicable == 8191 * 8191


# ---------------------------------------------------------------------------
# Caps, gating, errors
# ---------------------------------------------------------------------------


def test_size_cap_counts():
    A = ac.cyclic(6)
    s = ac.sweep(A, "Pillai", max_size=1)
    assert s.pairs == 36  # six singletons each side
    assert s.max_size == 1
    s2 = ac.sweep(A, "Pillai", max_size=2)
    assert s2.pairs == (6 + 15) ** 2


def test_large_carrier_requires_cap():
    big = ac.product(ac.cyclic(4), ac.cyclic(5))  # order 20
    with pytest.raises(ac.CarrierTooLarge):
        ac.sweep(big, "Thm2.2")
    s = ac.sweep(big, "Thm2.2", max_size=1)
    assert s.pairs == 400
    assert s.violation_count == 0


def test_capped_sweep_over_the_mask_limit_is_refused_before_its_masks_are_built(monkeypatch):
    # at most 2^16 - 1 masks a side, as many as a full sweep of order 16:
    # cyclic:64 has 43,744 masks of at most 3 elements, 679,120 of at most 4
    A = ac.cyclic(64)

    def no_masks(*_):
        raise AssertionError("the masks were built")

    monkeypatch.setattr(sweep_mod, "_capped_masks", no_masks)
    for cap, masks in ((4, 679120), (64, (1 << 64) - 1)):
        with pytest.raises(ac.CarrierTooLarge, match="at size cap %d has %d masks" % (cap, masks)):
            ac.sweep(A, "Thm2.2", max_size=cap)
    monkeypatch.undo()
    s = ac.sweep(A, "Thm2.2", max_size=3)
    assert s.pairs == s.applicable == 43744**2 and s.violation_count == 0


def _vosper_tight(p):
    """CD-1813's tight ordered pairs on Z_p, by Vosper's theorem on critical
    pairs (J. London Math. Soc., 1956)."""
    tight = 2 * p * (2**p - 1) - p * p  # |X| = 1 or |Y| = 1
    for k in range(2, p + 1):
        for l in range(2, p + 1):
            if k + l >= p + 1:  # X + Y is Z_p
                tight += math.comb(p, k) * math.comb(p, l)
            elif k + l == p:  # Y is the complement of c - X
                tight += p * math.comb(p, k)
            else:  # progressions with one common difference
                tight += p * p * (p - 1) // 2
    return tight


def test_cd_tight_pairs_on_prime_cyclic_groups_equal_vosper_count():
    want = {2: 9, 3: 49, 5: 811, 7: 9857, 11: 1828531, 13: 28718665}
    for p, tight in want.items():
        assert _vosper_tight(p) == tight
        s = ac.sweep(ac.cyclic(p), "CD-1813")
        assert s.tight == tight, p
        assert s.applicable == s.pairs == (2**p - 1) ** 2 and s.violation_count == 0


def test_capped_sweep_on_prime_carrier_above_vector_limit():
    s = ac.sweep(ac.cyclic(17), "CD-1813", max_size=1)
    assert s.pairs == 289
    assert s.applicable == 289
    assert s.tight == 289  # singleton pairs are always tight
    assert s.violation_count == 0


def test_sweep_statement_carrier_mismatch():
    with pytest.raises(ac.NotGroup):
        ac.sweep(ac.dihedral(3), "Chowla")
    with pytest.raises(ac.NotGroup):
        ac.sweep(ac.maxchain(3), "HK")
    with pytest.raises(ValueError):
        ac.sweep(ac.cyclic(5), "CD-1813", max_size=0)
    with pytest.raises(ac.ParseError):
        ac.sweep(ac.cyclic(5), "no-such-statement")


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_parallel_summary_identical_to_serial():
    # Thm2.2 on dihedral:5 is orbit-reduced to one chunk; the unreduced case
    # spans two, so jobs=4 reaches the pool
    for A, statement, cap in ((ac.dihedral(5), "Thm2.2", None), _unreduced_two_chunk_case()):
        s1 = ac.sweep(A, statement, max_size=cap, jobs=1)
        s4 = ac.sweep(A, statement, max_size=cap, jobs=4)
        assert s1.tight > 0
        assert s1 == s4
        b1 = json.dumps(s1.to_json_dict(), sort_keys=True, separators=(",", ":"))
        b4 = json.dumps(s4.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert b1 == b4


def test_interleaved_parallel_sweeps_keep_their_own_context(monkeypatch):
    # a second parallel sweep that runs while the first one's pool is being
    # made, as one in another thread can, must not change the context that
    # the first pool's workers evaluate
    A, statement, cap = _unreduced_two_chunk_case()
    D5 = ac.dihedral(5)
    want = ac.sweep(A, statement, max_size=cap), ac.sweep(D5, "Cor2.7")
    fork = multiprocessing.get_context("fork")
    inner = []

    class Interleaving:
        def Pool(self, *args, **kwargs):
            if not inner:
                inner.append(None)
                inner[0] = ac.sweep(D5, "Cor2.7", jobs=2)
            return fork.Pool(*args, **kwargs)

    shim = types.SimpleNamespace(get_context=lambda method: Interleaving())
    monkeypatch.setattr(sweep_mod, "multiprocessing", shim)
    monkeypatch.setattr(sweep_mod, "CHUNK", 16)  # Cor2.7's 41 open rows: 3 chunks
    outer = ac.sweep(A, statement, max_size=cap, jobs=2)
    assert inner and want[0].tight > 0
    assert outer == want[0]
    assert inner[0] == want[1]


def test_repeat_runs_identical():
    A = ac.cyclic(9)
    s1 = ac.sweep(A, "Cor2.9")
    s2 = ac.sweep(A, "Cor2.9")
    assert s1 == s2
    assert s1.to_json_dict() == s2.to_json_dict()
    # wall time may differ but is excluded from equality and serialization
    assert "elapsed_s" not in s1.to_json_dict()


def test_sweep_value_types_keep_their_contracts():
    # the repr texts and the JSON keys, in order, of the frozen dataclasses
    # that these types were
    v = ac.Violation("{0}", "{0,1}", lhs=1, rhs=2)
    t = ac.TightPair(x="{0}", y="{1}", value=1)
    s = ac.SweepSummary("CD-1813", "cyclic:3", 3, 2, 36, 36, 36, 1, (v,), 10, t, 0.5)
    assert repr(v) == "Violation(x='{0}', y='{0,1}', lhs=1, rhs=2)"
    assert repr(t) == "TightPair(x='{0}', y='{1}', value=1)"
    assert repr(s) == (
        "SweepSummary(statement='CD-1813', semigroup='cyclic:3', carrier_order=3, "
        "max_size=2, pairs=36, applicable=36, satisfied=36, violation_count=1, "
        "violations=(Violation(x='{0}', y='{0,1}', lhs=1, rhs=2),), tight=10, "
        "first_tight=TightPair(x='{0}', y='{1}', value=1), elapsed_s=0.5)"
    )
    out = s.to_json_dict()
    assert list(out) == [
        "statement", "semigroup", "carrier_order", "max_size", "pairs", "applicable",
        "satisfied", "violation_count", "violations", "tight", "first_tight",
    ]
    assert [list(w) for w in out["violations"]] == [["x", "y", "lhs", "rhs"]]
    assert list(out["first_tight"]) == ["x", "y", "value"]
    assert out["violations"] == [{"x": "{0}", "y": "{0,1}", "lhs": 1, "rhs": 2}]
    assert out["first_tight"] == {"x": "{0}", "y": "{1}", "value": 1}
    swept = ac.sweep(ac.cyclic(3), "CD-1813")
    assert swept.first_tight is not None and swept.violations == ()
    assert ac.SweepSummary(*[getattr(s, f) for f in out], elapsed_s=None).to_json_dict() == out

    # == ignores elapsed_s, and hash agrees with ==
    twin = ac.SweepSummary(
        statement="CD-1813", semigroup="cyclic:3", carrier_order=3, max_size=2, pairs=36,
        applicable=36, satisfied=36, violation_count=1,
        violations=(ac.Violation(x="{0}", y="{0,1}", lhs=1, rhs=2),), tight=10,
        first_tight=ac.TightPair("{0}", "{1}", 1),
    )
    assert twin.elapsed_s is None and twin == s and hash(twin) == hash(s)
    other = ac.SweepSummary("CD-1813", "cyclic:3", 3, 2, 36, 36, 36, 1, (v,), 11, t, 0.5)
    assert other != s and ac.Violation("{0}", "{0,1}", 1, 3) != v and t != v

    for value, field in ((v, "rhs"), (t, "value"), (s, "tight"), (swept, "pairs")):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value) and copied == value
            assert repr(copied) == repr(value) and hash(copied) == hash(value)
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) != 0
        # object.__setattr__ still sets a field, as on a frozen dataclass
        doctored = copy.copy(value)
        object.__setattr__(doctored, field, 0)
        assert getattr(doctored, field) == 0 and getattr(value, field) != 0

    # the command line's run report is a record too: ==, and so its JSON
    # form, ignore command and elapsed_s, and its dict payload leaves it
    # unhashable, as it was when it was a plain class
    report = cli.RunReport("cyclic:3", "sweep", out, ("sweep", "--jobs", "2"), 0.5)
    assert repr(report) == (
        "RunReport(spec='cyclic:3', kind='sweep', payload=%r, command=('sweep', '--jobs', '2'), "
        "elapsed_s=0.5)" % (out,)
    )
    bare = cli.RunReport(spec="cyclic:3", kind="sweep", payload=out)
    assert bare.command == () and bare.elapsed_s is None and bare == report
    assert cli.RunReport("cyclic:3", "omega", out) != report
    assert report.to_json_dict() == {"spec": "cyclic:3", "kind": "sweep", "payload": out}
    assert cli.parse_report(cli.serialize_report(report)) == report
    with pytest.raises(TypeError):
        hash(report)
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert type(copied) is cli.RunReport and copied == report
        assert repr(copied) == repr(report)
    for field in cli.RunReport.__slots__:
        with pytest.raises(AttributeError):
            setattr(report, field, None)
        with pytest.raises(AttributeError):
            delattr(report, field)
