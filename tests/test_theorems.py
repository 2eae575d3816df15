"""Scalar bound verifiers: hypothesis gating, right sides, pinned examples."""

from __future__ import annotations

import pytest

import addcomb as ac
from addcomb.theorems import is_standard_cyclic, statement_info
from support import statement_oracle


def _s(n, *els):
    return ac.ElementSet.of(n, *els)


def _hyp(report, name):
    return dict(report.hypotheses)[name]


# ---------------------------------------------------------------------------
# Prime-modulus bound
# ---------------------------------------------------------------------------


def test_cd_applicable_and_tight_on_progressions():
    z7 = ac.cyclic(7)
    rep = ac.verify_cd(z7, _s(7, 0, 1, 2), _s(7, 0, 1))
    assert rep.applicable and rep.satisfied
    assert rep.lhs == 4 and rep.rhs == ac.ExtendedNat(4)  # tight


def test_cd_gates_on_group_and_prime_order():
    rep = ac.verify_cd(ac.cyclic(4), _s(4, 0, 1), _s(4, 0, 1))
    assert not rep.applicable and rep.satisfied is None
    assert not _hyp(rep, "prime_order") and _hyp(rep, "group")
    rep = ac.verify_cd(ac.leftzero(3), _s(3, 0), _s(3, 1))
    assert not _hyp(rep, "group")
    with pytest.raises(ac.EmptySet):
        ac.verify_cd(ac.cyclic(5), ac.ElementSet.empty(5), _s(5, 1))


# ---------------------------------------------------------------------------
# The omega(Y) bound and its mirrors
# ---------------------------------------------------------------------------


def test_main_bound_tight_on_z4():
    z4 = ac.cyclic(4)
    rep = ac.verify_main(z4, _s(4, 0, 1), _s(4, 0, 1))
    assert rep.applicable and rep.satisfied
    assert rep.lhs == 3 and rep.rhs == ac.ExtendedNat(3)


def test_main_bound_gating_text_tokens():
    rep = ac.verify_main(ac.maxchain(3), _s(3, 1), _s(3, 1, 2))
    assert rep.failed_hypotheses() == ("cancellative",)
    d4 = ac.dihedral(4)
    rep = ac.verify_main(d4, _s(8, 0), _s(8, 1, 4))
    assert rep.failed_hypotheses() == ("span_y_commutative",)


def test_main_bound_on_noncommutative_ambient():
    # Q8 with Y = {1, i}: span {1, i, -1, -i} is commutative
    q8 = ac.quaternion8()
    rep = ac.verify_main(q8, _s(8, 0, 2), _s(8, 0, 2))
    assert rep.applicable
    # omega(Y) = 4 (inner order of i or -i... both rows give ord 4)
    assert rep.rhs == ac.ExtendedNat(3)  # min(4, 2+2-1)
    assert rep.satisfied


def test_mirror_and_two_sided():
    z12 = ac.cyclic(12)
    X = _s(12, 1, 4, 7, 10)
    Y = _s(12, 0, 1)
    mirror, both = ac.verify_mirror(z12, X, Y)
    assert mirror.statement == "Cor2.4" and both.statement == "Cor2.7"
    # omega(X) = 2, omega(Y) = 12
    assert mirror.rhs == ac.ExtendedNat(2)
    assert both.rhs == ac.ExtendedNat(5)  # min(max(2,12), 4+2-1)
    assert mirror.applicable and both.applicable
    assert mirror.satisfied and both.satisfied


def test_kemperman_weak_gating():
    # Z/4 with |X| + |Y| - 1 = 6: the order-2 element blocks applicability
    z4 = ac.cyclic(4)
    rep = ac.verify_kemperman_weak(z4, _s(4, 0, 1, 2), ac.ElementSet.full(4))
    assert not rep.applicable
    assert "orders_large_enough" in rep.failed_hypotheses()
    # Q8, X = Y = {1, i}: order of -1 is 2 < 3
    q8 = ac.quaternion8()
    rep = ac.verify_kemperman_weak(q8, _s(8, 0, 2), _s(8, 0, 2))
    assert not rep.applicable
    # Z/7 with small sets is applicable and satisfied
    rep = ac.verify_kemperman_weak(ac.cyclic(7), _s(7, 0, 1), _s(7, 0, 3))
    assert rep.applicable and rep.satisfied and rep.rhs == ac.ExtendedNat(3)


# ---------------------------------------------------------------------------
# Residue statements
# ---------------------------------------------------------------------------


def test_zmod_chowla_pin():
    chowla, pillai, sharper = ac.verify_zmod(8, _s(8, 0, 2, 4), _s(8, 0, 1))
    assert chowla.applicable and chowla.satisfied
    assert chowla.lhs == 6 and chowla.rhs == ac.ExtendedNat(4)
    assert pillai.applicable and sharper.applicable


def test_zmod_strict_strengthening_pin():
    chowla, pillai, sharper = ac.verify_zmod(12, _s(12, 0, 1), _s(12, 0, 6))
    assert not chowla.applicable  # gcd(12, 6) = 6
    assert pillai.rhs == ac.ExtendedNat(2)  # min(12/6, 3)
    assert sharper.rhs == ac.ExtendedNat(3)  # min(12/1, 3)
    assert pillai.lhs == sharper.lhs == 4
    assert pillai.satisfied and sharper.satisfied
    assert sharper.rhs > pillai.rhs  # strictly sharper here


def test_zmod_prime_collapses_to_size_bound():
    for xm, ym in ((_s(5, 0, 1), _s(5, 0, 2)), (_s(5, 1, 2, 3), _s(5, 0, 4))):
        chowla, pillai, sharper = ac.verify_zmod(5, xm, ym)
        cap = ac.ExtendedNat(min(5, len(xm) + len(ym) - 1))
        assert pillai.rhs == sharper.rhs == cap
        if chowla.applicable:
            assert chowla.rhs == cap


def test_zmod_dominance_exhaustive_small():
    for m in (6, 8):
        for xm in range(1, 1 << m, 5):
            for ym in range(1, 1 << m, 3):
                _, pillai, sharper = ac.verify_zmod(
                    m, ac.ElementSet(m, xm), ac.ElementSet(m, ym)
                )
                assert sharper.rhs >= pillai.rhs
                assert pillai.satisfied and sharper.satisfied


# ---------------------------------------------------------------------------
# The group bound and its strengthening
# ---------------------------------------------------------------------------


def test_hk_pin_z12():
    z12 = ac.cyclic(12)
    X = _s(12, 1, 4, 7, 10)
    hk, sharper = ac.verify_hk(z12, X, X)
    assert hk.rhs == ac.ExtendedNat(2)  # min(p-constant 2, 7)
    assert hk.lhs == 4 and hk.satisfied
    assert sharper is not None and sharper.statement == "Thm2.2"
    assert sharper.rhs >= hk.rhs


def test_hk_trivial_group_and_errors():
    one = ac.cyclic(1)
    hk, _ = ac.verify_hk(one, _s(1, 0), _s(1, 0))
    assert hk.rhs == ac.ExtendedNat(1)  # min(infinity, 1)
    assert hk.satisfied
    with pytest.raises(ac.NotGroup):
        ac.verify_hk(ac.maxchain(3), _s(3, 0), _s(3, 0))


def test_hk_on_d4_uses_reflection_order():
    d4 = ac.dihedral(4)
    hk, sharper = ac.verify_hk(d4, _s(8, 0, 1), _s(8, 0, 4))
    assert hk.rhs == ac.ExtendedNat(2)  # p-constant of D4 is 2
    assert hk.satisfied
    # span({e, s}) = {e, s} is commutative, so the sharper report appears
    assert sharper is not None and sharper.rhs >= hk.rhs
    # with Y = {r, s} the span is all of D4 and no sharper report exists
    hk2, sharper2 = ac.verify_hk(d4, _s(8, 0, 1), _s(8, 1, 4))
    assert hk2.rhs == ac.ExtendedNat(2) and sharper2 is None


def test_lemma_omega_dominates_p_constant_spot():
    z12 = ac.cyclic(12)
    p = ac.p_constant(z12)
    for mask in (0b11, 0b10010010010, 0b111):
        Z = ac.ElementSet(12, mask)
        if (Z & z12.units).mask == 0:
            continue
        assert ac.omega(z12, Z).overall >= p


# ---------------------------------------------------------------------------
# Statement registry and carriers
# ---------------------------------------------------------------------------


def test_normalize_statement():
    assert ac.normalize_statement("thm2.2") == "Thm2.2"
    assert ac.normalize_statement("CD-1813") == "CD-1813"
    assert ac.normalize_statement("cd") == "CD-1813"
    assert ac.normalize_statement("kemperman") == "Kemperman-weak"
    assert ac.normalize_statement("cor2.9") == "Cor2.9"
    assert ac.normalize_statement("HK") == "HK"
    with pytest.raises(ac.ParseError):
        ac.normalize_statement("fermat")
    assert len(ac.STATEMENTS) == 9


def test_run_statement_residue_gating():
    d4 = ac.dihedral(4)
    with pytest.raises(ac.NotGroup):
        ac.run_statement(d4, "Chowla", _s(8, 0), _s(8, 0))
    # a relabelled cyclic table is fine only if literally standard
    assert is_standard_cyclic(ac.cyclic(6))
    assert not is_standard_cyclic(d4)
    rep = ac.run_statement(ac.cyclic(6), "Pillai", _s(6, 0, 1), _s(6, 0, 3))
    assert rep.statement == "Pillai"


def test_statement_info_flags():
    assert statement_info("Chowla").needs_cyclic
    assert statement_info("HK").needs_group
    assert not statement_info("Thm2.2").needs_group


@pytest.mark.parametrize(
    "A",
    [A for A in ac.builtin_monoids(6) if A.label not in ("cyclic:6", "dihedral:3")],
    ids=lambda A: A.label,
)
def test_run_statement_matches_statement_oracle(A):
    # every pair of non-empty subsets, every statement the carrier takes;
    # cyclic:6, dihedral:3, quaternion8 and product:(cyclic:2,cyclic:4) get
    # the same check in the scalar reference sweeps of test_sweep.py, which
    # run every pair of them
    n = A.n
    statements = [
        s
        for s in ac.STATEMENTS
        if (is_standard_cyclic(A) or not statement_info(s).needs_cyclic)
        and (A.is_group or not statement_info(s).needs_group)
    ]
    sets = [(ac.ElementSet(n, m), [z for z in range(n) if m >> z & 1]) for m in range(1, 1 << n)]
    for X, xs in sets:
        for Y, ys in sets:
            for s in statements:
                rep = ac.run_statement(A, s, X, Y)
                lhs, rhs, hyps = statement_oracle(A, s, xs, ys)
                got = (rep.lhs, rep.rhs, rep.hypotheses)
                assert got == (lhs, rhs, tuple(hyps.items())), (s, xs, ys)


def test_builtin_group_registry_is_complete_for_order_8():
    groups = ac.builtin_groups(8)
    # isomorphism classes: 1+1+1+2+1+2+1+5 = 14 groups of order <= 8
    assert len(groups) == 14
    assert all(g.is_group for g in groups)
    orders = sorted(g.n for g in groups)
    assert orders == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]
    # exactly two non-commutative classes of order 8 and one of order 6
    non_comm = [g.n for g in groups if not g.is_commutative]
    assert sorted(non_comm) == [6, 8, 8]


def test_builtin_monoids_include_chains():
    monoids = ac.builtin_monoids(8)
    labels = {m.label for m in monoids}
    assert "maxchain:8" in labels and "cyclic:8" in labels
    assert all(m.identity is not None for m in monoids)


# ---------------------------------------------------------------------------
# Theorem guards
# ---------------------------------------------------------------------------


def test_theorem_guards_raise_theorem_violated(monkeypatch):
    import addcomb.catalog as catalog
    import addcomb.localization as loc

    with monkeypatch.context() as m:
        # the Pillai right side may not exceed the sharper Cor2.9 one
        m.setattr(catalog, "_pillai_value", lambda mod, S, reduce: 1)
        with pytest.raises(ac.TheoremViolated):
            ac.verify_zmod(4, _s(4, 0, 2), _s(4, 0, 2))
    with monkeypatch.context() as m:
        # the omega-based right side may not fall below the p-constant one
        m.setattr(catalog, "_omega_value", lambda A, S, reduce: 0)
        with pytest.raises(ac.TheoremViolated):
            ac.verify_hk(ac.cyclic(5), _s(5, 0, 1), _s(5, 0, 1))
    with monkeypatch.context() as m:
        # localization always finds a system of distinct representatives
        m.setattr(loc, "_max_matching", lambda rows, n: ([None] * len(rows), [0]))
        with pytest.raises(ac.TheoremViolated):
            ac.localize(ac.cyclic(7), _s(7, 0, 1), _s(7, 0, 1, 2))
    with monkeypatch.context() as m:
        # ... and its k + l - 1 elements are distinct
        m.setattr(loc, "_max_matching", lambda rows, n: ([0] * len(rows), None))
        with pytest.raises(ac.TheoremViolated):
            ac.localize(ac.cyclic(7), _s(7, 0, 1), _s(7, 0, 1, 2))


@pytest.mark.parametrize(
    "statement, patch, m",
    [
        # a false pillai_delta of 1 lifts the Pillai right side above Cor2.9's
        ("Pillai", ("_pillai_value", lambda mod, S, reduce: 1), 4),
        ("Cor2.9", ("_pillai_value", lambda mod, S, reduce: 1), 4),
        # a false omega of 0 drops the Thm2.2 right side below HK's
        ("HK", ("_omega_value", lambda A, S, reduce: 0), 5),
    ],
)
def test_run_statement_forces_each_guard(monkeypatch, statement, patch, m):
    import addcomb.catalog as catalog

    monkeypatch.setattr(catalog, *patch)
    with pytest.raises(ac.TheoremViolated):
        ac.run_statement(ac.cyclic(m), statement, _s(m, 0, m // 2), _s(m, 0, m // 2))


def test_run_statement_checks_a_dominance_pair_only_where_both_apply(monkeypatch):
    # a false omega of 0 drops the Thm2.2 right side below HK's; the pair is
    # checked only when Thm2.2 applies too, so not while span(Y) is not
    # commutative: span({1,3}) is all of dihedral:3, span({0,1}) is cyclic
    import addcomb.catalog as catalog

    monkeypatch.setattr(catalog, "_omega_value", lambda A, S, reduce: 0)
    d3 = ac.dihedral(3)
    rep = ac.run_statement(d3, "HK", _s(6, 0, 1), _s(6, 1, 3))
    assert rep.applicable and rep.satisfied
    with pytest.raises(ac.TheoremViolated):
        ac.run_statement(d3, "HK", _s(6, 0, 1), _s(6, 0, 1))


def test_hk_computes_omega_only_where_thm22_applies(monkeypatch):
    # span({1,3}) is all of dihedral:3, so Thm2.2 does not apply and omega(Y),
    # its right side, is not computed; span({0,1}) is cyclic, so it is
    import addcomb.catalog as catalog

    calls = []
    real = catalog._omega_value
    monkeypatch.setattr(catalog, "_omega_value", lambda *args: calls.append(1) or real(*args))
    d3, X = ac.dihedral(3), _s(6, 0, 1)
    for Y, want in ((_s(6, 1, 3), 0), (_s(6, 0, 1), 1)):
        calls.clear()
        hk = ac.run_statement(d3, "HK", X, Y)
        assert len(calls) == want
        calls.clear()
        assert ac.verify_hk(d3, X, Y)[0] == hk
        assert len(calls) == want
