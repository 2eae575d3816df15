"""Acceptance battery: ten end-to-end checks, one test function per criterion.

Each test is self-contained and exhaustive at its stated scope, so a
``pytest -v`` run prints exactly one pass/fail line per criterion.  The three
turnaround budgets (criteria 1, 2 and 4) are asserted in-line.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import addcomb as ac
from support import hall_oracle

INF = ac.ExtendedNat(None)


def _masks(n):
    return range(1, 1 << n)


# ---------------------------------------------------------------------------
# 1. Prime-modulus sumset bound, exhaustive over all non-empty pairs
# ---------------------------------------------------------------------------


def test_01_prime_cyclic_bound_exhaustive_with_tight_pairs():
    t0 = time.monotonic()
    for p in (2, 3, 5, 7, 11, 13):
        s = ac.sweep(ac.cyclic(p), "CD-1813")
        assert s.pairs == ((1 << p) - 1) ** 2
        assert s.applicable == s.pairs  # prime cyclic: hypotheses always hold
        assert s.violation_count == 0 and s.violations == ()
        assert s.tight >= 1 and s.first_tight is not None
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. Span-commutative bound on non-abelian groups, hypothesis-gated sweeps
# ---------------------------------------------------------------------------


def test_02_nonabelian_sweeps_gate_and_hold():
    t0 = time.monotonic()
    expected_applicable = {
        "dihedral:4": 9945,
        "dihedral:5": 41943,
        "quaternion8": 9945,
    }
    for A in (ac.dihedral(4), ac.dihedral(5), ac.quaternion8()):
        s = ac.sweep(A, "Thm2.2")
        assert s.pairs == ((1 << A.n) - 1) ** 2
        assert s.pairs >= 10_000
        assert s.applicable == expected_applicable[A.label]
        assert s.applicable < s.pairs  # the gate really excludes pairs
        assert s.violation_count == 0
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 3. Transform audit over every small group, every candidate
# ---------------------------------------------------------------------------


def test_03_transform_audit_holds_on_all_small_groups():
    audited = identity_checked = 0
    for A in ac.builtin_groups(8):
        n, e = A.n, A.identity
        for xm in _masks(n):
            X = ac.ElementSet(n, xm)
            for ym in _masks(n):
                Y = ac.ElementSet(n, ym)
                for z in ac.transform_candidates(A, X, Y, 1):
                    res = ac.apply_transform(A, X, Y, 1, z)
                    if e in Y:  # identity retention in the kept part
                        assert e in res.y_prime, (A.label, xm, ym, z)
                        identity_checked += 1
                    if res.y_prime.mask == 0:
                        continue  # audit hypotheses need a non-empty Y'
                    audit = ac.audit_transform(A, X, Y, res)
                    assert not audit.any_applicable_false, (A.label, xm, ym, z)
                    if audit.item_v is not None:
                        assert audit.v_lhs >= audit.v_rhs
                    audited += 1
    assert audited >= 50_000
    assert identity_checked >= 10_000


# ---------------------------------------------------------------------------
# 4. Order-based constant equals modulus over gcd-based constant
# ---------------------------------------------------------------------------


def test_04_omega_equals_m_over_delta_exhaustive():
    t0 = time.monotonic()
    checked = 0
    for m in range(2, 17):
        A = ac.cyclic(m)
        for mask in _masks(m):
            if mask.bit_count() < 2:
                continue
            Z = ac.ElementSet(m, mask)
            w = ac.omega(A, Z).overall
            d = ac.delta(m, Z)
            assert m % d == 0
            assert w == ac.ExtendedNat(m // d), (m, mask)
            checked += 1
    assert checked == sum((1 << m) - 1 - m for m in range(2, 17))
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 5. The sharper residue bound dominates the classical gcd bound
# ---------------------------------------------------------------------------


def test_05_sharper_residue_bound_dominates_classical():
    m = 12
    # Both right-hand sides depend on X only through (delta(X), |X|): the
    # classical bound ignores X except for the |X|+|Y|-1 cap and the sharper
    # one adds min(delta(X), delta(Y)).  Classifying every X mask (so the
    # reduction itself is exhaustive) and checking one representative per
    # class against every Y covers every pair.
    x_class: dict[int, tuple] = {}
    reps: dict[tuple, int] = {}
    for xm in _masks(m):
        key = (ac.delta(m, ac.ElementSet(m, xm)), xm.bit_count())
        x_class[xm] = key
        reps.setdefault(key, xm)

    strict = 0
    by_class_y: dict[tuple, tuple] = {}
    for ym in _masks(m):
        Y = ac.ElementSet(m, ym)
        for key, xm in reps.items():
            _, pillai, sharper = ac.verify_zmod(m, ac.ElementSet(m, xm), Y)
            assert pillai.applicable and sharper.applicable  # no hypotheses
            assert sharper.rhs >= pillai.rhs, (ym, key)
            if sharper.rhs > pillai.rhs:
                strict += 1
            by_class_y[key + (ym,)] = (pillai.rhs, sharper.rhs)
    assert strict >= 1

    # spot-check the class reduction on arbitrary X
    rng = random.Random(20260825)
    for _ in range(2000):
        xm = rng.randrange(1, 1 << m)
        ym = rng.randrange(1, 1 << m)
        _, pillai, sharper = ac.verify_zmod(m, ac.ElementSet(m, xm), ac.ElementSet(m, ym))
        assert (pillai.rhs, sharper.rhs) == by_class_y[x_class[xm] + (ym,)]

    # the recorded strict witness
    X, Y = ac.ElementSet.of(m, 0, 1), ac.ElementSet.of(m, 0, 6)
    _, pillai, sharper = ac.verify_zmod(m, X, Y)
    assert pillai.applicable and sharper.applicable
    assert sharper.rhs == ac.ExtendedNat(3) and pillai.rhs == ac.ExtendedNat(2)
    assert pillai.lhs == sharper.lhs == 4


# ---------------------------------------------------------------------------
# 6. Omega of any unit-meeting set is at least the carrier's order floor
# ---------------------------------------------------------------------------


def test_06_omega_floor_on_builtin_monoids():
    assert ac.p_constant(ac.cyclic(12)) == ac.ExtendedNat(2)
    for A in ac.builtin_monoids(8):
        floor = ac.p_constant(A)
        units_mask = A.units.mask
        for mask in _masks(A.n):
            if mask & units_mask == 0:
                continue
            Z = ac.ElementSet(A.n, mask)
            assert ac.omega(A, Z).overall >= floor, (A.label, mask)


# ---------------------------------------------------------------------------
# 7. The three closure-stability formulations agree
# ---------------------------------------------------------------------------


def test_07_span_stability_formulations_agree():
    for A in (ac.cyclic(8), ac.maxchain(4)):
        n = A.n
        for xm in _masks(n):
            X = ac.ElementSet(n, xm)
            for ym in _masks(n):
                checks = ac.span_check(A, X, ac.ElementSet(n, ym))
                assert checks[0] == checks[1] == checks[2], (A.label, xm, ym)


# ---------------------------------------------------------------------------
# 8. Localization always finds k + l - 1 elements, distinct representatives
# ---------------------------------------------------------------------------

# localize calls per carrier: every pair with |X+Y| < omega(Y) and span(Y)
# commutative
LOCALIZED = {
    "cyclic:2": 6, "cyclic:3": 30, "cyclic:5": 480, "cyclic:7": 6426,
    "cyclic:11": 948_893, "dihedral:4": 2136,
}


def _qualifying_localize_battery(A):
    """Localize every pair with |X+Y| < omega(Y) and a commutative span of Y.

    Yields (ym, sums, result) per pair: ym is the mask of Y, sums[i] the
    mask of x_i + Y for X in ascending order, and result is localize's.
    Over the Y masks ym, the masks of x + Y are filled from the table by
    f[ym] = f[ym - 2^j] | (x + j) over the highest bit j of ym, and those
    of X + Y are their unions.
    """
    n, table = A.n, A.table
    # the |X+Y| each Y needs to qualify: omega(Y) (n + 1 for infinity, above
    # every |X+Y|) when span(Y) is commutative, else 0; 0 for the empty Y
    bound = [0] * (1 << n)
    for ym in _masks(n):
        Y = ac.ElementSet(n, ym)
        if ac.span_is_commutative(A, Y):
            w = ac.omega(A, Y).overall
            bound[ym] = w.value if w.is_finite else n + 1
    plus = []  # plus[x][ym]: the mask of x + Y
    for x in range(n):
        f = [0]
        for j in range(n):
            f += [s | 1 << table[x][j] for s in f]
        plus.append(f)
    for xm in _masks(n):
        xs = [x for x in range(n) if xm >> x & 1]
        X = ac.ElementSet(n, xm)
        f = plus[xs[0]]
        for x in xs[1:]:
            f = [s | t for s, t in zip(f, plus[x])]
        for ym, s in enumerate(f):
            if s.bit_count() < bound[ym]:
                sums = [plus[x][ym] for x in xs]
                yield ym, sums, ac.localize(A, X, ac.ElementSet(n, ym))


def test_08_localization_exhaustive_with_hall_oracle():
    for A in (ac.cyclic(2), ac.cyclic(3), ac.cyclic(5), ac.cyclic(7), ac.cyclic(11), ac.dihedral(4)):
        count = 0
        for ym, sums, result in _qualifying_localize_battery(A):
            k, zmask = len(sums), result.Z.mask
            assert len(result.witness_set()) == k + ym.bit_count() - 1, (A.label, sums)
            # the rows (x_i + Y) - Z: reps[i] in row i, all distinct, is a
            # system of distinct representatives
            rows = [row & ~zmask for row in sums]
            reps = result.representatives
            assert all(row >> z & 1 for z, row in zip(reps, rows)), (A.label, sums)
            assert len(set(reps)) == k, (A.label, sums)
            if A.n <= 8:  # Hall's condition, subset by subset
                elements = [[e for e in range(A.n) if row >> e & 1] for row in rows]
                assert hall_oracle(elements) is None, (A.label, sums)
            count += 1
        assert count == LOCALIZED[A.label]

    # small moduli: every admissible fixed subset works, not just the default
    for p in (2, 3, 5):
        A = ac.cyclic(p)
        for xm in _masks(p):
            X = ac.ElementSet(p, xm)
            for ym in _masks(p):
                Y = ac.ElementSet(p, ym)
                total = ac.sumset(A, X, Y)
                w = ac.omega(A, Y).overall
                if ac.ExtendedNat(len(total)) >= w:
                    continue
                target = len(Y) - 1
                for zm in range(1 << p):
                    if zm.bit_count() != target or zm & ~total.mask:
                        continue
                    result = ac.localize(A, X, Y, Z=ac.ElementSet(p, zm))
                    assert len(result.witness_set()) == len(X) + len(Y) - 1


# ---------------------------------------------------------------------------
# 9. Pinned worked examples: prime-step progression and composite modulus
# ---------------------------------------------------------------------------


def test_09_pinned_progression_examples():
    z15 = ac.cyclic(15)
    X = ac.ElementSet.of(15, 1, 4, 7, 10, 13)
    doubled = ac.n_fold(z15, X, 2)
    assert len(doubled) == 5
    assert ac.cd_constant(z15, X, X) == ac.ExtendedNat(5)  # equality: bound is tight

    z12 = ac.cyclic(12)
    X4 = ac.ElementSet.of(12, 1, 4, 7, 10)
    assert ac.omega(z12, X4).overall == ac.ExtendedNat(2)
    report = ac.verify_main(z12, X4, X4)
    assert report.applicable and report.satisfied
    assert report.lhs == 4 and report.rhs == ac.ExtendedNat(2)


# ---------------------------------------------------------------------------
# 10. Worker count never changes the machine report
# ---------------------------------------------------------------------------


def test_10_sweep_reports_identical_across_worker_counts():
    def machine_sweep(spec, jobs):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "addcomb.cli",
                "sweep",
                "--semigroup",
                spec,
                "--statement",
                "thm2.2",
                "--jobs",
                str(jobs),
                "--json",
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for spec in ("dihedral:4", "dihedral:5", "quaternion8"):
        single = machine_sweep(spec, 1)
        assert machine_sweep(spec, 8) == single
    # and rerunning with the same worker count is also byte-stable
    assert machine_sweep("dihedral:4", 1) == machine_sweep("dihedral:4", 1)
