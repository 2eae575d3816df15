"""Sumsets, iterated sumsets, difference sets, and the span equivalence."""

from __future__ import annotations

import pytest

import addcomb as ac
from addcomb import cli
from support import commutative_span_masks, iter_nonempty_masks, sumset_oracle


def _s(n, *els):
    return ac.ElementSet.of(n, *els)


# ---------------------------------------------------------------------------
# Sumsets
# ---------------------------------------------------------------------------


def test_sumset_pins():
    z5 = ac.cyclic(5)
    assert ac.sumset(z5, _s(5, 0, 1), _s(5, 0, 1)) == _s(5, 0, 1, 2)
    assert ac.sumset(z5, _s(5, 1, 4), _s(5, 0)) == _s(5, 1, 4)
    assert ac.sumset(z5, ac.ElementSet.empty(5), _s(5, 1)) == ac.ElementSet.empty(5)
    d4 = ac.dihedral(4)
    # {e, s} + {e, r} = {e, r, s, sr}
    assert ac.sumset(d4, _s(8, 0, 4), _s(8, 0, 1)) == _s(8, 0, 1, 4, 5)


def test_sumset_matches_oracle_exhaustively():
    for A in (ac.cyclic(5), ac.dihedral(3), ac.maxchain(3), ac.leftzero(3)):
        n = A.n
        for xm in range(1 << n):
            X = ac.ElementSet(n, xm)
            for ym in range(1 << n):
                Y = ac.ElementSet(n, ym)
                assert set(ac.sumset(A, X, Y)) == sumset_oracle(A, X, Y)


def test_sumset_checks_carrier():
    with pytest.raises(ValueError):
        ac.sumset(ac.cyclic(5), _s(4, 0), _s(5, 0))


# ---------------------------------------------------------------------------
# Iterated sumsets
# ---------------------------------------------------------------------------


def test_n_fold_pins():
    z15 = ac.cyclic(15)
    X = _s(15, 1, 4, 7, 10, 13)
    assert ac.n_fold(z15, X, 1) == X
    assert ac.n_fold(z15, X, 2) == _s(15, 2, 5, 8, 11, 14)
    assert ac.n_fold(z15, X, 3) == _s(15, 0, 3, 6, 9, 12)
    z8 = ac.cyclic(8)
    assert ac.n_fold(z8, _s(8, 0, 1), 4) == _s(8, 0, 1, 2, 3, 4)


def test_n_fold_agrees_with_step_by_step_sums():
    # kZ read off the cycle of sums must match plain left-to-right folding,
    # past the point where the sums recur, on commutative and other carriers
    carriers = (ac.cyclic(9), ac.maxchain(4), ac.product(ac.cyclic(2), ac.cyclic(4)),
                ac.dihedral(3), ac.leftzero(3))
    assert [A.is_commutative for A in carriers] == [True, True, True, False, False]
    for A in carriers:
        for mask in iter_nonempty_masks(min(A.n, 6)):
            X = ac.ElementSet(A.n, mask)
            step = X
            for k in range(1, 30):
                assert ac.n_fold(A, X, k) == step
                step = ac.sumset(A, step, X)


def test_n_fold_of_a_huge_count_reads_the_cycle():
    d3 = ac.dihedral(3)  # rotations 0, 1, 2; reflections 3, 4, 5
    k = 10**18  # k = 1 mod 3, and even
    assert ac.n_fold(d3, _s(6, 0, 3), k) == _s(6, 0, 3)  # a subgroup
    assert ac.n_fold(d3, _s(6, 1), k) == _s(6, 1)  # r^k = r
    assert ac.n_fold(d3, _s(6, 3), k) == _s(6, 0)  # s^k = e
    assert ac.n_fold(d3, _s(6, 3), k + 1) == _s(6, 3)


def test_n_fold_non_commutative_and_errors():
    d3 = ac.dihedral(3)
    X = _s(6, 1, 3)
    assert ac.n_fold(d3, X, 3) == ac.sumset(d3, ac.sumset(d3, X, X), X)
    with pytest.raises(ac.ValidationError):
        ac.n_fold(d3, X, 0)
    for k in (2.5, 5.0):  # refused as a non-int k, like k = 0
        with pytest.raises(ac.ValidationError):
            ac.n_fold(d3, X, k)


# ---------------------------------------------------------------------------
# Difference sets
# ---------------------------------------------------------------------------


def test_right_difference_definition():
    # X - Y = {z : (z + Y) meets X}
    for A in (ac.cyclic(6), ac.dihedral(3), ac.maxchain(3)):
        n = A.n
        for xm in range(1 << n):
            X = set(ac.ElementSet(n, xm))
            for ym in range(1 << n):
                Y = ac.ElementSet(n, ym)
                got = ac.right_difference(A, ac.ElementSet(n, xm), Y)
                want = {z for z in range(n) if any(A.add(z, y) in X for y in Y)}
                assert set(got) == want


def test_left_difference_definition():
    for A in (ac.cyclic(6), ac.dihedral(3)):
        n = A.n
        for xm in range(1, 1 << n, 7):
            X = ac.ElementSet(n, xm)
            for ym in range(1 << n):
                Y = set(ac.ElementSet(n, ym))
                got = ac.left_difference(A, X, ac.ElementSet(n, ym))
                want = {z for z in range(n) if any(A.add(x, z) in Y for x in X)}
                assert set(got) == want


def test_difference_in_cyclic_matches_arithmetic():
    z7 = ac.cyclic(7)
    X = _s(7, 0, 1, 3)
    Y = _s(7, 2, 5)
    # z - Y meets X  <=>  z in X + Y for the inverted Y; in Z/m it is x - y
    want = {(x - y) % 7 for x in X for y in Y}
    assert set(ac.right_difference(z7, X, Y)) == want


# ---------------------------------------------------------------------------
# Span check
# ---------------------------------------------------------------------------


def test_span_check_pins():
    z4 = ac.cyclic(4)
    assert ac.span_check(z4, _s(4, 0), _s(4, 0, 2)) == (True, True, True)
    assert ac.span_check(z4, _s(4, 1), _s(4, 1)) == (False, False, False)
    mc = ac.maxchain(4)
    assert ac.span_check(mc, _s(4, 1), _s(4, 0, 2)) == (True, True, True)


def test_span_check_booleans_always_agree():
    for A in (ac.cyclic(8), ac.maxchain(4), ac.dihedral(3), ac.leftzero(3)):
        n = A.n
        for xm in iter_nonempty_masks(n):
            X = ac.ElementSet(n, xm)
            for ym in iter_nonempty_masks(n):
                c1, c2, c3 = ac.span_check(A, X, ac.ElementSet(n, ym))
                assert c1 == c2 == c3


def test_span_is_commutative():
    d4 = ac.dihedral(4)
    assert ac.span_is_commutative(d4, _s(8, 1, 2))  # rotations commute
    assert not ac.span_is_commutative(d4, _s(8, 1, 4))  # r and s generate D4
    assert ac.span_is_commutative(d4, _s(8, 5))  # a single reflection
    assert ac.span_is_commutative(ac.cyclic(6), ac.ElementSet.full(6))
    q8 = ac.quaternion8()
    assert ac.span_is_commutative(q8, _s(8, 0, 2))  # {1, i} spans {1,-1,i,-i}
    assert not ac.span_is_commutative(q8, _s(8, 2, 4))  # i and j


def test_span_is_commutative_checks_the_set_on_every_carrier():
    # the wrong carrier, and not a set, on a commutative and a
    # non-commutative carrier alike
    for A in (ac.cyclic(5), ac.dihedral(3)):
        with pytest.raises(ValueError):
            ac.span_is_commutative(A, _s(7, 3))
        with pytest.raises(TypeError):
            ac.span_is_commutative(A, "junk")


def test_span_is_commutative_matches_closure_oracle():
    for A in (ac.dihedral(4), ac.quaternion8(), ac.maxchain(4)):
        want = set(commutative_span_masks(A))
        for mask in iter_nonempty_masks(A.n):
            Y = ac.ElementSet(A.n, mask)
            assert ac.span_is_commutative(A, Y) == (mask in want), (A.label, mask)


# ---------------------------------------------------------------------------
# Least sumsets: Eliahou-Kervaire-Plagne
# ---------------------------------------------------------------------------

# every abelian group of order <= 8, as the spec grammar builds it from
# cyclic factors above 1, with both orders of two unequal factors
EKP_CARRIERS = ["cyclic:%d" % n for n in range(1, 9)] + [
    "product:(cyclic:2,cyclic:2)",
    "product:(cyclic:2,cyclic:3)",
    "product:(cyclic:3,cyclic:2)",
    "product:(cyclic:2,cyclic:4)",
    "product:(cyclic:4,cyclic:2)",
    "product:(cyclic:2,product:(cyclic:2,cyclic:2))",
]


def _ekp_mu(n, r, s):
    """min over d | n of (ceil(r/d) + ceil(s/d) - 1) d: the least |X + Y|
    over |X| = r, |Y| = s in an abelian group of order n (Eliahou,
    Kervaire and Plagne, "Optimally small sumsets in finite abelian
    groups", 2003)."""
    return min((-(-r // d) - (-s // d) - 1) * d for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("spec", EKP_CARRIERS)
def test_least_sumsets_on_abelian_groups_equal_ekp(spec):
    A = cli.parse_spec(spec)
    assert A.is_group and A.is_commutative
    n = A.n
    sets = [(ac.ElementSet(n, mask), mask.bit_count()) for mask in range(1, 1 << n)]
    least = {}
    for X, r in sets:
        for Y, s in sets:
            size = len(ac.sumset(A, X, Y))
            if size < least.get((r, s), n + 1):
                least[r, s] = size
    sizes = range(1, n + 1)
    assert least == {(r, s): _ekp_mu(n, r, s) for r in sizes for s in sizes}
