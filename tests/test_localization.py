"""Sum matrices, distinct representatives, and the Hall cross-oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import addcomb as ac
import addcomb.localization  # noqa: F401
import sys
from support import hall_oracle, matching_oracle

loc_mod = sys.modules["addcomb.localization"]


def _s(n, *els):
    return ac.ElementSet.of(n, *els)


# ---------------------------------------------------------------------------
# Sum matrix
# ---------------------------------------------------------------------------


def test_sum_matrix_pins():
    z5 = ac.cyclic(5)
    m = ac.sum_matrix(z5, _s(5, 0, 1), _s(5, 0, 1, 2))
    assert m.entries == ((0, 1, 2), (1, 2, 3))
    assert m.k == 2 and m.l == 3
    assert m.x_order == (0, 1) and m.y_order == (0, 1, 2)

    d4 = ac.dihedral(4)
    m = ac.sum_matrix(d4, _s(8, 0, 4), _s(8, 0, 1))  # X={e,s}, Y={e,r}
    assert m.entries == ((0, 1), (4, 5))  # [[e, r], [s, sr]]


def test_sum_matrix_single_row():
    z6 = ac.cyclic(6)
    m = ac.sum_matrix(z6, _s(6, 2), _s(6, 0, 1, 3))
    assert m.entries == ((2, 3, 5),)


def test_sum_matrix_entry_set_is_sumset():
    for A in (ac.cyclic(6), ac.dihedral(3), ac.maxchain(3)):
        n = A.n
        for xm in range(1, 1 << n, 3):
            for ym in range(1, 1 << n, 5):
                X, Y = ac.ElementSet(n, xm), ac.ElementSet(n, ym)
                m = ac.sum_matrix(A, X, Y)
                assert m.entry_set(n) == ac.sumset(A, X, Y)


def test_sum_matrix_custom_numbering():
    z5 = ac.cyclic(5)
    m = ac.sum_matrix(z5, _s(5, 0, 1), _s(5, 0, 1, 2), x_order=(1, 0))
    assert m.entries == ((1, 2, 3), (0, 1, 2))
    with pytest.raises(ValueError):
        ac.sum_matrix(z5, _s(5, 0, 1), _s(5, 0), x_order=(0, 2))
    with pytest.raises(ac.EmptySet):
        ac.sum_matrix(z5, ac.ElementSet.empty(5), _s(5, 0))


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


def test_localize_pin_mod5():
    z5 = ac.cyclic(5)
    r = ac.localize(z5, _s(5, 0, 1), _s(5, 0, 1, 2))
    assert r.Z == _s(5, 0, 1)  # default x_1 + {y_1, y_2}
    assert r.representatives == (2, 3)
    assert r.witness_set() == _s(5, 0, 1, 2, 3)
    assert len(r.witness_set()) == 2 + 3 - 1


def test_localize_pin_mod7_explicit_z():
    z7 = ac.cyclic(7)
    r = ac.localize(z7, _s(7, 0, 1, 3), _s(7, 0, 1), Z=_s(7, 0))
    # rows minus Z: {1}, {1,2}, {3,4}
    assert r.representatives == (1, 2, 3)
    assert len(r.witness_set()) == 4


def test_localize_single_column():
    z6 = ac.cyclic(6)
    r = ac.localize(z6, _s(6, 0, 2, 4), _s(6, 1))
    assert r.Z == ac.ElementSet.empty(6)
    assert r.representatives == (1, 3, 5)


def test_localize_preconditions():
    with pytest.raises(ac.PreconditionFailed) as exc:
        ac.localize(ac.leftzero(3), _s(3, 0), _s(3, 1, 2))
    assert "cancellative" in exc.value.failed

    d4 = ac.dihedral(4)
    with pytest.raises(ac.PreconditionFailed) as exc:
        ac.localize(d4, _s(8, 0), _s(8, 1, 4))
    assert "span_y_commutative" in exc.value.failed

    z5 = ac.cyclic(5)
    with pytest.raises(ac.PreconditionFailed) as exc:
        ac.localize(z5, ac.ElementSet.full(5), ac.ElementSet.full(5))
    assert exc.value.failed == ("sumset_smaller_than_omega",)

    with pytest.raises(ac.EmptySet):
        ac.localize(z5, ac.ElementSet.empty(5), _s(5, 0))


def test_localize_bad_z():
    z5 = ac.cyclic(5)
    X, Y = _s(5, 0, 1), _s(5, 0, 1, 2)
    with pytest.raises(ac.BadZ):
        ac.localize(z5, X, Y, Z=_s(5, 0))  # wrong size
    with pytest.raises(ac.BadZ):
        ac.localize(z5, X, Y, Z=_s(5, 0, 4))  # 4 outside X+Y


def test_localize_every_valid_z_mod5():
    z5 = ac.cyclic(5)
    X, Y = _s(5, 0, 1), _s(5, 0, 1, 2)
    total = ac.sumset(z5, X, Y)
    count = 0
    for zm in range(1 << 5):
        Z = ac.ElementSet(5, zm)
        if len(Z) != len(Y) - 1 or not Z <= total:
            continue
        r = ac.localize(z5, X, Y, Z=Z)
        assert len(r.witness_set()) == len(X) + len(Y) - 1
        count += 1
    assert count == 6  # C(4, 2) choices of Z inside the 4-element sumset


def test_localize_deterministic():
    z7 = ac.cyclic(7)
    runs = {ac.localize(z7, _s(7, 0, 1, 3), _s(7, 0, 1)).representatives for _ in range(5)}
    assert len(runs) == 1


# ---------------------------------------------------------------------------
# hall_check
# ---------------------------------------------------------------------------


def test_hall_check_pins():
    assert ac.hall_check([_s(4, 2), _s(4, 2, 3)]) == (True, None)
    ok, witness = ac.hall_check([_s(4, 1), _s(4, 1)])
    assert not ok and witness == (0, 1)
    ok, witness = ac.hall_check([ac.ElementSet.empty(4), _s(4, 1)])
    assert not ok and witness == (0,)
    assert ac.hall_check([]) == (True, None)


def test_hall_check_witness_is_violating():
    families = [
        [_s(6, 0, 1), _s(6, 0, 1), _s(6, 0, 1), _s(6, 3)],
        [_s(6, 2), _s(6, 2), _s(6, 4, 5), _s(6, 4)],
        [ac.ElementSet.empty(6), _s(6, 1, 2)],
    ]
    for sets in families:
        ok, witness = ac.hall_check(sets)
        assert not ok
        union = ac.ElementSet.empty(6)
        for i in witness:
            union = union | sets[i]
        assert len(union) < len(witness)


def _hall_expected(sets):
    witness = hall_oracle(sets)
    return (True, None) if witness is None else (False, witness)


def test_hall_check_equals_the_plain_set_oracle_on_every_three_row_family():
    import itertools

    # all 512 families of three rows over 3 elements: verdict and witness
    violating = 0
    for masks in itertools.product(range(8), repeat=3):
        sets = [ac.ElementSet(3, m) for m in masks]
        verdict = ac.hall_check(sets)
        assert verdict == _hall_expected(sets)
        violating += not verdict[0]
    assert 0 < violating < 512


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.sets(st.integers(0, n - 1), max_size=4), max_size=12).map(
        lambda rows: [ac.ElementSet.from_elements(n, row) for row in rows]
    )
))
def test_hall_check_equals_the_plain_set_oracle(sets):
    assert ac.hall_check(sets) == _hall_expected(sets)


def test_hall_check_of_twenty_rows_builds_no_subset_table():
    import tracemalloc

    hall_check = ac.hall_check
    rows = [_s(32, i) for i in range(21)]
    tracemalloc.start()
    try:
        verdict = hall_check(rows[:20])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert verdict[0] == hall_check(rows)[0]


def test_hall_check_large_family_uses_matching():
    sets = [_s(30, i) for i in range(25)]
    assert ac.hall_check(sets) == (True, None)
    sets[7] = ac.ElementSet.empty(30)
    ok, witness = ac.hall_check(sets)
    assert not ok and witness == (7,)


def test_hall_check_rejects_mixed_carriers():
    with pytest.raises(ValueError):
        ac.hall_check([_s(4, 1), _s(5, 1)])


# ---------------------------------------------------------------------------
# The matching routine against the plain-set augmenting-path oracle
# ---------------------------------------------------------------------------


def test_max_matching_takes_a_free_least_element_and_reroutes_a_taken_one():
    # row 1's least element 0 is row 0's, which moves to 1; row 2 then has
    # no augmenting path, so it and row 3 stay unmatched; the failed search
    # reached rows 0, 1 and 2, whose union {0, 1} is one element short
    rows = [0b011, 0b001, 0b011, 0b100]
    assert loc_mod._max_matching(rows, 3) == ([1, 0, None, None], [0, 1, 2])
    assert matching_oracle(rows, 3) == [1, 0, None, None]
    assert loc_mod._max_matching([0b001, 0b010, 0b110], 3) == ([0, 1, 2], None)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        # few elements per row over a small carrier, so that least
        # elements are often taken and augmenting paths are long
        st.lists(st.sets(st.integers(0, n - 1), max_size=4), max_size=n + 2),
    )
))
def test_max_matching_equals_the_augmenting_path_oracle(case):
    n, row_sets = case
    rows = [sum(1 << e for e in row) for row in row_sets]
    matched, reached = loc_mod._max_matching(rows, n)
    assert matched == matching_oracle(rows, n)
    if None in matched:
        union = 0
        for i in reached:
            union |= rows[i]
        assert union.bit_count() == len(reached) - 1
        assert reached == sorted(set(reached)) and reached[-1] == matched.index(None)
    else:
        assert reached is None


def test_witness_set_equals_z_with_the_checked_representatives():
    # the localization battery's carriers below order 11, every pair, and on
    # cyclic:5 every admissible Z: the witness set built from its mask is
    # the one built from Z and the representatives element by element
    seen = 0
    for A in (ac.cyclic(2), ac.cyclic(3), ac.cyclic(5), ac.cyclic(7), ac.dihedral(4)):
        n = A.n
        for xm in range(1, 1 << n):
            for ym in range(1, 1 << n):
                X, Y = ac.ElementSet(n, xm), ac.ElementSet(n, ym)
                zs = [None]
                if n == 5:
                    total = ac.sumset(A, X, Y).mask
                    zs += [ac.ElementSet(n, zm) for zm in range(1 << n)
                           if zm.bit_count() == len(Y) - 1 and zm & ~total == 0]
                for Z in zs:
                    try:
                        r = ac.localize(A, X, Y, Z)
                    except ac.PreconditionFailed:
                        break
                    old = r.Z | ac.ElementSet.from_elements(n, r.representatives)
                    assert r.witness_set() == old and type(r.witness_set()) is ac.ElementSet
                    seen += 1
    assert seen > 1000
