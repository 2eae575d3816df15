"""The order-based bound constants and their gcd form on residues."""

from __future__ import annotations

import math
import random

import pytest

import addcomb as ac
from addcomb.catalog import _gcd_w
from addcomb.core import INF, _reduce
from support import iter_nonempty_masks, level_row, omega_oracle


def _s(n, *els):
    return ac.ElementSet.of(n, *els)


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------


def test_omega_breakdown_pins():
    z12 = ac.cyclic(12)
    br = ac.omega(z12, _s(12, 1, 4, 7, 10))
    assert br.overall == ac.ExtendedNat(2)
    assert [z0 for z0, _ in br.rows] == [1, 4, 7, 10]
    # every difference z - z0 lands in {3, 6, 9}, whose orders are 4, 2, 4
    assert all(inner == ac.ExtendedNat(2) for _, inner in br.rows)


def test_omega_singleton_unit_is_infinite():
    z5 = ac.cyclic(5)
    br = ac.omega(z5, _s(5, 3))
    assert br.overall == ac.INFINITY
    assert br.rows == ((3, ac.INFINITY),)


def test_omega_without_units_is_zero():
    mc = ac.maxchain(4)
    br = ac.omega(mc, _s(4, 1, 2))  # no unit in Z
    assert br.rows == ()
    assert br.overall == ac.ExtendedNat(0)
    br_empty = ac.omega(ac.cyclic(5), ac.ElementSet.empty(5))
    assert br_empty.overall == ac.ExtendedNat(0)


def test_omega_matches_oracle_exhaustively():
    for A in (ac.cyclic(8), ac.dihedral(3), ac.maxchain(3), ac.quaternion8()):
        for mask in iter_nonempty_masks(A.n):
            Z = ac.ElementSet(A.n, mask)
            want = omega_oracle(A, Z.elements())
            got = ac.omega(A, Z).overall
            if want is None:
                assert got == ac.INFINITY
            else:
                assert got == ac.ExtendedNat(want)


@pytest.mark.parametrize(
    "A", [ac.cyclic(40), ac.cyclic(64), ac.product(ac.dihedral(4), ac.maxchain(3))],
    ids=lambda A: A.label,
)
def test_omega_matches_oracle_on_sampled_sets(A):
    # carriers over 16 elements, the product with units and non-units
    for mask in _sampled_masks(A.n, 200, A.n):
        Z = ac.ElementSet(A.n, mask)
        want = omega_oracle(A, Z.elements())
        want = ac.INFINITY if want is None else ac.ExtendedNat(want)
        assert ac.omega(A, Z).overall == want
        assert ac.omega_pair(A, Z, Z) == want


def test_omega_overall_attained_by_a_row_on_groups():
    # the supremum over a finite set is a maximum: some row realizes it
    for A in (ac.cyclic(9), ac.dihedral(4)):
        for mask in iter_nonempty_masks(A.n):
            br = ac.omega(A, ac.ElementSet(A.n, mask))
            assert br.rows and br.overall in [inner for _, inner in br.rows]


def test_omega_pair_and_cd_constant():
    z15 = ac.cyclic(15)
    X = _s(15, 1, 4, 7, 10, 13)
    assert ac.omega_pair(z15, X, X) == ac.ExtendedNat(5)
    assert ac.cd_constant(z15, X, X) == ac.ExtendedNat(5)
    # symmetry and the size cap
    z7 = ac.cyclic(7)
    A1, B1 = _s(7, 0, 1), _s(7, 2)
    assert ac.cd_constant(z7, A1, B1) == ac.cd_constant(z7, B1, A1)
    assert ac.cd_constant(z7, A1, B1) == ac.ExtendedNat(2)  # |X|+|Y|-1
    # empty operand gives zero
    assert ac.cd_constant(z7, ac.ElementSet.empty(7), B1) == ac.ExtendedNat(0)


# ---------------------------------------------------------------------------
# delta (gcd forms)
# ---------------------------------------------------------------------------


def test_delta_pins():
    assert ac.delta(12, _s(12, 0, 6)) == 6
    assert ac.delta(12, _s(12, 0, 1)) == 1
    assert ac.delta(12, _s(12, 1, 4, 7, 10)) == 6  # differences 3,6,9: max gcd 6 per row
    assert ac.delta(12, _s(12, 3)) == 1  # singleton convention
    assert ac.pillai_delta(12, _s(12, 0, 6)) == 6
    assert ac.pillai_delta(12, _s(12, 0, 4, 6)) == 6
    # min-max vs max-max: the two constants genuinely differ here.
    # Z = {0,1,6}: row maxima are 6 (z0=0), 1 (z0=1), 6 (z0=6)
    Z = _s(12, 0, 1, 6)
    assert ac.delta(12, Z) == 1
    assert ac.pillai_delta(12, Z) == 6


def test_delta_errors():
    with pytest.raises(ac.EmptySet):
        ac.delta(12, ac.ElementSet.empty(12))
    with pytest.raises(ac.EmptySet):
        ac.pillai_delta(12, ac.ElementSet.empty(12))
    with pytest.raises(ValueError):
        ac.delta(5, _s(6, 0, 1))  # carrier/modulus mismatch


def _sampled_masks(n, count, seed):
    """count seeded masks over [0, n), from singletons to the full set."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.choice((1, 2, 3, 4, 6, n // 2, n))
        yield sum(1 << z for z in rng.sample(range(n), size))


def test_delta_brute_force_agreement():
    # every mask at m = 6, 10, 12; seeded samples at 16, and at 40 and 64,
    # whose masks take iter_bits' loop above 16 bits and whose moduli have
    # 8 and 7 divisors
    masks = [(m, mask) for m in (6, 10, 12) for mask in iter_nonempty_masks(m)]
    masks += [(m, mask) for m in (16, 40, 64) for mask in _sampled_masks(m, 300, m)]
    for m, mask in masks:
        Z = ac.ElementSet(m, mask)
        zs = Z.elements()
        if len(zs) >= 2:
            want_min = min(
                max(math.gcd(m, (z - z0) % m) for z in zs if z != z0) for z0 in zs
            )
            want_max = max(
                math.gcd(m, (z - z0) % m) for z0 in zs for z in zs if z != z0
            )
        else:
            want_min = want_max = 1
        assert ac.delta(m, Z) == want_min
        assert ac.pillai_delta(m, Z) == want_max


def test_reduce_over_no_row_gives_the_empty_outer():
    # max(empty) = 0 and min(empty) = infinity, as omega's definition reads
    assert _reduce(_gcd_w(6), max, max, 0) == 0
    assert _reduce(_gcd_w(6), max, min, 0) == INF
    assert _reduce(ac.cyclic(6)._omega_w, min, max, 0b110, rows=0) == 0


@pytest.mark.parametrize("m", [1, 2, 12, 40, 60, 64])
def test_gcd_levels_match_the_definition(m):
    # every entry of each row of the level table, 1 on the diagonal
    for z0, levels in enumerate(_gcd_w(m)):
        want = [1 if z == z0 else math.gcd(m, z - z0) for z in range(m)]
        assert level_row(levels, m) == want


# ---------------------------------------------------------------------------
# omega = m / delta on residues
# ---------------------------------------------------------------------------


def test_omega_gcd_crosscheck_pins():
    via_ord, via_gcd = ac.omega_gcd_crosscheck(12, _s(12, 1, 4, 7, 10))
    assert via_ord == via_gcd == ac.ExtendedNat(2)
    via_ord, via_gcd = ac.omega_gcd_crosscheck(12, _s(12, 0, 1))
    assert via_ord == via_gcd == ac.ExtendedNat(12)


@pytest.mark.parametrize("fn", [ac.delta, ac.pillai_delta, ac.omega_gcd_crosscheck])
@pytest.mark.parametrize("m, n", [(True, 1), (False, 1), (2.0, 2), (2.5, 2), ("2", 2), (0, 1)])
def test_residue_constants_refuse_a_bool_or_non_int_modulus(fn, m, n):
    # True would pass for 1 and 2.0 for 2; each is refused as m < 1 is
    with pytest.raises(ac.PreconditionFailed) as exc:
        fn(m, ac.ElementSet.full(n))
    assert exc.value.failed == ("positive_modulus",)
    assert str(exc.value) == "modulus must be >= 1"


def test_omega_gcd_crosscheck_errors():
    with pytest.raises(ac.EmptySet):
        ac.omega_gcd_crosscheck(8, ac.ElementSet.empty(8))
    with pytest.raises(ac.PreconditionFailed) as exc:
        ac.omega_gcd_crosscheck(8, _s(8, 3))
    assert "size_at_least_two" in exc.value.failed
