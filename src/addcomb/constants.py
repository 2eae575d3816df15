"""The quantitative constants driving the sumset lower bounds.

For a set Z in a semigroup A, the key quantity is

    omega(Z) = sup over units z0 in Z of (min over z in Z minus {z0}
               of ord(z - z0)),

with the conventions sup(empty) = 0 and min(empty) = infinity.  The
difference z - z0 is the single element z + inverse(z0), which exists
precisely because z0 ranges over units.  On the integers mod m there is a
closed gcd form, kept here as an independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import ElementSet, ExtendedNat, FiniteSemigroup, cyclic, iter_bits
from .errors import EmptySet, PreconditionFailed


@dataclass(frozen=True)
class OmegaBreakdown:
    """One row per unit z0 of Z: the inner minimum that z0 contributes.

    overall is the maximum over rows, or 0 when there are no rows (Z has no
    units, or the carrier is not even unital).
    """

    rows: tuple[tuple[int, ExtendedNat], ...]
    overall: ExtendedNat


def _omega_rows(A: FiniteSemigroup, zmask: int) -> list[tuple[int, int | None]]:
    """(z0, inner) for each unit z0 in Z, inner None (infinity) for Z = {z0}."""
    zs = iter_bits(zmask)
    diff_order = A._diff_order
    rows = []
    for z0 in iter_bits(zmask & A.units.mask):
        row = diff_order[z0]
        rows.append((z0, min([row[z] for z in zs if z != z0], default=None)))
    return rows


def _omega_sup(rows: list[tuple[int, int | None]]) -> int | None:
    """The max of the rows' inner minima, 0 for no rows, None (infinity)
    for the one row of a unit singleton, the only infinite row."""
    if rows and rows[0][1] is None:
        return None
    return max([inner for _, inner in rows], default=0)


def _omega_value(A: FiniteSemigroup, zmask: int) -> int | None:
    """omega(Z) as an int, None for infinity."""
    return _omega_sup(_omega_rows(A, zmask))


def omega(A: FiniteSemigroup, Z: ElementSet) -> OmegaBreakdown:
    """Full breakdown of omega(Z); overall 0 when Z contains no unit."""
    A.check_set(Z)
    rows = _omega_rows(A, Z.mask)
    return OmegaBreakdown(
        rows=tuple((z0, ExtendedNat(inner)) for z0, inner in rows),
        overall=ExtendedNat(_omega_sup(rows)),
    )


def omega_pair(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> ExtendedNat:
    """max(omega(X), omega(Y))."""
    A.check_set(X)
    A.check_set(Y)
    return ExtendedNat(_omega_max(_omega_value(A, X.mask), _omega_value(A, Y.mask)))


def _omega_max(wx: int | None, wy: int | None) -> int | None:
    """max(wx, wy), with None for infinity."""
    return None if wx is None or wy is None else max(wx, wy)


def cd_constant(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> ExtendedNat:
    """The Cauchy-Davenport constant of the pair (X, Y).

    Zero when either set is empty; otherwise
    min(max(omega(X), omega(Y)), |X| + |Y| - 1).  (The textbook definition
    has a further branch for infinite operands, unreachable on these finite
    carriers.)
    """
    A.check_set(X)
    A.check_set(Y)
    if X.mask == 0 or Y.mask == 0:
        return ExtendedNat(0)
    omega_xy = _omega_max(_omega_value(A, X.mask), _omega_value(A, Y.mask))
    return ExtendedNat(_capped(omega_xy, len(X) + len(Y) - 1))


def _capped(value: int | None, cap: int) -> int:
    """min(value, cap), with None for infinity."""
    return cap if value is None else min(value, cap)


@functools.lru_cache(maxsize=None)
def _gcd_row(m: int) -> tuple[int, ...]:
    """gcd(m, d) for d in [0, m)."""
    return tuple(math.gcd(m, d) for d in range(m))


def delta(m: int, Z: ElementSet) -> int:
    """min over z0 in Z of (max over z in Z minus {z0} of gcd(m, z - z0));
    1 for singletons.  Z is a set of residues mod m."""
    _check_residues(m, Z)
    if Z.mask == 0:
        raise EmptySet("delta is undefined for the empty set")
    zs = iter_bits(Z.mask)
    if len(zs) == 1:
        return 1
    g = _gcd_row(m)  # g[z - z0] is gcd(m, (z - z0) % m), as -m < z - z0 < m
    return min(max(g[z - z0] for z in zs if z != z0) for z0 in zs)


def pillai_delta(m: int, Z: ElementSet) -> int:
    """max of gcd(m, z - z0) over ordered pairs of distinct elements; 1 for
    singletons.  This is the older constant that the min-max form sharpens."""
    _check_residues(m, Z)
    if Z.mask == 0:
        raise EmptySet("pillai_delta is undefined for the empty set")
    zs = iter_bits(Z.mask)
    if len(zs) == 1:
        return 1
    g = _gcd_row(m)
    return max(g[z - z0] for z0 in zs for z in zs if z != z0)


@functools.lru_cache(maxsize=None)
def _cyclic_cached(m: int) -> FiniteSemigroup:
    return cyclic(m)


def omega_gcd_crosscheck(m: int, Z: ElementSet) -> tuple[ExtendedNat, ExtendedNat]:
    """(ord-based omega(Z), m / delta(Z)) over the integers mod m.

    The two components are provably equal for |Z| >= 2 because
    ord(d) = m / gcd(m, d) there; callers assert the equality.
    """
    _check_residues(m, Z)
    if Z.mask == 0:
        raise EmptySet("omega_gcd_crosscheck is undefined for the empty set")
    if len(Z) < 2:
        raise PreconditionFailed(
            ("size_at_least_two",),
            "omega_gcd_crosscheck needs |Z| >= 2 (a singleton has omega infinity)",
        )
    via_ord = omega(_cyclic_cached(m), Z).overall
    via_gcd = ExtendedNat(m // delta(m, Z))
    return (via_ord, via_gcd)


def _check_residues(m: int, Z: ElementSet):
    if m < 1:
        raise PreconditionFailed(("positive_modulus",), "modulus must be >= 1")
    if Z.n != m:
        raise ValueError("set over carrier [0, %d) used with modulus %d" % (Z.n, m))
