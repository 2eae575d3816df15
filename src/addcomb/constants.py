"""The quantitative constants driving the sumset lower bounds.

For a set Z in a semigroup A, the key quantity is

    omega(Z) = sup over units z0 in Z of (min over z in Z minus {z0}
               of ord(z - z0)),

with the conventions sup(empty) = 0 and min(empty) = infinity.  The
difference z - z0 is the single element z + inverse(z0), which exists
precisely because z0 ranges over units.  On the integers mod m there is a
closed gcd form, kept here as an independent cross-check.

Each constant of a set S reduces one table w over the z0 in S (its units,
for omega) with the reduction passed in: core._reduce, or the sweep's, in
its value function (_omega_value, for one), which catalog defines.

    constant                     w                           inner  outer
    omega (z0 units)             A._omega_w: ord(z - z0)     min    max
    delta                        _gcd_w(m): gcd(m, z - z0)   max    min
    pillai_delta                 _gcd_w(m)                   max    max
    span commutes (setops)       A._commute_w: masks         None   and_
"""

from __future__ import annotations

import functools
from operator import itemgetter

from .catalog import _delta_value, _gcd_w, _omega_value, _pillai_value  # noqa: F401
from .core import ElementSet, ExtendedNat, FiniteSemigroup, _Record, cyclic, extended, iter_bits
from .errors import EmptySet, PreconditionFailed


class OmegaBreakdown(_Record):
    """rows: one (z0, ExtendedNat) per unit z0 of Z, the inner minimum that
    z0 contributes.

    overall is the maximum over rows, or 0 when there are no rows (Z has no
    units, or the carrier is not even unital).
    """

    __slots__ = ("rows", "overall")


def omega(A: FiniteSemigroup, Z: ElementSet) -> OmegaBreakdown:
    """Full breakdown of omega(Z); overall 0 when Z contains no unit."""
    A.check_set(Z)
    units = iter_bits(Z.mask & A.units.mask)
    # the rows of _omega_value; repeating an element keeps get's result a tuple
    get = units and itemgetter(*iter_bits(Z.mask), units[0])
    inners = [min(get(A._omega_w[z0])) for z0 in units]
    rows = tuple(zip(units, map(extended, inners)))
    return OmegaBreakdown(rows, extended(max(inners, default=0)))


def omega_pair(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> ExtendedNat:
    """max(omega(X), omega(Y))."""
    A.check_set(X)
    A.check_set(Y)
    return extended(max(_omega_value(A, X.mask), _omega_value(A, Y.mask)))


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
        return extended(0)
    omega_xy = max(_omega_value(A, X.mask), _omega_value(A, Y.mask))
    return extended(min(omega_xy, len(X) + len(Y) - 1))


def delta(m: int, Z: ElementSet) -> int:
    """min over z0 in Z of (max over z in Z minus {z0} of gcd(m, z - z0));
    1 for singletons.  Z is a set of residues mod m."""
    _check_residues(m, Z)
    if Z.mask == 0:
        raise EmptySet("delta is undefined for the empty set")
    return _delta_value(m, Z.mask)


def pillai_delta(m: int, Z: ElementSet) -> int:
    """max of gcd(m, z - z0) over ordered pairs of distinct elements; 1 for
    singletons.  This is the older constant that the min-max form sharpens."""
    _check_residues(m, Z)
    if Z.mask == 0:
        raise EmptySet("pillai_delta is undefined for the empty set")
    return _pillai_value(m, Z.mask)


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
    via_gcd = extended(m // delta(m, Z))
    return (via_ord, via_gcd)


def _check_residues(m: int, Z: ElementSet):
    if m < 1:
        raise PreconditionFailed(("positive_modulus",), "modulus must be >= 1")
    if Z.n != m:
        raise ValueError("set over carrier [0, %d) used with modulus %d" % (Z.n, m))
