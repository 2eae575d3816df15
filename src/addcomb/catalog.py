"""The statement catalog and the set constants its bounds read, each defined
here alone.

omega(Z) is the max over units z0 in Z of the min over z in Z - {z0} of
ord(z + inverse(z0)), with max(empty) = 0 and min(empty) = infinity.  Each
constant of a set S reduces a table w over the z0 in S (units, for omega)
in its value function (_omega_value, for one), by core._reduce or the
sweep's reduction; the public functions check their arguments and wrap it.

    constant                     w                           inner  outer
    omega (z0 units)             A._omega_w: ord(z - z0)     min    max
    delta                        _gcd_w(m): gcd(m, z - z0)   max    min
    pillai_delta                 _gcd_w(m)                   max    max
    span commutes (core)         A._commute_w: masks         None   and_

A catalog entry is one statement's hypotheses and bounds, and DOMINANCE
orders pairs of entries.  theorems._evaluate, the one scalar evaluator,
reads an entry on one pair and alone checks DOMINANCE; exhaustive reads
the entries on its columns, so a sweep loads this module without theorems
or setops.
"""

from __future__ import annotations

import functools
from math import gcd, isqrt
from operator import itemgetter

from .core import (
    INF, ElementSet, ExtendedNat, FiniteSemigroup, _commutes, _is_int, _Record, _reduce, cyclic,
    extended, iter_bits,
)
from .errors import EmptySet, NotGroup, ParseError, PreconditionFailed


def _omega_value(A: FiniteSemigroup, S, reduce=_reduce):
    """omega of S, INF for infinity."""
    return reduce(A._omega_w, min, max, S, A.units.mask)


@functools.lru_cache(maxsize=None)
def _gcd_w(m: int) -> tuple[tuple[int, ...], ...]:
    """gcd(m, z - z0) at [z0][z], 1 on the diagonal, which max ignores."""
    return tuple(tuple(1 if z == z0 else gcd(m, z - z0) for z in range(m)) for z0 in range(m))


def _delta_value(m: int, S, reduce=_reduce):
    """delta of S over the integers mod m."""
    return reduce(_gcd_w(m), max, min, S)


def _pillai_value(m: int, S, reduce=_reduce):
    """pillai_delta of S over the integers mod m."""
    return reduce(_gcd_w(m), max, max, S)


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
    omega_xy = omega_pair(A, X, Y)
    if X.mask == 0 or Y.mask == 0:
        return extended(0)
    return min(omega_xy, extended(len(X) + len(Y) - 1))


def delta(m: int, Z: ElementSet) -> int:
    """min over z0 in Z of (max over z in Z minus {z0} of gcd(m, z - z0));
    1 for singletons.  Z is a set of residues mod m."""
    _check_residues(m, Z, "delta")
    return _delta_value(m, Z.mask)


def pillai_delta(m: int, Z: ElementSet) -> int:
    """max of gcd(m, z - z0) over ordered pairs of distinct elements; 1 for
    singletons.  This is the older constant that the min-max form sharpens."""
    _check_residues(m, Z, "pillai_delta")
    return _pillai_value(m, Z.mask)


_cyclic_cached = functools.cache(cyclic)


def omega_gcd_crosscheck(m: int, Z: ElementSet) -> tuple[ExtendedNat, ExtendedNat]:
    """(ord-based omega(Z), m / delta(Z)) over the integers mod m.

    The two components are provably equal for |Z| >= 2 because
    ord(d) = m / gcd(m, d) there; callers assert the equality.
    """
    _check_residues(m, Z, "omega_gcd_crosscheck")
    if len(Z) < 2:
        raise PreconditionFailed(
            ("size_at_least_two",),
            "omega_gcd_crosscheck needs |Z| >= 2 (a singleton has omega infinity)",
        )
    return (omega(_cyclic_cached(m), Z).overall, extended(m // _delta_value(m, Z.mask)))


def _check_residues(m: int, Z: ElementSet, name: str):
    if not _is_int(m) or m < 1:
        raise PreconditionFailed(("positive_modulus",), "modulus must be >= 1")
    if Z.n != m:
        raise ValueError("set over carrier [0, %d) used with modulus %d" % (Z.n, m))
    if Z.mask == 0:
        raise EmptySet("%s is undefined for the empty set" % name)


@functools.cache
def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@functools.cache
def _not_coprime(m: int) -> int:
    """The mask of the z in [1, m) with gcd(m, z) > 1."""
    return sum(1 << z for z in range(1, m) if gcd(m, z) != 1)


# name: (side, test, the text for its failure).  The test reads the side:
# the carrier, X, Y, either set (it holds when it holds of X or of Y) or the
# size |X| + |Y| - 1; the only size test is |X| + |Y| - 1 <= p.
HYPOTHESES = {
    "cancellative": ("carrier", "cancellative", "not cancellative"),
    "span_y_commutative": ("y", "commutes", "span(Y) not commutative"),
    "span_x_commutative": ("x", "commutes", "span(X) not commutative"),
    "span_x_or_y_commutative": ("either", "commutes", "neither span(X) nor span(Y) commutative"),
    "group": ("carrier", "group", "not a group"),
    "prime_order": ("carrier", "prime_order", "order not prime"),
    "zero_in_y": ("y", "holds_zero", "0 not in Y"),
    "y_coprime_to_m": ("y", "coprime", "Y has an element not coprime to m"),
    "orders_large_enough": ("size", "within_p", "some non-identity order < |X|+|Y|-1"),
}
HYPOTHESIS_FAILURE_TEXT = {name: text for name, (_, _, text) in HYPOTHESES.items()}


# The tests on one pair: of the carrier A, of a set S (a mask, or the
# sweep's swept masks) with a reduction (see core._reduce), or of the size.
_TESTS = {
    "cancellative": lambda A: A.is_cancellative,
    "group": lambda A: A.is_group,
    "prime_order": lambda A: _is_prime(A.n),
    "commutes": _commutes,
    "holds_zero": lambda A, S, reduce: S & 1 == 1,
    "coprime": lambda A, S, reduce: S & _not_coprime(A.n) == 0,
    "within_p": lambda A, need: A._p >= need,
}

# The bounds of one set S, as _TESTS takes it, INF for infinity.  m is the
# carrier order n; delta is the min-max gcd and pillai_delta the max
# pairwise gcd.  Module globals are looked up on each call.
_BOUNDS = {
    "0": lambda A, S, reduce: 0,
    "n": lambda A, S, reduce: A.n,
    "p": lambda A, S, reduce: A._p,
    "inf": lambda A, S, reduce: INF,
    "omega": lambda A, S, reduce: _omega_value(A, S, reduce),
    "m/delta": lambda A, S, reduce: A.n // _delta_value(A.n, S, reduce),
    "m/pillai_delta": lambda A, S, reduce: A.n // _pillai_value(A.n, S, reduce),
}


class _Statement(_Record):
    """One catalog entry: |X + Y| >= min(max(u(X), v(Y)), |X| + |Y| - 1)
    whenever the hypotheses hold, on a group, on the standard table of the
    integers mod m, or on any carrier."""

    __slots__ = ("hypotheses", "u", "v", "needs_group", "needs_cyclic")
    _defaults = (False, False)


CATALOG = {
    # prime-order group: |X+Y| >= min(p, |X|+|Y|-1)
    "CD-1813": _Statement(("group", "prime_order"), "n", "n"),
    # cancellative, <Y> commutative: |X+Y| >= min(omega(Y), |X|+|Y|-1)
    "Thm2.2": _Statement(("cancellative", "span_y_commutative"), "0", "omega"),
    # mirror of Thm2.2 with omega(X) and <X> commutative
    "Cor2.4": _Statement(("cancellative", "span_x_commutative"), "omega", "0"),
    # both spans commutative: |X+Y| >= Omega(X,Y)
    "Cor2.7": _Statement(
        ("cancellative", "span_x_commutative", "span_y_commutative"), "omega", "omega"
    ),
    # cancellative, all non-identity orders >= |X|+|Y|-1, <X> or <Y>
    # commutative: |X+Y| >= |X|+|Y|-1
    "Kemperman-weak": _Statement(
        ("cancellative", "orders_large_enough", "span_x_or_y_commutative"), "inf", "inf"
    ),
    # group: |X+Y| >= min(p_constant, |X|+|Y|-1)
    "HK": _Statement(("group",), "p", "p", needs_group=True),
    # integers mod m, 0 in Y, Y-{0} coprime to m: |X+Y| >= min(m, |X|+|Y|-1)
    "Chowla": _Statement(("zero_in_y", "y_coprime_to_m"), "n", "n", needs_cyclic=True),
    # integers mod m: |X+Y| >= min(m/pillai_delta(Y), |X|+|Y|-1)
    "Pillai": _Statement((), "0", "m/pillai_delta", needs_cyclic=True),
    # integers mod m: |X+Y| >= min(m/min(delta(X), delta(Y)), |X|+|Y|-1),
    # sharper than Pillai
    "Cor2.9": _Statement((), "m/delta", "m/delta", needs_cyclic=True),
}
STATEMENTS = tuple(CATALOG)

# Dominance between entries: (weaker, sharper) -> (the statements whose
# run_statement evaluates the other one too, the TheoremViolated text).
# Whenever both apply to a pair, the sharper right side is at least the
# weaker one; that is a theorem, so a failure is a bug.  Each statement
# that checks a pair needs at least the carrier of the other.  Thm2.2,
# called most, leaves its pair to HK.
DOMINANCE = {
    ("Pillai", "Cor2.9"): (
        ("Pillai", "Cor2.9"),
        "min-max delta bound fell below the max-pairwise-gcd bound: {sharper} < {weaker}",
    ),
    ("HK", "Thm2.2"): (("HK",), "omega-based right side fell below the p-constant right side"),
}


def _check_carrier(A: FiniteSemigroup, statements, *sets: ElementSet) -> None:
    """Raise NotGroup on a carrier that one of the statements is not about:
    residue statements before the sets are checked, group statements after."""
    for statement in statements:
        if CATALOG[statement].needs_cyclic and not A._standard_cyclic:
            raise NotGroup(
                "statement %s is about residues; the carrier must be cyclic:m "
                "with the standard table" % statement
            )
    for S in sets:
        A.check_set(S)
    if not A.is_group and any(CATALOG[s].needs_group for s in statements):
        raise NotGroup("the p-constant bound is stated for groups")


_STATEMENT_IDS = {s.lower(): s for s in STATEMENTS}
_STATEMENT_IDS.update(cd1813="CD-1813", cd="CD-1813", kemperman="Kemperman-weak")


def normalize_statement(text: str) -> str:
    """Map a user-supplied statement token to its canonical catalog id."""
    statement = _STATEMENT_IDS.get(text.strip().lower().replace("_", "-"))
    if statement is None:
        raise ParseError(
            "unknown statement %r (choose from %s)"
            % (text, ", ".join(s.lower() for s in STATEMENTS))
        )
    return statement
