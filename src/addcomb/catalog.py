"""The statement catalog: the hypotheses and bounds of each statement, the
DOMINANCE pairs between them, the set constants that the bounds read, and
the checks on a carrier.  This module only defines them: theorems._evaluate,
the one scalar evaluator, reads an entry on one pair and alone checks
DOMINANCE, and exhaustive reads the entries on its columns; a sweep loads
this module without theorems or constants.
"""

from __future__ import annotations

import functools
from math import gcd, isqrt

from .core import INF, ElementSet, FiniteSemigroup, _Record, _reduce
from .errors import NotGroup, ParseError
from .setops import _commutes


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
