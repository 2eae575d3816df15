"""Scalar verifiers for the catalogued sumset lower bounds.

Every statement is verified the same way: compute the left side |X + Y|, the
statement's right side, and the list of hypotheses with their truth values.
A verifier never refuses a non-applicable input - it reports
applicable = False so exhaustive sweeps stay total.  `satisfied` is None
when not applicable, and True/False otherwise; a False on an applicable pair
would falsify a published theorem and is treated as an implementation bug by
every caller.

Each statement is one entry of CATALOG, which names its hypotheses and two
bounds: its right side is min(max(u(X), v(Y)), |X| + |Y| - 1).  _evaluate
reads one or more entries on one pair, for run_statement and every verify_*
function; the sweep reads the same entries on its columns.  Statement ids are
opaque tokens used by the CLI and reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, isqrt

from .constants import _cyclic_cached, _delta_value, _omega_value, _pillai_value
from .core import (
    INF,
    ElementSet,
    ExtendedNat,
    FiniteSemigroup,
    _frozen,
    _reduce,
    cyclic,
    dihedral,
    extended,
    maxchain,
    product,
    quaternion8,
)
from .errors import EmptySet, NotGroup, ParseError, TheoremViolated
from .setops import _commutes, _sumset_mask


@dataclass(frozen=True)
class BoundReport:
    statement: str
    hypotheses: tuple[tuple[str, bool], ...]
    lhs: int
    rhs: ExtendedNat
    applicable: bool
    satisfied: bool | None

    def failed_hypotheses(self) -> tuple[str, ...]:
        return tuple(name for name, holds in self.hypotheses if not holds)


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
    "span_x_or_y_commutative": (
        "either", "commutes", "neither span(X) nor span(Y) commutative"
    ),
    "group": ("carrier", "group", "not a group"),
    "prime_order": ("carrier", "prime_order", "order not prime"),
    "zero_in_y": ("y", "holds_zero", "0 not in Y"),
    "y_coprime_to_m": ("y", "coprime", "Y has an element not coprime to m"),
    "orders_large_enough": (
        "size", "within_p", "some non-identity order < |X|+|Y|-1"
    ),
}
HYPOTHESIS_FAILURE_TEXT = {name: text for name, (_, _, text) in HYPOTHESES.items()}


# The tests on one pair: of the carrier A, of a set S (a mask, or the
# sweep's swept masks) with a reduction (see constants), or of the size.
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


@dataclass(frozen=True)
class _Statement:
    """One catalog entry: |X + Y| >= min(max(u(X), v(Y)), |X| + |Y| - 1)
    whenever the hypotheses hold, on a group, on the standard table of the
    integers mod m, or on any carrier."""

    hypotheses: tuple[str, ...]
    u: str
    v: str
    needs_group: bool = False
    needs_cyclic: bool = False


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
# run_statement checks it, the TheoremViolated text).  Whenever both apply
# to a pair, the sharper right side is at least the weaker one; that is a
# theorem, so a failure is a bug.  Each statement that checks a pair needs
# at least the carrier of the other.  Thm2.2, called most, leaves its pair
# to HK.
DOMINANCE = {
    ("Pillai", "Cor2.9"): (
        ("Pillai", "Cor2.9"),
        "min-max delta bound fell below the max-pairwise-gcd bound: {sharper} < {weaker}",
    ),
    ("HK", "Thm2.2"): (
        ("HK",),
        "omega-based right side fell below the p-constant right side",
    ),
}


def _hypotheses(A: FiniteSemigroup, entry: _Statement, x: int, y: int):
    """The hypotheses of entry on a pair of non-empty masks, as (name,
    holds), and whether they all hold."""
    hyps = []
    applicable = True
    for name in entry.hypotheses:
        side, key, _ = HYPOTHESES[name]
        test = _TESTS[key]
        if side == "carrier":
            holds = test(A)
        elif side == "x":
            holds = test(A, x, _reduce)
        elif side == "y":
            holds = test(A, y, _reduce)
        elif side == "either":
            holds = test(A, x, _reduce) or test(A, y, _reduce)
        else:
            holds = test(A, x.bit_count() + y.bit_count() - 1)
        hyps.append((name, holds))
        applicable = applicable and holds
    return tuple(hyps), applicable


def _rhs(A: FiniteSemigroup, entry: _Statement, x: int, y: int) -> int:
    """The right side of entry on a pair of non-empty masks."""
    u = _BOUNDS[entry.u](A, x, _reduce)
    return min(max(u, _BOUNDS[entry.v](A, y, _reduce)), x.bit_count() + y.bit_count() - 1)


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


def _evaluate(A: FiniteSemigroup, X: ElementSet, Y: ElementSet, *statements: str):
    """The reports of the catalog statements on (X, Y), in order; the
    carrier and the sets are checked, and |X + Y| computed, once."""
    _check_carrier(A, statements, X, Y)
    x, y = X.mask, Y.mask
    if x == 0 or y == 0:
        raise EmptySet("bound verifiers need non-empty X and Y")
    lhs = _sumset_mask(A, x, y).bit_count()
    reports = []
    for statement in statements:
        entry = CATALOG[statement]
        hyps, applicable = _hypotheses(A, entry, x, y)
        rhs = _rhs(A, entry, x, y)
        reports.append(
            _frozen(
                BoundReport,
                statement=statement,
                hypotheses=hyps,
                lhs=lhs,
                rhs=extended(rhs),
                applicable=applicable,
                satisfied=lhs >= rhs if applicable else None,
            )
        )
    return reports


def _dominate(rhs: dict[str, int]) -> None:
    """Raise TheoremViolated when the right sides in rhs, by statement, of
    statements that apply to one pair break a DOMINANCE pair."""
    for (weaker, sharper), (_, text) in DOMINANCE.items():
        if weaker in rhs and sharper in rhs and rhs[sharper] < rhs[weaker]:
            raise TheoremViolated(text.format(sharper=rhs[sharper], weaker=rhs[weaker]))


def is_standard_cyclic(A: FiniteSemigroup) -> bool:
    """True when the table is literally addition mod n on the indices."""
    return A._standard_cyclic


def verify_cd(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> BoundReport:
    """The classical prime-modulus bound min(p, |X|+|Y|-1)."""
    return _evaluate(A, X, Y, "CD-1813")[0]


def verify_main(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> BoundReport:
    """|X+Y| >= min(omega(Y), |X|+|Y|-1) under cancellativity + commutative
    span of Y."""
    return _evaluate(A, X, Y, "Thm2.2")[0]


def verify_mirror(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet
) -> tuple[BoundReport, BoundReport]:
    """The omega(X) mirror bound, plus the symmetric two-sided bound whose
    right side is the full Cauchy-Davenport constant."""
    return tuple(_evaluate(A, X, Y, "Cor2.4", "Cor2.7"))


def verify_kemperman_weak(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet
) -> BoundReport:
    """|X+Y| >= |X|+|Y|-1 when every non-identity element has order at least
    |X|+|Y|-1 (cancellative carrier, one commutative span)."""
    return _evaluate(A, X, Y, "Kemperman-weak")[0]


def verify_zmod(m: int, X: ElementSet, Y: ElementSet) -> list[BoundReport]:
    """The three residue bounds on the integers mod m, in catalog order
    Chowla, Pillai, Cor2.9.

    Whenever the latter two are both applicable, the sharper one's right
    side must dominate; that comparison is checked here (it is a theorem),
    and TheoremViolated is raised if it fails.
    """
    A = _cyclic_cached(m)
    reports = _evaluate(A, X, Y, "Chowla", "Pillai", "Cor2.9")
    _dominate({r.statement: r.rhs.value for r in reports if r.applicable})
    return reports


def verify_hk(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet
) -> tuple[BoundReport, BoundReport | None]:
    """group bound min(p_constant, |X|+|Y|-1), plus the sharper omega-based
    report side by side when span(Y) is commutative."""
    hk, main = _evaluate(A, X, Y, "HK", "Thm2.2")
    _dominate({r.statement: r.rhs.value for r in (hk, main) if r.applicable})
    return (hk, main if main.applicable else None)


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


def statement_info(statement: str) -> _Statement:
    return CATALOG[normalize_statement(statement)]


def run_statement(
    A: FiniteSemigroup, statement: str, X: ElementSet, Y: ElementSet
) -> BoundReport:
    """Scalar dispatch by catalog id (normalized, so aliases and any case
    are accepted); used by the CLI and by sweep cross-checks.  Each
    DOMINANCE pair that lists the statement is checked against the other
    statement's right side, when that one applies too."""
    statement = normalize_statement(statement)
    (report,) = _evaluate(A, X, Y, statement)
    for (weaker, sharper), (checked_on, _) in DOMINANCE.items():
        if statement in checked_on and report.applicable:
            other = sharper if statement == weaker else weaker
            entry, x, y = CATALOG[other], X.mask, Y.mask
            if _hypotheses(A, entry, x, y)[1]:
                _dominate({statement: report.rhs.value, other: _rhs(A, entry, x, y)})
    return report


# ---------------------------------------------------------------------------
# Built-in carrier registries used by the exhaustive test batteries
# ---------------------------------------------------------------------------


def builtin_groups(max_order: int = 8) -> list[FiniteSemigroup]:
    """Every isomorphism class of groups of order <= max_order (for
    max_order <= 8) realized by the named constructions."""
    groups = [cyclic(m) for m in range(1, max_order + 1)]
    groups += [dihedral(k) for k in range(2, max_order // 2 + 1)]
    if max_order >= 8:
        groups.append(quaternion8())
        groups.append(product(cyclic(2), cyclic(4)))
        groups.append(product(cyclic(2), product(cyclic(2), cyclic(2))))
    return [g for g in groups if g.n <= max_order]


def builtin_monoids(max_order: int = 8) -> list[FiniteSemigroup]:
    """The built-in groups plus the non-cancellative max-chain monoids."""
    monoids = builtin_groups(max_order)
    monoids += [maxchain(n) for n in range(2, max_order + 1)]
    return monoids
