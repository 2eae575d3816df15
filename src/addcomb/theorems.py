"""Scalar verifiers for the catalogued sumset lower bounds.

Every statement is verified the same way: compute the left side |X + Y|, the
statement's right side, and the list of hypotheses with their truth values.
A verifier never refuses a non-applicable input - it reports
applicable = False so exhaustive sweeps stay total.  `satisfied` is None
when not applicable, and True/False otherwise; a False on an applicable pair
would falsify a published theorem and is treated as an implementation bug by
every caller.

Each statement is one entry of CATALOG (its hypotheses and bounds u, v),
defined in catalog with the set constants that the bounds read; this
module imports the names it uses from there and re-exports none.
_evaluate is the one scalar evaluator: it reads one or more entries on one
pair, for run_statement and every verify_* function, returns a BoundReport
(a core._Record) for each (None for a partner read only for DOMINANCE that
does not apply), and is the one place that checks the DOMINANCE pairs
between the entries it read.  The sweep reads the same entries on
its columns.
"""

from __future__ import annotations

from .catalog import (
    _BOUNDS, _TESTS, CATALOG, DOMINANCE, HYPOTHESES, STATEMENTS, _check_carrier, _cyclic_cached,
    _Statement, normalize_statement,
)
from .core import (
    ElementSet, FiniteSemigroup, _Record, _reduce, _sumset_mask, cyclic, dihedral, extended,
    maxchain, product, quaternion8,
)
from .errors import EmptySet, TheoremViolated


class BoundReport(_Record):
    """A statement's verdict on one pair: its (name, holds) hypotheses,
    |X + Y|, the right side as an ExtendedNat, and satisfied."""

    __slots__ = ("statement", "hypotheses", "lhs", "rhs", "applicable", "satisfied")

    def failed_hypotheses(self) -> tuple[str, ...]:
        return tuple(name for name, holds in self.hypotheses if not holds)


def _evaluate(A: FiniteSemigroup, X: ElementSet, Y: ElementSet, *statements: str, partners=()):
    """The reports of the catalog statements on (X, Y), in order, then the
    report of each of the partners if it applies, else None (its right side,
    which only DOMINANCE reads then, is not computed); the carrier and the
    sets are checked, and |X + Y| computed, once.  Raises TheoremViolated
    when two statements that apply break a DOMINANCE pair."""
    statements += partners
    _check_carrier(A, statements, X, Y)
    x, y = X.mask, Y.mask
    if x == 0 or y == 0:
        raise EmptySet("bound verifiers need non-empty X and Y")
    lhs = _sumset_mask(A, x, y).bit_count()
    size = x.bit_count() + y.bit_count() - 1
    reports, rhs_of = [], {}
    for statement in statements:
        entry = CATALOG[statement]
        hyps, applicable = [], True
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
                holds = test(A, size)
            hyps.append((name, holds))
            applicable = applicable and holds
        if statement in partners and not applicable:
            reports.append(None)
            continue
        rhs = min(max(_BOUNDS[entry.u](A, x, _reduce), _BOUNDS[entry.v](A, y, _reduce)), size)
        if applicable:
            rhs_of[statement] = rhs
        reports.append(BoundReport(statement, tuple(hyps), lhs, extended(rhs), applicable,
                                   lhs >= rhs if applicable else None))
    if len(rhs_of) > 1:  # the right sides of the statements that apply
        for (weaker, sharper), (_, text) in DOMINANCE.items():
            if weaker in rhs_of and sharper in rhs_of and rhs_of[sharper] < rhs_of[weaker]:
                raise TheoremViolated(text.format(sharper=rhs_of[sharper], weaker=rhs_of[weaker]))
    return reports


# The statements that run_statement evaluates with each one, so that its
# DOMINANCE pairs are checked: the other statement of each pair listing it.
_PARTNERS = {
    s: tuple(weaker if s == sharper else sharper
             for (weaker, sharper), (checked_on, _) in DOMINANCE.items() if s in checked_on)
    for s in STATEMENTS
}


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
    side must dominate; _evaluate checks that (it is a theorem) and raises
    TheoremViolated if it fails.
    """
    return _evaluate(_cyclic_cached(m), X, Y, "Chowla", "Pillai", "Cor2.9")


def verify_hk(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet
) -> tuple[BoundReport, BoundReport | None]:
    """group bound min(p_constant, |X|+|Y|-1), plus the sharper omega-based
    report side by side when span(Y) is commutative."""
    return tuple(_evaluate(A, X, Y, "HK", partners=("Thm2.2",)))


def statement_info(statement: str) -> _Statement:
    return CATALOG[normalize_statement(statement)]


def run_statement(
    A: FiniteSemigroup, statement: str, X: ElementSet, Y: ElementSet
) -> BoundReport:
    """Scalar dispatch by catalog id (normalized, so aliases and any case
    are accepted); used by the CLI and by sweep cross-checks.  The
    statement is evaluated with its _PARTNERS, so that each DOMINANCE pair
    that lists it is checked whenever both statements apply."""
    statement = normalize_statement(statement)
    return _evaluate(A, X, Y, statement, partners=_PARTNERS[statement])[0]


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
