"""Scalar verifiers for the catalogued sumset lower bounds.

Every statement is verified the same way: compute the left side |X + Y|, the
statement's right side, and the list of hypotheses with their truth values.
A verifier never refuses a non-applicable input - it reports
applicable = False so exhaustive sweeps stay total.  `satisfied` is None
when not applicable, and True/False otherwise; a False on an applicable pair
would falsify a published theorem and is treated as an implementation bug by
every caller.

Statement catalog (ids are opaque tokens used by the CLI and reports):

  CD-1813         prime-order group:  |X+Y| >= min(p, |X|+|Y|-1)
  Thm2.2          cancellative, <Y> commutative:
                  |X+Y| >= min(omega(Y), |X|+|Y|-1)
  Cor2.4          mirror of Thm2.2 with omega(X) and <X> commutative
  Cor2.7          both spans commutative: |X+Y| >= Omega(X,Y)
  Kemperman-weak  cancellative, all non-identity orders >= |X|+|Y|-1,
                  <X> or <Y> commutative:  |X+Y| >= |X|+|Y|-1
  HK              group: |X+Y| >= min(p_constant, |X|+|Y|-1)
  Chowla          integers mod m, 0 in Y, Y-{0} coprime to m:
                  |X+Y| >= min(m, |X|+|Y|-1)
  Pillai          integers mod m: |X+Y| >= min(m/delta_max(Y), |X|+|Y|-1)
                  with delta_max the max pairwise gcd
  Cor2.9          integers mod m: |X+Y| >= min(m/min(delta(X), delta(Y)),
                  |X|+|Y|-1) with the min-max delta (sharper than Pillai)
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import (
    _capped,
    _cyclic_cached,
    _gcd_row,
    _omega_max,
    _omega_value,
    delta,
    pillai_delta,
)
from .core import (
    ElementSet,
    ExtendedNat,
    FiniteSemigroup,
    cyclic,
    dihedral,
    iter_bits,
    maxchain,
    product,
    quaternion8,
)
from .errors import EmptySet, NotGroup, ParseError, TheoremViolated
from .setops import _commutes, _sumset_mask

STATEMENTS = (
    "CD-1813",
    "Thm2.2",
    "Cor2.4",
    "Cor2.7",
    "Kemperman-weak",
    "HK",
    "Chowla",
    "Pillai",
    "Cor2.9",
)

HYPOTHESIS_TEXT = {
    "cancellative": "cancellative",
    "span_y_commutative": "span(Y) commutative",
    "span_x_commutative": "span(X) commutative",
    "span_x_or_y_commutative": "span(X) or span(Y) commutative",
    "group": "a group",
    "prime_order": "of prime order",
    "zero_in_y": "0 in Y",
    "y_coprime_to_m": "Y-{0} coprime to m",
    "orders_large_enough": "non-identity orders >= |X|+|Y|-1",
}

HYPOTHESIS_FAILURE_TEXT = {
    "cancellative": "not cancellative",
    "span_y_commutative": "span(Y) not commutative",
    "span_x_commutative": "span(X) not commutative",
    "span_x_or_y_commutative": "neither span(X) nor span(Y) commutative",
    "group": "not a group",
    "prime_order": "order not prime",
    "zero_in_y": "0 not in Y",
    "y_coprime_to_m": "Y has an element not coprime to m",
    "orders_large_enough": "some non-identity order < |X|+|Y|-1",
}


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


def _report(statement, hypotheses, lhs, rhs) -> BoundReport:
    applicable = all(holds for _, holds in hypotheses)
    satisfied = (ExtendedNat(lhs) >= rhs) if applicable else None
    return BoundReport(
        statement=statement,
        hypotheses=tuple(hypotheses),
        lhs=lhs,
        rhs=rhs,
        applicable=applicable,
        satisfied=satisfied,
    )


def _require_nonempty(X: ElementSet, Y: ElementSet):
    if X.mask == 0 or Y.mask == 0:
        raise EmptySet("bound verifiers need non-empty X and Y")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_standard_cyclic(A: FiniteSemigroup) -> bool:
    """True when the table is literally addition mod n on the indices."""
    return A._standard_cyclic


def _lhs(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> int:
    return _sumset_mask(A, X.mask, Y.mask).bit_count()


def verify_cd(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> BoundReport:
    """The classical prime-modulus bound min(p, |X|+|Y|-1)."""
    A.check_set(X)
    A.check_set(Y)
    _require_nonempty(X, Y)
    hyps = [("group", A.is_group), ("prime_order", _is_prime(A.n))]
    lhs = _lhs(A, X, Y)
    rhs = ExtendedNat(min(A.n, len(X) + len(Y) - 1))
    return _report("CD-1813", hyps, lhs, rhs)


def verify_main(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> BoundReport:
    """|X+Y| >= min(omega(Y), |X|+|Y|-1) under cancellativity + commutative
    span of Y."""
    A.check_set(X)
    A.check_set(Y)
    _require_nonempty(X, Y)
    hyps = [
        ("cancellative", A.is_cancellative),
        ("span_y_commutative", _commutes(A, Y.mask)),
    ]
    lhs = _lhs(A, X, Y)
    rhs = _capped(_omega_value(A, Y.mask), len(X) + len(Y) - 1)
    return _report("Thm2.2", hyps, lhs, ExtendedNat(rhs))


def verify_mirror(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet
) -> tuple[BoundReport, BoundReport]:
    """The omega(X) mirror bound, plus the symmetric two-sided bound whose
    right side is the full Cauchy-Davenport constant."""
    A.check_set(X)
    A.check_set(Y)
    _require_nonempty(X, Y)
    lhs = _lhs(A, X, Y)
    size_cap = len(X) + len(Y) - 1
    comm_x = _commutes(A, X.mask)
    comm_y = _commutes(A, Y.mask)
    omega_x = _omega_value(A, X.mask)
    omega_y = _omega_value(A, Y.mask)
    omega_xy = _omega_max(omega_x, omega_y)

    mirror = _report(
        "Cor2.4",
        [("cancellative", A.is_cancellative), ("span_x_commutative", comm_x)],
        lhs,
        ExtendedNat(_capped(omega_x, size_cap)),
    )
    both = _report(
        "Cor2.7",
        [
            ("cancellative", A.is_cancellative),
            ("span_x_commutative", comm_x),
            ("span_y_commutative", comm_y),
        ],
        lhs,
        ExtendedNat(_capped(omega_xy, size_cap)),
    )
    return (mirror, both)


def verify_kemperman_weak(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet
) -> BoundReport:
    """|X+Y| >= |X|+|Y|-1 when every non-identity element has order at least
    |X|+|Y|-1 (cancellative carrier, one commutative span)."""
    A.check_set(X)
    A.check_set(Y)
    _require_nonempty(X, Y)
    need = len(X) + len(Y) - 1
    hyps = [
        ("cancellative", A.is_cancellative),
        ("orders_large_enough", A._p is None or A._p >= need),
        (
            "span_x_or_y_commutative",
            _commutes(A, X.mask) or _commutes(A, Y.mask),
        ),
    ]
    lhs = _lhs(A, X, Y)
    return _report("Kemperman-weak", hyps, lhs, ExtendedNat(need))


def _zmod_sides(m: int, X: ElementSet, Y: ElementSet) -> tuple[int, int]:
    """|X + Y| and |X| + |Y| - 1 on the integers mod m, after the checks
    every residue bound makes."""
    A = _cyclic_cached(m)
    A.check_set(X)
    A.check_set(Y)
    _require_nonempty(X, Y)
    return _lhs(A, X, Y), len(X) + len(Y) - 1


def _chowla(m: int, Y: ElementSet, lhs: int, size_cap: int) -> BoundReport:
    g = _gcd_row(m)
    coprime = all(g[y] == 1 for y in iter_bits(Y.mask & ~1))
    return _report(
        "Chowla",
        [("zero_in_y", Y.mask & 1 == 1), ("y_coprime_to_m", coprime)],
        lhs,
        ExtendedNat(min(m, size_cap)),
    )


def verify_zmod(m: int, X: ElementSet, Y: ElementSet) -> list[BoundReport]:
    """The three residue bounds on the integers mod m, in catalog order
    Chowla, Pillai, Cor2.9.

    Whenever the latter two are both applicable, the sharper one's right
    side must dominate; that comparison is checked here (it is a theorem),
    and TheoremViolated is raised if it fails.
    """
    lhs, size_cap = _zmod_sides(m, X, Y)
    chowla = _chowla(m, Y, lhs, size_cap)
    pillai = _report(
        "Pillai",
        [],
        lhs,
        ExtendedNat(min(m // pillai_delta(m, Y), size_cap)),
    )
    sharper = _report(
        "Cor2.9",
        [],
        lhs,
        ExtendedNat(min(m // min(delta(m, X), delta(m, Y)), size_cap)),
    )
    if sharper.rhs < pillai.rhs:
        raise TheoremViolated(
            "min-max delta bound fell below the max-pairwise-gcd bound: %s < %s"
            % (sharper.rhs, pillai.rhs)
        )
    return [chowla, pillai, sharper]


def verify_hk(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet
) -> tuple[BoundReport, BoundReport | None]:
    """group bound min(p_constant, |X|+|Y|-1), plus the sharper omega-based
    report side by side when span(Y) is commutative."""
    A.check_set(X)
    A.check_set(Y)
    if not A.is_group:
        raise NotGroup("the p-constant bound is stated for groups")
    _require_nonempty(X, Y)
    lhs = _lhs(A, X, Y)
    rhs = ExtendedNat(_capped(A._p, len(X) + len(Y) - 1))
    hk = _report("HK", [("group", True)], lhs, rhs)
    sharper = None
    if _commutes(A, Y.mask):
        sharper = verify_main(A, X, Y)
        if sharper.applicable and sharper.rhs < hk.rhs:
            raise TheoremViolated(
                "omega-based right side fell below the p-constant right side"
            )
    return (hk, sharper)


@dataclass(frozen=True)
class _StatementInfo:
    """How to run one catalog statement as a scalar verify."""

    needs_cyclic: bool
    needs_group: bool
    run: object  # (A, X, Y) -> BoundReport


def _run_zmod_slice(index):
    def run(A, X, Y):
        return verify_zmod(A.n, X, Y)[index]

    return run


_STATEMENT_INFO = {
    "CD-1813": _StatementInfo(False, False, verify_cd),
    "Thm2.2": _StatementInfo(False, False, verify_main),
    "Cor2.4": _StatementInfo(False, False, lambda A, X, Y: verify_mirror(A, X, Y)[0]),
    "Cor2.7": _StatementInfo(False, False, lambda A, X, Y: verify_mirror(A, X, Y)[1]),
    "Kemperman-weak": _StatementInfo(False, False, verify_kemperman_weak),
    "HK": _StatementInfo(False, True, lambda A, X, Y: verify_hk(A, X, Y)[0]),
    "Chowla": _StatementInfo(
        True, False, lambda A, X, Y: _chowla(A.n, Y, *_zmod_sides(A.n, X, Y))
    ),
    "Pillai": _StatementInfo(True, False, _run_zmod_slice(1)),
    "Cor2.9": _StatementInfo(True, False, _run_zmod_slice(2)),
}


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


def statement_info(statement: str) -> _StatementInfo:
    return _STATEMENT_INFO[normalize_statement(statement)]


def run_statement(
    A: FiniteSemigroup, statement: str, X: ElementSet, Y: ElementSet
) -> BoundReport:
    """Scalar dispatch by catalog id (normalized, so aliases and any case
    are accepted); used by the CLI and by sweep cross-checks."""
    statement = normalize_statement(statement)
    info = _STATEMENT_INFO[statement]
    if info.needs_cyclic and not is_standard_cyclic(A):
        raise NotGroup(
            "statement %s is about residues; the carrier must be cyclic:m "
            "with the standard table" % statement
        )
    return info.run(A, X, Y)


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
