"""Localizing a sumset bound inside the sum matrix.

Given non-empty X = {x_1 < ... < x_k} and Y = {y_1 < ... < y_l} with
|X + Y| < omega(Y), fix an (l-1)-subset Z of X + Y.  The row sets
Z_i = (x_i + Y) - Z then satisfy Hall's condition, so a system of distinct
representatives exists: one element per row, pairwise distinct and disjoint
from Z, exhibiting k + l - 1 distinct elements of X + Y.

The representatives are chosen by augmenting-path bipartite matching with a
fixed exploration order (ascending row, then ascending element), so results
are reproducible.  `hall_check` decides Hall's condition for any family with
the same matching: the rows that the first failed augmenting search reaches
are its witness.
"""

from __future__ import annotations

from .catalog import _omega_value
from .core import ElementSet, FiniteSemigroup, _commutes, _Record, _set, iter_bits
from .errors import BadZ, EmptySet, PreconditionFailed, TheoremViolated


class SumMatrix(_Record):
    """The k-by-l matrix with entry [i][j] = x_i + y_j, for the orders
    x_order and y_order of X and Y."""

    __slots__ = ("x_order", "y_order", "entries")

    @property
    def k(self) -> int:
        return len(self.x_order)

    @property
    def l(self) -> int:
        return len(self.y_order)

    def entry_set(self, n: int) -> ElementSet:
        return ElementSet.from_elements(n, (v for row in self.entries for v in row))


class LocalizationResult(_Record):
    """The set Z and the representative z_i chosen in each row, in order."""

    __slots__ = ("Z", "representatives")

    def witness_set(self) -> ElementSet:
        """Z together with the representatives: k + l - 1 distinct elements."""
        mask = self.Z.mask
        for z in self.representatives:
            mask |= 1 << z
        return _set(self.Z.n, mask)


def sum_matrix(
    A: FiniteSemigroup,
    X: ElementSet,
    Y: ElementSet,
    x_order=None,
    y_order=None,
) -> SumMatrix:
    """The sum matrix of (X, Y) under the given numbering (default
    ascending element index).  Its entry set is exactly X + Y."""
    A.check_set(X)
    A.check_set(Y)
    if X.mask == 0 or Y.mask == 0:
        raise EmptySet("sum_matrix needs non-empty X and Y")
    xo = _validated_order(X, x_order, "x_order")
    yo = _validated_order(Y, y_order, "y_order")
    table = A.table
    entries = tuple(tuple(table[x][y] for y in yo) for x in xo)
    return SumMatrix(x_order=xo, y_order=yo, entries=entries)


def _validated_order(S: ElementSet, order, name: str) -> tuple[int, ...]:
    if order is None:
        return S.elements()
    order = tuple(order)
    if sorted(order) != list(S.elements()):
        raise ValueError("%s is not an ordering of the set %s" % (name, S))
    return order


def localize(
    A: FiniteSemigroup,
    X: ElementSet,
    Y: ElementSet,
    Z: ElementSet | None = None,
) -> LocalizationResult:
    """Pick representatives z_i in (x_i + Y) - Z, pairwise distinct.

    Requires a cancellative carrier, a commutative span of Y, and
    |X + Y| < omega(Y).  Z defaults to x_1 + {y_1, ..., y_{l-1}}, which is
    (x_1 + Y) minus x_1 + y_l on a cancellative carrier; any (l-1)-subset
    of X + Y is accepted.  Under these hypotheses a full matching always
    exists; not finding one would be an internal error.
    """
    A.check_set(X)
    A.check_set(Y)
    xmask, ymask = X.mask, Y.mask
    if xmask == 0 or ymask == 0:
        raise EmptySet("localize needs non-empty X and Y")

    xs = iter_bits(xmask)
    ys = iter_bits(ymask)
    bit_table = A._bit_table
    # x + Y as a mask for each x in X: the rows of the sum matrix
    row_sums = []
    total = 0
    for x in xs:
        row = bit_table[x]
        s = 0
        for y in ys:
            s |= row[y]
        row_sums.append(s)
        total |= s
    failed = []
    if not A.is_cancellative:
        failed.append("cancellative")
    if not _commutes(A, ymask):
        failed.append("span_y_commutative")
    if _omega_value(A, ymask) <= total.bit_count():
        failed.append("sumset_smaller_than_omega")
    if failed:
        raise PreconditionFailed(failed)

    n = A.n
    if Z is None:
        zmask = row_sums[0] & ~bit_table[xs[0]][ys[-1]]
        Z = _set(n, zmask)
    else:
        A.check_set(Z)
        zmask = Z.mask
        if zmask & ~total:
            raise BadZ("Z = %s is not a subset of X+Y = %s" % (Z, ElementSet(n, total)))
    if zmask.bit_count() != len(ys) - 1:
        raise BadZ("|Z| = %d, expected l-1 = %d" % (zmask.bit_count(), len(ys) - 1))

    matched, _ = _max_matching([s & ~zmask for s in row_sums], n)
    if None in matched:
        raise TheoremViolated(
            "no system of distinct representatives despite hypotheses holding; "
            "this contradicts the localization proposition"
        )
    witness = zmask
    for e in matched:
        witness |= 1 << e
    if witness.bit_count() != len(xs) + len(ys) - 1:
        raise TheoremViolated(
            "localized set has %d elements, expected k + l - 1 = %d"
            % (witness.bit_count(), len(xs) + len(ys) - 1)
        )
    return LocalizationResult(Z, tuple(matched))


def _max_matching(rows: list[int], n: int) -> tuple[list[int | None], list[int] | None]:
    """Augmenting-path matching of rows to elements (bit masks).

    Deterministic: rows are processed in index order and candidate elements
    in ascending order, so the same input always yields the same matching.
    A row whose least element is free takes it, as the search would first.
    It stops at the first row that no augmenting path reaches, which stays
    None with every row after it.  Returns (matched, reached): reached is
    None if every row is matched, else that row and the owners of the
    elements its failed search saw, ascending; those elements are their union.
    """
    owner: list[int | None] = [None] * n
    matched: list[int | None] = [None] * len(rows)
    for i, row in enumerate(rows):
        e = (row & -row).bit_length() - 1
        if row and owner[e] is None:
            owner[e], matched[i] = i, e
        elif not _augment(i, rows, owner, matched, seen := [False] * n):
            return matched, sorted([i, *(owner[e] for e in range(n) if seen[e])])
    return matched, None


def _augment(i: int, rows, owner, matched, seen: list[bool]) -> bool:
    """Match row i along an augmenting path through unseen elements."""
    for e in iter_bits(rows[i]):
        if seen[e]:
            continue
        seen[e] = True
        if owner[e] is None or _augment(owner[e], rows, owner, matched, seen):
            owner[e] = i
            matched[i] = e
            return True
    return False


def hall_check(sets: list[ElementSet]) -> tuple[bool, tuple[int, ...] | None]:
    """Does the family admit a system of distinct representatives?

    Returns (True, None) or (False, witness) where the witness is the first
    tuple of row indices, in ascending bit-pattern order, whose union is
    smaller than the number of rows.  It is the set R of rows reached by the
    first failed augmenting search, from row i: rows below i are matched, so
    a violating set has a largest row >= i; one whose largest row is i holds
    every alternating path from i, so contains R, and R itself violates.
    """
    if not sets:
        return (True, None)
    n = sets[0].n
    for s in sets:
        if s.n != n:
            raise ValueError("all sets must live in the same carrier")
    _, reached = _max_matching([s.mask for s in sets], n)
    return (True, None) if reached is None else (False, tuple(reached))
