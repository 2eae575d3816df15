"""Set-level calculus relative to a fixed finite semigroup.

Sumsets, iterated sumsets, the two difference sets, and the three-way span
equivalence check.  Everything here is a pure function of immutable inputs,
so parallel mapping over pair enumerations is safe.  A sweep or a verify
loads none of it: the span test that the catalog reads is core._commutes,
and X + Y of two masks is core._sumset_mask.
"""

from __future__ import annotations

from .core import (
    ElementSet, FiniteSemigroup, _commutes, _is_int, _set, _sumset_mask, generated_subsemigroup,
    iter_bits,
)
from .errors import ValidationError


def sumset(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> ElementSet:
    """X + Y = {x + y : x in X, y in Y}; empty if either operand is empty."""
    A.check_set(X)
    A.check_set(Y)
    return _set(A.n, _sumset_mask(A, X.mask, Y.mask))


def n_fold(A: FiniteSemigroup, Z: ElementSet, k: int) -> ElementSet:
    """Z + Z + ... + Z with k summands (k >= 1).

    Z is added on the right until k summands or until a sum recurs; the
    sums from then on repeat with a fixed period, so kZ is read off that
    cycle, and a large k costs no more than the sums before the recurrence.
    """
    A.check_set(Z)
    if not _is_int(k) or k < 1:
        raise ValidationError("n_fold needs k >= 1, got %r" % (k,))
    return _set(A.n, _n_fold_mask(A, Z.mask, k))


def _n_fold_mask(A: FiniteSemigroup, zmask: int, k: int) -> int:
    sums, seen = [zmask], {zmask: 0}  # sums[j] = (j + 1)Z
    for _ in range(k - 1):
        acc = _sumset_mask(A, sums[-1], zmask)
        if acc in seen:  # (j + 1)Z for j >= start repeats with period len(sums) - start
            start = seen[acc]
            return sums[start + (k - 1 - start) % (len(sums) - start)]
        seen[acc] = len(sums)
        sums.append(acc)
    return sums[-1]


def right_difference(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> ElementSet:
    """X - Y = {z in the carrier : (z + Y) meets X}."""
    A.check_set(X)
    A.check_set(Y)
    return _set(A.n, _difference_mask(A, X.mask, Y.mask))


def _difference_mask(A: FiniteSemigroup, xmask: int, ymask: int) -> int:
    """X - Y: the OR of the preimages of x under + y, over x in X, y in Y."""
    preimage = A._preimage
    xs = iter_bits(xmask)
    out = 0
    for y in iter_bits(ymask):
        row = preimage[y]
        for x in xs:
            out |= row[x]
    return out


def left_difference(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> ElementSet:
    """-X + Y = {z in the carrier : (X + z) meets Y}, by full carrier scan."""
    A.check_set(X)
    A.check_set(Y)
    table = A.table
    xs = X.elements()
    ymask = Y.mask
    out = 0
    for z in range(A.n):
        if any(ymask >> table[x][z] & 1 for x in xs):
            out |= 1 << z
    return _set(A.n, out)


def span_check(A: FiniteSemigroup, X: ElementSet, Y: ElementSet) -> tuple[bool, bool, bool]:
    """Three equivalent readings of "Y adds nothing new beyond X+Y":

      c1: X + 2Y is contained in X + Y;
      c2: X + nY is contained in X + Y for every n (up to the closure size,
          where the chain provably stabilizes);
      c3: X + <Y> = X + Y.

    The contract (asserted by the test suite, not here) is c1 = c2 = c3.
    """
    A.check_set(X)
    A.check_set(Y)
    xy = _sumset_mask(A, X.mask, Y.mask)
    c1 = _sumset_mask(A, xy, Y.mask) | xy == xy

    span = generated_subsemigroup(A, Y)
    c2 = True
    cur = xy
    for _ in range(2, len(span) + 1):
        cur = _sumset_mask(A, cur, Y.mask)
        if cur | xy != xy:
            c2 = False
            break

    c3 = _sumset_mask(A, X.mask, span.mask) == xy
    return (c1, c2, c3)


def span_is_commutative(A: FiniteSemigroup, Y: ElementSet) -> bool:
    """Whether the subsemigroup generated by Y is commutative.

    Checked as "the elements of Y commute pairwise", which is equivalent:
    sums of pairwise commuting elements commute.
    """
    A.check_set(Y)
    return _commutes(A, Y.mask)
