"""The generalized Davenport transform and its five-point audit.

Given non-empty X, Y in a unital semigroup and an exponent m >= 1, any
z in (mX + 2Y) minus (X + Y) splits Y into

    Y_tilde = {y in Y : z in x_z + X + Y + y}      (the part that reaches z)
    Y'      = Y minus Y_tilde

for a witness x_z in (m-1)X (with 0-fold X = {identity}) and y_z in Y such
that z in x_z + X + Y + y_z.  When Y' is non-empty, the audit checks the five
properties that make (X, Y') a strictly smaller pair still controlling the
sumset: partition facts, two inclusion/disjointness facts under
cancellativity and commutative span, a counting fact, and the key inequality

    |X + Y| + |Y'| >= |X + Y'| + |Y|.

Items whose hypotheses fail are reported as not-applicable (None), never as
false.
"""

from __future__ import annotations

from .core import (
    ElementSet, FiniteSemigroup, _bit, _commutes, _is_int, _Record, _set, _sumset_mask, iter_bits,
)
from .errors import CandidateInvalid, EmptySet, EmptyTransform, NotUnital
from .setops import _difference_mask, _n_fold_mask


class TransformResult(_Record):
    """The transform of (X, Y) for exponent m and candidate z: the witness
    pair (x_z, y_z) and the split of Y into y_tilde and y_prime."""

    __slots__ = ("m", "z", "x_z", "y_z", "y_tilde", "y_prime")


class TransformAudit(_Record):
    """Audit of one transform: items i..v are True, False, or None (the
    item's hypotheses do not hold).  The two sides of the counting
    inequality (v) are always reported."""

    __slots__ = ("item_i", "item_ii", "item_iii", "item_iv", "item_v", "v_lhs", "v_rhs")

    def items(self) -> tuple[bool | None, ...]:
        return (self.item_i, self.item_ii, self.item_iii, self.item_iv, self.item_v)

    @property
    def any_applicable_false(self) -> bool:
        return any(item is False for item in self.items())


def transform_candidates(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet, m: int = 1
) -> ElementSet:
    """(mX + 2Y) minus (X + Y); empty means no transform applies."""
    shifts, xy = _shifts(A, X, Y, m)
    head = _sumset_mask(A, xy if m == 1 else _sumset_mask(A, shifts, xy), Y.mask)
    return _set(A.n, head & ~xy)


def _shifts(A: FiniteSemigroup, X: ElementSet, Y: ElementSet, m: int):
    """The shifts (m-1)X ({identity} for m = 1) and X + Y of a checked input,
    as masks: mX + 2Y is shifts + (X + Y) + Y, or (X + Y) + Y for m = 1."""
    A.check_set(X)
    A.check_set(Y)
    if A.identity is None:
        raise NotUnital("the transform needs an identity; pass the unitization")
    if X.mask == 0 or Y.mask == 0:
        raise EmptySet("transform needs non-empty X and Y")
    if not _is_int(m) or m < 1:
        raise ValueError("exponent m must be >= 1, got %r" % (m,))
    shifts = 1 << A.identity if m == 1 else _n_fold_mask(A, X.mask, m - 1)
    return shifts, _sumset_mask(A, X.mask, Y.mask)


def apply_transform(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet, m: int, z: int
) -> TransformResult:
    """Build the transform of (X, Y) relative to a candidate z.

    The witness pair (x_z, y_z) is the lexicographically smallest by element
    index, for reproducibility; the audited properties hold for any valid
    choice.
    """
    shifts, xy = _shifts(A, X, Y, m)
    # z outside X + Y is a candidate exactly when the search finds a witness
    if _is_int(z) and 0 <= z < A.n and not xy >> z & 1:
        ys = iter_bits(Y.mask)
        preimage = A._preimage
        for x in iter_bits(shifts):
            base = xy if m == 1 else _sumset_mask(A, 1 << x, xy)  # x + X + Y
            # the y whose preimage of z under + y meets base
            tilde = sum(1 << y for y in ys if base & preimage[y][z])
            if tilde:
                y_z = (tilde & -tilde).bit_length() - 1
                return TransformResult(m, z, x, y_z, _set(A.n, tilde), _set(A.n, Y.mask & ~tilde))
    raise CandidateInvalid("z = %r is not in (mX+2Y) minus (X+Y) for m = %d" % (z, m))


def audit_transform(
    A: FiniteSemigroup, X: ElementSet, Y: ElementSet, result: TransformResult
) -> TransformAudit:
    """Evaluate the five properties of the transform (hypothesis-gated)."""
    if result.y_prime.mask == 0:
        raise EmptyTransform()
    xmask, ymask = A.check_set(X).mask, A.check_set(Y).mask
    tilde = A.check_set(result.y_tilde).mask
    prime = A.check_set(result.y_prime).mask

    cancellative = A.is_cancellative
    commutative_span = _commutes(A, ymask)

    x_z = _bit(result.x_z, A.n)
    z = _bit(result.z, A.n)
    xy = _sumset_mask(A, xmask, ymask)
    xp = _sumset_mask(A, xmask, prime)  # X + Y'
    whole = _sumset_mask(A, x_z, xy)  # x_z + X + Y
    kept = _sumset_mask(A, x_z, xp)  # x_z + X + Y'
    reached = _difference_mask(A, z, tilde)  # z - Y_tilde

    item_i = (
        tilde != 0
        and prime & tilde == 0
        and tilde == ymask & ~prime
        and prime != ymask
        and tilde != ymask
    )
    item_ii = (kept | reached) & ~whole == 0 if cancellative else None
    item_iii = kept & reached == 0 if commutative_span else None
    item_iv = reached.bit_count() >= tilde.bit_count() if cancellative else None

    v_lhs = xy.bit_count() + prime.bit_count()
    v_rhs = xp.bit_count() + ymask.bit_count()
    item_v = v_lhs >= v_rhs if (cancellative and commutative_span) else None

    return TransformAudit(item_i, item_ii, item_iii, item_iv, item_v, v_lhs, v_rhs)
