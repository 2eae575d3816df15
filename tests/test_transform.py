"""The candidate-driven set transform and its five-item audit."""

from __future__ import annotations

import pytest

import addcomb as ac


def _s(n, *els):
    return ac.ElementSet.of(n, *els)


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def test_candidates_pins():
    z8 = ac.cyclic(8)
    X, Y = _s(8, 0, 1), _s(8, 0, 1)
    assert ac.transform_candidates(z8, X, Y, 1) == _s(8, 3)
    assert ac.transform_candidates(z8, X, Y, 2) == _s(8, 3, 4)
    z4 = ac.cyclic(4)
    assert ac.transform_candidates(z4, _s(4, 0), _s(4, 0, 2), 1) == ac.ElementSet.empty(4)


def test_candidates_errors():
    z8 = ac.cyclic(8)
    with pytest.raises(ac.NotUnital):
        ac.transform_candidates(ac.leftzero(3), _s(3, 0), _s(3, 1), 1)
    with pytest.raises(ac.EmptySet):
        ac.transform_candidates(z8, ac.ElementSet.empty(8), _s(8, 1), 1)
    with pytest.raises(ValueError):
        ac.transform_candidates(z8, _s(8, 1), _s(8, 1), 0)
    # the unitization makes a non-unital carrier usable
    lz1 = ac.unitization(ac.leftzero(3))
    assert isinstance(ac.transform_candidates(lz1, _s(4, 0), _s(4, 1), 1), ac.ElementSet)


def test_empty_candidates_iff_span_stable():
    # (X + 2Y) stays inside X + Y exactly when X + Y absorbs another +Y
    for A in (ac.cyclic(6), ac.maxchain(3)):
        n = A.n
        for xm in range(1, 1 << n):
            for ym in range(1, 1 << n):
                X, Y = ac.ElementSet(n, xm), ac.ElementSet(n, ym)
                empty = ac.transform_candidates(A, X, Y, 1).mask == 0
                assert empty == ac.span_check(A, X, Y)[0]


# ---------------------------------------------------------------------------
# Applying the transform
# ---------------------------------------------------------------------------


def test_apply_pins_mod8():
    z8 = ac.cyclic(8)
    X, Y = _s(8, 0, 1), _s(8, 0, 1)
    r = ac.apply_transform(z8, X, Y, 1, 3)
    assert r.m == 1 and r.z == 3
    assert r.x_z == 0  # identity, by the m = 1 convention
    assert r.y_z == 1
    assert r.y_tilde == _s(8, 1)
    assert r.y_prime == _s(8, 0)


def test_apply_pins_mod9():
    z9 = ac.cyclic(9)
    r = ac.apply_transform(z9, _s(9, 0, 1, 2), _s(9, 0, 1), 1, 4)
    assert r.y_tilde == _s(9, 1)
    assert r.y_prime == _s(9, 0)


def test_apply_m2_uses_x_witness():
    z8 = ac.cyclic(8)
    X, Y = _s(8, 0, 1), _s(8, 0, 1)
    r = ac.apply_transform(z8, X, Y, 2, 4)
    assert r.x_z in ac.n_fold(z8, X, 1)
    # the smallest valid x_z is selected: 0 + X + Y + y covers 4 via y = ?
    # X+Y+0 = {0,1,2}, X+Y+1 = {1,2,3} do not reach 4, so x_z = 1 is forced
    assert r.x_z == 1
    assert r.y_z == 1
    assert 4 not in ac.sumset(z8, X, Y)


def test_apply_validates_candidate():
    z8 = ac.cyclic(8)
    X, Y = _s(8, 0, 1), _s(8, 0, 1)
    with pytest.raises(ac.CandidateInvalid):
        ac.apply_transform(z8, X, Y, 1, 2)  # 2 is inside X+Y
    with pytest.raises(ac.CandidateInvalid):
        ac.apply_transform(z8, X, Y, 1, 4)  # 4 is outside X+2Y


@pytest.mark.parametrize("z", [True, 4.0, "a", None])
def test_apply_refuses_a_bool_or_non_int_z(z):
    # 1 and 4 are the candidates on the first pair, 4 on the second: a bool
    # or a float of one is refused by repr, not taken or formatted as an int
    z8 = ac.cyclic(8)
    for X, Y in ((_s(8, 0), _s(8, 3, 6)), (_s(8, 0, 1), _s(8, 0, 1, 2))):
        with pytest.raises(ac.CandidateInvalid) as exc:
            ac.apply_transform(z8, X, Y, 1, z)
        assert str(exc.value) == "z = %r is not in (mX+2Y) minus (X+Y) for m = 1" % (z,)


def test_transform_invariants_exhaustive_small():
    # Y_tilde is exactly {y : z in x_z + X + Y + y}; y_z lies in it;
    # Y_prime is the complement; |Y_prime| < |Y| always
    for A in (ac.cyclic(7), ac.dihedral(3)):
        n = A.n
        for xm in range(1, 1 << n, 3):
            for ym in range(1, 1 << n, 5):
                X, Y = ac.ElementSet(n, xm), ac.ElementSet(n, ym)
                for z in ac.transform_candidates(A, X, Y, 1):
                    r = ac.apply_transform(A, X, Y, 1, z)
                    base = ac.sumset(A, ac.sumset(A, _s(n, r.x_z), X), Y)
                    tilde = {y for y in Y if z in {A.add(w, y) for w in base}}
                    assert set(r.y_tilde) == tilde
                    assert r.y_z in tilde
                    assert r.y_prime == Y - r.y_tilde
                    assert len(r.y_prime) < len(Y)
                    assert z not in ac.sumset(A, X, Y)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def test_audit_pins_mod8():
    z8 = ac.cyclic(8)
    X, Y = _s(8, 0, 1), _s(8, 0, 1)
    audit = ac.audit_transform(z8, X, Y, ac.apply_transform(z8, X, Y, 1, 3))
    assert audit.items() == (True, True, True, True, True)
    assert audit.v_lhs == 3 + 1  # |X+Y| + |Y'|
    assert audit.v_rhs == 2 + 2  # |X+Y'| + |Y|
    assert not audit.any_applicable_false


def test_audit_gates_on_hypotheses():
    d4 = ac.dihedral(4)
    X = _s(8, 0, 1)
    Y = _s(8, 1, 4)  # generates all of D4: span not commutative
    assert not ac.span_is_commutative(d4, Y)
    cands = ac.transform_candidates(d4, X, Y, 1)
    assert cands.mask != 0
    r = ac.apply_transform(d4, X, Y, 1, cands.elements()[0])
    audit = ac.audit_transform(d4, X, Y, r)
    # cancellative carrier: items ii and iv stay boolean
    assert audit.item_ii is not None and audit.item_iv is not None
    # commutative-span items are reported not-applicable, never false
    assert audit.item_iii is None and audit.item_v is None
    assert audit.v_lhs >= 0 and audit.v_rhs >= 0  # sides still reported


def test_audit_not_applicable_on_non_cancellative():
    mc = ac.unitization(ac.leftzero(2))  # unital but not cancellative
    X, Y = _s(3, 0), _s(3, 0, 2)
    cands = ac.transform_candidates(mc, X, Y, 1)
    if cands.mask:
        r = ac.apply_transform(mc, X, Y, 1, cands.elements()[0])
        audit = ac.audit_transform(mc, X, Y, r)
        assert audit.item_ii is None and audit.item_iv is None


def test_audit_empty_transform_rejected():
    z8 = ac.cyclic(8)
    X, Y = _s(8, 0, 1), _s(8, 1, 2)
    r = ac.apply_transform(z8, X, Y, 1, 4)
    assert r.y_prime.mask == 0  # every y reaches z = 4 here
    with pytest.raises(ac.EmptyTransform):
        ac.audit_transform(z8, X, Y, r)


@pytest.mark.parametrize(
    "tilde, prime",
    [((0, 1, 2), (2,)), ((0,), (2,)), ((0,), (0, 1, 2))],
    ids=["tilde-is-y", "element-in-neither", "prime-is-y"],
)
def test_audit_item_i_is_false_on_a_wrong_split(tilde, prime):
    # item (i) needs every clause of the split; each of these breaks some
    z8 = ac.cyclic(8)
    X, Y = _s(8, 0, 1), _s(8, 0, 1, 2)
    r = ac.apply_transform(z8, X, Y, 1, 4)
    assert ac.audit_transform(z8, X, Y, r).item_i is True
    wrong = ac.TransformResult(r.m, r.z, r.x_z, r.y_z, _s(8, *tilde), _s(8, *prime))
    assert ac.audit_transform(z8, X, Y, wrong).item_i is False


def test_identity_stays_in_y_prime_with_m1():
    # with m = 1 and the identity in Y, the identity lands in Y_prime
    for A in (ac.cyclic(8), ac.dihedral(4), ac.quaternion8()):
        e = A.identity
        n = A.n
        for xm in range(1, 1 << n, 11):
            for ym in range(1, 1 << n, 7):
                if not (ym >> e & 1):
                    continue
                X, Y = ac.ElementSet(n, xm), ac.ElementSet(n, ym)
                for z in ac.transform_candidates(A, X, Y, 1):
                    r = ac.apply_transform(A, X, Y, 1, z)
                    assert e in r.y_prime
