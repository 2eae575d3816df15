"""Carrier construction, validation, and the primitive invariants."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

import addcomb as ac
from addcomb.core import INF, extended
from addcomb.theorems import is_standard_cyclic
from support import associativity_oracle, closure_oracle, order_oracle


# ---------------------------------------------------------------------------
# Extended naturals
# ---------------------------------------------------------------------------


def test_extended_nat_ordering():
    zero = ac.ExtendedNat(0)
    five = ac.ExtendedNat(5)
    assert zero < five < ac.INFINITY
    assert five <= ac.ExtendedNat(5) <= five
    assert ac.INFINITY == ac.ExtendedNat(None)
    assert not ac.INFINITY < ac.INFINITY
    assert max(zero, ac.INFINITY) == ac.INFINITY
    assert min(five, ac.INFINITY) == five
    # comparisons coerce plain ints
    assert five == 5
    assert five < 6
    assert ac.INFINITY > 10**9


def test_extended_nat_rejects_arithmetic():
    with pytest.raises(TypeError):
        ac.ExtendedNat(2) + ac.ExtendedNat(3)
    with pytest.raises(TypeError):
        1 + ac.INFINITY
    with pytest.raises(TypeError):
        ac.INFINITY - 1


def test_extended_nat_json_round_trip():
    assert ac.ExtendedNat(7).to_json() == 7
    assert ac.INFINITY.to_json() == "infinity"
    for v in (ac.ExtendedNat(0), ac.ExtendedNat(12), ac.INFINITY):
        assert ac.ExtendedNat.from_json(v.to_json()) == v


def test_extended_nat_hash_agrees_with_eq():
    assert 3 in {ac.ExtendedNat(3)}
    assert ac.ExtendedNat(3) in {3}
    assert {ac.ExtendedNat(0): "zero"}[0] == "zero"
    assert hash(ac.ExtendedNat(12)) == hash(12)
    assert ac.INFINITY in {ac.ExtendedNat(None)}
    assert hash(ac.INFINITY) not in {hash(v) for v in range(-1, 1 << 16)}
    assert len({ac.ExtendedNat(5), 5, ac.INFINITY}) == 2


def test_extended_nat_compares_above_every_negative_int():
    three = ac.ExtendedNat(3)
    for x in (ac.ExtendedNat(0), three, ac.INFINITY):
        for v in (-1, -5, -(10**30)):
            assert not x == v and not v == x and x != v
            assert v < x and x > v and x >= v and not x < v and not x <= v
            assert sorted([x, v]) == [v, x]
    assert three in [-1, 3] and three not in [-1, 4] and ac.INFINITY not in [-1, 3]
    assert three in {-1, 3} and -1 not in {three, ac.INFINITY}
    # hash agrees with eq: equal values hash alike, and -1 equals none of them
    for v in range(-3, 5):
        for x in (ac.ExtendedNat(max(v, 0)), ac.INFINITY):
            assert (x == v) == (v >= 0 and x.is_finite and x.value == v)
            if x == v:
                assert hash(x) == hash(v)


def test_extended_nat_takes_no_bool_for_an_int():
    # a bool is not an int here: it equals no value and orders against none
    assert not ac.ExtendedNat(1) == True and ac.ExtendedNat(1) != True
    assert not ac.ExtendedNat(0) == False and not ac.INFINITY == True
    for other in (True, False):
        with pytest.raises(TypeError):
            ac.ExtendedNat(0) < other
        with pytest.raises(TypeError):
            ac.INFINITY > other


def test_extended_nat_validation_and_immutability():
    with pytest.raises(ValueError):
        ac.ExtendedNat(-1)
    x = ac.ExtendedNat(3)
    with pytest.raises(AttributeError):
        x.value = 4


# ---------------------------------------------------------------------------
# Element sets
# ---------------------------------------------------------------------------


def test_element_set_parse_and_str():
    s = ac.ElementSet.parse("{0,3,5}", 8)
    assert s.elements() == (0, 3, 5)
    assert str(s) == "{0,3,5}"
    assert ac.ElementSet.parse("0, 3 ,5", 8) == s
    assert ac.ElementSet.parse("{}", 4) == ac.ElementSet.empty(4)
    assert str(ac.ElementSet.empty(4)) == "{}"
    assert ac.ElementSet.parse(str(s), 8) == s


def test_element_set_parse_errors():
    with pytest.raises(ac.ParseError):
        ac.ElementSet.parse("{0,a}", 4)
    with pytest.raises(ac.ParseError):
        ac.ElementSet.parse("{0,1", 4)
    with pytest.raises(ac.IndexOutOfRange):
        ac.ElementSet.parse("{0,4}", 4)
    with pytest.raises(ac.IndexOutOfRange):
        ac.ElementSet.parse("{-1}", 4)


def test_element_set_operations():
    a = ac.ElementSet.of(6, 0, 1, 2)
    b = ac.ElementSet.of(6, 2, 3)
    assert (a | b).elements() == (0, 1, 2, 3)
    assert (a & b).elements() == (2,)
    assert (a - b).elements() == (0, 1)
    assert b <= (a | b)
    assert not (a <= b)
    assert len(a) == 3 and 1 in a and 5 not in a
    assert list(a) == [0, 1, 2]
    assert ac.ElementSet.full(3).elements() == (0, 1, 2)


def test_element_set_carrier_checks():
    with pytest.raises(ValueError):
        ac.ElementSet.of(4, 1) | ac.ElementSet.of(5, 1)
    with pytest.raises(ac.CarrierTooLarge):
        ac.ElementSet.empty(65)
    with pytest.raises(ac.IndexOutOfRange):
        ac.ElementSet.of(4, 9)


# Refusals that no other in-process test reaches, by id: the call and the
# exception it raises, or, for a comparison refused with NotImplemented,
# the value it falls back to.
_REFUSALS = {
    "mask-above-carrier": (lambda: ac.ElementSet(3, 8), ac.IndexOutOfRange),
    "mask-negative": (lambda: ac.ElementSet(3, -1), ac.IndexOutOfRange),
    "mask-float": (lambda: ac.ElementSet(8, 3.0), ac.IndexOutOfRange),
    "mask-bool": (lambda: ac.ElementSet(8, True), ac.IndexOutOfRange),
    "n-bool": (lambda: ac.ElementSet(True, 1), ac.CarrierTooLarge),
    "n-float": (lambda: ac.ElementSet(8.0, 1), ac.CarrierTooLarge),
    "from-json-str": (lambda: ac.ExtendedNat.from_json("3"), ac.ParseError),
    "from-json-float": (lambda: ac.ExtendedNat.from_json(1.5), ac.ParseError),
    "from-json-bool": (lambda: ac.ExtendedNat.from_json(True), ac.ParseError),
    "from-json-none": (lambda: ac.ExtendedNat.from_json(None), ac.ParseError),
    "from-json-negative": (lambda: ac.ExtendedNat.from_json(-1), ac.ParseError),
    "extended-eq-str": (lambda: ac.ExtendedNat(3) == "3", False),
    "extended-lt-str": (lambda: ac.ExtendedNat(3) < "3", TypeError),
    "set-or-int": (lambda: ac.ElementSet.of(3, 0) | 3, TypeError),
    "maxchain-0": (lambda: ac.maxchain(0), ac.ValidationError),
    "delta-modulus-0": (lambda: ac.delta(0, ac.ElementSet.of(3, 0)), ac.PreconditionFailed),
}


# a statement that is not a str is unknown to each call that takes one
for _kind, _statement in (("none", None), ("int", 3), ("list", ["Thm2.2"]), ("bytes", b"thm2.2")):
    _REFUSALS.update({
        "normalize-%s" % _kind: (lambda s=_statement: ac.normalize_statement(s), ac.ParseError),
        "run-statement-%s" % _kind: (
            lambda s=_statement: ac.run_statement(ac.cyclic(3), s, *[ac.ElementSet.of(3, 0)] * 2),
            ac.ParseError,
        ),
        "sweep-statement-%s" % _kind: (
            lambda s=_statement: ac.sweep(ac.cyclic(3), s), ac.ParseError
        ),
    })


@pytest.mark.parametrize("call, outcome", _REFUSALS.values(), ids=_REFUSALS)
def test_refusals_raise_their_error(call, outcome):
    if outcome is False:
        assert call() is False
    else:
        with pytest.raises(outcome):
            call()


@pytest.mark.parametrize("size", [True, 2.0, 2.5, "3", None, 0])
@pytest.mark.parametrize("construction", ["cyclic", "dihedral", "maxchain", "leftzero"])
def test_constructions_refuse_a_bad_size_as_validation_error(construction, size):
    # a bool, a non-int or a value below 1, named by its repr; an int reads
    # as it did under %d
    with pytest.raises(ac.ValidationError) as exc:
        getattr(ac, construction)(size)
    assert str(exc.value).endswith(" >= 1, got %r" % (size,))


_COUNT_CALLS = {
    "n_fold-k": (
        lambda v: ac.n_fold(ac.cyclic(5), ac.ElementSet.of(5, 0, 1), v),
        ac.ValidationError, "n_fold needs k >= 1, got %r",
    ),
    "transform_candidates-m": (
        lambda v: ac.transform_candidates(
            ac.cyclic(5), ac.ElementSet.of(5, 0), ac.ElementSet.of(5, 0, 1), v
        ),
        ValueError, "exponent m must be >= 1, got %r",
    ),
    "sweep-max_size": (
        lambda v: ac.sweep(ac.cyclic(5), "cd", max_size=v), ValueError, "max_size must be >= 1",
    ),
    "sweep-jobs": (
        lambda v: ac.sweep(ac.cyclic(5), "cd", jobs=v), ValueError, "jobs must be an int, got %r",
    ),
}


@pytest.mark.parametrize("name", _COUNT_CALLS)
@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None])
def test_counts_refuse_a_bool_or_a_non_int(name, value):
    # each keeps the class and text of its refusal of an int below 1, with
    # the value named by its repr; None is max_size's default, no cap
    call, error, text = _COUNT_CALLS[name]
    if value is None and name == "sweep-max_size":
        assert call(value) == ac.sweep(ac.cyclic(5), "cd")
        return
    with pytest.raises(error) as exc:
        call(value)
    assert str(exc.value) == (text % (value,) if "%r" in text else text)


def test_sweep_runs_an_int_jobs_of_at_most_one_serially():
    serial = ac.sweep(ac.cyclic(5), "cd")
    assert ac.sweep(ac.cyclic(5), "cd", jobs=0) == serial
    assert ac.sweep(ac.cyclic(5), "cd", jobs=-3) == serial


# ---------------------------------------------------------------------------
# Table validation
# ---------------------------------------------------------------------------


def test_non_associative_table_rejected_with_witness():
    with pytest.raises(ac.NonAssociative) as exc:
        ac.build_semigroup([[0, 0], [1, 0]])
    # first violating triple in scan order: (1+0)+1 = 0 but 1+(0+1) = 1
    assert exc.value.witness == (1, 0, 1)
    assert "(1+0)+1" in str(exc.value)


def _builtin_tables(n):
    """The tables of the built-in carriers of order n."""
    carriers = [ac.cyclic(n), ac.leftzero(n), ac.maxchain(n)]
    if n % 2 == 0 and n >= 6:
        carriers.append(ac.dihedral(n // 2))
    if n == 8:
        carriers.append(ac.quaternion8())
    if n >= 2:
        carriers += [ac.unitization(ac.leftzero(n - 1)), ac.unitization(ac.maxchain(n - 1))]
    for d in range(2, n):
        if n % d == 0:
            carriers.append(ac.product(ac.cyclic(d), ac.leftzero(n // d)))
    return [[list(row) for row in A.table] for A in carriers if A.n == n]


def test_associativity_check_equals_the_triple_loop():
    # one entry of each built-in table perturbed, and random tables: the
    # check raises at the triple loop's first failing (a, b, c), with its
    # two sides, and builds every table the loop finds associative
    rng = random.Random(11)
    for n in range(1, 13):
        tables = []
        for table in _builtin_tables(n):
            tables.append(table)
            for _ in range(6):
                bad = [row[:] for row in table]
                a, b = rng.randrange(n), rng.randrange(n)
                bad[a][b] = rng.randrange(n)
                tables.append(bad)
        tables += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(20)]
        for table in tables:
            want = associativity_oracle(table)
            if want is None:
                assert ac.build_semigroup(table).n == n
                continue
            with pytest.raises(ac.NonAssociative) as exc:
                ac.build_semigroup(table)
            a, b, c, lhs, rhs = want
            assert exc.value.witness == (a, b, c)
            assert str(exc.value) == (
                "not associative: (%d+%d)+%d = %d but %d+(%d+%d) = %d" % (a, b, c, lhs, a, b, c, rhs)
            )


def test_malformed_tables_rejected():
    with pytest.raises(ac.ValidationError):
        ac.build_semigroup([])
    with pytest.raises(ac.ValidationError):
        ac.build_semigroup([[0, 1], [1]])
    with pytest.raises(ac.IndexOutOfRange):
        ac.build_semigroup([[0, 1], [1, 2]])
    with pytest.raises(ac.IndexOutOfRange):
        ac.build_semigroup([[True]])
    with pytest.raises(ac.CarrierTooLarge):
        ac.leftzero(65)
    with pytest.raises(ac.CarrierTooLarge):
        ac.product(ac.cyclic(9), ac.cyclic(8))


def test_cancellativity_needs_rows_and_columns():
    # right-zero: every row is a permutation but columns are constant
    rightzero = ac.build_semigroup([[0, 1, 2]] * 3)
    assert not rightzero.is_cancellative
    assert not ac.leftzero(3).is_cancellative
    assert ac.cyclic(5).is_cancellative


def test_identity_units_and_group_flags():
    z6 = ac.cyclic(6)
    assert z6.identity == 0
    assert z6.units == ac.ElementSet.full(6)
    assert z6.is_group and z6.is_commutative

    mc = ac.maxchain(3)
    assert mc.identity == 0
    assert mc.units.elements() == (0,)
    assert not mc.is_group and mc.is_commutative and not mc.is_cancellative

    lz = ac.leftzero(3)
    assert lz.identity is None
    assert lz.units.elements() == ()

    d4 = ac.dihedral(4)
    assert d4.is_group and not d4.is_commutative
    assert d4.inverse(1) == 3  # r * r^3 = e
    assert d4.inverse(5) == 5  # reflections are involutions


def test_unitization():
    mc = ac.maxchain(3)
    assert ac.unitization(mc) is mc  # already unital

    lz = ac.leftzero(2)
    lz1 = ac.unitization(lz)
    assert lz1.n == 3
    assert lz1.identity == 2
    # original products are preserved
    for a in range(2):
        for b in range(2):
            assert lz1.add(a, b) == lz.add(a, b)


# ---------------------------------------------------------------------------
# Orders, closures, constants
# ---------------------------------------------------------------------------


def test_element_order_pins():
    z12 = ac.cyclic(12)
    assert ac.element_order(z12, 0) == ac.ExtendedNat(1)
    assert ac.element_order(z12, 1) == ac.ExtendedNat(12)
    assert ac.element_order(z12, 4) == ac.ExtendedNat(3)
    assert ac.element_order(z12, 6) == ac.ExtendedNat(2)
    q8 = ac.quaternion8()
    assert [ac.element_order(q8, z).value for z in range(8)] == [1, 2, 4, 4, 4, 4, 4, 4]


def test_element_order_rejects_an_index_outside_the_carrier():
    z5 = ac.cyclic(5)
    for z in (-1, 5, 64, True, "1"):
        with pytest.raises(ac.IndexOutOfRange):
            ac.element_order(z5, z)


def test_add_and_inverse_reject_an_index_outside_the_carrier():
    # a negative index used to wrap (add(-1, 0) gave 4, inverse(-1) gave 1),
    # and add(5, 0) raised a bare IndexError
    z5 = ac.cyclic(5)
    for call in (lambda: z5.add(-1, 0), lambda: z5.inverse(-1), lambda: z5.add(5, 0)):
        with pytest.raises(ac.IndexOutOfRange):
            call()
    assert z5.add(4, 3) == 2 and z5.inverse(4) == 1


def test_element_order_matches_oracle_everywhere():
    for A in (ac.cyclic(9), ac.dihedral(4), ac.maxchain(5), ac.leftzero(4)):
        for z in range(A.n):
            assert ac.element_order(A, z).value == order_oracle(A, z)


def test_generated_subsemigroup():
    z6 = ac.cyclic(6)
    assert ac.generated_subsemigroup(z6, ac.ElementSet.of(6, 2, 3)) == ac.ElementSet.full(6)
    assert ac.generated_subsemigroup(z6, ac.ElementSet.of(6, 2)).elements() == (0, 2, 4)
    assert ac.generated_subsemigroup(z6, ac.ElementSet.empty(6)) == ac.ElementSet.empty(6)
    mc = ac.maxchain(4)
    assert ac.generated_subsemigroup(mc, ac.ElementSet.of(4, 2)).elements() == (2,)


def test_generated_subsemigroup_matches_closure_oracle():
    for A in (ac.cyclic(8), ac.dihedral(3), ac.maxchain(4)):
        for mask in range(1 << A.n):
            Z = ac.ElementSet(A.n, mask)
            got = set(ac.generated_subsemigroup(A, Z))
            want = closure_oracle(A, Z.elements()) if mask else set()
            assert got == want


def test_p_constant_pins():
    assert ac.p_constant(ac.cyclic(12)) == ac.ExtendedNat(2)
    assert ac.p_constant(ac.cyclic(7)) == ac.ExtendedNat(7)
    assert ac.p_constant(ac.cyclic(1)) == ac.INFINITY
    assert ac.p_constant(ac.dihedral(4)) == ac.ExtendedNat(2)
    assert ac.p_constant(ac.quaternion8()) == ac.ExtendedNat(2)
    # non-unital input: the constant is taken over the unitization
    assert ac.p_constant(ac.leftzero(2)) == ac.ExtendedNat(1)


def test_centralizer():
    d4 = ac.dihedral(4)
    rot_and_ref = ac.ElementSet.of(8, 1, 4)  # r and s
    assert ac.centralizer(d4, rot_and_ref).elements() == (0, 2)  # the center
    assert ac.centralizer(d4, ac.ElementSet.empty(8)) == ac.ElementSet.full(8)
    z5 = ac.cyclic(5)
    assert ac.centralizer(z5, ac.ElementSet.of(5, 3)) == ac.ElementSet.full(5)


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------


def test_dihedral_convention():
    d4 = ac.dihedral(4)
    # indices: 0..3 rotations r^i, 4..7 reflections s r^i
    assert d4.add(4, 1) == 5  # s * r = s r
    assert d4.add(1, 4) == 7  # r * s = s r^{-1} = s r^3
    assert d4.add(1, 1) == 2
    assert d4.add(5, 5) == 0  # involution
    for i in range(4, 8):
        assert ac.element_order(d4, i) == ac.ExtendedNat(2)


def test_quaternion_structure():
    q8 = ac.quaternion8()
    # indices 0..7 = 1, -1, i, -i, j, -j, k, -k
    assert q8.add(1, 1) == 0  # (-1)(-1) = 1
    assert q8.add(2, 4) == 6  # i j = k
    assert q8.add(4, 2) == 7  # j i = -k
    assert q8.add(2, 2) == 1  # i^2 = -1
    assert q8.is_group and not q8.is_commutative


def test_product_isomorphic_to_cyclic_by_crt():
    p = ac.product(ac.cyclic(2), ac.cyclic(3))
    z6 = ac.cyclic(6)
    assert p.n == 6 and p.is_group and p.is_commutative
    # explicit isomorphism x mod 6 -> (x mod 2, x mod 3)
    phi = [(x % 2) * 3 + (x % 3) for x in range(6)]
    assert sorted(phi) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert p.add(phi[a], phi[b]) == phi[z6.add(a, b)]


def test_product_non_commutative_factor():
    p = ac.product(ac.cyclic(2), ac.dihedral(3))
    assert p.n == 12 and p.is_group and not p.is_commutative


def test_leftzero_and_maxchain_tables():
    lz = ac.leftzero(3)
    assert all(lz.add(a, b) == a for a in range(3) for b in range(3))
    mc = ac.maxchain(4)
    assert all(mc.add(a, b) == max(a, b) for a in range(4) for b in range(4))
    with pytest.raises(ac.ValidationError):
        ac.cyclic(0)
    with pytest.raises(ac.ValidationError):
        ac.dihedral(0)


def test_element_set_membership_follows_the_int_rule():
    S = ac.ElementSet(4, 2)
    assert 1 in S and 0 not in S
    # a bool is never an element, as ElementSet.of refuses it
    assert True not in S and False not in ac.ElementSet(4, 1)
    with pytest.raises(ac.IndexOutOfRange):
        ac.ElementSet.of(4, True)
    for other in (1.0, "1", None, -1, 4):
        assert other not in S


# ---------------------------------------------------------------------------
# Cayley text format
# ---------------------------------------------------------------------------


def test_parse_cayley_text_round_trip():
    z3 = ac.cyclic(3)
    text = "3\n" + "\n".join(" ".join(str(v) for v in row) for row in z3.table)
    parsed = ac.parse_cayley_text(text)
    assert parsed.table == z3.table


def test_parse_cayley_text_builds_the_trivial_carrier():
    A = ac.parse_cayley_text("1\n0\n")
    assert A.n == 1 and A.table == ((0,),)
    assert A.identity == 0 and A.is_group and A.units == ac.ElementSet(1, 1)


def test_parse_cayley_text_errors():
    with pytest.raises(ac.ParseError):
        ac.parse_cayley_text("")
    with pytest.raises(ac.ParseError):
        ac.parse_cayley_text("x\n0")
    with pytest.raises(ac.ParseError):
        ac.parse_cayley_text("2\n0 1")
    with pytest.raises(ac.ParseError):
        ac.parse_cayley_text("1\n0 0")
    with pytest.raises(ac.ParseError):
        ac.parse_cayley_text("1\nz")
    with pytest.raises(ac.NonAssociative):
        ac.parse_cayley_text("2\n0 0\n1 0")


def _relabel(A, perm):
    """A's table with element a renamed perm[a]."""
    table = [[0] * A.n for _ in range(A.n)]
    for a in range(A.n):
        for b in range(A.n):
            table[perm[a]][perm[b]] = perm[A.table[a][b]]
    return ac.build_semigroup(table)


def test_is_standard_cyclic_matches_its_quadratic_definition():
    def quadratic(A):
        n = A.n
        return all(A.table[a][b] == (a + b) % n for a in range(n) for b in range(n))

    carriers = ac.builtin_monoids(8) + [ac.cyclic(m) for m in (9, 13, 16, 40, 64)]
    carriers += [ac.leftzero(n) for n in (1, 2, 5)] + [ac.maxchain(1), ac.dihedral(1)]
    for m in (4, 5):
        carriers += [_relabel(ac.cyclic(m), p) for p in itertools.permutations(range(m))]
    assert sum(quadratic(A) for A in carriers) > 10
    assert sum(not quadratic(A) for A in carriers) > 100
    for A in carriers:
        assert is_standard_cyclic(A) == quadratic(A), A.label


# ---------------------------------------------------------------------------
# Values built without their checks keep the contracts of their types
# ---------------------------------------------------------------------------


# the fields of each result type, in order, as they were when the types
# were frozen dataclasses
RESULT_FIELDS = {
    "BoundReport": ("statement", "hypotheses", "lhs", "rhs", "applicable", "satisfied"),
    "OmegaBreakdown": ("rows", "overall"),
    "LocalizationResult": ("Z", "representatives"),
    "TransformResult": ("m", "z", "x_z", "y_z", "y_tilde", "y_prime"),
    "TransformAudit": ("item_i", "item_ii", "item_iii", "item_iv", "item_v", "v_lhs", "v_rhs"),
}


def _fast_path_results():
    """(result, the same value from the public constructor) for each result
    type that a library call builds directly."""
    d4, z7 = ac.dihedral(4), ac.cyclic(7)
    X, Y = ac.ElementSet.of(8, 0, 1), ac.ElementSet.of(8, 0, 4)
    X7, Y7 = ac.ElementSet.of(7, 0, 1), ac.ElementSet.of(7, 0, 2)
    transformed = ac.apply_transform(z7, X7, Y7, 1, 5)
    results = [
        ac.run_statement(d4, "Thm2.2", X, Y),
        ac.omega(d4, Y),
        ac.localize(z7, X7, Y7),
        transformed,
        ac.audit_transform(z7, X7, Y7, transformed),
    ]
    assert [type(r).__name__ for r in results] == [
        "BoundReport", "OmegaBreakdown", "LocalizationResult", "TransformResult",
        "TransformAudit",
    ]
    pairs = [(ac.sumset(d4, X, Y), ac.ElementSet(8, ac.sumset(d4, X, Y).mask))]
    for r in results:
        public = type(r)(**{name: getattr(r, name) for name in RESULT_FIELDS[type(r).__name__]})
        pairs.append((r, public))
    return pairs


def test_fast_path_results_keep_the_value_type_contracts():
    for fast, public in _fast_path_results():
        assert type(fast) is type(public)
        assert fast == public and hash(fast) == hash(public)
        assert repr(fast) == repr(public)
        for value in (fast, public):
            assert pickle.loads(pickle.dumps(value)) == public
            assert copy.deepcopy(value) == public
        if type(fast).__name__ in RESULT_FIELDS:
            names = RESULT_FIELDS[type(fast).__name__]
            values = [getattr(fast, name) for name in names]
            assert values == [getattr(public, name) for name in names]
            assert type(fast)(*values) == public  # the positional constructor, in field order
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(fast, name, None)
                with pytest.raises(AttributeError):
                    delattr(fast, name)
        else:
            with pytest.raises(AttributeError):
                fast.mask = 0


def test_extended_values_are_shared_and_equal_to_fresh_ones():
    for v in range(INF):
        assert extended(v) == ac.ExtendedNat(v) == v
        assert hash(extended(v)) == hash(ac.ExtendedNat(v))
        assert extended(v) is extended(v)
    assert extended(INF) is ac.INFINITY
    assert pickle.loads(pickle.dumps(ac.INFINITY)) == ac.INFINITY
    assert pickle.loads(pickle.dumps(extended(7))) == 7


# ---------------------------------------------------------------------------
# One immutability contract: fields refuse set and delete, and values
# pickle and copy through their constructors
# ---------------------------------------------------------------------------


def _contract_values() -> dict:
    """A fresh value of each value type: the carrier, its sets and extended
    naturals, every result record, a catalog entry and a run report."""
    from addcomb.catalog import CATALOG
    from addcomb.cli import RunReport

    d4, z7 = ac.dihedral(4), ac.cyclic(7)
    X, Y = ac.ElementSet.of(8, 0, 1), ac.ElementSet.of(8, 0, 4)
    X7, Y7 = ac.ElementSet.of(7, 0, 1), ac.ElementSet.of(7, 0, 2)
    transformed = ac.apply_transform(z7, X7, Y7, 1, 5)
    swept = ac.sweep(ac.cyclic(3), "CD-1813", max_size=2)
    return {
        "ElementSet": X,
        "ExtendedNat": extended(7),
        "INFINITY": ac.INFINITY,
        "FiniteSemigroup": d4,
        "FiniteSemigroup-unlabelled": ac.build_semigroup([[0, 0], [0, 1]]),
        "FiniteSemigroup-no-identity": ac.leftzero(3),
        "BoundReport": ac.run_statement(d4, "Thm2.2", X, Y),
        "OmegaBreakdown": ac.omega(d4, Y),
        "SumMatrix": ac.sum_matrix(z7, X7, Y7),
        "LocalizationResult": ac.localize(z7, X7, Y7),
        "TransformResult": transformed,
        "TransformAudit": ac.audit_transform(z7, X7, Y7, transformed),
        "SweepSummary": swept,
        "Violation": ac.Violation("{0}", "{0,1}", 1, 2),
        "TightPair": swept.first_tight,
        "_Statement": CATALOG["Thm2.2"],
        "RunReport": RunReport("cyclic:3", "sweep", swept.to_json_dict(), ("sweep",), 0.5),
    }


CONTRACT_CASES = list(_contract_values())


def test_contract_cases_cover_every_record_type():
    from addcomb.core import _Record

    def subclasses(cls):
        return {cls} | {c for sub in cls.__subclasses__() for c in subclasses(sub)}

    # building the values imports every module that defines a record
    covered = {type(value) for value in _contract_values().values()}
    assert covered == subclasses(_Record) - {_Record} | {ac.FiniteSemigroup}


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_value_types_keep_one_immutability_contract(case):
    value = _contract_values()[case]
    fields = type(value).__slots__
    before = [getattr(value, name) for name in fields]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(getattr(value, name) is v for name, v in zip(fields, before))

    copies = (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value))
    for copied in copies:
        assert type(copied) is type(value)
        assert [getattr(copied, name) for name in fields] == before
        if isinstance(value, ac.FiniteSemigroup):
            # rebuilt, and so validated again, from its table and label
            assert copied.table == value.table and copied.label == value.label
            assert repr(copied) == repr(value)
        else:
            assert copied == value and repr(copied) == repr(value)
            if case != "RunReport":  # whose dict payload leaves it unhashable
                assert hash(copied) == hash(value)


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_value_types_have_one_json_form(case):
    from addcomb.core import _json

    value = _contract_values()[case]
    if isinstance(value, ac.FiniteSemigroup):
        return
    if isinstance(value, (ac.ElementSet, ac.ExtendedNat)):
        # a set as its literal, an extended natural by to_json(), and no dict
        assert not hasattr(value, "to_json_dict")
        want = str(value) if isinstance(value, ac.ElementSet) else value.to_json()
        assert _json(value) == want
    else:
        out = value.to_json_dict()
        assert _json(value) == out and list(out) == list(type(value).__slots__[: len(out)])


def test_scalar_json_forms():
    from addcomb.core import _json

    assert _json(ac.ElementSet.of(3, 0)) == "{0}" and _json(ac.ElementSet.empty(2)) == "{}"
    assert _json(extended(3)) == 3 and _json(ac.INFINITY) == "infinity"
    assert _json((ac.ElementSet.of(3, 0, 2), (ac.INFINITY,))) == ["{0,2}", ["infinity"]]
    assert str(ac.INFINITY) == "infinity" and str(extended(3)) == "3"
    assert ac.ExtendedNat.from_json("infinity") is ac.INFINITY
