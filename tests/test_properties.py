"""Property-based differential tests on random carriers.

A carrier is the closure of a few random self-maps of {0..k-1}, k <= 5,
under composition.  Such tables are always associative, and often
non-commutative, non-cancellative and without an identity, so they reach
what the five built-in families barely cover (several preimages of one
element under + y, no identity, idempotents).  Each library table and
function is compared with the brute-force oracles of `support.py` or with
the definition written out with plain sets.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import addcomb as ac
import addcomb.exhaustive as sweep_mod
from addcomb.catalog import _omega_value
from addcomb.core import INF
from addcomb.theorems import is_standard_cyclic, statement_info
from support import (
    closure_oracle,
    level_row,
    omega_oracle,
    order_oracle,
    set_fact_columns,
    statement_oracle,
    sumset_oracle,
)
from test_sweep import feature_columns

MAX_ORDER = 24  # closures larger than this drop their last generators

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _compose(f, g):
    """f, then g."""
    return tuple(g[v] for v in f)


def _closure(gens):
    elements, index = [], {}
    frontier = list(gens)
    while frontier:
        f = frontier.pop(0)
        if f in index:
            continue
        index[f] = len(elements)
        elements.append(f)
        frontier += [_compose(f, g) for g in gens] + [_compose(g, f) for g in gens]
        if len(elements) > MAX_ORDER:
            return None
    return elements


@st.composite
def carriers(draw):
    # everything from one seeded generator: hypothesis's own draws favour
    # small values, which would collapse most closures to a few elements
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = rng.randint(3, 5)
    gens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            gens.append(tuple(rng.sample(range(k), k)))  # a permutation
        else:
            gens.append(tuple(rng.randrange(k) for _ in range(k)))
    # one map generates a small cyclic semigroup, so some prefix fits
    while True:
        elements = _closure(gens)
        if elements is not None:
            break
        gens = gens[:-1]
    index = {f: i for i, f in enumerate(elements)}
    table = [[index[_compose(f, g)] for g in elements] for f in elements]
    A = ac.build_semigroup(table, label="maps")
    return ac.unitization(A) if draw(st.booleans()) else A


@st.composite
def carrier_and_sets(draw, max_size=None):
    A = draw(carriers())
    n = A.n
    subset = st.sets(st.integers(0, n - 1), min_size=1, max_size=max_size or n)
    return A, sorted(draw(subset)), sorted(draw(subset))


def _es(A, elements):
    return ac.ElementSet.from_elements(A.n, elements)


def _cancellative(A):
    full = set(range(A.n))
    rows = all(set(row) == full for row in A.table)
    return rows and all({A.table[a][b] for a in range(A.n)} == full for b in range(A.n))


def _span_commutes(A, ys):
    cl = closure_oracle(A, ys) if ys else set()
    return all(A.table[a][b] == A.table[b][a] for a in cl for b in cl)


def _nfold(A, xs, k):
    acc = set(xs)
    for _ in range(k - 1):
        acc = sumset_oracle(A, acc, xs)
    return acc


@SETTINGS
@given(carriers())
def test_carrier_tables_match_definitions(A):
    n, t = A.n, A.table
    assert A._orders == tuple(order_oracle(A, z) for z in range(n))
    for y in range(n):
        for z in range(n):
            want = {w for w in range(n) if t[w][y] == z}
            assert set(ac.ElementSet(n, A._preimage[y][z])) == want
    for z0 in range(n):
        # every entry of the level table against the definition
        inv = A.inverse(z0)
        if inv is None:
            assert A._omega_w[z0] == ((0, (1 << n) - 1),)
        else:
            want = [order_oracle(A, t[z][inv]) for z in range(n)]
            want[z0] = INF
            assert level_row(A._omega_w[z0], n) == want
        assert A._commute_w[z0] == sum(1 << z for z in range(n) if t[z0][z] == t[z][z0])
    # p over the unitization, by its definition
    U = ac.unitization(A)
    orders = [order_oracle(U, z) for z in range(U.n) if z != U.identity]
    want_p = min(orders) if orders else None
    assert A._p == (INF if want_p is None else want_p)
    assert ac.p_constant(A) == (ac.INFINITY if want_p is None else want_p)
    cyclic = all(t[a][b] == (a + b) % n for a in range(n) for b in range(n))
    assert is_standard_cyclic(A) == cyclic


@SETTINGS
@given(carriers(), st.integers(1, 2))
def test_sweep_feature_columns_match_oracles(A, cap):
    # the constants definitions on a capped sweep context's reduction,
    # against the plain-set definitions
    ctx = sweep_mod._SweepContext(A, "CD-1813", cap)
    # the columns are exactly the non-empty masks of at most cap elements
    assert ctx.cols == [m for m in range(1, 1 << A.n) if m.bit_count() <= cap]
    omega, commutes, delta, pillai = set_fact_columns(A, ctx.cols)
    want = [[INF if w == math.inf else w for w in omega], commutes, delta, pillai]
    assert feature_columns(ctx) == want


@SETTINGS
@given(carrier_and_sets())
def test_constants_and_setops_match_oracles(case):
    A, xs, ys = case
    X, Y = _es(A, xs), _es(A, ys)
    assert set(ac.sumset(A, X, Y)) == sumset_oracle(A, xs, ys)
    assert ac.span_is_commutative(A, Y) == _span_commutes(A, ys)
    for zs in (xs, ys):
        want = omega_oracle(A, zs)
        assert _omega_value(A, _es(A, zs).mask) == (INF if want is None else want)
        overall = ac.omega(A, _es(A, zs)).overall
        assert overall == (ac.INFINITY if want is None else want)
    wx, wy = omega_oracle(A, xs), omega_oracle(A, ys)
    pair = None if wx is None or wy is None else max(wx, wy)
    cap = len(xs) + len(ys) - 1
    assert ac.cd_constant(A, X, Y) == (cap if pair is None else min(pair, cap))
    diff = {z for z in range(A.n) if any(A.table[z][y] in xs for y in ys)}
    assert set(ac.right_difference(A, X, Y)) == diff


@SETTINGS
@given(carrier_and_sets())
def test_run_statement_matches_statement_oracle(case):
    A, xs, ys = case
    X, Y = _es(A, xs), _es(A, ys)
    for s in ac.STATEMENTS:
        info = statement_info(s)
        if (info.needs_cyclic and not is_standard_cyclic(A)) or (
            info.needs_group and not A.is_group
        ):
            with pytest.raises(ac.NotGroup):
                ac.run_statement(A, s, X, Y)
            continue
        rep = ac.run_statement(A, s, X, Y)
        lhs, rhs, hyps = statement_oracle(A, s, xs, ys)
        assert (rep.lhs, rep.rhs, rep.hypotheses) == (lhs, rhs, tuple(hyps.items())), s


@SETTINGS
@given(carrier_and_sets(max_size=3))
def test_localize_matches_its_hypotheses(case):
    A, xs, ys = case
    X, Y = _es(A, xs), _es(A, ys)
    total = sumset_oracle(A, xs, ys)
    w = omega_oracle(A, ys)
    failed = []
    if not _cancellative(A):
        failed.append("cancellative")
    if not _span_commutes(A, ys):
        failed.append("span_y_commutative")
    if w is not None and w <= len(total):
        failed.append("sumset_smaller_than_omega")
    if failed:
        with pytest.raises(ac.PreconditionFailed) as info:
            ac.localize(A, X, Y)
        assert list(info.value.failed) == failed
        return
    res = ac.localize(A, X, Y)
    Z = set(res.Z)
    assert Z <= total and len(Z) == len(ys) - 1
    reps = res.representatives
    assert len(set(reps)) == len(xs) and not Z & set(reps)
    for x, r in zip(xs, reps):
        assert r in sumset_oracle(A, [x], ys)


@SETTINGS
@given(carrier_and_sets(max_size=3), st.sampled_from((1, 2)))
def test_transform_and_audit_match_definitions(case, m):
    A, xs, ys = case
    A = ac.unitization(A)
    X, Y = _es(A, xs), _es(A, ys)
    xy = sumset_oracle(A, xs, ys)
    cands = sumset_oracle(A, sumset_oracle(A, _nfold(A, xs, m), ys), ys) - xy
    assert set(ac.transform_candidates(A, X, Y, m)) == cands
    for z in sorted(cands):
        r = ac.apply_transform(A, X, Y, m, z)
        shifts = [A.identity] if m == 1 else sorted(_nfold(A, xs, m - 1))
        for x_z in shifts:
            base = sumset_oracle(A, [x_z], xy)
            tilde = {y for y in ys if z in sumset_oracle(A, base, [y])}
            if tilde:
                break
        assert (r.x_z, r.y_z, set(r.y_tilde)) == (x_z, min(tilde), tilde)
        prime = set(ys) - tilde
        assert set(r.y_prime) == prime
        if not prime:
            with pytest.raises(ac.EmptyTransform):
                ac.audit_transform(A, X, Y, r)
            continue
        canc, comm = _cancellative(A), _span_commutes(A, ys)
        shifted = sumset_oracle(A, [x_z], xs)
        whole = sumset_oracle(A, shifted, ys)
        kept = sumset_oracle(A, shifted, prime)
        reached = {w for w in range(A.n) for y in tilde if A.table[w][y] == z}
        v_lhs = len(xy) + len(prime)
        v_rhs = len(sumset_oracle(A, xs, prime)) + len(ys)
        audit = ac.audit_transform(A, X, Y, r)
        assert audit == ac.TransformAudit(
            item_i=True,
            item_ii=(kept | reached) <= whole if canc else None,
            item_iii=not kept & reached if comm else None,
            item_iv=len(reached) >= len(tilde) if canc else None,
            item_v=v_lhs >= v_rhs if canc and comm else None,
            v_lhs=v_lhs,
            v_rhs=v_rhs,
        )
