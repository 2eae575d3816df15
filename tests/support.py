"""Shared brute-force oracles for the test suite.

Everything here is deliberately written against the definitions with plain
Python sets and loops, independent of the library's bit-mask code paths, so
tests can compare the two implementations.
"""

from __future__ import annotations

import functools
import math

from addcomb import ElementSet, FiniteSemigroup


def iter_nonempty_masks(n: int):
    return range(1, 1 << n)


def mask_to_set(n: int, mask: int) -> ElementSet:
    return ElementSet(n, mask)


def sumset_oracle(A: FiniteSemigroup, xs, ys) -> set:
    return {A.table[x][y] for x in xs for y in ys}


def closure_oracle(A: FiniteSemigroup, seed) -> set:
    out = set(seed)
    while True:
        grown = out | {A.table[a][b] for a in out for b in out}
        if grown == out:
            return out
        out = grown


def level_row(levels, n: int) -> list:
    """The row w[z0][0..n-1] that a level table row describes, checking its
    form: pairs (t, mask), t strictly descending, masks non-empty, disjoint
    and covering [0, n)."""
    ts = [t for t, _ in levels]
    assert ts == sorted(set(ts), reverse=True), ts
    row = [None] * n
    for t, mask in levels:
        assert 0 < mask < 1 << n, (t, mask)
        for z in range(n):
            if mask >> z & 1:
                assert row[z] is None, (t, z)
                row[z] = t
    assert None not in row, row
    return row


def order_oracle(A: FiniteSemigroup, z: int) -> int:
    powers = {z}
    cur = z
    while True:
        cur = A.table[cur][z]
        if cur in powers:
            return len(powers)
        powers.add(cur)


def omega_oracle(A: FiniteSemigroup, zs) -> int | None:
    """None encodes infinity; 0 encodes the empty supremum."""
    best = 0
    for z0 in zs:
        inv = A.inverse(z0)
        if inv is None:
            continue
        rest = [z for z in zs if z != z0]
        if not rest:
            return None  # an empty infimum dominates every finite row
        inner = min(order_oracle(A, A.table[z][inv]) for z in rest)
        best = max(best, inner)
    return best


@functools.lru_cache(maxsize=64)
def _carrier_facts(A: FiniteSemigroup):
    """(cancellative, group, p) by definition, p the least order of a
    non-identity element (an adjoined identity is never a power)."""
    n, t = A.n, A.table
    full = set(range(n))
    cancellative = all(set(row) == full for row in t) and all(
        {t[a][b] for a in range(n)} == full for b in range(n)
    )
    identity = next(
        (e for e in range(n) if all(t[e][z] == z == t[z][e] for z in range(n))), None
    )
    group = identity is not None and all(
        any(t[z][w] == identity == t[w][z] for w in range(n)) for z in range(n)
    )
    p = min((order_oracle(A, z) for z in range(n) if z != identity), default=math.inf)
    return cancellative, group, p


@functools.lru_cache(maxsize=1 << 14)
def _set_facts(A: FiniteSemigroup, zs: tuple):
    """(omega, span commutes, delta, pillai_delta) of zs, by definition;
    the last two read the elements as residues mod n."""
    n, t = A.n, A.table
    w = omega_oracle(A, zs)
    span = closure_oracle(A, zs)
    commutes = all(t[a][b] == t[b][a] for a in span for b in span)
    rows = [[math.gcd(n, (z - z0) % n) for z in zs if z != z0] or [1] for z0 in zs]
    return (
        math.inf if w is None else w,
        commutes,
        min(max(row) for row in rows),
        max(max(row) for row in rows),
    )


def set_fact_columns(A: FiniteSemigroup, masks):
    """_set_facts of the set of each mask in masks, as four lists: omega
    (math.inf for infinity), span commutes, delta and pillai_delta."""
    facts = [_set_facts(A, tuple(z for z in range(A.n) if m >> z & 1)) for m in masks]
    return tuple(map(list, zip(*facts)))


def statement_oracle(A: FiniteSemigroup, statement: str, xs, ys):
    """(lhs, rhs, hypotheses) of one catalogued bound on non-empty xs and
    ys, by definition; hypotheses maps each name to its truth value, in the
    order the reports list them."""
    n, t = A.n, A.table
    lhs = len({t[x][y] for x in xs for y in ys})
    cap = len(xs) + len(ys) - 1
    cancellative, group, p = _carrier_facts(A)
    omega_x, comm_x, delta_x, _ = _set_facts(A, tuple(xs))
    omega_y, comm_y, delta_y, pillai_y = _set_facts(A, tuple(ys))
    if statement == "CD-1813":
        prime = n >= 2 and all(n % d for d in range(2, n))
        return lhs, min(n, cap), {"group": group, "prime_order": prime}
    if statement == "HK":
        return lhs, min(p, cap), {"group": group}
    if statement == "Chowla":
        coprime = all(math.gcd(n, y) == 1 for y in ys if y)
        return lhs, min(n, cap), {"zero_in_y": 0 in ys, "y_coprime_to_m": coprime}
    if statement == "Pillai":
        return lhs, min(n // pillai_y, cap), {}
    if statement == "Cor2.9":
        return lhs, min(n // min(delta_x, delta_y), cap), {}
    hyps = {"cancellative": cancellative}
    if statement == "Thm2.2":
        hyps["span_y_commutative"] = comm_y
        return lhs, min(omega_y, cap), hyps
    if statement == "Cor2.4":
        hyps["span_x_commutative"] = comm_x
        return lhs, min(omega_x, cap), hyps
    if statement == "Cor2.7":
        hyps["span_x_commutative"] = comm_x
        hyps["span_y_commutative"] = comm_y
        return lhs, min(max(omega_x, omega_y), cap), hyps
    if statement == "Kemperman-weak":
        hyps["orders_large_enough"] = p >= cap
        hyps["span_x_or_y_commutative"] = comm_x or comm_y
        return lhs, cap, hyps
    raise ValueError("unknown statement %r" % statement)


def commutative_span_masks(A: FiniteSemigroup) -> list[int]:
    """Masks of non-empty Y whose generated closure is commutative,
    computed with plain sets (independent of the library's span check)."""
    out = []
    for mask in iter_nonempty_masks(A.n):
        seed = [z for z in range(A.n) if mask >> z & 1]
        cl = closure_oracle(A, seed)
        if all(A.table[a][b] == A.table[b][a] for a in cl for b in cl):
            out.append(mask)
    return out


def hall_oracle(rows) -> tuple | None:
    """The first subset of the rows (iterables of elements), in ascending
    bit-pattern order of row indices, whose union as plain sets is smaller
    than the subset, as a tuple of row indices; None if there is none."""
    rows = [set(row) for row in rows]
    for sub in range(1, 1 << len(rows)):
        picked = tuple(i for i in range(len(rows)) if sub >> i & 1)
        if len(set().union(*(rows[i] for i in picked))) < len(picked):
            return picked
    return None


def matching_oracle(rows, n: int) -> list:
    """Augmenting-path matching of rows (bit masks over [0, n)), written
    with plain sets: row i, in order, tries its elements in ascending order
    and takes one that is free, or whose owner's row can move along a path
    of elements not yet tried for row i.  The first row that cannot be
    matched ends the search; it and every later row stay None."""
    owner = {}
    matched = [None] * len(rows)

    def try_row(i, tried):
        for e in sorted(z for z in range(n) if rows[i] >> z & 1):
            if e in tried:
                continue
            tried.add(e)
            if e not in owner or try_row(owner[e], tried):
                owner[e] = i
                matched[i] = e
                return True
        return False

    for i in range(len(rows)):
        if not try_row(i, set()):
            break
    return matched


def associativity_oracle(table):
    """The first (a, b, c, (a+b)+c, a+(b+c)) in scan order, a then b then c,
    whose two sides differ, or None for an associative table."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs, rhs = table[table[a][b]][c], table[a][table[b][c]]
                if lhs != rhs:
                    return (a, b, c, lhs, rhs)
    return None
