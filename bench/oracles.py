"""Brute-force oracles for the benchmark, independent of the library.

Everything here works from the definitions with plain Python sets, ints and
loops.  Operation tables are built from each family's own description
(residues, symmetries of a polygon, quaternion units, a chain, left zeros),
not from the library's constructors, so a benchmark run can compare the
library's carriers and results with these.  Infinity is ``math.inf``.
"""

from __future__ import annotations

import math
from itertools import combinations

INF = math.inf


def _dihedral_table(k: int):
    # s^f r^i has index f*k + i; s^a r^i * s^b r^j = s^(a+b) r^((-1)^b i + j)
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        fa, ia = divmod(a, k)
        for b in range(n):
            fb, ib = divmod(b, k)
            i = (-ia if fb else ia) + ib
            table[a][b] = ((fa + fb) % 2) * k + i % k
    return table


def _quaternion_table():
    # index 2*basis + (1 if negative), basis 0..3 for 1, i, j, k; multiply
    # the 4-vectors with the Hamilton product
    def vec(idx):
        v = [0, 0, 0, 0]
        v[idx >> 1] = -1 if idx & 1 else 1
        return v

    def ham(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ]

    def index(v):
        basis = next(i for i, c in enumerate(v) if c)
        return 2 * basis + (1 if v[basis] < 0 else 0)

    return [[index(ham(vec(a), vec(b))) for b in range(8)] for a in range(8)]


def table_for(spec: str):
    """Operation table for one of the spec families the workloads use."""
    if spec == "quaternion8":
        return _quaternion_table()
    family, _, arg = spec.partition(":")
    n = int(arg)
    if family == "cyclic":
        return [[(a + b) % n for b in range(n)] for a in range(n)]
    if family == "dihedral":
        return _dihedral_table(n)
    if family == "maxchain":
        return [[max(a, b) for b in range(n)] for a in range(n)]
    if family == "leftzero":
        return [[a] * n for a in range(n)]
    raise ValueError("no oracle table for spec %r" % spec)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class Carrier:
    """One carrier with the structural facts the oracles need."""

    def __init__(self, spec: str):
        self.spec = spec
        self.table = tuple(tuple(row) for row in table_for(spec))
        t = self.table
        n = self.n = len(t)
        self.cyclic_residues = spec.startswith("cyclic:")
        self.identity = next(
            (e for e in range(n) if all(t[e][z] == z == t[z][e] for z in range(n))),
            None,
        )
        self.inverse = {}
        if self.identity is not None:
            for z in range(n):
                for w in range(n):
                    if t[z][w] == self.identity == t[w][z]:
                        self.inverse[z] = w
                        break
        full = set(range(n))
        self.cancellative = all(set(row) == full for row in t) and all(
            {t[a][b] for a in range(n)} == full for b in range(n)
        )
        self.group = self.identity is not None and len(self.inverse) == n
        self.orders = [self._order(z) for z in range(n)]
        # the least order of a non-identity element, counted in the carrier
        # with an identity adjoined when it has none (powers never reach it)
        others = [self.orders[z] for z in range(n) if z != self.identity]
        self.p_constant = min(others) if others else INF

    def _order(self, z: int) -> int:
        powers = [z]
        while True:
            nxt = self.table[powers[-1]][z]
            if nxt in powers:
                return len(powers)
            powers.append(nxt)

    def sumset(self, xs, ys) -> frozenset:
        t = self.table
        return frozenset(t[x][y] for x in xs for y in ys)

    def n_fold(self, zs, k: int) -> frozenset:
        acc = frozenset(zs)
        for _ in range(k - 1):
            acc = self.sumset(acc, zs)
        return acc

    def closure(self, zs) -> frozenset:
        out = set(zs)
        while True:
            grown = out | {self.table[a][b] for a in out for b in out}
            if grown == out:
                return frozenset(out)
            out = grown

    def span_commutative(self, zs) -> bool:
        span = self.closure(zs)
        t = self.table
        return all(t[a][b] == t[b][a] for a in span for b in span)

    def omega(self, zs):
        """sup over units z0 in Z of min over z in Z-{z0} of ord(z - z0);
        0 for no unit, inf when some unit is alone in Z."""
        return max((inner for _, inner in self.omega_rows(zs)), default=0)

    def omega_rows(self, zs):
        """(z0, inner minimum) for each unit z0 of Z, ascending."""
        rows = []
        for z0 in sorted(zs):
            if z0 not in self.inverse:
                continue
            rest = [z for z in zs if z != z0]
            inv = self.inverse[z0]
            rows.append(
                (z0, min((self.orders[self.table[z][inv]] for z in rest), default=INF))
            )
        return rows


def delta(m: int, zs) -> int:
    """min over z0 of max over z != z0 of gcd(m, z - z0); 1 for a singleton."""
    zs = list(zs)
    if len(zs) == 1:
        return 1
    return min(max(math.gcd(m, (z - z0) % m) for z in zs if z != z0) for z0 in zs)


def pillai_delta(m: int, zs) -> int:
    zs = list(zs)
    if len(zs) == 1:
        return 1
    return max(math.gcd(m, (z - z0) % m) for z0 in zs for z in zs if z != z0)


def statement_oracle(C: Carrier, statement: str, xs, ys):
    """(lhs, rhs, hypotheses) of one catalogued bound, by definition."""
    lhs = len(C.sumset(xs, ys))
    cap = len(xs) + len(ys) - 1
    m = C.n
    if statement == "CD-1813":
        return lhs, min(m, cap), {"group": C.group, "prime_order": is_prime(m)}
    if statement == "HK":
        return lhs, min(C.p_constant, cap), {"group": True}
    if statement == "Chowla":
        coprime = all(math.gcd(m, y) == 1 for y in ys if y)
        return lhs, min(m, cap), {"zero_in_y": 0 in ys, "y_coprime_to_m": coprime}
    if statement == "Pillai":
        return lhs, min(m // pillai_delta(m, ys), cap), {}
    if statement == "Cor2.9":
        return lhs, min(m // min(delta(m, xs), delta(m, ys)), cap), {}
    canc = {"cancellative": C.cancellative}
    if statement == "Thm2.2":
        canc["span_y_commutative"] = C.span_commutative(ys)
        return lhs, min(C.omega(ys), cap), canc
    if statement == "Cor2.4":
        canc["span_x_commutative"] = C.span_commutative(xs)
        return lhs, min(C.omega(xs), cap), canc
    if statement == "Cor2.7":
        canc["span_x_commutative"] = C.span_commutative(xs)
        canc["span_y_commutative"] = C.span_commutative(ys)
        return lhs, min(max(C.omega(xs), C.omega(ys)), cap), canc
    if statement == "Kemperman-weak":
        canc["orders_large_enough"] = C.p_constant >= cap
        either = C.span_commutative(xs) or C.span_commutative(ys)
        canc["span_x_or_y_commutative"] = either
        return lhs, cap, canc
    raise ValueError("unknown statement %r" % statement)


def localize_failures(C: Carrier, xs, ys) -> tuple:
    """Names of the localization hypotheses that fail, in the order the
    localization proposition lists them."""
    failed = []
    if not C.cancellative:
        failed.append("cancellative")
    if not C.span_commutative(ys):
        failed.append("span_y_commutative")
    if not C.omega(ys) > len(C.sumset(xs, ys)):
        failed.append("sumset_smaller_than_omega")
    return tuple(failed)


def check_localization(C: Carrier, xs, ys, Z, reps) -> bool:
    """Z is the default (l-1)-subset x_1 + {y_1..y_(l-1)}; the
    representatives are distinct, avoid Z, each lies in its own row
    x_i + Y, and Z with them has k + l - 1 elements."""
    xs, ys = sorted(xs), sorted(ys)
    t = C.table
    if set(Z) != {t[xs[0]][y] for y in ys[:-1]}:
        return False
    if len(reps) != len(xs) or len(set(reps)) != len(reps):
        return False
    for x, r in zip(xs, reps):
        if r in Z or r not in {t[x][y] for y in ys}:
            return False
    return len(set(Z) | set(reps)) == len(xs) + len(ys) - 1


def hall_holds(rows) -> bool:
    """Hall's condition by enumerating every non-empty family of rows."""
    for size in range(1, len(rows) + 1):
        for pick in combinations(rows, size):
            if len(set().union(*pick)) < size:
                return False
    return True


def hall_witness_ok(rows, witness) -> bool:
    """A reported violation: distinct row indices whose union is too small."""
    idx = list(witness)
    if not idx or len(set(idx)) != len(idx) or not all(0 <= i < len(rows) for i in idx):
        return False
    return len(set().union(*(rows[i] for i in idx))) < len(idx)


def transform_oracle(C: Carrier, xs, ys, m: int):
    """The candidates (mX + 2Y) - (X + Y)."""
    head = C.sumset(C.sumset(C.n_fold(xs, m), ys), ys)
    return head - C.sumset(xs, ys)


def transform_split(C: Carrier, xs, ys, m: int, z: int):
    """(x_z, Y~, Y') for candidate z with the smallest witness x_z:
    Y~ = {y in Y : z in x_z + X + Y + y}."""
    t = C.table
    base_xs = [C.identity] if m == 1 else sorted(C.n_fold(xs, m - 1))
    for x in base_xs:
        base = C.sumset(C.sumset([x], xs), ys)
        tilde = frozenset(y for y in ys if any(t[w][y] == z for w in base))
        if tilde:
            return x, tilde, frozenset(ys) - tilde
    return None


def audit_oracle(C: Carrier, xs, ys, y_prime):
    """Which audit items apply, and the two sides of the counting item."""
    span_comm = C.span_commutative(ys)
    applicable = (
        True,
        C.cancellative,
        span_comm,
        C.cancellative,
        C.cancellative and span_comm,
    )
    v_lhs = len(C.sumset(xs, ys)) + len(y_prime)
    v_rhs = len(C.sumset(xs, y_prime)) + len(ys)
    return applicable, v_lhs, v_rhs
