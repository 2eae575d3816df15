"""Exhaustive verification sweeps over all subset pairs of a small carrier.

For a carrier of order n <= 16 the engine is vectorized: it evaluates a
block of max(1, 2^16 >> n) X rows against all 2^n Y masks at once.  |X + Y|
is the uint8 bit count of the outer OR of two subset-OR tables, over the low
n // 2 and the high elements of Y; each element's tables are built once, and
a block ORs together those of each X's elements.  Each statement is a row
and a column gate and a row and a column bound u, v, all per-mask features
built once.  rhs = min(max(u[X], v[Y]), |X| + |Y| - 1) is compared in uint8
with the bounds clipped to n + 1, exact since |X + Y| <= n; witnesses carry
the unclipped value.  Carriers above 16 elements require a size cap and
fall back to the scalar verifiers over the capped subset lists.

Determinism contract: the X-mask space is split into fixed-size chunks
(CHUNK masks each, independent of the worker count), chunks are evaluated
in parallel, and partial results are merged in chunk order.  Enumeration
within a chunk is ascending by bit pattern, so the summary - including the
ordering of any violation witnesses - is byte-identical for any --jobs
value.  Wall-clock time is carried on the side and never enters the
machine-readable dictionary.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .constants import delta, pillai_delta
from .core import (
    ElementSet,
    FiniteSemigroup,
    build_semigroup,
    element_order,
    iter_bits,
    p_constant,
)
from .errors import CarrierTooLarge, NotGroup
from .setops import span_is_commutative
from .theorems import (
    _is_prime, is_standard_cyclic, normalize_statement, run_statement, statement_info,
)

CHUNK = 512
VECTOR_LIMIT = 16
_INF = 1 << 30  # exceeds every finite bound on carriers of order <= 64
_MAX_RECORDED = 64
_BLOCK_PAIRS = 1 << 16  # pairs per kernel block; bounds its temporaries


@dataclass(frozen=True)
class Violation:
    x: str
    y: str
    lhs: int
    rhs: int | str


@dataclass(frozen=True)
class TightPair:
    x: str
    y: str
    value: int


@dataclass(frozen=True)
class SweepSummary:
    statement: str
    semigroup: str
    carrier_order: int
    max_size: int | None
    pairs: int
    applicable: int
    satisfied: int
    violation_count: int
    violations: tuple[Violation, ...]
    tight: int
    first_tight: TightPair | None
    elapsed_s: float | None = field(compare=False, default=None)

    def to_json_dict(self) -> dict:
        """Machine-readable form; deliberately excludes wall-clock time so
        repeated runs serialize identically."""
        return {
            "statement": self.statement,
            "semigroup": self.semigroup,
            "carrier_order": self.carrier_order,
            "max_size": self.max_size,
            "pairs": self.pairs,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "violation_count": self.violation_count,
            "violations": [
                {"x": v.x, "y": v.y, "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
            "tight": self.tight,
            "first_tight": (
                None
                if self.first_tight is None
                else {
                    "x": self.first_tight.x,
                    "y": self.first_tight.y,
                    "value": self.first_tight.value,
                }
            ),
        }


class _Partial:
    """Mergeable tallies for one chunk of X masks."""

    __slots__ = ("pairs", "applicable", "satisfied", "violation_count",
                 "violations", "tight", "first_tight")

    def __init__(self):
        self.pairs = 0
        self.applicable = 0
        self.satisfied = 0
        self.violation_count = 0
        self.violations = []
        self.tight = 0
        self.first_tight = None


class _VectorContext:
    """Per-worker precomputed tables for a vectorized sweep (n <= 16)."""

    def __init__(self, A: FiniteSemigroup, statement: str, max_size: int | None):
        self.A = A
        n = A.n
        self.n = n
        size = 1 << n
        self.size = size
        self.block = max(1, _BLOCK_PAIRS >> n)

        pc = np.bitwise_count(np.arange(size, dtype=np.uint32))
        self.pc = pc
        ok = pc >= 1
        if max_size is not None:
            ok &= pc <= max_size
        self.n_considered = int(np.count_nonzero(ok))
        self.x_masks = [int(m) for m in np.nonzero(ok)[0]]
        # |Y| - 1 on the sizes swept; other columns get a value that puts
        # |X| + |Y| - 1 above every cap_limit
        self.ycap = np.where(ok, pc - 1, 2 * n).astype(np.uint8)

        # M[x, j] = bit mask of the single element x + j.  OR distributes
        # over the elements of X, so each element's subset-OR tables over
        # the low and the high columns are built once here; a block ORs
        # together the tables of each X's elements.
        M = np.array(
            [[1 << A.table[x][j] for j in range(n)] for x in range(n)],
            dtype=np.uint32,
        )
        self.lo = _subset_or(M[:, : n // 2])
        self.hi = _subset_or(M[:, n // 2 :])

        p = p_constant(A)
        self.p_const = p.value if p.is_finite else _INF
        gx, gy, self.u, self.v = (
            np.broadcast_to(f, size) for f in self._features(statement)
        )
        # Kemperman-weak needs either gate, and |X| + |Y| - 1 <= p
        either = statement == "Kemperman-weak"
        self.cap_limit = min(self.p_const, 2 * n) if either else None
        if not either:
            gy = gy & ok
        # pairs outside the hypotheses get rhs 255; every bound below is
        # clipped to n + 1, which compares like any larger bound since
        # lhs <= n
        self.skip_x = np.where(gx, 0, 255).astype(np.uint8)
        self.skip_y = np.where(gy, 0, 255).astype(np.uint8)
        self.skip = np.bitwise_and if either else np.bitwise_or
        self.u8 = np.minimum(self.u, n + 1).astype(np.uint8)
        self.v8 = np.minimum(self.v, n + 1).astype(np.uint8)

    def _features(self, s: str):
        """Statement s as a row gate, a column gate, a row bound u and a
        column bound v, each an array over all masks or a scalar, so that
        rhs(X, Y) = min(max(u[X], v[Y]), |X| + |Y| - 1)."""
        n = self.n
        canc = self.A.is_cancellative
        if s == "CD-1813":
            g = self.A.is_group and _is_prime(n)
            return g, g, n, n
        if s == "HK":
            return True, True, self.p_const, self.p_const
        if s == "Chowla":
            # Y holds 0 and otherwise only units of Z_n
            other = sum(1 << y for y in range(1, n) if math.gcd(n, y) != 1)
            masks = np.arange(self.size)
            return True, (masks & 1 == 1) & (masks & other == 0), n, n
        if s == "Pillai":
            return True, True, 0, n // self._delta_table(pillai_delta)
        if s == "Cor2.9":
            nd = n // self._delta_table(delta)
            return True, True, nd, nd
        sc = self._span_comm_table() & canc
        if s == "Kemperman-weak":
            return sc, sc, _INF, _INF
        omega = self._omega_table()
        if s == "Thm2.2":
            return canc, sc, 0, omega
        if s == "Cor2.4":
            return sc, True, omega, 0
        if s == "Cor2.7":
            return sc, sc, omega, omega
        raise ValueError("unknown statement %r" % s)  # pragma: no cover

    def _span_comm_table(self) -> np.ndarray:
        size = self.size
        out = np.ones(size, dtype=bool)
        if self.A.is_commutative:
            return out
        for m in range(1, size):
            out[m] = span_is_commutative(self.A, ElementSet(self.n, m))
        return out

    def _omega_table(self) -> np.ndarray:
        A = self.A
        n = self.n
        units_mask = A.units.mask
        ordm = [[0] * n for _ in range(n)]
        for z0 in iter_bits(units_mask):
            inv = A.inverse(z0)
            for z in range(n):
                ordm[z][z0] = element_order(A, A.table[z][inv]).value
        out = np.zeros(self.size, dtype=np.int64)
        for m in range(1, self.size):
            best = 0
            um = m & units_mask
            for z0 in iter_bits(um):
                rest = m ^ (1 << z0)
                if rest == 0:
                    best = _INF
                    break
                inner = min(ordm[z][z0] for z in iter_bits(rest))
                if inner > best:
                    best = inner
            out[m] = best
        return out

    def _delta_table(self, fn) -> np.ndarray:
        out = np.ones(self.size, dtype=np.int64)
        for m in range(1, self.size):
            out[m] = fn(self.n, ElementSet(self.n, m))
        return out

    def _lhs(self, xs: np.ndarray) -> np.ndarray:
        """|X + Y| as uint8, shape (len(xs), 2^n): row i is X = xs[i]."""
        bits = ((xs[:, None] >> np.arange(self.n)) & 1 != 0)[:, :, None]
        lo = np.bitwise_or.reduce(np.where(bits, self.lo, 0), axis=1)
        hi = np.bitwise_or.reduce(np.where(bits, self.hi, 0), axis=1)
        f = hi[:, :, None] | lo[:, None, :]
        return np.bitwise_count(f).reshape(len(xs), -1)

    def eval_chunk(self, x_list) -> _Partial:
        part = _Partial()
        x_arr = np.asarray(x_list, dtype=np.int64)
        for i in range(0, len(x_arr), self.block):
            self._eval_block(x_arr[i : i + self.block], part)
        return part

    def _eval_block(self, xs: np.ndarray, part: _Partial):
        n, size, rows = self.n, self.size, len(xs)
        lhs = self._lhs(xs)
        cap = self.pc[xs][:, None] + self.ycap
        # np.maximum is slow on a column broadcast, so spell u[X] out
        rhs = np.repeat(self.u8[xs], size).reshape(rows, size)
        np.maximum(rhs, self.v8, out=rhs)
        np.minimum(rhs, cap, out=rhs)
        rhs |= self.skip(self.skip_x[xs][:, None], self.skip_y)
        if self.cap_limit is not None:
            rhs[cap > self.cap_limit] = 255
        outside = int(np.count_nonzero(rhs == 255))
        below = lhs < rhs  # also true on every pair outside the hypotheses
        n_viol = int(np.count_nonzero(below)) - outside
        n_tight = int(np.count_nonzero(lhs == rhs))
        n_app = rows * size - outside
        part.pairs += rows * self.n_considered
        part.applicable += n_app
        part.satisfied += n_app - n_viol
        part.violation_count += n_viol
        part.tight += n_tight
        if n_viol and len(part.violations) < _MAX_RECORDED:
            below &= rhs != 255
            # row-major order: X ascending, then Y ascending
            for i, y in zip(*np.nonzero(below)):
                if len(part.violations) >= _MAX_RECORDED:
                    break
                x, y = int(xs[i]), int(y)
                bound = max(int(self.u[x]), int(self.v[y]))
                part.violations.append(
                    Violation(
                        x=str(ElementSet(n, x)),
                        y=str(ElementSet(n, y)),
                        lhs=int(lhs[i, y]),
                        rhs=min(bound, int(self.pc[x]) + int(self.pc[y]) - 1),
                    )
                )
        if n_tight and part.first_tight is None:
            i, y = divmod(int(np.argmax(lhs == rhs)), size)
            part.first_tight = TightPair(
                x=str(ElementSet(n, int(xs[i]))),
                y=str(ElementSet(n, y)),
                value=int(lhs[i, y]),
            )


def _subset_or(cols: np.ndarray) -> np.ndarray:
    """t[:, s] = OR of cols[:, j] over the bits j of s, for every s."""
    k = cols.shape[1]
    t = np.zeros((len(cols), 1 << k), dtype=cols.dtype)
    for j in range(k):
        np.bitwise_or(t[:, : 1 << j], cols[:, j : j + 1], out=t[:, 1 << j : 2 << j])
    return t


class _ScalarContext:
    """Fallback for carriers above the vectorization limit (requires a cap)."""

    def __init__(self, A: FiniteSemigroup, statement: str, max_size: int):
        self.A = A
        self.statement = statement
        self.x_masks = _capped_masks(A.n, max_size)
        self.y_masks = self.x_masks
        self.n_considered = len(self.y_masks)

    def eval_chunk(self, x_list) -> _Partial:
        part = _Partial()
        A = self.A
        n = A.n
        for xmask in x_list:
            X = ElementSet(n, xmask)
            for ymask in self.y_masks:
                Y = ElementSet(n, ymask)
                rep = run_statement(A, self.statement, X, Y)
                part.pairs += 1
                if not rep.applicable:
                    continue
                part.applicable += 1
                if rep.satisfied:
                    part.satisfied += 1
                else:
                    part.violation_count += 1
                    if len(part.violations) < _MAX_RECORDED:
                        part.violations.append(
                            Violation(
                                x=str(X),
                                y=str(Y),
                                lhs=rep.lhs,
                                rhs=rep.rhs.to_json(),
                            )
                        )
                if rep.rhs == rep.lhs:
                    part.tight += 1
                    if part.first_tight is None:
                        part.first_tight = TightPair(
                            x=str(X), y=str(Y), value=rep.lhs
                        )
        return part


def _capped_masks(n: int, max_size: int) -> list[int]:
    masks = []
    for k in range(1, min(max_size, n) + 1):
        for bits in combinations(range(n), k):
            m = 0
            for b in bits:
                m |= 1 << b
            masks.append(m)
    masks.sort()
    return masks


def _build_context(payload):
    table, label, statement, max_size = payload
    A = build_semigroup([list(row) for row in table], label=label)
    if A.n <= VECTOR_LIMIT:
        return _VectorContext(A, statement, max_size)
    return _ScalarContext(A, statement, max_size)


_WORKER_CTX = None


def _worker_init(payload):
    global _WORKER_CTX
    _WORKER_CTX = _build_context(payload)


def _worker_run(x_list):
    return _WORKER_CTX.eval_chunk(x_list)


def _merge(parts, statement, label, n, max_size, elapsed) -> SweepSummary:
    total = _Partial()
    for part in parts:
        total.pairs += part.pairs
        total.applicable += part.applicable
        total.satisfied += part.satisfied
        total.violation_count += part.violation_count
        for v in part.violations:
            if len(total.violations) < _MAX_RECORDED:
                total.violations.append(v)
        total.tight += part.tight
        if total.first_tight is None:
            total.first_tight = part.first_tight
    return SweepSummary(
        statement=statement,
        semigroup=label,
        carrier_order=n,
        max_size=max_size,
        pairs=total.pairs,
        applicable=total.applicable,
        satisfied=total.satisfied,
        violation_count=total.violation_count,
        violations=tuple(total.violations),
        tight=total.tight,
        first_tight=total.first_tight,
        elapsed_s=elapsed,
    )


def sweep(
    A: FiniteSemigroup,
    statement: str,
    max_size: int | None = None,
    jobs: int = 1,
) -> SweepSummary:
    """Run one statement over every pair of non-empty subsets of A.

    max_size caps |X| and |Y|; it is mandatory for carriers of order > 16.
    jobs > 1 distributes fixed-size chunks of the X space over worker
    processes; the summary is identical (byte-identical once serialized)
    for every jobs value.
    """
    started = time.monotonic()
    statement = normalize_statement(statement)
    info = statement_info(statement)
    if info.needs_cyclic and not is_standard_cyclic(A):
        raise NotGroup(
            "statement %s needs the standard integers-mod-m table" % statement
        )
    if info.needs_group and not A.is_group:
        raise NotGroup("statement %s is stated for groups" % statement)
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    if A.n > VECTOR_LIMIT and max_size is None:
        raise CarrierTooLarge(
            "full sweeps need carrier order <= %d (order %d); pass a size cap"
            % (VECTOR_LIMIT, A.n)
        )

    label = A.label or ("order-%d" % A.n)
    payload = (tuple(tuple(row) for row in A.table), label, statement, max_size)
    ctx = _build_context(payload)
    chunks = [
        ctx.x_masks[i : i + CHUNK] for i in range(0, len(ctx.x_masks), CHUNK)
    ]

    if jobs <= 1 or len(chunks) <= 1:
        parts = [ctx.eval_chunk(chunk) for chunk in chunks]
    else:
        mp = multiprocessing.get_context("fork")
        with mp.Pool(
            processes=min(jobs, len(chunks)),
            initializer=_worker_init,
            initargs=(payload,),
        ) as pool:
            parts = pool.map(_worker_run, chunks, chunksize=1)

    elapsed = time.monotonic() - started
    return _merge(parts, statement, label, A.n, max_size, elapsed)
