"""Exhaustive verification sweeps over all subset pairs of a small carrier.

One vectorized engine runs every sweep.  It evaluates a block of
max(1, 2^16 // columns) X rows against all Y columns at once.  A statement
is its theorems catalog entry read on arrays built once per column: a row
and a column gate and a row and a column bound u, v.  The right side
min(max(u[X], v[Y]), |X| + |Y| - 1) is compared in uint8 with the bounds
clipped to n + 1, exact since |X + Y| <= n; witnesses carry the unclipped
value.

Each column is also held as idx, a row of its element indices padded with
its first element, which the features and both |X + Y| paths read.  The
features are the catalog's tests and bounds, evaluated with the context's
_reduce in place of core's: each set constant (omega, delta, pillai_delta,
span commutativity) reduces the same carrier matrix with the same min and
max as on a mask, in numpy over idx.

|X + Y| takes one of two paths, chosen from the carrier order n and the
size cap alone:

- split tables, for every uncapped sweep (n <= 16) and for a capped sweep
  on n <= 16 whose swept masks times the cap reach 2^n.  The columns are
  all 2^n masks, and out-of-cap ones are gated out.  |X + Y| is the uint8
  bit count of the outer OR of two subset-OR tables, over the low n // 2
  and the high elements of Y; each element's tables are built once, and a
  block ORs together those of each X's elements.
- index matrices, for every other capped sweep, carriers of up to 64
  elements included.  The columns are the swept masks.  For a block of X,
  r[., y] = OR over x in X of the mask of x + y, and |X + Y| is the bit
  count of the OR of r over the elements of Y in idx, in uint64.

Rows.  An X row whose gate is closed holds no applicable pair, so it is
not evaluated (under either gate, every row of at most cap_limit elements
is).  In a group, a left translate g + X has the same |X| and the same
|X + Y| as X.  When the row gate and u are also equal on every
left-translation orbit, which is checked on the built arrays g by g, only
the least mask of each orbit is evaluated, and its counts are weighted by
the orbit size.  first_tight does not change, since the first X with a
tight pair is the least of its orbit; a reduced sweep that finds a
violation is run again unreduced, so that the witness list is exact.

This module is the package's lazy export of sweep and its value types, so
it loads, and with it dataclasses, on the first sweep; it is not named
sweep, so that no import order can set the package attribute sweep to it.
numpy is imported by _load_numpy, which binds the module global np when the
first _SweepContext is built; forked workers inherit the binding.  Likewise
multiprocessing is bound by _evaluate when it makes the first pool, unless
the global is already set, so a jobs=1 sweep never loads it; theorems is
imported by sweep and by the context's gates and bounds, where they use it.

Determinism contract: the evaluated X rows are split into fixed-size
chunks (CHUNK rows each, independent of the worker count), chunks are
evaluated in parallel, and partial results are merged in chunk order.
Enumeration within a chunk is ascending by bit pattern, so the summary -
including the ordering of any violation witnesses - is byte-identical for
any --jobs value.  Wall-clock time is carried on the side and never enters
the machine-readable dictionary.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from operator import and_

from .core import INF, ElementSet, FiniteSemigroup
from .errors import CarrierTooLarge

CHUNK = 512
VECTOR_LIMIT = 16
_MAX_RECORDED = 64
_BLOCK_PAIRS = 1 << 16  # pairs per kernel block; bounds its temporaries

np = None  # numpy, once _load_numpy has run
multiprocessing = None  # bound by _evaluate when it makes the first pool


def _load_numpy() -> None:
    global np
    import numpy as np


@dataclass(frozen=True)
class Violation:
    x: str
    y: str
    lhs: int
    rhs: int


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


@dataclass
class _Partial:
    """Mergeable tallies for one chunk of X rows."""

    applicable: int = 0
    satisfied: int = 0
    violation_count: int = 0
    violations: list[Violation] = field(default_factory=list)
    tight: int = 0
    first_tight: TightPair | None = None


class _SweepContext:
    """Precomputed tables for one sweep, shared with the worker processes.

    The swept masks are the columns, in ascending order; on the split-table
    path the columns are all 2^n masks instead, so that column c is mask c
    and out-of-cap columns are gated out.  X rows are column positions:
    rows lists those a sweep evaluates, and weight, unless it is None,
    holds the orbit size at the least row of each orbit and 0 elsewhere."""

    def __init__(self, A: FiniteSemigroup, statement: str, max_size: int | None):
        _load_numpy()
        self.A = A
        n = A.n
        self.n = n
        width = n if max_size is None else min(max_size, n)
        self.n_considered = sum(math.comb(n, k) for k in range(1, width + 1))
        # per row, the split tables cost 2^n columns, the index matrices
        # n_considered columns times width gathers
        self.split = max_size is None or (
            n <= VECTOR_LIMIT and self.n_considered * width >= 1 << n
        )
        if self.split:
            self.cols = np.arange(1 << n, dtype=np.uint64)
        else:
            self.cols = np.array(_capped_masks(n, width), dtype=np.uint64)
        n_cols = len(self.cols)
        self.block = max(1, _BLOCK_PAIRS // n_cols)

        pc = np.bitwise_count(self.cols)
        self.pc = pc
        ok = (pc >= 1) & (pc <= width)
        # |Y| - 1 on the sizes swept; other columns get a value that puts
        # |X| + |Y| - 1 above every cap_limit
        self.ycap = np.where(ok, pc - 1, 2 * n).astype(np.uint8)
        self.idx = _element_index(self.cols, width)

        if self.split:
            # OR distributes over the elements of X, so each element's
            # subset-OR tables over the low and the high columns are built
            # once here; a block ORs together the tables of its X's elements
            M = np.array(A._bit_table, dtype=np.uint32)
            self.lo = _subset_or(M[:, : n // 2])
            self.hi = _subset_or(M[:, n // 2 :])
        else:
            # M[x, j] = bit mask of the single element x + j
            self.M = np.array(A._bit_table, dtype=np.uint64)

        gx, gy, u, v, either = self._gates_and_bounds(statement)
        gx, gy, self.u, self.v = (np.broadcast_to(f, n_cols) for f in (gx, gy, u, v))
        # pairs outside the hypotheses get rhs 255; every bound below is
        # clipped to n + 1, which compares like any larger bound since
        # lhs <= n
        self.skip_x = np.where(gx, 0, 255).astype(np.uint8)
        self.skip_y = np.where(gy & ok, 0, 255).astype(np.uint8)
        self.skip = np.bitwise_and if either else np.bitwise_or
        self.u8 = np.minimum(self.u, n + 1).astype(np.uint8)
        self.v8 = np.minimum(self.v, n + 1).astype(np.uint8)
        # under either gate, only rows of at most cap_limit elements count
        self.rows = np.flatnonzero(ok & (pc <= self.cap_limit) if either else ok & gx)
        self.weight = self._orbit_weights() if A.is_group else None

    def _gates_and_bounds(self, statement: str):
        """The catalog entry of statement as row and column gates and
        bounds u, v, arrays over the columns or scalars, then whether one
        open gate suffices.  Carrier tests close both gates; the size test
        |X| + |Y| - 1 <= p sets cap_limit, which also gates every column
        outside the size cap, as one open gate needs."""
        from .theorems import _BOUNDS, _TESTS, CATALOG, HYPOTHESES

        A, n = self.A, self.n

        @functools.cache
        def column(key):
            """A set test or bound over the columns, or one of the carrier."""
            return (_BOUNDS[key] if key in _BOUNDS else _TESTS[key])(
                A, self.cols, self._reduce
            )

        entry = CATALOG[statement]
        self.cap_limit = None
        gx = gy = True
        either = False
        for name in entry.hypotheses:
            side, test, _ = HYPOTHESES[name]
            if side == "carrier":
                holds = _TESTS[test](A)
                gx, gy = gx & holds, gy & holds
            elif side == "size":
                self.cap_limit = min(A._p, 2 * n)
            else:
                either |= side == "either"
                gx = gx if side == "y" else gx & column(test)
                gy = gy if side == "x" else gy & column(test)
        return gx, gy, column(entry.u), column(entry.v), either

    def _reduce(self, w, inner, outer, cols, rows=-1) -> np.ndarray:
        """core._reduce, as uint8 (uint64 for inner None), on the set S of
        each column of cols, which are self.cols.  The padding repeats an
        element of S, which min, max and and_ ignore.  A row z0 outside
        rows reduces to outer's identity, as core._reduce skips it."""
        ufunc = {min: np.minimum, max: np.maximum, and_: np.bitwise_and}
        inner, outer = ufunc.get(inner), ufunc[outer]
        idx = np.ascontiguousarray(self.idx.T)
        if inner is None:
            return functools.reduce(outer, map(np.array(w, dtype=np.uint64).__getitem__, idx))
        w = np.array(w, dtype=np.uint8)
        w[[not rows >> z0 & 1 for z0 in range(self.n)]] = 0 if outer is np.maximum else INF
        flat = w.ravel()
        out = None
        for z0 in idx.astype(np.uint16) * self.n:
            acc = flat[z0 + idx[0]]
            for z in idx[1:]:
                inner(acc, flat[z0 + z], out=acc)
            out = acc if out is None else outer(out, acc, out=out)
        return out

    def _orbit_weights(self) -> np.ndarray | None:
        """The size of each left-translation orbit of rows at its least row,
        0 elsewhere; None unless the row gate and bound are constant on
        every orbit (|X| and |X + Y| are, in a group)."""
        rows = self.rows
        # a row's other inputs to the kernel: u8, or 255 on a closed gate
        key = self.u8 | self.skip_x
        least = rows.copy()
        for g in range(self.n):
            # t[i] = the column of g + (the mask of rows[i])
            if self.split:
                t = (self.hi[g][:, None] | self.lo[g]).ravel()[rows]
            else:
                m = np.bitwise_or.reduce(self.M[g][self.idx[rows]], axis=1)
                t = np.searchsorted(self.cols, m)
            if not (key[t] == key[rows]).all():
                return None
            np.minimum(least, t, out=least)
        return np.bincount(least, minlength=len(self.cols))

    def _lhs(self, xs: np.ndarray) -> np.ndarray:
        """|X + Y| as uint8, shape (len(xs), len(cols)): row i is X at
        column position xs[i]."""
        xi = self.idx[xs]
        if self.split:
            lo = np.bitwise_or.reduce(self.lo[xi], axis=1)
            hi = np.bitwise_or.reduce(self.hi[xi], axis=1)
            f = hi[:, :, None] | lo[:, None, :]
            return np.bitwise_count(f).reshape(len(xs), -1)
        # r[i, y] = mask of X + y, then X + Y = OR of r over the elements y
        r = np.bitwise_or.reduce(self.M[xi], axis=1)
        f = r[:, self.idx[:, 0]]
        for j in range(1, self.idx.shape[1]):
            f |= r[:, self.idx[:, j]]
        return np.bitwise_count(f)

    def eval_chunk(self, xs: np.ndarray, w: np.ndarray) -> _Partial:
        """Tallies of the rows xs, row xs[i] counted w[i] times."""
        part = _Partial()
        for i in range(0, len(xs), self.block):
            b = slice(i, i + self.block)
            self._eval_block(xs[b], w[b], part)
        return part

    def _eval_block(self, xs: np.ndarray, w: np.ndarray, part: _Partial):
        n_cols, rows = len(self.cols), len(xs)
        lhs = self._lhs(xs)
        cap = self.pc[xs][:, None] + self.ycap
        # np.maximum is slow on a column broadcast, so spell u[X] out
        rhs = np.repeat(self.u8[xs], n_cols).reshape(rows, n_cols)
        np.maximum(rhs, self.v8, out=rhs)
        np.minimum(rhs, cap, out=rhs)
        rhs |= self.skip(self.skip_x[xs][:, None], self.skip_y)
        if self.cap_limit is not None:
            rhs[cap > self.cap_limit] = 255
        outside = _count(rhs == 255, w)
        below = lhs < rhs  # also true on every pair outside the hypotheses
        n_viol = _count(below, w) - outside
        n_tight = _count(lhs == rhs, w)
        n_app = int(w.sum()) * n_cols - outside
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
                        x=self._set(x),
                        y=self._set(y),
                        lhs=int(lhs[i, y]),
                        rhs=min(bound, int(self.pc[x]) + int(self.pc[y]) - 1),
                    )
                )
        if n_tight and part.first_tight is None:
            i, y = divmod(int(np.argmax(lhs == rhs)), n_cols)
            part.first_tight = TightPair(
                x=self._set(int(xs[i])), y=self._set(y), value=int(lhs[i, y])
            )

    def _set(self, col: int) -> str:
        return str(ElementSet(self.n, int(self.cols[col])))


def _count(a: np.ndarray, w: np.ndarray) -> int:
    """Pairs where a holds, row i counted w[i] times: one count times the
    weight when the rows share it, per-row counts otherwise."""
    if (w == w[0]).all():
        return int(w[0]) * int(np.count_nonzero(a))
    return int(np.count_nonzero(a, axis=1) @ w)


def _subset_or(cols: np.ndarray) -> np.ndarray:
    """t[:, s] = OR of cols[:, j] over the bits j of s, for every s."""
    k = cols.shape[1]
    t = np.zeros((len(cols), 1 << k), dtype=cols.dtype)
    for j in range(k):
        np.bitwise_or(t[:, : 1 << j], cols[:, j : j + 1], out=t[:, 1 << j : 2 << j])
    return t


def _element_index(masks: np.ndarray, width: int) -> np.ndarray:
    """The element indices of each mask, ascending, padded to width with
    its first element (0 for the empty mask), as uint8."""
    rest = masks.copy()
    idx = np.zeros((len(masks), width), dtype=np.uint8)
    for j in range(width):
        low = rest & (~rest + np.uint64(1))  # the lowest bit left
        rest ^= low
        e = np.bitwise_count(low - np.uint64(1))
        idx[:, j] = np.where(low != 0, e, idx[:, 0])
    return idx


def _capped_masks(n: int, max_size: int) -> list[int]:
    """Non-empty masks of at most max_size elements, ascending."""
    layer, masks = [0], []
    for _ in range(min(max_size, n)):
        # each mask of the next size once: add a bit above the top one
        layer = [m | 1 << b for m in layer for b in range(m.bit_length(), n)]
        masks += layer
    masks.sort()
    return masks


_WORKER_CTX = None


def _set_worker_ctx(ctx: _SweepContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_run(xs, w):
    return _WORKER_CTX.eval_chunk(xs, w)


def _evaluate(ctx: _SweepContext, rows, weight, jobs: int) -> list[_Partial]:
    """The tallies of rows, row i counted weight[i] times, one per chunk of
    CHUNK rows, in chunk order."""
    global multiprocessing
    chunks = [
        (rows[i : i + CHUNK], weight[i : i + CHUNK]) for i in range(0, len(rows), CHUNK)
    ]
    if jobs <= 1 or len(chunks) <= 1:
        return [ctx.eval_chunk(xs, w) for xs, w in chunks]
    if multiprocessing is None:
        import multiprocessing
    # forked workers inherit the context built here: under fork, initargs
    # reach each child through the fork and are not pickled
    with multiprocessing.get_context("fork").Pool(
        min(jobs, len(chunks)), initializer=_set_worker_ctx, initargs=(ctx,)
    ) as pool:
        return pool.starmap(_worker_run, chunks, chunksize=1)


def _merge(parts, statement, label, n, max_size, n_masks, elapsed) -> SweepSummary:
    total = _Partial()
    for part in parts:
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
        pairs=n_masks * n_masks,
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
    Uncapped sweeps, and capped ones on n <= 16 whose swept masks times the
    cap reach 2^n, take the split-table |X + Y| path, the others the
    index-matrix path (see the module docstring).  jobs > 1 distributes
    fixed-size chunks of the X space over worker processes; the summary is
    identical (byte-identical once serialized) for every jobs value.
    """
    from .theorems import _check_carrier, normalize_statement

    started = time.monotonic()
    statement = normalize_statement(statement)
    _check_carrier(A, (statement,))
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    if A.n > VECTOR_LIMIT and max_size is None:
        raise CarrierTooLarge(
            "full sweeps need carrier order <= %d (order %d); pass a size cap"
            % (VECTOR_LIMIT, A.n)
        )

    label = A.label or ("order-%d" % A.n)
    ctx = _SweepContext(A, statement, max_size)
    if ctx.weight is not None:
        least = np.flatnonzero(ctx.weight)
        parts = _evaluate(ctx, least, ctx.weight[least], jobs)
    if ctx.weight is None or any(part.violation_count for part in parts):
        # witnesses are listed X by X, so they come from every row
        parts = _evaluate(ctx, ctx.rows, np.ones_like(ctx.rows), jobs)

    elapsed = time.monotonic() - started
    return _merge(parts, statement, label, A.n, max_size, ctx.n_considered, elapsed)
