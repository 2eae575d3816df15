"""Exhaustive verification sweeps over all subset pairs of a small carrier.

One engine, in plain Python, runs every sweep.  Its columns are the swept
masks (the non-empty masks within the size cap) ascending, and a column
set is one int whose bit j stands for column j: a bit-wise operator acts
on every column at once, and int.bit_count counts columns.  meets(S), the
columns that meet S, takes one table lookup per byte of the carrier.

Kernel.  For an X row, the columns with z in X + Y are those that meet
P_z(X) = {y : x + y = z for some x in X}, so |X + Y| is the bit-sliced sum
of n column sets (a carry-save adder tree).  It is compared, bit-sliced,
with min(max(u[X], v[Y]), |X| + |Y| - 1) clipped to n + 1, exact since
|X + Y| <= n; that right side is built once per (u[X], |X|, row gate).
Counts are bit counts, first_tight and the witnesses the lowest and the
ascending set bits, and witnesses carry the unclipped right side.

Features.  A statement is its catalog entry: row and column
gates, and bounds u, v.  The catalog's tests and bounds run unchanged on
_Masks in place of a mask and with the context's _reduce in place of
core's, giving column sets and _Values (a byte per column).  _reduce
evaluates each set constant in threshold form: omega >= t, for one, holds
on the OR over units z0 of (the columns holding z0) AND (the columns inside
{z : w[z0][z] >= t}).

Rows.  An X row whose gate is closed holds no applicable pair, so it is
not evaluated (under either gate, every row of at most cap_limit elements
is).  In a group, a left translate g + X has the same |X| and the same
|X + Y| as X.  When the row gate and u are also constant on each
left-translation orbit, checked orbit by orbit while the rows are visited
in ascending order, only the least mask of each orbit is evaluated, and
its counts are weighted by the orbit size.  first_tight does not change,
since the first X with a tight pair is the least of its orbit; a reduced
sweep that finds a violation is run again unreduced, so that the witness
list is exact.

This module is the package's lazy export of sweep and its value types, so
it loads on the first sweep, with catalog.  A sweep command loads addcomb,
cli, core, errors, catalog and this module: neither setops nor theorems,
nor dataclasses, since its value types are core._Record classes.  It is not
named sweep, so that no import order can set the package attribute sweep to
it.  _evaluate imports multiprocessing for its first pool, so a jobs=1 sweep
never loads it.

Determinism contract: the evaluated X rows are split into fixed-size
chunks (CHUNK rows each, independent of the worker count), chunks are
evaluated in parallel, and partial results are merged in chunk order.
Enumeration within a chunk is ascending by bit pattern, so the summary -
including the ordering of any violation witnesses - is byte-identical for
any --jobs value.  Wall-clock time, SweepSummary.elapsed_s, is carried on
the side: == ignores it, so to_json_dict(), which holds the fields that ==
compares, leaves it out.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
import time
from itertools import chain, compress
from operator import and_, or_

from .catalog import _BOUNDS, _TESTS, CATALOG, HYPOTHESES, _check_carrier, normalize_statement
from .core import INF, ElementSet, FiniteSemigroup, _is_int, _Record, iter_bits
from .errors import CarrierTooLarge

CHUNK = 512
VECTOR_LIMIT = 16  # a sweep has at most 2^16 - 1 masks a side, a full one n <= 16
_MAX_RECORDED = 64
_FLAG = bytes(49) + b"\x01" + bytes(206)  # the digit "1" to 1, "0" to 0
# tables for _where: the digit 1 on the byte t, and on the bytes with bit i
_DIGIT = [b"0" * t + b"1" + b"0" * (255 - t) for t in range(256)]
_BIT = [bytes(48 + (b >> i & 1) for b in range(256)) for i in range(8)]

multiprocessing = None  # bound by _evaluate when it makes the first pool


class Violation(_Record):
    __slots__ = ("x", "y", "lhs", "rhs")


class TightPair(_Record):
    __slots__ = ("x", "y", "value")


class SweepSummary(_Record):
    __slots__ = ("statement", "semigroup", "carrier_order", "max_size", "pairs", "applicable",
                 "satisfied", "violation_count", "violations", "tight", "first_tight", "elapsed_s")
    _defaults = (None,)

    def _key(self) -> tuple:  # ==, hash and to_json_dict ignore elapsed_s
        return self._fields()[:-1]


class _Values(bytes):
    """A bound on every column, one byte each; m // values divides each."""

    def __rfloordiv__(self, m: int) -> _Values:
        return _Values(self.translate(bytes(m // max(v, 1) for v in range(256))))


class _Masks:
    """The swept masks as the set S of a catalog test: (S & m) == k is the
    column set of the masks Y with Y & m == k."""

    def __init__(self, ctx: _SweepContext, m: int = -1):
        self.ctx, self.m = ctx, m

    def __and__(self, m: int) -> _Masks:
        return _Masks(self.ctx, self.m & m)

    def __eq__(self, k: int) -> int:
        ctx = self.ctx
        held = functools.reduce(and_, map(ctx.holding.__getitem__, iter_bits(k)), ctx.all)
        return held ^ held & ctx.meets(self.m & ~k)


class _SweepContext:
    """Precomputed tables for one sweep, shared with the worker processes.

    cols lists the swept masks, ascending.  X rows are column positions:
    rows lists those a sweep evaluates, and weight, unless it is None, maps
    the least row of each orbit, ascending, to the orbit size."""

    def __init__(self, A: FiniteSemigroup, statement: str, max_size: int | None):
        self.A = A
        n = self.n = A.n
        self.cols = cols = _capped_masks(n, n if max_size is None else max_size)
        N = len(cols)
        self.all = (1 << N) - 1
        self.width = (n + 1).bit_length()  # bits of every value up to n + 1
        masks = struct.pack("<%dQ" % N, *cols)
        self.holding = [_where(masks[e >> 3 :: 8], _BIT[e & 7]) for e in range(n)]
        # meet[i][s]: the columns that meet the subset s of elements 8i..8i+7
        held, self.meet = self.holding + [0] * (-n % 8), []
        for i in range(0, n, 8):
            t = [0] * 256
            for s in range(1, 256):
                t[s] = t[s & (s - 1)] | held[i + (s & -s).bit_length() - 1]
            self.meet.append(t)
        # pre[x]: the masks P_z({x}) = {y : x + y = z}, one field of
        # len(meet) bytes per z, ascending
        field_bits = 8 * len(self.meet)
        self.pre = [sum(1 << (field_bits * z + y) for y, z in enumerate(row)) for row in A.table]
        sizes = bytes(map(int.bit_count, cols))
        self.by_size = [_where(sizes, _DIGIT[s]) for s in range(n + 1)]

        gx, self.gy, self.u, self.v, self.either = self._gates_and_bounds(statement)
        clip = bytes(min(t, n + 1) for t in range(256))
        self.u8, v8 = self.u.translate(clip), self.v.translate(clip)
        self.vparts = [(t, _where(v8, _DIGIT[t])) for t in set(v8)]
        self.gx = _flags(gx, N)
        # under either gate, only rows of at most cap_limit elements count
        rows = self._size_at_most(self.cap_limit) if self.either else gx
        self.rows = list(compress(range(N), _flags(rows, N)))
        self._rights = {}  # _right by its arguments
        self.weight = self._orbit_weights() if A.is_group else None

    def _gates_and_bounds(self, statement: str):
        """The catalog entry of statement as row and column gates (column
        sets) and bounds u, v (bytes), then whether one open gate suffices.
        Carrier tests close both gates; the size test |X| + |Y| - 1 <= p
        sets cap_limit, which the right side of each row applies."""
        A, n, N, S = self.A, self.n, len(self.cols), _Masks(self)

        @functools.cache
        def column(key):
            """A set test as a column set, or a bound as bytes."""
            if key in _BOUNDS:
                value = _BOUNDS[key](A, S, self._reduce)
                return value if isinstance(value, bytes) else bytes([value]) * N
            holds = _TESTS[key](A, S, self._reduce)
            return self.all if holds is True else holds

        entry = CATALOG[statement]
        self.cap_limit = None
        gx = gy = self.all
        either = False
        for name in entry.hypotheses:
            side, test, _ = HYPOTHESES[name]
            if side == "carrier":
                if not _TESTS[test](A):
                    gx = gy = 0
            elif side == "size":
                self.cap_limit = min(A._p, 2 * n)
            else:
                either |= side == "either"
                gx = gx if side == "y" else gx & column(test)
                gy = gy if side == "x" else gy & column(test)
        return gx, gy, column(entry.u), column(entry.v), either

    def meets(self, m: int) -> int:
        """The columns that meet the mask m (its bits below n)."""
        return functools.reduce(or_, [t[m >> 8 * i & 255] for i, t in enumerate(self.meet)])

    def _size_at_most(self, k: int) -> int:
        return functools.reduce(or_, self.by_size[: max(k + 1, 0)], 0)

    def _reduce(self, w, inner, outer, S, rows=-1):
        """core._reduce on every column at once, for S a _Masks.  With inner
        None, the column set of the Y that lie in w[z0] for each z0 of rows
        in Y.  Otherwise _Values, from the nested column sets "value >= t"
        for each t that w takes over rows, descending: inner min (max) is at
        least t on the Y inside (meeting) {z : w[z0][z] >= t}, and outer max
        (min) on the OR (AND) over the z0 of rows of those holding z0 (of
        those and the ones without z0).  No z0 gives 0 under max and INF
        under min, as in core._reduce."""
        ALL, holding = self.all, self.holding
        z0s = iter_bits(rows & (1 << self.n) - 1)
        if inner is None:
            inside = [ALL ^ self.meets(~w[z0]) | ALL ^ holding[z0] for z0 in z0s]
            return functools.reduce(and_, inside, ALL)
        # per z0, the mask of the z where w[z0][z] takes each value
        where = [{} for _ in z0s]
        for z0, values in zip(z0s, where):
            for z, t in enumerate(w[z0]):
                values[t] = values.get(t, 0) | 1 << z
        masks = [0] * len(z0s)  # {z : w[z0][z] >= t}, growing as t falls
        parts, above = [], 0
        for t in sorted(set().union(*where) | {INF}, reverse=True):
            masks = [m | values.get(t, 0) for m, values in zip(masks, where)]
            sets = [ALL ^ self.meets(~m) if inner is min else self.meets(m) for m in masks]
            held = map(holding.__getitem__, z0s)
            if outer is max:
                at_least = functools.reduce(or_, map(and_, held, sets), 0)
            else:
                at_least = functools.reduce(and_, [s | ALL ^ h for h, s in zip(held, sets)], ALL)
            # the value is t exactly where it is >= t but not >= the last t
            parts.append((t, at_least ^ above))
            above = at_least
        N = len(self.cols)
        acc = sum(t * int.from_bytes(_flags(s, N), "little") for t, s in parts)
        return _Values(acc.to_bytes(N, "little"))

    def _orbit_weights(self) -> dict | None:
        """The size of each left-translation orbit of rows at its least row;
        None unless the row gate and bound are constant on every orbit
        (|X| and |X + Y| are, in a group)."""
        n, cols = self.n, self.cols
        # a row's other inputs to the kernel: u8, or 255 on a closed gate
        key = bytes(map(or_, self.u8, self.gx.translate(b"\xff" + bytes(255))))
        # shift[x]: the masks of g + x, one field of 1, 2, 4 or 8 bytes per g
        size = 1 << max(0, (n - 1).bit_length() - 3)
        code = "BHIQ"[size.bit_length() - 1]
        shift = [sum(1 << (8 * size * g + z) for g, z in enumerate(col)) for col in zip(*self.A.table)]
        position = dict(zip(cols, range(len(cols))))
        weight, seen = {}, set()
        for j in self.rows:
            if j in seen:
                continue
            packed = functools.reduce(or_, map(shift.__getitem__, iter_bits(cols[j])))
            translates = memoryview(packed.to_bytes(n * size, sys.byteorder)).cast(code)
            orbit = set(map(position.__getitem__, translates))
            if len(set(map(key.__getitem__, orbit))) > 1:
                return None
            seen |= orbit
            weight[j] = len(orbit)
        return weight

    def _right(self, u: int, k: int, g: int):
        """For a row with bound u (clipped), |X| = k and gate g: the right
        side min(max(u, v[Y]), k + |Y| - 1) on every column, clipped to
        n + 1 and bit-sliced, the applicable columns, and their count."""
        n, width = self.n, self.width
        big = _slices([(max(u, t), s) for t, s in self.vparts], width)
        cap = _slices([(min(k + y - 1, n + 1), s) for y, s in enumerate(self.by_size)], width)
        less, _ = _compare(big, cap, self.all)
        rhs = [c ^ (b ^ c) & less for b, c in zip(big, cap)]
        app = self.all if self.either and g else self.gy
        if self.cap_limit is not None:
            app &= self._size_at_most(self.cap_limit + 1 - k)
        return rhs, app, app.bit_count()

    def _lhs(self, x: int) -> list[int]:
        """|X + Y| on every column, bit-sliced, low bit first."""
        step = len(self.meet)
        p = functools.reduce(or_, map(self.pre.__getitem__, iter_bits(x)))
        p = p.to_bytes(self.n * step, "little")
        sets = list(map(self.meet[0].__getitem__, p[::step]))
        for i in range(1, step):
            sets = list(map(or_, sets, map(self.meet[i].__getitem__, p[i::step])))
        return _bit_sum(list(filter(None, sets)), self.width)

    def eval_chunk(self, xs, w) -> tuple:
        """Tallies of the rows xs, row xs[i] counted w[i] times, as the
        summary's fields applicable to first_tight, in order."""
        applicable = satisfied = violation_count = tight = 0
        violations, first_tight, cols = [], None, self.cols
        for j, weight in zip(xs, w):
            k = cols[j].bit_count()
            key = (self.u8[j], k, self.gx[j])
            if key not in self._rights:
                self._rights[key] = self._right(*key)
            rhs, app, n_app = self._rights[key]
            lhs = self._lhs(cols[j])
            below, equal = _compare(lhs, rhs, app)
            n_viol = below.bit_count()
            applicable += weight * n_app
            satisfied += weight * (n_app - n_viol)
            violation_count += weight * n_viol
            tight += weight * equal.bit_count()
            # X ascending, then Y ascending
            while below and len(violations) < _MAX_RECORDED:
                y = (below & -below).bit_length() - 1
                below &= below - 1
                bound = min(max(self.u[j], self.v[y]), k + cols[y].bit_count() - 1)
                violations.append(Violation(self._set(j), self._set(y), _at(lhs, y), bound))
            if equal and first_tight is None:
                y = (equal & -equal).bit_length() - 1
                first_tight = TightPair(x=self._set(j), y=self._set(y), value=_at(lhs, y))
        return applicable, satisfied, violation_count, violations, tight, first_tight

    def _set(self, col: int) -> str:
        return str(ElementSet(self.n, self.cols[col]))


def _where(values: bytes, digits: bytes) -> int:
    """The column set of the j where the table digits maps values[j] to "1"."""
    return int(values.translate(digits)[::-1], 2)


def _flags(columns: int, n_cols: int) -> bytes:
    """The column set columns as one byte per column, 1 in it and 0 outside."""
    return format(columns, "0%db" % n_cols)[::-1].encode().translate(_FLAG)


def _slices(parts, width: int) -> list[int]:
    """Bit slices, low first, of the value t on each column set of parts."""
    out = [0] * width
    for t, columns in parts:
        for i in iter_bits(t):
            out[i] |= columns
    return out


def _bit_sum(sets: list[int], width: int) -> list[int]:
    """Bit slices, low first, of the number of sets holding each column:
    full adders take three sets (or two) of one weight to one set of that
    weight and one of twice it."""
    out = []
    while sets:
        carries = []
        while len(sets) > 1:
            a, b = sets.pop(), sets.pop()
            c, t = sets.pop() if sets else 0, a ^ b
            sets.append(t ^ c)
            carries.append(a & b | t & c)
        out += sets
        sets = carries
    return out + [0] * (width - len(out))


def _compare(a: list[int], b: list[int], columns: int) -> tuple[int, int]:
    """Of the column set columns, those where a < b and those where a == b,
    for bit slices a and b of one width.  (No operand is negative: an
    operator on a negative int is several times slower.)"""
    less, equal = 0, columns
    for x, y in zip(reversed(a), reversed(b)):
        differ = equal & (x ^ y)
        less |= differ & y
        equal ^= differ
    return less, equal


def _at(slices: list[int], col: int) -> int:
    """The bit-sliced value at one column."""
    return sum((s >> col & 1) << i for i, s in enumerate(slices))


def _capped_masks(n: int, max_size: int) -> list[int]:
    """Non-empty masks of at most max_size elements, ascending."""
    if max_size >= n:
        return list(range(1, 1 << n))
    layer, masks = [0], []
    for _ in range(max_size):
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


def _evaluate(ctx: _SweepContext, rows, weight, jobs: int) -> list[tuple]:
    """The tallies of rows, row i counted weight[i] times, one per chunk of
    CHUNK rows, in chunk order."""
    global multiprocessing
    chunks = [(rows[i : i + CHUNK], weight[i : i + CHUNK]) for i in range(0, len(rows), CHUNK)]
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
    # the tallies of no rows come first, so that no chunks at all sum to them
    tallies = zip((0, 0, 0, [], 0, None), *parts)
    applicable, satisfied, violation_count, violations, tight, firsts = tallies
    violations = tuple(chain(*violations))[:_MAX_RECORDED]
    first_tight = next(filter(None, firsts), None)
    return SweepSummary(statement, label, n, max_size, n_masks * n_masks, sum(applicable),
                        sum(satisfied), sum(violation_count), violations, sum(tight), first_tight,
                        elapsed)


def sweep(
    A: FiniteSemigroup,
    statement: str,
    max_size: int | None = None,
    jobs: int = 1,
) -> SweepSummary:
    """Run one statement over every pair of non-empty subsets of A.

    max_size caps |X| and |Y|; it is mandatory for carriers of order > 16,
    and a sweep may have at most 2^16 - 1 masks a side, as many as a full
    sweep of order 16.  jobs > 1 distributes fixed-size chunks of the X
    space over worker processes; the summary is identical (byte-identical
    once serialized) for every jobs value.
    """
    started = time.monotonic()
    statement = normalize_statement(statement)
    _check_carrier(A, (statement,))
    if max_size is not None and (not _is_int(max_size) or max_size < 1):
        raise ValueError("max_size must be >= 1")
    if not _is_int(jobs):
        raise ValueError("jobs must be an int, got %r" % (jobs,))
    n_masks = sum(math.comb(A.n, k) for k in range(1, min(max_size or A.n, A.n) + 1))
    if n_masks >= 1 << VECTOR_LIMIT:
        raise CarrierTooLarge(
            "full sweeps need carrier order <= %d (order %d); pass a size cap"
            % (VECTOR_LIMIT, A.n)
            if max_size is None
            else "a sweep of order %d at size cap %d has %d masks a side, over the %d of a "
            "full sweep of order %d; lower the cap"
            % (A.n, max_size, n_masks, (1 << VECTOR_LIMIT) - 1, VECTOR_LIMIT)
        )

    label = A.label or ("order-%d" % A.n)
    ctx = _SweepContext(A, statement, max_size)
    if ctx.weight is not None:
        parts = _evaluate(ctx, list(ctx.weight), list(ctx.weight.values()), jobs)
    if ctx.weight is None or any(count for _, _, count, *_ in parts):
        # witnesses are listed X by X, so they come from every row
        parts = _evaluate(ctx, ctx.rows, [1] * len(ctx.rows), jobs)

    elapsed = time.monotonic() - started
    return _merge(parts, statement, label, A.n, max_size, n_masks, elapsed)
