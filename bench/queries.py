"""Seeded streams of single library calls, each with its oracle verdict.

A stream is a list of `Query` objects.  Its make-up is fixed by quota (the
share of each kind below), so counts such as the share of refused calls do
not move with the seed; the seed picks carriers, statements and sets.
Every query carries what the oracles in `oracles.py` expect: a result, or
the refusal the library must raise.
"""

from __future__ import annotations

import dataclasses
import random

import oracles
from addcomb import (
    ElementSet,
    ExtendedNat,
    apply_transform,
    audit_transform,
    cd_constant,
    delta,
    hall_check,
    localize,
    omega,
    run_statement,
    span_is_commutative,
    sumset,
    transform_candidates,
)
from addcomb.errors import EmptyTransform, NotGroup, NotUnital, PreconditionFailed

GROUP_STATEMENTS = ("CD-1813", "Thm2.2", "Cor2.4", "Cor2.7", "Kemperman-weak")
RESIDUE_STATEMENTS = ("Chowla", "Pillai", "Cor2.9")

# Share of the stream per kind; "refused" queries are built to be refused.
# These are the quotas `traffic.py` prints for the tier-1 suite: each kind's
# share of the suite's calls into the library, with hall and refused raised
# to 1 % so that they are measured, and localize rounded down so the shares
# sum to 1.  See bench/README.md.
QUOTAS = (
    ("statement", 0.055),
    ("residue", 0.079),
    ("constants", 0.136),
    ("setops", 0.078),
    ("localize", 0.460),
    ("transform", 0.172),
    ("hall", 0.010),
    ("refused", 0.010),
)


class Query:
    """One stream item.  `span` names the spans of its calls (for transform,
    a suffix); `refusal` is (exception class, failed hypotheses or None)
    for a query the library must refuse."""

    __slots__ = ("kind", "span", "A", "C", "args", "expect", "refusal")

    def __init__(self, kind, span, A, C, args, expect, refusal=None):
        self.kind = kind
        self.span = span
        self.A = A
        self.C = C
        self.args = args
        self.expect = expect
        self.refusal = refusal


def direct(name, fn, *args):
    """The untraced `call`: no span, just the call."""
    return fn(*args)


# ---------------------------------------------------------------------------
# Execution: each runner makes the library calls of one query through
# `call(span_name, fn, *args)`, so the traced run can put spans around them.
# ---------------------------------------------------------------------------


def _run_statement(q, call):
    statement, X, Y = q.args
    return call(q.span, run_statement, q.A, statement, X, Y)


def _run_constants(q, call):
    Z, X, Y, with_delta = q.args
    bd = call("constants.omega", omega, q.A, Z)
    cd = call("constants.cd_constant", cd_constant, q.A, X, Y)
    d = call("constants.delta", delta, q.A.n, Z) if with_delta else None
    return bd, cd, d


def _run_setops(q, call):
    X, Y = q.args
    S = call("setops.sumset", sumset, q.A, X, Y)
    comm = call("setops.span_is_commutative", span_is_commutative, q.A, Y)
    return S, comm


def _run_localize(q, call):
    X, Y = q.args
    return call(q.span, localize, q.A, X, Y)


def _run_transform(q, call):
    X, Y, m, z = q.args
    tag = q.span  # ":refused" on queries built to be refused
    cands = call("transform.candidates" + tag, transform_candidates, q.A, X, Y, m)
    if z is None:
        return cands, None, None
    r = call("transform.apply" + tag, apply_transform, q.A, X, Y, m, z)
    audit = call("transform.audit" + tag, audit_transform, q.A, X, Y, r)
    return cands, r, audit


def _run_hall(q, call):
    return call("localization.hall_check", hall_check, q.args[0])


RUNNERS = {
    "statement": _run_statement,
    "residue": _run_statement,
    "constants": _run_constants,
    "setops": _run_setops,
    "localize": _run_localize,
    "transform": _run_transform,
    "hall": _run_hall,
}


def execute(q: Query, call=direct):
    return RUNNERS[q.kind](q, call)


def canonical(result, exc):
    """A plain, picklable form of a query's outcome, for comparing the
    outcomes of two processes: library values become tuples of ints,
    strings and bools, and a refusal becomes its class name and failed
    hypotheses."""
    if exc is not None:
        return ("raised", type(exc).__name__, _plain(getattr(exc, "failed", None)))
    return _plain(result)


def _plain(value):
    if isinstance(value, ExtendedNat):
        return ("ext", value.to_json())
    if isinstance(value, ElementSet):
        return ("set", value.n, value.mask)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _plain(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("frozenset",) + tuple(sorted(value))
    return value


def wire(q: Query):
    """The library inputs of a query as plain data: (kind, span, args)."""
    return q.kind, q.span, _wire_args(q.args)


def _wire_args(value):
    # an ElementSet becomes an (n, mask) tuple, a sequence a list
    if isinstance(value, ElementSet):
        return (value.n, value.mask)
    if isinstance(value, (list, tuple)):
        return [_wire_args(v) for v in value]
    return value


def unwire(A, kind, span, args) -> Query:
    """The inverse of `wire`, on the library carrier A; the query carries
    no oracle verdict."""
    return Query(kind, span, A, None, _unwire_args(args), None)


def _unwire_args(value):
    if isinstance(value, tuple):
        return ElementSet(*value)
    if isinstance(value, list):
        return tuple(_unwire_args(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# Checks against the oracle verdicts
# ---------------------------------------------------------------------------


def _ext(value):
    return "infinity" if value == oracles.INF else value


def _check_statement(q, rep) -> bool:
    lhs, rhs, hyps = q.expect
    applicable = all(hyps.values())
    return (
        rep.lhs == lhs
        and rep.rhs.to_json() == _ext(rhs)
        and dict(rep.hypotheses) == hyps
        and rep.applicable == applicable
        and rep.satisfied == ((lhs >= rhs) if applicable else None)
        and rep.satisfied is not False
    )


def _check_constants(q, out) -> bool:
    bd, cd, d = out
    rows, overall, cd_want, d_want = q.expect
    return (
        [(z0, inner.to_json()) for z0, inner in bd.rows]
        == [(z0, _ext(inner)) for z0, inner in rows]
        and bd.overall.to_json() == _ext(overall)
        and cd.to_json() == _ext(cd_want)
        and d == d_want
    )


def _check_setops(q, out) -> bool:
    S, comm = out
    want_sum, want_comm = q.expect
    return set(S) == want_sum and comm is want_comm


def _check_localize(q, res) -> bool:
    X, Y = q.args
    return oracles.check_localization(
        q.C, X.elements(), Y.elements(), set(res.Z), res.representatives
    )


def _check_transform(q, out) -> bool:
    cands, r, audit = out
    want_cands, split, audit_want = q.expect
    if set(cands) != want_cands:
        return False
    if r is None:
        return split is None
    _, _, m, z = q.args
    x_z, tilde, prime = split
    if not (
        r.m == m
        and r.z == z
        and r.x_z == x_z
        and r.y_z == min(tilde)
        and set(r.y_tilde) == tilde
        and set(r.y_prime) == prime
    ):
        return False
    applicable, v_lhs, v_rhs = audit_want
    items = audit.items()
    return (
        all((item is True) if app else (item is None) for item, app in zip(items, applicable))
        and (audit.v_lhs, audit.v_rhs) == (v_lhs, v_rhs)
    )


def _check_hall(q, out) -> bool:
    ok, witness = out
    rows = q.expect
    if ok:
        return witness is None and oracles.hall_holds(rows)
    return not oracles.hall_holds(rows) and oracles.hall_witness_ok(rows, witness)


CHECKS = {
    "statement": _check_statement,
    "residue": _check_statement,
    "constants": _check_constants,
    "setops": _check_setops,
    "localize": _check_localize,
    "transform": _check_transform,
    "hall": _check_hall,
}


def check(q: Query, result, exc) -> bool:
    """True when the call did what the oracle predicts: the right result,
    or, for a query built to be refused, the right refusal."""
    if q.refusal is not None:
        cls, failed = q.refusal
        if type(exc) is not cls:
            return False
        return failed is None or exc.failed == failed
    return exc is None and CHECKS[q.kind](q, result)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


class _Pool:
    def __init__(self, carriers):
        # carriers: list of (spec, FiniteSemigroup, oracles.Carrier)
        self.all = carriers
        self.groups = [c for c in carriers if c[2].group]
        self.cyclic = [c for c in carriers if c[2].cyclic_residues]
        self.unital = [c for c in carriers if c[2].identity is not None]
        self.non_group = [c for c in carriers if not c[2].group]
        self.non_cyclic = [c for c in carriers if not c[2].cyclic_residues]
        self.non_unital = [c for c in carriers if c[2].identity is None]


def _rand_set(rng, n, lo, hi):
    size = rng.randint(lo, max(lo, min(hi, n)))
    return sorted(rng.sample(range(n), size))


def _es(n, elems):
    return ElementSet.from_elements(n, elems)


def _gen_statement(rng, pool, residue):
    spec, A, C = rng.choice(pool.cyclic if residue else pool.all)
    if residue:
        statement = rng.choice(RESIDUE_STATEMENTS)
        span = "theorems.run_statement:residue"
    else:
        statement = rng.choice(GROUP_STATEMENTS + (("HK",) if C.group else ()))
        span = "theorems.run_statement:group"
    half = max(1, C.n // 2)
    xs, ys = _rand_set(rng, C.n, 1, half), _rand_set(rng, C.n, 1, half)
    expect = oracles.statement_oracle(C, statement, xs, ys)
    kind = "residue" if residue else "statement"
    return Query(kind, span, A, C, (statement, _es(C.n, xs), _es(C.n, ys)), expect)


def _gen_constants(rng, pool):
    spec, A, C = rng.choice(pool.all)
    half = max(1, C.n // 2)
    zs = _rand_set(rng, C.n, 1, half + 1)
    xs, ys = _rand_set(rng, C.n, 1, half), _rand_set(rng, C.n, 1, half)
    cd = min(max(C.omega(xs), C.omega(ys)), len(xs) + len(ys) - 1)
    d = oracles.delta(C.n, zs) if C.cyclic_residues else None
    expect = (C.omega_rows(zs), C.omega(zs), cd, d)
    args = (_es(C.n, zs), _es(C.n, xs), _es(C.n, ys), C.cyclic_residues)
    return Query("constants", "", A, C, args, expect)


def _gen_setops(rng, pool):
    spec, A, C = rng.choice(pool.all)
    half = max(1, C.n // 2)
    xs, ys = _rand_set(rng, C.n, 1, half), _rand_set(rng, C.n, 1, half)
    expect = (set(C.sumset(xs, ys)), C.span_commutative(ys))
    return Query("setops", "", A, C, (_es(C.n, xs), _es(C.n, ys)), expect)


def _gen_localize(rng, pool, qualifying):
    source = pool.groups if qualifying else pool.all
    while True:
        spec, A, C = rng.choice(source)
        for _ in range(200):
            hi = 4 if qualifying else C.n
            xs, ys = _rand_set(rng, C.n, 1, hi), _rand_set(rng, C.n, 1, hi)
            failed = oracles.localize_failures(C, xs, ys)
            if bool(failed) != qualifying:
                args = (_es(C.n, xs), _es(C.n, ys))
                if qualifying:
                    return Query("localize", "localization.localize", A, C, args, None)
                return Query(
                    "localize",
                    "localization.localize:refused",
                    A,
                    C,
                    args,
                    None,
                    (PreconditionFailed, failed),
                )


def _gen_transform(rng, pool):
    spec, A, C = rng.choice(pool.unital)
    hi = C.n // 3 + 1
    for attempt in range(50):
        m = rng.choice((1, 2))
        xs, ys = _rand_set(rng, C.n, 1, hi), _rand_set(rng, C.n, 1, hi)
        cands = oracles.transform_oracle(C, xs, ys, m)
        if not cands:
            continue
        z = rng.choice(sorted(cands))
        split = oracles.transform_split(C, xs, ys, m, z)
        if split[2] or attempt == 49:
            break
    args = (_es(C.n, xs), _es(C.n, ys), m, z if cands else None)
    if not cands:
        return Query("transform", "", A, C, args, (cands, None, None))
    if not split[2]:
        return Query("transform", ":refused", A, C, args, None, (EmptyTransform, None))
    expect = (cands, split, oracles.audit_oracle(C, xs, ys, split[2]))
    return Query("transform", "", A, C, args, expect)


def _gen_hall(rng, pool):
    spec, A, C = rng.choice(pool.all)
    k = rng.randint(2, 7)
    rows = [frozenset(_rand_set(rng, C.n, 1, 3)) for _ in range(k)]
    sets = [_es(C.n, row) for row in rows]
    return Query("hall", "localization.hall_check", A, C, (sets,), rows)


def _gen_refused(rng, pool, which):
    """One query the library must refuse, of the given sort."""
    if which == "localize":
        return _gen_localize(rng, pool, qualifying=False)
    if which == "residue-off-cyclic":
        spec, A, C = rng.choice(pool.non_cyclic)
        statement = rng.choice(RESIDUE_STATEMENTS)
    elif which == "hk-off-group":
        spec, A, C = rng.choice(pool.non_group)
        statement = "HK"
    else:  # transform on a carrier without identity
        spec, A, C = rng.choice(pool.non_unital)
        xs, ys = _rand_set(rng, C.n, 1, 3), _rand_set(rng, C.n, 1, 3)
        args = (_es(C.n, xs), _es(C.n, ys), 1, None)
        return Query("transform", ":refused", A, C, args, None, (NotUnital, None))
    xs, ys = _rand_set(rng, C.n, 1, 3), _rand_set(rng, C.n, 1, 3)
    kind = "residue" if statement in RESIDUE_STATEMENTS else "statement"
    args = (statement, _es(C.n, xs), _es(C.n, ys))
    return Query(kind, "theorems.run_statement:refused", A, C, args, None, (NotGroup, None))


def _refusal_sorts(pool) -> list[str]:
    sorts = ["localize"]
    if pool.non_cyclic:
        sorts.append("residue-off-cyclic")
    if pool.non_group:
        sorts.append("hk-off-group")
    if pool.non_unital:
        sorts.append("transform-off-unital")
    return sorts


def make_stream(carriers, length: int, seed: int) -> list[Query]:
    """`length` queries over the given carriers, in a seeded order."""
    rng = random.Random(seed)
    pool = _Pool(carriers)
    sorts = _refusal_sorts(pool)
    stream = []
    for kind, share in QUOTAS:
        count = max(1, round(length * share))
        for i in range(count):
            if kind in ("statement", "residue"):
                q = _gen_statement(rng, pool, residue=kind == "residue")
            elif kind == "constants":
                q = _gen_constants(rng, pool)
            elif kind == "setops":
                q = _gen_setops(rng, pool)
            elif kind == "localize":
                q = _gen_localize(rng, pool, qualifying=True)
            elif kind == "transform":
                q = _gen_transform(rng, pool)
            elif kind == "hall":
                q = _gen_hall(rng, pool)
            else:
                q = _gen_refused(rng, pool, sorts[i % len(sorts)])
            stream.append(q)
    rng.shuffle(stream)
    return stream
