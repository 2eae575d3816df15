"""Every public single call keeps its outcomes: a seeded battery, hashed.

The battery makes each public single call of the library (core, setops,
constants, theorems, localization, transform) on built-in carriers,
products, unitizations and closures of random maps, with empty sets, sets
over the wrong carrier, monoids, refusals and malformed transform results.
Each outcome is the repr of the result, or the exception's class, message
and failed hypotheses.  The SHA-256 of all of them is pinned: a change to
any result, refusal or message changes it.  `battery` takes its carriers
and sizes as arguments, so a longer run can compare two source trees.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import addcomb as ac

# the outcomes of battery(CARRIERS, SEED, PAIRS), recorded before the
# single calls skipped rebuilding and re-checking their own results; re-pinned
# when apply_transform came to refuse a non-int z, which turned the 394
# z = "a" outcomes from a TypeError into CandidateInvalid and changed no other
DIGEST = "60b246a70cbe76f80eea6a088ec515e36f80a04caae418a253eca7d07a3f9b98"
SEED = 20261019
PAIRS = 40


def map_carrier(seed: int, k: int = 4, max_order: int = 16) -> ac.FiniteSemigroup:
    """The closure of two random self-maps of {0..k-1} under composition,
    or of the first alone when the two generate more than max_order maps."""
    rng = random.Random(seed)
    gens = [tuple(rng.randrange(k) for _ in range(k)) for _ in range(2)]
    while True:
        elements, frontier = [], list(gens)
        while frontier and len(elements) <= max_order:
            f = frontier.pop(0)
            if f not in elements:
                elements.append(f)
                frontier += [tuple(g[v] for v in f) for g in gens]
        if len(elements) <= max_order:
            break
        gens = gens[:1]
    index = {f: i for i, f in enumerate(elements)}
    table = [[index[tuple(g[v] for v in f)] for g in elements] for f in elements]
    return ac.build_semigroup(table, label="maps:%d" % seed)


def carriers():
    return [
        ac.cyclic(1),
        ac.cyclic(5),
        ac.cyclic(7),
        ac.cyclic(12),
        ac.dihedral(3),
        ac.dihedral(4),
        ac.quaternion8(),
        ac.product(ac.cyclic(2), ac.cyclic(4)),
        ac.product(ac.cyclic(2), ac.maxchain(3)),
        ac.maxchain(4),
        ac.leftzero(3),
        ac.unitization(ac.leftzero(3)),
        map_carrier(1),
        map_carrier(2),
        ac.unitization(map_carrier(3)),
    ]


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # every refusal is an outcome too
        return "%s: %s %r" % (type(exc).__name__, exc, getattr(exc, "failed", None))


def _random_set(rng: random.Random, n: int) -> ac.ElementSet:
    size = rng.choice((0, 1, 1, 2, 2, 3, 3, 4, n // 2, n))
    return ac.ElementSet.from_elements(n, rng.sample(range(n), min(size, n)))


def _carrier_outcomes(A, rng: random.Random, pairs: int):
    n = A.n
    foreign = ac.ElementSet(n + 1, 1)
    yield _outcome(ac.p_constant, A)
    for z in (-1, 0, n - 1, n, True):
        yield _outcome(ac.element_order, A, z)
    yield _outcome(ac.span_is_commutative, A, foreign)
    yield _outcome(ac.omega, A, foreign)
    yield _outcome(ac.sumset, A, foreign, A.full_set())
    yield _outcome(ac.run_statement, A, "HK", foreign, A.full_set())
    yield _outcome(ac.run_statement, A, "Chowla", foreign, A.full_set())
    yield _outcome(ac.localize, A, A.full_set(), foreign)
    yield _outcome(ac.transform_candidates, A, (1,), A.full_set())
    for k in (21, 22, 23):  # families of many rows
        yield _outcome(ac.hall_check, [_random_set(rng, n) for _ in range(k)])
    for _ in range(pairs):
        X, Y = _random_set(rng, n), _random_set(rng, n)
        yield from _pair_outcomes(A, X, Y, rng)


def _pair_outcomes(A, X, Y, rng: random.Random):
    n = A.n
    for fn in (ac.sumset, ac.right_difference, ac.left_difference, ac.span_check):
        yield _outcome(fn, A, X, Y)
    for k in (0, 1, 2, 5):
        yield _outcome(ac.n_fold, A, X, k)
    yield _outcome(ac.generated_subsemigroup, A, Y)
    yield _outcome(ac.centralizer, A, X)
    yield _outcome(ac.span_is_commutative, A, Y)
    yield _outcome(ac.omega, A, Y)
    yield _outcome(ac.omega_pair, A, X, Y)
    yield _outcome(ac.cd_constant, A, X, Y)
    for fn in (ac.delta, ac.pillai_delta, ac.omega_gcd_crosscheck):
        yield _outcome(fn, n, Y)
    for statement in ac.STATEMENTS + ("cd", "KEMPERMAN", "nope"):
        yield _outcome(ac.run_statement, A, statement, X, Y)
    for fn in (
        ac.verify_cd,
        ac.verify_main,
        ac.verify_mirror,
        ac.verify_kemperman_weak,
        ac.verify_hk,
    ):
        yield _outcome(fn, A, X, Y)
    yield _outcome(ac.verify_zmod, n, X, Y)
    yield _outcome(ac.sum_matrix, A, X, Y)
    yield _outcome(ac.localize, A, X, Y)
    if X.mask and Y.mask:
        xy = ac.sumset(A, X, Y).elements()
        Z = ac.ElementSet.from_elements(n, rng.sample(xy, min(len(xy), len(Y) - 1)))
        yield _outcome(ac.localize, A, X, Y, Z)
        yield _outcome(ac.localize, A, X, Y, ac.ElementSet.full(n))
    yield _outcome(ac.hall_check, [X, Y, ac.sumset(A, X, Y)])
    yield from _transform_outcomes(A, X, Y)


def _transform_outcomes(A, X, Y):
    n = A.n
    for m in (0, 1, 2):
        yield _outcome(ac.transform_candidates, A, X, Y, m)
    try:
        candidates = ac.transform_candidates(A, X, Y, 1).elements()
    except Exception:
        candidates = ()
    for z in (-1, n, "a") + candidates[:1]:
        yield _outcome(ac.apply_transform, A, X, Y, 1, z)
    for z in candidates:
        result = ac.apply_transform(A, X, Y, 1, z)
        yield repr(result)
        yield _outcome(ac.audit_transform, A, X, Y, result)
        # malformed results: z outside the carrier, a bool x_z
        fields = dict(m=result.m, z=result.z, x_z=result.x_z, y_z=result.y_z,
                      y_tilde=result.y_tilde, y_prime=result.y_prime)
        for bad in (ac.TransformResult(**{**fields, "z": n}),
                    ac.TransformResult(**{**fields, "x_z": True})):
            yield _outcome(ac.audit_transform, A, X, Y, bad)
    malformed = [SimpleNamespace(y_prime=ac.ElementSet(n, 0))]
    if Y.mask:
        malformed[:0] = [
            SimpleNamespace(y_prime=Y, y_tilde=ac.ElementSet(n + 1, 0), x_z=0, z=0),
            SimpleNamespace(y_prime=Y),
            SimpleNamespace(y_prime=Y, y_tilde=Y, x_z=-1, z=0),
        ]
    for result in malformed:
        yield _outcome(ac.audit_transform, A, X, Y, result)


def battery(carrier_list, seed: int, pairs: int):
    """The outcome strings of the battery, in order."""
    rng = random.Random(seed)
    for A in carrier_list:
        yield A.label
        yield from _carrier_outcomes(A, rng, pairs)


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for line in outcomes:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_single_call_outcomes_match_the_recorded_digest():
    assert digest(battery(carriers(), SEED, PAIRS)) == DIGEST
