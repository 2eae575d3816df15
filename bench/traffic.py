"""Measure the library-call traffic of the tier-1 test suite.

    python3 bench/traffic.py            # from the root of a source checkout

It wraps every public function of `addcomb` in a counter, runs the tier-1
suite (`tests/`) in this process with pytest, and prints how often each
function was called from outside the library and how often it refused, then
the share of each pair-queries kind that those counts give, and the quota
of each kind: its share, raised to FLOOR so that every kind is measured,
then scaled to sum to 1.  The library calls its own functions through its
submodules, so only the calls that the tests make are counted.  QUOTAS in
`queries.py` are the quotas it printed (see bench/README.md).  It takes as
long as the suite, a few minutes.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Each call of a layer's entry point counts as one query of the kind that
# exercises that layer.  The calls a query makes after its first one
# (cd_constant, span_is_commutative, apply_transform, audit_transform) are
# not counted.  A call that raises a refusal counts as a "refused" query.
ANCHORS = {
    "run_statement": "statement",
    "verify_main": "statement",
    "verify_cd": "statement",
    "verify_hk": "statement",
    "verify_kemperman_weak": "statement",
    "verify_mirror": "statement",
    "verify_zmod": "residue",
    "omega": "constants",
    "omega_pair": "constants",
    "delta": "constants",
    "pillai_delta": "constants",
    "sumset": "setops",
    "n_fold": "setops",
    "left_difference": "setops",
    "right_difference": "setops",
    "span_check": "setops",
    "localize": "localize",
    "transform_candidates": "transform",
    "hall_check": "hall",
}
RESIDUE_STATEMENTS = {"Chowla", "Pillai", "Cor2.9"}
KINDS = ("statement", "residue", "constants", "setops", "localize", "transform", "hall", "refused")
FLOOR = 0.01


def main() -> int:
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
    )
    import addcomb
    import pytest
    from addcomb.errors import EmptyTransform, NotGroup, NotUnital, PreconditionFailed

    refusals = (EmptyTransform, NotGroup, NotUnital, PreconditionFailed)
    calls = collections.Counter()
    refused = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name
            if name == "run_statement" and len(args) > 1:
                try:
                    if addcomb.normalize_statement(args[1]) in RESIDUE_STATEMENTS:
                        key = "run_statement:residue"
                except Exception:
                    pass
            calls[key] += 1
            try:
                return fn(*args, **kwargs)
            except refusals:
                refused[key] += 1
                raise

        return wrapper

    for name in addcomb.__all__:
        obj = getattr(addcomb, name)
        if inspect.isfunction(obj):
            setattr(addcomb, name, counted(name, obj))

    code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])

    kinds = collections.Counter()
    for key, count in calls.items():
        name = key.split(":")[0]
        kind = "residue" if key == "run_statement:residue" else ANCHORS.get(name)
        if kind is None:
            continue
        kinds["refused"] += refused[key]
        kinds[kind] += count - refused[key]
    total = sum(kinds.values())
    print(json.dumps({"pytest_exit": int(code), "calls": dict(calls.most_common()),
                      "refused": dict(refused.most_common())}, indent=1))
    raised = {kind: max(FLOOR, kinds[kind] / total) for kind in KINDS}
    scale = sum(raised.values())
    for kind in KINDS:
        print("%-10s calls %8d  share %.4f  quota %.3f"
              % (kind, kinds[kind], kinds[kind] / total, raised[kind] / scale))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
