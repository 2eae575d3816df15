"""Run a pair-queries stream once, in a process that holds only library inputs.

run.py starts this script with PYTHONPATH set to the library's sources and
sends it, as a pickle on stdin, {"specs": [...], "queries": [(carrier index,
kind, span, args), ...]} with the args in the plain form of `queries.wire`.
It builds the carriers, runs every query once, and writes the list of
`queries.canonical` outcomes to stdout as a pickle.  Its peak resident size
is the pair-queries `peak_rss_mb`: library state, not the benchmark's oracle
verdicts or latency arrays.
"""

from __future__ import annotations

import pickle
import sys

import queries
from addcomb.cli import parse_spec


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    carriers = [parse_spec(spec) for spec in job["specs"]]
    outcomes = []
    for index, kind, span, args in job["queries"]:
        q = queries.unwire(carriers[index], kind, span, args)
        exc = result = None
        try:
            result = queries.execute(q)
        except Exception as e:  # compared with the parent's checked outcome
            exc = e
        outcomes.append(queries.canonical(result, exc))
    pickle.dump(outcomes, sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
