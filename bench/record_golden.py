"""Record golden.json: the SHA-256 of each benchmark sweep's `--json`
stdout, with its pair count.

    python3 bench/record_golden.py

Run it from the root of a checkout of the commit whose reports are the
reference; every later commit must reproduce these bytes.  Each case runs
serially and, as a cross-check, with --jobs 2; the two outputs must match.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from sweeps import GOLDEN_PATH, Case, cli_argv, run_process


def main() -> int:
    cases = {}
    for case in [c for group in run.SWEEP_WORKLOADS.values() for c in group]:
        cases[case.key] = case
    for case in run.QUERY_PROBE_CASES:
        cases[case.key] = case
    golden = {}
    for key, case in sorted(cases.items()):
        outs = []
        for jobs in (1, 2):
            c = Case(case.spec, case.statement, case.max_size, jobs)
            proc = run_process(cli_argv(c.argv()), run.child_env(), run.ROOT)
            if proc.code != 0:
                print("error: %s exited %d" % (key, proc.code), file=sys.stderr)
                return 1
            outs.append(proc.out)
        if outs[0] != outs[1]:
            print("error: %s differs between --jobs 1 and 2" % key, file=sys.stderr)
            return 1
        payload = json.loads(outs[0])["payload"]
        golden[key] = {
            "sha256": hashlib.sha256(outs[0]).hexdigest(),
            "pairs": payload["pairs"],
            "applicable": payload["applicable"],
        }
        print(key, golden[key])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
