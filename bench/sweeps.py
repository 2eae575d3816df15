"""Sweep cases: run through the CLI, checked against golden outputs.

A case is one `addcomb sweep` command line.  Its canonical `--json` stdout
must match the SHA-256 recorded in golden.json (the byte-identical report
contract); the summary must also count the number of subset pairs that
the carrier order and size cap give, and report no violation, since every
catalogued statement is a theorem.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

# what the `addcomb` console script runs
CLI_BOOT = "import sys; from addcomb.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Case:
    spec: str
    statement: str
    max_size: int | None = None
    jobs: int = 1

    @property
    def key(self) -> str:
        """Golden key: the report does not depend on --jobs."""
        cap = "" if self.max_size is None else " --max-size %d" % self.max_size
        return "%s %s%s" % (self.spec, self.statement, cap)

    def argv(self) -> list[str]:
        argv = ["sweep", "--semigroup", self.spec, "--statement", self.statement, "--json"]
        if self.max_size is not None:
            argv += ["--max-size", str(self.max_size)]
        if self.jobs != 1:
            argv += ["--jobs", str(self.jobs)]
        return argv


def x_rows(n: int, max_size: int | None) -> int:
    """Non-empty subsets of an n-element carrier within the size cap."""
    top = n if max_size is None else min(n, max_size)
    return sum(math.comb(n, k) for k in range(1, top + 1))


def expected_pairs(n: int, max_size: int | None) -> int:
    return x_rows(n, max_size) ** 2


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Proc:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_mb: float


def run_process(argv: list[str], env: dict, cwd: str, stdin: bytes | None = None) -> Proc:
    """Run to completion; the wall time spans start to reap, and the peak
    resident size covers the process and every child it reaped.  A process
    given stdin must read all of it before it writes to stdout."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
    )
    err_box = []
    reader = threading.Thread(target=lambda: err_box.append(p.stderr.read()))
    reader.start()
    if stdin is not None:
        try:
            p.stdin.write(stdin)
            p.stdin.close()
        except BrokenPipeError:  # the child died early; its exit code says why
            pass
    out = p.stdout.read()
    reader.join()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return Proc(p.returncode, out, err_box[0], wall, usage.ru_maxrss / 1024.0)


class Spawner:
    """Runs child processes through `spawner.py`, so that each child's peak
    RSS is its own and not the benchmark's.  Use it in a `with` block,
    which stops the spawner at the end."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=BENCH_DIR,
        )

    def run(self, argv: list[str], env: dict, cwd: str, stdin: bytes | None = None) -> Proc:
        """`run_process` in the spawner."""
        pickle.dump((argv, env, cwd, stdin), self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_BOOT] + args


def check_output(case: Case, n: int, proc: Proc, golden: dict) -> str | None:
    """None when the command's output is right, else why it is not."""
    if proc.code != 0:
        return "exit %d: %s" % (proc.code, proc.err.decode(errors="replace")[-300:])
    want = golden.get(case.key)
    if want is None:
        return "no golden output recorded for %r" % case.key
    if hashlib.sha256(proc.out).hexdigest() != want["sha256"]:
        return "stdout differs from the golden report"
    try:
        payload = json.loads(proc.out)["payload"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a sweep report"
    if payload.get("pairs") != expected_pairs(n, case.max_size):
        return "pairs %r, expected %d" % (payload.get("pairs"), expected_pairs(n, case.max_size))
    if payload.get("violation_count") != 0:
        return "violation_count %r" % payload.get("violation_count")
    return None
