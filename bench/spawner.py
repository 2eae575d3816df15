"""Start the benchmark's child processes from a small process of their own.

Linux carries a process's peak resident size across fork and exec, so a
child started straight from the benchmark would report at least the
benchmark's own size as its peak.  `sweeps.Spawner` starts this script
before the benchmark loads the library or numpy, and has it start every
child.  Each request on stdin is a pickle of (argv, env, cwd, stdin bytes
or None); each reply on stdout is a pickle of the `sweeps.Proc` that
`sweeps.run_process` returns.  It exits when its stdin closes.
"""

from __future__ import annotations

import pickle
import sys

from sweeps import run_process


def main() -> int:
    while True:
        try:
            argv, env, cwd, stdin = pickle.load(sys.stdin.buffer)
        except EOFError:
            return 0
        pickle.dump(run_process(argv, env, cwd, stdin), sys.stdout.buffer)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    sys.exit(main())
