"""The addcomb benchmark.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/` there, and the CLI runs as the `addcomb` console script would.
Workloads, metrics and bounds are described in bench/README.md and
BENCHMARK.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Human-readable lines
before it repeat every metric with its unit, plus failed_frac and the
environment.  Full results go to bench/out/, and the spans of a traced run
to bench/out/spans-<workload>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

from sweeps import (  # noqa: E402  (neither imports the library)
    Case,
    Spawner,
    check_output,
    cli_argv,
    expected_pairs,
    load_golden,
    x_rows,
)
from tracer import LAYERS, Tracer  # noqa: E402

# Why these workloads: see bench/README.md.  Each sweep workload is a set
# of CLI sweeps; the seed only shuffles their order.
SWEEP_WORKLOADS = {
    "sweep-full": (
        Case("cyclic:13", "CD-1813"),
        Case("dihedral:6", "Cor2.7"),
        Case("dihedral:6", "Thm2.2"),
        Case("cyclic:13", "Cor2.9"),
    ),
    "sweep-capped": (
        Case("cyclic:17", "Thm2.2", 2),
        Case("cyclic:40", "Cor2.9", 1),
        Case("cyclic:64", "Thm2.2", 1),
        Case("cyclic:16", "HK", 3),
        Case("dihedral:7", "Cor2.4", 3),
    ),
}
QUERY_CARRIERS = (
    tuple("cyclic:%d" % m for m in range(5, 17))
    + tuple("dihedral:%d" % k for k in range(3, 9))
    + ("quaternion8",)
    + tuple("maxchain:%d" % n for n in (5, 8, 12, 16))
    + tuple("leftzero:%d" % n for n in (5, 8, 12, 16))
)
WORKLOADS = tuple(SWEEP_WORKLOADS) + ("pair-queries",)

# Layer probes of the traced pair-queries run, which has no sweeps of its
# own: one full vectorized sweep, one prime-order sweep, one capped sweep.
QUERY_PROBE_CASES = (
    Case("dihedral:5", "Thm2.2"),
    Case("cyclic:11", "CD-1813"),
    Case("cyclic:20", "Cor2.9", 1),
)
QUERY_STARTUP_SPECS = ("cyclic:16", "dihedral:8", "maxchain:16")

SETUP_REPEATS = 15
BUILD_REPEATS = 5
STREAM_LENGTH = 10000  # distinct pair-queries; the stream repeats after this
WARMUP_QUERIES = 2000
PROBE_QUERIES = 600  # per-layer query probe of a traced sweep workload
QUERY_BLOCK = 200  # pair-queries figures take each block of the stream at its fastest repeat
AB_BLOCK = 256  # traced pair-queries alternate traced/untraced blocks

SETUP_BOOT = "import sys\nfrom addcomb.cli import parse_spec\nfor s in sys.argv[1:]: parse_spec(s)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "core.build_ms": "ms",
    "sweep.features_s": "s",
    "sweep.row_us": "us",
    "sweep.pair_us": "us",
    "sweep.applicable_frac": "frac",
    "sweep.jobs2_speedup": "ratio",
    "theorems.group_stmt_us": "us",
    "theorems.residue_stmt_us": "us",
    "constants.omega_us": "us",
    "constants.delta_us": "us",
    "setops.sumset_us": "us",
    "setops.span_is_commutative_us": "us",
    "localization.localize_us": "us",
    "localization.hall_check_us": "us",
    "localization.refused_frac": "frac",
    "transform.candidates_us": "us",
    "transform.apply_us": "us",
    "transform.audit_us": "us",
    "trace.overhead_frac": "frac",
}
for _layer in LAYERS:
    PER_LAYER_UNITS[_layer + ".self_s"] = "s"


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "addcomb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Run:
    """Counts, failures and timings of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, spawner=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.details: dict = {}
        self.tracer = Tracer() if traced else None
        self.spawner = spawner

    def outcome(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def spawn(self, argv: list[str], stdin: bytes | None = None):
        """Run a child from the source checkout, through the spawner."""
        return self.spawner.run(argv, child_env(), ROOT, stdin)


# ---------------------------------------------------------------------------
# Set-up: carriers and the fresh-interpreter set-up time
# ---------------------------------------------------------------------------


def build_carriers(run: Run, specs) -> dict:
    """Library carriers, each checked against the oracle's own table."""
    import oracles
    from addcomb.cli import parse_spec

    carriers = {}
    for spec in specs:
        A = parse_spec(spec)
        C = oracles.Carrier(spec)
        ok = A.table == C.table and A.is_group == C.group and A.identity == C.identity
        run.outcome(ok, "carrier %s differs from its oracle table" % spec)
        carriers[spec] = (spec, A, C)
    return carriers


class SetupSampler:
    """Wall times of a fresh interpreter importing addcomb and building
    every carrier of the workload.  The samples are spread over the run so
    that they fall in different phases of a shared machine's speed; the
    median is reported."""

    def __init__(self, run: Run, specs):
        self.run = run
        self.specs = specs
        self.walls: list[float] = []

    def due(self, elapsed: float) -> bool:
        return (
            len(self.walls) < SETUP_REPEATS
            and elapsed >= len(self.walls) * self.run.seconds / SETUP_REPEATS
        )

    def sample(self):
        proc = self.run.spawn([sys.executable, "-c", SETUP_BOOT, *self.specs])
        self.run.outcome(proc.code == 0, "set-up exit %d" % proc.code)
        self.walls.append(proc.wall_s)

    def median(self) -> float:
        while len(self.walls) < SETUP_REPEATS:
            self.sample()
        self.run.details["setup_walls_s"] = self.walls
        return statistics.median(self.walls)


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------


def cli_sweep(run: Run, case: Case, n: int, golden: dict, qid: int = -1):
    """One sweep command, checked against its golden output."""
    sid = run.tracer.begin("cli.sweep", -1, qid) if run.traced else None
    proc = run.spawn(cli_argv(case.argv()))
    if run.traced:
        run.tracer.finish(sid)
    problem = check_output(case, n, proc, golden)
    run.outcome(problem is None, "%s: %s" % (case.key, problem))
    return proc


def sweep_loop(run: Run, cases, carriers, setup: SetupSampler) -> dict:
    """Run the cases through the CLI in a seeded order, round after round.
    Once every case has run, the loop stops before a command that, at its
    fastest wall time so far, would end after --seconds."""
    golden = load_golden()
    order = list(cases)
    random.Random(run.seed).shuffle(order)
    walls = {case: [] for case in cases}
    rss = []
    t_start = time.perf_counter()
    i = 0
    while True:
        case = order[i % len(order)]
        if setup.due(time.perf_counter() - t_start):
            setup.sample()
        proc = cli_sweep(run, case, carriers[case.spec][2].n, golden, i)
        walls[case].append(proc.wall_s)
        rss.append(proc.maxrss_mb)
        i += 1
        if all(walls.values()):
            upcoming = min(walls[order[i % len(order)]])
            if time.perf_counter() - t_start + upcoming > run.seconds:
                break
    run.details["commands"] = {
        " ".join(case.argv()): w for case, w in walls.items()
    }
    run.details["loop_wall_s"] = time.perf_counter() - t_start
    run.details["loop_spans"] = i
    return {"walls": walls, "rss": rss}


def sweep_metrics(cases, carriers, loop) -> dict:
    """One pass over the set, each case at its median wall time.  A case
    runs three to ten times a run, too few for its fastest run to be
    steady (see README).  The latencies are those of the pass: a
    percentile over the 4-5 commands of one pass would rest on one or two
    of them."""
    med = {case: statistics.median(loop["walls"][case]) for case in cases}
    total = math.fsum(med.values())
    pairs = sum(expected_pairs(carriers[c.spec][2].n, c.max_size) for c in cases)
    return {
        "pairs_per_s": pairs / total,
        "queries_per_s": len(cases) / total,
        "query_p50_us": total * 1e6,
        "query_p99_us": total * 1e6,
        "peak_rss_mb": max(loop["rss"]),
    }


# ---------------------------------------------------------------------------
# pair-queries workload
# ---------------------------------------------------------------------------


class Samples:
    """Latencies of one side (traced or untraced) of the query loop: every
    timed call with its stream index, and each distinct query's least."""

    def __init__(self, length: int):
        self.latency = array("d")
        self.index = array("l")
        self.best = array("d", [math.inf]) * length

    def add(self, j: int, seconds: float):
        self.latency.append(seconds)
        self.index.append(j)
        if seconds < self.best[j]:
            self.best[j] = seconds


def query_loop(run: Run, stream, setup: SetupSampler, ab: bool) -> dict:
    """Closed loop, one client: the next query is sent when the last one
    returns, cycling through the stream in passes until --seconds have
    passed.  Without ab the loop stops at the end of a pass, so every pass
    runs each distinct query once.  Latency covers the library calls only;
    the oracle check runs outside the timed region.  With ab, blocks of
    AB_BLOCK queries alternate between traced and untraced, and each side
    keeps its own samples.  Also returns the canonical outcome of each
    query's first untraced run."""
    import queries

    tracer = run.tracer
    length = len(stream)
    samples = {False: Samples(length), True: Samples(length)}
    outcomes = [None] * length
    perf = time.perf_counter

    for q in stream[:WARMUP_QUERIES]:
        exc = result = None
        try:
            result = queries.execute(q)
        except Exception as e:  # checked against the oracle below
            exc = e
        run.outcome(queries.check(q, result, exc), "warm-up %s: %r" % (q.kind, exc))

    t_start = perf()
    deadline = t_start + run.seconds
    i = 0
    while True:
        if setup.due(perf() - t_start):
            setup.sample()
        j = i % length
        q = stream[j]
        traced = ab and (i // AB_BLOCK) % 2 == 1
        exc = result = None
        if traced:
            root = tracer.begin("bench.query", -1, i)
            call = lambda name, fn, *a: tracer.call(name, root, i, fn, *a)  # noqa: E731
            t0 = perf()
            try:
                result = queries.execute(q, call)
            except Exception as e:
                exc = e
            t1 = perf()
            tracer.finish(root)
        else:
            t0 = perf()
            try:
                result = queries.execute(q)
            except Exception as e:
                exc = e
            t1 = perf()
            if outcomes[j] is None:
                outcomes[j] = queries.canonical(result, exc)
        samples[traced].add(j, t1 - t0)
        run.outcome(queries.check(q, result, exc), "%s: %r" % (q.kind, exc))
        i += 1
        # with ab every query runs at least once each way
        if t1 >= deadline and (i >= 2 * length if ab else i % length == 0):
            break
    run.details["queries_run"] = i
    run.details["distinct_queries"] = length
    return {"samples": samples, "outcomes": outcomes}


def query_metrics(run: Run, stream, samples: Samples) -> dict:
    """Figures over a composite pass.  A pass runs every distinct query
    once, in stream order.  The stream is cut into blocks of QUERY_BLOCK
    consecutive queries, and each block is taken at its fastest repeat
    (least summed latency) over the passes; every call of that repeat
    counts.  Throughput is calls ÷ their summed latency, and p50 and p99
    are over the composite pass's calls.  A shared machine's slow phases
    only add time and come and go within a pass, so the median pass moves
    with them (see README)."""
    length = len(stream)
    lat = samples.latency
    passes = len(lat) // length
    assert all(samples.index[k * length] == 0 for k in range(passes)), "passes must start at the head"
    composite = array("d")
    for b0 in range(0, length, QUERY_BLOCK):
        b1 = min(b0 + QUERY_BLOCK, length)
        composite.extend(min((lat[k * length + b0 : k * length + b1] for k in range(passes)), key=math.fsum))
    stmt = [v for v, q in zip(composite, stream) if q.kind in ("statement", "residue") and q.refusal is None]
    run.details["pass_queries_per_s"] = [
        length / math.fsum(lat[k * length : (k + 1) * length]) for k in range(passes)
    ]
    return {
        "pairs_per_s": len(stmt) / math.fsum(stmt),
        "queries_per_s": length / math.fsum(composite),
        "query_p50_us": percentile(composite, 50) * 1e6,
        "query_p99_us": percentile(composite, 99) * 1e6,
    }


def query_memory(run: Run, stream, outcomes) -> float:
    """Peak RSS, in MB, of a child that builds the carriers and runs each
    distinct query once, holding only library inputs.  Its outcomes must
    equal the first untraced outcome of each query in the loop, which the
    oracles checked."""
    import pickle

    import queries

    specs = QUERY_CARRIERS
    slot = {spec: k for k, spec in enumerate(specs)}
    job = {
        "specs": specs,
        "queries": [(slot[q.C.spec],) + queries.wire(q) for q in stream],
    }
    argv = [sys.executable, os.path.join(BENCH_DIR, "query_child.py")]
    proc = run.spawn(argv, stdin=pickle.dumps(job))
    why = proc.err.decode(errors="replace")[-300:]
    run.outcome(proc.code == 0, "query child exit %d: %s" % (proc.code, why))
    child = pickle.loads(proc.out) if proc.code == 0 else [None] * len(stream)
    for q, mine, theirs in zip(stream, outcomes, child):
        run.outcome(mine is not None and mine == theirs, "query child %s differs" % q.kind)
    return proc.maxrss_mb


# ---------------------------------------------------------------------------
# Per-layer probes of the traced run
# ---------------------------------------------------------------------------


def probe_build(run: Run, specs) -> float:
    """Mean over carriers of the median in-process parse_spec time, in ms."""
    from addcomb.cli import parse_spec

    per_spec = []
    for spec in specs:
        walls = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            run.tracer.call("core.build", -1, -1, parse_spec, spec)
            walls.append(time.perf_counter() - t0)
        per_spec.append(statistics.median(walls))
    return statistics.fmean(per_spec) * 1e3


def probe_startup(run: Run, carriers, specs) -> float:
    """Median wall time of a no-work `addcomb sumset` call."""
    walls = []
    for spec in specs:
        argv = cli_argv(["sumset", "--semigroup", spec, "--x", "{0}", "--y", "{0}", "--json"])
        sid = run.tracer.begin("cli.sumset")
        proc = run.spawn(argv)
        run.tracer.finish(sid)
        C = carriers[spec][2]
        ok = proc.code == 0 and json.loads(proc.out)["payload"]["sum"] == "{%d}" % C.table[0][0]
        run.outcome(ok, "sumset on %s: exit %d" % (spec, proc.code))
        walls.append(proc.wall_s)
    return statistics.median(walls)


def probe_sweeps(run: Run, cases, carriers, cli_walls) -> dict:
    """In-process sweeps of the cases: the feature build (a cap-1 sweep),
    the full sweep at the case's --jobs, and a --jobs 1 against --jobs 2
    comparison on the case with the most X rows."""
    from addcomb import sweep

    tr = run.tracer
    feat = rows_time = full_time = 0.0
    rows = pairs = applicable = 0
    overheads = []
    widest = None
    for case in cases:
        _, A, C = carriers[case.spec]
        f = 0.0
        if case.max_size != 1:
            t0 = time.perf_counter()
            tr.call("sweep.features", -1, -1, sweep, A, case.statement, 1, 1)
            f = time.perf_counter() - t0
        t0 = time.perf_counter()
        s = tr.call("sweep.sweep", -1, -1, sweep, A, case.statement, case.max_size, case.jobs)
        t = time.perf_counter() - t0
        want = expected_pairs(C.n, case.max_size)
        run.outcome(
            s.pairs == want and s.violation_count == 0,
            "in-process %s: pairs %d, violations %d" % (case.key, s.pairs, s.violation_count),
        )
        n_rows = x_rows(C.n, case.max_size)
        feat += f
        rows_time += max(t - f, 0.0)
        full_time += t
        rows += n_rows
        pairs += s.pairs
        applicable += s.applicable
        overheads.append(cli_walls[case] - t)
        if widest is None or n_rows > widest[2]:
            widest = (case, t, n_rows)
    case, t, _ = widest
    other = 1 if case.jobs != 1 else 2
    t0 = time.perf_counter()
    tr.call("sweep.sweep", -1, -1, sweep, carriers[case.spec][1], case.statement, case.max_size, other)
    t_other = time.perf_counter() - t0
    serial, parallel = (t, t_other) if case.jobs == 1 else (t_other, t)
    return {
        "cli.overhead_s": statistics.median(overheads),
        "sweep.features_s": feat,
        "sweep.row_us": rows_time / rows * 1e6,
        "sweep.pair_us": full_time / pairs * 1e6,
        "sweep.applicable_frac": applicable / pairs,
        "sweep.jobs2_speedup": serial / parallel,
    }


def probe_queries(run: Run, carriers) -> None:
    """A fixed-size stream over the workload's carriers, every call traced."""
    import queries

    tr = run.tracer
    for qid, q in enumerate(queries.make_stream(list(carriers.values()), PROBE_QUERIES, run.seed)):
        root = tr.begin("bench.query", -1, qid)
        call = lambda name, fn, *a: tr.call(name, root, qid, fn, *a)  # noqa: E731
        exc = result = None
        try:
            result = queries.execute(q, call)
        except Exception as e:
            exc = e
        tr.finish(root)
        run.outcome(queries.check(q, result, exc), "probe %s: %r" % (q.kind, exc))


def query_layer_metrics(tracer) -> dict:
    """Median span time of each call kind, and the refused share of
    localize calls."""
    durations = tracer.durations_by_name()

    def med_us(name):
        values = durations.get(name)
        return statistics.median(values) * 1e6 if values else float("nan")

    localize_ok = len(durations.get("localization.localize", ()))
    localize_refused = len(durations.get("localization.localize:refused", ()))
    return {
        "theorems.group_stmt_us": med_us("theorems.run_statement:group"),
        "theorems.residue_stmt_us": med_us("theorems.run_statement:residue"),
        "constants.omega_us": med_us("constants.omega"),
        "constants.delta_us": med_us("constants.delta"),
        "setops.sumset_us": med_us("setops.sumset"),
        "setops.span_is_commutative_us": med_us("setops.span_is_commutative"),
        "localization.localize_us": med_us("localization.localize"),
        "localization.hall_check_us": med_us("localization.hall_check"),
        "localization.refused_frac": localize_refused / max(1, localize_ok + localize_refused),
        "transform.candidates_us": med_us("transform.candidates"),
        "transform.apply_us": med_us("transform.apply"),
        "transform.audit_us": med_us("transform.audit"),
    }


# ---------------------------------------------------------------------------
# Driving one run
# ---------------------------------------------------------------------------


def run_sweep_workload(run: Run) -> dict:
    cases = SWEEP_WORKLOADS[run.workload]
    specs = tuple(dict.fromkeys(c.spec for c in cases))
    carriers = build_carriers(run, specs)
    setup = SetupSampler(run, specs)
    loop = sweep_loop(run, cases, carriers, setup)
    if not run.traced:
        return {"setup_s": setup.median(), **sweep_metrics(cases, carriers, loop)}
    cost = run.tracer.cost_per_span()
    overhead = cost * run.details["loop_spans"] / run.details["loop_wall_s"]
    cli_walls = {case: statistics.median(w) for case, w in loop["walls"].items()}
    metrics = {
        "cli.startup_s": probe_startup(run, carriers, specs),
        "core.build_ms": probe_build(run, specs),
        **probe_sweeps(run, cases, carriers, cli_walls),
    }
    probe_queries(run, carriers)
    metrics.update(query_layer_metrics(run.tracer))
    metrics["trace.overhead_frac"] = overhead
    return metrics


def run_query_workload(run: Run) -> dict:
    import queries

    carriers = build_carriers(run, QUERY_CARRIERS)
    stream = queries.make_stream(list(carriers.values()), STREAM_LENGTH, run.seed)
    setup = SetupSampler(run, QUERY_CARRIERS)
    loop = query_loop(run, stream, setup, ab=run.traced)
    untraced = loop["samples"][False]
    if not run.traced:
        return {
            "setup_s": setup.median(),
            **query_metrics(run, stream, untraced),
            "peak_rss_mb": query_memory(run, stream, loop["outcomes"]),
        }
    traced = loop["samples"][True]
    both = [j for j in range(len(stream)) if max(untraced.best[j], traced.best[j]) < math.inf]
    overhead = 1.0 - math.fsum(untraced.best[j] for j in both) / math.fsum(
        traced.best[j] for j in both
    )
    metrics = query_layer_metrics(run.tracer)
    probe_carriers = build_carriers(run, tuple(c.spec for c in QUERY_PROBE_CASES))
    golden = load_golden()
    cli_walls = {
        case: cli_sweep(run, case, probe_carriers[case.spec][2].n, golden).wall_s
        for case in QUERY_PROBE_CASES
    }
    metrics.update(
        {
            "cli.startup_s": probe_startup(run, carriers, QUERY_STARTUP_SPECS),
            "core.build_ms": probe_build(run, QUERY_CARRIERS),
            **probe_sweeps(run, QUERY_PROBE_CASES, probe_carriers, cli_walls),
            "trace.overhead_frac": overhead,
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "addcomb", "__init__.py")):
        print("error: no addcomb sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        # one fresh process per workload, so peak RSS is each one's own
        codes = [
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    # the spawner starts before anything big is loaded (see spawner.py)
    with Spawner() as spawner:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), spawner)
        env = environment(args.seed)
        if args.workload in SWEEP_WORKLOADS:
            metrics = run_sweep_workload(run)
        else:
            metrics = run_query_workload(run)
    if run.traced:
        for layer, seconds in run.tracer.self_seconds_by_layer().items():
            metrics[layer + ".self_s"] = seconds
    units = PER_LAYER_UNITS if run.traced else END_TO_END_UNITS
    missing = [name for name in units if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        print("error: no measurement for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    failed_frac = run.failed / run.attempted
    reported = {name: {"value": metrics[name], "unit": units[name]} for name in units}

    print("env %s" % json.dumps(env, sort_keys=True))
    print(
        "workload %s seed %d trace %d: %d attempted, %d failed"
        % (run.workload, run.seed, args.trace, run.attempted, run.failed)
    )
    if "queries_run" in run.details:
        print(
            "samples %d timed queries over %d distinct"
            % (run.details["queries_run"], run.details["distinct_queries"])
        )
    if "commands" in run.details:
        print("samples %d sweep commands" % run.details["loop_spans"])
    for name in units:
        print("metric %s = %.6g %s" % (name, metrics[name], units[name]))
    print("metric failed_frac = %.6g frac" % failed_frac)
    for what in run.failures:
        print("FAILED %s" % what)

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "env": env,
        "workload": run.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": failed_frac,
        "failures": run.failures,
        "metrics": reported,
        "details": run.details,
    }
    stem = "%s-seed%d-trace%d" % (run.workload, run.seed, args.trace)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if run.traced:
        run.tracer.write(
            os.path.join(OUT_DIR, "spans-%s.jsonl.gz" % run.workload),
            {"workload": run.workload, "seed": run.seed, "env": env},
        )

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
