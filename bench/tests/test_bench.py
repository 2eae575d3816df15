"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

Workloads are shrunk to small carriers so each run takes seconds; golden
hashes for the small cases are recorded on the fly from the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import queries  # noqa: E402
import run  # noqa: E402
import sweeps  # noqa: E402
from addcomb import audit_transform, localize, omega  # noqa: E402

SMALL = {
    "sweep-full": (sweeps.Case("cyclic:7", "CD-1813"), sweeps.Case("dihedral:3", "Cor2.7")),
    "sweep-capped": (sweeps.Case("cyclic:18", "Cor2.9", 1), sweeps.Case("dihedral:4", "Thm2.2", 2)),
}
PROBE = (sweeps.Case("cyclic:6", "Thm2.2"), sweeps.Case("cyclic:17", "Cor2.9", 1))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def small_golden():
    golden = {}
    for case in [c for group in SMALL.values() for c in group] + list(PROBE):
        proc = sweeps.run_process(sweeps.cli_argv(case.argv()), run.child_env(), ROOT)
        assert proc.code == 0, proc.err
        golden[case.key] = {"sha256": hashlib.sha256(proc.out).hexdigest()}
    return golden


@pytest.fixture
def small(monkeypatch, tmp_path, small_golden):
    monkeypatch.setattr(run, "SWEEP_WORKLOADS", SMALL)
    monkeypatch.setattr(run, "QUERY_PROBE_CASES", PROBE)
    carriers = ("cyclic:6", "dihedral:3", "maxchain:5", "leftzero:4")
    monkeypatch.setattr(run, "QUERY_CARRIERS", carriers)
    monkeypatch.setattr(run, "QUERY_STARTUP_SPECS", ("cyclic:6",))
    monkeypatch.setattr(run, "STREAM_LENGTH", 400)
    monkeypatch.setattr(run, "WARMUP_QUERIES", 100)
    monkeypatch.setattr(run, "PROBE_QUERIES", 200)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "BUILD_REPEATS", 2)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "load_golden", lambda: small_golden)


def _run(capsys, workload, trace, seconds="0.3"):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(small, capsys, workload, trace):
    out, result = _run(capsys, workload, trace)
    spec = _benchmark_json()["end_to_end" if trace == 0 else "per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for m in spec:
        assert any(
            line.startswith("metric %s = " % m["name"]) and line.endswith(" " + m["unit"])
            for line in out
        )
    assert "metric failed_frac = 0 frac" in out
    env = json.loads(next(line for line in out if line.startswith("env "))[4:])
    assert {"nproc", "cpu", "python", "numpy", "seed", "git_commit"} <= set(env)


def test_corrupted_sweep_output_raises_failed_frac(small, capsys, monkeypatch):
    real = run.Run.spawn

    def corrupt(self, argv, stdin=None):
        proc = real(self, argv, stdin)
        if "sweep" in argv:
            proc.out = proc.out.replace(b'"pairs":', b'"pairs": ')
        return proc

    monkeypatch.setattr(run.Run, "spawn", corrupt)
    out, result = _run(capsys, "sweep-full", 0)
    assert result["correct"] is False and result["failed"] >= 2
    failed_frac = float(next(l for l in out if l.startswith("metric failed_frac")).split()[3])
    assert failed_frac > 0


def test_check_output_rejects_wrong_bytes_counts_and_violations(small_golden):
    case = SMALL["sweep-full"][0]
    proc = sweeps.run_process(sweeps.cli_argv(case.argv()), run.child_env(), ROOT)
    assert sweeps.check_output(case, 7, proc, small_golden) is None
    assert sweeps.check_output(case, 8, proc, small_golden) is not None  # pair count
    proc.out = proc.out[:-1]
    assert sweeps.check_output(case, 7, proc, small_golden) is not None
    proc.code = 3
    assert sweeps.check_output(case, 7, proc, small_golden) is not None


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("sumset", lambda A, X, Y: X),
        ("hall_check", lambda sets: (True, None)),
        ("omega", lambda A, Z: omega(A, Z.__class__(Z.n, 1))),
        ("localize", lambda A, X, Y: localize(A, Y, Y)),
        ("audit_transform", lambda A, X, Y, r: audit_transform(A, X, X, r)),
    ],
)
def test_wrong_query_result_raises_failed_frac(small, capsys, monkeypatch, name, wrong):
    monkeypatch.setattr(queries, name, wrong)
    out, result = _run(capsys, "pair-queries", 0)
    assert result["correct"] is False and result["failed"] > 0
    assert not any(l == "metric failed_frac = 0 frac" for l in out)


def test_query_figures_take_each_block_at_its_fastest_repeat(monkeypatch):
    class Q:
        def __init__(self, kind):
            self.kind, self.refusal = kind, None

    monkeypatch.setattr(run, "QUERY_BLOCK", 50)
    stream = [Q("statement" if j % 50 < 10 else "localize") for j in range(100)]
    latency = (
        # block A is fastest in pass 0 even with its stall, which must count;
        # block B is fastest in pass 1
        [1e-3 if j == 10 else 1e-6 for j in range(50)] + [1e-4] * 50,
        [3e-5] * 50 + [2e-5] * 50,
        [1e-4] * 100,
    )
    samples = run.Samples(len(stream))
    for seconds in latency:
        for j, v in enumerate(seconds):
            samples.add(j, v)
    figures = run.query_metrics(run.Run("pair-queries", 1, 1, False), stream, samples)
    assert figures["queries_per_s"] == pytest.approx(100 / (49e-6 + 1e-3 + 50 * 2e-5))
    assert figures["pairs_per_s"] == pytest.approx(20 / (10 * 1e-6 + 10 * 2e-5))
    assert figures["query_p50_us"] == pytest.approx(20.0)
    assert figures["query_p99_us"] == pytest.approx(20.0)


def test_predicted_refusal_counts_as_success_and_missing_one_as_failure(small):
    probe = run.Run("pair-queries", 1, 1, False)
    carriers = run.build_carriers(probe, ("maxchain:5", "cyclic:6", "leftzero:4"))
    stream = queries.make_stream(list(carriers.values()), 200, 5)
    refused = [q for q in stream if q.refusal is not None]
    assert refused
    for q in refused:
        exc = None
        try:
            queries.execute(q)
        except Exception as e:  # the refusal under test
            exc = e
        assert queries.check(q, None, exc)
        assert not queries.check(q, None, None)


def test_child_peak_rss_is_its_own():
    ballast = bytearray(100 << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    with sweeps.Spawner() as spawner:
        proc = spawner.run([sys.executable, "-c", "pass"], dict(os.environ), ROOT)
    assert proc.code == 0 and 0 < proc.maxrss_mb < 60


def test_query_child_outcomes_are_compared(small):
    with sweeps.Spawner() as spawner:
        _query_child_outcomes_are_compared(run.Run("pair-queries", 1, 1, False, spawner))


def _query_child_outcomes_are_compared(probe):
    carriers = run.build_carriers(probe, run.QUERY_CARRIERS)
    stream = queries.make_stream(list(carriers.values()), 200, 5)
    outcomes = []
    for q in stream:
        q2 = queries.unwire(q.A, *queries.wire(q))
        exc = result = None
        try:
            result = queries.execute(q2)
        except Exception as e:  # a predicted refusal
            exc = e
        assert queries.check(q, result, exc)
        outcomes.append(queries.canonical(result, exc))
    assert run.query_memory(probe, stream, outcomes) > 0
    assert probe.failed == 0 and probe.attempted == 1 + len(stream) + len(carriers)
    outcomes[7] = ("raised", "NotGroup", None)
    run.query_memory(probe, stream, outcomes)
    assert probe.failed == 1


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    argv = ["--workload", "pair-queries", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
