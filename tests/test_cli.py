"""Command-line surface: spec grammar, exit codes, output formats."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

import addcomb as ac
import addcomb.exhaustive as exhaustive
from addcomb import cli


def run_capture(capsys, argv):
    report, code = cli.run(argv)
    out = capsys.readouterr()
    return report, code, out.out, out.err


# ---------------------------------------------------------------------------
# Carrier spec grammar
# ---------------------------------------------------------------------------


def test_parse_spec_basic():
    assert cli.parse_spec("cyclic:12").n == 12
    assert cli.parse_spec("dihedral:4").n == 8
    assert cli.parse_spec("quaternion8").n == 8
    assert cli.parse_spec("leftzero:3").n == 3
    assert cli.parse_spec("maxchain:5").n == 5


def test_parse_spec_product():
    A = cli.parse_spec("product:(cyclic:2,cyclic:3)")
    assert A.n == 6 and A.is_commutative
    B = cli.parse_spec("product:(cyclic:2,product:(cyclic:2,cyclic:2))")
    assert B.n == 8 and B.is_group
    C = cli.parse_spec("product:(cyclic:2,dihedral:3)")
    assert C.n == 12 and not C.is_commutative


def test_parse_spec_errors():
    with pytest.raises(ac.UnknownSpec):
        cli.parse_spec("frobnicate:3")
    for bad in ("cyclic:x", "cyclic:", "cyclic", "product:(cyclic:2)", "product:cyclic:2"):
        with pytest.raises(ac.ParseError):
            cli.parse_spec(bad)


def test_parse_spec_nested_errors_name_the_inner_spec():
    cases = [
        ("product:(cyclic:2, product:(cyclic:3))", ac.ParseError,
         "product spec 'product:(cyclic:3)' needs a top-level comma"),
        ("product:(cyclic:2, )", ac.ParseError,
         "product spec 'product:(cyclic:2, )' needs two components"),
        ("product:(,cyclic:2)", ac.ParseError,
         "product spec 'product:(,cyclic:2)' needs two components"),
        ("product:(cyclic:2,product:cyclic:3)", ac.ParseError,
         "product spec needs (left,right), got 'cyclic:3'"),
        ("product:( cyclic:x ,cyclic:2)", ac.ParseError,
         "expected an integer argument in 'cyclic:x', got 'x'"),
        ("product:(cyclic:2,frob:3)", ac.UnknownSpec,
         "unknown construction 'frob' in spec 'frob:3'"),
        ("product:(cyclic:2,frob)", ac.UnknownSpec,
         "unknown semigroup spec 'frob' (expected construction:arguments)"),
        ("product:((cyclic:2),cyclic:3)", ac.UnknownSpec,
         "unknown construction '(cyclic' in spec '(cyclic:2)'"),
    ]
    for spec, kind, message in cases:
        with pytest.raises(kind) as exc:
            cli.parse_spec(spec)
        assert str(exc.value) == message, spec
    A = cli.parse_spec("  product : ( cyclic:2 , product:(cyclic:1,  cyclic:3 ) )  ")
    assert A.n == 6 and A.label == "product:(cyclic:2,product:(cyclic:1,cyclic:3))"


def test_parse_spec_cayley(tmp_path):
    good = tmp_path / "z3.txt"
    good.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    A = cli.parse_spec("cayley:%s" % good)
    assert A.n == 3 and A.is_group

    with pytest.raises(ac.ParseError):
        cli.parse_spec("cayley:%s" % (tmp_path / "missing.txt"))

    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0\n1 0\n")
    with pytest.raises(ac.NonAssociative) as exc:
        cli.parse_spec("cayley:%s" % bad)
    assert exc.value.witness == (1, 0, 1)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_usage(capsys):
    cases = [
        ["sumset", "--semigroup", "cyclic:5", "--x", "{0,1}"],  # missing --y
        ["nonsense"],
        ["sumset", "--semigroup", "cyclic:5", "--x", "oops", "--y", "{0}"],
        ["sumset", "--semigroup", "frobnicate:3", "--x", "{0}", "--y", "{0}"],
        ["sweep", "--semigroup", "cyclic:5", "--statement", "nonsense"],
    ]
    for argv in cases:
        report, code, out, err = run_capture(capsys, argv)
        assert report is None and code == cli.EXIT_USAGE
        assert err.strip()


def test_exit_usage_on_non_positive_counts(capsys):
    sweep = ["sweep", "--semigroup", "cyclic:5", "--statement", "cd"]
    cases = [
        sweep + ["--max-size", "0"],
        sweep + ["--jobs", "0"],
        sweep + ["--jobs", "-3"],
        sweep + ["--jobs", "two"],
        sweep + ["--jobs", "-0"],
        sweep + ["--jobs", "\u0662"],
        sweep + ["--max-size", "1_0"],
        sweep + ["--max-size", " 3"],
        ["transform", "--semigroup", "cyclic:5", "--x", "{0,1}", "--y", "{0}", "--m", "0"],
    ]
    for argv in cases:
        report, code, out, err = run_capture(capsys, argv)
        assert report is None and code == cli.EXIT_USAGE, argv
        assert err.startswith("usage error:") and "positive integer" in err
        assert len(err.strip().splitlines()) == 1 and not out


def test_exit_precondition(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0\n1 0\n")
    cases = [
        ["localize", "--semigroup", "leftzero:3", "--x", "{0}", "--y", "{1,2}"],
        ["transform", "--semigroup", "leftzero:3", "--x", "{0}", "--y", "{1}"],
        ["sweep", "--semigroup", "cyclic:20", "--statement", "thm2.2"],
        ["sumset", "--semigroup", "cayley:%s" % bad, "--x", "{0}", "--y", "{0}"],
    ]
    for argv in cases:
        report, code, out, err = run_capture(capsys, argv)
        assert report is None and code == cli.EXIT_PRECONDITION, argv
        assert err.startswith("error:")


def test_exit_violation_mapping(capsys, monkeypatch):
    # The statements hold on every valid carrier, so a genuine violation
    # cannot be produced; check the exit-code wiring with a doctored summary.
    real = exhaustive.sweep

    def doctored(A, statement, max_size=None, jobs=1):
        s = real(A, statement, max_size=max_size, jobs=jobs)
        object.__setattr__(s, "violation_count", 1)
        object.__setattr__(
            s, "violations", (ac.Violation(x="{0}", y="{0}", lhs=0, rhs=1),)
        )
        return s

    monkeypatch.setattr(exhaustive, "sweep", doctored)
    report, code, out, err = run_capture(
        capsys, ["sweep", "--semigroup", "cyclic:3", "--statement", "cd"]
    )
    assert code == cli.EXIT_VIOLATION
    assert "VIOLATED" in out or "violation" in out


def test_theorem_guard_survives_python_O():
    # a false pillai_delta of 1 lifts the Pillai right side above the
    # Cor2.9 one on {0,2} + {0,2} mod 4; the Cor2.9 report itself holds, so
    # only the DOMINANCE check that run_statement makes, evaluating Cor2.9
    # with Pillai, can end the run with exit 3
    boot = (
        "import sys; import addcomb.catalog as c; "
        "c._pillai_value = lambda m, S, reduce: 1; "
        "from addcomb.cli import main; sys.exit(main())"
    )
    argv = ["verify", "--semigroup", "cyclic:4", "--x", "{0,2}", "--y", "{0,2}",
            "--statement", "cor2.9"]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", boot] + argv, capture_output=True, text=True
    )
    assert proc.returncode == cli.EXIT_VIOLATION, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.parametrize("spec", ["cyclic:99999999", "dihedral:50000000",
                                  "leftzero:99999999", "maxchain:99999999"])
def test_oversized_carrier_refused_before_its_table_is_built(spec):
    # the child may use 256 MB; a table of this order would need petabytes
    proc = subprocess.run(
        [sys.executable, "-m", "addcomb.cli", "sumset", "--semigroup", spec,
         "--x", "{0}", "--y", "{0}"],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_PRECONDITION, proc.stderr[-500:]
    assert proc.stderr.startswith("error: carrier size ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("cap", ["4", "64"])
def test_oversized_capped_sweep_refused_before_its_masks_are_built(cap):
    # the child may use 256 MB; 679,120 masks a side at cap 4 are over the
    # limit of 2^16 - 1, and at cap 64 they would never fit
    proc = subprocess.run(
        [sys.executable, "-m", "addcomb.cli", "sweep", "--semigroup", "cyclic:64",
         "--statement", "thm2.2", "--max-size", cap],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_PRECONDITION, proc.stderr[-500:]
    assert proc.stderr.startswith("error: a sweep of order 64 at size cap %s has " % cap)
    assert proc.stderr.count("\n") == 1


def test_deeply_nested_product_spec_is_a_parse_error(capsys):
    depth = 1200
    spec = "product:(" * depth + "cyclic:1" + ",cyclic:1)" * depth
    report, code, out, err = run_capture(
        capsys, ["sumset", "--semigroup", spec, "--x", "{0}", "--y", "{0}"]
    )
    assert report is None and code == cli.EXIT_USAGE
    assert err == "error: semigroup spec nested too deeply\n"


# ---------------------------------------------------------------------------
# Human output
# ---------------------------------------------------------------------------


def test_sumset_human(capsys):
    report, code, out, err = run_capture(
        capsys, ["sumset", "--semigroup", "cyclic:5", "--x", "{0,1}", "--y", "{0,1}"]
    )
    assert code == 0 and out.strip() == "{0,1,2}"


def test_verify_not_applicable_human(capsys):
    report, code, out, err = run_capture(
        capsys,
        [
            "verify",
            "--semigroup",
            "maxchain:3",
            "--statement",
            "thm2.2",
            "--x",
            "{1}",
            "--y",
            "{1,2}",
        ],
    )
    assert code == 0
    assert out.strip() == "not applicable (not cancellative)"


def test_verify_satisfied_human(capsys):
    report, code, out, err = run_capture(
        capsys,
        ["verify", "--semigroup", "cyclic:7", "--statement", "cd", "--x", "{0,1}", "--y", "{0,1}"],
    )
    assert code == 0
    assert "satisfied" in out and "lhs 3" in out and "rhs 3" in out


def test_omega_human(capsys):
    report, code, out, err = run_capture(
        capsys, ["omega", "--semigroup", "cyclic:12", "--z", "{1,4,7,10}"]
    )
    assert code == 0
    assert out.strip().endswith("omega = 2")
    assert report.payload["overall"] == 2


def test_labels_rendering(capsys, tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("e\nr\nr2\nr3\ns\nsr\nsr2\nsr3\n")
    report, code, out, err = run_capture(
        capsys,
        [
            "sumset",
            "--semigroup",
            "dihedral:4",
            "--labels",
            str(path),
            "--x",
            "{0,4}",
            "--y",
            "{0,1}",
        ],
    )
    assert code == 0
    assert out.strip() == "{e,r,s,sr}"

    short = tmp_path / "short.txt"
    short.write_text("a\nb\n")
    report, code, out, err = run_capture(
        capsys,
        ["sumset", "--semigroup", "dihedral:4", "--labels", str(short), "--x", "{0}", "--y", "{0}"],
    )
    assert code == cli.EXIT_USAGE


def test_labels_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "labels.txt"
    path.write_bytes(b"\xff\xfe")
    report, code, out, err = run_capture(
        capsys,
        ["sumset", "--semigroup", "cyclic:2", "--labels", str(path), "--x", "{0}", "--y", "{0}"],
    )
    assert report is None and code == cli.EXIT_USAGE and not out
    assert err.startswith("error: cannot read labels file")
    assert len(err.strip().splitlines()) == 1


def test_table_and_labels_files_over_one_mib_are_refused(capsys, tmp_path):
    # each file is valid, padded with blank lines to the limit or one byte
    # past it; past it, a file is refused before it is read to the end
    limit = 1 << 20
    for size, want in ((limit, cli.EXIT_OK), (limit + 1, cli.EXIT_USAGE)):
        table, labels = tmp_path / "table.txt", tmp_path / "labels.txt"
        table.write_bytes(b"3\n0 1 2\n1 2 0\n2 0 1\n".ljust(size, b"\n"))
        labels.write_bytes(b"e\na\nb\n".ljust(size, b"\n"))
        for argv in (
            ["sumset", "--semigroup", "cayley:%s" % table, "--x", "{1}", "--y", "{1}"],
            ["sumset", "--semigroup", "cyclic:3", "--labels", str(labels), "--x", "{1}",
             "--y", "{1}"],
        ):
            report, code, out, err = run_capture(capsys, argv)
            assert code == want, argv
            if want == cli.EXIT_USAGE:
                path = table if "cayley" in argv[2] else labels
                kind = "table" if path is table else "labels"
                assert err == "error: %s file %r is over %d bytes\n" % (kind, str(path), limit)
                assert report is None and not out


@pytest.mark.parametrize(
    "argv",
    [
        ["sumset", "--semigroup", "cyclic:1_2", "--x", "{0}", "--y", "{0}"],
        ["sumset", "--semigroup", "cyclic:+7", "--x", "{0}", "--y", "{0}"],
        ["sumset", "--semigroup", "cyclic:16", "--x", "{1_0, \u0663}", "--y", "{0}"],
        ["sweep", "--semigroup", "cyclic:5", "--statement", "cd", "--jobs", "\u0662"],
        ["sweep", "--semigroup", "cyclic:5", "--statement", "cd", "--max-size", "+2"],
        ["transform", "--semigroup", "cyclic:8", "--x", "{0,1}", "--y", "{0,1,2}", "--z", "4_0"],
    ],
    ids=["spec-underscore", "spec-plus", "set-literal", "jobs", "max-size", "z"],
)
def test_integers_are_ascii_digit_literals_only(capsys, argv):
    report, code, out, err = run_capture(capsys, argv)
    assert report is None and code == cli.EXIT_USAGE and not out, err
    assert err.startswith(("error:", "usage error:"))
    assert len(err.strip().splitlines()) == 1


def test_localize_human(capsys):
    report, code, out, err = run_capture(
        capsys, ["localize", "--semigroup", "cyclic:5", "--x", "{0,1}", "--y", "{0,1,2}"]
    )
    assert code == 0
    assert "[2]" in out and "[3]" in out
    assert "size 4" in out


def test_transform_human(capsys):
    report, code, out, err = run_capture(
        capsys,
        ["transform", "--semigroup", "cyclic:8", "--x", "{0,1}", "--y", "{0,1,2}"],
    )
    assert code == 0
    assert "candidates {4,5}" in out and "z = 4" in out and "audit:" in out

    report, code, out, err = run_capture(
        capsys,
        ["transform", "--semigroup", "cyclic:4", "--x", "{0}", "--y", "{0,2}"],
    )
    assert code == 0
    assert out.strip() == "no transform candidates"
    assert report.payload["result"] is None


def test_transform_with_a_huge_m_reads_the_cycle_of_sums(capsys):
    # (m-1)X is read off the cycle of sums, so m = 10^9 costs what m = 2 does
    # ({0,3} is a subgroup of dihedral:3); adding X m - 2 times took minutes
    argv = ["transform", "--semigroup", "dihedral:3", "--x", "{0,3}", "--y", "{0,1}", "--json"]
    _, code, huge, _ = run_capture(capsys, argv + ["--m", "1000000000"])
    _, _, small, _ = run_capture(capsys, argv + ["--m", "2"])
    assert code == 0
    assert json.loads(huge)["payload"] == {**json.loads(small)["payload"], "m": 10**9}
    assert json.loads(huge)["payload"]["candidates"] == "{2,5}"


# ---------------------------------------------------------------------------
# Machine output
# ---------------------------------------------------------------------------


ROUND_TRIP_CASES = [
    ["sumset", "--semigroup", "cyclic:5", "--x", "{0,1}", "--y", "{0,1}"],
    ["omega", "--semigroup", "cyclic:12", "--z", "{1,4,7,10}"],
    ["omega", "--semigroup", "maxchain:4", "--z", "{1,2}"],
    ["verify", "--semigroup", "cyclic:7", "--statement", "cd", "--x", "{0,1}", "--y", "{0,2}"],
    ["verify", "--semigroup", "cyclic:12", "--statement", "hk", "--x", "{0,1,3,4}", "--y", "{0,6}"],
    ["verify", "--semigroup", "cyclic:12", "--statement", "cor2.9", "--x", "{0,1}", "--y", "{0,6}"],
    ["sweep", "--semigroup", "cyclic:6", "--statement", "thm2.2"],
    ["sweep", "--semigroup", "dihedral:3", "--statement", "kemperman", "--max-size", "2"],
    ["transform", "--semigroup", "cyclic:8", "--x", "{0,1}", "--y", "{0,1,2}"],
    ["transform", "--semigroup", "cyclic:4", "--x", "{0}", "--y", "{0,2}"],
    ["localize", "--semigroup", "cyclic:5", "--x", "{0,1}", "--y", "{0,1,2}"],
]

# the SHA-256 of the --json output of each case but the sweeps, recorded
# when the single-call results were frozen dataclasses
ROUND_TRIP_SHA256 = {
    "sumset --semigroup cyclic:5 --x {0,1} --y {0,1}":
        "9b97a9dfaa6cc7924a7a04dc3a0bfecc4ea0c31d708645482345718081df3509",
    "omega --semigroup cyclic:12 --z {1,4,7,10}":
        "01c4f8a75003eb28080eb85129b47bf7a63cd932f6f6563b780e98005818288c",
    "omega --semigroup maxchain:4 --z {1,2}":
        "6f052a5e307a7e767bbe0f7c016fbb54b4787e744418664deaf9f3b9ec399efa",
    "verify --semigroup cyclic:7 --statement cd --x {0,1} --y {0,2}":
        "5125571941451db43a5db0fe37c82a9a39f0943aa2efe0e4b00b4b6bfc6290fd",
    "verify --semigroup cyclic:12 --statement hk --x {0,1,3,4} --y {0,6}":
        "d3a5ba0616d8996c83893d0cc0b2de7bbc518e652e12ea15dd68b6db0271ed94",
    "verify --semigroup cyclic:12 --statement cor2.9 --x {0,1} --y {0,6}":
        "7db7c654603c19092fc5c8192b57ad950f4f49a235a0028f849d62522a2b5540",
    "transform --semigroup cyclic:8 --x {0,1} --y {0,1,2}":
        "2d3f2c2a4c82a3461b8481cc43e79d3e3ae355c019babe6929ee37b743a2842b",
    "transform --semigroup cyclic:4 --x {0} --y {0,2}":
        "09d716a9c528f8186c05e2950c4aea3e3fa6da426b7aa277f39d4e6c465433bc",
    "localize --semigroup cyclic:5 --x {0,1} --y {0,1,2}":
        "9e40e78afcc6abc057c91520b5f01e796fafef4a20dacd7932ab7e254917ac99",
}


# the SHA-256 of the text output of each case, and of one more sweep, with
# the sweeps' elapsed line dropped, recorded when each handler listed its
# payload's fields by hand
TEXT_SHA256 = {
    "sumset --semigroup cyclic:5 --x {0,1} --y {0,1}":
        "69bdf2282e6cb969295aad39962457c360a0ccaaa0cc4da556d399007714f868",
    "omega --semigroup cyclic:12 --z {1,4,7,10}":
        "35bda4969cc9515c1ede1b6d11d64bbe7fa8f7d3c5a77b682ebf8225b927b1c0",
    "omega --semigroup maxchain:4 --z {1,2}":
        "a7fe774aa962db18e8b213d0366d1450abbed8400070ff4db31806c4769b5871",
    "verify --semigroup cyclic:7 --statement cd --x {0,1} --y {0,2}":
        "31dd97eef8a3e7a3dae1863bec51246415c53d335745b604a8852fa0c59447a7",
    "verify --semigroup cyclic:12 --statement hk --x {0,1,3,4} --y {0,6}":
        "2112a4e9b773a42bf55a2bfce1ace49153257f3cecdf7a2ab6b4b51ff42f4f65",
    "verify --semigroup cyclic:12 --statement cor2.9 --x {0,1} --y {0,6}":
        "31dd97eef8a3e7a3dae1863bec51246415c53d335745b604a8852fa0c59447a7",
    "sweep --semigroup cyclic:6 --statement thm2.2":
        "d3ee2457bd24b177e930c7ea1ba19930fb082bb05112ea6a9ed4d05eeacef4b2",
    "sweep --semigroup dihedral:3 --statement kemperman --max-size 2":
        "7707fd802017be0cca84af4b3f88a057ac46d191eacf0745196057d4ddbbf135",
    "transform --semigroup cyclic:8 --x {0,1} --y {0,1,2}":
        "812ed27231cfe6a3a9e5e9218c7525ec18d93f5a0378a886f786118f050f5799",
    "transform --semigroup cyclic:4 --x {0} --y {0,2}":
        "d65a46bab2d584a2719fdae02a1f6b69270bdfdc1015caa9ab117042b7e9d536",
    "localize --semigroup cyclic:5 --x {0,1} --y {0,1,2}":
        "8b3b7db81a208141d7eb6953bb74ea17ec67a64e5f2fcaa184f65026a18c2465",
    "sweep --semigroup dihedral:4 --statement thm2.2":
        "06acd711f6cc62cdd939d5e999b984430f457da2dae624a2c0d0f7cd680b5fd3",
}


@pytest.mark.parametrize("command", TEXT_SHA256)
def test_text_output_is_pinned(capsys, command):
    _, code, out, _ = run_capture(capsys, command.split())
    assert code == 0
    kept = "".join(line for line in out.splitlines(True) if not line.startswith("elapsed "))
    if command.startswith("sweep"):
        assert len(kept.splitlines()) == len(out.splitlines()) - 1
    assert hashlib.sha256(kept.encode()).hexdigest() == TEXT_SHA256[command]


@pytest.mark.parametrize("argv", ROUND_TRIP_CASES, ids=lambda a: a[0] + "/" + a[2])
def test_json_round_trip(capsys, argv):
    report, code, out, err = run_capture(capsys, argv + ["--json"])
    assert code == 0
    assert out.endswith("\n")
    if argv[0] != "sweep":
        assert hashlib.sha256(out.encode()).hexdigest() == ROUND_TRIP_SHA256[" ".join(argv)]
    parsed = cli.parse_report(out)
    assert parsed == report
    assert cli.serialize_report(parsed) == out
    json.loads(out)  # valid JSON


def test_json_stable_across_runs(capsys):
    argv = ["sweep", "--semigroup", "dihedral:4", "--statement", "thm2.2", "--json"]
    outputs = set()
    for _ in range(3):
        _, code, out, _ = run_capture(capsys, argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_json_independent_of_jobs(capsys):
    base = ["sweep", "--semigroup", "dihedral:4", "--statement", "thm2.2", "--json"]
    _, _, out1, _ = run_capture(capsys, base + ["--jobs", "1"])
    _, _, out4, _ = run_capture(capsys, base + ["--jobs", "4"])
    assert out1 == out4


def test_console_entry_point():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "addcomb.cli",
            "sumset",
            "--semigroup",
            "cyclic:5",
            "--x",
            "{0,1}",
            "--y",
            "{0,1}",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{0,1,2}"

    proc = subprocess.run(
        [sys.executable, "-m", "addcomb.cli", "sumset", "--semigroup", "cyclic:5", "--x", "{0,1}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_USAGE


def test_render_bound_violated_text():
    # exercise the rendering branch reserved for implementation bugs
    rep = ac.BoundReport(
        statement="CD-1813",
        hypotheses=(("group", True), ("prime_order", True)),
        lhs=1,
        rhs=ac.ExtendedNat(2),
        applicable=True,
        satisfied=False,
    )
    text = cli._render_bound(rep)
    assert text == "VIOLATED (lhs 1 < rhs 2)"


# ---------------------------------------------------------------------------
# Golden sweep reports
# ---------------------------------------------------------------------------

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "golden.json")
with open(_GOLDEN_PATH, encoding="utf-8") as _fh:
    _GOLDEN = json.load(_fh)


@pytest.mark.parametrize(
    "key",
    sorted(k for k in _GOLDEN if "--max-size" in k),
    ids=lambda k: k.replace(" --max-size ", "-cap").replace(" ", "-"),
)
def test_capped_sweep_report_matches_golden_hash(key):
    # the canonical --json report of each capped benchmark sweep is
    # byte-identical to the one recorded in bench/golden.json
    spec, statement, flag, cap = key.split()
    proc = subprocess.run(
        [sys.executable, "-m", "addcomb.cli", "sweep", "--semigroup", spec,
         "--statement", statement, flag, cap, "--json"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == _GOLDEN[key]["sha256"]


# ---------------------------------------------------------------------------
# Start-up: no library call and no command loads numpy
# ---------------------------------------------------------------------------

# the carriers of the benchmark's pair-queries workload
QUERY_CARRIERS = (
    ["cyclic:%d" % m for m in range(5, 17)]
    + ["dihedral:%d" % k for k in range(3, 9)]
    + ["quaternion8"]
    + ["maxchain:%d" % n for n in (5, 8, 12, 16)]
    + ["leftzero:%d" % n for n in (5, 8, 12, 16)]
)

NON_SWEEP_COMMANDS = [
    ["sumset", "--semigroup", "cyclic:5", "--x", "{0,1}", "--y", "{0,1}"],
    ["omega", "--semigroup", "cyclic:12", "--z", "{1,4,7,10}"],
    ["verify", "--semigroup", "cyclic:12", "--statement", "cor2.9", "--x", "{0,1}", "--y", "{0,6}"],
    ["localize", "--semigroup", "cyclic:5", "--x", "{0,1}", "--y", "{0,1,2}"],
    ["transform", "--semigroup", "cyclic:8", "--x", "{0,1}", "--y", "{0,1,2}"],
]


def _fresh(code: str, *argv: str, flags: tuple = ()) -> list:
    """Run code in a fresh interpreter, with the interpreter options flags;
    it ends by printing one JSON list, which is returned."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


# the modules that no single call and no command loads: numpy, and the
# dataclasses machinery, which no value type of the package uses
NEVER_LOADED = ["numpy", "dataclasses", "inspect"]


def test_single_library_calls_leave_numpy_unloaded():
    code = """if True:
        import json, sys
        import addcomb as ac
        from addcomb.cli import parse_spec
        never = %r
        loaded = [[m for m in never if m in sys.modules]]
        for spec in sys.argv[1:]:
            A = parse_spec(spec)
            X, Y = ac.ElementSet.of(A.n, 0, 1), ac.ElementSet.of(A.n, 0, 1, 2)
            ac.omega(A, Y)
            for statement in ac.STATEMENTS:
                try:
                    ac.run_statement(A, statement, X, Y)
                except ac.NotGroup:
                    pass
        A = ac.cyclic(8)
        X, Y = ac.ElementSet.of(8, 0, 1), ac.ElementSet.of(8, 0, 1, 2)
        ac.localize(A, X, Y)
        r = ac.apply_transform(A, X, Y, 1, 4)
        ac.audit_transform(A, X, Y, r)
        loaded.append([m for m in never if m in sys.modules])
        ac.sweep(ac.cyclic(5), "CD-1813")
        loaded.append([m for m in never if m in sys.modules])
        print(json.dumps(loaded))
    """ % NEVER_LOADED
    assert len(QUERY_CARRIERS) == 27
    assert _fresh(code, *QUERY_CARRIERS) == [[], [], []]


def _assert_command_leaves_numpy_unloaded(argv):
    code = """if True:
        import json, sys
        from addcomb.cli import main
        code = main(sys.argv[1:])
        print(json.dumps([code] + [m for m in %r if m in sys.modules]))
    """ % NEVER_LOADED
    assert _fresh(code, *argv) == [0]


@pytest.mark.parametrize("argv", NON_SWEEP_COMMANDS, ids=lambda a: a[0])
def test_non_sweep_commands_leave_numpy_unloaded(argv):
    _assert_command_leaves_numpy_unloaded(argv)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_command_leaves_numpy_unloaded(jobs):
    # cyclic:13 CD-1813 evaluates two chunks of orbit rows, so --jobs 2
    # reaches the pool
    argv = ["sweep", "--semigroup", "cyclic:13", "--statement", "cd", "--jobs", str(jobs)]
    _assert_command_leaves_numpy_unloaded(argv)


@pytest.mark.parametrize("first", ["import addcomb.exhaustive", "from addcomb import sweep"])
def test_package_sweep_is_the_function_in_every_import_order(first):
    # the engine module is not named sweep, so no submodule can shadow it
    code = """if True:
        import importlib.util, json, sys
        %s
        import addcomb.exhaustive
        from addcomb import sweep
        import addcomb
        print(json.dumps([addcomb.sweep is sweep, callable(sweep),
                          sys.modules["addcomb.exhaustive"].sweep is sweep,
                          importlib.util.find_spec("addcomb.sweep") is None]))
    """ % first
    assert _fresh(code) == [True, True, True, True]


# ---------------------------------------------------------------------------
# Start-up: a process loads only the modules that its command uses
# ---------------------------------------------------------------------------

# the modules that no spec parsing and no carrier build needs
UNUSED_AT_SETUP = [
    "addcomb.exhaustive",
    "addcomb.theorems",
    "addcomb.catalog",
    "addcomb.setops",
    "addcomb.localization",
    "addcomb.transform",
    "dataclasses",
    "multiprocessing",
    "numpy",
]


def test_importing_the_package_loads_no_submodule():
    code = """if True:
        import json, sys
        import addcomb
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("addcomb"))
                         + [m for m in %r if m in sys.modules]))
    """ % UNUSED_AT_SETUP
    assert _fresh(code) == ["addcomb"]


def test_parsing_the_query_carriers_loads_only_core_and_errors():
    code = """if True:
        import json, sys
        from addcomb.cli import parse_spec
        for spec in sys.argv[1:]:
            parse_spec(spec)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("addcomb"))
                         + [m for m in %r if m in sys.modules]))
    """ % UNUSED_AT_SETUP
    assert _fresh(code, *QUERY_CARRIERS) == [
        "addcomb", "addcomb.cli", "addcomb.core", "addcomb.errors"
    ]


def test_sumset_command_loads_neither_localization_nor_transform():
    code = """if True:
        import json, sys
        from addcomb.cli import main
        code = main(sys.argv[1:])
        print(json.dumps([code] + [m for m in %r if m in sys.modules]))
    """ % UNUSED_AT_SETUP
    assert _fresh(code, *NON_SWEEP_COMMANDS[0]) == [0, "addcomb.setops"]


# the single-call halves of the library, which a sweep never runs, and the
# dataclasses machinery, which nothing loads (see NEVER_LOADED)
UNUSED_BY_SWEEP = [
    "dataclasses",
    "inspect",
    "addcomb.theorems",
    "addcomb.setops",
    "addcomb.localization",
    "addcomb.transform",
]

LOADED_BY_COMMAND = """if True:
    import json, sys
    from addcomb.cli import main
    code = main(sys.argv[1:])
    print(json.dumps([code] + [m for m in %r if m in sys.modules]))
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_command_loads_the_catalog_but_no_single_call_module(jobs):
    # cyclic:13 CD-1813 evaluates two chunks of orbit rows, so --jobs 2
    # reaches the pool
    argv = ["sweep", "--semigroup", "cyclic:13", "--statement", "cd", "--jobs", str(jobs)]
    code = LOADED_BY_COMMAND % (["addcomb.catalog"] + UNUSED_BY_SWEEP)
    assert _fresh(code, *argv) == [0, "addcomb.catalog"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_command_loads_exactly_six_modules_of_the_package(jobs):
    argv = ["sweep", "--semigroup", "cyclic:13", "--statement", "cd", "--jobs", str(jobs)]
    code = """if True:
        import json, sys
        from addcomb.cli import main
        code = main(sys.argv[1:])
        print(json.dumps([code] + sorted(m for m in sys.modules if m.startswith("addcomb"))))
    """
    assert _fresh(code, *argv) == [
        0, "addcomb", "addcomb.catalog", "addcomb.cli", "addcomb.core", "addcomb.errors",
        "addcomb.exhaustive",
    ]


def test_verify_command_loads_theorems():
    # X + Y of two masks is core's, so verify loads no setops
    code = LOADED_BY_COMMAND % ["addcomb.catalog", "addcomb.theorems", "addcomb.setops"]
    assert _fresh(code, *NON_SWEEP_COMMANDS[2]) == [0, "addcomb.catalog", "addcomb.theorems"]


def test_parse_spec_and_sweep_leave_typing_unloaded():
    # under -S, site imports nothing, so what loads typing is the package's own
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from addcomb.cli import main, parse_spec
        parse_spec("cyclic:13")
        loaded = ["typing" in sys.modules]
        code = main(sys.argv[2:])
        print(json.dumps([code] + loaded + ["typing" in sys.modules, "site" in sys.modules]))
    """
    root = os.path.dirname(os.path.dirname(ac.__file__))
    argv = ["sweep", "--semigroup", "cyclic:13", "--statement", "cd"]
    assert _fresh(code, root, *argv, flags=("-S",)) == [0, False, False, False]


def test_only_a_parallel_sweep_loads_multiprocessing():
    # cyclic:13 CD-1813 evaluates two chunks of orbit rows (see below)
    code = """if True:
        import json, sys
        import addcomb as ac
        loaded = []
        for jobs in (1, 2):
            ac.sweep(ac.cyclic(13), "CD-1813", jobs=jobs)
            loaded.append("multiprocessing" in sys.modules)
        print(json.dumps(loaded))
    """
    assert _fresh(code) == [False, True]


def test_every_public_name_is_the_object_of_its_submodule():
    # names resolve lazily first, before any library submodule is imported
    # by hand; a name defined in several submodules is one re-exported object
    code = """if True:
        import importlib, json, pkgutil, sys
        import addcomb
        values = {name: getattr(addcomb, name) for name in addcomb.__all__}
        modules = [importlib.import_module("addcomb." + m.name)
                   for m in pkgutil.iter_modules(addcomb.__path__)]
        bad = [name for name, value in values.items()
               if not any(name in vars(m) for m in modules)
               or any(vars(m).get(name, value) is not value for m in modules)]
        print(json.dumps([len(values), bad]))
    """
    assert _fresh(code) == [len(ac.__all__), []]


def test_every_exported_function_and_class_is_listed_under_its_own_module():
    # _EXPORTS names the module that defines each name, not one that
    # imports it from there
    wrong = {}
    for name, module in ac._OWNER.items():
        value = getattr(ac, name)
        if callable(value) and value.__module__ != "addcomb." + module:
            wrong[name] = (module, value.__module__)
    assert wrong == {}


def test_star_import_dir_and_unknown_names():
    code = """if True:
        import json, sys
        import addcomb
        listed = set(dir(addcomb))
        names = {}
        exec("from addcomb import *", names)
        try:
            addcomb.no_such_name
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps([sorted(set(addcomb.__all__) - listed),
                          sorted(set(addcomb.__all__) - set(names)),
                          unknown, hasattr(addcomb, "no_such_name")]))
    """
    assert _fresh(code) == [[], [], "AttributeError", False]


def test_first_sweep_in_parallel_equals_serial():
    # cyclic:13 CD-1813 evaluates 631 orbit rows: two chunks, so jobs=2
    # reaches the pool, and the workers are forked from a process whose
    # first sweep it is
    ctx = exhaustive._SweepContext(ac.cyclic(13), "CD-1813", None)
    assert len(range(0, len(ctx.weight), exhaustive.CHUNK)) == 2
    code = """if True:
        import json, sys
        import addcomb as ac
        A = ac.cyclic(13)
        parallel = ac.sweep(A, "CD-1813", jobs=2).to_json_dict()
        serial = ac.sweep(A, "CD-1813", jobs=1).to_json_dict()
        print(json.dumps([parallel == serial, serial["tight"] > 0, "numpy" in sys.modules]))
    """
    assert _fresh(code) == [True, True, False]


@pytest.mark.parametrize("spec,statement", [("dihedral:3", "chowla"), ("maxchain:4", "hk")])
def test_verify_and_sweep_refuse_a_wrong_carrier_alike(capsys, spec, statement):
    common = ["--semigroup", spec, "--statement", statement]
    _, v_code, v_out, v_err = run_capture(capsys, ["verify", *common, "--x", "{0}", "--y", "{0,1}"])
    _, s_code, s_out, s_err = run_capture(capsys, ["sweep", *common, "--max-size", "2"])
    assert v_code == s_code == cli.EXIT_PRECONDITION
    assert v_out == s_out == ""
    assert v_err == s_err and v_err.startswith("error: ") and v_err.count("\n") == 1
