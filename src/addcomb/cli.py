"""Command-line front end.

Subcommands: sumset, omega, verify, sweep, transform, localize.  Carriers
are described by spec strings (cyclic:m, dihedral:k, quaternion8,
product:(spec,spec), leftzero:n, maxchain:n, cayley:<path>), sets by index
literals like {0,3,5}.

Output is human text by default and a single canonical JSON object under
--json: the RunReport's to_json_dict(), whose payload is built from the
to_json_dict() of each result record.  The JSON form is stable: keys sorted,
no whitespace, one trailing newline, wall-clock timing excluded - so
identical inputs produce byte-identical machine output regardless of --jobs.

Exit codes: 0 success (including "not applicable"), 1 usage error,
2 precondition/validation failure, 3 a verified bound or a theorem guard
came back false (reserved for implementation bugs: it must never happen).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from .core import (
    ElementSet,
    FiniteSemigroup,
    _Record,
    cyclic,
    dihedral,
    int_literal,
    leftzero,
    maxchain,
    parse_cayley_text,
    product,
    quaternion8,
)
from .errors import (
    AddcombError,
    ParseError,
    TheoremViolated,
    UnknownSpec,
)

TYPE_CHECKING = False  # true to type checkers; typing is not imported for it
if TYPE_CHECKING:
    from .exhaustive import SweepSummary
    from .theorems import BoundReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3
MAX_FILE_BYTES = 1 << 20  # a table or labels file; a 64 x 64 table is about 12 KB


# ---------------------------------------------------------------------------
# Semigroup spec grammar
# ---------------------------------------------------------------------------


def parse_spec(text: str) -> FiniteSemigroup:
    """Resolve a spec string to a built (validated) semigroup."""
    try:
        return _parse_spec(text.strip())
    except RecursionError:
        raise ParseError("semigroup spec nested too deeply") from None


def _parse_spec(text: str) -> FiniteSemigroup:
    if not text:
        raise ParseError("empty semigroup spec")
    if text == "quaternion8":
        return quaternion8()
    head, sep, rest = text.partition(":")
    head = head.strip()
    if not sep:
        raise UnknownSpec(
            "unknown semigroup spec %r (expected construction:arguments)" % text
        )
    if head == "cyclic":
        return cyclic(_int_arg(rest, text))
    if head == "dihedral":
        return dihedral(_int_arg(rest, text))
    if head == "leftzero":
        return leftzero(_int_arg(rest, text))
    if head == "maxchain":
        return maxchain(_int_arg(rest, text))
    if head == "product":
        rest = rest.strip()
        if not (rest.startswith("(") and rest.endswith(")")):
            raise ParseError("product spec needs (left,right), got %r" % rest)
        left, right = _split_pair(rest[1:-1], text)
        return product(_parse_spec(left), _parse_spec(right))
    if head == "cayley":
        path = rest.strip()
        return parse_cayley_text(_read_text(path, "table"), label="cayley:%s" % path)
    raise UnknownSpec("unknown construction %r in spec %r" % (head, text))


def _read_text(path: str, kind: str) -> str:
    """The text of a UTF-8 file of at most MAX_FILE_BYTES bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
        if len(data) <= MAX_FILE_BYTES:
            return data.decode("utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: a NUL in the path, or a file that is not UTF-8
        raise ParseError("cannot read %s file %r: %s" % (kind, path, exc)) from None
    raise ParseError("%s file %r is over %d bytes" % (kind, path, MAX_FILE_BYTES))


def _int_arg(rest: str, whole: str) -> int:
    try:
        return int_literal(rest.strip())
    except ValueError:
        raise ParseError(
            "expected an integer argument in %r, got %r" % (whole, rest)
        ) from None


def _split_pair(inner: str, whole: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            left, right = inner[:i].strip(), inner[i + 1 :].strip()
            if not left or not right:
                raise ParseError("product spec %r needs two components" % whole)
            return left, right
    raise ParseError("product spec %r needs a top-level comma" % whole)


# ---------------------------------------------------------------------------
# Run reports and serialization
# ---------------------------------------------------------------------------


class RunReport(_Record):
    """One command's resolved carrier, result kind, and JSON-ready payload.

    The argv echo and wall-clock time ride along for provenance but are
    excluded from equality, and so from serialization: the machine format
    must be byte-identical across reruns and across worker counts, and flags
    such as --jobs would otherwise leak into it."""

    __slots__ = ("spec", "kind", "payload", "command", "elapsed_s")
    _defaults = ((), None)

    def _key(self) -> tuple:  # ==, hash and to_json_dict ignore command and elapsed_s
        return self._fields()[:3]


def serialize_report(report: RunReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def parse_report(text: str) -> RunReport:
    return RunReport(**json.loads(text))


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _load_labels(path: str, n: int) -> list[str]:
    # split at \n, \r\n or \r, as a file read as text is
    lines = io.StringIO(_read_text(path, "labels"), newline=None)
    names = [line.strip() for line in lines if line.strip()]
    if len(names) < n:
        raise ParseError(
            "labels file %r names %d elements, carrier has %d" % (path, len(names), n)
        )
    return names[:n]


def _el(e: int, labels) -> str:
    return labels[e] if labels else str(e)


def _set(S: ElementSet, labels) -> str:
    if labels is None:
        return str(S)
    return "{%s}" % ",".join(labels[e] for e in S)


def _render_bound(rep: BoundReport, prefix: str = "") -> str:
    from .catalog import HYPOTHESIS_FAILURE_TEXT

    if not rep.applicable:
        reasons = ", ".join(
            HYPOTHESIS_FAILURE_TEXT[name] for name in rep.failed_hypotheses()
        )
        return "%snot applicable (%s)" % (prefix, reasons)
    if rep.satisfied:
        return "%ssatisfied (lhs %d >= rhs %s)" % (prefix, rep.lhs, rep.rhs)
    return "%sVIOLATED (lhs %d < rhs %s)" % (prefix, rep.lhs, rep.rhs)


def _render_sweep(s: SweepSummary) -> str:
    lines = [
        "sweep %s over %s (order %d%s)"
        % (
            s.statement,
            s.semigroup,
            s.carrier_order,
            "" if s.max_size is None else ", sizes <= %d" % s.max_size,
        ),
        "pairs %d, applicable %d, satisfied %d, violations %d"
        % (s.pairs, s.applicable, s.satisfied, s.violation_count),
    ]
    if s.first_tight is not None:
        lines.append(
            "tight pairs %d, first tight X=%s Y=%s (value %d)"
            % (s.tight, s.first_tight.x, s.first_tight.y, s.first_tight.value)
        )
    else:
        lines.append("tight pairs 0")
    for v in s.violations:
        lines.append("VIOLATION X=%s Y=%s lhs %d < rhs %s" % (v.x, v.y, v.lhs, v.rhs))
    if s.elapsed_s is not None:
        lines.append("elapsed %.2f s" % s.elapsed_s)
    return "\n".join(lines)


def _render_audit_item(value) -> str:
    if value is None:
        return "not applicable"
    return "true" if value else "FALSE"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (kind, payload, human text, exit code).
# Each imports the library modules it uses when it runs, so that a process
# loads only those of its own command.
# ---------------------------------------------------------------------------


def _cmd_sumset(args, A, labels):
    from .setops import sumset

    X = ElementSet.parse(args.x, A.n)
    Y = ElementSet.parse(args.y, A.n)
    S = sumset(A, X, Y)
    payload = {"x": str(X), "y": str(Y), "sum": str(S)}
    return ("sumset", payload, _set(S, labels), EXIT_OK)


def _cmd_omega(args, A, labels):
    from .catalog import omega

    Z = ElementSet.parse(args.z, A.n)
    breakdown = omega(A, Z)
    payload = {"set": str(Z), **breakdown.to_json_dict()}
    lines = ["omega(%s) over %s" % (_set(Z, labels), A.label)]
    for z0, inner in breakdown.rows:
        lines.append("  z0 %s: %s" % (_el(z0, labels), inner))
    lines.append("omega = %s" % breakdown.overall)
    return ("omega", payload, "\n".join(lines), EXIT_OK)


def _cmd_verify(args, A, labels):
    from .catalog import normalize_statement
    from .theorems import run_statement, verify_hk

    statement = normalize_statement(args.statement)
    X = ElementSet.parse(args.x, A.n)
    Y = ElementSet.parse(args.y, A.n)
    if statement == "HK":
        hk, sharper = verify_hk(A, X, Y)
        reports = [hk] + ([sharper] if sharper is not None else [])
    else:
        reports = [run_statement(A, statement, X, Y)]
    payload = {"reports": [r.to_json_dict() for r in reports]}
    lines = [_render_bound(reports[0])]
    for extra in reports[1:]:
        lines.append(_render_bound(extra, prefix="sharper %s: " % extra.statement))
    code = EXIT_OK
    if any(r.applicable and not r.satisfied for r in reports):
        code = EXIT_VIOLATION
    return ("verify", payload, "\n".join(lines), code)


def _cmd_sweep(args, A, labels):
    from .exhaustive import sweep

    summary = sweep(A, args.statement, max_size=args.max_size, jobs=args.jobs)
    code = EXIT_VIOLATION if summary.violation_count else EXIT_OK
    return ("sweep", summary.to_json_dict(), _render_sweep(summary), code)


def _cmd_transform(args, A, labels):
    from .transform import apply_transform, audit_transform, transform_candidates

    X = ElementSet.parse(args.x, A.n)
    Y = ElementSet.parse(args.y, A.n)
    candidates = transform_candidates(A, X, Y, m=args.m)
    payload = {"m": args.m, "candidates": str(candidates), "result": None, "audit": None}
    if candidates.mask == 0:
        return ("transform", payload, "no transform candidates", EXIT_OK)
    z = args.z if args.z is not None else candidates.elements()[0]
    result = apply_transform(A, X, Y, args.m, z)
    audit = audit_transform(A, X, Y, result)
    payload["result"] = result.to_json_dict()
    del payload["result"]["m"]  # the payload's own m
    payload["audit"] = audit.to_json_dict()
    lines = [
        "candidates %s" % _set(candidates, labels),
        "z = %s: x_z = %s, y_z = %s"
        % (_el(result.z, labels), _el(result.x_z, labels), _el(result.y_z, labels)),
        "Y~ = %s, Y' = %s" % (_set(result.y_tilde, labels), _set(result.y_prime, labels)),
        "audit: i=%s ii=%s iii=%s iv=%s v=%s (|X+Y|+|Y'| = %d, |X+Y'|+|Y| = %d)"
        % (
            _render_audit_item(audit.item_i),
            _render_audit_item(audit.item_ii),
            _render_audit_item(audit.item_iii),
            _render_audit_item(audit.item_iv),
            _render_audit_item(audit.item_v),
            audit.v_lhs,
            audit.v_rhs,
        ),
    ]
    code = EXIT_VIOLATION if audit.any_applicable_false else EXIT_OK
    return ("transform", payload, "\n".join(lines), code)


def _cmd_localize(args, A, labels):
    from .localization import localize, sum_matrix

    X = ElementSet.parse(args.x, A.n)
    Y = ElementSet.parse(args.y, A.n)
    Z = ElementSet.parse(args.z, A.n) if args.z is not None else None
    result = localize(A, X, Y, Z)
    matrix = sum_matrix(A, X, Y)
    witness = result.witness_set()
    payload = {**result.to_json_dict(), **matrix.to_json_dict(), "witness": str(witness)}
    payload["z"] = payload.pop("Z")
    cells = [
        [
            ("[%s]" if matrix.entries[i][j] == result.representatives[i] else "%s")
            % _el(matrix.entries[i][j], labels)
            for j in range(matrix.l)
        ]
        for i in range(matrix.k)
    ]
    width = max(len(c) for row in cells for c in row)
    lines = ["sum matrix (rows x_i, cols y_j; representatives bracketed):"]
    for row in cells:
        lines.append("  " + " ".join(c.rjust(width) for c in row))
    lines.append("Z = %s" % _set(result.Z, labels))
    lines.append(
        "representatives: %s"
        % ", ".join(_el(e, labels) for e in result.representatives)
    )
    lines.append("localized set %s (size %d)" % (_set(witness, labels), len(witness)))
    return ("localize", payload, "\n".join(lines), EXIT_OK)


_HANDLERS = {
    "sumset": _cmd_sumset,
    "omega": _cmd_omega,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "transform": _cmd_transform,
    "localize": _cmd_localize,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes: an integer literal of at least 1."""
    try:
        if (value := int_literal(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="addcomb",
        description="Sumset bounds and constructions over finite semigroups.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")

    def common(p):
        p.add_argument(
            "--semigroup",
            required=True,
            help="cyclic:m | dihedral:k | quaternion8 | product:(spec,spec) | "
            "leftzero:n | maxchain:n | cayley:<path>",
        )
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--labels", help="file with one display name per element")

    p = sub.add_parser("sumset", help="compute X + Y")
    common(p)
    p.add_argument("--x", required=True, help="set literal, e.g. {0,1}")
    p.add_argument("--y", required=True)

    p = sub.add_parser("omega", help="order-based bound constant of a set")
    common(p)
    p.add_argument("--z", required=True, help="set literal")

    p = sub.add_parser("verify", help="check one bound statement on a pair")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--statement", required=True)

    p = sub.add_parser("sweep", help="check one statement on every pair")
    common(p)
    p.add_argument("--statement", required=True)
    p.add_argument("--max-size", type=_positive_int, default=None, help="cap |X| and |Y|")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")

    p = sub.add_parser("transform", help="candidate-driven set transform and audit")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--m", type=_positive_int, default=1, help="fold count for the X part")
    p.add_argument("--z", type=int_literal, default=None, help="candidate element (default: smallest)")

    p = sub.add_parser("localize", help="distinct representatives in the sum matrix")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default=None, help="fixed (l-1)-subset of X+Y (set literal)")

    return parser


def run(argv) -> tuple[RunReport | None, int]:
    """Execute one command line; emits output and returns (report, exit code)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return (None, EXIT_USAGE)

    started = time.monotonic()
    try:
        A = parse_spec(args.semigroup)
        labels = _load_labels(args.labels, A.n) if args.labels else None
        kind, payload, text, code = _HANDLERS[args.cmd](args, A, labels)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return (None, EXIT_USAGE)
    except TheoremViolated as exc:
        print("error: %s" % exc, file=sys.stderr)
        return (None, EXIT_VIOLATION)
    except AddcombError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return (None, EXIT_PRECONDITION)

    report = RunReport(
        command=tuple(argv),
        spec=A.label,
        kind=kind,
        payload=payload,
        elapsed_s=time.monotonic() - started,
    )
    if args.json:
        sys.stdout.write(serialize_report(report))
    else:
        print(text)
    return (report, code)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    _, code = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
