"""Property-based tests on the three text parsers: carrier specs, set
literals and Cayley table files.

Whatever the text, a parser returns a value or raises ParseError or
ValidationError (each of which the CLI turns into one line and exit 1 or
2); any other exception is a bug in the parser.  Every integer that these
parsers or the command-line options accept is written -?[0-9]+.
"""

from __future__ import annotations

import os
import re
import tempfile

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import addcomb as ac
from addcomb import cli
from addcomb.cli import parse_spec

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALLOWED = (ac.ParseError, ac.ValidationError)

# integers as text: small, signed, padded, past the carrier limit, and long
# enough to pass Python's int-from-text digit limit
INT_TEXT = st.one_of(
    st.integers(-3, 70).map(str),
    st.integers(0, 10**12).map(str),
    st.sampled_from(["", " 4 ", "+3", "0x10", "1_0", "3.0", "1e3", "٣", "9" * 5000]),
)
NOISE = st.text(alphabet=" \t\n,:(){}-x0\x00", max_size=4)


def _specs():
    leaf = st.one_of(
        st.builds(
            lambda head, arg: head + ":" + arg,
            st.sampled_from(["cyclic", "dihedral", "leftzero", "maxchain", "frob", ""]),
            INT_TEXT,
        ),
        st.sampled_from(["quaternion8", "quaternion8 ", "cyclic", "product", "cayley:"]),
        NOISE,
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(lambda a, b: "product:(%s,%s)" % (a, b), inner, inner),
            st.builds(lambda a, b, c: a + b + c, inner, NOISE, inner),
        ),
        max_leaves=6,
    )


def _assert_only_allowed(parse, *args):
    try:
        parse(*args)
    except ALLOWED:
        pass


@SETTINGS
@given(st.one_of(_specs(), st.text(max_size=40)))
def test_parse_spec_raises_only_parse_or_validation_errors(text):
    # a spec naming a device or a kernel file could block on its read
    assume(not any(root in text for root in ("/dev", "/proc", "/sys")))
    _assert_only_allowed(parse_spec, text)


@SETTINGS
@given(st.one_of(st.text(max_size=60), st.binary(max_size=60)), st.booleans())
def test_cayley_spec_reads_any_file_or_path_to_an_error(content, nul_in_path):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "table.txt")
        with open(path, "wb") as fh:
            fh.write(content.encode("utf-8") if isinstance(content, str) else content)
        if nul_in_path:
            path += "\x00"
        _assert_only_allowed(parse_spec, "cayley:" + path)


def _set_literals():
    token = st.one_of(INT_TEXT, NOISE)
    body = st.lists(token, max_size=6).map(",".join)
    return st.one_of(
        st.builds(lambda a, b, c: a + b + c, st.sampled_from(["{", "", " {"]), body,
                  st.sampled_from(["}", "", "} "])),
        st.text(max_size=30),
    )


@SETTINGS
@given(_set_literals(), st.integers(1, ac.MAX_CARRIER))
def test_set_literal_parser_raises_only_parse_or_validation_errors(text, n):
    _assert_only_allowed(ac.ElementSet.parse, text, n)


def _cayley_texts():
    def tables(n, slack):
        # entries in [0, n) when slack is 0, so some tables are valid and
        # some are not associative; in [-1, n] otherwise, so some index
        # outside the carrier
        cells = st.lists(st.integers(-slack, n - 1 + slack), min_size=n * n, max_size=n * n)
        sep = st.sampled_from(["\n", "\n\n", "\r\n", "\x0b", " \n "])
        return st.builds(
            lambda cells, sep: sep.join(
                [str(n)] + [" ".join(map(str, cells[i : i + n])) for i in range(0, n * n, n)]
            ),
            cells,
            sep,
        )

    shaped = st.tuples(st.integers(1, 5), st.integers(0, 1)).flatmap(lambda a: tables(*a))
    # and the same with text spliced in somewhere
    spliced = st.builds(
        lambda text, at, junk: text[:at] + junk + text[at:],
        shaped,
        st.integers(0, 100),
        st.one_of(INT_TEXT, NOISE),
    )
    return st.one_of(st.text(max_size=60), shaped, spliced)


@SETTINGS
@given(_cayley_texts())
def test_cayley_text_parser_raises_only_parse_or_validation_errors(text):
    _assert_only_allowed(ac.parse_cayley_text, text)


# the documented integer literal, and text that int(token, 10) would take
# for one: other digits, signs, underscores and blanks
LITERAL = re.compile(r"-?[0-9]+")
NUMERALS = st.one_of(
    INT_TEXT, st.text(alphabet="0123456789-+_ \u0662\u0663\u00b2\uff11", max_size=5)
)


def _accepted(parse, *args):
    try:
        return parse(*args)
    except ALLOWED:
        return None


def _parsed_options(argv):
    try:
        return cli.build_parser().parse_args(argv)
    except cli._UsageError:
        return None


@SETTINGS
@given(NUMERALS)
def test_every_accepted_integer_is_an_ascii_digit_literal(token):
    # the text parsers strip the blanks around a token; argparse does not
    stripped = token.strip()
    assume(stripped)
    # no parser takes more digits than Python's int-from-text limit
    short = LITERAL.fullmatch(stripped) and len(stripped) <= 4300
    value = int(stripped) if short else None
    A = _accepted(parse_spec, "cyclic:" + token)
    assert A is None or A.n == value
    S = _accepted(ac.ElementSet.parse, "{%s}" % token, ac.MAX_CARRIER)
    assert S is None or S.elements() == (value,)
    # a one-element table is valid only as [[0]], under the size line 1
    assert _accepted(ac.parse_cayley_text, "1\n%s\n" % token) is None or value == 0
    assert _accepted(ac.parse_cayley_text, "%s\n0\n" % token) is None or value == 1

    sweep = ["sweep", "--semigroup", "cyclic:5", "--statement", "cd"]
    transform = ["transform", "--semigroup", "cyclic:5", "--x", "{0}", "--y", "{0}"]
    for argv, dest in (
        (sweep + ["--jobs", token], "jobs"),
        (sweep + ["--max-size", token], "max_size"),
        (transform + ["--m", token], "m"),
        (transform + ["--z", token], "z"),
    ):
        args = _parsed_options(argv)
        assert args is None or (LITERAL.fullmatch(token) and getattr(args, dest) == int(token))
