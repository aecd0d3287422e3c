"""The CLI's coordinate tokens, parsed two ways, must agree exactly.

``cli._parse_rational`` builds a short token "p" or "p/q" of ASCII digits
straight from its ints, and hands every other token to ``as_rational``.
The oracle is the parser as it was before that shortcut: every token
through ``as_rational``.  Tokens mix digits with signs, padding, ``_``
separators, decimal points and exponents, full-width and other non-ASCII
digits, zero and missing denominators, doubled slashes, and digit runs
around ``sys.get_int_max_str_digits()``.  Values, exceptions and the
exact ParseFailure text must agree, and so must whole CLI runs on CSV
and JSON input: exit code, stderr and report.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import cli
from convexsplit.cli import ParseFailure, parse_points_text
from convexsplit.exactgeom import as_rational, point_seq

LIMIT = sys.get_int_max_str_digits()


def oracle_parse_rational(tok):
    """_parse_rational before the ASCII-digit shortcut."""
    try:
        return as_rational(str(tok).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseFailure(f"not a rational number: {tok!r} ({exc})") from exc


def oracle_parse_points_text(text, expected_dim):
    """parse_points_text with the oracle's tokens and point_seq's build."""
    with mock.patch.object(cli, "_parse_rational", oracle_parse_rational), \
            mock.patch.object(cli, "PointSeq",
                              lambda dim, pts, labels: point_seq(pts, dim)):
        return parse_points_text(text, expected_dim)


def outcome(fn, *args):
    try:
        value = fn(*args)
    except ParseFailure as exc:
        return "ParseFailure", str(exc)
    except Exception as exc:  # any other error must match too
        return type(exc).__name__, str(exc)
    return "value", value


DIGITS = st.text("0123456789", min_size=1, max_size=5)
ODD = st.sampled_from([
    "", "+", "-", " ", "\t", "_", ".", "e", "E-3", "/", "//", "0", "00",
    "１", "３", "٣", "²", "⁴", "1_0", "inf", "nan", "x", " ", "\n"])
MIXED = st.lists(st.one_of(DIGITS, ODD), max_size=6).map("".join)
PQ = st.builds(lambda p, q: f"{p}/{q}", DIGITS, DIGITS)
LONG = st.builds(
    lambda k, form: form.format("7" * k),
    st.integers(LIMIT - 2, LIMIT + 2),
    st.sampled_from(["{}", "{}/3", "3/{}", "-{}/3", "{}/0", " {}/1"]))
TOKENS = st.one_of(PQ, MIXED, LONG, st.sampled_from(
    ["3/0", "3/-4", "/4", "3/", "3//4", "-3/4", "+3/4", " 3/4 ", "03/004",
     "0/5", "３/4", "3/４", "1_000/3", "3.5/2", "1e3", "0"]))


def same(a, b):
    """Equal outcomes, with Fraction values of int parts on both sides."""
    if a[0] == "value" == b[0] and isinstance(a[1], Fraction):
        return (type(b[1]) is Fraction and a[1] == b[1]
                and type(a[1].numerator) is type(b[1].numerator) is int)
    return a == b


@settings(max_examples=1500, deadline=None)
@given(TOKENS)
def test_token_matches_as_rational(tok):
    assert same(outcome(cli._parse_rational, tok),
                outcome(oracle_parse_rational, tok))


@pytest.mark.parametrize("tok", ["3/0", "3/-4", "/4", "3/", "3//4",
                                 "7" * (LIMIT + 1) + "/3",
                                 "3/" + "7" * (LIMIT + 1)])
def test_error_text_is_unchanged(tok):
    with pytest.raises(ParseFailure) as new:
        cli._parse_rational(tok)
    with pytest.raises(ParseFailure) as old:
        oracle_parse_rational(tok)
    assert str(new.value) == str(old.value)


def test_non_ascii_digits_keep_the_general_path():
    # Fraction reads any Unicode decimal digit; the shortcut reads none.
    with mock.patch.object(cli, "as_rational", wraps=as_rational) as slow:
        assert cli._parse_rational("３/4") == Fraction(3, 4)
        assert cli._parse_rational("٣") == 3
    assert slow.call_count == 2


def test_short_digit_tokens_take_no_string_path():
    with mock.patch.object(cli, "as_rational", side_effect=AssertionError):
        assert cli._parse_rational(" 6/4 ") == Fraction(3, 2)
        assert cli._parse_rational("12") == Fraction(12)
        assert cli._parse_rational("0/9") == 0


@st.composite
def csv_text(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cell = st.one_of(PQ, PQ, DIGITS, TOKENS)
    return "".join(",".join(draw(cell) for _ in range(d)) + "\n"
                   for _ in range(n))


@st.composite
def json_text(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cell = st.one_of(PQ, PQ, TOKENS, st.integers(-10**6, 10**6),
                     st.floats(allow_nan=True, allow_infinity=True))
    rows = [[draw(cell) for _ in range(d)] for _ in range(n)]
    return json.dumps({"dim": d, "points": rows})


def run_cli(text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify-gp", "--input", "-"])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("timing")
    return code, err.getvalue(), report


@settings(max_examples=600, deadline=None)
@given(st.one_of(csv_text(), json_text()))
def test_points_text_matches_the_oracle(text):
    new = outcome(parse_points_text, text, None)
    old = outcome(oracle_parse_points_text, text, None)
    assert new == old
    if new[0] == "value":
        assert new[1].points == old[1].points
        assert new[1].labels == old[1].labels
    code, err, report = run_cli(text)
    with mock.patch.object(cli, "_parse_rational", oracle_parse_rational):
        assert (code, err, report) == run_cli(text)
    assert (code == 2) == (new[0] == "ParseFailure")
