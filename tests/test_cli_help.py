"""Help screens and usage errors are argparse's, byte for byte.

A well-formed argv is parsed from ``cli.COMMANDS`` without argparse; help
and every usage error still come from argparse's parser for the same
table.  The files under tests/golden/help/ were written by the parser
that argparse alone served, before that fast step existed, with
``COLUMNS=80``: the top-level ``--help``, each command's ``--help``, and
the stderr of eight usage errors.

argparse's wording and wrapping are not fixed across CPython minor
versions (3.13, for one, lays out an option's metavar differently), so
the files are compared only on the minor version that wrote them.
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from convexsplit.cli import COMMANDS, main

HELP = pathlib.Path(__file__).parent / "golden" / "help"
WRITTEN_ON = (3, 11)

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != WRITTEN_ON,
    reason="argparse's help layout differs across CPython minor versions; "
           f"the goldens were written on {WRITTEN_ON[0]}.{WRITTEN_ON[1]}")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", [["--help"]]
                         + [[name, "--help"] for name in COMMANDS],
                         ids=lambda argv: " ".join(argv))
def test_help_matches_golden(argv):
    name = argv[0] if len(argv) == 2 else "convexsplit"
    expected = (HELP / f"{name}.txt").read_text(encoding="utf-8")
    assert run(argv) == (0, expected, "")


def test_every_command_has_a_help_golden():
    assert {p.stem for p in HELP.glob("*.txt")} == {"convexsplit",
                                                    *COMMANDS}


CASES = json.loads((HELP / "usage-errors.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES,
                         ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_usage_error_matches_golden(case):
    assert run(case["argv"]) == (case["exit_code"], "", case["stderr"])
