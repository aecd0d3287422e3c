"""Golden CLI reports: every case in tests/golden/cases.json re-runs and
must reproduce its stored report byte for byte, ``timing`` excluded.

The reports pin samples, cuts, blocks, signs, witnesses and error
envelopes across refactors of the exact kernels.  Regenerate them only
when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from convexsplit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def render(case: dict) -> str:
    """Exit code and report of one CLI run, as the stored golden text."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(case.get("stdin", ""))
    try:
        with redirect_stdout(out):
            code = main(case["argv"])
    finally:
        sys.stdin = saved
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("timing")
    return json.dumps({"exit_code": code, "report": report},
                      indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case):
    expected = (GOLDEN / f"{case['name']}.json").read_text(encoding="utf-8")
    assert render(case) == expected


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / f"{case['name']}.json").write_text(render(case),
                                                    encoding="utf-8")
        print(case["name"])
