"""Fuzz the CLI over argv and inputs: it never shows a traceback.

Each example runs one of the ten commands with a random subset of the
thirteen flag names and a small input: points as CSV or JSON (n <= 8), a
sign table, a curve spec, deeply nested JSON or undecodable bytes, with
non-finite numbers mixed in.  Most examples draw the command's own flags,
well-formed values and the kind of input it reads, so that they get past
parsing.  Every run exits 0, 2, 3 or 4; a report (exit 0, 3 or 4)
validates against docs/report-schema.json, and a usage error (exit 2)
prints nothing on stdout.
"""

import io
import itertools
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from convexsplit.cli import main

SCHEMA = pathlib.Path(__file__).parent.parent / "docs" / "report-schema.json"
VALIDATOR = Draft202012Validator(json.loads(SCHEMA.read_text("utf-8")))

POINTS = ("--input", "--dim", "--out-json")
CURVE = ("--input", "--curve", "--dim", "--dents", "--depth", "--coeffs",
         "--domain", "--eps", "--seed", "--out-svg", "--out-json")
OWN = {
    "verify-gp": POINTS, "homog": POINTS, "flip": POINTS,
    "crossings": POINTS + ("--oracle-budget",),
    "ramsey": POINTS + ("--oracle-budget",),
    "decompose": POINTS + ("--out-svg",),
    "sample": CURVE, "decompose-curve": CURVE + ("--oracle-budget",),
    "reduce": ("--input", "--out-json"), "bounds": ("--k", "--out-json"),
}
FLAGS = sorted(set(itertools.chain(*OWN.values())))
# Per command, groups of flags of which a well-formed call gives one.
REQUIRED = {name: (("--input",),) for name in OWN}
REQUIRED.update({"sample": (("--curve", "--input"), ("--eps",)),
                 "decompose-curve": (("--curve", "--input"), ("--eps",)),
                 "bounds": (("--k",),)})
# Builtin curve -> the flags it takes.
CURVE_FLAGS = {"quintic": (), "moment": ("--dim",),
               "dented_arc": ("--dents", "--depth"),
               "poly": ("--coeffs", "--domain")}
SOURCE_FLAGS = ("--input", "--curve", "--dim", "--dents", "--depth",
                "--coeffs", "--domain")

# Flag name -> (well-formed values, malformed ones).  {input}, {tmp} and
# {missing} stand for this example's files.
VALUES = {
    "--input": (["{input}", "-"], ["{missing}", "{tmp}"]),
    "--dim": (["2", "3"], ["1", "0", "-1", "x"]),
    "--seed": (["0", "7", "-3"], ["x"]),
    "--oracle-budget": (["3", "60"], ["0", "-1", "x"]),
    "--out-json": (["{tmp}/r.json"], ["{tmp}", "{tmp}/no/r.json"]),
    "--out-svg": (["{tmp}/p.svg"], ["{tmp}/no/p.svg"]),
    "--eps": (["1/2", "1/4", "1/8"], ["0", "-1/3", "x", "1e400"]),
    "--curve": (["moment", "quintic", "dented_arc", "poly"], ["spiral"]),
    "--dents": (["1", "2", "3"], ["0", "x"]),
    "--depth": (["1/100", "1/50"], ["1/2", "0", "x", "1e400"]),
    "--coeffs": (['[["0","1"],["0","0","1"]]', '[["0","1"],["0","1"]]',
                  '[["0","1"],["1","0","-2","0","1"]]'],
                 ["[[1e400]]", "[[Infinity]]", '[["0","1"],[NaN,1]]', "[]",
                  "[[]]", '[["x"]]', "5", "[" * 200000]),
    "--domain": (['["-1","1"]', '["0","1/2"]'],
                 ['["1","0"]', "[0, 1e400]", "[-Infinity, 1]", "[0]", "x",
                  "[" * 200000]),
    "--k": (["1", "1..4", "2..3"], ["3..2", "0", "x"]),
}

INTS = [str(i) for i in range(-9, 10)]
CSV_ODD = ["1/2", "-3/4", "1.5", "1e400", "inf", "-inf", "nan", "x", ""]
JSON_ODD = ['"1/2"', "1.5", "1e400", "Infinity", "-Infinity", "NaN", '"x"',
            "true", "null", "[1]", "1" * 5000]

CURVE_SPECS = [
    '{"curve": "quintic"}', '{"curve": "moment", "d": 2}',
    '{"curve": "moment", "d": 3}', '{"curve": "moment"}',
    '{"curve": "dented_arc", "dents": 2, "depth": "1/100"}',
    '{"curve": "poly", "coeffs": [["0", "1"], ["0", "0", "1"]]}',
    '{"curve": "poly", "coeffs": [["0", "1"], ["0", "1"]]}',
    '{"curve": "poly", "coeffs": [[1e400]]}',
    '{"curve": "poly", "coeffs": [[Infinity], [1]]}',
    '{"curve": "quintic", "domain": [0, 1e400]}',
    '{"curve": "moment", "d": 2.5}', '{"curve": "spiral"}',
    '{"curve": 5}', '{"curve": ["quintic"]}', "[]", "{}",
]


@st.composite
def points_text(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    clean = draw(st.booleans())
    if draw(st.booleans()):
        tokens = INTS if clean else INTS + CSV_ODD
        rows = [",".join(draw(st.sampled_from(tokens)) for _ in range(d))
                for _ in range(n)]
        return "".join(row + "\n" for row in rows)
    tokens = INTS if clean else INTS + JSON_ODD
    rows = ["[" + ",".join(draw(st.sampled_from(tokens)) for _ in range(d))
            + "]" for _ in range(n)]
    dim = draw(st.sampled_from([d, d, d + 1]))
    return '{"dim": %d, "points": [%s]}' % (dim, ",".join(rows))


@st.composite
def table_text(draw):
    k, n = draw(st.integers(0, 2)), draw(st.integers(0, 6))
    elements = [f"a{i}" for i in range(n)]
    signs = [{"subset": list(s),
              "sign": draw(st.sampled_from([1, -1, 1, -1, 0, 2, "x"]))}
             for s in itertools.combinations(elements, k + 1)]
    if signs and draw(st.booleans()):
        signs.pop(draw(st.integers(0, len(signs) - 1)))
    return json.dumps({"k": k, "elements": elements, "signs": signs})


KINDS = {
    "points": points_text(), "table": table_text(),
    "curve": st.sampled_from(CURVE_SPECS),
    "odd": st.sampled_from(["[" * 200000, "{" * 3, "", "0,0\n1,\udcff\n"]),
}
READS = {name: "points" for name in OWN}
READS.update({"flip": "table", "reduce": "table", "sample": "curve",
              "decompose-curve": "curve"})


def often(draw):
    return draw(st.integers(0, 7)) > 0


@st.composite
def cases(draw):
    """argv and input bytes of one run."""
    command = draw(st.sampled_from(sorted(OWN)))
    pool = OWN[command] if often(draw) else FLAGS
    names = draw(st.lists(st.sampled_from(pool), unique=True, max_size=5))
    if often(draw):
        for group in REQUIRED[command]:
            if not set(group) & set(names):
                names.append(draw(st.sampled_from(group)))
    chosen = {}
    if READS[command] == "curve" and often(draw):
        # One consistent source: --input alone, or --curve with its flags.
        names = [n for n in names if n not in SOURCE_FLAGS]
        curve = draw(st.sampled_from(sorted(CURVE_FLAGS) + ["--input"]))
        if curve == "--input":
            names.append(curve)
        else:
            chosen["--curve"] = curve
            names += ["--curve", *CURVE_FLAGS[curve]]
    argv = [command]
    for name in names:
        good, bad = VALUES[name]
        argv += [name, chosen.get(name) or draw(
            st.sampled_from(good if often(draw) else bad))]
    kind = READS[command] if often(draw) else draw(st.sampled_from(
        sorted(KINDS)))
    if command == "flip" and draw(st.booleans()):
        kind = "points"
    data = draw(KINDS[kind]).encode("utf-8", "surrogateescape")
    return argv, data


def run(argv, data):
    """Exit code and stdout of one in-process run, stdin holding data."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=1000, deadline=None)
@given(cases())
def test_cli_exits_cleanly(case):
    argv, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input"
        path.write_bytes(data)
        names = {"input": str(path), "tmp": tmp, "missing": f"{tmp}/none"}
        code, out = run([a.format(**names) if a.startswith("{") else a
                         for a in argv], data)
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert out == ""
    else:
        VALIDATOR.validate(json.loads(out))
