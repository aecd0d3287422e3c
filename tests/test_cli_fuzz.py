"""Fuzz the CLI over argv and inputs: it never shows a traceback.

Each example runs one of the ten commands with a random subset of the
thirteen flag names and a small input: points as CSV or JSON (n <= 8), a
sign table, a curve spec, deeply nested JSON or undecodable bytes, with
non-finite numbers mixed in.  Most examples draw the command's own flags,
well-formed values and the kind of input it reads, so that they get past
parsing.  Every run exits 0, 2, 3 or 4; a report (exit 0, 3 or 4)
validates against docs/report-schema.json, and a usage error (exit 2)
prints nothing on stdout.

The same argv, with now and then a token from outside the fast parse's
grammar, also checks ``build_parser()``: whatever its fast step accepts
must be what argparse parses, and the rest is argparse's answer.
"""

import io
import itertools
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from convexsplit.cli import (_argparse_parser, _parse_well_formed,
                             build_parser, main)

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


# Tokens off the fast parse's grammar: help, an abbreviation, an inline
# value, a negative number, the end of options, an unknown flag.
OFF_GRAMMAR = ["-h", "--help", "--inp", "--input=x", "--dim=2", "-3", "--",
               "--bogus", "x"]
# Values that start with "-": stdin, which the fast parse takes, and
# tokens that argparse reads as a flag or as a negative number.
DASHED = ["-", "-x", "-1/3", "-3", "--input", "-h"]


@st.composite
def argvs(draw):
    """The argv of cases(), with its placeholders filled in, and at times
    a value that starts with "-", a token off the grammar or a repeated
    flag."""
    argv, _ = draw(cases())
    names = {"input": "in.csv", "tmp": "out", "missing": "none"}
    argv = [a.format(**names) if a.startswith("{") else a for a in argv]
    if len(argv) > 2 and not often(draw):
        value = 2 * draw(st.integers(1, (len(argv) - 1) // 2))
        argv[value] = draw(st.sampled_from(DASHED))
    if not often(draw):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(OFF_GRAMMAR)))
    if len(argv) > 2 and not often(draw):
        argv += argv[1:3]
    return argv


def answer(parser, argv):
    """The namespace parser.parse_args gives argv as a dict, or the exit
    code and output of its usage error or help."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(argvs())
def test_fast_parse_answers_as_argparse(argv):
    expected = answer(_argparse_parser(), argv)
    fast = _parse_well_formed(argv)
    if fast is not None:
        assert vars(fast) == expected
    assert answer(build_parser(), argv) == expected


@pytest.mark.parametrize("argv", [
    ["-h"], ["homog", "-h"], ["homog", "--input", "p.csv", "-h"],
    ["homog", "--help", "--input", "p.csv"],
    ["homog", "--inp", "p.csv"], ["homog", "--input=p.csv"],
    ["homog", "--input", "p.csv", "--input", "q.csv"],
    ["sample", "--curve", "quintic", "--eps", "1/4", "--seed", "-3"],
    ["sample", "--curve", "quintic", "--input", "c.json", "--eps", "1/4"],
    ["sample", "--curve", "spiral", "--eps", "1/4"],
    ["sample", "--eps", "1/4"], ["homog", "--input"], ["homog"], [],
    ["homog", "--input", "p.csv", "--", "x"], ["spiral", "--input", "p"],
    ["crossings", "--input", "p.csv", "--oracle-budget", "x"],
    ["crossings", "--input", "p.csv", "--oracle-budget", "-1"],
])
def test_off_grammar_argv_falls_back_to_argparse(argv):
    assert _parse_well_formed(argv) is None
    assert answer(build_parser(), argv) == answer(_argparse_parser(), argv)


@pytest.mark.parametrize("argv", [
    ["homog", "--input", "-"], ["flip", "--input", "p.csv", "--dim", "2"],
    ["crossings", "--input", "p.csv", "--oracle-budget", "0"],
    ["decompose-curve", "--curve", "quintic", "--eps", "1/25",
     "--seed", "404"],
    ["decompose-curve", "--input", "-", "--eps", "1/4",
     "--oracle-budget", "60", "--out-json", "r.json"],
    ["sample", "--out-svg", "p.svg", "--curve", "moment", "--dim", "3",
     "--eps", "1/8"],
    ["bounds", "--k", "1..4"], ["reduce", "--input", "t.json"],
])
def test_well_formed_argv_is_parsed_without_argparse(argv):
    args = _parse_well_formed(argv)
    assert args is not None
    assert vars(args) == answer(_argparse_parser(), argv)
