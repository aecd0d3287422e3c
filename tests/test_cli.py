"""CLI behavior: exit codes, report shapes, determinism, SVG output."""

import argparse
import io
import json
import subprocess
import sys
import time
from decimal import Decimal
from types import SimpleNamespace

import pytest
from jsonschema import Draft202012Validator

from convexsplit import cli
from convexsplit.cli import _rat, build_parser, main
from convexsplit.exactgeom import point_seq
from convexsplit.kseq import c_bound
from convexsplit.ordertype import is_order_type_homogeneous, tuple_sign

ZIGZAG_CSV = "0,0\n1,1\n2,0\n3,1\n"
MOMENT3_CSV = "".join(f"{i}/9,{i*i}/81,{i**3}/729\n" for i in range(1, 9))

PAIRS_TABLE = {
    "k": 1,
    "elements": ["a1", "a2", "a3", "a4"],
    "signs": [
        {"subset": ["a1", "a2"], "sign": 1},
        {"subset": ["a1", "a3"], "sign": -1},
        {"subset": ["a1", "a4"], "sign": -1},
        {"subset": ["a2", "a3"], "sign": -1},
        {"subset": ["a2", "a4"], "sign": -1},
        {"subset": ["a3", "a4"], "sign": 1},
    ],
}

NON_FLIP_TABLE = {
    "k": 1,
    "elements": ["a1", "a2", "a3", "a4"],
    "signs": [
        {"subset": ["a1", "a2"], "sign": -1},
        {"subset": ["a1", "a3"], "sign": 1},
        {"subset": ["a1", "a4"], "sign": -1},
        {"subset": ["a2", "a3"], "sign": 1},
        {"subset": ["a2", "a4"], "sign": 1},
        {"subset": ["a3", "a4"], "sign": 1},
    ],
}


@pytest.fixture(scope="module")
def validator():
    with open("docs/report-schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


@pytest.fixture()
def run(capsys, validator):
    def runner(argv, expect_report=True):
        code = main(argv)
        out = capsys.readouterr().out
        if not expect_report:
            assert out == ""
            return code, None
        report = json.loads(out)
        validator.validate(report)
        return code, report

    return runner


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_missing_command(self, run):
        code, _ = run([], expect_report=False)
        assert code == 2

    def test_unknown_flag(self, run):
        code, _ = run(["homog", "--frob", "1"], expect_report=False)
        assert code == 2

    def test_missing_input(self, run):
        code, _ = run(["homog"], expect_report=False)
        assert code == 2

    def test_dim_mismatch(self, run, tmp_path):
        path = write(tmp_path, "p.csv", ZIGZAG_CSV)
        code, _ = run(["homog", "--input", path, "--dim", "3"],
                      expect_report=False)
        assert code == 2

    def test_inconsistent_widths(self, run, tmp_path):
        path = write(tmp_path, "p.csv", "0,0\n1,2,3\n")
        code, _ = run(["verify-gp", "--input", path], expect_report=False)
        assert code == 2

    def test_bad_rational(self, run, tmp_path):
        path = write(tmp_path, "p.csv", "0,zero\n1,1\n")
        code, _ = run(["verify-gp", "--input", path], expect_report=False)
        assert code == 2

    def test_stdin_input(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(ZIGZAG_CSV))
        code, report = run(["homog", "--input", "-"])
        assert code == 0
        assert report["result"]["n"] == 4

    @pytest.mark.parametrize("text", [
        '{"points": [1, 2, 3]}',
        '[1, 2, 3]',
        '{"points": ["12", "34", "56"]}',
        '{"points": [{"x": 1, "y": 2}, {"x": 3, "y": 4}]}',
        '{"points": [[{"x": 1}, 2], [0, 0]]}',
        '{"points": [[[1], [2]], [[3], [4]]]}',
        '{"points": [[true, 1], [0, 0], [1, 2]]}',
        pytest.param("[" * 200000, id="deep-nesting"),
        pytest.param('{"points": [[' + "1" * 5000 + ', 0]]}',
                     id="past-int-digit-limit"),
    ])
    @pytest.mark.parametrize("command", ["homog", "flip"])
    def test_json_shape_is_a_parse_error(self, command, text, capsys,
                                         monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main([command, "--input", "-"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("convexsplit: error:")

    # Fraction would expand these decimals to integers of 4,300 digits or
    # more, which no report could print; the bound refuses them first.
    @pytest.mark.parametrize("argv,text", [
        (["homog", "--input", "-"], "1e1000000,0\n1,1\n2,5\n"),
        (["homog", "--input", "-"],
         '{"points": [["1E+99999", 0], [1, 1], [2, 5]]}'),
        (["sample", "--curve", "quintic", "--eps", "1e-300000"], ""),
        (["sample", "--curve", "quintic", "--eps", "1e-4300"], ""),
        (["sample", "--curve", "poly", "--coeffs", '[[0, "1e300000"]]',
          "--eps", "1/4"], ""),
        (["sample", "--curve", "quintic", "--eps", "." + "0" * 4299 + "1"],
         ""),
        (["homog", "--input", "-"], "0." + "0" * 4299 + "1,0\n1,1\n2,5\n"),
        (["homog", "--input", "-"], "1" * 5000 + ",0\n1,1\n2,5\n"),
    ])
    def test_exponent_past_the_digit_limit_is_a_parse_error(
            self, argv, text, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("convexsplit: error:")
        # as_rational's own bound, which runs before Fraction does.
        assert "decimal past the 4300-digit limit" in err

    @pytest.mark.parametrize("argv", [
        ["crossings", "--input", "-"],
        ["ramsey", "--input", "-"],
        ["decompose-curve", "--curve", "quintic", "--eps", "1/5"],
    ])
    @pytest.mark.parametrize("budget", ["-1", "x"])
    def test_bad_oracle_budget_is_a_parse_error(self, argv, budget, capsys,
                                                monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(ZIGZAG_CSV))
        code = main(argv + ["--oracle-budget", budget])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "--oracle-budget" in err

    # Each argv names a flag its command does not take; {pts}, {table}
    # and {spec} are valid inputs, so only the flag makes the usage error.
    @pytest.mark.parametrize("argv", [
        "homog --input {pts} --seed 1",
        "verify-gp --input {pts} --oracle-budget 5",
        "flip --input {pts} --out-svg x.svg",
        "crossings --input {pts} --eps 1/4",
        "decompose --input {pts} --oracle-budget 5",
        "ramsey --input {pts} --curve quintic",
        "bounds --k 2 --input x",
        "reduce --input {table} --dim 2",
        "sample --curve quintic --eps 1/4 --oracle-budget 5",
        "sample --curve quintic --input x --eps 1/4",
        "sample --input {spec} --dents 3 --eps 1/4",
        "decompose-curve --input {spec} --dim 2 --eps 1/4",
        "decompose-curve --curve quintic --eps 1/4 --k 2",
    ])
    def test_flag_the_command_does_not_take(self, argv, capsys, tmp_path):
        pts = write(tmp_path, "p.csv", ZIGZAG_CSV)
        table = write(tmp_path, "t.json", json.dumps(PAIRS_TABLE))
        spec = write(tmp_path, "c.json", '{"curve": "quintic"}')
        code = main(argv.format(pts=pts, table=table, spec=spec).split())
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_each_command_takes_only_its_flags(self):
        points = {"--input", "--dim", "--out-json"}
        curve = {"--input", "--curve", "--dim", "--dents", "--depth",
                 "--coeffs", "--domain", "--eps", "--seed", "--out-svg",
                 "--out-json"}
        expected = {
            "verify-gp": points, "homog": points, "flip": points,
            "crossings": points | {"--oracle-budget"},
            "ramsey": points | {"--oracle-budget"},
            "decompose": points | {"--out-svg"},
            "sample": curve,
            "decompose-curve": curve | {"--oracle-budget"},
            "reduce": {"--input", "--out-json"},
            "bounds": {"--k", "--out-json"},
        }
        commands = next(a for a in cli._argparse_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        flags = {name: {opt for a in p._actions for opt in a.option_strings
                        if opt not in ("-h", "--help")}
                 for name, p in commands.choices.items()}
        assert flags == expected
        assert sum(map(len, flags.values())) == 48
        table = {name: [opt for opt, _ in flags]
                 for name, (_, _, flags) in cli.COMMANDS.items()}
        assert {name: set(opts) for name, opts in table.items()} == expected
        assert sum(map(len, table.values())) == 48

    def test_undecodable_input_is_a_parse_error(self, run, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"0,0\n1,\xff\n")
        code, _ = run(["homog", "--input", str(path)], expect_report=False)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["homog", "--input", "{pts}", "--out-json", "{tmp}"],
        ["homog", "--input", "{line}", "--out-json", "{tmp}"],
        ["decompose", "--input", "{pts}", "--out-svg", "{tmp}/no/z.svg"],
        ["sample", "--curve", "quintic", "--eps", "1/4",
         "--out-svg", "{tmp}/no/q.svg"],
    ])
    def test_unwritable_output_is_a_parse_error(self, argv, capsys,
                                                tmp_path):
        names = {"tmp": str(tmp_path),
                 "pts": write(tmp_path, "p.csv", ZIGZAG_CSV),
                 "line": write(tmp_path, "l.csv", "0,0\n1,1\n2,2\n")}
        code = main([a.format(**names) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("convexsplit: error: cannot write")

    def test_zero_oracle_budget_is_a_budget(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(ZIGZAG_CSV))
        code, report = run(["crossings", "--input", "-",
                            "--oracle-budget", "0"])
        assert code == 4
        assert report["error"]["type"] == "budget"

    def test_csv_and_json_inputs_agree(self, run, tmp_path):
        csv = write(tmp_path, "p.csv", "# a comment\n" + ZIGZAG_CSV)
        obj = {"dim": 2, "points": [["0", "0"], ["1", "1"],
                                    ["2", "0"], ["3", "1"]]}
        js = write(tmp_path, "p.json", json.dumps(obj))
        _, from_csv = run(["homog", "--input", csv])
        _, from_json = run(["homog", "--input", js])
        assert from_csv["result"] == from_json["result"]


class TestVerifyGp:
    def test_accepts(self, run, tmp_path):
        path = write(tmp_path, "p.csv", ZIGZAG_CSV)
        code, report = run(["verify-gp", "--input", path])
        assert code == 0
        assert report["result"] == {"n": 4, "dim": 2,
                                    "general_position": True}

    def test_rejects_with_witness(self, run, tmp_path):
        path = write(tmp_path, "p.csv", "0,0\n1,1\n2,2\n0,1\n")
        code, report = run(["verify-gp", "--input", path])
        assert code == 3
        assert report["result"]["general_position"] is False
        assert report["result"]["witness"] == [0, 1, 2]


class TestHomog:
    def test_convex_path(self, run, tmp_path):
        path = write(tmp_path, "p.csv", "0,0\n3,1\n4,4\n2,6\n-1,5\n")
        code, report = run(["homog", "--input", path])
        assert code == 0
        assert report["result"]["homogeneous"] is True
        assert report["result"]["sign"] == 1

    def test_zigzag_witnesses_reevaluate(self, run, tmp_path):
        path = write(tmp_path, "p.csv", ZIGZAG_CSV)
        code, report = run(["homog", "--input", path])
        assert code == 0
        a, b = report["result"]["witnesses"]
        assert [a, b] == [[0, 1, 2], [0, 2, 3]]
        seq = point_seq([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert tuple_sign(seq, tuple(a)) != tuple_sign(seq, tuple(b))

    def test_degenerate_input_reports_witness(self, run, tmp_path):
        path = write(tmp_path, "p.csv", "0,0\n1,1\n2,2\n0,1\n")
        code, report = run(["homog", "--input", path])
        assert code == 3
        assert report["error"]["type"] == "general-position"
        assert report["error"]["witness"] == [0, 1, 2]


class TestFlip:
    def test_points_mode(self, run, tmp_path):
        w = "0,0\n1,2\n2,1/4\n3,9/4\n4,1\n5,3\n"
        path = write(tmp_path, "w.csv", w)
        code, report = run(["flip", "--input", path])
        assert code == 0
        assert report["config"]["mode"] == "points"
        assert report["result"]["flip"] is False
        assert report["result"]["witness"]["subset"] == [0, 3]
        assert report["result"]["witness"]["signs"] == [-1, 1, -1, -1]

    def test_points_mode_flip(self, run, tmp_path):
        path = write(tmp_path, "z.csv", ZIGZAG_CSV)
        code, report = run(["flip", "--input", path])
        assert code == 0
        assert report["result"] == {"n": 4, "k": 2, "flip": True}

    def test_table_mode(self, run, tmp_path):
        path = write(tmp_path, "t.json", json.dumps(NON_FLIP_TABLE))
        code, report = run(["flip", "--input", path])
        assert code == 0
        assert report["config"]["mode"] == "table"
        assert report["result"]["flip"] is False
        assert report["result"]["witness"]["subset"] == ["a1"]
        assert report["result"]["witness"]["signs"] == [-1, 1, -1]

    def test_table_mode_flip(self, run, tmp_path):
        path = write(tmp_path, "t.json", json.dumps(PAIRS_TABLE))
        code, report = run(["flip", "--input", path])
        assert code == 0
        assert report["result"] == {"n": 4, "k": 1, "flip": True}

    def test_bad_table(self, run, tmp_path):
        path = write(tmp_path, "t.json", '{"signs": []}')
        code, _ = run(["flip", "--input", path], expect_report=False)
        assert code == 2

    def test_points_that_mention_signs_are_points(self, run, tmp_path,
                                                  monkeypatch):
        # A "signs" string is not a "signs" key; the file is decoded once.
        path = write(tmp_path, "p.json", '{"dim": 2, "points": '
                     '[[0,0],[1,1],[2,5]], "note": "signs"}')
        decoded = []
        load = cli._load_json
        monkeypatch.setattr(cli, "_load_json",
                            lambda text: decoded.append(text) or load(text))
        code, report = run(["flip", "--input", path])
        assert code == 0
        assert report["config"] == {"dim": 2, "input": path,
                                    "mode": "points"}
        assert report["result"] == {"n": 3, "k": 2, "flip": True}
        assert len(decoded) == 1

    @pytest.mark.parametrize("dim", ["1", "7"])
    def test_table_mode_takes_no_dim(self, dim, capsys, tmp_path):
        # A sign table holds its own k, so --dim would do nothing.
        path = write(tmp_path, "t.json", json.dumps(PAIRS_TABLE))
        code = main(["flip", "--input", path, "--dim", dim])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "--dim" in err


class TestCrossings:
    def test_zigzag(self, run, tmp_path):
        path = write(tmp_path, "z.csv", ZIGZAG_CSV)
        code, report = run(["crossings", "--input", path])
        assert code == 0
        result = report["result"]
        assert result["max_crossings"] == 3
        assert result["witness"] == {"kind": "perturbed", "subset": [0, 2],
                                     "sides": [-1, -1]}
        assert result["witness_crossings"] == 3

    def test_budget(self, run, tmp_path):
        path = write(tmp_path, "z.csv", ZIGZAG_CSV)
        code, report = run(["crossings", "--input", path,
                            "--oracle-budget", "3"])
        assert code == 4
        assert report["error"]["type"] == "budget"
        assert report["error"]["n"] == 4


class TestDecompose:
    def test_zigzag(self, run, tmp_path):
        path = write(tmp_path, "z.csv", ZIGZAG_CSV)
        code, report = run(["decompose", "--input", path])
        assert code == 0
        result = report["result"]
        assert result["pieces"] == 2
        assert result["blocks"] == [[0, 2], [2, 3]]

    def test_blocks_reevaluate_as_convex(self, run, tmp_path):
        pts = [(0, 4), (1, 6), (2, 9), (3, 7), (4, 4), (5, 7), (6, 0)]
        path = write(tmp_path, "p.csv",
                     "".join(f"{x},{y}\n" for x, y in pts))
        code, report = run(["decompose", "--input", path])
        assert code == 0
        seq = point_seq(pts)
        for lo, hi in report["result"]["blocks"]:
            piece = seq.subsequence(range(lo, hi + 1))
            assert len(piece) <= 2 or is_order_type_homogeneous(piece)

    def test_svg(self, run, tmp_path):
        path = write(tmp_path, "z.csv", ZIGZAG_CSV)
        svg = tmp_path / "z.svg"
        code, _ = run(["decompose", "--input", path, "--out-svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert text.count("<circle") == 4

    def test_svg_plots_coordinates_beyond_float_range(self, run, tmp_path):
        # 1e400 is an exact integer, larger than any float.
        path = write(tmp_path, "h.csv", "-9,-9\n-9,-8\n-8,1e400\n")
        svg = tmp_path / "h.svg"
        code, _ = run(["decompose", "--input", path, "--out-svg", str(svg)])
        assert code == 0
        assert '<polyline points="24.00,456.00 24.00,456.00 616.00,24.00"' \
            in svg.read_text()

    def test_svg_needs_dim_2(self, run, tmp_path):
        path = write(tmp_path, "m.csv", MOMENT3_CSV)
        svg = tmp_path / "m.svg"
        code, _ = run(["decompose", "--input", path, "--out-svg", str(svg)],
                      expect_report=False)
        assert code == 2
        assert not svg.exists()


class TestSample:
    def test_quintic(self, run):
        code, report = run(["sample", "--curve", "quintic", "--eps", "4/11"])
        assert code == 0
        result = report["result"]
        assert result["n"] == 11
        assert result["dim"] == 2
        assert len(result["params"]) == 11
        assert len(result["points"]) == 11

    def test_flag_and_json_configs_agree(self, run, tmp_path):
        spec = write(tmp_path, "c.json", '{"curve": "quintic"}')
        _, a = run(["sample", "--curve", "quintic", "--eps", "4/11"])
        _, b = run(["sample", "--input", spec, "--eps", "4/11"])
        assert a["result"] == b["result"]

    def test_moment_json_dim_key(self, run, tmp_path):
        spec = write(tmp_path, "c.json", '{"curve": "moment", "d": 3}')
        code, report = run(["sample", "--input", spec, "--eps", "1/4"])
        assert code == 0
        assert report["result"]["dim"] == 3

    def test_deterministic_reports(self, run):
        argv = ["sample", "--curve", "quintic", "--eps", "1/5",
                "--seed", "3"]
        _, a = run(argv)
        _, b = run(argv)
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_seed_changes_sample(self, run):
        _, a = run(["sample", "--curve", "quintic", "--eps", "1/5"])
        _, b = run(["sample", "--curve", "quintic", "--eps", "1/5",
                    "--seed", "1"])
        assert a["result"]["params"] != b["result"]["params"]

    def test_missing_eps(self, run):
        code, _ = run(["sample", "--curve", "quintic"], expect_report=False)
        assert code == 2

    def test_nonpositive_eps(self, run):
        code, _ = run(["sample", "--curve", "quintic", "--eps", "0"],
                      expect_report=False)
        assert code == 2

    def test_degenerate_curve_reports_cell(self, run):
        code, report = run(["sample", "--curve", "poly",
                            "--coeffs", '[["0","1"],["0","1"]]',
                            "--eps", "1/2"])
        assert code == 3
        assert report["error"]["type"] == "sampling"
        assert report["error"]["cell"] == 2

    @pytest.mark.parametrize("text", [
        '{"curve": "quintic", "domain": 5}',
        '{"curve": "moment", "d": 2.5}',
        '{"curve": "moment", "d": true}',
        '{"curve": "dented_arc", "dents": true, "depth": "1/100"}',
        '{"curve": "poly", "coeffs": [["0", "1"], ["0", "0", "1"]], '
        '"domain": ["0", "1", "2"]}',
        '{"curve": "poly", "coeffs": [["1/0"]]}',
        '{"curve": "poly", "coeffs": [[1e400]]}',
        '{"curve": "poly", "coeffs": [["0", "1"], [-Infinity, 1]]}',
        '{"curve": "poly", "coeffs": [["0", "1"], [NaN, 1]]}',
        '{"curve": "poly", "coeffs": [["0", "1"]], "domain": [0, 1e400]}',
        pytest.param("[" * 200000, id="deep-nesting"),
    ])
    def test_curve_json_shape_is_a_parse_error(self, text, capsys,
                                               monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(["sample", "--input", "-", "--eps", "1/4"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("convexsplit: error:")

    @pytest.mark.parametrize("flags", [
        ["--coeffs", "[[1e400]]"],
        ["--coeffs", "[[Infinity]]"],
        ["--coeffs", '[["0", "1"], [-Infinity, 1]]'],
        ["--coeffs", '[["0", "1"], ["0", "1"]]', "--domain", "[0, 1e400]"],
        ["--coeffs", "[" * 200000],
    ])
    def test_non_finite_curve_flags_are_a_parse_error(self, flags, capsys):
        code = main(["sample", "--curve", "poly", *flags, "--eps", "1/2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("convexsplit: error:")

    def test_svg_written_for_planar_curves(self, run, tmp_path):
        svg = tmp_path / "q.svg"
        code, _ = run(["sample", "--curve", "quintic", "--eps", "4/11",
                       "--out-svg", str(svg)])
        assert code == 0
        assert svg.read_text().count("<circle") == 11


class TestDecomposeCurve:
    def test_quintic(self, run):
        code, report = run(["decompose-curve", "--curve", "quintic",
                            "--eps", "1/5"])
        assert code == 0
        result = report["result"]
        assert result["pieces"] == 4
        assert result["certified_max_crossings"] == 3
        assert result["intervals"][0][0] == -1
        assert result["intervals"][-1][1] == 1
        assert len(result["intervals"]) == 4
        assert len(result["cuts"]) == 3

    def test_dented_arc_flags(self, run):
        code, report = run(["decompose-curve", "--curve", "dented_arc",
                            "--dents", "3", "--depth", "1/100",
                            "--eps", "1/36"])
        assert code == 0
        assert report["result"]["pieces"] == 7

    def test_dented_arc_with_many_dents(self, run):
        # Each point evaluates the one dent whose cell holds it, so the
        # dent count costs nothing: no list of 10^8 centers is built.
        started = time.perf_counter()
        code, report = run(["sample", "--curve", "dented_arc",
                            "--dents", "100000000",
                            "--depth", "1/" + "1" + "0" * 20,
                            "--eps", "1/4"])
        assert code == 0
        assert report["result"]["n"] == 8
        assert time.perf_counter() - started < 5

    def test_certification_respects_budget(self, run):
        code, report = run(["decompose-curve", "--curve", "quintic",
                            "--eps", "1/5", "--oracle-budget", "5"])
        assert code == 0
        assert "certified_max_crossings" not in report["result"]

    def test_bad_curve_params(self, run):
        code, _ = run(["decompose-curve", "--curve", "dented_arc",
                       "--dents", "3", "--depth", "1/2", "--eps", "1/36"],
                      expect_report=False)
        assert code == 2


class TestReduce:
    def test_pairs_table(self, run, tmp_path):
        path = write(tmp_path, "t.json", json.dumps(PAIRS_TABLE))
        code, report = run(["reduce", "--input", path])
        assert code == 0
        result = report["result"]
        assert result["m"] == 3
        assert result["reduced_m"] == 3
        assert result["reduced_n"] <= result["n"]
        assert result["block_sizes"] == [2, 2, 2]
        assert result["reduced"]["k"] == 1

    def test_bad_table(self, run, tmp_path):
        path = write(tmp_path, "t.json", '{"k": 1}')
        code, _ = run(["reduce", "--input", path], expect_report=False)
        assert code == 2

    # k = 1 on 1..8 with every pair +1 but {1, 5}: greedy reads {1, 2}
    # and never {3, 6}.  A bad sign is a usage error wherever it stands.
    @pytest.mark.parametrize("command", ["reduce", "flip"])
    @pytest.mark.parametrize("pair", [(3, 6), (1, 2)])
    @pytest.mark.parametrize("sign", [7, True])
    def test_sign_that_is_not_plus_or_minus_one(self, run, tmp_path,
                                                command, pair, sign):
        elements = list(range(1, 9))
        table = {"k": 1, "elements": elements, "signs": [
            {"subset": [a, b],
             "sign": sign if (a, b) == pair else -1 if (a, b) == (1, 5)
             else 1}
            for a in elements for b in elements if a < b]}
        path = write(tmp_path, "t.json", json.dumps(table))
        code, _ = run([command, "--input", path], expect_report=False)
        assert code == 2


class TestBounds:
    def test_range(self, run):
        code, report = run(["bounds", "--k", "1..4"])
        assert code == 0
        result = report["result"]
        assert result["k"] == [1, 2, 3, 4]
        assert result["c"] == [3, 28, "619/3", "8053/6"]
        assert result["known_bounds"] == {"c1": 3, "c2_le": 22, "M1": 3,
                                          "M2": 4, "M3_le": 22}

    def test_single(self, run):
        code, report = run(["bounds", "--k", "3"])
        assert code == 0
        assert report["result"]["c"] == ["619/3"]

    def test_bad_range(self, run):
        code, _ = run(["bounds", "--k", "4..2"], expect_report=False)
        assert code == 2

    def test_long_range_is_linear(self, run):
        started = time.perf_counter()
        code, report = run(["bounds", "--k", "1..3000"])
        assert time.perf_counter() - started < 5.0
        assert code == 0
        c = report["result"]["c"]
        assert len(c) == 3000
        for k in (1, 2, 7, 3000):
            assert c[k - 1] == _rat(c_bound(k))

    def test_values_beyond_the_int_digit_limit(self, run):
        # c(5000) has more digits than CPython converts by default
        limit = sys.get_int_max_str_digits()
        code, report = run(["bounds", "--k", "5000"])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        c = c_bound(5000)
        num, den = report["result"]["c"][0].split("/")
        assert (Decimal(num), Decimal(den)) == (Decimal(c.numerator),
                                                Decimal(c.denominator))
        assert len(num) > 4300


class TestRamsey:
    def test_homogeneous_input(self, run, tmp_path):
        path = write(tmp_path, "m.csv", MOMENT3_CSV)
        code, report = run(["ramsey", "--input", path])
        assert code == 0
        result = report["result"]
        assert result["homogeneous_input"] is True
        assert "longest" not in result
        assert [s["k"] for s in result["stages"]] == [2, 1]
        assert result["final"]["length"] == 8

    def test_zigzag_goes_through_longest(self, run, tmp_path):
        path = write(tmp_path, "z.csv", ZIGZAG_CSV)
        code, report = run(["ramsey", "--input", path])
        assert code == 0
        result = report["result"]
        assert result["homogeneous_input"] is False
        assert result["longest"] == {"length": 3, "labels": [0, 1, 2]}
        assert result["final"]["labels"] == [0, 1, 2]

    def test_budget_guards_search(self, run, tmp_path):
        path = write(tmp_path, "z.csv", ZIGZAG_CSV)
        code, report = run(["ramsey", "--input", path,
                            "--oracle-budget", "3"])
        assert code == 4
        assert report["error"]["type"] == "budget"


class TestReporting:
    def test_error_envelopes_carry_config(self, run, tmp_path):
        line = write(tmp_path, "l.csv", "0,0\n1,1\n2,2\n")
        code, report = run(["homog", "--input", line])
        assert code == 3
        assert report["config"] == {"dim": 2, "input": line}
        zigzag = write(tmp_path, "z.csv", ZIGZAG_CSV)
        code, report = run(["crossings", "--input", zigzag,
                            "--oracle-budget", "3"])
        assert code == 4
        assert report["config"] == {"dim": 2, "input": zigzag,
                                    "oracle_budget": 3}
        code, report = run(["ramsey", "--input", zigzag,
                            "--oracle-budget", "3"])
        assert code == 4
        assert report["config"] == {"dim": 2, "input": zigzag,
                                    "oracle_budget": 3}

    def test_error_envelopes_time_from_dispatch(self, run, tmp_path,
                                                monkeypatch):
        # A clock that reading the input moves on by 5 s: an envelope timed
        # from dispatch counts those seconds.
        clock = [0.0]
        read = cli._read_source

        def slow_read(path):
            clock[0] += 5.0
            return read(path)

        monkeypatch.setattr(cli, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(cli, "_read_source", slow_read)
        line = write(tmp_path, "l.csv", "0,0\n1,1\n2,2\n")
        code, report = run(["homog", "--input", line])
        assert code == 3
        assert report["timing"]["seconds"] == 5.0

    def test_out_json_matches_stdout(self, run, tmp_path):
        out = tmp_path / "r.json"
        code, report = run(["bounds", "--k", "2", "--out-json", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == report

    def test_keys_are_sorted(self, run, capsys):
        main(["bounds", "--k", "1"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"

    def test_one_parser_serves_every_call(self, run, tmp_path):
        # main reuses one parser; no flag of a call may reach the next.
        planar = write(tmp_path, "zigzag.csv", ZIGZAG_CSV)
        spatial = write(tmp_path, "moment.csv", MOMENT3_CSV)
        out = tmp_path / "flip.json"
        code, first = run(["homog", "--input", planar])
        assert code == 0
        assert first["config"] == {"dim": 2, "input": planar}
        code, flip = run(["flip", "--input", planar, "--dim", "2",
                          "--out-json", str(out)])
        assert code == 0
        assert flip["config"] == {"dim": 2, "input": planar,
                                  "mode": "points"}
        code, last = run(["homog", "--input", spatial])
        assert code == 0
        assert last["config"] == {"dim": 3, "input": spatial}
        assert json.loads(out.read_text()) == flip
        assert build_parser() is build_parser()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "convexsplit", "bounds", "--k", "1..2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["c"] == [3, 28]
