"""Command-line interface: deterministic JSON reports and 2-D SVG plots.

Each subcommand takes only the flags it reads; any other flag is a usage
error.  main builds the Reporter before any input is read, so an error
report also carries its command's config and times it from dispatch.

Exit codes: 0 success, 2 parse/usage error, 3 precondition violation
(witness included in the report), 4 oracle budget exceeded.  Reports are
byte-identical for identical config and seed, except for the timing field.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
import time
from fractions import Fraction

from .crossing import PolyPath, decompose, max_crossings, witness_crossings
from .curves import CurveSpec, SamplingError, builtin, decompose_curve, \
    epsilon_sample
from .exactgeom import (GeneralPositionError, PointSeq, as_rational,
                        is_general_position)
from .kseq import (KNOWN_BOUNDS, from_json_dict, greedy_partition,
                   iter_c_bounds, reduce, to_json_dict, verify_flip)
from .ordertype import is_flip, is_order_type_homogeneous
from .ramsey import longest_ot_homogeneous
# cmd_ramsey has already scanned its input for homogeneity, or built it
# homogeneous, so it runs super_extract's body without a second scan; the
# name stays super_extract, which bench/layers.py times as the extract step.
from .ramsey import _super_extract as super_extract

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

SCHEMA_VERSION = 1
DEFAULT_ORACLE_BUDGET = 60

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

# CPython refuses an integer digit limit below 640 digits, so no token of
# at most 640 characters can pass the limit.
_SHORT_TOKEN = 640


class ParseFailure(Exception):
    pass


class BudgetExceeded(Exception):
    def __init__(self, n: int, budget: int, what: str):
        super().__init__(
            f"{what} needs n <= --oracle-budget ({budget}), got n = {n}")
        self.n = n


def _rat(x) -> int | str:
    x = Fraction(x)
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def _rats(xs) -> list:
    return [_rat(x) for x in xs]


def _parse_rational(tok: str) -> Fraction:
    """A short token "p" or "p/q" of ASCII digits, q nonzero, is built
    from its ints; any other token takes as_rational, which checks it."""
    text = str(tok).strip()
    if len(text) <= _SHORT_TOKEN and text.isascii():
        p, slash, q = text.partition("/")
        if p.isdigit() and (q.isdigit() or not slash):
            den = int(q) if slash else 1
            if den:
                return Fraction(int(p), den)
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseFailure(f"not a rational number: {tok!r} ({exc})") from exc


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc}") from exc


def _load_json(text: str):
    # ValueError also covers integers past CPython's digit limit, and
    # RecursionError arrays or objects nested too deeply to decode.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseFailure(f"invalid JSON input: {exc}") from exc


def _load_table(text: str):
    try:
        return from_json_dict(_load_json(text))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"invalid sign-table JSON: {exc}") from exc


def _parse_json_row(row) -> list[Fraction]:
    """One JSON point: a list of numbers or rational strings."""
    if not isinstance(row, list):
        raise ParseFailure(
            f"each point must be a list of coordinates, got "
            f"{type(row).__name__}")
    for c in row:
        if isinstance(c, bool) or not isinstance(c, (int, float, str)):
            raise ParseFailure(
                f"each coordinate must be a number or a rational string, "
                f"got {type(c).__name__}")
    return [_parse_rational(c) for c in row]


def parse_points_text(text: str, expected_dim: int | None) -> PointSeq:
    """Points from CSV (one row per point) or JSON {dim, points}."""
    stripped = text.lstrip()
    declared_dim = None
    if stripped.startswith("{") or stripped.startswith("["):
        obj = _load_json(text)
        if isinstance(obj, dict):
            if "points" not in obj:
                raise ParseFailure('JSON point input needs a "points" key')
            rows = obj["points"]
            declared_dim = obj.get("dim")
        else:
            rows = obj
        if not isinstance(rows, list) or not rows:
            raise ParseFailure("points must be a non-empty list of rows")
        parsed = [_parse_json_row(row) for row in rows]
    else:
        parsed = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parsed.append([_parse_rational(c) for c in line.split(",")])
        if not parsed:
            raise ParseFailure("no points found in input")
    widths = {len(row) for row in parsed}
    if len(widths) != 1:
        raise ParseFailure(f"inconsistent row widths: {sorted(widths)}")
    dim = widths.pop()
    if dim < 1:
        raise ParseFailure("points must have at least one coordinate")
    for claim, source in ((declared_dim, "input dim"),
                          (expected_dim, "--dim")):
        if claim is not None and claim != dim:
            raise ParseFailure(
                f"{source} is {claim} but rows have {dim} coordinates")
    return PointSeq(dim, tuple(map(tuple, parsed)), tuple(range(len(parsed))))


def load_curve(args) -> tuple[CurveSpec, Fraction]:
    """Curve from --curve plus flags, or --input JSON {"curve": name, ...},
    and the positive --eps to sample it at."""
    flags = {"d": args.dim, "dents": args.dents, "depth": args.depth,
             "coeffs": args.coeffs, "domain": args.domain}
    params = {key: val for key, val in flags.items() if val is not None}
    if args.curve:
        name = args.curve
        for key in ("coeffs", "domain"):
            if key in params:
                params[key] = _load_json(params[key])
    elif params:
        raise ParseFailure("--dim, --dents, --depth, --coeffs and --domain "
                           "go with --curve, not with --input")
    else:
        obj = _load_json(_read_source(args.input))
        if not isinstance(obj, dict) or "curve" not in obj:
            raise ParseFailure('curve JSON needs a "curve" key')
        params = dict(obj)
        name = params.pop("curve")
    for key in ("d", "dents"):
        val = params.get(key)
        if key in params and (isinstance(val, bool)
                              or not isinstance(val, int)):
            raise ParseFailure(f'curve "{key}" must be an integer, '
                               f'got {val!r}')
    domain = params.get("domain")
    if domain is not None and not (isinstance(domain, list)
                                   and len(domain) == 2):
        raise ParseFailure(f'curve "domain" must be a list of 2 rationals, '
                           f'got {domain!r}')
    if name == "moment":
        if "d" not in params:
            raise ParseFailure("moment curve needs --dim (or \"d\" in JSON)")
        params["dim"] = params.pop("d")
    if name == "dented_arc" and "depth" in params:
        params["depth"] = _parse_rational(params["depth"])
    if "domain" in params and params["domain"] is not None:
        params["domain"] = [_parse_rational(v) for v in params["domain"]]
    elif "domain" in params:
        del params["domain"]
    try:
        curve = builtin(name, **params)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ParseFailure(f"invalid curve: {exc}") from exc
    eps = _parse_rational(args.eps)
    if eps <= 0:
        raise ParseFailure("--eps must be positive")
    return curve, eps


def _curve_config(args, curve: CurveSpec, eps: Fraction) -> dict:
    cfg = {"input": args.input} if args.input else {}
    cfg.update(curve=curve.name, eps=_rat(eps), seed=args.seed)
    for key, val in curve.params.items():
        if key == "coeffs":
            cfg[key] = [_rats(row) for row in val]
        elif key == "domain":
            cfg[key] = _rats(val)
        elif isinstance(val, Fraction):
            cfg[key] = _rat(val)
        else:
            cfg[key] = val
    return cfg


def render_svg(seq: PointSeq, pieces=None) -> str:
    """Path plot for d=2: pieces in alternating stroke styles, piece
    boundary vertices emphasized, coordinates scaled exactly."""
    if seq.dim != 2:
        raise ParseFailure("SVG output requires dim 2")
    width, height, margin = 640.0, 480.0, 24.0
    xs = [p[0] for p in seq.points]
    ys = [p[1] for p in seq.points]
    x0, y0 = min(xs), min(ys)
    spanx, spany = (max(xs) - x0) or 1, (max(ys) - y0) or 1

    def sx(x):
        return margin + float((x - x0) / spanx) * (width - 2 * margin)

    def sy(y):
        return (height - margin
                - float((y - y0) / spany) * (height - 2 * margin))

    def fmt(v):
        return f"{v:.2f}"

    if pieces is None:
        pieces = [(0, len(seq) - 1)]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for idx, (lo, hi) in enumerate(pieces):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        dash = '' if idx % 2 == 0 else ' stroke-dasharray="6 3"'
        coords = " ".join(
            f"{fmt(sx(xs[i]))},{fmt(sy(ys[i]))}" for i in range(lo, hi + 1))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
    boundary = {lo for lo, _ in pieces} | {hi for _, hi in pieces}
    for i in range(len(seq)):
        r = 4.0 if i in boundary else 2.0
        fill = "#000000" if i in boundary else "#555555"
        out.append(f'<circle cx="{fmt(sx(xs[i]))}" cy="{fmt(sy(ys[i]))}" '
                   f'r="{r}" fill="{fill}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _write_svg(args, seq: PointSeq, pieces=None):
    if args.out_svg:
        _write_file(args.out_svg, render_svg(seq, pieces))


class Reporter:
    """Assembles the report envelope and handles output files.  Built at
    dispatch, before any input is read; the command sets ``config`` once
    it has read its input."""

    def __init__(self, args):
        self.args = args
        self.config = {}
        self.started = time.perf_counter()

    def emit(self, result: dict, error: dict | None = None,
             code: int = EXIT_OK) -> int:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": self.args.command,
            "config": self.config,
            "result": result,
            "timing": {"seconds": round(
                time.perf_counter() - self.started, 6)},
        }
        if error is not None:
            report["error"] = error
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if self.args.out_json:
            _write_file(self.args.out_json, text)
        sys.stdout.write(text)
        return code


def cmd_verify_gp(args, rep: Reporter) -> int:
    seq = parse_points_text(_read_source(args.input), args.dim)
    rep.config = {"input": args.input, "dim": seq.dim}
    report = is_general_position(seq)
    result = {"n": len(seq), "dim": seq.dim,
              "general_position": bool(report)}
    if report:
        return rep.emit(result)
    result["witness"] = list(report.witness)
    return rep.emit(result, code=EXIT_PRECONDITION)


def cmd_homog(args, rep: Reporter) -> int:
    seq = parse_points_text(_read_source(args.input), args.dim)
    rep.config = {"input": args.input, "dim": seq.dim}
    report = is_order_type_homogeneous(seq)
    result = {"n": len(seq), "homogeneous": bool(report)}
    if report:
        result["sign"] = report.sign
    else:
        result["witnesses"] = [list(w) for w in report.witness]
    return rep.emit(result)


def cmd_flip(args, rep: Reporter) -> int:
    text = _read_source(args.input)
    stripped = text.lstrip()
    if stripped.startswith("{") and '"signs"' in stripped:
        if args.dim is not None:
            raise ParseFailure("--dim does not apply to a sign table")
        s = _load_table(text)
        rep.config = {"input": args.input, "k": s.k, "mode": "table"}
        report = verify_flip(s)
        result = {"n": len(s), "k": s.k, "flip": bool(report)}
        if not report:
            result["witness"] = {"subset": list(report.witness),
                                 "signs": list(report.witness_signs)}
        return rep.emit(result)
    seq = parse_points_text(text, args.dim)
    rep.config = {"input": args.input, "dim": seq.dim, "mode": "points"}
    report = is_flip(seq)
    result = {"n": len(seq), "k": seq.dim, "flip": bool(report)}
    if not report:
        result["witness"] = {"subset": list(report.witness.subset),
                             "signs": list(report.witness.entries)}
    return rep.emit(result)


def cmd_crossings(args, rep: Reporter) -> int:
    seq = parse_points_text(_read_source(args.input), args.dim)
    budget = args.oracle_budget
    rep.config = {"input": args.input, "dim": seq.dim,
                  "oracle_budget": budget}
    if len(seq) > budget:
        raise BudgetExceeded(len(seq), budget, "the exact crossing oracle")
    path = PolyPath(seq)
    report = max_crossings(path)
    wit = {"kind": report.witness.kind,
           "subset": list(report.witness.subset)}
    if report.witness.sides is not None:
        wit["sides"] = list(report.witness.sides)
    result = {"n": len(seq), "dim": seq.dim,
              "max_crossings": report.max_crossings,
              "witness": wit,
              "witness_crossings": witness_crossings(path, report.witness)}
    return rep.emit(result)


def cmd_decompose(args, rep: Reporter) -> int:
    seq = parse_points_text(_read_source(args.input), args.dim)
    rep.config = {"input": args.input, "dim": seq.dim}
    path = PolyPath(seq)
    dec = decompose(path)
    gp = dec.partition
    result = {
        "n": len(seq),
        "dim": seq.dim,
        "pieces": dec.count,
        "blocks": [list(b) for b in dec.pieces],
        "signs": list(gp.signs),
        "witnesses": [list(w) if w else None for w in gp.witnesses],
    }
    _write_svg(args, seq, dec.pieces)
    return rep.emit(result)


def cmd_sample(args, rep: Reporter) -> int:
    curve, eps = load_curve(args)
    rep.config = _curve_config(args, curve, eps)
    sample = epsilon_sample(curve, eps, args.seed)
    seq = sample.path.seq
    result = {
        "n": len(seq),
        "dim": seq.dim,
        "retries": sample.retries,
        "params": _rats(sample.params),
        "points": [_rats(p) for p in seq.points],
    }
    _write_svg(args, seq)
    return rep.emit(result)


def cmd_decompose_curve(args, rep: Reporter) -> int:
    curve, eps = load_curve(args)
    budget = args.oracle_budget
    rep.config = dict(_curve_config(args, curve, eps),
                      oracle_budget=budget)
    cd = decompose_curve(curve, eps, args.seed, certify_budget=budget)
    seq = cd.sample.path.seq
    result = {
        "n": len(seq),
        "dim": seq.dim,
        "pieces": cd.pieces,
        "cuts": _rats(cd.cuts),
        "intervals": [[_rat(a), _rat(b)] for a, b in cd.intervals],
        "blocks": [list(b) for b in cd.decomposition.pieces],
    }
    if cd.certified_max_crossings is not None:
        result["certified_max_crossings"] = cd.certified_max_crossings
    _write_svg(args, seq, cd.decomposition.pieces)
    return rep.emit(result)


def cmd_reduce(args, rep: Reporter) -> int:
    s = _load_table(_read_source(args.input))
    rep.config = {"input": args.input, "k": s.k}
    before = greedy_partition(s)
    reduced = reduce(s)
    after = greedy_partition(reduced)
    result = {
        "k": s.k,
        "n": len(s),
        "m": before.m,
        "reduced_n": len(reduced),
        "reduced_m": after.m,
        "reduced_elements": list(reduced.elements),
        "reduced": to_json_dict(reduced),
        "block_sizes": [hi - lo + 1 for lo, hi in after.blocks],
    }
    return rep.emit(result)


def _parse_k_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise ParseFailure(f"bad --k range: {text!r}") from exc
    else:
        try:
            lo = hi = int(text)
        except ValueError as exc:
            raise ParseFailure(f"bad --k value: {text!r}") from exc
    if lo < 1 or hi < lo:
        raise ParseFailure(f"--k range must be 1 <= lo <= hi: {text!r}")
    return list(range(lo, hi + 1))


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's int/str conversion digit limit (3.11+) inside the
    block only; callers outside it keep the interpreter's setting."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_bounds(args, rep: Reporter) -> int:
    ks = _parse_k_range(args.k)
    rep.config = {"k": args.k.strip()}
    # c(k) is exact and passes 4300 digits from k = 4926.
    with _unlimited_int_digits():
        result = {
            "k": ks,
            "c": [_rat(c) for c in
                  itertools.islice(iter_c_bounds(), ks[0] - 1, ks[-1])],
            "known_bounds": dict(KNOWN_BOUNDS),
        }
        return rep.emit(result)


def cmd_ramsey(args, rep: Reporter) -> int:
    seq = parse_points_text(_read_source(args.input), args.dim)
    budget = args.oracle_budget
    rep.config = {"input": args.input, "dim": seq.dim,
                  "oracle_budget": budget}
    homog = is_order_type_homogeneous(seq)
    result = {"n": len(seq), "dim": seq.dim,
              "homogeneous_input": bool(homog)}
    if homog:
        base = seq
    else:
        if len(seq) > budget:
            raise BudgetExceeded(len(seq), budget,
                                 "the homogeneous-subsequence search")
        base = longest_ot_homogeneous(seq)
        result["longest"] = {"length": len(base),
                             "labels": list(base.labels)}
    trace = super_extract(base)
    result["stages"] = [
        {"k": st.k, "input_len": st.input_len,
         "pieces": [list(p) for p in st.pieces],
         "chosen": list(st.chosen)}
        for st in trace.stages
    ]
    result["final"] = {
        "length": len(trace.final),
        "labels": list(trace.final.labels),
        "points": [_rats(p) for p in trace.final.points],
    }
    return rep.emit(result)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so main reuses it on every call.  Each subcommand declares
    exactly the flags its command reads."""
    parser = argparse.ArgumentParser(
        prog="convexsplit",
        description="Exact convex decomposition of polygonal paths and "
                    "sampled curves, crossing-number oracles, and "
                    "sign-sequence tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def points(name, func, help_text):
        p = add(name, func, help_text)
        p.add_argument("--input", required=True,
                       help="input file, or - for stdin")
        p.add_argument("--dim", type=int,
                       help="expected dimension (validated against input)")
        return p

    def budget(p, bounded):
        p.add_argument("--oracle-budget", type=int,
                       default=DEFAULT_ORACLE_BUDGET,
                       help=f"max n for {bounded} "
                            f"(default {DEFAULT_ORACLE_BUDGET})")

    def svg(p):
        p.add_argument("--out-svg", help="write an SVG plot (d=2 only)")

    def curve(name, func, help_text):
        p = add(name, func, help_text)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--curve",
                            choices=["moment", "quintic", "dented_arc",
                                     "poly"],
                            help="builtin curve name")
        source.add_argument("--input",
                            help='curve JSON {"curve": name, ...} file, '
                                 "or - for stdin")
        p.add_argument("--dim", type=int, help="moment curve dimension")
        p.add_argument("--dents", type=int, help="dented_arc dent count")
        p.add_argument("--depth", help="dented_arc dent depth, rational")
        p.add_argument("--coeffs",
                       help="poly coefficients, JSON rows of rationals")
        p.add_argument("--domain",
                       help='poly domain, JSON pair like ["-1","1"]')
        p.add_argument("--eps", required=True,
                       help="sampling resolution, positive rational")
        p.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default 0)")
        svg(p)
        return p

    points("verify-gp", cmd_verify_gp,
           "check general position; exit 3 with witness if violated")
    points("homog", cmd_homog,
           "order-type homogeneity of a point sequence")
    points("flip", cmd_flip,
           "flip property of a point sequence or an abstract sign table")
    budget(points("crossings", cmd_crossings,
                  "exact maximum crossing number with witness (budgeted)"),
           "the exact crossing oracle")
    svg(points("decompose", cmd_decompose,
               "greedy decomposition of a path into convex pieces"))
    curve("sample", cmd_sample,
          "epsilon-sample a curve into a general-position path")
    budget(curve("decompose-curve", cmd_decompose_curve,
                 "sample a curve and decompose it into convex arcs"),
           "certifying the sampled path's crossing number; larger paths "
           "go uncertified")
    add("reduce", cmd_reduce,
        "reduce an abstract sign table preserving its block count"
        ).add_argument("--input", required=True,
                       help="sign-table JSON file, or - for stdin")
    add("bounds", cmd_bounds,
        "exact c(k) block-count bounds plus known sharper constants"
        ).add_argument("--k", required=True,
                       help='bound index or range, e.g. 3 or "1..4"')
    budget(points("ramsey", cmd_ramsey,
                  "homogeneous subsequence search plus projection "
                  "extraction"),
           "the homogeneous-subsequence search on non-homogeneous input")
    for p in sub.choices.values():
        p.add_argument("--out-json", help="also write the report here")
    return parser


def _error(exc: Exception) -> tuple[dict, int]:
    """The report's error object and exit code for an exception that a
    command raises on well-formed input."""
    if isinstance(exc, BudgetExceeded):
        return ({"type": "budget", "message": str(exc), "n": exc.n},
                EXIT_BUDGET)
    if isinstance(exc, SamplingError):
        return ({"type": "sampling", "message": str(exc),
                 "cell": exc.cell, "retries": exc.retries},
                EXIT_PRECONDITION)
    if isinstance(exc, GeneralPositionError):
        error = {"type": "general-position", "message": str(exc)}
        if exc.witness is not None:
            error["witness"] = list(exc.witness)
        if hasattr(exc, "k"):
            error["projection_k"] = exc.k
        return error, EXIT_PRECONDITION
    return {"type": "precondition", "message": str(exc)}, EXIT_PRECONDITION


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    rep = Reporter(args)
    try:
        # A negative budget is a usage error, not a budget every input
        # exceeds.
        if vars(args).get("oracle_budget", 0) < 0:
            raise ParseFailure("--oracle-budget must be >= 0, "
                               f"got {args.oracle_budget}")
        try:
            return args.func(args, rep)
        except (BudgetExceeded, SamplingError, ValueError) as exc:
            error, code = _error(exc)
            return rep.emit({}, error=error, code=code)
    except ParseFailure as exc:
        print(f"convexsplit: error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
