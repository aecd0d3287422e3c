"""Command-line interface: deterministic JSON reports and 2-D SVG plots.

Exit codes: 0 success, 2 parse/usage error, 3 precondition violation
(witness included in the report), 4 oracle budget exceeded.  Reports are
byte-identical for identical config and seed, except for the timing field.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from fractions import Fraction

from .crossing import PolyPath, decompose, max_crossings, witness_crossings
from .curves import CurveSpec, SamplingError, builtin, decompose_curve, \
    epsilon_sample
from .exactgeom import (GeneralPositionError, PointSeq, is_general_position,
                        point_seq)
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


class ParseFailure(Exception):
    pass


class BudgetExceeded(Exception):
    def __init__(self, n: int, budget: int, what: str):
        super().__init__(
            f"{what} needs n <= --oracle-budget ({budget}), got n = {n}")
        self.n = n
        self.budget = budget


def _rat(x) -> int | str:
    x = Fraction(x)
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def _rats(xs) -> list:
    return [_rat(x) for x in xs]


def _parse_rational(tok: str) -> Fraction:
    try:
        return Fraction(str(tok).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseFailure(f"not a rational number: {tok!r}") from exc


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"invalid JSON input: {exc}") from exc


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
    return point_seq(parsed, dim=dim)


def load_points(args) -> PointSeq:
    if not args.input:
        raise ParseFailure("this command needs --input (use - for stdin)")
    return parse_points_text(_read_source(args.input), args.dim)


def load_curve(args) -> CurveSpec:
    """Curve from --curve plus flags, or --input JSON {"curve": name, ...}."""
    if args.curve:
        name = args.curve
        params = {}
        if args.dim is not None:
            params["d"] = args.dim
        if args.dents is not None:
            params["dents"] = args.dents
        if args.depth is not None:
            params["depth"] = args.depth
        if args.coeffs is not None:
            params["coeffs"] = _load_json(args.coeffs)
        if args.domain is not None:
            params["domain"] = _load_json(args.domain)
    elif args.input:
        obj = _load_json(_read_source(args.input))
        if not isinstance(obj, dict) or "curve" not in obj:
            raise ParseFailure('curve JSON needs a "curve" key')
        params = dict(obj)
        name = params.pop("curve")
    else:
        raise ParseFailure("this command needs --curve or --input")
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
        return builtin(name, **params)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseFailure(f"invalid curve: {exc}") from exc


def _curve_config(curve: CurveSpec) -> dict:
    cfg = {"curve": curve.name}
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
    boundary vertices emphasized."""
    if seq.dim != 2:
        raise ParseFailure("SVG output requires dim 2")
    width, height, margin = 640.0, 480.0, 24.0
    xs = [float(p[0]) for p in seq.points]
    ys = [float(p[1]) for p in seq.points]
    spanx = (max(xs) - min(xs)) or 1.0
    spany = (max(ys) - min(ys)) or 1.0

    def sx(x):
        return margin + (x - min(xs)) / spanx * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - min(ys)) / spany * (height - 2 * margin)

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
    if getattr(args, "out_svg", None):
        text = render_svg(seq, pieces)
        with open(args.out_svg, "w", encoding="utf-8") as fh:
            fh.write(text)


class Reporter:
    """Assembles the report envelope and handles output files."""

    def __init__(self, args, command: str, config: dict):
        self.args = args
        self.command = command
        self.config = config
        self.started = time.perf_counter()

    def emit(self, result: dict, error: dict | None = None,
             code: int = EXIT_OK) -> int:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "result": result,
            "timing": {"seconds": round(
                time.perf_counter() - self.started, 6)},
        }
        if error is not None:
            report["error"] = error
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        sys.stdout.write(text)
        if self.args.out_json:
            with open(self.args.out_json, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code


def _base_config(args, **extra) -> dict:
    cfg = {}
    if getattr(args, "input", None):
        cfg["input"] = args.input
    cfg.update(extra)
    return cfg


def _require_eps(args) -> Fraction:
    if args.eps is None:
        raise ParseFailure("this command needs --eps")
    eps = _parse_rational(args.eps)
    if eps <= 0:
        raise ParseFailure("--eps must be positive")
    return eps


def cmd_verify_gp(args) -> int:
    seq = load_points(args)
    rep = Reporter(args, "verify-gp", _base_config(args, dim=seq.dim))
    report = is_general_position(seq)
    result = {"n": len(seq), "dim": seq.dim,
              "general_position": bool(report)}
    if report:
        return rep.emit(result)
    result["witness"] = list(report.witness)
    return rep.emit(result, code=EXIT_PRECONDITION)


def cmd_homog(args) -> int:
    seq = load_points(args)
    rep = Reporter(args, "homog", _base_config(args, dim=seq.dim))
    report = is_order_type_homogeneous(seq)
    result = {"n": len(seq), "homogeneous": bool(report)}
    if report:
        result["sign"] = report.sign
    else:
        result["witnesses"] = [list(w) for w in report.witness]
    return rep.emit(result)


def cmd_flip(args) -> int:
    if not args.input:
        raise ParseFailure("this command needs --input (use - for stdin)")
    text = _read_source(args.input)
    stripped = text.lstrip()
    if stripped.startswith("{") and '"signs"' in stripped:
        obj = _load_json(text)
        try:
            s = from_json_dict(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseFailure(f"invalid sign-table JSON: {exc}") from exc
        rep = Reporter(args, "flip",
                       _base_config(args, k=s.k, mode="table"))
        report = verify_flip(s)
        result = {"n": len(s), "k": s.k, "flip": bool(report)}
        if not report:
            result["witness"] = {"subset": list(report.witness),
                                 "signs": list(report.witness_signs)}
        return rep.emit(result)
    seq = parse_points_text(text, args.dim)
    rep = Reporter(args, "flip",
                   _base_config(args, dim=seq.dim, mode="points"))
    report = is_flip(seq)
    result = {"n": len(seq), "k": seq.dim, "flip": bool(report)}
    if not report:
        result["witness"] = {"subset": list(report.witness.subset),
                             "signs": list(report.witness.entries)}
    return rep.emit(result)


def cmd_crossings(args) -> int:
    seq = load_points(args)
    budget = args.oracle_budget
    rep = Reporter(args, "crossings",
                   _base_config(args, dim=seq.dim, oracle_budget=budget))
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


def cmd_decompose(args) -> int:
    seq = load_points(args)
    rep = Reporter(args, "decompose", _base_config(args, dim=seq.dim))
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


def cmd_sample(args) -> int:
    curve = load_curve(args)
    eps = _require_eps(args)
    rep = Reporter(args, "sample", _base_config(
        args, eps=_rat(eps), seed=args.seed, **_curve_config(curve)))
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


def cmd_decompose_curve(args) -> int:
    curve = load_curve(args)
    eps = _require_eps(args)
    budget = args.oracle_budget
    rep = Reporter(args, "decompose-curve", _base_config(
        args, eps=_rat(eps), seed=args.seed, oracle_budget=budget,
        **_curve_config(curve)))
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


def cmd_reduce(args) -> int:
    if not args.input:
        raise ParseFailure("this command needs --input (use - for stdin)")
    obj = _load_json(_read_source(args.input))
    try:
        s = from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"invalid sign-table JSON: {exc}") from exc
    rep = Reporter(args, "reduce", _base_config(args, k=s.k))
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


def cmd_bounds(args) -> int:
    ks = _parse_k_range(args.k)
    rep = Reporter(args, "bounds", _base_config(args, k=args.k.strip()))
    # c(k) is exact and passes 4300 digits from k = 4926.
    with _unlimited_int_digits():
        result = {
            "k": ks,
            "c": [_rat(c) for c in
                  itertools.islice(iter_c_bounds(), ks[0] - 1, ks[-1])],
            "known_bounds": dict(KNOWN_BOUNDS),
        }
        return rep.emit(result)


def cmd_ramsey(args) -> int:
    seq = load_points(args)
    budget = args.oracle_budget
    rep = Reporter(args, "ramsey",
                   _base_config(args, dim=seq.dim, oracle_budget=budget))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexsplit",
        description="Exact convex decomposition of polygonal paths and "
                    "sampled curves, crossing-number oracles, and "
                    "sign-sequence tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, curve=False, eps=False, k=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="input file, or - for stdin")
        p.add_argument("--dim", type=int,
                       help="expected dimension (validated against input; "
                            "moment-curve dimension for --curve moment)")
        p.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default 0)")
        p.add_argument("--oracle-budget", type=int,
                       default=DEFAULT_ORACLE_BUDGET,
                       help="max n for brute-force oracle runs "
                            f"(default {DEFAULT_ORACLE_BUDGET})")
        p.add_argument("--out-json", help="also write the report here")
        p.add_argument("--out-svg", help="write an SVG plot (d=2 only)")
        if eps:
            p.add_argument("--eps", help="sampling resolution, rational")
        else:
            p.set_defaults(eps=None)
        if curve:
            p.add_argument("--curve",
                           choices=["moment", "quintic", "dented_arc",
                                    "poly"],
                           help="builtin curve name")
            p.add_argument("--dents", type=int, help="dented_arc dent count")
            p.add_argument("--depth", help="dented_arc dent depth, rational")
            p.add_argument("--coeffs",
                           help="poly coefficients, JSON rows of rationals")
            p.add_argument("--domain",
                           help='poly domain, JSON pair like ["-1","1"]')
        else:
            p.set_defaults(curve=None, dents=None, depth=None, coeffs=None,
                           domain=None)
        if k:
            p.add_argument("--k", required=True,
                           help='bound index or range, e.g. 3 or "1..4"')
        p.set_defaults(func=func)
        return p

    add("verify-gp", cmd_verify_gp,
        "check general position; exit 3 with witness if violated")
    add("homog", cmd_homog,
        "order-type homogeneity of a point sequence")
    add("flip", cmd_flip,
        "flip property of a point sequence or an abstract sign table")
    add("crossings", cmd_crossings,
        "exact maximum crossing number with witness (budgeted)")
    add("decompose", cmd_decompose,
        "greedy decomposition of a path into convex pieces")
    add("sample", cmd_sample,
        "epsilon-sample a curve into a general-position path",
        curve=True, eps=True)
    add("decompose-curve", cmd_decompose_curve,
        "sample a curve and decompose it into convex arcs",
        curve=True, eps=True)
    add("reduce", cmd_reduce,
        "reduce an abstract sign table preserving its block count")
    add("bounds", cmd_bounds,
        "exact c(k) block-count bounds plus known sharper constants",
        k=True)
    add("ramsey", cmd_ramsey,
        "homogeneous subsequence search plus projection extraction")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"convexsplit: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        rep = Reporter(args, args.command, {"oracle_budget": exc.budget})
        return rep.emit(
            {}, error={"type": "budget", "message": str(exc), "n": exc.n},
            code=EXIT_BUDGET)
    except SamplingError as exc:
        rep = Reporter(args, args.command, {})
        return rep.emit(
            {}, error={"type": "sampling", "message": str(exc),
                       "cell": exc.cell, "retries": exc.retries},
            code=EXIT_PRECONDITION)
    except GeneralPositionError as exc:
        witness = getattr(exc, "witness", None)
        error = {"type": "general-position", "message": str(exc)}
        if witness is not None:
            error["witness"] = list(witness)
        if hasattr(exc, "k"):
            error["projection_k"] = exc.k
        rep = Reporter(args, args.command, {})
        return rep.emit({}, error=error, code=EXIT_PRECONDITION)
    except ValueError as exc:
        rep = Reporter(args, args.command, {})
        return rep.emit(
            {}, error={"type": "precondition", "message": str(exc)},
            code=EXIT_PRECONDITION)


if __name__ == "__main__":
    sys.exit(main())
