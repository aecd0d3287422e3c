"""Builtin curves, deterministic rational epsilon-sampling, decomposition.

Curves are maps from a rational parameter interval into R^d with exact
rational values, so every downstream orientation test stays exact.  The
sampler places one parameter per length-(eps/2) cell with a seeded rational
jitter and maintains general position incrementally, retrying inside the
cell when a sample would create a degeneracy, with O(i^(d-1)) rank-2
tests for the i-th point in R^d: integer slope keys in the plane, and
exact integer directions where those do not settle a point.  The
sampler's points lie on a fixed parameter grid of a curve with fixed
coefficients, so their planar rows share one small common denominator,
and their x-coordinates a smaller one still: each slope key is a plain
difference quotient whose divisor is a difference of x-coordinates over
that smaller denominator, one machine digit on the 400-point quintic.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction

from .crossing import ConvexDecomposition, PolyPath, decompose, max_crossings
from .exactgeom import (IncrementalGeneralPosition, Point, _Record, as_point,
                        as_rational)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_JITTER_DENOMINATOR = 4096
_MAX_RETRIES = 32


class SamplingError(RuntimeError):
    """Retry budget exhausted inside one sampling cell."""

    def __init__(self, cell: int, retries: int):
        super().__init__(
            f"could not keep general position in cell {cell} "
            f"after {retries} retries")
        self.cell = cell
        self.retries = retries


class CurveSpec(_Record):
    """Exact curve: rational evaluator over a rational closed domain.

    ``params`` defaults to a fresh empty dict; being a dict, it leaves
    CurveSpec unhashable."""

    _fields = ("name", "dim", "domain", "evaluator", "params")

    def __init__(self, name: str, dim: int, domain: tuple[Fraction, Fraction],
                 evaluator: Callable[[Fraction], Point],
                 params: dict | None = None):
        lo, hi = domain
        if not lo < hi:
            raise ValueError("curve domain must be a nondegenerate interval")
        self._fill(name, dim, domain, evaluator,
                   {} if params is None else params)

    def at(self, t) -> Point:
        t = as_rational(t)
        lo, hi = self.domain
        if not lo <= t <= hi:
            raise ValueError(f"parameter {t} outside domain [{lo}, {hi}]")
        return self.evaluator(t)


def _moment(dim: int) -> CurveSpec:
    if dim < 1:
        raise ValueError("moment curve dimension must be >= 1")

    def ev(t: Fraction) -> Point:
        return tuple(t ** i for i in range(1, dim + 1))

    return CurveSpec("moment", dim, (Fraction(0), Fraction(1)), ev,
                     {"dim": dim})


def _quintic() -> CurveSpec:
    # y = x (1 - x^2)^2 has inflections at 0 and +-sqrt(3/5): the graph is
    # 3-crossing on [-1, 1] and splits into 4 convex pieces.
    def ev(t: Fraction) -> Point:
        return (t, t * (1 - t * t) ** 2)

    return CurveSpec("quintic", 2, (Fraction(-1), Fraction(1)), ev, {})


def _dented_arc(dents: int, depth) -> CurveSpec:
    if dents < 1:
        raise ValueError("dents must be >= 1")
    depth = as_rational(depth)
    cap = Fraction(1, dents * dents)
    if not 0 < depth < cap:
        raise ValueError(
            f"depth must satisfy 0 < depth < 1/dents^2 = {cap}, got {depth}")
    half = Fraction(1, 3 * dents)

    def ev(t: Fraction) -> Point:
        # Dent j sits strictly inside the cell [-1 + 2j/dents,
        # -1 + 2(j+1)/dents], so only the cell holding x can reach it.
        x = 2 * t - 1
        y = 1 - x * x
        j = min(max((x + 1) * dents // 2, 0), dents - 1)
        c = Fraction(2 * j + 1 - dents, dents)
        a, b = c - half, c + half
        if a <= x <= b:
            bump = (x - a) * (b - x) / (half * half)
            y -= depth * bump * bump
        return (x, y)

    return CurveSpec("dented_arc", 2, (Fraction(0), Fraction(1)), ev,
                     {"dents": dents, "depth": depth})


def _poly(coeffs: Sequence[Sequence], domain=None) -> CurveSpec:
    rows = [[as_rational(c) for c in row] for row in coeffs]
    if not rows:
        raise ValueError("poly curve needs at least one coordinate")
    if domain is None:
        lo, hi = Fraction(0), Fraction(1)
    else:
        lo, hi = (as_rational(v) for v in domain)

    def ev(t: Fraction) -> Point:
        out = []
        for row in rows:
            acc = Fraction(0)
            for c in reversed(row):
                acc = acc * t + c
            out.append(acc)
        return tuple(out)

    return CurveSpec("poly", len(rows), (lo, hi), ev,
                     {"coeffs": rows, "domain": (lo, hi)})


def builtin(name: str, **params) -> CurveSpec:
    """Construct a named builtin curve.

    moment(dim), quintic(), dented_arc(dents, depth),
    poly(coeffs, domain=None) with coeffs[i] the ascending-power rational
    coefficients of coordinate i.
    """
    makers = {
        "moment": _moment,
        "quintic": _quintic,
        "dented_arc": _dented_arc,
        "poly": _poly,
    }
    if name not in makers:
        raise ValueError(f"unknown curve {name!r}; "
                         f"choose from {sorted(makers)}")
    return makers[name](**params)


class _SplitMix:
    """Deterministic 64-bit generator (splitmix64 step function).

    Self-contained so that sampled paths are bit-identical across platforms
    and Python versions.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


class EpsSample(_Record):
    _fields = ("eps", "params", "path", "retries")

    def __init__(self, eps: Fraction, params: tuple[Fraction, ...],
                 path: PolyPath, retries: int):
        self._fill(eps, params, path, retries)


def epsilon_sample(curve: CurveSpec, eps, seed: int = 0) -> EpsSample:
    """Sample the curve with one parameter in every length-(eps/2) cell.

    Consecutive parameters then differ by less than eps, so the inscribed
    path cannot skip features wider than eps.  Jitter offsets are rationals
    r/_JITTER_DENOMINATOR with 0 < r < _JITTER_DENOMINATOR drawn from a
    seeded splitmix64 stream; a cell is retried (fresh jitter) when its
    point would break general position, and SamplingError is raised after
    _MAX_RETRIES failures in one cell.

    General position is certified once, as the points arrive, by
    IncrementalGeneralPosition: n points take C(n, 2) + ... + C(n, d)
    rank-2 tests and O(n) memory.  In the plane that is one integer slope
    key per pair, two subtractions, a shift and a divide by a difference
    of x-coordinates over their own shared denominator, while the point's
    denominators divide the shared ones (a point whose denominators do
    not rescales the rows or the x-column once when it is kept), and
    exact directions are hashed only for a point whose keys collide, or
    that is vertically above an earlier one.  The returned path reuses that certificate
    instead of checking its vertices again.
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = curve.domain
    cells = max(2, math.ceil(2 * (hi - lo) / eps))
    width = (hi - lo) / cells
    rng = _SplitMix(seed)
    gp = IncrementalGeneralPosition(curve.dim)
    params: list[Fraction] = []
    retries = 0
    for cell in range(cells):
        cell_lo = lo + cell * width
        for _ in range(_MAX_RETRIES):
            r = 1 + rng.next_u64() % (_JITTER_DENOMINATOR - 1)
            t = cell_lo + width * Fraction(r, _JITTER_DENOMINATOR)
            if gp.try_add(as_point(curve.evaluator(t))) is None:
                params.append(t)
                break
            retries += 1
        else:
            raise SamplingError(cell, _MAX_RETRIES)
    path = PolyPath._certified(gp._seq())
    return EpsSample(eps, tuple(params), path, retries)


class CurveDecomposition(_Record):
    """Convex decomposition of a sampled curve with parameter cuts.

    ``cuts`` are the overlap parameters between consecutive pieces;
    ``intervals`` cover the whole domain, sharing endpoints at the cuts.
    ``certified_max_crossings`` is filled only when the exact crossing
    oracle was run on the sampled path.
    """

    _fields = ("sample", "decomposition", "cuts", "intervals",
               "certified_max_crossings")

    def __init__(self, sample: EpsSample, decomposition: ConvexDecomposition,
                 cuts: tuple[Fraction, ...],
                 intervals: tuple[tuple[Fraction, Fraction], ...],
                 certified_max_crossings: int | None = None):
        self._fill(sample, decomposition, cuts, intervals,
                   certified_max_crossings)

    @property
    def pieces(self) -> int:
        return self.decomposition.count


def decompose_curve(curve: CurveSpec, eps, seed: int = 0, *,
                    certify_budget: int | None = None) -> CurveDecomposition:
    """Sample the curve and decompose the inscribed path into convex pieces.

    The first and last parameter intervals are extended to the domain
    endpoints so the intervals tile the domain.  When the sampled path has
    at most certify_budget vertices the exact oracle certifies its
    crossing number.  A sample that greedy closes as one block of sign
    sigma is sigma-homogeneous, so the oracle gets its path with _sign
    sigma and answers without a pencil sweep; other samples sweep.
    """
    sample = epsilon_sample(curve, eps, seed)
    dec = decompose(sample.path)
    params = sample.params
    cuts = tuple(params[hi] for lo, hi in dec.pieces[:-1])
    bounds = (curve.domain[0],) + cuts + (curve.domain[1],)
    intervals = tuple(zip(bounds, bounds[1:]))
    certified = None
    if certify_budget is not None and len(sample.path.seq) <= certify_budget:
        path = sample.path
        if dec.count == 1 and dec.partition.signs[0]:
            path = PolyPath._certified(path.seq, dec.partition.signs[0])
        certified = max_crossings(path).max_crossings
    return CurveDecomposition(sample, dec, cuts, intervals, certified)
