"""Exact rational predicates: orientations, affine spans, general position.

Every combinatorial decision in this package reduces to the sign of a
determinant.  All of them are evaluated exactly: coordinates are
``fractions.Fraction``, rows are cleared to integers, and determinants run
through fraction-free Bareiss elimination, so no sign is ever rounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Point = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """Input whose length disagrees with the ambient dimension."""


class GeneralPositionError(ValueError):
    """An affinely dependent subset where general position is required."""

    def __init__(self, message: str, witness: Iterable[int] | None = None):
        super().__init__(message)
        self.witness = tuple(witness) if witness is not None else None


def as_rational(value) -> Fraction:
    """Coerce int/str/float/Fraction to an exact Fraction.

    Strings accept both "p/q" and decimal forms.  Floats convert by their
    exact binary expansion, never re-rounded.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def as_point(coords) -> Point:
    return tuple(as_rational(c) for c in coords)


def _hom_row(p: Point) -> tuple[int, ...]:
    # Integer homogeneous coordinates (L, L*x_1, ..., L*x_d); scaling a row
    # by the positive L leaves every determinant sign unchanged.
    scale = math.lcm(*(c.denominator for c in p)) if p else 1
    return (scale,) + tuple((scale // c.denominator) * c.numerator for c in p)


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[i][i]
        for r in range(i + 1, n):
            mr, mi = m[r], m[i]
            lead = mr[i]
            for c in range(i + 1, n):
                mr[c] = (mr[c] * piv - lead * mi[c]) // prev
            mr[i] = 0
        prev = piv
    return sign * m[-1][-1]


def _det_sign(rows: Sequence[Sequence[int]]) -> int:
    # Hand-expanded small cases; they carry nearly all of the workload.
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        v = a * d - b * c
    elif n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        v = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    else:
        v = _bareiss_det(rows)
    return (v > 0) - (v < 0)


def det_rational(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    scale = 1
    scaled = []
    for row in rows:
        s = math.lcm(*(c.denominator for c in row)) if row else 1
        scale *= s
        scaled.append([(s // c.denominator) * c.numerator for c in row])
    return Fraction(_bareiss_det(scaled), scale)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [m[i][j] * a - m[r][j] * b for j in range(ncols)]
        r += 1
        if r == nrows:
            break
    return r


def affinely_independent(pts: Sequence[Point]) -> bool:
    rows = [_hom_row(p) for p in pts]
    return _rank(rows) == len(pts)


def orientation(pts: Sequence) -> int:
    """Sign of the (d+1)x(d+1) determinant with column j = (1, p_j).

    Returns -1, 0, or +1.  Zero means the points are affinely dependent; it
    is surfaced, never tie-broken.
    """
    pts = [as_point(p) for p in pts]
    if not pts:
        raise DimensionMismatchError("empty tuple has no orientation")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionMismatchError("points of mixed dimension")
    if len(pts) != d + 1:
        raise DimensionMismatchError(
            f"orientation in R^{d} needs {d + 1} points, got {len(pts)}")
    return _det_sign([_hom_row(p) for p in pts])


@dataclass(frozen=True)
class GeneralPositionReport:
    ok: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PointSeq:
    """Ordered sequence of exact rational points in R^dim.

    ``labels`` keep the original indices alive through projections and
    subsequence extraction.
    """

    dim: int
    points: tuple[Point, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        for p in self.points:
            if len(p) != self.dim:
                raise DimensionMismatchError(
                    f"point of length {len(p)} in a dim-{self.dim} sequence")
        if len(self.labels) != len(self.points):
            raise ValueError("labels must match points 1:1")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    @cached_property
    def _hom(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_hom_row(p) for p in self.points)

    @cached_property
    def _sign_cache(self) -> dict:
        return {}

    def orientation_of(self, idx: tuple[int, ...]) -> int:
        """Orientation sign of the points at ``idx`` (a (dim+1)-tuple)."""
        cache = self._sign_cache
        s = cache.get(idx)
        if s is None:
            hom = self._hom
            s = _det_sign([hom[i] for i in idx])
            cache[idx] = s
        return s

    def subsequence(self, indices: Sequence[int]) -> "PointSeq":
        return PointSeq(
            self.dim,
            tuple(self.points[i] for i in indices),
            tuple(self.labels[i] for i in indices),
        )


def point_seq(rows: Iterable, dim: int | None = None,
              labels: Sequence[int] | None = None) -> PointSeq:
    """Build a PointSeq from raw coordinate rows."""
    pts = tuple(as_point(r) for r in rows)
    if dim is None:
        if not pts:
            raise DimensionMismatchError("cannot infer dimension of nothing")
        dim = len(pts[0])
    if labels is None:
        labels = range(len(pts))
    return PointSeq(dim, pts, tuple(labels))


def project(seq: PointSeq, k: int) -> PointSeq:
    """Truncate every point to its first k coordinates."""
    if not 1 <= k <= seq.dim:
        raise DimensionMismatchError(f"k={k} out of range for dim {seq.dim}")
    if k == seq.dim:
        return seq
    return PointSeq(k, tuple(p[:k] for p in seq.points), seq.labels)


def _direction(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...] | None:
    """Canonical direction of the line through two points; None when they
    coincide.

    ``p`` and ``q`` are homogeneous rows (L, L*x) and (M, M*y) with L, M > 0
    (see _hom_row), so L*q[1:] - M*p[1:] = L*M*(y - x) is a positive
    multiple of y - x, computed without leaving the integers.  Divided by
    its gcd and with its leading nonzero entry made positive, it is the
    primitive integer vector along the line, the same tuple for either
    order of p and q, and two pairs of points share it iff their lines
    are parallel.
    """
    l, m = p[0], q[0]
    if len(p) == 3:
        x = l * q[1] - m * p[1]
        y = l * q[2] - m * p[2]
        if not (x or y):
            return None
        g = math.gcd(x, y)
        if x < 0 or (x == 0 and y < 0):
            g = -g
        return (x // g, y // g)
    v = [l * b - m * a for a, b in zip(p[1:], q[1:])]
    g = math.gcd(*v)
    if g == 0:
        return None
    if next(c for c in v if c) < 0:
        g = -g
    return tuple(c // g for c in v)


def _duplicate_witness(seq: PointSeq) -> tuple[int, int] | None:
    seen: dict[Point, int] = {}
    for i, p in enumerate(seq.points):
        j = seen.setdefault(p, i)
        if j != i:
            return (j, i)
    return None


def _collinear_witness(seq: PointSeq) -> tuple[int, int, int] | None:
    # A collinear triple {a, b, c} (a < b < c) collides as equal directions
    # out of its least element; one hash pass per anchor beats enumerating
    # all C(n,3) triples.
    hom = seq._hom
    n = len(hom)
    for a in range(n - 2):
        seen: dict[tuple[int, ...], int] = {}
        for b in range(a + 1, n):
            d = _direction(hom[a], hom[b])
            other = seen.setdefault(d, b)
            if other != b:
                return (a, other, b)
    return None


def is_general_position(seq: PointSeq) -> GeneralPositionReport:
    """Check that every subset of <= dim+1 points is affinely independent.

    On failure the witness is a minimal dependent subset (no proper subset
    of it is dependent), found deterministically.
    """
    n = len(seq)
    dup = _duplicate_witness(seq)
    if dup is not None:
        return GeneralPositionReport(False, dup)
    if seq.dim == 1:
        return GeneralPositionReport(True)
    tri = _collinear_witness(seq)
    if tri is not None:
        return GeneralPositionReport(False, tri)
    hom = seq._hom
    for size in range(4, min(n, seq.dim + 1) + 1):
        full = size == seq.dim + 1
        for idx in itertools.combinations(range(n), size):
            if full:
                if seq.orientation_of(idx) == 0:
                    return GeneralPositionReport(False, idx)
            elif _rank([hom[i] for i in idx]) < size:
                return GeneralPositionReport(False, idx)
    return GeneralPositionReport(True)


class IncrementalGeneralPosition:
    """Grow a point set, rejecting additions that break general position.

    ``try_add`` either commits the point and returns None, or leaves the
    state untouched and returns a witness subset (indices, the new point
    being the next index).  The state is the committed points and their
    homogeneous rows, O(n) in all; no per-pair data is kept.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.points: list[Point] = []
        self._hom: list[tuple[int, ...]] = []

    def try_add(self, p: Point) -> tuple[int, ...] | None:
        """Check the subsets of <= dim+1 points whose last point is p.

        The i-th point costs i integer directions, one per earlier point a,
        and O(i) transient memory.  A direction of None is the duplicate
        pair (a, i), returned at the least a.  From dimension 2 up, {a, b, i}
        is collinear iff dir(a->i) == dir(b->i).  The committed points are
        in general position, so each line through the new point holds at
        most two of them; the colliding pairs are disjoint, and the least
        one (a, b) gives (a, b, i), the lexicographically least collinear
        triple ending at i.  Subsets of 4..dim+1 points follow in
        lexicographic order, by orientation or rank.
        """
        i = len(self._hom)
        hom = _hom_row(p)
        seen: dict[tuple[int, ...], int] = {}
        collinear: tuple[int, int, int] | None = None
        for a, row in enumerate(self._hom):
            d = _direction(row, hom)
            if d is None:
                return (a, i)
            if self.dim >= 2:
                b = seen.setdefault(d, a)
                if b != a and (collinear is None or b < collinear[0]):
                    collinear = (b, a, i)
        if collinear is not None:
            return collinear
        for size in range(4, self.dim + 2):
            full = size == self.dim + 1
            for idx in itertools.combinations(range(i), size - 1):
                rows = [self._hom[j] for j in idx] + [hom]
                if full:
                    if _det_sign(rows) == 0:
                        return idx + (i,)
                elif _rank(rows) < size:
                    return idx + (i,)
        self.points.append(p)
        self._hom.append(hom)
        return None


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : <normal, x> = offset} with rational data."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if all(v == 0 for v in self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    @cached_property
    def _int_coeffs(self) -> tuple[int, ...]:
        # Primitive integer (-offset, normal): side_of is then an integer
        # dot product against homogeneous point rows.
        vals = (-self.offset,) + self.normal
        scale = math.lcm(*(v.denominator for v in vals))
        ints = [(scale // v.denominator) * v.numerator for v in vals]
        g = math.gcd(*ints)
        return tuple(v // g for v in ints)

    def canonical(self) -> "Hyperplane":
        """Same hyperplane with primitive integer coefficients, same sides."""
        c = self._int_coeffs
        return Hyperplane(tuple(Fraction(v) for v in c[1:]), Fraction(-c[0]))


def side_of(h: Hyperplane, p) -> int:
    """Sign of <normal, p> - offset."""
    p = as_point(p)
    if len(p) != len(h.normal):
        raise DimensionMismatchError("point/hyperplane dimension mismatch")
    s = sum(c * x for c, x in zip(h._int_coeffs, _hom_row(p)))
    return (s > 0) - (s < 0)


def span_hyperplane(pts: Sequence) -> Hyperplane:
    """The hyperplane through d affinely independent points in R^d.

    Sign convention: side_of(h, x) == orientation(pts + [x]) for every x.
    """
    pts = [as_point(p) for p in pts]
    d = len(pts)
    if any(len(p) != d for p in pts):
        raise DimensionMismatchError(f"need {d} points of dimension {d}")
    rows = [_hom_row(p) for p in pts]
    minors = []
    for c in range(d + 1):
        sub = [[row[cc] for cc in range(d + 1) if cc != c] for row in rows]
        minors.append(_bareiss_det(sub))
    normal = tuple((-1) ** (d + c) * minors[c] for c in range(1, d + 1))
    if all(v == 0 for v in normal):
        raise GeneralPositionError(
            "affinely dependent points do not span a hyperplane",
            range(d))
    offset = (-1) ** (d + 1) * minors[0]
    g = math.gcd(*normal, offset)
    return Hyperplane(tuple(Fraction(v // g) for v in normal),
                      Fraction(offset // g))
