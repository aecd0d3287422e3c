"""Exact rational predicates: orientations, affine spans, general position.

Every combinatorial decision in this package reduces to the sign of a
determinant.  All of them are evaluated exactly: coordinates are
``fractions.Fraction``, and rows are cleared to integer homogeneous rows
(L, L*x), so no sign is ever rounded.

One integer elimination step carries every sign and rank: ``_quotient``
takes rows modulo a nonzero row v, one coordinate shorter, with a sign
eps such that det(v, W) has the sign of eps * det(W mod v).
``_det_sign`` loops it down to a hand-expanded 3x3, and ``_rank``
recurses on it.  When the signs of all (d+1)-tuples should agree,
``_alternating`` proves it from O(n^(d-1)) determinants, in every
dimension: a base determinant and the per-row step ``_extends`` for
rank 2 and 3 (2n - 3 and 3n - 8 of them), and recursion on quotients
above.  Homogeneity, general position and greedy block extension all
run on it, and where it fails ``_least_bad`` names the least subset of
the wrong sign by the same recursion, with no subset scan; at rank 2 by
two linear scans, one of them keeping the cone of the later rows.  The
pencils of the flip test and the crossing oracle take their planes from
the same quotients (ordertype._pencils).  On 3- and 4-vectors
``_quotient`` is unrolled, and a row that shares the pivot's positive
first coordinate maps to a plain difference, as the rows of integer
points all do.
``PointSeq.orientation_of`` memoizes single tuples for callers that ask
for them one at a time.  Exact values are left to fraction-free Bareiss
elimination (``det_rational``), and hyperplanes to ``_cofactors``: the
integer vector c(D) with c(D) . x = det(D + [x]) for every row x,
hand-expanded for d <= 3 and from Bareiss minors above.
Beyond that certificate, both general-position checks run one recursion,
``_least_dependent``: rows mod one row at a time down to rank 2, where
parallel rows are found; O(n^d) rank-2 tests in R^d.  On 3-vectors each
test is first an integer slope key per row (``_slopes_distinct``), which
can only accept; where it declines, ``_direction`` hashes exact
primitive directions, so every witness comes from that hash.  The
incremental check in the plane keeps its rows over one shared first
coordinate, the lcm of the point denominators while a width guard
allows, and an x-column over the lcm of the x-denominators; there a key
is two subtractions, a shift and a divide by a difference of the column,
as wide as that smaller lcm (``IncrementalGeneralPosition``).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from operator import mul

Point = tuple[Fraction, ...]


class _Record:
    """Base of the package's immutable value classes.

    A subclass lists its constructor's fields in ``_fields``, in order,
    and its __init__ stores them with _fill.  Equality (same class, equal
    _key), hash and repr then read them as a frozen dataclass's would:
    _key is the tuple of the fields, and a field that decides nothing
    is left out of it by overriding _key.  Assigning or deleting any
    attribute raises AttributeError.  Instances keep their fields in
    their __dict__, where cached_property stores too, and copy and
    pickle restore that dict as it is.
    """

    _fields: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DimensionMismatchError(ValueError):
    """Input whose length disagrees with the ambient dimension."""


class GeneralPositionError(ValueError):
    """An affinely dependent subset where general position is required."""

    def __init__(self, message: str, witness: Iterable[int] | None = None):
        super().__init__(message)
        self.witness = tuple(witness) if witness is not None else None


def as_rational(value) -> Fraction:
    """Coerce int/str/float/Fraction to an exact Fraction.

    Strings accept both "p/q" and decimal forms.  Fraction expands a
    decimal to integers of up to its length plus its exponent in digits,
    so one past CPython's integer digit limit (3.11+) by that count is a
    ValueError before any is built, as a "p/q" part past it is.  Floats
    convert by their exact binary expansion, never re-rounded.
    """
    if isinstance(value, str):
        # First: the Fraction test below is an ABC check, slow on a str.
        if "/" not in value:
            limit = getattr(sys, "get_int_max_str_digits", int)()
            exp = value.lower().partition("e")[2]
            if limit and len(value) + abs(int(exp or 0)) > limit:
                raise ValueError(f"decimal past the {limit}-digit limit")
        return Fraction(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def as_point(coords) -> Point:
    return tuple(map(as_rational, coords))


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


def _cofactors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Integer vector c with c . x == det(rows + [x]) for every row x.

    ``rows`` are d integer rows of length d+1; c lists the cofactors of the
    missing last row, so for homogeneous point rows it is the (unscaled)
    hyperplane through the d points, zero iff they are affinely dependent.
    d = 1, 2, 3 are hand-expanded (d = 3 from the six 2x2 minors of the last
    two rows); larger d takes signed Bareiss minors.
    """
    d = len(rows)
    if d == 1:
        ((a, b),) = rows
        return (-b, a)
    if d == 2:
        (a, b, c), (e, f, g) = rows
        return (b * g - c * f, c * e - a * g, a * f - b * e)
    if d == 3:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01 = b0 * c1 - b1 * c0
        m02 = b0 * c2 - b2 * c0
        m03 = b0 * c3 - b3 * c0
        m12 = b1 * c2 - b2 * c1
        m13 = b1 * c3 - b3 * c1
        m23 = b2 * c3 - b3 * c2
        return (a2 * m13 - a1 * m23 - a3 * m12,
                a0 * m23 - a2 * m03 + a3 * m02,
                a1 * m03 - a0 * m13 - a3 * m01,
                a0 * m12 - a1 * m02 + a2 * m01)
    return tuple(
        (-1) ** (d + j)
        * _bareiss_det([row[:j] + row[j + 1:] for row in rows])
        for j in range(d + 1))


def _dots(c: Sequence[int], rows: Iterable[Sequence[int]]) -> list[int]:
    """The dot products c . x for x in rows, unrolled for planar and
    spatial rows."""
    if len(c) == 3:
        a, b, e = c
        return [a * x + b * y + e * z for x, y, z in rows]
    if len(c) == 4:
        a, b, e, f = c
        return [a * w + b * x + e * y + f * z for w, x, y, z in rows]
    return [sum(map(mul, c, x)) for x in rows]


def _det_sign(rows: Sequence[Sequence[int]]) -> int:
    """Sign of the determinant of a square integer matrix.

    Up to 3x3 it is hand-expanded; those carry nearly all of the workload.
    Above that, a loop takes the first row v out by _quotient, det(v, W)
    having the sign of eps * det(W mod v), until a 3x3 is left; a zero v
    gives 0.  No cofactor vector or Bareiss minor is built.
    """
    n = len(rows)
    sign = 1
    while n > 3:
        v = rows[0]
        if not any(v):
            return 0
        rows, eps = _quotient(rows[1:], v)
        sign *= eps
        n -= 1
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        v = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    elif n == 2:
        (a, b), (c, d) = rows
        v = a * d - b * c
    else:
        ((v,),) = rows
    return sign if v > 0 else -sign if v < 0 else 0


def _quotient(rows: Sequence[Sequence[int]], v: Sequence[int]
              ) -> tuple[list[tuple[int, ...]], int]:
    """``rows`` modulo the nonzero integer vector v, one coordinate shorter.

    With k the first nonzero coordinate of v and a = v[k], each row w maps
    to a*w - w[k]*v with coordinate k dropped.  For r-vectors,
    det(v, w_1, ..., w_{r-1}) = (-1)^k * a^(2-r) * det(w'_1, ..., w'_{r-1}):
    scale rows 1..r-1 by a, subtract w[k]*v from each, which zeroes column
    k below v, and expand along column k.  Returns the mapped rows and
    eps = (-1)^k * sign(a)^r, so sign det(v, W) = eps * sign det(W').

    For 3- and 4-vectors with k = 0 the map is unrolled, and when a > 0 a
    row with w[0] = a maps to the plain difference w[1:] - v[1:] instead:
    its exact row a * (w[1:] - v[1:]) divided by a.  With s such rows
    among w_1..w_{r-1}, a^s * det(W') is the determinant of the exact
    rows, so every sign, rank and primitive direction is theirs.  Rows
    that share their first coordinate, as the rows of integer points
    (all 1) do, take no product at all.
    """
    a = v[0]
    if a and 3 <= len(v) <= 4:
        tie = a if a > 0 else None
        if len(v) == 3:
            _, p, q = v
            return [(b - p, c - q) if m == tie
                    else (a * b - m * p, a * c - m * q)
                    for m, b, c in rows], 1 if a > 0 else -1
        _, p, q, s = v
        return [(b - p, c - q, e - s) if m == tie
                else (a * b - m * p, a * c - m * q, a * e - m * s)
                for m, b, c, e in rows], 1
    k = next(j for j, c in enumerate(v) if c)
    a = v[k]
    eps = -1 if k % 2 else 1
    if a < 0 and len(v) % 2:
        eps = -eps
    rest = v[:k] + v[k + 1:]
    return [tuple(a * x - w[k] * y for x, y in zip(w[:k] + w[k + 1:], rest))
            for w in rows], eps


def _extends(rows: Sequence[Sequence[int]], s: int, j: int,
             sigma: int) -> bool:
    """Do the sigma-alternating rows v_s..v_{j-1} stay sigma-alternating
    when v_j joins them?  Rank r = 2 or 3, and j >= s + r.

    r = 2: det(v_s, v_j) and det(v_{j-1}, v_j) must equal sigma.  Proof
    (sigma = +1; swap the coordinates for -1): measure angles from v_s.
    The old rows lie at angles rising inside (0, pi) after v_s.
    det(v_s, v_j) > 0 puts v_j in (0, pi) too, so the step from v_{j-1}
    to v_j turns by an angle in (-pi, pi), and det(v_{j-1}, v_j) > 0
    makes it positive.  So v_j comes after every old row, below pi, and
    det(v_i, v_j) > 0 for every i < j.

    r = 3: det(v_s, v_{s+1}, v_j), det(v_s, v_{j-1}, v_j) and
    det(v_{j-2}, v_{j-1}, v_j) must equal sigma.  These are the turns at
    v_s, at v_j and at v_{j-1} of the closed polygon v_s..v_j.  Reduce
    to the plane first.  By _quotient, det(v_s, u, w) is eps_s times the
    rank-2 determinant of u and w mod v_s, so the first two signs are
    the r = 2 step on the rows mod v_s, and all of those lie at angles in
    [0, pi) from the first.  Hence a linear functional f, vanishing on
    v_s, is positive on v_{s+1}..v_j; adding a small multiple of one
    positive on v_s gives F > 0 on every row.  Scaling each row by
    1/F > 0 keeps every sign and puts the rows on the affine plane
    F = 1, where the determinant is a fixed nonzero multiple of the
    planar orientation.  So take points p_s..p_j whose old triples share
    one sign, and mirror the plane if needed to make it positive.

    Then a planar sequence has every triple positive iff, read as a
    closed polygon, each directed edge has every other vertex strictly
    on its left, i.e. iff it is a strictly convex polygon listed
    counterclockwise: for an edge p_i p_{i+1} the triples (i, i+1, k)
    and (k, i, i+1) are positive, and for the closing edge p_m p_s,
    orient(p_m, p_s, p_k) = orient(p_s, p_k, p_m) > 0.  The three signs
    are triples of the extended sequence, so they are necessary.  For
    sufficiency, the old points see p_{s+1}, ..., p_{j-1} from p_s in
    strictly counterclockwise order within an angle below pi, all left
    of the ray p_s p_{s+1}.  orient(p_s, p_{s+1}, p_j) > 0 puts p_j left
    of that ray too, and orient(p_s, p_{j-1}, p_j) > 0 puts it
    counterclockwise after p_{j-1}, so the fan from p_s still spans less
    than pi and its triangles p_s p_i p_{i+1} are positive and pairwise
    interior-disjoint.  The new closed polygon is the union of that fan,
    hence simple.  Its turns at the old inner vertices are unchanged,
    and the turns at p_{j-1}, p_j and p_s are the three checked signs,
    so every turn is left.  A simple polygon turning left at every
    vertex is strictly convex and counterclockwise, so every triple of
    the extended sequence is positive.
    """
    # The turn at v_{j-1} first: a rejected row usually fails it.
    det = _det_sign
    v, w = rows[j - 1], rows[j]
    if len(w) == 2:
        return det((v, w)) == sigma and det((rows[s], w)) == sigma
    a = rows[s]
    return (det((rows[j - 2], v, w)) == sigma
            and det((a, v, w)) == sigma
            and det((a, rows[s + 1], w)) == sigma)


def _alternating(rows: Sequence[Sequence[int]], sigma: int = 0) -> int:
    """Is the integer vector configuration sigma-alternating?

    ``rows`` are m vectors v_1..v_m in Z^r (r >= 2).  They are
    sigma-alternating when det(v_{j_1}, ..., v_{j_r}) has sign sigma for
    every j_1 < ... < j_r.  Returns sigma when they are, else 0.  With
    sigma = 0 the first r rows fix it (then at least r rows are needed).
    A point sequence in R^d is sigma-homogeneous iff its homogeneous rows
    (r = d + 1) are sigma-alternating: the configuration of the cyclic
    polytope (Bjorner, Las Vergnas, Sturmfels, White and Ziegler,
    *Oriented Matroids*).  Every determinant is one _det_sign call.

    r = 2 and 3: the first r rows must have sign sigma, and each later
    row must pass _extends against the rows before it, which gives every
    r-subset by induction.  That is 2m - 3 determinants for r = 2 and
    3m - 8 for r = 3.

    r >= 4, with O(m^(r-2)) determinants: every r-subset has a least
    member v_i, and by _quotient its determinant is eps_i times that of
    the other r-1 rows mod v_i.  So V is sigma-alternating iff, for each
    i <= m - r + 1, the rows after v_i mod v_i are
    (sigma * eps_i)-alternating with rank r - 1, and v_i != 0.  Entries
    grow by about one row's size per level.
    """
    m = len(rows)
    if not m or m < len(rows[0]):
        return sigma
    r = len(rows[0])
    if r <= 3:
        base = _det_sign(rows[:r])
        if not base or sigma not in (0, base):
            return 0
        ok = all(_extends(rows, 0, j, base) for j in range(r, m))
        return base if ok else 0
    for i in range(m - r + 1):
        if not any(rows[i]):
            return 0
        sub, eps = _quotient(rows[i + 1:], rows[i])
        s = _alternating(sub, sigma * eps)
        if not s:
            return 0
        sigma = s * eps
    return sigma


def _least_bad(rows: Sequence[Sequence[int]], tau: int
               ) -> tuple[int, ...] | None:
    """The lexicographically least r-subset of the m >= r integer vectors
    ``rows`` in Z^r whose determinant sign is not tau (a zero sign counts
    as not tau), or None.

    As in _alternating, the subsets whose least member is v_a have the
    signs of the (r-1)-subsets of the later rows mod v_a times eps_a
    (_quotient), in the same order, and they all come before the subsets
    whose least member is later.  So the least witness is that of the
    first anchor a that has one: the least witness of its quotient rows
    for tau * eps_a, or (a, ..., a + r - 1) when v_a = 0.  At rank 1 a row
    is its own determinant.  From rank 3 up, _alternating proves each
    clean anchor, so O(m^max(2, r-2)) determinants in all.

    Rank 2 takes O(m) determinants.  Anchor a is clean iff v_a != 0 and
    every later row lies strictly tau-left of it, i.e. in the open
    half-plane {u : tau * det(v_a, u) > 0}.  A scan from the end keeps
    the cone of the rows after a: its extreme rays e and f, f less than pi
    tau-left of e (or parallel to it), or "in no open half-plane", which
    a zero row or an antiparallel pair also makes.  Every later row is a nonnegative,
    nonzero combination of e and f, and the half-plane is a convex cone,
    so a is clean iff e and f both lie in it: then v_a is the cone's new
    e.  Once the later rows lie in no open half-plane, no anchor up to a
    is clean.  The least anchor that is not clean is the witness's
    first member, and one forward scan finds its least partner.
    """
    r = len(rows[0])
    if r == 2:
        m = len(rows)
        e = f = rows[m - 1]
        first = None
        for a in range(m - 2, -1, -1):
            v = x, y = rows[a]
            p, q = e
            g = tau * (x * q - y * p)
            s, t = f
            h = tau * (x * t - y * s)
            if g > 0 and h > 0:
                e = v
                continue
            first = a
            if g < 0 and h < 0:
                f = v
            elif not (g <= 0 <= h and (g or h or x * p + y * q > 0)):
                # v is outside the cone, opposite to it, zero, or the cone
                # holds a zero row: no open half-plane holds the rows
                first = 0
                break
        if first is None:
            return None
        x, y = rows[first]
        if not (x or y):
            return (first, first + 1)
        for j in range(first + 1, m):
            p, q = rows[j]
            if tau * (x * q - y * p) <= 0:
                return (first, j)
    for a in range(len(rows) - r + 1):
        v = rows[a]
        if not any(v):
            return tuple(range(a, a + r))
        if r == 1:
            if tau * v[0] < 0:
                return (a,)
        else:
            sub, eps = _quotient(rows[a + 1:], v)
            if not _alternating(sub, tau * eps):
                return (a, *map((a + 1).__add__, _least_bad(sub, tau * eps)))
    return None


def det_rational(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix; a matrix that is not
    square raises DimensionMismatchError."""
    if any(len(row) != len(rows) for row in rows):
        raise DimensionMismatchError(
            f"determinant of a non-square matrix with {len(rows)} rows")
    scale = 1
    scaled = []
    for row in rows:
        s = math.lcm(*(c.denominator for c in row)) if row else 1
        scale *= s
        scaled.append([(s // c.denominator) * c.numerator for c in row])
    return Fraction(_bareiss_det(scaled), scale)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of the integer rows: 0 when none is nonzero, else 1 plus the
    rank of the later rows modulo the first nonzero one v (_quotient, a
    map whose kernel is the span of v)."""
    for i, v in enumerate(rows):
        if any(v):
            return 1 + _rank(_quotient(rows[i + 1:], v)[0])
    return 0


def affinely_independent(pts: Sequence[Point]) -> bool:
    rows = list(map(_hom_row, pts))
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatchError("points of mixed dimension")
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


class GeneralPositionReport(_Record):
    """``sign`` is sigma when the points were found sigma-homogeneous, which
    proves general position, and else 0.  It records how the answer was
    reached, so reports compare and hash on ``ok`` and ``witness`` alone."""

    _fields = ("ok", "witness", "sign")

    def __init__(self, ok: bool, witness: tuple[int, ...] | None = None,
                 sign: int = 0):
        self._fill(ok, witness, sign)

    def _key(self) -> tuple:
        return (self.ok, self.witness)

    def __bool__(self) -> bool:
        return self.ok


class PointSeq(_Record):
    """Ordered sequence of exact rational points in R^dim.

    ``labels`` keep the original indices alive through projections and
    subsequence extraction.
    """

    _fields = ("dim", "points", "labels")

    def __init__(self, dim: int, points: tuple[Point, ...],
                 labels: tuple[int, ...]):
        if dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        for p in points:
            if len(p) != dim:
                raise DimensionMismatchError(
                    f"point of length {len(p)} in a dim-{dim} sequence")
        if len(labels) != len(points):
            raise ValueError("labels must match points 1:1")
        self._fill(dim, points, labels)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    @cached_property
    def _hom(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_hom_row, self.points))

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
    """Canonical primitive direction of q modulo the nonzero vector p; None
    when q is a multiple of p.

    q mod p is _quotient's row, divided by its gcd with its leading nonzero
    entry made positive; q and q' share it iff {p, q, q'} has rank 2.  A
    difference row is the exact row over p[0] > 0, so it gives the same
    direction, and every length takes this one path.  On
    homogeneous point rows (L, L*x) and (M, M*y), L, M > 0 (_hom_row), it
    is L*M*(y - x) made primitive: the direction of the line through the
    two points, the same for either order and None iff they coincide.
    """
    (v,), _ = _quotient((q,), p)
    g = math.gcd(*v)
    if g == 0:
        return None
    if next(c for c in v if c) < 0:
        g = -g
    return tuple(c // g for c in v)


def _equal_pair(keys: Iterable, first: bool = False
                ) -> tuple[int, int] | None:
    """The lexicographically least pair of positions i < j with equal keys,
    or None.  With ``first``, the pair with the least j instead, i being
    the first position with that key."""
    seen: dict = {}
    best = None
    for j, key in enumerate(keys):
        i = seen.setdefault(key, j)
        if i != j and (best is None or i < best[0]):
            if first:
                return (i, j)
            best = (i, j)
    return best


_KEY_BITS = 64


def _slopes_distinct(v, rows, column=None):
    """True only if no row is 0 mod v and no two rows are parallel mod v,
    for 3-vectors with v[0] != 0.  False decides nothing.

    With v = (l, p1, p2), a row w = (m, b, c) maps to (x, y) =
    (l*b - m*p1, l*c - m*p2), _quotient's row, and its key is
    floor(2^_KEY_BITS * y / x).  The key is a function of the slope y/x,
    and parallel rows share their slope, so if every x is nonzero and the
    keys are pairwise distinct, no row is 0 and no two are parallel.  Only
    integers are used.  With ``column`` = (X0, xs), every row has first
    coordinate m = l > 0, so (x, y) = l * (b - p1, c - p2), and xs holds
    the rows' x-coordinates times a positive constant K that divides l,
    X0 being v's: b - p1 = (l / K) * (X - X0).  Then the key
    floor(2^_KEY_BITS * (c - p2) / (X - X0)) is the slope times the
    positive constant l / K, still a function of the slope, and its
    divisor is only as wide as the x-coordinates' own common denominator
    makes it.  A vertical row, or two distinct slopes whose keys collide,
    sends the caller to the exact _direction hash: _KEY_BITS changes how
    often that happens, never an answer.
    """
    l, p1, p2 = v
    if column:
        x0, xs = column
        if x0 in xs:
            return False
        keys = {((c - p2) << _KEY_BITS) // (x - x0)
                for (_, _, c), x in zip(rows, xs)}
    else:
        keys = set()
        for m, b, c in rows:
            x = l * b - m * p1
            if not x:
                return False
            keys.add(((l * c - m * p2) << _KEY_BITS) // x)
    return len(keys) == len(rows)


def _least_dependent(rows: Sequence[Sequence[int]], size: int,
                     first: bool = False) -> tuple[int, ...] | None:
    """The lexicographically least linearly dependent size-subset of the
    integer vectors ``rows`` (3 <= size <= their length), or None, given
    that no smaller subset is dependent.

    A subset with least member v_a != 0 is dependent iff its other members
    are mod v_a (_quotient).  So the anchors run in ascending order and
    recurse on the later rows mod v_a; at size 3, two of those are
    dependent iff they share a _direction out of v_a.  With ``first``, a
    size-3 anchor's pair is the one with the least last index instead.
    On m rows that is at most C(m, size-1) directions.  For 3-vectors with
    v_a[0] != 0, _slopes_distinct first certifies most anchors with one
    integer key per row, and only the anchors it leaves open are hashed,
    so every witness is the hash's.
    """
    for a in range(len(rows) - size + 1):
        v, rest = rows[a], rows[a + 1:]
        if size == 3:
            if len(v) == 3 and v[0] and _slopes_distinct(v, rest):
                continue
            wit = _equal_pair(map(_direction, [v] * len(rest), rest), first)
        else:
            wit = _least_dependent(_quotient(rest, v)[0], size - 1)
        if wit is not None:
            return (a, *map((a + 1).__add__, wit))
    return None


def is_general_position(seq: PointSeq) -> GeneralPositionReport:
    """Check that every subset of <= dim+1 points is affinely independent.

    On failure the witness is a minimal dependent subset: the duplicate
    pair with the least second index, else the collinear triple with the
    least first, then least last index, else the lexicographically least
    dependent subset of the least size.

    A homogeneous sequence is certified first by _alternating on its
    rows, with O(n^(d-1)) determinants (at most 3 * C(n, 2) in R^3) for
    d >= 2 and n >= d+1.  Proof: alternating rows give every
    (d+1)-subset a nonzero determinant, so it is affinely independent,
    and each smaller subset lies inside one of them.  Otherwise points
    are hashed for duplicates, and each size 3..d+1 takes
    _least_dependent on the rows: O(n^d) rank-2 tests, matching the
    Omega(n^d) lower bound for affine degeneracy (Erickson and Seidel,
    1995).  At size d+1 the recursion reaches 3-vectors, where slope
    keys settle each anchor that has no dependent pair, unless two keys
    collide or a row is vertical, and only the rest are hashed as
    directions.
    """
    n = len(seq)
    if seq.dim >= 2 and n > seq.dim:
        sign = _alternating(seq._hom)
        if sign:
            return GeneralPositionReport(True, sign=sign)
    wit = _equal_pair(seq.points, first=True)
    for size in range(3, seq.dim + 2):
        if wit is not None:
            break
        wit = _least_dependent(seq._hom, size, first=size == 3)
    return GeneralPositionReport(wit is None, wit)


class IncrementalGeneralPosition:
    """Grow a point set, rejecting additions that break general position.

    ``try_add`` either commits the point and returns None, or leaves the
    state untouched and returns a witness subset (indices, the new point
    being the next index).  The state is the committed points, their
    homogeneous rows, the rows' shared first coordinate and an x-column
    over its own shared denominator, which only the plane reads: O(n) in
    all; no per-pair data is kept.

    Every stored row is a positive multiple of its point's _hom_row, so it
    has the same determinant signs and the same _direction.  In the plane
    the rows are kept over one shared first coordinate D, the lcm of the
    committed points' denominators: the row of p is (D, D*x, D*y).  Beside
    them the column holds X = Dx*x for each committed point, Dx being the
    lcm of their x-denominators, which divides D.  A point whose
    denominator L divides D, and whose x-denominator divides Dx, is
    checked at D: each slope key divides D*(y' - y) by X' - X, two
    subtractions and a divisor as wide as Dx (_slopes_distinct's
    ``column``).  Any other point is checked against the stored rows by
    the multiplying key, and committing it rescales every row to
    lcm(D, L), or the column to the lcm of Dx and its x-denominator,
    once.  On arbitrary rationals D would grow without bound, so the row
    rescale runs only while lcm(D, L) has at most twice L's bits; past
    that guard the set drops the column and keeps each new point's
    _hom_row and the multiplying key for good, and no stored first
    coordinate is ever wider than twice the widest point denominator.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.points: list[Point] = []
        self._hom: list[tuple[int, ...]] = []
        # D, Dx and the x-column, read in the plane only; D and Dx are 0
        # and the column empty once the width guard has tripped.
        self._den = 1
        self._dx = 1
        self._xs: list[int] = []

    def try_add(self, p: Point) -> tuple[int, ...] | None:
        """Check the subsets of <= dim+1 points whose last point is p.

        A point of another length raises DimensionMismatchError.  In the
        plane, _slopes_distinct on the new row against the earlier rows
        first accepts the point when their slopes out of it are pairwise
        distinct and none is vertical: one integer key per earlier point,
        no gcd, and while p's denominators divide the shared D and Dx, no
        product in any key either, and a divisor no wider than Dx.
        Otherwise, and in every other dimension, the i-th point takes one
        integer direction out of it per earlier point a.  None is the
        duplicate pair (a, i).  From dimension 2 up, {a, b, i}
        is collinear iff dir(a) == dir(b); the committed points are in
        general position, so the colliding pairs are disjoint and the
        least one gives the lexicographically least triple.  A larger
        S + {i} is dependent iff S is mod the new row, and the directions
        are those rows made primitive, so _least_dependent on them gives
        the least subset of each size 4..dim+1, with C(i, 2) ..
        C(i, dim-1) more rank-2 tests: O(i^(dim-1)) per point.  The
        witness always comes from the direction hash.  A rejected point
        leaves every row, the column, D and Dx as they were; only a
        commit rescales.
        """
        if len(p) != self.dim:
            raise DimensionMismatchError(
                f"point of length {len(p)} in a dim-{self.dim} set")
        i = len(self._hom)
        hom = _hom_row(p)
        plane, l = self.dim == 2, hom[0]
        den = self._den if plane else 0
        shared = den and not den % l
        column = None
        if shared:
            k = den // l
            hom = (den, k * hom[1], k * hom[2])
            x, dx = p[0], self._dx
            if not dx % x.denominator:
                column = (dx // x.denominator * x.numerator, self._xs)
        if not (plane and _slopes_distinct(hom, self._hom, column)):
            dirs = list(map(_direction, [hom] * i, self._hom))
            if None in dirs:
                return (dirs.index(None), i)
            wit = _equal_pair(dirs) if self.dim >= 2 else None
            for size in range(3, self.dim + 1):
                if wit is not None:
                    break
                wit = _least_dependent(dirs, size)
            if wit is not None:
                return wit + (i,)
        if den:
            xs, dx, x = self._xs, self._dx, p[0]
            if not shared:
                lcm = den // math.gcd(den, l) * l
                if lcm.bit_length() <= 2 * l.bit_length():
                    k, m = lcm // den, lcm // l
                    rows = self._hom
                    for j, (_, b, c) in enumerate(rows):
                        rows[j] = (lcm, k * b, k * c)
                    hom = (lcm, m * hom[1], m * hom[2])
                else:
                    lcm = dx = 0
                    xs.clear()
                self._den = lcm
            if dx % x.denominator:
                lcm = math.lcm(dx, x.denominator)
                k = lcm // dx
                for j, c in enumerate(xs):
                    xs[j] = k * c
                dx = lcm
            if dx:
                xs.append(dx // x.denominator * x.numerator)
            self._dx = dx
        self.points.append(p)
        self._hom.append(hom)
        return None

    def _seq(self) -> PointSeq:
        """The committed points as a PointSeq that takes the stored rows as
        its _hom, so no row is built again.  They are positive multiples of
        the rows it would build, with the same signs and directions."""
        seq = PointSeq(self.dim, tuple(self.points),
                       tuple(range(len(self.points))))
        seq.__dict__["_hom"] = tuple(self._hom)
        return seq


class Hyperplane(_Record):
    """Affine hyperplane {x : <normal, x> = offset} with rational data."""

    _fields = ("normal", "offset")

    def __init__(self, normal: tuple[Fraction, ...], offset: Fraction):
        if all(v == 0 for v in normal):
            raise ValueError("hyperplane normal must be nonzero")
        self._fill(normal, offset)

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
    (s,) = _dots(h._int_coeffs, (_hom_row(p),))
    return (s > 0) - (s < 0)


def span_hyperplane(pts: Sequence) -> Hyperplane:
    """The hyperplane through d affinely independent points in R^d.

    Sign convention: side_of(h, x) == orientation(pts + [x]) for every x.
    Its integer coefficients (-offset, normal) are the cofactor vector
    c(D) of the points' homogeneous rows, divided by their gcd.  Scans
    over many subsets skip this Fraction wrapper and take _cofactors of
    PointSeq._hom rows directly.
    """
    pts = [as_point(p) for p in pts]
    d = len(pts)
    if any(len(p) != d for p in pts):
        raise DimensionMismatchError(f"need {d} points of dimension {d}")
    c = _cofactors([_hom_row(p) for p in pts])
    normal = c[1:]
    if all(v == 0 for v in normal):
        raise GeneralPositionError(
            "affinely dependent points do not span a hyperplane",
            range(d))
    offset = -c[0]
    g = math.gcd(*normal, offset)
    return Hyperplane(tuple(Fraction(v // g) for v in normal),
                      Fraction(offset // g))
