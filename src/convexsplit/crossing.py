"""Exact crossing-number oracle, convexity test, and convex decomposition.

A polygonal path in R^d is k-crossing when every hyperplane (excluding the
ones containing an edge) meets it in at most k parameter values; convex
means d-crossing, which for vertex sequences is equivalent to order-type
homogeneity.  ``decompose`` is the fast greedy pipeline over orientation
signs.

``max_crossings`` is exact over all hyperplanes spanned by d vertices
and their generic perturbations, but it does not visit them one by one.
The hyperplanes through d - 1 vertices F form a pencil, which maps to
the lines through the origin of a plane.  Turning that line once moves
the vertices across it one at a time, and a running count of crossed
edges gives every hyperplane of the pencil, perturbations included, in
O(1) each (see ordertype._pencils, which the flip test shares).  The
plane is the vertices' rows modulo F, by the quotient recursion, with
one quotient per prefix of F shared by every F that starts with it.
That is O(n^(d-1) * (n log n + 2^d * d)) arithmetic operations, against
O(2^d * n^(d+1)) for visiting every d-subset with its 2^d
perturbations.  Convex input takes no pencil: a path whose
general-position check found its vertices sigma-homogeneous is d-crossing,
and its witness is read off sigma alone (see max_crossings).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from . import kseq
from .exactgeom import (GeneralPositionError, Hyperplane, PointSeq, _Record,
                        _cofactors, _dots, is_general_position,
                        span_hyperplane)
from .ordertype import _pencils, is_order_type_homogeneous


class EdgeContainedError(ValueError):
    """Hyperplane contains a whole edge; crossing count undefined."""

    def __init__(self, edge: int):
        super().__init__(f"hyperplane contains edge {edge}")
        self.edge = edge


class PolyPath(_Record):
    """Polygonal path on a general-position vertex sequence (n >= 2).

    ``_sign`` is sigma when the vertices are known sigma-homogeneous, else
    0.  It records how they were checked, so it is neither compared,
    hashed nor shown.
    """

    _fields = ("seq",)

    def __init__(self, seq: PointSeq):
        self._fill(seq)
        # A method of its own, which bench/layers.py counts by this name.
        self.__post_init__()

    def __post_init__(self):
        if len(self.seq) < 2:
            raise ValueError("a polygonal path needs at least 2 vertices")
        report = is_general_position(self.seq)
        if not report:
            raise GeneralPositionError(
                "path vertices are not in general position", report.witness)
        object.__setattr__(self, "_sign", report.sign)

    @classmethod
    def _certified(cls, seq: PointSeq, sign: int = 0) -> "PolyPath":
        """Path on vertices already certified in general position, built
        without re-running is_general_position; ``sign`` is its _sign.

        Three callers hold such a certificate, and all pass at least 2
        points.  epsilon_sample passes the points that
        IncrementalGeneralPosition accepted: every subset of <= dim+1 of
        them was checked when its last point joined, by the same quotient
        recursion that is_general_position runs on the whole set.  ramsey's extraction
        stages pass contiguous pieces of projections whose whole was just
        checked, and a subsequence of a general-position sequence is in
        general position.  decompose_curve passes such a sample again
        with the sign of the one greedy block that it closed, which
        proves the vertices sign-homogeneous.
        """
        path = object.__new__(cls)
        object.__setattr__(path, "seq", seq)
        object.__setattr__(path, "_sign", sign)
        return path

    @property
    def dim(self) -> int:
        return self.seq.dim


class CrossingWitness(_Record):
    """Hyperplane description achieving a crossing count.

    kind "direct": the hyperplane spanned by vertices ``subset``.
    kind "perturbed": a generic perturbation of that hyperplane where the
    vertices of ``subset`` are pushed to the sides in ``sides``.
    """

    _fields = ("kind", "subset", "sides")

    def __init__(self, kind: str, subset: tuple[int, ...],
                 sides: tuple[int, ...] | None = None):
        self._fill(kind, subset, sides)


class CrossingReport(_Record):
    _fields = ("max_crossings", "witness")

    def __init__(self, max_crossings: int, witness: CrossingWitness):
        self._fill(max_crossings, witness)


def _vertex_sides(path: PolyPath, h: Hyperplane) -> list[int]:
    return [(s > 0) - (s < 0) for s in _dots(h._int_coeffs, path.seq._hom)]


def crossings_with(path: PolyPath, h: Hyperplane) -> int:
    """Parameter values of the path on h: vertices on h plus edges whose
    endpoints lie strictly on opposite sides."""
    sides = _vertex_sides(path, h)
    for i, (a, b) in enumerate(zip(sides, sides[1:])):
        if a == 0 and b == 0:
            raise EdgeContainedError(i)
    on = sides.count(0)
    flips = sum(1 for a, b in zip(sides, sides[1:]) if a * b < 0)
    return on + flips


def _strict_flips(sides: Sequence[int]) -> int:
    return sum(1 for a, b in zip(sides, sides[1:]) if a != b)


def _keys(sides: list[int], subset: tuple[int, ...]):
    """(count, witness) for each hyperplane of the subset D, in witness
    order: h(D) itself when it contains no edge, then the 2^d
    perturbations, their sides in product order.  ``sides`` are the
    vertex sides of h(D)."""
    if not any(a == 0 and b == 0 for a, b in zip(sides, sides[1:])):
        yield (sides.count(0)
               + sum(1 for a, b in zip(sides, sides[1:]) if a * b < 0),
               CrossingWitness("direct", subset))
    for assigned in itertools.product((-1, 1), repeat=len(subset)):
        pert = list(sides)
        for i, s in zip(subset, assigned):
            pert[i] = s
        yield (_strict_flips(pert),
               CrossingWitness("perturbed", subset, assigned))


def _subset_error(hom, d: int) -> GeneralPositionError:
    """The error of the first d-subset D, in lexicographic order, that is
    affinely dependent or has another vertex on h(D).  Called only once
    some (d+1)-subset S is known to be dependent, so such a D exists:
    any d members of S are dependent, or the last one lies on their
    hyperplane."""
    for subset in itertools.combinations(range(len(hom)), d):
        c = _cofactors([hom[i] for i in subset])
        if not any(c[1:]):
            return GeneralPositionError(
                "affinely dependent points do not span a hyperplane",
                range(d))
        vals = _dots(c, hom)
        if any(v == 0 for i, v in enumerate(vals) if i not in subset):
            return GeneralPositionError(
                "extra vertex on a spanned hyperplane", subset)
    raise AssertionError("no dependent subset")


def max_crossings(path: PolyPath) -> CrossingReport:
    """Maximum of crossings_with over all legal hyperplanes.

    Every d-subset D of vertices gives keys: the spanned hyperplane h(D)
    itself (when it contains no edge) and all 2^d generic perturbations
    of it, where D's vertices are pushed to prescribed sides and the
    count is the number of adjacent strict sign changes.  A
    crossing-maximal generic hyperplane can be moved onto such a
    perturbation without losing crossings, so the keys are exhaustive;
    the random-hyperplane soundness suite in the tests guards this
    assumption.  The witness is the first key reaching the maximum, D in
    lexicographic order and then the order of _keys.

    The keys are not enumerated.  Each D is F + (p,) with p = max D, and
    the hyperplanes through a (d-1)-subset F form a pencil.  _pencils
    sweeps each once and gives the best count of every such D, in O(1)
    after sorting; the proof is in its docstring.  Scanning p upwards for
    each F in lexicographic order visits the D in lexicographic order.
    So the witness is fixed by re-reading the keys of a D only when it
    beats every earlier one: at most once per F, and at most n + 1 times
    in all, as the count lies in 0..n.

    Cost: C(n-1, d-1) pencils, each a sort and an O(n) sweep on the
    rows modulo F, which take sum_{j=1}^{d-1} C(n-d+j, j) quotients of n
    rows in all (n - 1 in the plane, (n - 2) + C(n - 1, 2) in R^3) and
    no cofactor vector, plus 2^d + 1 keys of length n per witness, so
    O(n^(d-1) * (n log n + 2^d * d)) arithmetic operations.  A scan over
    subsets takes C(n, d) cofactor vectors and 2^d side patterns of
    length n for each: O(2^d * n^(d+1)).

    Convex input sweeps nothing.  When the general-position check found
    the vertices sigma-homogeneous (path._sign = sigma) and n > d, the
    answer is d, and the witness is the first key of D = (0, ..., d-1)
    that counts d, read off the sides [0] * d + [sigma] * (n - d).
    Proof.  Every (d+1)-tuple has orientation sigma, so every entry of
    every D's sign sequence is sigma (see ordertype.sign_sequence): no
    sign changes, and each D's best count is d (see ordertype.is_flip).
    So the maximum is d, and the lexicographically first D, (0, ..., d-1),
    reaches it.  Its sides are those the sweep reads for it: sign
    det[D; y] for a vertex y, 0 on D and sigma after it, as (0, ..., d-1,
    y) is increasing.  D holds an edge, so h(D) is no key, and the first
    key counting d is the perturbation with sides alternating and ending
    in -sigma.  The cost is at most 2^d side patterns of length n, after
    the O(n^(d-1)) determinants of the general-position check, or of
    the one greedy block that decompose_curve closed.  Other paths in R^1
    and PolyPath._certified paths have _sign 0 and always sweep.

    A path from PolyPath is in general position.  On a dependent
    (d+1)-subset, which only a PolyPath._certified path can hold, the
    sweep stops and the lexicographic scan over d-subsets raises its
    GeneralPositionError.
    """
    seq = path.seq
    n, d = len(seq), seq.dim
    if n <= d:
        # Any sign pattern on <= d affinely independent vertices is
        # realizable by some hyperplane, so alternation is the max.
        sides = tuple((-1) ** i for i in range(n))
        return CrossingReport(
            n - 1, CrossingWitness("perturbed", tuple(range(n)), sides))
    if path._sign:
        sides = [0] * d + [path._sign] * (n - d)
        return CrossingReport(d, next(wit for count, wit
                                      in _keys(sides, tuple(range(d)))
                                      if count == d))
    hom = seq._hom
    best = -1
    best_wit: CrossingWitness | None = None
    for F, pencil in _pencils(hom, d):
        if pencil is None:
            raise _subset_error(hom, d)
        counts, q = pencil
        top = max(counts)
        if top > best:
            p = counts.index(top)
            u, v = q[p]
            sides = [(c > 0) - (c < 0) for c in (u * y - v * x for x, y in q)]
            best = top
            best_wit = next(wit for count, wit in _keys(sides, F + (p,))
                            if count == top)
    return CrossingReport(best, best_wit)


def witness_crossings(path: PolyPath, wit: CrossingWitness) -> int:
    """Re-evaluate a witness; used to validate reports."""
    seq = path.seq
    if wit.kind == "direct":
        h = span_hyperplane([seq.points[i] for i in wit.subset])
        return crossings_with(path, h)
    if len(wit.subset) == len(seq):
        return _strict_flips(wit.sides)
    h = span_hyperplane([seq.points[i] for i in wit.subset])
    sides = _vertex_sides(path, h)
    for i, s in zip(wit.subset, wit.sides):
        sides[i] = s
    return _strict_flips(sides)


def is_convex(path: PolyPath) -> bool:
    """Convex = d-crossing = order-type homogeneous vertex sequence.

    Paths with n <= dim vertices are convex by convention (no hyperplane
    can witness dim+1 crossings among fewer parameter events).  A nonzero
    path._sign is a proof of homogeneity, so it answers at once.  A zero
    one decides nothing (PolyPath._certified paths and R^1 paths mostly
    hold 0), and the homogeneity test runs.
    """
    if len(path.seq) <= path.dim or path._sign:
        return True
    return bool(is_order_type_homogeneous(path.seq))


class ConvexDecomposition(_Record):
    """Contiguous pieces with one-point overlaps, each piece convex."""

    _fields = ("pieces", "partition")

    def __init__(self, pieces: tuple[tuple[int, int], ...],
                 partition: kseq.GreedyPartition):
        self._fill(pieces, partition)

    @property
    def count(self) -> int:
        return len(self.pieces)


def decompose(path: PolyPath) -> ConvexDecomposition:
    """Greedy minimal subdivision of the path into convex pieces.

    Piece count is minimal among contiguous one-point-overlap subdivisions
    because convexity of a contiguous run is hereditary.  A path whose
    vertices are known sigma-homogeneous is the one block greedy would
    close, with sign sigma.
    """
    if path._sign:
        last = len(path.seq) - 1
        gp = kseq.GreedyPartition(((0, last),), (path._sign,), (None,))
        return ConvexDecomposition(gp.blocks, gp)
    gp = kseq.greedy_partition(kseq.from_points(path.seq))
    return ConvexDecomposition(gp.blocks, gp)
