"""Exact crossing-number oracle, convexity test, and convex decomposition.

A polygonal path in R^d is k-crossing when every hyperplane (excluding the
ones containing an edge) meets it in at most k parameter values; convex
means d-crossing, which for vertex sequences is equivalent to order-type
homogeneity.  ``max_crossings`` is the brute-force oracle over all
hyperplanes spanned by d vertices and their generic perturbations;
``decompose`` is the fast greedy pipeline over orientation signs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import kseq
from .exactgeom import (GeneralPositionError, Hyperplane, PointSeq,
                        _cofactors, _dots, is_general_position,
                        span_hyperplane)
from .ordertype import is_order_type_homogeneous


class EdgeContainedError(ValueError):
    """Hyperplane contains a whole edge; crossing count undefined."""

    def __init__(self, edge: int):
        super().__init__(f"hyperplane contains edge {edge}")
        self.edge = edge


@dataclass(frozen=True)
class PolyPath:
    """Polygonal path on a general-position vertex sequence (n >= 2)."""

    seq: PointSeq

    def __post_init__(self):
        if len(self.seq) < 2:
            raise ValueError("a polygonal path needs at least 2 vertices")
        report = is_general_position(self.seq)
        if not report:
            raise GeneralPositionError(
                "path vertices are not in general position", report.witness)

    @classmethod
    def _certified(cls, seq: PointSeq) -> "PolyPath":
        """Path on vertices already certified in general position, built
        without re-running is_general_position.

        Only epsilon_sample calls this, with the points that
        IncrementalGeneralPosition accepted.  Every subset of <= dim+1 of
        them was checked when its last point joined, which covers each
        subset that is_general_position checks, and the sampler always
        keeps at least 2 points.
        """
        path = object.__new__(cls)
        object.__setattr__(path, "seq", seq)
        return path

    @property
    def dim(self) -> int:
        return self.seq.dim


@dataclass(frozen=True)
class CrossingWitness:
    """Hyperplane description achieving a crossing count.

    kind "direct": the hyperplane spanned by vertices ``subset``.
    kind "perturbed": a generic perturbation of that hyperplane where the
    vertices of ``subset`` are pushed to the sides in ``sides``.
    """

    kind: str
    subset: tuple[int, ...]
    sides: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CrossingReport:
    max_crossings: int
    witness: CrossingWitness


def _vertex_sides(path: PolyPath, h: Hyperplane) -> list[int]:
    coeffs = h._int_coeffs
    sides = []
    for row in path.seq._hom:
        s = sum(c * x for c, x in zip(coeffs, row))
        sides.append((s > 0) - (s < 0))
    return sides


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


def max_crossings(path: PolyPath) -> CrossingReport:
    """Maximum of crossings_with over all legal hyperplanes.

    Enumerates every d-subset D of vertices: the spanned hyperplane h(D)
    itself (when it contains no edge) and all 2^d generic perturbations of
    it, where D's vertices are pushed to prescribed sides and the count is
    the number of adjacent strict sign changes.  A crossing-maximal generic
    hyperplane can be moved onto such a perturbation without losing
    crossings, so the scan is exhaustive; the random-hyperplane soundness
    suite in the tests guards this assumption.

    The vertex sides of h(D) are the signs of c(D) . hom(i), where c(D)
    is the integer cofactor vector of D's homogeneous rows (the
    coefficients of span_hyperplane, up to a positive factor).  So each
    subset costs one cofactor vector and n dot products: C(n, d) cofactor
    vectors and n * C(n, d) dot products in all, plus 2^d perturbations
    of n sides per subset.
    """
    seq = path.seq
    n, d = len(seq), seq.dim
    if n <= d:
        # Any sign pattern on <= d affinely independent vertices is
        # realizable by some hyperplane, so alternation is the max.
        sides = tuple((-1) ** i for i in range(n))
        return CrossingReport(
            n - 1, CrossingWitness("perturbed", tuple(range(n)), sides))
    hom = seq._hom
    best = -1
    best_wit: CrossingWitness | None = None
    for subset in itertools.combinations(range(n), d):
        c = _cofactors([hom[i] for i in subset])
        if not any(c[1:]):
            raise GeneralPositionError(
                "affinely dependent points do not span a hyperplane",
                range(d))
        sides = [(v > 0) - (v < 0) for v in _dots(c, hom)]
        if any(s == 0 for i, s in enumerate(sides) if i not in subset):
            raise GeneralPositionError(
                "extra vertex on a spanned hyperplane", subset)
        if not any(a == 0 and b == 0 for a, b in zip(sides, sides[1:])):
            count = sides.count(0) + sum(
                1 for a, b in zip(sides, sides[1:]) if a * b < 0)
            if count > best:
                best = count
                best_wit = CrossingWitness("direct", subset)
        for assigned in itertools.product((-1, 1), repeat=d):
            pert = list(sides)
            for i, s in zip(subset, assigned):
                pert[i] = s
            count = _strict_flips(pert)
            if count > best:
                best = count
                best_wit = CrossingWitness("perturbed", subset, assigned)
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
    can witness dim+1 crossings among fewer parameter events).
    """
    if len(path.seq) <= path.dim:
        return True
    return bool(is_order_type_homogeneous(path.seq))


@dataclass(frozen=True)
class ConvexDecomposition:
    """Contiguous pieces with one-point overlaps, each piece convex."""

    pieces: tuple[tuple[int, int], ...]
    partition: kseq.GreedyPartition

    @property
    def count(self) -> int:
        return len(self.pieces)


def decompose(path: PolyPath) -> ConvexDecomposition:
    """Greedy minimal subdivision of the path into convex pieces.

    Piece count is minimal among contiguous one-point-overlap subdivisions
    because convexity of a contiguous run is hereditary.
    """
    gp = kseq.greedy_partition(kseq.from_points(path.seq))
    return ConvexDecomposition(gp.blocks, gp)
