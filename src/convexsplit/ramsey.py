"""Super order-type homogeneity and convex-subsequence extraction.

A sequence is super order-type homogeneous when every prefix projection
(first k coordinates, k = 1..d) is order-type homogeneous.  Such sequences
behave like the moment curve: repeated convex decomposition of successive
projections extracts one from any homogeneous input while keeping at least
a 1/ceil(c(k)) fraction of the points per stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .crossing import PolyPath, decompose
from .exactgeom import (GeneralPositionError, PointSeq, is_general_position,
                        project)
from .kseq import c_bound
from .ordertype import is_order_type_homogeneous, tuple_sign


class SuperGeneralPositionError(GeneralPositionError):
    """Some prefix projection is degenerate."""

    def __init__(self, k: int, witness):
        super().__init__(
            f"projection to the first {k} coordinates violates "
            f"general position", witness)
        self.k = k


@dataclass(frozen=True)
class SuperHomogeneityReport:
    homogeneous: bool
    signs: tuple[int, ...] | None = None
    failing_k: int | None = None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        return self.homogeneous


def is_super_ot_homogeneous(seq: PointSeq) -> SuperHomogeneityReport:
    """Check order-type homogeneity of every prefix projection.

    Requires n >= d+1.  Raises SuperGeneralPositionError when a projection
    is degenerate; on failure reports the smallest failing k with the
    witness pair of oppositely oriented tuples in that projection.
    """
    if len(seq) < seq.dim + 1:
        raise ValueError("need at least dim+1 points")
    signs = []
    for k in range(1, seq.dim + 1):
        proj = project(seq, k)
        gp = is_general_position(proj)
        if not gp:
            raise SuperGeneralPositionError(k, gp.witness)
        rep = is_order_type_homogeneous(proj)
        if not rep:
            return SuperHomogeneityReport(False, failing_k=k,
                                          witness=rep.witness)
        signs.append(rep.sign)
    return SuperHomogeneityReport(True, signs=tuple(signs))


def _longest_planar_monotone(seq: PointSeq, sigma: int) -> tuple[int, ...]:
    """Longest sigma-homogeneous subsequence of an x-monotone planar
    sequence, lexicographically least among the longest.

    For x-monotone input, a subsequence is sigma-homogeneous iff all its
    consecutive triples have sign sigma, so a pairwise suffix DP is exact.
    The local-to-global step fails without monotonicity (spirals), hence
    the guard in longest_ot_homogeneous.
    """
    n = len(seq)
    # chain[(i, j)] = max points in a chain starting with positions i, j
    chain: dict[tuple[int, int], int] = {}
    for j in range(n - 1, -1, -1):
        for i in range(j - 1, -1, -1):
            best = 2
            for k in range(j + 1, n):
                if tuple_sign(seq, (i, j, k)) == sigma:
                    best = max(best, 1 + chain[(j, k)])
            chain[(i, j)] = best
    total = max(chain.values())
    first = min(i for (i, j), v in chain.items() if v == total)
    second = min(j for (i, j), v in chain.items()
                 if i == first and v == total)
    out = [first, second]
    need = total - 2
    while need:
        i, j = out[-2], out[-1]
        k = min(k for k in range(j + 1, n)
                if tuple_sign(seq, (i, j, k)) == sigma
                and chain[(j, k)] == need + 1)
        out.append(k)
        need -= 1
    return tuple(out)


def _longest_branch_and_bound(seq: PointSeq) -> tuple[int, ...]:
    """Exhaustive search, exact in any dimension; exponential worst case.

    DFS in lexicographic order with a can't-exceed prune, so the first
    maximum found is the lexicographically least one and is never pruned.
    """
    n, d = len(seq), seq.dim
    best: list[int] = []

    def extends(current: list[int], nxt: int, sigma: int | None):
        if len(current) < d:
            return True, sigma
        for body in itertools.combinations(current, d):
            s = tuple_sign(seq, body + (nxt,))
            if sigma is None:
                sigma = s
            elif s != sigma:
                return False, sigma
        return True, sigma

    def dfs(current: list[int], start: int, sigma: int | None):
        nonlocal best
        if len(current) > len(best):
            best = current.copy()
        for nxt in range(start, n):
            if len(current) + (n - nxt) <= len(best):
                break
            ok, nsigma = extends(current, nxt, sigma)
            if ok:
                current.append(nxt)
                dfs(current, nxt + 1, nsigma)
                current.pop()

    dfs([], 0, None)
    return tuple(best)


def _x_monotone(seq: PointSeq) -> bool:
    xs = [p[0] for p in seq.points]
    return (all(a < b for a, b in zip(xs, xs[1:]))
            or all(a > b for a, b in zip(xs, xs[1:])))


def longest_ot_homogeneous(seq: PointSeq) -> PointSeq:
    """Longest order-type homogeneous subsequence (exact).

    Ties resolve to the lexicographically least index set.  Sequences with
    fewer than dim+1 points are vacuously homogeneous.  Planar x-monotone
    input uses an O(n^3) DP; everything else falls back to branch and
    bound, practical to n around 14.
    """
    n, d = len(seq), seq.dim
    if n <= d:
        return seq.subsequence(range(n))
    if d == 2 and _x_monotone(seq):
        plus = _longest_planar_monotone(seq, 1)
        minus = _longest_planar_monotone(seq, -1)
        pick = min((-len(plus), plus), (-len(minus), minus))[1]
    else:
        pick = _longest_branch_and_bound(seq)
    return seq.subsequence(pick)


@dataclass(frozen=True)
class ExtractionStage:
    """One projection step: decompose in dimension k, keep longest piece."""

    k: int
    input_len: int
    pieces: tuple[tuple[int, int], ...]
    chosen: tuple[int, int]
    kept_labels: tuple[int, ...]


@dataclass(frozen=True)
class ExtractionTrace:
    stages: tuple[ExtractionStage, ...]
    final: PointSeq


def super_extract(seq: PointSeq) -> ExtractionTrace:
    """Extract a super order-type homogeneous subsequence.

    Input must be order-type homogeneous with every prefix projection in
    general position.  Stage i (i = 2..d) projects the current points to
    their first d-i+1 coordinates, decomposes that path into convex pieces,
    and keeps the longest piece (ties to the earliest).  Each stage keeps
    at least a 1/ceil(c(k)) fraction, so the final length is at least
    n / prod_k ceil(c(k)) over k = 1..d-1.
    """
    _require_projections_in_general_position(seq, seq.dim)
    rep = is_order_type_homogeneous(seq)
    if not rep:
        raise ValueError(
            f"input is not order-type homogeneous; witness {rep.witness}")
    return _extract_stages(seq)


def _super_extract(seq: PointSeq) -> ExtractionTrace:
    """super_extract for input already known to be order-type homogeneous
    (the ramsey command has just scanned it, or built it homogeneous).

    The homogeneity scan is skipped, and so is the general-position check
    of the full-dimensional input: every (d+1)-tuple has the common sign,
    which is nonzero, and with n >= d+1 points every smaller subset lies
    in one of them, so it is affinely independent.
    """
    _require_projections_in_general_position(seq, seq.dim - 1)
    return _extract_stages(seq)


def _require_projections_in_general_position(seq: PointSeq,
                                             top: int) -> None:
    """n >= dim+1, and the projections to k = 1..top coordinates are in
    general position, checked in that order."""
    if len(seq) < seq.dim + 1:
        raise ValueError("need at least dim+1 points")
    for k in range(1, top + 1):
        gp = is_general_position(project(seq, k))
        if not gp:
            raise SuperGeneralPositionError(k, gp.witness)


def _extract_stages(seq: PointSeq) -> ExtractionTrace:
    """The projection stages of super_extract.  Each stage projects a
    contiguous piece of ``seq`` to k <= dim-1 coordinates; the projection
    of all of ``seq`` was just checked, and a subsequence of a
    general-position sequence is in general position, so the stage paths
    are built without a second check."""
    d = seq.dim
    current = seq
    stages = []
    for i in range(2, d + 1):
        k = d - i + 1
        proj = project(current, k)
        dec = decompose(PolyPath._certified(proj))
        chosen = max(dec.pieces, key=lambda pr: (pr[1] - pr[0], -pr[0]))
        lo, hi = chosen
        current = current.subsequence(range(lo, hi + 1))
        stages.append(ExtractionStage(k, len(proj), dec.pieces, chosen,
                                      current.labels))
    return ExtractionTrace(tuple(stages), current)


def extraction_floor(n: int, d: int) -> int:
    """Guaranteed minimum length of super_extract output on n points."""
    out = n
    for i in range(2, d + 1):
        k = d - i + 1
        denom = -(-c_bound(k).numerator // c_bound(k).denominator)
        out = -(-out // denom)
    return out
