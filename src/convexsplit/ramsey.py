"""Super order-type homogeneity and convex-subsequence extraction.

A sequence is super order-type homogeneous when every prefix projection
(first k coordinates, k = 1..d) is order-type homogeneous.  Such sequences
behave like the moment curve: repeated convex decomposition of successive
projections extracts one from any homogeneous input while keeping at least
a 1/ceil(c(k)) fraction of the points per stage.

The ``ramsey`` command starts from the longest homogeneous subsequence.
Where consecutive (d+1)-tuples decide homogeneity (the line, x-monotone
planar input) a suffix DP finds it; elsewhere a branch and bound over an
explicit stack, exponential in the worst case.  Nothing here recurses.
"""

from __future__ import annotations

import itertools

from .crossing import PolyPath, decompose
from .exactgeom import (GeneralPositionError, PointSeq, _Record, _det_sign,
                        _equal_pair, is_general_position, project)
from .kseq import c_bound
from .ordertype import _raise_dependent, is_order_type_homogeneous, tuple_sign


class SuperGeneralPositionError(GeneralPositionError):
    """Some prefix projection is degenerate."""

    def __init__(self, k: int, witness):
        super().__init__(
            f"projection to the first {k} coordinates violates "
            f"general position", witness)
        self.k = k


class SuperHomogeneityReport(_Record):
    _fields = ("homogeneous", "signs", "failing_k", "witness")

    def __init__(self, homogeneous: bool,
                 signs: tuple[int, ...] | None = None,
                 failing_k: int | None = None,
                 witness: tuple[tuple[int, ...], tuple[int, ...]]
                 | None = None):
        self._fill(homogeneous, signs, failing_k, witness)

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


def _longest_chain(seq: PointSeq) -> tuple[int, ...]:
    """Longest homogeneous subsequence of a sequence on the line, or of an
    x-monotone one in the plane; lexicographically least among the longest.

    There a subsequence is sigma-homogeneous iff all its consecutive
    (d+1)-tuples have sign sigma, so a suffix DP over its last d points is
    exact.  The local-to-global step fails for planar input that is not
    x-monotone (spirals), hence the guard in longest_ot_homogeneous.  One
    pass fills both signs' chains, reading each tuple's sign once from the
    rows, with no memo.  A zero sign raises where tuple_sign would first
    have met one in this order; on the line, verify-gp's duplicate pair.
    """
    n, d, hom = len(seq), seq.dim, seq._hom
    # chains[state][sigma] = (points in the longest sigma-chain that starts
    # with the d positions state, least next position in one, or None)
    chains: dict[tuple[int, ...], dict] = {}
    for state in sorted(itertools.combinations(range(n), d),
                        key=lambda st: st[::-1], reverse=True):
        rows = [hom[i] for i in state]
        best = chains[state] = {1: (d, None), -1: (d, None)}
        for k in range(state[-1] + 1, n):
            s = _det_sign(rows + [hom[k]])
            if not s:
                _raise_dependent(state + (k,) if d > 1 else
                                 _equal_pair(seq.points, first=True))
            size = chains[state[1:] + (k,)][s][0] + 1
            if size > best[s][0]:
                best[s] = (size, k)
    paths = []
    for sigma in (1, -1):
        out = list(min(chains, key=lambda st: (-chains[st][sigma][0], st)))
        while (k := chains[tuple(out[-d:])][sigma][1]) is not None:
            out.append(k)
        paths.append(tuple(out))
    return min(paths, key=lambda path: (-len(path), path))


def _longest_branch_and_bound(seq: PointSeq) -> tuple[int, ...]:
    """Exhaustive search, exact in any dimension; exponential worst case.

    DFS in lexicographic order with a can't-exceed prune, so the first
    maximum found is the lexicographically least one and is never pruned.
    It runs over an explicit stack, so no input reaches the recursion
    limit.
    """
    n, d = len(seq), seq.dim
    best: list[int] = []
    current: list[int] = []
    # frames[t] = [next candidate after current[:t], its sign or 0 if none]
    frames = [[0, 0]]
    while frames:
        frame = frames[-1]
        nxt, sigma = frame
        if nxt == n or len(current) + (n - nxt) <= len(best):
            frames.pop()
            if frames:
                current.pop()
            continue
        frame[0] = nxt + 1
        for body in itertools.combinations(current, d):
            s = tuple_sign(seq, body + (nxt,))
            sigma = sigma or s
            if s != sigma:
                break
        else:
            current.append(nxt)
            if len(current) > len(best):
                best = current.copy()
            frames.append([nxt + 1, sigma])
    return tuple(best)


def longest_ot_homogeneous(seq: PointSeq) -> PointSeq:
    """Longest order-type homogeneous subsequence (exact).

    Ties resolve to the lexicographically least index set.  Sequences with
    fewer than dim+1 points are vacuously homogeneous.  Input on the line,
    and x-monotone input in the plane, take the DP of _longest_chain: C(n, d)
    states and O(n^(d+1)) signs.  Everything else takes branch and bound,
    exponential in the worst case: on random planar input about 1 s at
    n = 40 and 9 s at n = 60 (2-core x86, CPython 3.11).
    """
    n, d = len(seq), seq.dim
    if n <= d:
        return seq.subsequence(range(n))
    xs = [p[0] for p in seq.points]
    if d == 1 or d == 2 and sorted(set(xs)) in (xs, xs[::-1]):
        pick = _longest_chain(seq)
    else:
        pick = _longest_branch_and_bound(seq)
    return seq.subsequence(pick)


class ExtractionStage(_Record):
    """One projection step: decompose in dimension k, keep longest piece."""

    _fields = ("k", "input_len", "pieces", "chosen", "kept_labels")

    def __init__(self, k: int, input_len: int,
                 pieces: tuple[tuple[int, int], ...], chosen: tuple[int, int],
                 kept_labels: tuple[int, ...]):
        self._fill(k, input_len, pieces, chosen, kept_labels)


class ExtractionTrace(_Record):
    _fields = ("stages", "final")

    def __init__(self, stages: tuple[ExtractionStage, ...], final: PointSeq):
        self._fill(stages, final)


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
