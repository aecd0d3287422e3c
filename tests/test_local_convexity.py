"""The local convexity test in R^1 and R^2 against the exhaustive paths
it replaces.

``is_order_type_homogeneous`` and greedy block extension decide
homogeneity from O(1) determinants per point (``exactgeom._extends``).
The reference oracles below are the exhaustive versions: the
lexicographic scan over all C(n, d+1) tuples, and a planar greedy
partition whose every extension runs the full O(b^2) pair loop over the
block.  Reports, witnesses and raised errors must agree exactly, on
general-position and degenerate input; the pair loop names a zero
orientation as tuple_sign does.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import exactgeom, kseq
from convexsplit.crossing import PolyPath, decompose
from convexsplit.curves import builtin, decompose_curve, epsilon_sample
from convexsplit.exactgeom import GeneralPositionError, PointSeq, point_seq
from convexsplit.kseq import from_points, greedy_partition
from convexsplit.ordertype import (HomogeneityReport,
                                   is_order_type_homogeneous, tuple_sign)


def scan_homogeneous(seq: PointSeq) -> HomogeneityReport:
    """Reference: every (d+1)-tuple, lexicographic order."""
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    first = None
    sign0 = 0
    for idx in itertools.combinations(range(n), d + 1):
        s = tuple_sign(seq, idx)
        if first is None:
            first, sign0 = idx, s
        elif s != sign0:
            return HomogeneityReport(False, witness=(first, idx))
    return HomogeneityReport(True, sign=sign0)


def pair_loop(seq: PointSeq, start: int, nxt: int, sigma: int | None):
    """Reference: can nxt join the planar block [start, nxt)?  Every pair
    (i, j) of the block in lexicographic order, each orientation an
    integer 3x3 determinant with the candidate row's cofactors hoisted
    out of the loop.  Returns (witness, sigma) like kseq._extend."""
    hom = seq._hom
    c0, c1, c2 = hom[nxt]
    rows = hom[start:nxt]
    cof = [(b1 * c2 - b2 * c1, b0 * c2 - b2 * c0, b0 * c1 - b1 * c0)
           for b0, b1, b2 in rows]
    for i, (a0, a1, a2) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            u, v, w = cof[j]
            det = a0 * u - a1 * v + a2 * w
            if det == 0:
                idx = (start + i, start + j, nxt)
                raise GeneralPositionError(f"affinely dependent tuple {idx}",
                                           idx)
            t = 1 if det > 0 else -1
            if sigma is None:
                sigma = t
            elif t != sigma:
                return (start + i, start + j), sigma
    return None, sigma


def pair_loop_greedy(seq: PointSeq) -> kseq.GreedyPartition:
    """Reference: planar greedy partition, every extension decided by the
    full O(b^2) pair loop."""
    s = from_points(seq)
    n, k = len(s), s.k
    blocks, signs, witnesses = [], [], []
    start = 0
    while True:
        end = start
        sigma = None
        rejected = None
        while end + 1 < n:
            nxt = end + 1
            if nxt - start + 1 <= k:
                end = nxt
                continue
            wit, sigma = pair_loop(seq, start, nxt, sigma)
            if wit is not None:
                rejected = nxt
                break
            end = nxt
        blocks.append((start, end))
        if rejected is None:
            signs.append(sigma if end - start + 1 > k else None)
            witnesses.append(None)
            break
        signs.append(sigma)
        witnesses.append(next(
            comb for comb in itertools.combinations(range(start, end + 1), k)
            if s.sign_at(comb + (rejected,)) != sigma))
        start = end
    return kseq.GreedyPartition(tuple(blocks), tuple(signs),
                                tuple(witnesses))


def outcome(fn, seq):
    """Result, or the raised error's type, message and witness."""
    try:
        return fn(seq)
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))


small = st.integers(-6, 6)

#: Small grid points: duplicates and collinear triples are common.
grid_paths = st.lists(st.tuples(small, small), min_size=2, max_size=10)


@st.composite
def arc_paths(draw):
    """One to three parabola arcs, each in convex position, optionally
    rotated cyclically, reversed, or with one point replaced."""
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        xs = sorted(draw(st.sets(st.integers(-8, 8), min_size=2,
                                 max_size=9)))
        a = draw(st.sampled_from((-1, 1)))
        c = draw(st.integers(-20, 20))
        pts += [(x, a * x * x + c) for x in xs]
    if draw(st.booleans()):
        r = draw(st.integers(0, len(pts) - 1))
        pts = pts[r:] + pts[:r]
    if draw(st.booleans()):
        pts.reverse()
    if draw(st.booleans()):
        pts[draw(st.integers(0, len(pts) - 1))] = draw(st.tuples(small,
                                                                 small))
    return pts


@st.composite
def fan_paths(draw):
    """The origin, then upper half-plane points in counterclockwise angular
    order around it: every fan sign agrees, the turns need not."""
    pts = draw(st.lists(st.tuples(small, st.integers(1, 6)), min_size=2,
                        max_size=9, unique=True))
    pts.sort(key=functools.cmp_to_key(
        lambda p, q: q[0] * p[1] - q[1] * p[0]))
    return [(0, 0)] + pts


@st.composite
def line_paths(draw):
    """1-D sequences: arbitrary, or monotone with one point replaced."""
    xs = draw(st.lists(small, min_size=2, max_size=10))
    if draw(st.booleans()):
        xs = sorted(set(xs), reverse=draw(st.booleans()))
        if len(xs) < 2:
            xs.append(xs[0] + 1)
        xs[draw(st.integers(0, len(xs) - 1))] = draw(small)
    return [(x,) for x in xs]


class TestDifferential:
    @given(st.one_of(grid_paths, arc_paths(), fan_paths(), line_paths()))
    @settings(max_examples=400, deadline=None)
    def test_homogeneity_matches_scan(self, pts):
        seq = point_seq(pts)
        assert (outcome(is_order_type_homogeneous, seq)
                == outcome(scan_homogeneous, seq))

    @given(st.one_of(grid_paths, arc_paths(), fan_paths()))
    @settings(max_examples=400, deadline=None)
    def test_greedy_matches_pair_loop(self, pts):
        seq = point_seq(pts)
        assert (outcome(lambda q: greedy_partition(from_points(q)), seq)
                == outcome(pair_loop_greedy, seq))

    def test_degenerate_point_after_a_long_block(self):
        # the three local signs fail, and the pair loop's lex-least zero
        # triple, not a local one, becomes the witness
        seq = point_seq([(0, 0), (1, 1), (2, 4), (3, 9), (4, 16), (2, 2)])
        with pytest.raises(GeneralPositionError) as err:
            greedy_partition(from_points(seq))
        assert err.value.witness == (0, 1, 5)


def convex_polygon(n):
    """n vertices of the unit circle, counterclockwise, at the rational
    points ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) for t in [-3, 3)."""
    ts = [Fraction(6 * i, n) - 3 for i in range(n)]
    return point_seq([((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
                      for t in ts])


def count_dets(monkeypatch):
    """A function giving the number of determinant signs decided since
    this call: the exactgeom._det_sign calls plus the determinants that
    the inline rank-2 and rank-3 steps add to exactgeom._tally."""
    calls = []
    det_sign = exactgeom._det_sign

    def counting(rows):
        calls.append(rows)
        return det_sign(rows)

    monkeypatch.setattr(exactgeom, "_det_sign", counting)
    monkeypatch.setattr(exactgeom, "_tally", 0)
    return lambda: len(calls) + exactgeom._tally


@pytest.fixture()
def counted(monkeypatch):
    """Counts of PointSeq.orientation_of calls and of the witness kernel
    calls that greedy extension makes (kseq._least_bad), and under "dets"
    a function giving the determinants decided (count_dets)."""
    counts = {"orient": 0, "witness": 0}
    for owner, name, key in ((PointSeq, "orientation_of", "orient"),
                             (kseq, "_least_bad", "witness")):
        def counting(*args, _fn=getattr(owner, name), _key=key):
            counts[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counting)
    counts["dets"] = count_dets(monkeypatch)
    return counts


class TestCounters:
    @pytest.mark.parametrize("n", [3, 10, 60, 200])
    def test_planar_homog_is_linear(self, n, counted):
        ts = [Fraction(i, 11) for i in range(1, n + 1)]
        seq = point_seq([(t, t * t) for t in ts])
        assert is_order_type_homogeneous(seq).sign == 1
        assert counted["orient"] == 0
        assert counted["dets"]() <= 3 * n
        assert seq._sign_cache == {}

    def test_line_homog_is_linear(self, counted):
        seq = point_seq([(Fraction(-i, 7),) for i in range(100)])
        assert is_order_type_homogeneous(seq).sign == -1
        assert counted["orient"] == 0
        assert counted["dets"]() == 2 * 100 - 3

    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_greedy_on_convex_polygon_is_linear(self, n, counted):
        gp = greedy_partition(from_points(convex_polygon(n)))
        assert gp.blocks == ((0, n - 1),)
        assert gp.signs == (1,)
        assert counted["orient"] == 0
        assert counted["dets"]() <= 3 * n
        assert counted["witness"] == 0

    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_decompose_convex_polygon_reads_no_tuple(self, n, counted):
        seq = convex_polygon(n)
        dec = decompose(PolyPath(seq))
        assert dec.pieces == ((0, n - 1),)
        assert counted["orient"] == 0
        assert counted["dets"]() <= 3 * n
        assert seq._sign_cache == {}

    def test_decompose_curve_reads_no_tuple(self, counted):
        out = decompose_curve(builtin("quintic"), Fraction(1, 25))
        seq = out.sample.path.seq
        assert len(out.decomposition.pieces) == 4
        assert counted["orient"] == 0
        assert counted["dets"]() <= 3 * len(seq)
        assert seq._sign_cache == {}

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_line_greedy_is_linear(self, n, counted, monkeypatch):
        seq = point_seq([(Fraction(i * i, 7),) for i in range(n)])
        sign_at = []
        monkeypatch.setattr(kseq.KSequence, "sign_at",
                            lambda *args: sign_at.append(args))
        gp = greedy_partition(from_points(seq))
        assert gp.blocks == ((0, n - 1),)
        assert gp.signs == (1,)
        assert counted["dets"]() <= 2 * n
        assert sign_at == []

    def test_pair_loop_runs_once_per_rejected_block(self, counted):
        # One witness kernel call per rejected block, and none on accepted
        # points.
        seq = epsilon_sample(builtin("quintic"), Fraction(1, 25)).path.seq
        counted["witness"] = 0
        gp = greedy_partition(from_points(seq))
        assert gp.m == 4
        assert counted["witness"] == gp.m - 1
