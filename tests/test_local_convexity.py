"""The local planar convexity test against the exhaustive paths it replaces.

``is_order_type_homogeneous`` (d <= 2) and planar greedy block extension
decide homogeneity from O(1) orientations per point.  The reference
oracles below are the exhaustive versions: the lexicographic scan over
all C(n, d+1) tuples, and a greedy partition whose every extension runs
the full ``_extend_planar`` pair loop.  Reports, witnesses and raised
errors must agree exactly, on general-position and degenerate input.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import kseq
from convexsplit.curves import builtin, epsilon_sample
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


def pair_loop_greedy(seq: PointSeq) -> kseq.GreedyPartition:
    """Reference: planar greedy partition, every extension decided by the
    full O(b^2) pair loop of _extend_planar."""
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
            wit, sigma = kseq._extend_planar(seq, start, nxt, sigma)
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


@pytest.fixture()
def counted(monkeypatch):
    """Counts of PointSeq.orientation_of and _extend_planar calls."""
    counts = {"orient": 0, "pair_loop": 0}
    orientation_of = PointSeq.orientation_of
    extend_planar = kseq._extend_planar

    def counting_orientation(self, idx):
        counts["orient"] += 1
        return orientation_of(self, idx)

    def counting_extend(*args):
        counts["pair_loop"] += 1
        return extend_planar(*args)

    monkeypatch.setattr(PointSeq, "orientation_of", counting_orientation)
    monkeypatch.setattr(kseq, "_extend_planar", counting_extend)
    return counts


class TestCounters:
    @pytest.mark.parametrize("n", [3, 10, 60, 200])
    def test_planar_homog_is_linear(self, n, counted):
        ts = [Fraction(i, 11) for i in range(1, n + 1)]
        seq = point_seq([(t, t * t) for t in ts])
        assert is_order_type_homogeneous(seq).sign == 1
        assert counted["orient"] <= 3 * n

    def test_line_homog_is_linear(self, counted):
        seq = point_seq([(Fraction(-i, 7),) for i in range(100)])
        assert is_order_type_homogeneous(seq).sign == -1
        assert counted["orient"] == 99

    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_greedy_on_convex_polygon_is_linear(self, n, counted):
        gp = greedy_partition(from_points(convex_polygon(n)))
        assert gp.blocks == ((0, n - 1),)
        assert gp.signs == (1,)
        assert counted["orient"] <= 3 * n
        assert counted["pair_loop"] == 0

    def test_pair_loop_runs_once_per_rejected_block(self, counted):
        seq = epsilon_sample(builtin("quintic"), Fraction(1, 25)).path.seq
        counted["pair_loop"] = 0
        gp = greedy_partition(from_points(seq))
        assert gp.m == 4
        assert counted["pair_loop"] == gp.m - 1
