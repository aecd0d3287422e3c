"""The alternating-configuration test against the tuple scans it replaces.

``exactgeom._alternating`` decides whether every r-subset of integer
vectors has one determinant sign, from O(m^(r-2)) determinants.  In R^3
and up, ``is_order_type_homogeneous`` runs it on the homogeneous rows, and
greedy block extension runs it on the block's rows modulo the candidate's.
The oracles below are the tuple paths: every r-subset by Bareiss
elimination, ``scan_homogeneous``, and a greedy partition whose every
extension reads all C(b, d) new tuples.  Reports, blocks, signs,
witnesses and raised errors (type, message and witness) must agree
exactly, on homogeneous, non-homogeneous and degenerate input alike.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import cli, crossing, exactgeom, ordertype, ramsey
from convexsplit.crossing import PolyPath, decompose
from convexsplit.exactgeom import (PointSeq, _alternating, _quotient,
                                   point_seq)
from convexsplit.kseq import GreedyPartition, from_points, greedy_partition
from convexsplit.ordertype import is_order_type_homogeneous
from convexsplit.ramsey import _super_extract, super_extract
from test_cofactor_kernel import (_bareiss_det, bareiss_sign, count_calls,
                                  curve_paths, moment_seq, old_tuple_sign,
                                  outcome, point_sets)
from test_local_convexity import count_dets, scan_homogeneous


def brute_alternating(rows, sigma=0):
    """Reference: the sign of every r-subset, in lexicographic order."""
    for sub in itertools.combinations(rows, len(rows[0])):
        s = bareiss_sign(sub)
        sigma = sigma or s
        if s != sigma or not s:
            return 0
    return sigma


def tuple_greedy(seq: PointSeq) -> GreedyPartition:
    """Reference: greedy partition whose every extension reads all C(b, d)
    new tuples, each by Bareiss on the full matrix; a zero raises
    tuple_sign's error."""
    n, k = len(seq), seq.dim
    blocks, signs, witnesses = [], [], []
    start = 0
    while True:
        end, sigma, wit = start, None, None
        while end + 1 < n:
            nxt = end + 1
            if nxt - start + 1 <= k:
                end = nxt
                continue
            for comb in itertools.combinations(range(start, nxt), k):
                t = old_tuple_sign(seq, comb + (nxt,))
                if sigma is None:
                    sigma = t
                elif t != sigma:
                    wit = comb
                    break
            if wit is not None:
                break
            end = nxt
        blocks.append((start, end))
        if wit is None:
            signs.append(sigma if end - start + 1 > k else None)
            witnesses.append(None)
            break
        signs.append(sigma)
        witnesses.append(wit)
        start = end
    return GreedyPartition(tuple(blocks), tuple(signs), tuple(witnesses))


@st.composite
def vector_sets(draw, min_r=2, zero_rows=False):
    """(rows, sigma): m >= r integer vectors in Z^r, r = min_r..5.  Random
    small entries (not acyclic in general: v and -v both occur), or the
    alternating moment vectors (1, t, .., t^(r-1)) under a random
    integer map, with maybe one row replaced by a random one.  With
    ``zero_rows``, maybe one row is then replaced by the zero vector."""
    r = draw(st.integers(min_r, 5))
    m = draw(st.integers(r, r + 4))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(*[small] * r), min_size=m,
                             max_size=m))
    else:
        ts = sorted(draw(st.sets(st.integers(-6, 6), min_size=m,
                                 max_size=m)))
        if draw(st.booleans()):
            ts.reverse()
        mat = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r,
                                     max_size=r), min_size=r, max_size=r))
        rows = [tuple(sum(a * t ** j for j, a in enumerate(row))
                      for row in mat) for t in ts]
        if draw(st.booleans()):
            rows[draw(st.integers(0, m - 1))] = draw(st.tuples(*[small] * r))
    if zero_rows and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = (0,) * r
    return rows, draw(st.sampled_from((0, 1, -1)))


class TestAlternating:
    @given(vector_sets())
    @settings(max_examples=600, deadline=None)
    def test_matches_every_subset(self, case):
        rows, sigma = case
        assert _alternating(rows, sigma) == brute_alternating(rows, sigma)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_quotient_identity(self, r, data):
        # a^(r-2) * det(v, W) == (-1)^k * a^s * det(W mod v), and eps is
        # the sign of (-1)^k * a^(r-2).  s counts the rows mapped to plain
        # differences: for 3- and 4-vectors with a = v[0] > 0, a row with
        # w[0] = a maps to its exact row a*w - a*v, coordinate 0 dropped,
        # divided by a.  Half of the rows are given v's first coordinate.
        entry = st.integers(-5, 5)
        v = data.draw(st.tuples(*[entry] * r).filter(any))
        ws = data.draw(st.lists(st.tuples(*[entry] * r), min_size=r - 1,
                                max_size=r - 1))
        ws = [(v[0],) + w[1:] if data.draw(st.booleans()) else w
              for w in ws]
        sub, eps = _quotient(ws, v)
        k = next(j for j, c in enumerate(v) if c)
        a = v[k]
        exact = [tuple(a * x - w[k] * y for x, y in
                       zip(w[:k] + w[k + 1:], v[:k] + v[k + 1:]))
                 for w in ws]
        diff = [k == 0 and a > 0 and r in (3, 4) and w[0] == a for w in ws]
        assert sub == [tuple(x - y for x, y in zip(w[1:], v[1:])) if t
                       else row for w, row, t in zip(ws, exact, diff)]
        assert [tuple(a * c for c in row) if t else row
                for row, t in zip(sub, diff)] == exact
        lhs = a ** (r - 2) * _bareiss_det([v] + ws)
        assert lhs == (-1) ** k * a ** sum(diff) * _bareiss_det(sub)
        assert eps == (-1) ** k * (1 if a ** (r - 2) > 0 else -1)

    def test_too_few_rows_keep_sigma(self):
        assert _alternating([], 1) == 1
        assert _alternating([(1, 2, 3)], -1) == -1

    def test_zero_vector_is_never_alternating(self):
        rows = [(1, t, t * t, t ** 3) for t in range(1, 6)]
        assert _alternating(rows) == 1
        rows[1] = (0, 0, 0, 0)
        assert _alternating(rows) == 0


class TestDifferential:
    @given(st.one_of(curve_paths(max_arcs=1), point_sets()))
    @settings(max_examples=400, deadline=None)
    def test_homogeneity_matches_scan(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert (outcome(is_order_type_homogeneous, seq)
                == outcome(scan_homogeneous, seq))

    @given(st.one_of(curve_paths(), point_sets()))
    @settings(max_examples=400, deadline=None)
    def test_greedy_matches_tuple_loop(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert (outcome(lambda q: greedy_partition(from_points(q)), seq)
                == outcome(tuple_greedy, seq))

    @given(curve_paths(max_arcs=1))
    @settings(max_examples=100, deadline=None)
    def test_extraction_skips_only_checks_that_cannot_fail(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        try:
            if len(seq) <= d or not is_order_type_homogeneous(seq):
                return
        except ValueError:
            return
        assert outcome(_super_extract, seq) == outcome(super_extract, seq)

    @pytest.mark.parametrize("k,lift", [
        (1, lambda t: (t * t, t, t ** 3)),   # x = t^2 repeats
        (2, lambda t: (t, t ** 3, t * t)),   # (t, t^3) has collinear triples
    ])
    def test_extraction_keeps_the_lower_projection_checks(self, k, lift):
        # Homogeneous in R^3 (the moment curve with two coordinates
        # swapped), but the projection to k coordinates is degenerate.
        seq = point_seq([lift(t) for t in range(-3, 4)])
        assert is_order_type_homogeneous(seq).sign == -1
        with pytest.raises(ramsey.SuperGeneralPositionError) as err:
            _super_extract(seq)
        assert err.value.k == k
        assert outcome(_super_extract, seq) == outcome(super_extract, seq)

    def test_mirrored_and_reversed_moment_curves(self):
        for d in (3, 4):
            base = [[t ** j for j in range(1, d + 1)] for t in range(1, 12)]
            mirrored = [[-p[0]] + p[1:] for p in base]
            for pts, sign in ((base, 1), (mirrored, -1),
                              (base[::-1], (-1) ** ((d + 1) // 2))):
                seq = point_seq(pts)
                assert is_order_type_homogeneous(seq).sign == sign
                gp = greedy_partition(from_points(seq))
                assert gp.blocks == ((0, 10),) and gp.signs == (sign,)


def bench_space_input(tmp_path, n=30):
    """The n-point moment-curve input of the benchmark's space workload
    (seed 0): exact rationals t = r / 1000003, coordinates t, t^2, t^3."""
    rng = random.Random(f"space:{n}:0")
    ts = sorted(Fraction(r, 1_000_003)
                for r in rng.sample(range(1, 1_000_003), n))
    path = tmp_path / f"space-{n}.csv"
    path.write_text("".join(f"{t},{t ** 2},{t ** 3}\n" for t in ts),
                    encoding="utf-8")
    return path


class TestCounters:
    @pytest.mark.parametrize("n", [4, 9, 30, 60])
    def test_spatial_homog_is_quadratic(self, n, monkeypatch):
        seq = moment_seq(n, 3)
        dets = count_dets(monkeypatch)
        scans = [count_calls(monkeypatch, owner, "_cofactors")
                 for owner in (exactgeom, ordertype)]
        orients = count_calls(monkeypatch, PointSeq, "orientation_of")
        assert is_order_type_homogeneous(seq).sign == 1
        assert dets() <= 3 * math.comb(n, 2)
        assert [len(s) for s in scans] == [0, 0]
        assert orients == []

    @pytest.mark.parametrize("n", [5, 12, 40])
    def test_spatial_decompose_reads_no_tuple(self, n, monkeypatch):
        seq = moment_seq(n, 3)
        dets = count_dets(monkeypatch)
        orients = count_calls(monkeypatch, PointSeq, "orientation_of")
        dec = decompose(PolyPath(seq))
        assert dec.pieces == ((0, n - 1),)
        assert dec.partition.signs == (1,)
        assert orients == []
        assert seq._sign_cache == {}
        assert dets() <= 3 * math.comb(n, 2)

    @pytest.mark.parametrize("n", [4, 9, 30, 60])
    def test_spatial_general_position_is_quadratic(self, n, monkeypatch):
        seq = moment_seq(n, 3)
        dets = count_dets(monkeypatch)
        cofactors = count_calls(monkeypatch, exactgeom, "_cofactors")
        PolyPath(seq)
        assert vars(seq)["_sigma"] == 1
        assert cofactors == []
        assert dets() <= 3 * math.comb(n, 2)

    def test_ramsey_checks_general_position_twice(self, monkeypatch,
                                                  tmp_path):
        path = bench_space_input(tmp_path)
        checks = [count_calls(monkeypatch, owner, "is_general_position")
                  for owner in (cli, crossing, ramsey)]
        assert cli.main(["ramsey", "--input", str(path)]) == 0
        assert sum(len(c) for c in checks) == 2
