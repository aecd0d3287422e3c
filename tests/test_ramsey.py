"""Super order-type homogeneity, longest subsequences, extraction pipeline."""

import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest

from convexsplit.exactgeom import (GeneralPositionError, _det_sign,
                                   is_general_position, point_seq, project)
from convexsplit.kseq import c_bound
from convexsplit.ordertype import is_order_type_homogeneous, tuple_sign
from convexsplit.ramsey import (SuperGeneralPositionError, ExtractionTrace,
                                _longest_branch_and_bound,
                                _longest_chain, extraction_floor,
                                is_super_ot_homogeneous,
                                longest_ot_homogeneous, super_extract)

F = Fraction

ZIGZAG = point_seq([(0, 0), (1, 1), (2, 0), (3, 1)])
# convex position but the x-coordinates turn around twice
TURNING = point_seq([(0, 0), (3, 1), (4, 4), (2, 6), (-1, 5)])
# all consecutive triples turn left, yet the whole sequence is not
# homogeneous: local-to-global fails without x-monotonicity
SPIRAL = point_seq([(1, 0), (0, 1), (-1, -1), (2, -2), (3, 3), (-4, 2)])


def moment_points(n, d, denom=13):
    return point_seq([tuple(F(i, denom) ** j for j in range(1, d + 1))
                      for i in range(1, n + 1)])


def brute_longest(seq):
    """Reference implementation: enumerate all subsequences."""
    n, d = len(seq), seq.dim
    for size in range(n, 0, -1):
        hits = [idx for idx in itertools.combinations(range(n), size)
                if size <= d or is_order_type_homogeneous(
                    seq.subsequence(idx))]
        if hits:
            return min(hits)
    return ()


class TestSuperHomogeneity:
    def test_moment_curve(self):
        rep = is_super_ot_homogeneous(moment_points(8, 3))
        assert rep
        assert rep.signs == (1, 1, 1)

    def test_lifted_zigzag_fails_at_k2(self):
        lift = point_seq([(0, 0, 0), (1, 1, 1), (2, 0, 8), (3, 1, 27)])
        rep = is_super_ot_homogeneous(lift)
        assert not rep
        assert rep.failing_k == 2
        assert rep.witness == ((0, 1, 2), (0, 2, 3))
        assert rep.signs is None

    def test_nonmonotone_first_coordinate_fails_at_k1(self):
        rep = is_super_ot_homogeneous(point_seq([(0, 0), (2, 1), (1, 3)]))
        assert not rep
        assert rep.failing_k == 1
        assert rep.witness == ((0, 1), (1, 2))

    def test_degenerate_projection(self):
        seq = point_seq([(0, 0), (1, 1), (0, 3)])
        with pytest.raises(SuperGeneralPositionError) as err:
            is_super_ot_homogeneous(seq)
        assert err.value.k == 1
        assert err.value.witness == (0, 2)

    def test_needs_dim_plus_one_points(self):
        with pytest.raises(ValueError):
            is_super_ot_homogeneous(point_seq([(0, 0), (1, 1)]))


class TestLongest:
    def test_parabola_keeps_everything(self):
        seq = point_seq([(i, i * i) for i in range(6)])
        assert longest_ot_homogeneous(seq).labels == (0, 1, 2, 3, 4, 5)

    def test_zigzag(self):
        assert longest_ot_homogeneous(ZIGZAG).labels == (0, 1, 2)

    def test_four_points_without_homogeneous_quadruple(self):
        seq = point_seq([(0, 0), (1, 2), (2, 1), (3, 3)])
        assert longest_ot_homogeneous(seq).labels == (0, 1, 2)

    def test_short_input_returned_whole(self):
        seq = point_seq([(0, 0), (9, 1)])
        assert longest_ot_homogeneous(seq).labels == (0, 1)

    def test_spiral_needs_global_check(self):
        for i in range(len(SPIRAL) - 2):
            assert tuple_sign(SPIRAL, (i, i + 1, i + 2)) == 1
        assert not is_order_type_homogeneous(SPIRAL)
        assert longest_ot_homogeneous(SPIRAL).labels == (0, 1, 2, 3)

    def test_output_is_homogeneous(self):
        out = longest_ot_homogeneous(TURNING)
        assert len(out) <= 2 or is_order_type_homogeneous(out)

    def test_matches_brute_force_planar(self):
        rng = random.Random(83)
        done = 0
        while done < 40:
            n = rng.randint(4, 8)
            pts = point_seq([(rng.randint(0, 30), rng.randint(0, 30))
                             for _ in range(n)])
            if not is_general_position(pts):
                continue
            assert longest_ot_homogeneous(pts).labels == brute_longest(pts)
            done += 1

    def test_matches_brute_force_spatial(self):
        rng = random.Random(89)
        done = 0
        while done < 12:
            pts = point_seq([(rng.randint(0, 12), rng.randint(0, 12),
                              rng.randint(0, 12)) for _ in range(7)])
            if not is_general_position(pts):
                continue
            assert longest_ot_homogeneous(pts).labels == brute_longest(pts)
            done += 1

    def test_dp_agrees_with_branch_and_bound(self):
        # the DP must match the exhaustive search on x-monotone planar
        # input, and on the line also the brute force
        rng = random.Random(97)
        done = 0
        while done < 500:
            n = rng.randint(6, 12)
            pts = point_seq([(i, rng.randint(0, 50)) for i in range(n)])
            if not is_general_position(pts):
                continue
            got = longest_ot_homogeneous(pts).labels
            assert got == _longest_branch_and_bound(pts)
            done += 1
        for _ in range(300):
            n = rng.randint(1, 12)
            pts = point_seq([(v,) for v in rng.sample(range(-40, 40), n)])
            got = longest_ot_homogeneous(pts).labels
            assert got == _longest_branch_and_bound(pts)
            if n <= 9:
                assert got == brute_longest(pts)

    def test_dp_tie_breaks_lexicographically(self):
        # one pass answers for both signs: the longer chain wins, and
        # between equally long ones the lexicographically least
        seq = point_seq([(i, i * i) for i in range(5)])
        assert _longest_chain(seq) == (0, 1, 2, 3, 4)
        seq = point_seq([(i, -i * i) for i in range(5)])
        assert _longest_chain(seq) == (0, 1, 2, 3, 4)
        # (0, 1, 2) turns right and (0, 2, 3) left
        assert _longest_chain(ZIGZAG) == (0, 1, 2)
        flipped = point_seq([(x, -y) for x, y in ZIGZAG.points])
        assert _longest_chain(flipped) == (0, 1, 2)
        # on the line (0, 1) falls and (0, 2), (1, 2) rise, or the reverse
        assert _longest_chain(point_seq([(1,), (0,), (2,)])) == (0, 1)
        assert _longest_chain(point_seq([(0,), (2,), (1,)])) == (0, 1)
        assert _longest_chain(point_seq([(3,), (1,), (2,), (0,)])) == (
            0, 1, 3)

    @pytest.mark.parametrize("seq", [
        point_seq([(v,) for v in (4, 1, 7, 2, 9, 3, 0, 8)]),
        point_seq([(-19, 6), (-18, 2), (-13, -2), (-12, -9), (-4, -6),
                   (4, 3), (5, 9), (11, 0), (14, 5), (16, -4), (17, -8)]),
    ], ids=["line", "x-monotone-plane"])
    def test_dp_fills_no_sign_memo(self, seq):
        assert not is_order_type_homogeneous(seq)
        longest_ot_homogeneous(seq)
        assert seq._sign_cache == {}

    def test_line_duplicate_raises_the_verify_gp_witness(self):
        # (0, 4), (0, 5), (2, 3) and (4, 5) repeat a coordinate.  The branch
        # and bound meets (0, 4) first and the DP's states (4, 5), but the
        # DP names verify-gp's pair, the one with the least second index.
        seq = point_seq([(0,), (2,), (1,), (1,), (0,), (0,)])
        assert is_general_position(seq).witness == (2, 3)
        with pytest.raises(GeneralPositionError) as err:
            longest_ot_homogeneous(seq)
        assert err.value.witness == (2, 3)
        with pytest.raises(GeneralPositionError) as err:
            _longest_branch_and_bound(seq)
        assert err.value.witness == (0, 4)

    def test_planar_degenerate_witness_is_first_in_dp_order(self):
        # the raised triple is the first collinear one with the middle
        # index, then the first, descending and the last ascending: the
        # order of the DP's states and of its next points
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(3, 10)
            xs = sorted(rng.sample(range(-12, 12), n))
            seq = point_seq([(x, rng.randint(-4, 4)) for x in xs])
            zeros = [(i, j, k) for j in range(n - 1, -1, -1)
                     for i in range(j - 1, -1, -1) for k in range(j + 1, n)
                     if not _det_sign([seq._hom[m] for m in (i, j, k)])]
            if not zeros:
                continue
            with pytest.raises(GeneralPositionError) as err:
                longest_ot_homogeneous(seq)
            assert err.value.witness == zeros[0]

    @pytest.mark.parametrize("seq", [
        point_seq([(i,) for i in range(40)]),
        point_seq([(i, i * i) for i in range(40)]),
    ], ids=["line", "parabola"])
    def test_branch_and_bound_runs_without_recursion(self, seq):
        # 40 kept points, with the recursion limit 30 frames above here
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            got = _longest_branch_and_bound(seq)
        finally:
            sys.setrecursionlimit(limit)
        assert got == tuple(range(40))


class TestSuperExtract:
    def test_moment_keeps_everything(self):
        trace = super_extract(moment_points(12, 3))
        assert [s.k for s in trace.stages] == [2, 1]
        for stage in trace.stages:
            assert stage.pieces == ((0, 11),)
            assert stage.chosen == (0, 11)
        assert len(trace.final) == 12
        assert is_super_ot_homogeneous(trace.final)

    def test_turning_convex_sequence(self):
        trace = super_extract(TURNING)
        assert isinstance(trace, ExtractionTrace)
        (stage,) = trace.stages
        assert stage.k == 1
        assert stage.input_len == 5
        assert stage.pieces == ((0, 2), (2, 4))
        assert stage.chosen == (0, 2)
        assert trace.final.labels == (0, 1, 2)
        assert is_super_ot_homogeneous(trace.final)

    def test_rejects_inhomogeneous_input(self):
        with pytest.raises(ValueError, match="homogeneous"):
            super_extract(ZIGZAG)

    def test_rejects_degenerate_projection(self):
        seq = point_seq([(0, 0), (1, 1), (0, 3)])
        with pytest.raises(SuperGeneralPositionError) as err:
            super_extract(seq)
        assert err.value.k == 1

    def _random_homogeneous(self, rng, n, d):
        # affine image of a moment sample stays homogeneous
        base = moment_points(n, d, denom=n + 1)
        while True:
            mat = [[F(rng.randint(-5, 5)) for _ in range(d)]
                   for _ in range(d)]
            off = [F(rng.randint(-3, 3)) for _ in range(d)]
            rows = []
            for p in base.points:
                rows.append(tuple(
                    sum(mat[r][c] * p[c] for c in range(d)) + off[r]
                    for r in range(d)))
            seq = point_seq(rows)
            try:
                if (is_order_type_homogeneous(seq)
                        and all(is_general_position(project(seq, k))
                                for k in range(1, d))):
                    return seq
            except ValueError:
                pass

    def test_random_pipeline_bounds(self):
        rng = random.Random(101)
        for _ in range(8):
            n = rng.randint(8, 16)
            seq = self._random_homogeneous(rng, n, 3)
            trace = super_extract(seq)
            size = n
            for stage in trace.stages:
                cap = -(-c_bound(stage.k).numerator
                        // c_bound(stage.k).denominator)
                assert len(stage.pieces) <= cap
                assert stage.input_len == size
                size = len(stage.kept_labels)
                assert size >= -(-stage.input_len // cap)
            assert len(trace.final) == size
            assert len(trace.final) >= extraction_floor(n, 3)
            assert is_super_ot_homogeneous(trace.final)

    def test_needs_dim_plus_one_points(self):
        with pytest.raises(ValueError):
            super_extract(point_seq([(0, 0, 0), (1, 1, 1)]))


class TestExtractionFloor:
    def test_values(self):
        assert extraction_floor(30, 3) == 1
        assert extraction_floor(1000, 2) == 334
        assert extraction_floor(84, 2) == 28
        assert extraction_floor(7, 1) == 7

    def test_monotone_in_n(self):
        floors = [extraction_floor(n, 3) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(floors, floors[1:]))
