"""Builtin curves, epsilon-sampling, and curve decomposition."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit.crossing import max_crossings
from convexsplit.curves import (CurveSpec, SamplingError, _SplitMix, builtin,
                                decompose_curve, epsilon_sample)
from convexsplit.ordertype import is_order_type_homogeneous

F = Fraction


def scanning_dented_arc(dents, depth):
    """Reference: the dented arc's evaluator that builds every dent center
    and scans them all at each parameter."""
    half = F(1, 3 * dents)
    centers = [F(-1) + F(2 * j + 1, dents) for j in range(dents)]

    def ev(t):
        x = 2 * t - 1
        y = 1 - x * x
        for c in centers:
            a, b = c - half, c + half
            if a <= x <= b:
                bump = (x - a) * (b - x) / (half * half)
                y -= depth * bump * bump
                break
        return (x, y)

    return ev


class TestBuiltins:
    def test_moment_values(self):
        c = builtin("moment", dim=3)
        assert c.at(F(1, 2)) == (F(1, 2), F(1, 4), F(1, 8))
        assert c.domain == (0, 1)

    def test_quintic_values(self):
        c = builtin("quintic")
        assert c.at(0) == (0, 0)
        assert c.at(1) == (1, 0)
        assert c.at(-1) == (-1, 0)
        assert c.at(F(1, 2)) == (F(1, 2), F(9, 32))

    def test_dented_arc_values(self):
        c = builtin("dented_arc", dents=3, depth=F(1, 100))
        # dent centers sit at x = -2/3, 0, 2/3; full depth at the center
        assert c.at(F(1, 6)) == (F(-2, 3), F(5, 9) - F(1, 100))
        # x = 1/3 is outside every dent
        assert c.at(F(2, 3)) == (F(1, 3), F(8, 9))

    def test_dented_arc_matches_scanning_evaluator(self):
        # Parameters on a grid finer than the dents, plus every dent's
        # endpoints and center and every cell boundary.
        for dents in range(1, 33):
            depth = F(1, 2 * dents * dents + 1)
            fast = builtin("dented_arc", dents=dents, depth=depth).evaluator
            slow = scanning_dented_arc(dents, depth)
            xs = {F(k, 7 * dents) - 1 for k in range(14 * dents + 1)}
            for j in range(dents + 1):
                c = F(2 * j + 1, dents) - 1
                h = F(1, 3 * dents)
                xs.update({c - h, c, c + h, F(2 * j, dents) - 1})
            for x in sorted(x for x in xs if -1 <= x <= 1):
                t = (x + 1) / 2
                assert fast(t) == slow(t)

    def test_poly_horner(self):
        c = builtin("poly", coeffs=[[1, 2], [0, 0, 3]])
        assert c.dim == 2
        assert c.at(F(1, 2)) == (2, F(3, 4))

    def test_poly_custom_domain(self):
        c = builtin("poly", coeffs=[[0, 1]], domain=(F(-3, 2), F(3, 2)))
        assert c.domain == (F(-3, 2), F(3, 2))
        assert c.at(F(-3, 2)) == (F(-3, 2),)

    def test_parameter_outside_domain(self):
        with pytest.raises(ValueError):
            builtin("moment", dim=2).at(2)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            builtin("dented_arc", dents=3, depth=F(1, 9))
        with pytest.raises(ValueError):
            builtin("dented_arc", dents=3, depth=0)
        builtin("dented_arc", dents=3, depth=F(1, 10))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            builtin("lemniscate")
        with pytest.raises(ValueError):
            builtin("dented_arc", dents=0, depth=F(1, 100))
        with pytest.raises(ValueError):
            builtin("moment", dim=0)
        with pytest.raises(ValueError):
            builtin("poly", coeffs=[])
        with pytest.raises(ValueError):
            builtin("poly", coeffs=[[0, 1]], domain=(1, 1))


class TestSplitMix:
    def test_reference_stream(self):
        rng = _SplitMix(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_seed_changes_stream(self):
        assert _SplitMix(1).next_u64() != _SplitMix(2).next_u64()


class TestEpsilonSample:
    def test_cell_count(self):
        c = builtin("quintic")
        s = epsilon_sample(c, F(4, 11))
        assert len(s.params) == math.ceil(2 * 2 / F(4, 11))
        s = epsilon_sample(c, 100)
        assert len(s.params) == 2

    @given(st.integers(min_value=0, max_value=50),
           st.fractions(min_value=F(1, 16), max_value=3, max_denominator=16))
    @settings(max_examples=40, deadline=None)
    def test_gap_bounds(self, seed, eps):
        c = builtin("quintic")
        s = epsilon_sample(c, eps, seed=seed)
        lo, hi = c.domain
        ps = s.params
        assert all(a < b for a, b in zip(ps, ps[1:]))
        assert all(b - a < eps for a, b in zip(ps, ps[1:]))
        assert ps[0] - lo < eps / 2
        assert hi - ps[-1] < eps / 2

    def test_deterministic_per_seed(self):
        c = builtin("dented_arc", dents=2, depth=F(1, 20))
        a = epsilon_sample(c, F(1, 10), seed=9)
        b = epsilon_sample(c, F(1, 10), seed=9)
        assert a.params == b.params
        assert a.path.seq.points == b.path.seq.points
        other = epsilon_sample(c, F(1, 10), seed=10)
        assert other.params != a.params

    def test_params_match_path_vertices(self):
        c = builtin("moment", dim=3)
        s = epsilon_sample(c, F(1, 4))
        assert [c.at(t) for t in s.params] == list(s.path.seq.points)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            epsilon_sample(builtin("quintic"), 0)

    def test_straight_line_exhausts_retries(self):
        line = builtin("poly", coeffs=[[0, 1], [0, 1]])
        with pytest.raises(SamplingError) as err:
            epsilon_sample(line, F(1, 2))
        # the first two samples are fine; every third point is collinear
        assert err.value.cell == 2
        assert err.value.retries == 32

    def test_moment_samples_are_homogeneous(self):
        for dim in range(1, 6):
            s = epsilon_sample(builtin("moment", dim=dim), F(1, 4))
            report = is_order_type_homogeneous(s.path.seq)
            assert report
            assert report.sign == 1

    def test_quintic_sample_is_three_crossing(self):
        s = epsilon_sample(builtin("quintic"), F(4, 11))
        assert max_crossings(s.path).max_crossings == 3


class TestDecomposeCurve:
    def test_quintic_piece_count(self):
        # y'' = 4t(5t^2 - 3) vanishes at 0 and +-sqrt(3/5), giving 4
        # convex pieces once the sample is fine enough
        for eps in (F(1, 5), F(1, 10)):
            assert decompose_curve(builtin("quintic"), eps).pieces == 4

    def test_quintic_cuts_near_inflections(self):
        eps = F(1, 5)
        dc = decompose_curve(builtin("quintic"), eps)
        # 7745/10000 < sqrt(3/5) < 7747/10000
        root_lo, root_hi = F(7745, 10000), F(7747, 10000)
        for cut, (lo, hi) in zip(dc.cuts,
                                 [(-root_hi, -root_lo), (0, 0),
                                  (root_lo, root_hi)]):
            assert lo - eps < cut < hi + eps

    def test_intervals_tile_domain(self):
        c = builtin("dented_arc", dents=3, depth=F(1, 100))
        dc = decompose_curve(c, F(1, 36))
        assert dc.intervals[0][0] == c.domain[0]
        assert dc.intervals[-1][1] == c.domain[1]
        for (_, b), (a2, _) in zip(dc.intervals, dc.intervals[1:]):
            assert b == a2
        assert len(dc.intervals) == dc.pieces
        assert len(dc.cuts) == dc.pieces - 1

    def test_dented_arc_piece_counts(self):
        # each of the m dents contributes two extra convex pieces
        got = decompose_curve(builtin("dented_arc", dents=3,
                                      depth=F(1, 100)), F(1, 36))
        assert got.pieces == 7
        got = decompose_curve(builtin("dented_arc", dents=2,
                                      depth=F(1, 20)), F(1, 16))
        assert got.pieces == 5

    def test_piece_count_stable_across_seeds(self):
        c = builtin("dented_arc", dents=3, depth=F(1, 100))
        counts = {decompose_curve(c, F(1, 36), seed=s).pieces
                  for s in range(6)}
        assert counts == {7}

    def test_certification_budget(self):
        c = builtin("quintic")
        dc = decompose_curve(c, F(4, 11), certify_budget=20)
        assert dc.certified_max_crossings == 3
        dc = decompose_curve(c, F(4, 11), certify_budget=5)
        assert dc.certified_max_crossings is None
        dc = decompose_curve(c, F(4, 11))
        assert dc.certified_max_crossings is None

    def test_custom_curvespec(self):
        # a CurveSpec built by hand goes through the same pipeline
        spec = CurveSpec("cubic", 2, (F(-3, 2), F(3, 2)),
                         lambda t: (t, t ** 3))
        dc = decompose_curve(spec, F(1, 4), certify_budget=60)
        assert dc.pieces == 2
        # a line meets a cubic graph in up to 3 points
        assert dc.certified_max_crossings == 3
        assert -F(1, 4) < dc.cuts[0] < F(1, 4)
