"""Exact predicate layer: orientations, spans, general position."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexsplit.exactgeom import (
    DimensionMismatchError,
    GeneralPositionError,
    Hyperplane,
    IncrementalGeneralPosition,
    affinely_independent,
    as_point,
    as_rational,
    det_rational,
    is_general_position,
    orientation,
    point_seq,
    project,
    side_of,
    span_hyperplane,
)
from test_cofactor_kernel import _bareiss_det

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def planar_points(n):
    return st.lists(st.tuples(rationals, rationals), min_size=n, max_size=n)


class TestAsRational:
    def test_accepts_usual_forms(self):
        assert as_rational("1/3") == Fraction(1, 3)
        assert as_rational("0.5") == Fraction(1, 2)
        assert as_rational(7) == 7
        assert as_rational(Fraction(2, 6)) == Fraction(1, 3)

    def test_float_converts_by_binary_expansion(self):
        assert as_rational(0.5) == Fraction(1, 2)
        assert as_rational(0.1) == Fraction(0.1)  # exact binary value

    def test_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            as_rational(True)
        with pytest.raises(TypeError):
            as_rational(object())
        with pytest.raises(ValueError):
            as_rational("not-a-number")

    def test_exponent_within_the_digit_limit(self):
        # The string's length plus the exponent stays within 4300 digits.
        assert as_rational("1e4290") == 10 ** 4290
        assert as_rational("-2.5E-4290") == Fraction(-1, 4 * 10 ** 4289)
        assert as_rational("0." + "0" * 4297 + "1") == Fraction(1, 10 ** 4298)
        for text in ("1e1000000", "1e-4300", "12.5e4295", "1E+99999",
                     "." + "0" * 4299 + "1", "1" * 4301):
            with pytest.raises(ValueError, match="digit limit"):
                as_rational(text)


class TestOrientation:
    def test_planar_turns(self):
        assert orientation([(0, 0), (1, 0), (0, 1)]) == 1
        assert orientation([(0, 0), (0, 1), (1, 0)]) == -1
        assert orientation([(0, 0), (1, 1), (2, 2)]) == 0

    def test_one_dimensional_is_order(self):
        assert orientation([(0,), (5,)]) == 1
        assert orientation([(5,), (0,)]) == -1
        assert orientation([(3,), (3,)]) == 0

    def test_simplex_in_r3(self):
        assert orientation([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1

    def test_moment_points_positive(self):
        # Vandermonde determinant of increasing parameters
        ts = [Fraction(i, 7) for i in range(1, 5)]
        pts = [(t, t ** 2, t ** 3) for t in ts]
        assert orientation(pts) == 1

    def test_wrong_count_raises(self):
        with pytest.raises(DimensionMismatchError):
            orientation([(0, 0), (1, 1)])
        with pytest.raises(DimensionMismatchError):
            orientation([(0, 0), (1, 1), (2, 0), (3, 1)])
        with pytest.raises(DimensionMismatchError):
            orientation([(0, 0), (1, 1, 1), (2, 0)])

    @given(planar_points(3))
    def test_swap_flips_sign(self, pts):
        s = orientation(pts)
        assert orientation([pts[1], pts[0], pts[2]]) == -s

    @given(planar_points(3), rationals, rationals)
    def test_translation_invariant(self, pts, dx, dy):
        moved = [(x + dx, y + dy) for x, y in pts]
        assert orientation(moved) == orientation(pts)

    @given(planar_points(3),
           st.fractions(min_value=Fraction(1, 8), max_value=8,
                        max_denominator=8))
    def test_positive_scaling_invariant(self, pts, c):
        scaled = [(c * x, c * y) for x, y in pts]
        assert orientation(scaled) == orientation(pts)

    def test_denominators_do_not_matter(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        shrunk = [(Fraction(x, 97), Fraction(y, 97)) for x, y in pts]
        assert orientation(shrunk) == orientation(pts)


def _laplace_det(rows):
    """Cofactor-expansion determinant; independent of Bareiss."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for c in range(n):
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * _laplace_det(minor)
    return total


def _wide(n):
    """An n x n matrix of 60-bit numerators over 30-bit denominators."""
    rng = random.Random(n)
    return [[Fraction(rng.randrange(-2 ** 60, 2 ** 60),
                      rng.randrange(1, 2 ** 30)) for _ in range(n)]
            for _ in range(n)]


class TestDeterminant:
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_matches_laplace_3x3(self, rows):
        rows = [[Fraction(v) for v in r] for r in rows]
        assert det_rational(rows) == _laplace_det(rows)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
                    min_size=5, max_size=5))
    @settings(max_examples=40)
    def test_matches_laplace_5x5(self, rows):
        rows = [[Fraction(v) for v in r] for r in rows]
        assert det_rational(rows) == _laplace_det(rows)

    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.one_of(rationals, st.just(Fraction(0))),
                 min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([])
    @example([[Fraction(-3, 7)]])
    # From 7x7 up, _cofactors divides exactly by a pivot power at three or
    # more levels of its recursion.
    @example(_wide(7))
    @example(_wide(8))
    @settings(max_examples=150, deadline=None)
    def test_matches_bareiss_over_row_scales(self, rows):
        scale, scaled = 1, []
        for r in rows:
            s = math.lcm(*(c.denominator for c in r))
            scale *= s
            scaled.append([s // c.denominator * c.numerator for c in r])
        assert det_rational(rows) == Fraction(_bareiss_det(scaled), scale)

    def test_singular(self):
        assert det_rational([[Fraction(1), Fraction(2)],
                             [Fraction(2), Fraction(4)]]) == 0

    def test_needs_pivot_swap(self):
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert det_rational(rows) == -1

    @pytest.mark.parametrize("rows", [
        [[1, 2]],
        [[1, 2, 3], [4, 5]],
        [[1, 2], [3, 4], [5, 6]],
        [[1], [2, 3]],
    ])
    def test_rejects_a_matrix_that_is_not_square(self, rows):
        with pytest.raises(DimensionMismatchError):
            det_rational([[Fraction(v) for v in r] for r in rows])


class TestGeneralPosition:
    def test_collinear_witness(self):
        seq = point_seq([(0, 0), (1, 1), (2, 2), (0, 1)])
        report = is_general_position(seq)
        assert not report
        assert report.witness == (0, 1, 2)

    def test_duplicate_witness(self):
        seq = point_seq([(0, 0), (1, 1), (0, 0)])
        report = is_general_position(seq)
        assert report.witness == (0, 2)

    def test_zigzag_ok(self):
        assert is_general_position(point_seq([(0, 0), (1, 1), (2, 0), (3, 1)]))

    def test_coplanar_in_r3(self):
        seq = point_seq([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                         (0, 0, 1)])
        report = is_general_position(seq)
        assert report.witness == (0, 1, 2, 3)

    def test_collinear_inside_r3(self):
        # rank-deficient triple, strictly below full subset size
        seq = point_seq([(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 0),
                         (0, 0, 5)])
        report = is_general_position(seq)
        assert report.witness == (0, 1, 2)

    def test_dim1_needs_distinct_only(self):
        assert is_general_position(point_seq([(0,), (2,), (1,)]))
        assert not is_general_position(point_seq([(0,), (2,), (0,)]))

    def test_affinely_independent_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            affinely_independent([(0, 0), (1,)])
        with pytest.raises(DimensionMismatchError):
            affinely_independent([(0,), (1, 0), (2, 1)])

    def test_witness_is_minimal(self):
        seq = point_seq([(0, 0), (1, 1), (2, 2), (0, 1)])
        wit = is_general_position(seq).witness
        sub = [seq.points[i] for i in wit]
        assert not affinely_independent(sub)
        for drop in range(len(sub)):
            assert affinely_independent(sub[:drop] + sub[drop + 1:])


class TestIncremental:
    def _stream_matches_batch(self, rows, dim):
        inc = IncrementalGeneralPosition(dim)
        kept = []
        for p in map(as_point, rows):
            witness = inc.try_add(p)
            batch_ok = is_general_position(
                point_seq(kept + [p], dim=dim))
            if witness is None:
                assert batch_ok
                kept.append(p)
            else:
                assert not batch_ok
                # state untouched by the rejection
                assert inc.points == kept

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_planar_stream(self, rows):
        self._stream_matches_batch(rows, 2)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.integers(0, 4)),
                    min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_spatial_stream(self, rows):
        self._stream_matches_batch(rows, 3)

    def test_rejects_duplicate_and_collinear(self):
        inc = IncrementalGeneralPosition(2)
        assert inc.try_add(as_point((0, 0))) is None
        assert inc.try_add(as_point((1, 1))) is None
        assert inc.try_add(as_point((1, 1))) == (1, 2)
        assert inc.try_add(as_point((2, 2))) == (0, 1, 2)
        assert inc.try_add(as_point((2, 0))) is None
        assert len(inc.points) == 3

    def test_dimension_one_only_needs_distinctness(self):
        inc = IncrementalGeneralPosition(1)
        for x in (0, 3, 1):
            assert inc.try_add(as_point((x,))) is None
        assert inc.try_add(as_point((3,))) == (1, 3)
        assert len(inc.points) == 3


class TestPointSeq:
    def test_labels_survive_subsequence_and_projection(self):
        seq = point_seq([(0, 0, 1), (1, 1, 2), (2, 4, 3), (3, 9, 4)])
        sub = seq.subsequence([1, 3])
        assert sub.labels == (1, 3)
        assert sub.points == (as_point((1, 1, 2)), as_point((3, 9, 4)))
        proj = project(sub, 2)
        assert proj.dim == 2
        assert proj.labels == (1, 3)
        assert proj.points == (as_point((1, 1)), as_point((3, 9)))

    def test_projection_bounds(self):
        seq = point_seq([(0, 0), (1, 1)])
        assert project(seq, 2) is seq
        with pytest.raises(DimensionMismatchError):
            project(seq, 0)
        with pytest.raises(DimensionMismatchError):
            project(seq, 3)

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            point_seq([(0, 0), (1, 1, 1)])


class TestHyperplane:
    def test_sides_of_horizontal_line(self):
        h = Hyperplane((Fraction(0), Fraction(1)), Fraction(1, 2))
        assert side_of(h, (0, 1)) == 1
        assert side_of(h, (3, 0)) == -1
        assert side_of(h, (7, Fraction(1, 2))) == 0

    def test_canonical_preserves_sides(self):
        h = Hyperplane((Fraction(2, 3), Fraction(-4, 5)), Fraction(1, 7))
        c = h.canonical()
        for p in [(0, 0), (1, 1), (-2, 3), (Fraction(3, 7), 0)]:
            assert side_of(h, p) == side_of(c, p)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane((Fraction(0), Fraction(0)), Fraction(1))

    def test_dimension_mismatch(self):
        h = Hyperplane((Fraction(1), Fraction(1)), Fraction(0))
        with pytest.raises(DimensionMismatchError):
            side_of(h, (1, 2, 3))

    @given(planar_points(2), planar_points(1))
    @settings(max_examples=80)
    def test_span_sign_convention(self, base, probe):
        # side_of(span(pts), x) must equal orientation(pts + [x])
        p, q = base
        if p == q:
            return
        h = span_hyperplane([p, q])
        assert side_of(h, probe[0]) == orientation([p, q, probe[0]])

    def test_span_in_r3(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        h = span_hyperplane(pts)
        assert side_of(h, (0, 0, 1)) == orientation(pts + [(0, 0, 1)])
        assert side_of(h, (0, 0, -1)) == -side_of(h, (0, 0, 1))
        for p in pts:
            assert side_of(h, p) == 0

    def test_span_needs_independent_points(self):
        with pytest.raises(GeneralPositionError):
            span_hyperplane([(0, 0), (0, 0)])
        with pytest.raises(GeneralPositionError):
            span_hyperplane([(0, 0, 0), (1, 1, 1), (2, 2, 2)])


def test_affinely_independent_small_cases():
    assert affinely_independent([as_point((0, 0))])
    assert affinely_independent([as_point((0, 0)), as_point((0, 1))])
    assert not affinely_independent([as_point((0, 0)), as_point((0, 0))])
    assert not affinely_independent(
        [as_point(p) for p in [(0, 0), (1, 1), (2, 2)]])


def test_orientation_cache_consistency():
    seq = point_seq([(0, 0), (1, 1), (2, 0), (3, 1)])
    idx = (0, 1, 2)
    assert seq.orientation_of(idx) == seq.orientation_of(idx) == -1
    assert seq.orientation_of((0, 2, 3)) == 1
