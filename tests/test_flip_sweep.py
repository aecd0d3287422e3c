"""The pencil sweep of ``is_flip`` against the sign-sequence scan it
replaced.

``is_flip`` visits each d-subset D of points as F + (p,), with F a
(d-1)-subset and p = max D, and reads D's best crossing count off one
sweep of the pencil of hyperplanes through F (``ordertype._pencils``).
On general-position input that count is d plus the sign changes of D's
sign sequence, so D breaks the flip property iff it exceeds d + 1.  The
oracle below is the replaced scan: every D's sign sequence in
lexicographic order.  Reports and raised errors (type, message and
witness) must agree exactly, on general-position and degenerate input
alike.
"""

import io
import itertools
import json
import time
from contextlib import redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import cli
from convexsplit.exactgeom import is_general_position, point_seq
from convexsplit.ordertype import (FlipReport, _pencils, count_sign_changes,
                                   is_flip, is_order_type_homogeneous,
                                   sign_sequence)
from test_cofactor_kernel import curve_paths, outcome, point_sets, two_arc_seq
from test_pencil_sweep import random_moment_seq, wide_paths


def subset_is_flip(seq):
    """Reference: every d-subset's sign sequence in lexicographic order."""
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    for subset in itertools.combinations(range(n), d):
        ss = sign_sequence(seq, subset)
        if count_sign_changes(ss) > 1:
            return FlipReport(False, witness=ss)
    return FlipReport(True)


@st.composite
def two_arc_paths(draw):
    """(d, points) for d = 1..4 on the curve (t, ..., t^(d-1), t^(d+1)),
    at d+1 or more negative and d+1 or more positive integers t, in
    increasing or decreasing order, with some coordinates mirrored and a
    shift.  A (d+1)-tuple of it has the sign of its t-sum, up to one sign
    for the whole path, so the path has two homogeneous arcs of opposite
    signs and is not homogeneous.  It projects the moment curve of
    R^(d+1), so no hyperplane meets it more than d + 1 times: in general
    position it is flip."""
    d = draw(st.integers(1, 4))
    side = st.sets(st.integers(1, 60), min_size=d + 1, max_size=d + 2)
    ts = sorted({-t for t in draw(side)} | draw(side))
    if draw(st.booleans()):
        ts.reverse()
    powers = list(range(1, d)) + [d + 1]
    mirror = draw(st.lists(st.sampled_from((-1, 1)), min_size=d,
                           max_size=d))
    shift = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    return d, [[m * t ** e + c for e, m, c in zip(powers, mirror, shift)]
               for t in ts]


class TestDifferential:
    @given(st.one_of(curve_paths(), point_sets(max_extra=6),
                     two_arc_paths()))
    @settings(max_examples=600, deadline=None)
    def test_reports_and_errors_match_the_scan(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert outcome(is_flip, seq) == outcome(subset_is_flip, seq)

    @given(two_arc_paths())
    @settings(max_examples=200, deadline=None)
    def test_two_arc_paths_are_flip_but_not_homogeneous(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        if not is_general_position(seq):
            return
        assert is_flip(seq) == FlipReport(True)
        assert not is_order_type_homogeneous(seq)

    def test_long_moment_paths_in_both_directions(self):
        for d, n in ((1, 40), (2, 40), (3, 20), (4, 12)):
            seq = random_moment_seq(n, d)
            for order in (range(n), range(n - 1, -1, -1)):
                sub = seq.subsequence(list(order))
                assert is_flip(sub) == subset_is_flip(sub) == FlipReport(True)


class TestIdentity:
    @given(st.one_of(curve_paths(), wide_paths(), two_arc_paths()))
    @settings(max_examples=400, deadline=None)
    def test_best_count_is_d_plus_sign_changes(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        n = len(seq)
        if n <= d or not is_general_position(seq):
            return
        for F, (counts, _) in _pencils(seq._hom, d):
            for p in range(F[-1] + 1 if F else 0, n):
                ss = sign_sequence(seq, F + (p,))
                assert counts[p] == d + count_sign_changes(ss)


def run_flip(tmp_path, points):
    """CLI flip on the points: exit code, report and seconds taken."""
    data = tmp_path / "points.json"
    data.write_text(json.dumps(
        {"points": [[str(c) for c in p] for p in points]}),
        encoding="utf-8")
    out = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(["flip", "--input", str(data)])
    return code, json.loads(out.getvalue()), time.perf_counter() - started


class TestCost:
    def test_240_planar_moment_points_under_1s(self, tmp_path):
        seq = random_moment_seq(240, 2)
        code, report, elapsed = run_flip(tmp_path, seq.points)
        assert code == 0
        assert report["result"]["flip"] is True
        assert elapsed < 1.0

    def test_240_planar_two_arc_points_under_1s(self, tmp_path):
        # Moment points are flip by the alternation test; two arcs are
        # flip but not homogeneous, so this times the pencil sweep.
        seq = two_arc_seq(240, 2)
        code, report, elapsed = run_flip(tmp_path, seq.points)
        assert code == 0
        assert report["result"]["flip"] is True
        assert elapsed < 1.0

    def test_forty_r4_moment_points_under_04s(self, tmp_path):
        # Homogeneous input is flip by one alternation test, with no
        # pencil sweep.
        code, report, elapsed = run_flip(tmp_path,
                                         random_moment_seq(40, 4).points)
        assert code == 0
        assert report["result"]["flip"] is True
        assert elapsed < 0.4

    def test_degenerate_last_point_resumes_the_scan(self, tmp_path):
        # The last point moved onto the line through the two before it:
        # the sweeps of the first 237 pencils finish, and the subset scan
        # starts at the pencil that stopped, not at the first subset.
        pts = list(random_moment_seq(240, 2).points)
        pts[239] = tuple(2 * b - a for a, b in zip(pts[237], pts[238]))
        code, report, elapsed = run_flip(tmp_path, pts)
        assert code == 3
        assert report["error"]["witness"] == [237, 238, 239]
        assert elapsed < 1.0
