"""``max_crossings`` and ``is_flip`` on convex input, answered from the
alternation certificate, against the pencil sweep they skip.

A sigma-homogeneous vertex sequence is convex: every hyperplane meets
its path at most d times, and every d-subset's sign sequence is constant
sigma.  So ``max_crossings`` of a path whose general-position check
found sign sigma is d, with the sweep's own witness, and ``is_flip`` of a
sequence whose homogeneous rows alternate is true.  The oracles are the
sweep itself: ``max_crossings`` on ``PolyPath._certified``, whose
``_sign`` is 0, and ``sweep_is_flip``, the flip test's pencil loop as it
ran before the certificate.  Reports and raised errors must agree
exactly.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexsplit import crossing, exactgeom, ordertype
from convexsplit.crossing import (CrossingWitness, PolyPath, is_convex,
                                  max_crossings)
from convexsplit.exactgeom import is_general_position, point_seq
from convexsplit.ordertype import (FlipReport, _pencils, _scan_flip,
                                   is_flip, is_order_type_homogeneous,
                                   sign_sequence)
from test_cofactor_kernel import count_calls, moment_seq, outcome, two_arc_seq


def sweep_is_flip(seq):
    """Reference: is_flip's pencil sweep, with no alternation test first."""
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    for F, pencil in _pencils(seq._hom, d):
        if pencil is None:
            return _scan_flip(seq, F + (F[-1] + 1 if F else 0,))
        counts = pencil[0]
        if max(counts) > d + 1:
            p = next(p for p, c in enumerate(counts) if c > d + 1)
            return FlipReport(False, witness=sign_sequence(seq, F + (p,)))
    return FlipReport(True)


@st.composite
def affine_moment_paths(draw):
    """(d, points) for d = 1..4: d+1 to 14 moment-curve points at distinct
    integer t, in increasing or decreasing order, under an integer affine
    map whose determinant is nonzero, of either sign.  Such a sequence is
    homogeneous, with a sign set by the order and the determinant.  Then,
    one time in three, one coordinate of one point moves by a nonzero
    step below 50, which may break homogeneity or general position."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 1, 14))
    ts = sorted(draw(st.sets(st.integers(-12, 12), min_size=n, max_size=n)))
    if draw(st.booleans()):
        ts.reverse()
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    a = draw(st.lists(row, min_size=d, max_size=d))
    assume(exactgeom._det_sign(a))
    shift = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    pts = [[sum(c * t ** (k + 1) for k, c in enumerate(r)) + b
            for r, b in zip(a, shift)] for t in ts]
    if draw(st.sampled_from((False, False, True))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, d - 1))
        pts[i][j] += draw(st.integers(-49, 49).filter(bool))
    return d, pts


class TestDifferential:
    @given(affine_moment_paths())
    @settings(max_examples=1500, deadline=None)
    def test_certificate_answers_match_the_sweep(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert outcome(is_flip, seq) == outcome(sweep_is_flip, seq)
        if not is_general_position(seq):
            return
        path = PolyPath(seq)
        assert max_crossings(path) == max_crossings(PolyPath._certified(seq))
        assert is_convex(path) == bool(is_order_type_homogeneous(seq))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("mirror", [1, -1])
    def test_witness_alternates_and_ends_against_sigma(self, d, mirror):
        # Mirroring the last coordinate flips sigma; the witness is the
        # first key of D = (0, ..., d-1), pushed to alternating sides that
        # end in -sigma.
        pts = [list(p) for p in moment_seq(9, d).points]
        for p in pts:
            p[-1] *= mirror
        path = PolyPath(point_seq(pts))
        sigma = path._sign
        assert sigma == mirror
        sides = tuple(-sigma * (-1) ** (d - 1 - i) for i in range(d))
        report = max_crossings(path)
        assert report.max_crossings == d
        assert report.witness == CrossingWitness("perturbed",
                                                 tuple(range(d)), sides)
        assert report == max_crossings(PolyPath._certified(path.seq))


class TestConvexPath:
    @pytest.mark.parametrize("d,n", [(2, 14), (3, 11), (4, 9)])
    def test_no_pencil_and_one_alternation_run(self, d, n, monkeypatch):
        # max_crossings reads the sign the general-position check left,
        # with no determinant at all; is_flip makes exactly the
        # determinants of one _alternating run.
        seq = moment_seq(n, d)
        path = PolyPath(seq)
        pencils = [count_calls(monkeypatch, owner, "_pencils")
                   for owner in (crossing, ordertype)]
        dets = count_calls(monkeypatch, exactgeom, "_det_sign")
        assert max_crossings(path).max_crossings == d
        assert dets == []
        assert is_flip(seq)
        flip_dets = len(dets)
        dets.clear()
        assert exactgeom._alternating(seq._hom) == 1
        assert flip_dets == len(dets) > 0
        assert pencils == [[], []]

    def test_checked_convex_path_makes_no_homogeneity_scan(self,
                                                           monkeypatch):
        scans = count_calls(monkeypatch, crossing,
                            "is_order_type_homogeneous")
        for d in (2, 3, 4):
            assert is_convex(PolyPath(moment_seq(9, d)))
        assert scans == []
        # A _sign of 0 decides nothing: an unchecked path always has it,
        # and so does a checked one in R^1 or once its rows fail to
        # alternate.  Both still scan.
        assert is_convex(PolyPath._certified(moment_seq(9, 3)))
        assert not is_convex(PolyPath(two_arc_seq(9, 3)))
        assert len(scans) == 2
