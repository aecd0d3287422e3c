"""The witness kernel ``exactgeom._least_bad`` against the D-first scans it
replaced.

When the alternating test fails, homogeneity and greedy block extension
name the lexicographically least subset whose sign is not the expected
one, a zero sign raising GeneralPositionError.  They used to find it by
two D-first scans: the homogeneity loop, one cofactor vector per
d-subset D and one dot product per later point, and
``kseq._scan_extension``, the same over the (k-1)-subsets of a block
with the candidate's row.  Both are kept below verbatim as oracles, with
``_extend`` as it was around the second.  Reports, blocks, signs,
witnesses and raised errors (type, message and witness) must agree
exactly, in R^1 to R^4, with sigma open, +1 or -1, and on degenerate
input, where zero signs occur.  The kernel itself is checked against
every subset.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import kseq
from convexsplit.exactgeom import (_alternating, _cofactors, _dots,
                                   _extends, _least_bad, _quotient,
                                   point_seq)
from convexsplit.kseq import from_points, greedy_partition
from convexsplit.ordertype import (HomogeneityReport, _raise_dependent,
                                   is_order_type_homogeneous)
from test_cofactor_kernel import (bareiss_sign, curve_paths, outcome,
                                  point_sets)
from test_rank_recursion import vector_sets


def dfirst_homogeneous(seq):
    """Reference: every (d+1)-tuple in lexicographic order, D-first: each
    d-subset D of the first n-1 points, then every later point i."""
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    hom = seq._hom
    sign0 = 0
    for D in itertools.combinations(range(n - 1), d):
        top = D[-1] + 1
        vals = _dots(_cofactors([hom[j] for j in D]), hom[top:])
        if sign0 and (min(vals) if sign0 > 0 else -max(vals)) > 0:
            continue
        for i, v in enumerate(vals, top):
            if not v:
                _raise_dependent(D + (i,))
            s = 1 if v > 0 else -1
            if not sign0:
                sign0 = s
            elif s != sign0:
                return HomogeneityReport(
                    False, witness=(tuple(range(d + 1)), D + (i,)))
    return HomogeneityReport(True, sign=sign0)


def scan_extension(hom, k: int, start: int, nxt: int, sigma: int | None):
    """Reference: the k-subsets D of [start, nxt) in lexicographic order,
    until sign(D + nxt) != sigma; returns (witness, sigma) as _extend
    does.

    D-first: for each (k-1)-subset D' of [start, nxt - 1), the cofactor
    vector c of the rows D' + [hom(nxt)] gives sign det(D' + (j, nxt)) =
    -sign(c . hom(j)) for every j > max D', by one row swap.  A zero
    raises tuple_sign's GeneralPositionError.
    """
    for D in itertools.combinations(range(start, nxt - 1), k - 1):
        c = _cofactors([hom[i] for i in D] + [hom[nxt]])
        lo = D[-1] + 1 if D else start
        for j, v in enumerate(_dots(c, hom[lo:nxt]), lo):
            if not v:
                _raise_dependent(D + (j, nxt))
            t = -1 if v > 0 else 1
            if sigma is None:
                sigma = t
            elif t != sigma:
                return D + (j,), sigma
    return None, sigma


def scan_extend(s, start: int, nxt: int, sigma: int | None):
    """Reference: kseq._extend with the accept tests it keeps and
    scan_extension on rejection."""
    hom = s._points._hom
    if s.k >= 3:
        rows, eps = _quotient(hom[start:nxt], hom[nxt])
        parity = -eps if s.k % 2 else eps
        t = _alternating(rows, sigma * parity if sigma else 0) * parity
    elif sigma:
        t = sigma if _extends(hom, start, nxt, sigma) else 0
    else:
        t = _alternating(hom[start:nxt + 1])
    if t:
        return None, t
    return scan_extension(hom, s.k, start, nxt, sigma)


def scan_greedy(seq):
    """Reference: greedy partition whose every extension is decided by
    scan_extension alone."""
    def extend(s, start, nxt, sigma):
        return scan_extension(seq._hom, s.k, start, nxt, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kseq, "_extend", extend)
        return greedy_partition(from_points(seq))


def brute_least_bad(rows, tau):
    """Reference: every r-subset by Bareiss, in lexicographic order."""
    r = len(rows[0])
    return next((idx for idx in itertools.combinations(range(len(rows)), r)
                 if bareiss_sign([rows[i] for i in idx]) != tau), None)


def paper_curve(d, n, cells):
    """n points of (t, .., t^(d-1), t^(d+1)), one per cell of width
    2/cells from -1, at t = -1 + (i + 1/(d+2)) * 2/cells.  A curve of
    degree d + 1 in R^d is (d+1)-crossing: the paper's case.  d + 1 of
    its points are dependent iff their t sum to 0, and on this grid d + 1
    of them never do: (d+1)/(d+2) is not an integer."""
    ts = [Fraction(2 * ((d + 2) * i + 1), (d + 2) * cells) - 1
          for i in range(n)]
    return point_seq([[t ** j for j in range(1, d)] + [t ** (d + 1)]
                      for t in ts])


paths = st.one_of(point_sets(), curve_paths())


class TestKernel:
    @given(vector_sets(min_r=1, zero_rows=True), st.sampled_from((1, -1)))
    @settings(max_examples=600, deadline=None)
    def test_matches_every_subset(self, case, tau):
        rows, _ = case
        assert _least_bad(rows, tau) == brute_least_bad(rows, tau)

    def test_zero_row_is_in_the_witness(self):
        rows = [(1, t, t * t) for t in range(1, 6)]
        assert _least_bad(rows, 1) is None
        assert _least_bad(rows, -1) == (0, 1, 2)
        rows[3] = (0, 0, 0)
        assert _least_bad(rows, 1) == (0, 1, 3)
        assert _least_bad(rows[3:] + [(1, 6, 36)], 1) == (0, 1, 2)
        assert _least_bad([(2,), (0,), (3,)], 1) == (1,)
        assert _least_bad([(2,), (-1,), (3,)], 1) == (1,)
        assert _least_bad([(2,), (1,), (3,)], 1) is None


class TestDifferential:
    @given(paths)
    @settings(max_examples=400, deadline=None)
    def test_homogeneity_matches_dfirst_scan(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert (outcome(is_order_type_homogeneous, seq)
                == outcome(dfirst_homogeneous, seq))

    @given(paths, st.data())
    @settings(max_examples=600, deadline=None)
    def test_extend_matches_scan(self, case, data):
        # Any block and candidate, also blocks that are not homogeneous.
        d, pts = case
        s = from_points(point_seq(pts, dim=d))
        nxt = data.draw(st.integers(d, len(pts) - 1))
        start = data.draw(st.integers(0, nxt - d))
        sigma = data.draw(st.sampled_from((None, 1, -1)))
        assert (outcome(kseq._extend, s, start, nxt, sigma)
                == outcome(scan_extend, s, start, nxt, sigma))

    @given(paths)
    @settings(max_examples=400, deadline=None)
    def test_greedy_matches_dfirst_scan(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert (outcome(lambda q: greedy_partition(from_points(q)), seq)
                == outcome(scan_greedy, seq))

    @pytest.mark.parametrize("d,n,cells", [(1, 10, 8), (2, 40, 32),
                                           (3, 30, 32), (4, 14, 16)])
    def test_paper_curves(self, d, n, cells):
        # The witness lies past the inflection at t = 0, late in
        # lexicographic order.
        seq = paper_curve(d, n, cells)
        report = is_order_type_homogeneous(seq)
        assert not report
        assert report == dfirst_homogeneous(seq)
        gp = greedy_partition(from_points(seq))
        assert gp.m == 2
        assert gp == scan_greedy(seq)
