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
every subset, and its linear rank-2 scan against the quadratic loop it
replaced, kept below verbatim.
"""

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import kseq
from convexsplit.curves import builtin, epsilon_sample
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


def quadratic_least_bad(rows, tau):
    """Reference: exactgeom._least_bad with the quadratic rank-2 loop, in
    which every anchor reads its 2x2 determinant against each later row
    until one has the wrong sign."""
    r = len(rows[0])
    if r == 2:
        # Dividing a row by a positive integer keeps every sign, and makes
        # the integers in the O(m^2) products below smaller.
        gs = [math.gcd(*v) or 1 for v in rows]
        rows = [(x // g, y // g) for (x, y), g in zip(rows, gs)]
    for a in range(len(rows) - r + 1):
        v = rows[a]
        if not any(v):
            return tuple(range(a, a + r))
        if r == 1:
            if tau * v[0] < 0:
                return (a,)
        elif r == 2:
            x, y = v
            for j, (p, q) in enumerate(rows[a + 1:], a + 1):
                if tau * (x * q - y * p) <= 0:
                    return (a, j)
        else:
            sub, eps = _quotient(rows[a + 1:], v)
            if not _alternating(sub, tau * eps):
                return (a, *map((a + 1).__add__,
                                quadratic_least_bad(sub, tau * eps)))
    return None


# Sixteen primitive directions in counterclockwise order, one per
# eighth of pi: DIRECTIONS[i] and DIRECTIONS[i + 8] are antiparallel.
DIRECTIONS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1),
              (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1),
              (1, -2), (1, -1), (2, -1)]


@st.composite
def planar_rows(draw):
    """Rank-2 rows whose directions span an arc of 0 to 2 pi, exactly pi
    at a span of 8, as positive multiples (so parallel rows are common),
    in counterclockwise, clockwise or drawn order; maybe with rows made
    antiparallel to others, and maybe with zero rows."""
    start, span = draw(st.integers(0, 15)), draw(st.integers(0, 16))
    picks = draw(st.lists(st.integers(0, span), min_size=2, max_size=12))
    order = draw(st.sampled_from(("ccw", "cw", "drawn")))
    if order != "drawn":
        picks.sort(reverse=order == "cw")
    rows = []
    for i in picks:
        x, y = DIRECTIONS[(start + i) % 16]
        k = draw(st.integers(1, 3))
        rows.append((k * x, k * y))
    for _ in range(draw(st.integers(0, 2))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        rows[i] = tuple(-draw(st.integers(1, 2)) * c for c in rows[j])
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, len(rows) - 1))] = (0, 0)
    return rows


def quintic_rejections(monkeypatch, eps):
    """The (rows, tau) of every greedy rejection on the seed-0 quintic
    sample at eps, from kseq's own calls of the kernel."""
    seq = epsilon_sample(builtin("quintic"), eps).path.seq
    calls = []
    kernel = kseq._least_bad

    def recording(rows, tau):
        calls.append((rows, tau))
        return kernel(rows, tau)

    monkeypatch.setattr(kseq, "_least_bad", recording)
    assert greedy_partition(from_points(seq)).m == 4
    return calls


class CountingRows(Sequence):
    """Rows whose every read, one row or a slice, is counted."""

    def __init__(self, rows):
        self.rows, self.reads = rows, 0

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        got = self.rows[i]
        self.reads += len(got) if isinstance(i, slice) else 1
        return got


class CountingSign(int):
    """A sign tau whose products are counted: both rank-2 loops multiply
    every 2x2 determinant they read by tau once."""

    def __new__(cls, tau):
        self = super().__new__(cls, tau)
        self.products = 0
        return self

    def __mul__(self, other):
        self.products += 1
        return int(self) * other


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


class TestRankTwo:
    """The linear suffix-cone scan against the quadratic loop."""

    @given(planar_rows(), st.sampled_from((1, -1)))
    @settings(max_examples=1500, deadline=None)
    def test_matches_quadratic_loop(self, rows, tau):
        assert _least_bad(rows, tau) == quadratic_least_bad(rows, tau)

    @pytest.mark.parametrize("rows,tau,witness", [
        ([(1, 0), (0, 1), (-1, 0)], 1, (0, 2)),       # span exactly pi
        ([(1, 0), (1, 1), (-1, 1), (-1, -1)], 1, (0, 3)),   # beyond pi
        ([(1, 0), (1, 1), (-1, 1), (-1, -1)], -1, (0, 1)),
        ([(1, 1), (2, 2)], 1, (0, 1)),                 # parallel
        ([(0, 1), (1, 0), (-1, 0)], 1, (0, 1)),        # antiparallel
        ([(1, 0), (0, 1), (-1, 1), (0, 0)], 1, (0, 3)),     # zero last
        ([(0, 0), (1, 0), (0, 1)], 1, (0, 1)),         # zero first
        ([(1, 0), (0, 1), (-1, 1)], 1, None),
        ([(-1, 1), (0, 1), (1, 0)], -1, None),
        ([(3, 0)], 1, None),
    ])
    def test_crafted(self, rows, tau, witness):
        assert _least_bad(rows, tau) == witness
        assert quadratic_least_bad(rows, tau) == witness

    @pytest.mark.parametrize("den", [25, 50, 100])
    def test_quintic_rejections(self, den, monkeypatch):
        calls = quintic_rejections(monkeypatch, Fraction(1, den))
        assert len(calls) == 3
        for rows, tau in calls:
            wit = _least_bad(rows, tau)
            assert wit is not None
            assert wit == quadratic_least_bad(rows, tau)

    def test_linear_work_on_a_late_witness(self, monkeypatch):
        # The quintic's 156-row block at eps 1/100 is rejected on a
        # witness whose anchor is among the last three: the quadratic
        # loop reads about m^2 / 2 determinants, the cone scan O(m).
        calls = quintic_rejections(monkeypatch, Fraction(1, 100))
        rows, tau = max(calls, key=lambda call: len(call[0]))
        m = len(rows)
        assert m == 156
        counted, sign = CountingRows(rows), CountingSign(tau)
        wit = _least_bad(counted, sign)
        assert wit == quadratic_least_bad(rows, tau)
        assert wit[0] >= m - 3
        assert counted.reads <= 2 * m
        assert sign.products <= 3 * m
        old = CountingSign(tau)
        assert quadratic_least_bad(rows, old) == wit
        assert old.products >= m * (m - 2) // 2


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
