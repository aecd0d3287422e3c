"""The inline rank-2 and rank-3 steps of the alternating certificate.

``exactgeom._extends`` and ``exactgeom._chain`` decide their determinants
with inline integer arithmetic: one cross product per row, read by dot
products.  The step they replace called ``_det_sign`` once per
determinant; it is kept here as the oracle (``oracle_extends``,
``oracle_alternating``), and the new code must return what it returns
and add to ``exactgeom._tally`` exactly the number of ``_det_sign``
calls it makes, so that counters of determinants read the same.  The
witness kernel ``_least_bad`` runs on the new step, and is checked
against a lexicographic scan of every subset.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexsplit import exactgeom
from convexsplit.exactgeom import _det_sign, _least_bad, _quotient
from test_local_convexity import count_dets


def oracle_extends(rows, s, j, sigma, det=_det_sign):
    v, w = rows[j - 1], rows[j]
    if len(w) == 2:
        return det((v, w)) == sigma and det((rows[s], w)) == sigma
    a = rows[s]
    return (det((rows[j - 2], v, w)) == sigma
            and det((a, v, w)) == sigma
            and det((a, rows[s + 1], w)) == sigma)


def oracle_alternating(rows, sigma=0, det=_det_sign):
    m = len(rows)
    if not m or m < len(rows[0]):
        return sigma
    r = len(rows[0])
    if r <= 3:
        base = det(rows[:r])
        if not base or sigma not in (0, base):
            return 0
        ok = all(oracle_extends(rows, 0, j, base, det) for j in range(r, m))
        return base if ok else 0
    for i in range(m - r + 1):
        if not any(rows[i]):
            return 0
        sub, eps = _quotient(rows[i + 1:], rows[i])
        s = oracle_alternating(sub, sigma * eps, det)
        if not s:
            return 0
        sigma = s * eps
    return sigma


def counting_oracle(fn, *args):
    """fn(*args, det) with a _det_sign that counts: (answer, calls)."""
    calls = []

    def det(rows):
        calls.append(rows)
        return _det_sign(rows)

    return fn(*args, det), len(calls)


def brute_least_bad(rows, tau):
    for sub in itertools.combinations(range(len(rows)), len(rows[0])):
        if _det_sign([rows[i] for i in sub]) != tau:
            return sub
    return None


@st.composite
def configurations(draw, ranks=(2, 5), extra=6):
    """(r, rows): m integer rows in Z^r, m from 0 to r + extra.

    Half the draws are rows c * (1, t, ..., t^(r-1)) at increasing integer
    t with scales c in {1, 2, 3}, which alternate: all first coordinates equal
    (every row mod an anchor a plain difference) or mixed (some
    multiplied).  Negating all of them keeps them alternating, with every
    first coordinate negative, so every anchor's quotient has eps = -1.
    The other half are small random rows.  Then a zero row, a duplicate row or a
    changed entry may break them.
    """
    r = draw(st.integers(*ranks))
    m = draw(st.integers(0, r + extra))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r,
                                      max_size=r),
                             min_size=m, max_size=m))
    else:
        steps = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        start = draw(st.integers(-10, -1))
        ts = [start + t for t in itertools.accumulate(steps)]
        scale = st.sampled_from((1, 2, 3)) if draw(st.booleans()) \
            else st.just(1)
        sign = draw(st.sampled_from((1, -1)))
        rows = []
        for t in ts:
            c = sign * draw(scale)
            rows.append([c * t ** k for k in range(r)])
    change = draw(st.sampled_from((None, "zero", "duplicate", "entry")))
    if m and change:
        i = draw(st.integers(0, m - 1))
        if change == "zero":
            rows[i] = [0] * r
        elif change == "duplicate":
            rows[i] = list(rows[draw(st.integers(0, m - 1))])
        else:
            rows[i][draw(st.integers(0, r - 1))] += draw(st.integers(-5, 5))
    return r, [tuple(row) for row in rows]


# Rows of the moment curve in Z^4, alternating with sign +1, and the same
# with the last row moved off it, which anchor 0 already rejects.
MOMENT = [(1, t, t * t, t ** 3) for t in range(-3, 5)]
BENT = MOMENT[:-1] + [(1, 4, 16, 0)]


class TestDifferential:
    @given(configurations(), st.sampled_from((-1, 0, 1)))
    @example((4, MOMENT), 0)
    @example((4, BENT), 0)
    @example((3, [row[:3] for row in MOMENT]), 1)
    @example((3, [(1, 0, 0), (1, 1, 1), (1, 2, 4)]), -1)
    @settings(max_examples=1500, deadline=None)
    def test_alternating_matches_the_oracle(self, case, sigma):
        # The same answer, from as many determinants as the oracle's
        # _det_sign calls: the inline steps count each in _tally, on
        # passing and on failing rows alike.
        _, rows = case
        expected, calls = counting_oracle(oracle_alternating, rows, sigma)
        with pytest.MonkeyPatch.context() as mp:
            count = count_dets(mp)
            assert exactgeom._alternating(rows, sigma) == expected
            assert count() == calls

    @given(configurations(extra=5), st.sampled_from((-1, 1)))
    @example((4, MOMENT), 1)
    @example((4, BENT), 1)
    @settings(max_examples=800, deadline=None)
    def test_least_bad_matches_a_subset_scan(self, case, tau):
        r, rows = case
        if len(rows) < r:
            return
        wit = _least_bad(rows, tau)
        assert wit == brute_least_bad(rows, tau)
        assert (wit is None) == (oracle_alternating(rows, tau) == tau)

    @given(configurations(ranks=(2, 3), extra=5), st.data())
    @settings(max_examples=1500, deadline=None)
    def test_extends_matches_the_oracle(self, case, data):
        r, rows = case
        if len(rows) < r + 1:
            return
        j = data.draw(st.integers(r, len(rows) - 1))
        s = data.draw(st.integers(0, j - r))
        sigma = data.draw(st.sampled_from((-1, 0, 1)))
        expected, calls = counting_oracle(oracle_extends, rows, s, j, sigma)
        with pytest.MonkeyPatch.context() as mp:
            count = count_dets(mp)
            assert exactgeom._extends(rows, s, j, sigma) == expected
            assert count() == calls


class TestCost:
    def test_no_rank_2_or_3_step_calls_det_sign(self):
        # At rank 3, and at rank 4 through each anchor's quotient rows,
        # the base and every row are inline; so is each _extends call.  The tally still counts every determinant.
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            count = count_dets(mp)
            mp.setattr(exactgeom, "_det_sign", calls.append)
            planar = [row[:3] for row in MOMENT]
            assert exactgeom._alternating(planar) == 1
            assert exactgeom._alternating(MOMENT) == 1
            assert exactgeom._extends(planar, 0, 4, 1)
            assert exactgeom._extends([row[:2] for row in MOMENT], 0, 4, 1)
            assert calls == []
            assert count() == (3 * 8 - 8) + sum(3 * m - 8 for m in
                                                 range(3, 8)) + 3 + 2
