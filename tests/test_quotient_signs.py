"""Determinant signs and ranks on the quotient step, against elimination.

``exactgeom._det_sign`` reduces a matrix larger than 3x3 by ``_quotient``,
one row and column at a time, until a hand-expanded 3x3 is left; it built
a cofactor vector from Bareiss minors before.  ``exactgeom._rank`` is 1
plus the rank of the later rows modulo the first nonzero one; it ran its
own row-echelon loop before, which is kept as the oracle
``elimination_rank``.  The matrices reach every branch of ``_quotient``:
zero rows, repeated rows, a zero leading coordinate, and rows that share
the first row's first coordinate, positive or negative, where a positive
pivot maps them to plain differences.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import crossing, exactgeom, ordertype
from convexsplit.exactgeom import _det_sign, _rank, orientation, point_seq
from convexsplit.kseq import from_points, greedy_partition
from convexsplit.ordertype import tuple_sign
from test_cofactor_kernel import (bareiss_sign, count_calls,
                                  elimination_rank, moment_seq)

small = st.integers(-3, 3)
coords = st.one_of(small, small, st.integers(-10 ** 12, 10 ** 12))


@st.composite
def matrices(draw, square=True):
    """An m x n integer matrix, n = 1..7, m = n or 0..8, with a random
    share of the degenerate shapes named in the module docstring."""
    # 3 and 4 columns reach _quotient's unrolled rows at the first level.
    n = draw(st.sampled_from((1, 2, 3, 3, 4, 4, 4, 5, 6, 7)))
    m = n if square else draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if not rows:
        return rows
    lead = draw(st.sampled_from(("free", "shared", "zero")))
    if lead == "shared":
        # Differences at the first level, and often below it too.
        a = draw(st.sampled_from((1, 2, 7, -1, -3, 10 ** 9)))
        for i in {0} | draw(st.sets(st.integers(0, m - 1), min_size=1)):
            rows[i][0] = a
    elif lead == "zero":
        rows[0][0] = 0
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                             unique=True))
        if draw(st.booleans()):
            rows[j] = list(rows[i])
        else:
            # An integer combination of two rows lowers the rank.
            k = draw(st.integers(0, m - 1))
            b, c = draw(small), draw(small)
            rows[j] = [b * x + c * y for x, y in zip(rows[i], rows[k])]
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, m - 1))] = [0] * n
    return rows


class TestDifferential:
    @given(matrices())
    @settings(max_examples=600, deadline=None)
    def test_det_sign_matches_bareiss(self, rows):
        assert _det_sign(rows) == bareiss_sign(rows)

    @given(matrices(square=False))
    @settings(max_examples=600, deadline=None)
    def test_rank_matches_elimination(self, rows):
        assert _rank(rows) == elimination_rank(rows)

    def test_small_cases(self):
        assert _det_sign([[-4]]) == -1
        assert _det_sign([[0]]) == 0
        assert _rank([]) == 0
        assert _rank([[0, 0], [0, 0]]) == 0
        assert _rank([[0, 0, 0], [0, 2, 0], [0, 4, 1], [0, 6, 1]]) == 2
        # A zero first row ends the loop at once.
        assert _det_sign([[0] * 5] + [[1] * 5] * 4) == 0


class TestCost:
    def test_signs_run_no_bareiss_minor_or_cofactor_vector(self,
                                                          monkeypatch):
        # Single determinants of 5 to 7 rows, single orientations in R^4
        # and a rejected greedy extension in R^4 all take their signs from
        # the quotient step.  From d = 4 up, _cofactors is the only code
        # that builds exact minors, so none is built.
        rng = random.Random(24)
        mats = [[[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
                 for _ in range(n)] for n in (5, 6, 7)]
        expected = [bareiss_sign(rows) for rows in mats]
        # t = 2, 4, ..., 12 and then 7 on the moment curve: a tuple with
        # the last point has the sign of the product of 7 - t over the
        # others, so the block breaks there, at the witness t = 2, 4, 6, 8.
        curve = point_seq([[t ** k for k in range(1, 5)]
                           for t in (2, 4, 6, 8, 10, 12, 7)])
        seq = moment_seq(9, 4)
        cofactors = [count_calls(monkeypatch, owner, "_cofactors")
                     for owner in (exactgeom, ordertype, crossing)]
        assert [_det_sign(rows) for rows in mats] == expected
        assert orientation(seq.points[:5]) == 1
        assert tuple_sign(seq, (1, 3, 4, 6, 8)) == 1
        dets = count_calls(monkeypatch, exactgeom, "_det_sign")
        gp = greedy_partition(from_points(curve))
        assert gp.blocks == ((0, 5), (5, 6))
        assert gp.witnesses[0] == (0, 1, 2, 3)
        assert any(len(rows) == 5 for rows, in dets)
        assert cofactors == [[], [], []]
