"""The pencils on the quotient kernel against the per-pencil cofactor map
they replaced.

``ordertype._pencils`` takes the rows modulo each (d-1)-subset F of
vertices by ``exactgeom._quotient``, one member at a time, and shares each
prefix level across every F that starts with it.  The oracle below,
``cofactor_pencil``, is the sweep it replaced: for one F it builds the map
to the plane from two cofactor vectors and 2n dot products, and sweeps
from the image of the first vertex outside F.  For every F, in the same
lexicographic order, the two must give the same best counts, the same
vertex sides sign det(q(p), q(y)) for every p and y, and None at the same
F, on general-position and degenerate input alike.  Integer points make
every first coordinate 1, so ``_quotient`` maps their rows to plain
differences; rationals with mixed denominators make few such rows.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import crossing, exactgeom, ordertype
from convexsplit.crossing import PolyPath, max_crossings
from convexsplit.exactgeom import _cofactors, _dots, point_seq
from convexsplit.ordertype import _pencils, is_flip
from test_cofactor_kernel import (bareiss_sign, count_calls, curve_paths,
                                  point_sets)
from test_pencil_sweep import random_moment_seq, wide_paths


def cofactor_pencil(hom, F):
    """Reference: (counts, q) of the pencil through F, or None.

    B(x, y) = det[F; x; y], and a, b are the first two vertices outside
    F.  q(x) = (B(x, b), -s B(x, a)) with s = sign B(a, b), from two
    cofactor vectors, has det(q(x), q(y)) = |B(a, b)| B(x, y).  The sweep
    starts at q(a), on angle 0 once scaled by t(a) = s.
    """
    n = len(hom)
    rows = [hom[i] for i in F]
    rest = [x for x in range(n) if x not in F]
    a, b = rest[0], rest[1]
    ua = _dots(_cofactors(rows + [hom[a]]), hom)
    ub = _dots(_cofactors(rows + [hom[b]]), hom)
    s = (ua[b] > 0) - (ua[b] < 0)
    if not s:
        return None
    q = [(-v, s * w) for v, w in zip(ub, ua)]
    t = [0] * (n + 2)
    t[a + 1] = s
    keyed = []
    for x in rest[1:]:
        u, v = q[x]
        if not v:
            return None
        t[x + 1] = 1 if v > 0 else -1
        keyed.append((x, u * t[x + 1], v * t[x + 1]))
    shift = 2 * max(v for _, _, v in keyed).bit_length()
    keys = sorted(((-u << shift) // v, x) for x, u, v in keyed)
    if any(k0 == k1 for (k0, _), (k1, _) in zip(keys, keys[1:])):
        return None

    def edges(i, j):
        l, r = t[i], t[j + 2]
        return j - i + (l != 0) + (r != 0) - (l * r == (-1) ** (j - i + 1))

    runs = []
    for f in F:
        if runs and runs[-1][1] == f - 1:
            runs[-1][1] = f
        else:
            runs.append([f, f])
    borders = {v for i, j in runs for v in (i - 1, j + 1)}
    m = F[-1] if F else -1
    on_f = sum(edges(i, j) for i, j in runs)
    crossed = sum(1 for y in range(1, n) if t[y] * t[y + 1] < 0)
    counts = [-1] * n
    for p in [a] + [x for _, x in keys]:
        tl, tp, tr = t[p], t[p + 1], t[p + 2]
        if p > m:
            away = crossed - (tl * tp < 0) - (tp * tr < 0)
            if F and p == m + 1:
                i = runs[-1][0]
                counts[p] = away + on_f - edges(i, m) + edges(i, p)
            else:
                counts[p] = away + on_f + edges(p, p)
        t[p + 1] = tp = -tp
        crossed -= tp * (tl + tr)
        if p in borders:
            on_f = sum(edges(i, j) for i, j in runs)
    return counts, q


def sides(q):
    """sign det(q(p), q(y)) for every p, then every y."""
    return [[(c > 0) - (c < 0) for c in (u * y - v * x for x, y in q)]
            for u, v in q]


def assert_same_pencils(hom, d):
    n = len(hom)
    got = list(_pencils(hom, d))
    assert [F for F, _ in got] == \
        list(itertools.combinations(range(n - 1), d - 1))
    for F, pencil in got:
        want = cofactor_pencil(hom, F)
        assert (pencil is None) == (want is None), F
        if pencil is None:
            continue
        counts, q = pencil
        assert counts == want[0], F
        assert sides(q) == sides(want[1]), F


@st.composite
def rational_paths(draw):
    """(d, points) for d = 1..4: d+1 to d+8 points whose coordinates are
    rationals with denominators 1 to 12, so their rows' first coordinates,
    the lcm of each point's denominators, mostly differ."""
    d = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
    pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                        min_size=d + 1, max_size=d + 8))
    return d, pts


class TestDifferential:
    @given(st.one_of(wide_paths(), curve_paths(), point_sets(max_extra=6),
                     rational_paths()))
    @settings(max_examples=500, deadline=None)
    def test_every_pencil_matches_the_cofactor_map(self, case):
        d, pts = case
        assert_same_pencils(point_seq(pts, dim=d)._hom, d)

    @given(rational_paths())
    @settings(max_examples=100, deadline=None)
    def test_sides_are_the_determinants_through_F(self, case):
        # The contract that max_crossings's witness sides read: sign
        # det(q(x), q(y)) = sign det[F; x; y], with the quotients' signs
        # carried through every prefix level.
        d, pts = case
        hom = point_seq(pts, dim=d)._hom
        for F, pencil in _pencils(hom, d):
            if pencil is None:
                continue
            table = sides(pencil[1])
            for x, y in itertools.combinations(range(len(hom)), 2):
                rows = [hom[i] for i in F] + [hom[x], hom[y]]
                assert table[x][y] == bareiss_sign(rows)

    @pytest.mark.parametrize("d,n", [(2, 30), (3, 16), (4, 11)])
    def test_moment_curves_in_both_directions(self, d, n):
        seq = random_moment_seq(n, d)
        for order in (range(n), range(n - 1, -1, -1)):
            assert_same_pencils(seq.subsequence(list(order))._hom, d)


class TestCost:
    def test_r4_moment_points_run_no_bareiss_minor(self, monkeypatch):
        # Homogeneity and general position run the alternating recursion,
        # and the pencils the quotient kernel, so from R^4 up neither the
        # flip test nor the crossing oracle builds a cofactor vector; from
        # d = 4 up that is the only code that builds exact minors.
        seq = random_moment_seq(14, 4)
        cofactors = [count_calls(monkeypatch, owner, "_cofactors")
                     for owner in (exactgeom, ordertype, crossing)]
        assert is_flip(seq)
        assert max_crossings(PolyPath(seq)).max_crossings == 4
        assert cofactors == [[], [], []]
