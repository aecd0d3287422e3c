"""The pencil sweep of ``max_crossings`` against the subset scan it replaced.

``max_crossings`` visits each d-subset D of vertices as F + (p,), with F
a (d-1)-subset and p = max D, and sweeps the pencil of hyperplanes
through F once instead of building 2^d side patterns of length n for
every D.  The oracle below is the replaced scan: one cofactor vector per
D, then h(D) and its 2^d perturbations, each counted over the whole
path.  Values, witnesses and raised errors (type, message and witness)
must agree exactly: on general-position paths and on degenerate paths
built with ``PolyPath._certified``, which skips the general-position
check.
"""

import io
import itertools
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import cli, crossing, exactgeom, ordertype
from convexsplit.crossing import (CrossingReport, CrossingWitness, PolyPath,
                                  _strict_flips, decompose, max_crossings)
from convexsplit.exactgeom import (GeneralPositionError, _cofactors, _dots,
                                   is_general_position, point_seq)
from convexsplit.kseq import from_points, greedy_partition
from test_cofactor_kernel import (count_calls, curve_paths, outcome,
                                  point_sets, two_arc_seq)


def subset_max_crossings(path):
    """Reference: every d-subset in lexicographic order, h(D) and then its
    2^d perturbations, each counted over all n vertices."""
    seq = path.seq
    n, d = len(seq), seq.dim
    if n <= d:
        sides = tuple((-1) ** i for i in range(n))
        return CrossingReport(
            n - 1, CrossingWitness("perturbed", tuple(range(n)), sides))
    hom = seq._hom
    best = -1
    best_wit = None
    for subset in itertools.combinations(range(n), d):
        c = _cofactors([hom[i] for i in subset])
        if not any(c[1:]):
            raise GeneralPositionError(
                "affinely dependent points do not span a hyperplane",
                range(d))
        sides = [(v > 0) - (v < 0) for v in _dots(c, hom)]
        if any(s == 0 for i, s in enumerate(sides) if i not in subset):
            raise GeneralPositionError(
                "extra vertex on a spanned hyperplane", subset)
        if not any(a == 0 and b == 0 for a, b in zip(sides, sides[1:])):
            count = sides.count(0) + sum(
                1 for a, b in zip(sides, sides[1:]) if a * b < 0)
            if count > best:
                best = count
                best_wit = CrossingWitness("direct", subset)
        for assigned in itertools.product((-1, 1), repeat=d):
            pert = list(sides)
            for i, s in zip(subset, assigned):
                pert[i] = s
            count = _strict_flips(pert)
            if count > best:
                best = count
                best_wit = CrossingWitness("perturbed", subset, assigned)
    return CrossingReport(best, best_wit)


def pencil_quotients(n, d):
    """Quotients that ordertype._pencils takes on n rows in R^d: one per
    j-prefix of the (d-1)-subsets of range(n - 1), that is C(n-d+j, j)
    for each level j = 1..d-1."""
    return sum(math.comb(n - d + j, j) for j in range(1, d))


@st.composite
def wide_paths(draw):
    """(d, points) for d = 1..4: d+1 to d+12 random points in a box of
    side 2001, almost always in general position."""
    d = draw(st.integers(1, 4))
    coord = st.integers(-1000, 1000)
    pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                        min_size=d + 1, max_size=d + 12))
    return d, pts


def random_moment_seq(n, d, seed=7):
    """n moment-curve points at sorted random t = r / 1000003."""
    rng = random.Random(seed)
    ts = sorted(Fraction(r, 1_000_003)
                for r in rng.sample(range(1, 1_000_003), n))
    return point_seq([[t ** k for k in range(1, d + 1)] for t in ts])


class TestDifferential:
    @given(st.one_of(curve_paths(), wide_paths()))
    @settings(max_examples=400, deadline=None)
    def test_general_position_paths(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        if not is_general_position(seq):
            return
        path = PolyPath(seq)
        assert max_crossings(path) == subset_max_crossings(path)

    @given(st.one_of(curve_paths(), point_sets(max_extra=5)))
    @settings(max_examples=400, deadline=None)
    def test_certified_paths_raise_the_same_errors(self, case):
        d, pts = case
        path = PolyPath._certified(point_seq(pts, dim=d))
        assert outcome(max_crossings, path) == \
            outcome(subset_max_crossings, path)

    @pytest.mark.parametrize("d,n", [(1, 40), (2, 30), (3, 20), (4, 14)])
    def test_long_random_paths(self, d, n):
        rng = random.Random(d * 1000 + n)
        for _ in range(3):
            seq = point_seq([[rng.randint(-10 ** 6, 10 ** 6)
                              for _ in range(d)] for _ in range(n)])
            assert is_general_position(seq)
            path = PolyPath(seq)
            assert max_crossings(path) == subset_max_crossings(path)

    @pytest.mark.parametrize("d,n", [(2, 25), (3, 16), (4, 12)])
    def test_moment_curves_in_both_directions(self, d, n):
        seq = random_moment_seq(n, d)
        for order in (range(n), range(n - 1, -1, -1)):
            path = PolyPath(seq.subsequence(list(order)))
            assert max_crossings(path) == subset_max_crossings(path)

    @given(st.one_of(curve_paths(), wide_paths()))
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_paths_decompose_into_one_block(self, case):
        # PolyPath's check leaves the certificate seq._sigma, and
        # decompose then skips greedy; it must close the same block.
        d, pts = case
        seq = point_seq(pts, dim=d)
        if not is_general_position(seq):
            return
        path = PolyPath(seq)
        assert decompose(path).partition == \
            greedy_partition(from_points(seq))


class TestCost:
    @pytest.mark.parametrize("d,n", [(1, 12), (2, 14), (3, 11), (4, 9)])
    def test_two_cofactor_vectors_per_pencil(self, d, n, monkeypatch):
        # The name is the mechanism's before the pencils moved onto the
        # quotient kernel: now no cofactor vector, and one quotient per
        # node of the prefix tree of the (d-1)-subsets F.  max_crossings
        # answers moment paths from their alternation certificate, so
        # this counts the sweep alone, _swept.
        seq = random_moment_seq(n, d)
        cofactors = [count_calls(monkeypatch, owner, "_cofactors")
                     for owner in (exactgeom, ordertype, crossing)]
        quotients = count_calls(monkeypatch, exactgeom, "_quotient")
        assert crossing._swept(seq).max_crossings == d
        assert cofactors == [[], [], []]
        assert len(quotients) == pencil_quotients(n, d)

    @staticmethod
    def _crossings(tmp_path, rows, *extra):
        data = tmp_path / "path.csv"
        data.write_text("".join(",".join(map(str, r)) + "\n" for r in rows),
                        encoding="utf-8")
        started = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = cli.main(["crossings", "--input", str(data), *extra])
        return code, time.perf_counter() - started

    def test_sixty_spatial_moment_points_under_2s(self, tmp_path):
        code, elapsed = self._crossings(tmp_path,
                                        random_moment_seq(60, 3).points)
        assert code == 0
        assert elapsed < 2.0

    def test_sixty_spatial_two_arc_points_under_2s(self, tmp_path):
        # Moment points are answered from the alternation certificate;
        # two arcs are not homogeneous, so this times the pencil sweep.
        code, elapsed = self._crossings(tmp_path, two_arc_seq(60, 3).points)
        assert code == 0
        assert elapsed < 2.0

    def test_forty_r4_moment_points_under_04s(self, tmp_path):
        # Convex input is answered from the general-position check's
        # alternation certificate, with no pencil sweep.
        code, elapsed = self._crossings(tmp_path,
                                        random_moment_seq(40, 4).points)
        assert code == 0
        assert elapsed < 0.4

    def test_240_random_planar_points_under_2s(self, tmp_path):
        rng = random.Random(7)
        rows = [(rng.randrange(10 ** 6), rng.randrange(10 ** 6))
                for _ in range(240)]
        code, elapsed = self._crossings(tmp_path, rows,
                                        "--oracle-budget", "240")
        assert code == 0
        assert elapsed < 2.0
