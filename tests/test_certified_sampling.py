"""Integer general-position sampling, certified once, against the paths it
replaced.

``_direction`` works on integer rows, ``try_add`` finds collinear triples
from the new point's own directions and larger dependent subsets by
``_least_dependent`` on them, ``_slopes_distinct`` settles most rank-2
steps before any direction is hashed, ``epsilon_sample`` hands its certified
points to ``PolyPath`` without a second check, and greedy extension
returns its own rejection witness.  The oracles below are the replaced
versions: the ``Fraction`` direction, the ``try_add`` that kept a
dictionary of directions per earlier point and tested each larger subset
by rank or determinant, and the greedy partition that searched for each
witness again after the extension loop.
"""

import io
import itertools
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import cli, exactgeom, kseq
from convexsplit.crossing import PolyPath
from convexsplit.curves import builtin, epsilon_sample
from convexsplit.exactgeom import (_KEY_BITS, DimensionMismatchError,
                                   IncrementalGeneralPosition, _direction,
                                   _equal_pair, _hom_row, _least_dependent,
                                   _slopes_distinct, as_point,
                                   is_general_position, point_seq)
from convexsplit.kseq import KSequence, from_points, from_table
from test_cofactor_kernel import bareiss_sign, count_calls, elimination_rank


def fraction_direction(p, q):
    """Reference: canonical integer direction of q - p from Fraction
    differences; None when p == q."""
    diff = [b - a for a, b in zip(p, q)]
    if all(v == 0 for v in diff):
        return None
    scale = math.lcm(*(v.denominator for v in diff))
    ints = [(scale // v.denominator) * v.numerator for v in diff]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


class DirsIncrementalGeneralPosition:
    """Reference: try_add with a dictionary of directions per earlier
    point, O(n^2) entries in all."""

    def __init__(self, dim):
        self.dim = dim
        self.points = []
        self._hom = []
        self._dirs = []

    def try_add(self, p):
        i = len(self.points)
        new_dirs = []
        for a in range(i):
            d = fraction_direction(self.points[a], p)
            if d is None:
                return (a, i)
            new_dirs.append(d)
        if self.dim >= 2:
            for a, d in enumerate(new_dirs):
                hit = self._dirs[a].get(d)
                if hit is not None:
                    return (a, hit, i)
        hom = _hom_row(p)
        for size in range(4, self.dim + 2):
            full = size == self.dim + 1
            for idx in itertools.combinations(range(i), size - 1):
                rows = [self._hom[j] for j in idx] + [hom]
                if full:
                    if bareiss_sign(rows) == 0:
                        return idx + (i,)
                elif elimination_rank(rows) < size:
                    return idx + (i,)
        for a, d in enumerate(new_dirs):
            self._dirs[a][d] = i
        self._dirs.append({})
        self.points.append(p)
        self._hom.append(hom)
        return None


def two_scan_greedy(s: KSequence) -> kseq.GreedyPartition:
    """Reference: greedy partition over the generic sign_at loop, with
    each block's witness found by a second lexicographic scan."""
    n, k = len(s), s.k
    blocks, signs, witnesses = [], [], []
    start = 0
    while True:
        end = start
        sigma = None
        rejected = None
        while end + 1 < n:
            nxt = end + 1
            if nxt - start + 1 <= k:
                end = nxt
                continue
            ok = True
            for comb in itertools.combinations(range(start, nxt), k):
                t = s.sign_at(comb + (nxt,))
                if sigma is None:
                    sigma = t
                elif t != sigma:
                    ok = False
                    break
            if not ok:
                rejected = nxt
                break
            end = nxt
        blocks.append((start, end))
        if rejected is None:
            signs.append(sigma if end - start + 1 > k else None)
            witnesses.append(None)
            break
        signs.append(sigma)
        witnesses.append(next(
            comb for comb in itertools.combinations(range(start, end + 1), k)
            if s.sign_at(comb + (rejected,)) != sigma))
        start = end
    return kseq.GreedyPartition(tuple(blocks), tuple(signs),
                                tuple(witnesses))


def outcome(fn, *args):
    """Result, or the raised error's type and witness.  The planar pair
    loop and tuple_sign word their errors differently."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), getattr(exc, "witness", None))


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def point_pairs(draw):
    d = draw(st.integers(1, 4))
    p = draw(st.tuples(*[rationals] * d))
    if draw(st.booleans()):
        return p, p
    if draw(st.booleans()):
        # q - p a rational multiple of a small integer vector
        v = draw(st.tuples(*[st.integers(-3, 3)] * d))
        c = draw(rationals)
        return p, tuple(a + c * b for a, b in zip(p, v))
    return p, draw(st.tuples(*[rationals] * d))


@st.composite
def streams(draw, dim):
    """Small grid or rational points: duplicates, collinear triples and,
    from R^3 up, coplanar quadruples are common."""
    coord = st.one_of(st.integers(0, 4),
                      st.fractions(min_value=0, max_value=4,
                                   max_denominator=3))
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=1,
                         max_size=12 if dim == 2 else 9))


class TestIntegerDirection:
    @given(point_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_direction(self, pair):
        p, q = map(as_point, pair)
        got = exactgeom._direction(_hom_row(p), _hom_row(q))
        assert got == fraction_direction(p, q)
        assert exactgeom._direction(_hom_row(q), _hom_row(p)) == got

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_direction_out_of_any_vector(self, r, data):
        # Pivots anywhere and of either sign: q and q' share a direction
        # out of p iff {p, q, q'} has rank 2.
        small = st.integers(-3, 3)
        lead = data.draw(st.integers(0, r - 1))
        p = [0] * lead + data.draw(st.lists(small, min_size=r - lead,
                                            max_size=r - lead))
        if not any(p):
            p[lead] = data.draw(st.sampled_from((-2, -1, 1, 2)))
        q, q2 = (data.draw(st.lists(small, min_size=r, max_size=r))
                 for _ in range(2))
        if data.draw(st.booleans()):
            # q2 = a*q + b*p, so rank 2 unless a == 0
            a, b = data.draw(small), data.draw(small)
            q2 = [a * x + b * y for x, y in zip(q, p)]
        dq, dq2 = _direction(p, q), _direction(p, q2)
        assert (dq is None) == (elimination_rank([p, q]) < 2)
        assert (dq2 is None) == (elimination_rank([p, q2]) < 2)
        if dq is not None and dq2 is not None:
            assert (dq == dq2) == (elimination_rank([p, q, q2]) == 2)

    def test_uses_no_fraction_arithmetic(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Fraction arithmetic in _direction")

        p, q = as_point(("1/3", "-2/7")), as_point(("5/6", "1/2"))
        rows = _hom_row(p), _hom_row(q)
        for op in ("__sub__", "__rsub__", "__add__", "__mul__"):
            monkeypatch.setattr(Fraction, op, forbidden)
        assert exactgeom._direction(*rows) == (7, 11)


class TestIncrementalWitnesses:
    def _compare(self, rows, dim):
        new = IncrementalGeneralPosition(dim)
        old = DirsIncrementalGeneralPosition(dim)
        for p in map(as_point, rows):
            assert new.try_add(p) == old.try_add(p)
            assert new.points == old.points

    @given(streams(2))
    @settings(max_examples=300, deadline=None)
    def test_planar_stream(self, rows):
        self._compare(rows, 2)

    @given(streams(3))
    @settings(max_examples=150, deadline=None)
    def test_spatial_stream(self, rows):
        self._compare(rows, 3)

    @given(streams(4))
    @settings(max_examples=100, deadline=None)
    def test_four_space_stream(self, rows):
        self._compare(rows, 4)

    @given(streams(1))
    @settings(max_examples=60, deadline=None)
    def test_line_stream(self, rows):
        self._compare(rows, 1)

    @pytest.mark.parametrize("p", [(1, 1, 1), (1,)])
    def test_point_of_another_length(self, p):
        gp = IncrementalGeneralPosition(2)
        assert gp.try_add(as_point((0, 0))) is None
        with pytest.raises(DimensionMismatchError):
            gp.try_add(as_point(p))
        assert gp.points == [as_point((0, 0))]
        assert gp._hom == [(1, 0, 0)]

    def test_least_colliding_pair_wins(self):
        # the new point (2, 2) closes two collinear triples, {1, 2, 4} and
        # {0, 3, 4}; the scan meets {1, 2} first, the witness is {0, 3}
        pts = [(0, 0), (2, 0), (2, 1), (1, 1)]
        new = IncrementalGeneralPosition(2)
        for p in pts:
            assert new.try_add(as_point(p)) is None
        assert new.try_add(as_point((2, 2))) == (0, 3, 4)


def brute_least_dependent(rows, size):
    """Reference: the lexicographically least size-subset of rank below
    size, by elimination on every subset."""
    return next((idx for idx in itertools.combinations(range(len(rows)), size)
                 if elimination_rank([rows[i] for i in idx]) < size), None)


class TestLeastDependent:
    @given(st.integers(3, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_subset_scan(self, r, data):
        # Random small vectors, so dependent subsets of every size occur;
        # compare at the least size with a dependent subset.
        rows = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=r, max_size=r),
            min_size=3, max_size=9))
        for size in range(1, r + 1):
            wit = brute_least_dependent(rows, size)
            if wit is not None:
                break
        else:
            size = r
        if size >= 3:
            assert _least_dependent(rows, size) == wit


def hashed_pair(v, rows):
    """The exact rank-2 step that _slopes_distinct stands in front of."""
    return _equal_pair(map(_direction, [v] * len(rows), rows))


small_rows = st.lists(st.tuples(*[st.integers(-9, 9)] * 3), max_size=8)


@st.composite
def anchored_rows(draw):
    """An anchor v with v[0] != 0 of either sign, and 3-vectors that are
    often 0 or parallel mod v: multiples of v, of each other, or both."""
    v = draw(st.tuples(st.integers(-9, 9).filter(bool),
                       st.integers(-9, 9), st.integers(-9, 9)))
    rows = draw(small_rows)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        w = draw(st.sampled_from(rows)) if rows else v
        rows.insert(draw(st.integers(0, len(rows))),
                    tuple(a * x + b * y for x, y in zip(w, v)))
    return v, rows


class TestSlopeCertificate:
    """_slopes_distinct may only accept: whenever it does, the exact
    direction hash finds no pair."""

    @given(anchored_rows())
    @settings(max_examples=500, deadline=None)
    def test_accepts_only_what_the_hash_accepts(self, case):
        v, rows = case
        if _slopes_distinct(v, rows):
            assert hashed_pair(v, rows) is None

    @pytest.mark.parametrize("pts,witness", [
        ([(0, 0), (1, 1), (0, 1)], None),              # vertical, x = 0
        ([(1, 2), (3, 5), (1, 2)], (0, 2)),            # duplicate
        ([(0, 0), (1, 1), (2, 2)], (0, 1, 2)),         # beyond both
        ([(0, 0), (2, 2), (1, 1)], (0, 1, 2)),         # between, opposite
        ([(5, 1), (0, 0), (-5, -1)], (0, 1, 2)),
    ])
    def test_crafted_point_streams(self, pts, witness):
        # the certificate declines each last point; the exact hash decides
        hom = [_hom_row(as_point(p)) for p in pts]
        assert not _slopes_distinct(hom[-1], hom[:-1])
        gp = IncrementalGeneralPosition(2)
        got = [gp.try_add(as_point(p)) for p in pts]
        assert got[:-1] == [None] * (len(pts) - 1)
        assert got[-1] == witness
        assert bool(is_general_position(point_seq(pts))) == (witness is None)

    def test_negative_anchor(self):
        # quotient rows at deeper levels lead with either sign
        v, w = (-2, 1, 3), (1, 0, 0)
        dependent = tuple(3 * x + 5 * y for x, y in zip(w, v))
        free = (1, 0, 1)
        assert not _slopes_distinct(v, [w, dependent])
        assert hashed_pair(v, [w, dependent]) == (0, 1)
        assert _slopes_distinct(v, [w, free])
        assert _least_dependent([v, w, dependent], 3) == (0, 1, 2)
        assert _least_dependent([v, w, free], 3) is None

    def test_key_collision_falls_back(self):
        # slopes 0 and 2^-(K+1) share the key 0 with no dependency: the
        # certificate declines and the exact hash accepts
        far = 2 ** (_KEY_BITS + 1)
        pts = [(1, 0), (far, 1), (0, 0)]
        hom = [_hom_row(as_point(p)) for p in pts]
        assert not _slopes_distinct(hom[-1], hom[:-1])
        assert hashed_pair(hom[-1], hom[:-1]) is None
        gp = IncrementalGeneralPosition(2)
        assert [gp.try_add(as_point(p)) for p in pts] == [None] * 3
        assert is_general_position(point_seq(pts[::-1]))
        assert _least_dependent(hom[::-1], 3) is None


@st.composite
def mixed_denominator_streams(draw):
    """Planar rationals over denominators 1..40, so the shared denominator
    is rescaled and, past its width guard, given up; duplicates and
    points on the line through two earlier points are common."""
    coord = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
    pts = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.integers(0, 3)) if len(pts) >= 2 else 0
        if kind == 1:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == 2:
            p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            c = draw(coord)
            pts.append(tuple(a + c * (b - a) for a, b in zip(p, q)))
        else:
            pts.append((draw(coord), draw(coord)))
    return pts


def is_positive_multiple(row, p):
    hom = _hom_row(p)
    k, rem = divmod(row[0], hom[0])
    return rem == 0 and k > 0 and row == tuple(k * x for x in hom)


def state(gp):
    return (list(gp.points), list(gp._hom), gp._den, gp._dx, list(gp._xs))


def column_holds(gp):
    """While D is kept, the column is X_j = Dx * x_j over every committed
    point, with Dx | D; once the width guard trips, both are gone."""
    if not gp._den:
        return gp._dx == 0 and gp._xs == []
    return (gp._den % gp._dx == 0
            and gp._xs == [gp._dx * p[0] for p in gp.points]
            and all(type(x) is int for x in gp._xs))


class TestSharedDenominator:
    """The planar stream keeps its rows over one shared first coordinate,
    and an x-column over the x-coordinates' own one, while the width
    guard allows; the dictionary-of-directions try_add is the oracle."""

    @given(mixed_denominator_streams())
    @settings(max_examples=400, deadline=None)
    def test_matches_direction_dictionary(self, pts):
        new = IncrementalGeneralPosition(2)
        old = DirsIncrementalGeneralPosition(2)
        for p in map(as_point, pts):
            before = state(new)
            got = new.try_add(p)
            assert got == old.try_add(p)
            assert new.points == old.points
            if got is not None:
                # D, Dx, the rows and the column are all untouched
                assert state(new) == before
            assert column_holds(new)
            assert all(map(is_positive_multiple, new._hom, new.points))
            if new._den:
                assert {row[0] for row in new._hom} == {new._den}

    def test_rejection_leaves_rows_unscaled(self):
        # The third point's denominator 3 does not divide D = 2, and the
        # point is collinear with the first two: no rescale happens.
        gp = IncrementalGeneralPosition(2)
        for p in [(0, 0), ("1/2", "1/2")]:
            assert gp.try_add(as_point(p)) is None
        assert gp._hom == [(2, 0, 0), (2, 1, 1)] and gp._den == 2
        assert gp._xs == [0, 1] and gp._dx == 2
        assert gp.try_add(as_point(("1/3", "1/3"))) == (0, 1, 2)
        assert gp._hom == [(2, 0, 0), (2, 1, 1)] and gp._den == 2
        assert gp._xs == [0, 1] and gp._dx == 2
        assert gp.try_add(as_point(("1/3", "1/5"))) is None
        assert gp._hom == [(30, 0, 0), (30, 15, 15), (30, 10, 6)]
        assert gp._xs == [0, 3, 2] and gp._dx == 6

    def test_x_denominator_outside_the_column(self):
        # The rows share D = 4 and the x-coordinates are integers, Dx = 1.
        # P = (1/2, 1/4) has L = 4 | D but x-denominator 2, not dividing
        # Dx, so it takes the multiplying key; read off the column at
        # X0 = 0 its slope keys out of P would be distinct, though P is on
        # the line through the first two points.
        gp = IncrementalGeneralPosition(2)
        for p in [(1, "1/2"), (3, "3/2"), (2, "1/4")]:
            assert gp.try_add(as_point(p)) is None
        assert gp._den == 4 and gp._dx == 1 and gp._xs == [1, 3, 2]
        before = state(gp)
        assert gp.try_add(as_point(("1/2", "1/4"))) == (0, 1, 3)
        assert state(gp) == before
        assert gp.try_add(as_point(("1/2", "3/4"))) is None
        assert gp._den == 4 and gp._dx == 2 and gp._xs == [2, 6, 4, 1]

    def test_width_guard_on_coprime_denominators(self):
        # The first 400 primes as point denominators: D would grow to
        # thousands of bits, so the guard gives the shared denominator up
        # and no stored row is wider than twice the widest denominator.
        primes = [q for q in range(2, 2742)
                  if all(q % f for f in range(2, math.isqrt(q) + 1))]
        assert len(primes) == 400
        rng = random.Random(7)
        gp = IncrementalGeneralPosition(2)
        pts = [as_point((Fraction(rng.randrange(-10 ** 6, 10 ** 6), q),
                         Fraction(rng.randrange(-10 ** 6, 10 ** 6), q)))
               for q in primes]
        for p in pts:
            assert gp.try_add(p) is None
        assert gp._den == 0 and column_holds(gp)
        widest = max(_hom_row(p)[0] for p in pts).bit_length()
        assert max(row[0].bit_length() for row in gp._hom) <= 2 * widest
        assert all(map(is_positive_multiple, gp._hom, gp.points))

    @pytest.mark.parametrize("curve,bits,x_bits", [
        (builtin("quintic"), 99, 20),
        (builtin("moment", dim=2), 40, 20),
        (builtin("dented_arc", dents=3, depth=Fraction(1, 100)), 82, 19),
    ])
    def test_sampled_points_keep_one_denominator(self, curve, bits, x_bits,
                                                 monkeypatch):
        # Points on the sampler's parameter grid: the rows share one first
        # coordinate to the end, and every slope key but those of the
        # points that rescale it runs on the shared branch, where its
        # divisor is a difference of the column over Dx, a fraction of
        # D's width.
        pts = epsilon_sample(curve, Fraction(1, 100)).path.seq.points
        calls = count_calls(monkeypatch, exactgeom, "_slopes_distinct")
        gp = IncrementalGeneralPosition(2)
        for p in pts:
            assert gp.try_add(p) is None
        assert gp._den.bit_length() == bits
        assert gp._dx.bit_length() == x_bits
        assert {row[0] for row in gp._hom} == {gp._den}
        assert column_holds(gp)
        shared = [args[2] for args in calls]
        assert len(shared) == len(pts)
        assert sum(map(bool, shared)) >= len(pts) - 3


curve_choices = st.one_of(
    st.just((builtin("quintic"), (Fraction(1, 8), Fraction(1, 20)))),
    st.builds(lambda dents, den: (
        builtin("dented_arc", dents=dents, depth=Fraction(1, den)),
        (Fraction(1, 12), Fraction(1, 24))),
        st.integers(1, 4), st.integers(17, 60)),
    st.builds(lambda c2, c3: (
        builtin("poly", coeffs=[[0, 1], [1, 0, c2, c3]], domain=(-1, 1)),
        (Fraction(1, 6), Fraction(1, 12))),
        st.integers(-3, 3).filter(bool), st.integers(-3, 3)),
    st.builds(lambda c: (
        builtin("poly", coeffs=[[0, 1], [0, 0, 1], [0, 0, 0, c]]),
        (Fraction(1, 4), Fraction(1, 6))),
        st.integers(1, 3)),
    st.just((builtin("moment", dim=2), (Fraction(1, 8), Fraction(1, 20)))),
    st.just((builtin("moment", dim=3), (Fraction(1, 4), Fraction(1, 8)))),
)


class TestCertifiedSample:
    @given(curve_choices, st.integers(0, 1), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_sampled_paths_are_in_general_position(self, choice, which,
                                                   seed):
        curve, eps_choices = choice
        sample = epsilon_sample(curve, eps_choices[which], seed)
        assert is_general_position(sample.path.seq)

    def test_public_construction_still_checks(self):
        seq = point_seq([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(exactgeom.GeneralPositionError):
            PolyPath(seq)


@pytest.fixture(scope="module")
def quintic_100():
    return builtin("quintic"), Fraction(1, 100)


class TestCounters:
    def test_sampler_certifies_each_point_without_directions(
            self, quintic_100, monkeypatch):
        # one slope-key pass per point settles it, so no direction is
        # hashed
        directions = count_calls(monkeypatch, exactgeom, "_direction")
        certified = count_calls(monkeypatch, exactgeom, "_slopes_distinct")
        sample = epsilon_sample(*quintic_100)
        assert len(sample.path.seq) == 400
        assert sample.retries == 0
        assert directions == []
        assert len(certified) == 400

    @pytest.mark.parametrize("curve", [builtin("quintic"),
                                       builtin("moment", dim=3)])
    def test_sampled_path_keeps_the_certified_rows(self, curve,
                                                   monkeypatch):
        # One _hom_row per drawn point, inside try_add, and none for the
        # path: its rows are the sampler's, each a positive multiple of
        # its point's own row.
        rows = count_calls(monkeypatch, exactgeom, "_hom_row")
        sample = epsilon_sample(curve, Fraction(1, 16))
        seq = sample.path.seq
        hom = seq._hom
        assert len(rows) == len(seq) + sample.retries
        for p, row in zip(seq.points, hom):
            own = _hom_row(p)
            assert row[0] % own[0] == 0
            assert row == tuple(row[0] // own[0] * c for c in own)

    def test_greedy_on_sample_makes_no_sign_at_calls(self, quintic_100,
                                                      monkeypatch):
        seq = epsilon_sample(*quintic_100).path.seq
        calls = [0]
        sign_at = KSequence.sign_at

        def counting(self, positions):
            calls[0] += 1
            return sign_at(self, positions)

        monkeypatch.setattr(KSequence, "sign_at", counting)
        gp = kseq.greedy_partition(from_points(seq))
        assert gp.m == 4
        assert all(w is not None for w in gp.witnesses[:-1])
        assert calls[0] == 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_incremental_state_is_linear(self, dim):
        def leaves(obj):
            if isinstance(obj, dict):
                return sum(leaves(k) + leaves(v) for k, v in obj.items())
            if isinstance(obj, (list, tuple, set)):
                return sum(leaves(v) for v in obj)
            return 1

        curve = builtin("moment", dim=dim)
        n = 60 if dim < 3 else 24
        gp = IncrementalGeneralPosition(dim)
        for i in range(1, n + 1):
            assert gp.try_add(curve.at(Fraction(i, n))) is None
        # the points and their homogeneous rows, plus the dimension, the
        # shared first coordinate of the rows and Dx, and in the plane the
        # x-column
        column = n if dim == 2 else 0
        assert (leaves(list(vars(gp).values()))
                == n * dim + n * (dim + 1) + 3 + column)


def random_points(n, d):
    rng = random.Random(7)
    return [tuple(rng.randrange(10 ** 6) for _ in range(d))
            for _ in range(n)]


class TestQuotientCounters:
    # Random points are in general position but not convex, so the
    # alternating certificate fails and every size is hashed.
    # Each rank-2 step costs one slope key per row, or one direction per
    # row where the certificate declines, so keys and directions together
    # stay within the sum of C(n, k).
    @pytest.fixture
    def counted(self, monkeypatch):
        counted = {name: count_calls(monkeypatch, exactgeom, name)
                   for name in ("_direction", "_cofactors", "_rank")}
        keys = counted["keys"] = []
        certify = exactgeom._slopes_distinct

        def counting(v, rows):
            keys.append(len(rows))
            return certify(v, rows)

        monkeypatch.setattr(exactgeom, "_slopes_distinct", counting)
        return counted

    @staticmethod
    def _check(counted, d, n):
        bound = sum(math.comb(n, k) for k in range(2, d + 1))
        assert counted["keys"]
        assert sum(counted["keys"]) + len(counted["_direction"]) <= bound
        assert counted["_cofactors"] == counted["_rank"] == []

    @pytest.mark.parametrize("d,n", [(3, 40), (4, 18)])
    def test_batch_hashes_each_size_once(self, d, n, counted):
        seq = point_seq(random_points(n, d))
        assert is_general_position(seq) and seq._sigma == 0
        self._check(counted, d, n)

    @pytest.mark.parametrize("d,n", [(3, 40), (4, 18)])
    def test_stream_hashes_each_size_once(self, d, n, counted):
        gp = IncrementalGeneralPosition(d)
        for p in random_points(n, d):
            assert gp.try_add(as_point(p)) is None
        self._check(counted, d, n)


def run_cli(argv):
    """In-process CLI run: exit code, report and seconds taken."""
    out = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()), time.perf_counter() - started


class TestCost:
    def test_verify_gp_on_100_random_spatial_points(self, tmp_path):
        data = tmp_path / "points.csv"
        data.write_text("".join(",".join(map(str, p)) + "\n"
                                for p in random_points(100, 3)),
                        encoding="utf-8")
        code, report, elapsed = run_cli(["verify-gp", "--input", str(data)])
        assert code == 0
        assert report["result"]["general_position"] is True
        assert elapsed < 2.0

    def test_decompose_curve_quintic_at_eps_1_200(self):
        code, report, elapsed = run_cli(
            ["decompose-curve", "--curve", "quintic", "--eps", "1/200"])
        assert code == 0
        assert report["result"]["n"] == 800
        assert report["result"]["pieces"] == 4
        assert elapsed < 0.7

    def test_sample_moment_curve_in_four_space(self):
        code, report, elapsed = run_cli(
            ["sample", "--curve", "moment", "--dim", "4", "--eps", "1/16"])
        assert code == 0
        assert report["result"]["n"] == 32
        assert elapsed < 2.0


class TestExtensionWitnesses:
    @staticmethod
    def _random_table(rng, k, n):
        elements = tuple(range(n))
        table = {sub: rng.choice((-1, 1))
                 for sub in itertools.combinations(elements, k + 1)}
        return from_table(k, elements, table)

    def test_abstract_tables(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.choice((1, 2, 3))
            s = self._random_table(rng, k, rng.randint(1, 9))
            assert kseq.greedy_partition(s) == two_scan_greedy(s)

    @given(st.one_of(streams(2), streams(3)))
    @settings(max_examples=200, deadline=None)
    def test_geometric_sequences(self, rows):
        seq = point_seq(rows)
        assert (outcome(lambda q: kseq.greedy_partition(from_points(q)), seq)
                == outcome(lambda q: two_scan_greedy(from_points(q)), seq))

    def test_quintic_sample(self):
        seq = epsilon_sample(builtin("quintic"), Fraction(1, 25)).path.seq
        assert (kseq.greedy_partition(from_points(seq))
                == two_scan_greedy(from_points(seq)))
