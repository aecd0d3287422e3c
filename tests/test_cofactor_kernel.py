"""The integer cofactor kernel and the D-first scans against the paths they
replaced.

``_cofactors`` gives the vector c(D) with c(D) . x = det(D + [x]), so an
exhaustive orientation scan computes c(D) once per d-subset D and one dot
product per other point.  ``sign_sequence`` now runs that way; the
homogeneity witness did until the quotient recursion ``_least_bad``
replaced it (see test_least_bad.py), ``max_crossings`` and ``is_flip``
did until they swept pencils instead (see test_pencil_sweep.py and
test_flip_sweep.py), and ``is_general_position`` did until one quotient
recursion over direction hashes replaced all of its passes.  The oracles
below are the replaced tuple-first versions, with every orientation
decided by Bareiss elimination on the full (d+1)x(d+1) matrix;
``old_is_general_position`` keeps the duplicate and collinear hash
passes it ran first.  Reports, witnesses and raised errors (type,
message and witness) must agree exactly, on general-position and
degenerate input alike.  ``_bareiss_det`` is the elimination that gave
exact values, and cofactor vectors from d = 4 up, before ``_cofactors``
and ``det_rational`` took them from the quotient step; it is their
oracle here and in test_exactgeom.py.
"""

import itertools
import math
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit import cli, crossing, exactgeom, ordertype, ramsey
from convexsplit.crossing import (CrossingReport, CrossingWitness, PolyPath,
                                  max_crossings)
from convexsplit.exactgeom import (GeneralPositionError,
                                   GeneralPositionReport, Hyperplane,
                                   Point, PointSeq, _cofactors,
                                   _det_sign, _direction, _hom_row, as_point,
                                   is_general_position, point_seq,
                                   span_hyperplane)
from convexsplit.ordertype import (FlipReport, SignSeq, count_sign_changes,
                                   is_flip, is_order_type_homogeneous,
                                   sign_sequence)
from test_local_convexity import scan_homogeneous


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[i][i]
        for r in range(i + 1, n):
            mr, mi = m[r], m[i]
            lead = mr[i]
            for c in range(i + 1, n):
                mr[c] = (mr[c] * piv - lead * mi[c]) // prev
            mr[i] = 0
        prev = piv
    return sign * m[-1][-1]


def bareiss_sign(rows):
    v = _bareiss_det(rows)
    return (v > 0) - (v < 0)


def elimination_rank(rows):
    """Reference: rank by integer row-echelon elimination, the loop that
    exactgeom._rank ran before it recursed on _quotient."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [m[i][j] * a - m[r][j] * b for j in range(ncols)]
        r += 1
        if r == nrows:
            break
    return r


def old_tuple_sign(seq, idx):
    """Reference: tuple_sign, one full determinant per tuple."""
    idx = tuple(idx)
    if len(idx) != seq.dim + 1:
        raise ValueError(f"need {seq.dim + 1} indices, got {len(idx)}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    if idx and not 0 <= idx[0] <= idx[-1] < len(seq):
        raise IndexError("index out of range")
    s = bareiss_sign([seq._hom[i] for i in idx])
    if s == 0:
        raise GeneralPositionError(f"affinely dependent tuple {idx}", idx)
    return s


def old_sign_sequence(seq, subset):
    """Reference: sign_sequence, tuple by tuple."""
    subset = tuple(subset)
    if len(subset) != seq.dim:
        raise ValueError(f"need a {seq.dim}-subset, got {len(subset)}")
    members = set(subset)
    entries = []
    for i in range(len(seq)):
        if i in members:
            continue
        entries.append(old_tuple_sign(seq, tuple(sorted(subset + (i,)))))
    return SignSeq(subset, tuple(entries))


def old_is_flip(seq):
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    for subset in itertools.combinations(range(n), d):
        ss = old_sign_sequence(seq, subset)
        if count_sign_changes(ss) > 1:
            return FlipReport(False, witness=ss)
    return FlipReport(True)


def _duplicate_witness(seq: PointSeq) -> tuple[int, int] | None:
    seen: dict[Point, int] = {}
    for i, p in enumerate(seq.points):
        j = seen.setdefault(p, i)
        if j != i:
            return (j, i)
    return None


def _collinear_witness(seq: PointSeq) -> tuple[int, int, int] | None:
    # A collinear triple {a, b, c} (a < b < c) collides as equal directions
    # out of its least element; one hash pass per anchor beats enumerating
    # all C(n,3) triples.
    hom = seq._hom
    n = len(hom)
    for a in range(n - 2):
        seen: dict[tuple[int, ...], int] = {}
        for b in range(a + 1, n):
            d = _direction(hom[a], hom[b])
            other = seen.setdefault(d, b)
            if other != b:
                return (a, other, b)
    return None


def old_is_general_position(seq):
    """Reference: is_general_position with its size-(d+1) pass tuple by
    tuple."""
    n = len(seq)
    dup = _duplicate_witness(seq)
    if dup is not None:
        return GeneralPositionReport(False, dup)
    if seq.dim == 1:
        return GeneralPositionReport(True)
    tri = _collinear_witness(seq)
    if tri is not None:
        return GeneralPositionReport(False, tri)
    hom = seq._hom
    for size in range(4, min(n, seq.dim + 1) + 1):
        full = size == seq.dim + 1
        for idx in itertools.combinations(range(n), size):
            rows = [hom[i] for i in idx]
            if full:
                if bareiss_sign(rows) == 0:
                    return GeneralPositionReport(False, idx)
            elif elimination_rank(rows) < size:
                return GeneralPositionReport(False, idx)
    return GeneralPositionReport(True)


def old_span_hyperplane(pts):
    """Reference: span_hyperplane from d+1 Bareiss minors."""
    pts = [as_point(p) for p in pts]
    d = len(pts)
    rows = [_hom_row(p) for p in pts]
    minors = []
    for c in range(d + 1):
        sub = [[row[cc] for cc in range(d + 1) if cc != c] for row in rows]
        minors.append(_bareiss_det(sub))
    normal = tuple((-1) ** (d + c) * minors[c] for c in range(1, d + 1))
    if all(v == 0 for v in normal):
        raise GeneralPositionError(
            "affinely dependent points do not span a hyperplane", range(d))
    offset = (-1) ** (d + 1) * minors[0]
    g = math.gcd(*normal, offset)
    return Hyperplane(tuple(Fraction(v // g) for v in normal),
                      Fraction(offset // g))


def old_max_crossings(path):
    """Reference: max_crossings with one Fraction hyperplane per subset."""
    seq = path.seq
    n, d = len(seq), seq.dim
    if n <= d:
        sides = tuple((-1) ** i for i in range(n))
        return CrossingReport(
            n - 1, CrossingWitness("perturbed", tuple(range(n)), sides))
    best = -1
    best_wit = None
    for subset in itertools.combinations(range(n), d):
        h = old_span_hyperplane([seq.points[i] for i in subset])
        sides = crossing._vertex_sides(path, h)
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
            count = crossing._strict_flips(pert)
            if count > best:
                best = count
                best_wit = CrossingWitness("perturbed", subset, assigned)
    return CrossingReport(best, best_wit)


def outcome(fn, *args):
    """Result, or the raised error's type, message and witness."""
    try:
        return fn(*args)
    except (ValueError, IndexError) as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))


@st.composite
def point_sets(draw, max_extra=4, max_dim=4):
    """(d, points) for d = 1..max_dim: a small grid (duplicates, collinear
    and coplanar subsets are common), a wide box (mostly general position)
    or moment-curve points in any order; then maybe a duplicate, and maybe
    d+1 or more points flattened onto the hyperplane x_d = 0."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(d + 1, d + 1 + max_extra))
    kind = draw(st.sampled_from(("grid", "wide", "moment")))
    if kind == "moment":
        ts = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n,
                           unique=True))
        pts = [[t ** k for k in range(1, d + 1)] for t in ts]
    else:
        lim = 2 if kind == "grid" else 40
        coord = st.integers(-lim, lim)
        pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                            min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        pts[j] = list(pts[i])
    if d >= 2 and draw(st.booleans()):
        flat = draw(st.sets(st.integers(0, n - 1), min_size=d + 1))
        for i in flat:
            pts[i][-1] = 0
    return d, pts


@st.composite
def curve_paths(draw, max_arcs=3):
    """(d, points) for d = 1..4: one to three moment-curve arcs of d+1 to
    8 points, each in increasing or decreasing t, with some coordinates
    mirrored (sign -1) and a shift; then, each one time in four, a
    duplicate, a replaced point, or d+1 or more points flattened onto
    the hyperplane x_d = 0."""
    d = draw(st.integers(1, 4))
    sometimes = st.sampled_from((False, False, False, True))
    pts = []
    for _ in range(draw(st.integers(1, max_arcs))):
        ts = sorted(draw(st.sets(st.integers(-6, 6), min_size=d + 1,
                                 max_size=8)))
        if draw(st.booleans()):
            ts.reverse()
        mirror = draw(st.lists(st.sampled_from((-1, 1)), min_size=d,
                               max_size=d))
        shift = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
        pts += [[m * t ** (j + 1) + c
                 for j, (m, c) in enumerate(zip(mirror, shift))]
                for t in ts]
    n = len(pts)
    if draw(sometimes):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        pts[j] = list(pts[i])
    if draw(sometimes):
        pts[draw(st.integers(0, n - 1))] = draw(st.lists(
            st.integers(-6, 6), min_size=d, max_size=d))
    if d >= 2 and draw(sometimes):
        for i in draw(st.sets(st.integers(0, n - 1), min_size=d + 1)):
            pts[i][-1] = 0
    return d, pts


class TestKernel:
    @given(st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cofactors_give_every_determinant(self, d, data):
        # From d = 4 up the first row is the quotient pivot: a zero one
        # gives the zero vector, and zero leading columns, in the first row
        # or in all, move the pivot's coordinate k off 0 at some level.
        big = st.integers(-10 ** 12, 10 ** 12)
        row = st.lists(st.one_of(st.integers(-3, 3), big),
                       min_size=d + 1, max_size=d + 1)
        rows = data.draw(st.lists(row, min_size=d, max_size=d))
        zeros = data.draw(st.integers(0, d + 1))
        for r in rows[:data.draw(st.sampled_from((0, 1, d)))]:
            r[:zeros] = [0] * zeros
        xs = data.draw(st.lists(row, min_size=1, max_size=4)) + rows
        c = _cofactors(rows)
        assert len(c) == d + 1
        for x in xs:
            assert sum(a * b for a, b in zip(c, x)) == \
                _bareiss_det(rows + [x])

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_det_sign_matches_bareiss(self, n, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n, max_size=n))
        assert _det_sign(rows) == bareiss_sign(rows)

    @given(point_sets(max_dim=5))
    @settings(max_examples=300, deadline=None)
    def test_span_hyperplane_matches_minor_loop(self, case):
        d, pts = case
        assert outcome(span_hyperplane, pts[:d]) == \
            outcome(old_span_hyperplane, pts[:d])


class TestDFirstScans:
    @given(point_sets(max_dim=5), st.data())
    @settings(max_examples=400, deadline=None)
    def test_sign_sequence_matches_tuple_path(self, case, data):
        d, pts = case
        seq = point_seq(pts, dim=d)
        n = len(seq)
        # Unsorted subsets, with repeats and out-of-range (also negative)
        # indices now and then.
        idx = st.integers(-2, n + 1) if data.draw(st.booleans()) \
            else st.integers(0, n - 1)
        size = data.draw(st.sampled_from((d, d, d, d - 1, d + 1)))
        subset = data.draw(st.lists(idx, min_size=size, max_size=size))
        assert outcome(sign_sequence, seq, subset) == \
            outcome(old_sign_sequence, seq, subset)

    def test_sign_sequence_of_every_point_is_empty(self):
        # n = d: no entry is evaluated, so no index is checked either.
        seq = point_seq([(0, 0), (1, 0)])
        assert sign_sequence(seq, (1, 0)) == SignSeq((1, 0), ())
        assert old_sign_sequence(seq, (1, 0)) == SignSeq((1, 0), ())

    @given(point_sets())
    @settings(max_examples=400, deadline=None)
    def test_is_flip_matches_tuple_path(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert outcome(is_flip, seq) == outcome(old_is_flip, seq)

    @given(point_sets())
    @settings(max_examples=400, deadline=None)
    def test_homogeneity_matches_scan(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert outcome(is_order_type_homogeneous, seq) == \
            outcome(scan_homogeneous, seq)

    # Single moment arcs are homogeneous unless modified, so they reach the
    # alternating certificate; the other inputs mostly take the scan.
    @given(st.one_of(point_sets(), curve_paths(), curve_paths(max_arcs=1)))
    @settings(max_examples=400, deadline=None)
    def test_general_position_matches_tuple_path(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        assert is_general_position(seq) == old_is_general_position(seq)

    @given(point_sets(max_extra=3))
    @settings(max_examples=300, deadline=None)
    def test_max_crossings_matches_span_hyperplane_path(self, case):
        d, pts = case
        seq = point_seq(pts, dim=d)
        # Degenerate paths too, to compare the errors.
        path = PolyPath._certified(seq)
        assert outcome(max_crossings, path) == \
            outcome(old_max_crossings, path)

    @pytest.mark.parametrize("d,n", [(1, 12), (2, 12), (3, 10), (4, 9)])
    def test_random_general_position_paths(self, d, n):
        rng = random.Random(d * 100 + n)
        done = 0
        while done < 5:
            seq = point_seq([[rng.randint(-50, 50) for _ in range(d)]
                             for _ in range(n)])
            if not is_general_position(seq):
                continue
            path = PolyPath(seq)
            assert max_crossings(path) == old_max_crossings(path)
            assert is_flip(seq) == old_is_flip(seq)
            assert outcome(is_order_type_homogeneous, seq) == \
                outcome(scan_homogeneous, seq)
            done += 1


def moment_seq(n, d):
    return point_seq([[Fraction(t, n) ** k for k in range(1, d + 1)]
                      for t in range(1, n + 1)])


def two_arc_seq(n, d):
    """n points of (t, ..., t^(d-1), t^(d+1)) at t = 1 + (d+2)k, k from
    -(n // 2) up.  A (d+1)-tuple has the sign of its t-sum, up to one
    sign for the whole path, and such sums are never 0, so the points are
    in general position and flip, but not homogeneous: the tuples of
    negative t and those of the largest t differ in sign."""
    powers = list(range(1, d)) + [d + 1]
    return point_seq([[(1 + (d + 2) * k) ** e for e in powers]
                      for k in range(-(n // 2), n - n // 2)], dim=d)


def count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestCounters:
    @pytest.mark.parametrize("d,n", [(1, 9), (2, 14), (3, 11), (4, 9)])
    def test_flip_makes_one_cofactor_run_per_subset(self, d, n,
                                                   monkeypatch):
        # The subset scan made one cofactor vector per d-subset, and the
        # first pencil sweep two per pencil.  On the quotient kernel the
        # pencils make none: one quotient per node of the prefix tree of
        # the (d-1)-subsets, n - 1 in the plane.  Homogeneous input takes
        # no pencil (TestConvexPath in test_alternation_certificate.py),
        # so the sweep runs on a flip path that is not homogeneous, after
        # the one alternation test that rejects it.
        seq = two_arc_seq(n, d)
        cofactors = [count_calls(monkeypatch, owner, "_cofactors")
                     for owner in (exactgeom, ordertype)]
        quotients = count_calls(monkeypatch, exactgeom, "_quotient")
        orients = count_calls(monkeypatch, PointSeq, "orientation_of")
        assert not exactgeom._alternating(seq._hom)
        certificate = len(quotients)
        quotients.clear()
        assert is_flip(seq)
        assert cofactors == [[], []]
        assert len(quotients) == certificate + sum(
            math.comb(n - d + j, j) for j in range(1, d))
        assert orients == []
        assert seq._sign_cache == {}

    @pytest.mark.parametrize("n", [4, 9, 16, 40])
    def test_spatial_homogeneity_scan(self, n, monkeypatch):
        # From R^3 up the witness kernel alone decides homogeneity, and
        # on homogeneous input it visits every anchor: one rank-3
        # alternating test of 3m - 8 determinants on the m rows after
        # each, plus the first tuple's sign.  That is O(n^2), where the
        # D-first scan it replaced made C(n - 1, 3) cofactor vectors.
        seq = moment_seq(n, 3)
        dets = count_calls(monkeypatch, exactgeom, "_det_sign")
        cofactors = count_calls(monkeypatch, ordertype, "_cofactors")
        orients = count_calls(monkeypatch, PointSeq, "orientation_of")
        assert is_order_type_homogeneous(seq).sign == 1
        assert len(dets) == 1 + sum(3 * m - 8 for m in range(3, n))
        assert cofactors == []
        assert orients == []

    def test_spatial_homogeneity_witness_is_quadratic(self, monkeypatch):
        # 130 points of (t, t^2, t^4), one per cell of width 1/128 from -1,
        # as the sampler places them at eps 1/64.  Four of them are
        # coplanar iff their t sum to 0, which this grid never does, and a
        # tuple's sign is that of the sum; only the last four sum above 0,
        # so the witness is the last tuple.  The witness kernel alone
        # decides it, from about 3 * C(n, 2) determinants (24,133), where
        # the alternating test ahead of it took as many again and the
        # scan read C(n, 4) = 11,358,880 orientations.
        n = 130
        ts = [Fraction(3 * i + 2, 384) - 1 for i in range(n)]
        seq = point_seq([(t, t * t, t ** 4) for t in ts])
        dets = count_calls(monkeypatch, exactgeom, "_det_sign")
        report = is_order_type_homogeneous(seq)
        assert report.witness == ((0, 1, 2, 3), (126, 127, 128, 129))
        assert len(dets) <= 3 * math.comb(n, 2) + 1
        # The first tuple's sign is one 4-row determinant; the only other
        # is the witness's re-check.
        assert [i for i, (rows,) in enumerate(dets) if len(rows) == 4] == \
            [0, len(dets) - 1]
        assert list(dets[0][0]) == list(seq._hom[:4])

    @pytest.mark.parametrize("d,n", [(3, 4), (3, 40), (4, 5), (4, 16)])
    def test_homogeneous_input_costs_one_determinant_more(self, d, n,
                                                          monkeypatch):
        # From R^3 up the witness kernel's anchors are the alternating
        # test's own; only the first tuple's sign is added.
        seq = moment_seq(n, d)
        dets = count_calls(monkeypatch, exactgeom, "_det_sign")
        assert exactgeom._alternating(seq._hom) == 1
        alone = len(dets)
        assert is_order_type_homogeneous(seq).sign == 1
        assert len(dets) - alone == alone + 1

    def test_general_position_uses_no_sign_cache(self, monkeypatch):
        seq = moment_seq(12, 3)
        orients = count_calls(monkeypatch, PointSeq, "orientation_of")
        assert is_general_position(seq)
        assert orients == []
        assert seq._sign_cache == {}

    def test_ramsey_scans_homogeneity_once(self, monkeypatch, tmp_path):
        # The 30-point moment-curve input of the benchmark's space workload
        # (seed 0): exact rationals t = r / 1000003, coordinates t, t^2, t^3.
        rng = random.Random("space:30:0")
        ts = sorted(Fraction(r, 1_000_003)
                    for r in rng.sample(range(1, 1_000_003), 30))
        path = tmp_path / "space-30.csv"
        path.write_text("".join(f"{t},{t ** 2},{t ** 3}\n" for t in ts),
                        encoding="utf-8")
        scans = []
        for owner in (cli, ramsey):
            scans.append(count_calls(monkeypatch, owner,
                                     "is_order_type_homogeneous"))
        # crossing reads the certificate instead, and so cannot scan.
        assert not hasattr(crossing, "is_order_type_homogeneous")
        assert cli.main(["ramsey", "--input", str(path)]) == 0
        assert sum(len(s) for s in scans) == 1

