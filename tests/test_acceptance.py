"""Acceptance gate: one test per shipped guarantee, in order.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Each test states its tolerance (exact unless noted) and
enforces the stated wall-clock budget.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from convexsplit.cli import main
from convexsplit.crossing import PolyPath, _swept, decompose, max_crossings
from convexsplit.curves import builtin, decompose_curve, epsilon_sample
from convexsplit.exactgeom import (det_rational, is_general_position,
                                   point_seq, project)
from convexsplit.kseq import (c_bound, from_points, from_table,
                              greedy_partition, reduce, verify_flip)
from convexsplit.ordertype import is_flip, is_order_type_homogeneous
from convexsplit.ramsey import (extraction_floor, is_super_ot_homogeneous,
                                super_extract)
from test_alternation_certificate import sweep_is_flip

F = Fraction


def random_affine_image(rng, base, d):
    """Random invertible affine image; preserves homogeneity and order."""
    while True:
        mat = [[F(rng.randint(-9, 9)) for _ in range(d)] for _ in range(d)]
        if det_rational(mat) != 0:
            break
    off = [F(rng.randint(-9, 9)) for _ in range(d)]
    return point_seq([
        tuple(sum(mat[r][c] * p[c] for c in range(d)) + off[r]
              for r in range(d))
        for p in base.points])


def random_gp_sequence(rng, d, n_max):
    """Uniform integer points, accept-reject to general position; one in
    five is an affine image of a moment-curve sample so both sides of the
    convexity equivalence show up."""
    while True:
        n = rng.randint(d + 2, n_max)
        if rng.random() < 0.2:
            ts = sorted(rng.sample(range(1, 8 * n), n))
            base = point_seq([tuple(F(t, 8 * n) ** j
                                    for j in range(1, d + 1)) for t in ts])
            seq = random_affine_image(rng, base, d)
        else:
            seq = point_seq([tuple(rng.randint(0, 30) for _ in range(d))
                             for _ in range(n)])
        if is_general_position(seq):
            return seq


@pytest.fixture(scope="module")
def equivalence_suite():
    """1000 planar and 300 spatial general-position sequences with their
    homogeneity and exact crossing-number verdicts.  The crossing number
    comes from the pencil sweep alone (_swept): max_crossings would
    answer convex input from the same alternation test that decides
    homogeneity, and the equivalence would hold by construction."""
    rng = random.Random(2017)
    started = time.perf_counter()
    rows = []
    for d, count, n_max in ((2, 1000, 9), (3, 300, 8)):
        for _ in range(count):
            seq = random_gp_sequence(rng, d, n_max)
            hom = bool(is_order_type_homogeneous(seq))
            mc = _swept(seq).max_crossings
            rows.append((seq, hom, mc))
    return rows, time.perf_counter() - started


def _curve_paths(rng):
    quartic = builtin("poly", coeffs=[[0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]],
                      domain=(F(1, 10), F(11, 10)))
    cubic = builtin("poly", coeffs=[[0, 1], [0, -1, 0, 1]],
                    domain=(F(-3, 2), F(3, 2)))
    configs = (
        [(builtin("quintic"), F(4, 11), seed) for seed in range(40)]
        + [(cubic, F(1, 2), seed) for seed in range(30)]
        + [(builtin("moment", dim=3), F(1, 4), seed) for seed in range(40)]
        + [(quartic, F(1, 4), seed) for seed in range(30)])
    for curve, eps, seed in configs:
        yield epsilon_sample(curve, eps, seed).path


def _random_crossing_paths(rng, d, count):
    out = []
    while len(out) < count:
        n = rng.randint(5, 6)
        seq = point_seq([tuple(rng.randint(0, 30) for _ in range(d))
                         for _ in range(n)])
        if not is_general_position(seq):
            continue
        path = PolyPath(seq)
        if _swept(seq).max_crossings <= d + 1:
            out.append(path)
    return out


@pytest.fixture(scope="module")
def crossing_path_suite():
    """200 paths certified (d+1)-crossing by the exact oracle, the pencil
    sweep, which convex input skips on a checked path."""
    rng = random.Random(3001)
    started = time.perf_counter()
    paths = list(_curve_paths(rng))
    paths += _random_crossing_paths(rng, 2, 30)
    paths += _random_crossing_paths(rng, 3, 30)
    assert len(paths) == 200
    for path in paths:
        d = path.seq.dim
        assert _swept(path.seq).max_crossings <= d + 1
    return paths, time.perf_counter() - started


def test_criterion_01_quintic_decomposes_into_exactly_4_pieces(capsys):
    started = time.perf_counter()
    code = main(["decompose-curve", "--curve", "quintic", "--eps", "1/100"])
    elapsed = time.perf_counter() - started
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["pieces"] == 4
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_02_quintic_n41_sample_is_3_crossing():
    started = time.perf_counter()
    sample = epsilon_sample(builtin("quintic"), F(4, 41))
    assert len(sample.path.seq) == 41
    assert max_crossings(sample.path).max_crossings == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_03_four_element_extremal_needs_3_blocks():
    started = time.perf_counter()
    elements = ("a1", "a2", "a3", "a4")
    table = {("a1", "a2"): 1, ("a3", "a4"): 1}
    for pair in itertools.combinations(elements, 2):
        table.setdefault(pair, -1)
    s = from_table(1, elements, table)
    assert verify_flip(s)
    assert greedy_partition(s).m == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_04_block_bound_recurrence_first_5_values():
    started = time.perf_counter()
    got = [c_bound(k) for k in range(1, 6)]
    assert got == [3, 28, F(619, 3), F(8053, 6), 8054]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_05_convexity_equals_d_crossing_on_1300_sequences(
        equivalence_suite):
    rows, elapsed = equivalence_suite
    assert len(rows) == 1300
    disagreements = [(seq.points, hom, mc) for seq, hom, mc in rows
                     if hom != (mc <= seq.dim)]
    assert disagreements == []
    assert elapsed < 600.0, f"took {elapsed:.2f}s, budget 600s"


def test_criterion_06_certified_paths_have_flip_sign_sequences(
        crossing_path_suite):
    paths, elapsed = crossing_path_suite
    started = time.perf_counter()
    # The sweep decides; is_flip, which answers homogeneous input from
    # the alternation test, must agree with it.
    violations = []
    for path in paths:
        report = sweep_is_flip(path.seq)
        if not report or is_flip(path.seq) != report:
            violations.append(path.seq.points)
    assert violations == []
    elapsed += time.perf_counter() - started
    assert elapsed < 600.0, f"took {elapsed:.2f}s, budget 600s"


def test_criterion_07_flip_sequences_respect_block_bound(
        equivalence_suite, crossing_path_suite):
    # geometric flip sequences from the suites above
    for seq, _, _ in equivalence_suite[0]:
        s = from_points(seq)
        if verify_flip(s):
            cap = c_bound(s.k)
            assert greedy_partition(s).m <= -(-cap.numerator
                                              // cap.denominator)
    for path in crossing_path_suite[0]:
        s = from_points(path.seq)
        cap = c_bound(s.k)
        assert greedy_partition(s).m <= -(-cap.numerator // cap.denominator)
    # exhaustive: every abstract flip 1-sequence on 5 elements has m <= 3
    elements = tuple(range(5))
    pairs = list(itertools.combinations(elements, 2))
    flips = 0
    for mask in range(2 ** len(pairs)):
        table = {pair: 1 if mask >> i & 1 else -1
                 for i, pair in enumerate(pairs)}
        s = from_table(1, elements, table)
        if verify_flip(s):
            flips += 1
            assert greedy_partition(s).m <= 3
    assert flips > 0


def test_criterion_08_reduction_postconditions_on_100_flip_sequences(
        crossing_path_suite):
    paths = crossing_path_suite[0]
    planar = [p for p in paths if p.seq.dim == 2]
    spatial = [p for p in paths if p.seq.dim == 3]
    chosen = planar[:50] + spatial[:50]
    assert len(chosen) == 100
    for path in chosen:
        s = from_points(path.seq)
        k = s.k
        before = greedy_partition(s)
        r = reduce(s)
        after = greedy_partition(r)
        assert after.m == before.m
        sizes = [hi - lo + 1 for lo, hi in after.blocks]
        assert all(size <= k + 3 for size in sizes[:-1])
        assert sizes[-1] == 2
        width = 2 * k + 5
        for lo in range(0, len(r) - width + 1):
            window = range(lo, lo + width)
            signs = {r.sign_at(comb)
                     for comb in itertools.combinations(window, k + 1)}
            assert signs == {-1, 1}


def test_criterion_09_dented_arc_piece_counts_grow_without_bound():
    counts = []
    for m in (2, 4, 6, 8, 10):
        dc = decompose_curve(builtin("dented_arc", dents=m,
                                     depth=F(1, 4 * m * m)), F(1, 12 * m))
        counts.append(dc.pieces)
    assert all(a < b for a, b in zip(counts, counts[1:])), counts
    assert all(c >= m for c, m in zip(counts, (2, 4, 6, 8, 10))), counts


def test_criterion_10_extraction_pipeline_on_50_homogeneous_inputs():
    rng = random.Random(4099)
    base = epsilon_sample(builtin("moment", dim=3), F(1, 15)).path.seq
    assert len(base) == 30
    floor = extraction_floor(30, 3)
    done = 0
    while done < 50:
        seq = random_affine_image(rng, base, 3)
        if not all(is_general_position(project(seq, k)) for k in (1, 2, 3)):
            continue
        trace = super_extract(seq)
        final = trace.final
        # stated bound: |final| >= 30 / (ceil(c(2)) * ceil(c(1)))
        assert len(final) * 28 * 3 >= 30
        assert len(final) >= floor
        assert is_super_ot_homogeneous(final)
        done += 1
