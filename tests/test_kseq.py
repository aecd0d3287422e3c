"""Abstract k-sequences: greedy partition, reduction, block-count bound."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsplit.exactgeom import point_seq
from convexsplit.kseq import (KNOWN_BOUNDS, KSequence, c_bound,
                              from_json_dict, from_points, from_table,
                              greedy_partition, reduce, to_json_dict,
                              verify_flip)

ZIGZAG = point_seq([(0, 0), (1, 1), (2, 0), (3, 1)])


def pairs_example():
    """k=1 on (a1..a4): pairs (a1,a2) and (a3,a4) positive, rest negative.

    The extremal example showing three blocks are necessary for flip
    1-sequences.
    """
    elements = ("a1", "a2", "a3", "a4")
    table = {("a1", "a2"): 1, ("a3", "a4"): 1}
    for pair in itertools.combinations(elements, 2):
        table.setdefault(pair, -1)
    return from_table(1, elements, table)


def flip_counterexample():
    """k=1 on (a1..a4): (a1,a2), (a1,a4) negative, (a1,a3) positive, rest
    positive; the singleton {a1} sees (-,+,-)."""
    elements = ("a1", "a2", "a3", "a4")
    table = {("a1", "a2"): -1, ("a1", "a3"): 1, ("a1", "a4"): -1}
    for pair in itertools.combinations(elements, 2):
        table.setdefault(pair, 1)
    return from_table(1, elements, table)


def brute_min_blocks(s: KSequence) -> int:
    """Minimum one-point-overlap contiguous partition into monochromatic
    blocks, by exhaustive recursion."""
    n, k = len(s), s.k

    def seg_ok(lo, hi):
        sigma = None
        for comb in itertools.combinations(range(lo, hi + 1), k + 1):
            t = s.sign_at(comb)
            if sigma is None:
                sigma = t
            elif t != sigma:
                return False
        return True

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i):
        if i == n - 1 or seg_ok(i, n - 1):
            return 1
        return 1 + min(best(j) for j in range(i + 1, n)
                       if seg_ok(i, j))

    return best(0)


class TestKSequence:
    def test_distinct_elements_required(self):
        with pytest.raises(ValueError):
            KSequence(1, ["a", "a"], lambda ids: 1)

    def test_oracle_values_validated(self):
        s = KSequence(1, ["a", "b"], lambda ids: 0)
        with pytest.raises(ValueError):
            s.sign_at((0, 1))

    def test_sign_by_ids_any_order(self):
        s = pairs_example()
        assert s.sign(("a2", "a1")) == 1
        assert s.sign(("a4", "a1")) == -1

    def test_from_table_must_be_complete(self):
        with pytest.raises(ValueError):
            from_table(1, ("x", "y", "z"), {("x", "y"): 1, ("x", "z"): 1})

    @pytest.mark.parametrize("sign", [7, 0, True, 1.0, "1", None])
    def test_from_table_takes_only_the_int_signs(self, sign):
        # True == 1 in Python, but a JSON true is not a sign.
        table = {("x", "y"): 1, ("x", "z"): -1, ("y", "z"): sign}
        with pytest.raises(ValueError, match="must be -1 or \\+1"):
            from_table(1, ("x", "y", "z"), table)

    def test_restrict_keeps_oracle(self):
        s = pairs_example()
        r = s.restrict([0, 2, 3])
        assert r.elements == ("a1", "a3", "a4")
        assert r.sign_at((0, 1)) == s.sign(("a1", "a3"))
        assert r.sign_at((1, 2)) == 1


class TestGreedyPartition:
    def test_pairs_example_has_three_blocks(self):
        gp = greedy_partition(pairs_example())
        assert gp.blocks == ((0, 1), (1, 2), (2, 3))
        assert gp.m == 3

    def test_constant_oracle_single_block(self):
        s = KSequence(2, range(8), lambda ids: 1)
        gp = greedy_partition(s)
        assert gp.blocks == ((0, 7),)
        assert gp.signs == (1,)
        assert gp.witnesses == (None,)

    def test_zigzag_blocks(self):
        gp = greedy_partition(from_points(ZIGZAG))
        assert gp.blocks == ((0, 2), (2, 3))
        assert gp.signs == (-1, None)
        assert gp.witnesses == ((0, 2), None)

    def test_single_element(self):
        s = KSequence(1, ["x"], lambda ids: 1)
        gp = greedy_partition(s)
        assert gp.blocks == ((0, 0),)
        assert gp.signs == (None,)

    def test_last_block_sign_set_when_big_enough(self):
        # k=1, values -,+ : two blocks, last has 2 > k elements
        table = {(0, 1): -1, (0, 2): 1, (1, 2): 1}
        gp = greedy_partition(from_table(1, range(3), table))
        assert gp.blocks == ((0, 1), (1, 2))
        assert gp.signs == (-1, 1)

    def _random_table(self, rng, k, n):
        elements = tuple(range(n))
        table = {sub: rng.choice((-1, 1))
                 for sub in itertools.combinations(elements, k + 1)}
        return from_table(k, elements, table)

    def test_minimality_matches_brute_force(self):
        import random
        rng = random.Random(11)
        for _ in range(120):
            k = rng.choice((1, 2))
            n = rng.randint(k + 1, 9)
            s = self._random_table(rng, k, n)
            assert greedy_partition(s).m == brute_min_blocks(s)

    def test_witnesses_certify_maximality(self):
        import random
        rng = random.Random(3)
        for _ in range(40):
            k = rng.choice((1, 2))
            n = rng.randint(k + 2, 9)
            s = self._random_table(rng, k, n)
            gp = greedy_partition(s)
            for j in range(gp.m - 1):
                lo, hi = gp.blocks[j]
                nxt = hi + 1
                wit = gp.witnesses[j]
                assert lo <= wit[0] and wit[-1] <= hi
                assert s.sign_at(wit + (nxt,)) != gp.signs[j]

    @given(st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=200)
    def test_structure_on_random_1_tables(self, mask):
        elements = tuple(range(5))
        pairs = list(itertools.combinations(elements, 2))
        table = {p: (1 if mask >> i & 1 else -1)
                 for i, p in enumerate(pairs)}
        s = from_table(1, elements, table)
        gp = greedy_partition(s)
        # blocks tile [0, n-1] with one-point overlaps
        assert gp.blocks[0][0] == 0
        assert gp.blocks[-1][1] == len(s) - 1
        for (_, hi), (lo2, _) in zip(gp.blocks, gp.blocks[1:]):
            assert lo2 == hi
        # non-last blocks are monochromatic with >= k+1 elements
        for j, (lo, hi) in enumerate(gp.blocks[:-1]):
            assert hi - lo + 1 >= s.k + 1
            for comb in itertools.combinations(range(lo, hi + 1), s.k + 1):
                assert s.sign_at(comb) == gp.signs[j]


class TestCBound:
    def test_frozen_values(self):
        assert c_bound(1) == 3
        assert c_bound(2) == 28
        assert c_bound(3) == Fraction(619, 3)
        assert c_bound(4) == Fraction(8053, 6)
        assert c_bound(5) == 8054
        assert c_bound(6) == Fraction(136921, 3)
        assert c_bound(7) == Fraction(5203019, 21)

    def test_recurrence_step(self):
        for k in range(2, 12):
            assert c_bound(k) == 1 + Fraction(4 * k + 10) * c_bound(k - 1) / k

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            c_bound(0)

    def test_known_bounds_table(self):
        assert KNOWN_BOUNDS == {"c1": 3, "c2_le": 22, "M1": 3, "M2": 4,
                                "M3_le": 22}


class TestVerifyFlip:
    def test_pairs_example_is_flip(self):
        assert verify_flip(pairs_example())

    def test_constant_is_flip(self):
        assert verify_flip(KSequence(2, range(6), lambda ids: -1))

    def test_counterexample_witness(self):
        report = verify_flip(flip_counterexample())
        assert not report
        assert report.witness == ("a1",)
        assert report.witness_signs == (-1, 1, -1)

    def test_flip_1_sequences_need_at_most_3_blocks(self):
        # exhaustive over all sign tables on 5 elements
        elements = tuple(range(5))
        pairs = list(itertools.combinations(elements, 2))
        flips = 0
        for mask in range(2 ** len(pairs)):
            table = {p: (1 if mask >> i & 1 else -1)
                     for i, p in enumerate(pairs)}
            s = from_table(1, elements, table)
            if verify_flip(s):
                flips += 1
                assert greedy_partition(s).m <= 3
        assert flips > 0


def geometric_flip_sequences():
    """Small k=2 flip sequences sampled from 3-crossing graphs."""
    from convexsplit.curves import builtin, epsilon_sample
    out = []
    for seed in range(3):
        path = epsilon_sample(builtin("quintic"), Fraction(4, 11),
                              seed=seed).path
        out.append(from_points(path.seq))
    cubic = builtin("poly", coeffs=[[0, 1], [0, -1, 0, 1]],
                    domain=(Fraction(-3, 2), Fraction(3, 2)))
    for seed in range(2):
        path = epsilon_sample(cubic, Fraction(1, 2), seed=seed).path
        out.append(from_points(path.seq))
    return out


class TestReduce:
    def test_pairs_example_unchanged(self):
        s = pairs_example()
        r = reduce(s)
        assert r.elements == s.elements

    def test_long_single_sign_prefix(self):
        # k=1: nine increasing values then two decreasing; first block
        # shrinks to <= 4 elements, block count preserved
        vals = list(range(9)) + [8 - Fraction(1, 2), 8 - Fraction(3, 4)]
        s = from_points(point_seq([(v,) for v in vals]))
        before = greedy_partition(s)
        r = reduce(s)
        after = greedy_partition(r)
        assert after.m == before.m
        sizes = [hi - lo + 1 for lo, hi in after.blocks]
        assert all(size <= s.k + 3 for size in sizes[:-1])
        assert sizes[-1] == 2
        assert len(r) < len(s)

    def _assert_postconditions(self, s):
        k = s.k
        before = greedy_partition(s)
        r = reduce(s)
        after = greedy_partition(r)
        assert after.m == before.m
        sizes = [hi - lo + 1 for lo, hi in after.blocks]
        assert all(size <= k + 3 for size in sizes[:-1])
        if len(s) >= 2:
            assert sizes[-1] == 2
        # every window of 2k+5 consecutive elements sees both signs
        n = len(r)
        width = 2 * k + 5
        for lo in range(0, n - width + 1):
            window = range(lo, lo + width)
            signs = {r.sign_at(comb)
                     for comb in itertools.combinations(window, k + 1)}
            assert signs == {-1, 1}

    def test_postconditions_on_geometric_flips(self):
        for s in geometric_flip_sequences():
            assert verify_flip(s)
            self._assert_postconditions(s)

    def test_postconditions_on_random_tables(self):
        import random
        rng = random.Random(23)
        for _ in range(60):
            k = rng.choice((1, 2))
            n = rng.randint(k + 1, 10)
            elements = tuple(range(n))
            table = {sub: rng.choice((-1, 1))
                     for sub in itertools.combinations(elements, k + 1)}
            self._assert_postconditions(from_table(k, elements, table))


class TestJson:
    def test_round_trip(self):
        s = from_points(ZIGZAG)
        obj = to_json_dict(s)
        back = from_json_dict(obj)
        assert back.elements == s.elements
        for comb in itertools.combinations(range(len(s)), 3):
            assert back.sign_at(comb) == s.sign_at(comb)
        assert greedy_partition(back).blocks == \
            greedy_partition(s).blocks

    def test_shape(self):
        obj = to_json_dict(pairs_example())
        assert obj["k"] == 1
        assert obj["elements"] == ["a1", "a2", "a3", "a4"]
        assert {"subset": ["a1", "a2"], "sign": 1} in obj["signs"]
        assert len(obj["signs"]) == 6
