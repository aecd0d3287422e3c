"""Abstract k-sequences: greedy partition, reduction, and the block bound.

A k-sequence is an ordered list of distinct elements plus a total sign
oracle on (k+1)-subsets.  The greedy partition slices it left to right into
maximal one-point-overlapping blocks whose (k+1)-subsets are monochromatic;
``reduce`` shrinks a sequence to a short one with the same block count; and
``c_bound`` evaluates the exact rational recurrence bounding the block count
of any flip k-sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import exactgeom
from .exactgeom import (PointSeq, _alternating, _extends, _least_bad,
                        _quotient)
from .ordertype import _raise_dependent, tuple_sign

#: Sharper small-case constants known beyond what the recurrence yields;
#: recorded for reference and surfaced by the CLI `bounds` command, never
#: asserted as recurrence outputs.
KNOWN_BOUNDS = {"c1": 3, "c2_le": 22, "M1": 3, "M2": 4, "M3_le": 22}


class KSequence:
    """Ordered distinct elements with a total sign oracle.

    ``sign_fn`` receives a (k+1)-tuple of element ids in sequence order and
    must return -1 or +1 for every such subset; every answer is checked.
    """

    def __init__(self, k: int, elements: Iterable, sign_fn: Callable):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("elements must be distinct")
        self._pos = {e: i for i, e in enumerate(self.elements)}
        self._sign_fn = sign_fn
        # set by from_points when positions align with a PointSeq; lets
        # _extend decide geometric blocks from local determinants
        self._points: PointSeq | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def sign_at(self, positions: tuple[int, ...]) -> int:
        """Sign of the (k+1)-subset at strictly increasing positions."""
        if len(positions) != self.k + 1:
            raise ValueError(f"need {self.k + 1} positions")
        s = self._sign_fn(tuple(self.elements[i] for i in positions))
        if s not in (-1, 1):
            raise ValueError(f"sign oracle returned {s!r}")
        return s

    def sign(self, subset: Iterable) -> int:
        """Sign of a (k+1)-subset given as element ids, any order."""
        positions = tuple(sorted(self._pos[e] for e in subset))
        return self.sign_at(positions)

    def restrict(self, positions: Sequence[int]) -> "KSequence":
        """Subsequence at the given ascending positions, same oracle."""
        sub = tuple(self.elements[i] for i in positions)
        return KSequence(self.k, sub, lambda ids: self.sign(ids))


def from_points(seq: PointSeq) -> KSequence:
    """Geometric k-sequence: k = dim, oracle = orientation sign."""
    label_pos = {lab: i for i, lab in enumerate(seq.labels)}

    def oracle(ids):
        return tuple_sign(seq, tuple(sorted(label_pos[e] for e in ids)))

    s = KSequence(seq.dim, seq.labels, oracle)
    s._points = seq
    return s


def from_table(k: int, elements: Iterable, table: Mapping) -> KSequence:
    """Abstract k-sequence from a complete sign table.

    Table keys may be tuples or frozensets of element ids; the table must
    cover every (k+1)-subset, and every sign must be the int -1 or +1
    (not a bool or a float), read or not.
    """
    elements = tuple(elements)
    canon: dict[frozenset, int] = {}
    for key, sign in table.items():
        if type(sign) is not int or sign not in (-1, 1):
            raise ValueError(f"sign of {key} must be -1 or +1, "
                             f"got {sign!r}")
        canon[frozenset(key)] = sign
    for subset in itertools.combinations(elements, k + 1):
        if frozenset(subset) not in canon:
            raise ValueError(f"sign table is missing subset {subset}")
    return KSequence(k, elements, lambda ids: canon[frozenset(ids)])


def to_json_dict(s: KSequence) -> dict:
    """Complete serialization; forces evaluation of the whole oracle."""
    signs = []
    for positions in itertools.combinations(range(len(s)), s.k + 1):
        signs.append({
            "subset": [s.elements[i] for i in positions],
            "sign": s.sign_at(positions),
        })
    return {"k": s.k, "elements": list(s.elements), "signs": signs}


def from_json_dict(obj: Mapping) -> KSequence:
    table = {tuple(entry["subset"]): entry["sign"] for entry in obj["signs"]}
    return from_table(obj["k"], obj["elements"], table)


@dataclass(frozen=True)
class GreedyPartition:
    """Blocks as inclusive position intervals with one-point overlaps.

    ``signs[j]`` is None only for a last block of <= k elements; for j < m-1
    ``witnesses[j]`` is the lexicographically least k-subset D of block j
    with sign(D + next element) != signs[j].
    """

    blocks: tuple[tuple[int, int], ...]
    signs: tuple[int | None, ...]
    witnesses: tuple[tuple[int, ...] | None, ...]

    @property
    def m(self) -> int:
        return len(self.blocks)


def _extend(s: KSequence, start: int, nxt: int, sigma: int | None
            ) -> tuple[tuple[int, ...] | None, int | None]:
    """Can element nxt join the block [start, nxt)?  All new (k+1)-subsets
    must have sign sigma; an open sigma is fixed by the first one.

    Returns (witness, sigma).  The witness is None when nxt joins, else
    the least k-subset D, in lexicographic order, with sign(D + nxt) !=
    sigma; a zero sign met first raises tuple_sign's GeneralPositionError.

    Geometric blocks are tested on their homogeneous rows (see
    exactgeom._alternating).  In R^1 and R^2, once sigma is set, the
    block's rows already alternate, and exactgeom._extends decides nxt
    from 2 or 3 determinants; while sigma is open the block has k points,
    and the k + 1 rows with nxt take one determinant.  In R^k for k >= 3,
    nxt joins when the block's rows modulo hom(nxt) are alternating, as
    sign(D + nxt) = (-1)^k * eps * det(D mod hom(nxt)) with eps from
    exactgeom._quotient (moving hom(nxt) to the front takes k swaps).  On
    rejection, exactgeom._least_bad finds the witness on those rows, in
    every dimension: from O(b) determinants for a block of b points in R^1
    and R^2, and O(b^max(2, k-2)) in R^k for k >= 3.  Abstract sequences
    read every new subset from sign_at.
    """
    seq = s._points
    if seq is None:
        for comb in itertools.combinations(range(start, nxt), s.k):
            t = s.sign_at(comb + (nxt,))
            if sigma is None:
                sigma = t
            elif t != sigma:
                return comb, sigma
        return None, sigma
    hom = seq._hom
    if s.k < 3:
        if sigma:
            t = sigma if _extends(hom, start, nxt, sigma) else 0
        else:
            t = _alternating(hom[start:nxt + 1])
        if t:
            return None, t
    rows, eps = _quotient(hom[start:nxt], hom[nxt])
    parity = -eps if s.k % 2 else eps
    if s.k >= 3:
        t = _alternating(rows, sigma * parity if sigma else 0) * parity
        if t:
            return None, t
    # Signs are read through the module, where the counters patch them.
    det_sign = exactgeom._det_sign
    sigma = sigma or det_sign(hom[start:start + s.k] + (hom[nxt],))
    # A zero first subset is the least witness for either sign.
    wit = _least_bad(rows, (sigma or 1) * parity)
    if wit is not None:
        wit = tuple(map(start.__add__, wit))
        if not det_sign([hom[i] for i in wit + (nxt,)]):
            _raise_dependent(wit + (nxt,))
    return wit, sigma


def greedy_partition(s: KSequence) -> GreedyPartition:
    """Left-to-right maximal partition into monochromatic blocks.

    Each candidate element is tested against the (k+1)-subsets it forms
    with the current block.  Geometric sequences need O(1) determinants
    per accepted element in R^1 and R^2, so O(n) over a convex path, and
    O(b^(k-2)) in R^k for k >= 3, so O(n^2) over a convex path in R^3
    (see _extend); other sequences check all C(b, k) new subsets for a
    block of b elements.  A block's witness is the subset on which
    _extend rejected its successor, so no second scan builds it; its
    search reads O(b) determinants in R^1 and R^2, so a planar partition
    takes O(n) in all, and O(b^max(2, k-2)) in R^k for k >= 3.
    """
    n = len(s)
    if n < 1:
        raise ValueError("empty sequence has no greedy partition")
    k = s.k
    blocks, signs, witnesses = [], [], []
    start = 0
    while True:
        end = start
        sigma: int | None = None
        wit: tuple[int, ...] | None = None
        while end + 1 < n:
            nxt = end + 1
            if nxt - start + 1 <= k:
                end = nxt
                continue
            wit, sigma = _extend(s, start, nxt, sigma)
            if wit is not None:
                break
            end = nxt
        blocks.append((start, end))
        if wit is None:
            # ran out of elements: last block; sign only if big enough
            signs.append(sigma if end - start + 1 > k else None)
            witnesses.append(None)
            break
        signs.append(sigma)
        witnesses.append(wit)
        start = end
    return GreedyPartition(tuple(blocks), tuple(signs), tuple(witnesses))


def reduce(s: KSequence) -> KSequence:
    """The reduced subsequence: same block count, every block <= k+3
    elements, last block exactly 2 (for sequences with >= 2 elements)."""
    gp = greedy_partition(s)
    kept: set[int] = set()
    last = gp.m - 1
    for j, (lo, hi) in enumerate(gp.blocks):
        if j == last:
            kept |= {lo, min(lo + 1, hi)}
            continue
        named = {lo, lo + 1, hi}
        wit = set(gp.witnesses[j])
        chosen = named | wit
        if named <= wit:
            # least-index element of the block not yet kept
            chosen.add(next(i for i in range(lo, hi + 1) if i not in chosen))
        kept |= chosen
    return s.restrict(sorted(kept))


def iter_c_bounds() -> Iterator[Fraction]:
    """c(1), c(2), ...: one step of the c_bound recurrence per value."""
    c, k = Fraction(3), 1
    while True:
        yield c
        k += 1
        c = 1 + Fraction(4 * k + 10) * c / k


def c_bound(k: int) -> Fraction:
    """Exact rational block-count bound for flip k-sequences.

    Base 3 for k = 1, then c(k) = 1 + (4k+10) c(k-1) / k.  Consumers that
    need an integer block bound take the ceiling; consumers that need a
    range of k read iter_c_bounds once instead.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return next(itertools.islice(iter_c_bounds(), k - 1, None))


@dataclass(frozen=True)
class AbstractFlipReport:
    flip: bool
    witness: tuple | None = None
    witness_signs: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.flip


def verify_flip(s: KSequence) -> AbstractFlipReport:
    """True iff every k-subset's sign sequence has <= 1 sign change.

    Exhaustive over all C(n, k) subsets; the witness (element ids, with its
    sign sequence) is the lexicographically least violating one.
    """
    n, k = len(s), s.k
    for subset in itertools.combinations(range(n), k):
        members = set(subset)
        entries = []
        changes = 0
        prev = 0
        for i in range(n):
            if i in members:
                continue
            t = s.sign_at(tuple(sorted(subset + (i,))))
            entries.append(t)
            if prev and t != prev:
                changes += 1
            prev = t
        if changes > 1:
            return AbstractFlipReport(
                False,
                witness=tuple(s.elements[i] for i in subset),
                witness_signs=tuple(entries))
    return AbstractFlipReport(True)
