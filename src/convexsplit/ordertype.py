"""Order-type homogeneity, sign sequences of d-subsets, and the flip test.

A sequence of points in R^d is order-type homogeneous when all its
(d+1)-tuples have the same orientation sign.  For a d-subset R, the sign
sequence of R lists the orientation of {p_i} union R over the remaining
points in order; the sequence has the flip property when every R's sign
sequence changes sign at most once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactgeom import GeneralPositionError, PointSeq, _cofactors, _dots


@dataclass(frozen=True)
class SignSeq:
    """Sign sequence of the d-subset ``subset``: one entry per point not in
    it, in sequence order.  Entries are strictly +-1."""

    subset: tuple[int, ...]
    entries: tuple[int, ...]


@dataclass(frozen=True)
class HomogeneityReport:
    homogeneous: bool
    sign: int | None = None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        return self.homogeneous


@dataclass(frozen=True)
class FlipReport:
    flip: bool
    witness: SignSeq | None = None

    def __bool__(self) -> bool:
        return self.flip


def tuple_sign(seq: PointSeq, idx: Sequence[int]) -> int:
    """Orientation of the (dim+1) points at strictly increasing ``idx``."""
    idx = tuple(idx)
    if len(idx) != seq.dim + 1:
        raise ValueError(f"need {seq.dim + 1} indices, got {len(idx)}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    if idx and not 0 <= idx[0] <= idx[-1] < len(seq):
        raise IndexError("index out of range")
    s = seq.orientation_of(idx)
    if s == 0:
        _raise_dependent(idx)
    return s


def _raise_dependent(idx: tuple[int, ...]):
    raise GeneralPositionError(f"affinely dependent tuple {idx}", idx)


def convex_chain_extends(seq: PointSeq, start: int, last: int, q: int,
                         sigma: int) -> bool:
    """Does the planar block start..last, homogeneous with sign ``sigma``
    and at least 3 points long, stay homogeneous when q > last joins it?

    Three orientations decide it: the turns at p_last, at q and at
    p_start of the closed polygon p_start..p_last, q, i.e.
    orient(p_{last-1}, p_last, q), orient(p_start, p_last, q) and
    orient(p_start, p_{start+1}, q) must all equal sigma.

    Proof (sigma = +1; mirror the plane for -1).  A planar sequence has
    every triple positive iff, read as a closed polygon, each directed
    edge has every other vertex strictly on its left, i.e. iff it is a
    strictly convex polygon listed counterclockwise: for an edge
    p_i p_{i+1} the triples (i, i+1, k) and (k, i, i+1) are positive, and
    for the closing edge p_m p_s, orient(p_m, p_s, p_k) =
    orient(p_s, p_k, p_m) > 0.  Necessity of the three signs is then
    immediate, as they are triples of the extended sequence.  For
    sufficiency, the old block sees p_{start+1}, ..., p_last from p_start
    in strictly counterclockwise order within an angle below pi, all left
    of the ray p_start p_{start+1}.  orient(p_start, p_{start+1}, q) > 0
    puts q left of that ray too, and orient(p_start, p_last, q) > 0 puts
    it counterclockwise after p_last, so the fan from p_start still
    spans less than pi and its triangles p_start p_j p_{j+1} and
    p_start p_last q are positive and pairwise interior-disjoint.  The
    new closed polygon is the union of that fan, hence simple.  Its turns
    at the old inner vertices are unchanged, and the turns at p_last, q
    and p_start are the three checked signs, so every turn is left.  A
    simple polygon turning left at every vertex is strictly convex and
    counterclockwise, so every triple of the extended sequence is
    positive.

    Indices must satisfy start + 2 <= last < q.  No analogue is known for
    d >= 3, where callers keep the exhaustive scan.
    """
    o = seq.orientation_of
    return (o((last - 1, last, q)) == sigma
            and o((start, last, q)) == sigma
            and o((start, start + 1, q)) == sigma)


def _local_sign(seq: PointSeq) -> int | None:
    """Common sign of a d <= 2 sequence from O(n) local orientations.

    d = 1: all consecutive pairs share a sign iff the coordinates are
    strictly monotone, iff every pair does.  d = 2: the first triple fixes
    sigma and each later point must pass convex_chain_extends against the
    prefix before it.  Returns None when some local sign is 0 or -sigma;
    the sequence is then either degenerate or not homogeneous.
    """
    n, o = len(seq), seq.orientation_of
    if seq.dim == 1:
        sigma = o((0, 1))
        if sigma and all(o((i - 1, i)) == sigma for i in range(2, n)):
            return sigma
        return None
    sigma = o((0, 1, 2))
    if sigma and all(convex_chain_extends(seq, 0, m - 1, m, sigma)
                     for m in range(3, n)):
        return sigma
    return None


def is_order_type_homogeneous(seq: PointSeq) -> HomogeneityReport:
    """Common orientation sign of all (d+1)-tuples, if there is one.

    For d <= 2 a local test settles homogeneous input with at most 3n
    orientations (see convex_chain_extends).  Otherwise, and whenever a
    local sign is 0 or opposite, all C(n, d+1) tuples are scanned in
    lexicographic order: the witness, when present, is the
    lexicographically least pair of opposite-sign tuples, and a zero
    orientation met before any such pair raises GeneralPositionError.
    The scan runs D-first, in the same order: each d-subset D of the first
    n-1 points, then every later point i, at the cost of C(n-1, d)
    cofactor vectors and C(n, d+1) integer dot products.
    """
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    if d <= 2:
        sigma = _local_sign(seq)
        if sigma is not None:
            return HomogeneityReport(True, sign=sigma)
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


def sign_sequence(seq: PointSeq, subset: Sequence[int]) -> SignSeq:
    """Sign sequence of the d-subset ``subset`` over the remaining points.

    Entry i is the orientation of the sorted tuple D + {i}, D = sorted
    ``subset``.  With c = c(D) the cofactor vector of D's rows, that is
    (-1)^#{j in D : j > i} * sign(c . hom(i)): moving row i from last
    place to its sorted place takes one swap per member of D above it.
    So the sequence costs one cofactor vector and n - d integer dot
    products, and no sign cache.  A repeated index raises ValueError, one
    out of range IndexError, and the first zero entry GeneralPositionError
    with the sorted tuple as witness.
    """
    subset = tuple(subset)
    d, n = seq.dim, len(seq)
    if len(subset) != d:
        raise ValueError(f"need a {d}-subset, got {len(subset)}")
    members = set(subset)
    if members.issuperset(range(n)):
        return SignSeq(subset, ())
    D = sorted(subset)
    if len(members) < d:
        raise ValueError("indices must be strictly increasing")
    if D[0] < 0 or D[-1] >= n:
        raise IndexError("index out of range")
    hom = seq._hom
    vals = _dots(_cofactors([hom[j] for j in D]), hom)
    entries = []
    parity = -1 if d % 2 else 1
    lo = 0
    for hi in D + [n]:
        seg = vals[lo:hi]
        if 0 in seg:
            _raise_dependent(tuple(sorted(D + [lo + seg.index(0)])))
        entries += [parity if v > 0 else -parity for v in seg]
        parity = -parity
        lo = hi + 1
    return SignSeq(subset, tuple(entries))


def count_sign_changes(s) -> int:
    """Number of adjacent sign flips; zero entries are hard errors."""
    entries = s.entries if isinstance(s, SignSeq) else tuple(s)
    if any(e == 0 for e in entries):
        raise ValueError("sign sequence contains a zero entry")
    return sum(1 for a, b in zip(entries, entries[1:]) if a != b)


def is_flip(seq: PointSeq) -> FlipReport:
    """True iff every d-subset's sign sequence has at most one sign change.

    Exhaustive over all C(n, d) subsets; the reported violation is the
    lexicographically least one.  Each subset D costs one cofactor vector
    c(D) and n - d dot products (see sign_sequence), so C(n, d) cofactor
    vectors and about n * C(n, d) dot products in all; every (d+1)-tuple
    is evaluated d+1 times, once from each of its d-subsets, which is
    cheaper than storing it.
    """
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    for subset in itertools.combinations(range(n), d):
        ss = sign_sequence(seq, subset)
        if count_sign_changes(ss) > 1:
            return FlipReport(False, witness=ss)
    return FlipReport(True)
