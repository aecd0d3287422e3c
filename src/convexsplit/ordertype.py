"""Order-type homogeneity, sign sequences of d-subsets, and the flip test.

A sequence of points in R^d is order-type homogeneous when all its
(d+1)-tuples have the same orientation sign.  For a d-subset R, the sign
sequence of R lists the orientation of {p_i} union R over the remaining
points in order; the sequence has the flip property when every R's sign
sequence changes sign at most once.

Homogeneity is decided on the points' homogeneous rows by one quotient
recursion: in R^1 and R^2 by exactgeom._alternating, from O(n)
determinants, and from R^3 up, or where that fails, by
exactgeom._least_bad, from O(n^max(2, d-1)) determinants, which also
names the witness.

On input that is not convex, one sweep kernel serves the flip test and
the crossing oracle (crossing.max_crossings): _pencils turns a
hyperplane about every d - 1 points F and counts, for every further
point p, the most crossings of the path with a hyperplane through
F + (p,).  That count is d plus the sign changes of the sign sequence
of F + (p,) (see is_flip), so a general-position sequence is flip iff
its path is (d+1)-crossing.  The plane of each pencil is the rows
modulo F, taken by the same quotient recursion as homogeneity, one
quotient per prefix of F shared by every F that starts with it, so no
cofactor vector is built.  The C(n-1, d-1) pencils take
O(n^(d-1) * n log n) operations, against O(n^(d+1)) for reading every
d-subset's sign sequence.  Convex input, whose rows alternate, is flip
and d-crossing without a sweep (see is_flip).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from . import exactgeom
from .exactgeom import (GeneralPositionError, PointSeq, _Record,
                        _alternating, _cofactors, _dots, _least_bad)


class SignSeq(_Record):
    """Sign sequence of the d-subset ``subset``: one entry per point not in
    it, in sequence order.  Entries are strictly +-1."""

    _fields = ("subset", "entries")

    def __init__(self, subset: tuple[int, ...], entries: tuple[int, ...]):
        self._fill(subset, entries)


class HomogeneityReport(_Record):
    _fields = ("homogeneous", "sign", "witness")

    def __init__(self, homogeneous: bool, sign: int | None = None,
                 witness: tuple[tuple[int, ...], tuple[int, ...]]
                 | None = None):
        self._fill(homogeneous, sign, witness)

    def __bool__(self) -> bool:
        return self.homogeneous


class FlipReport(_Record):
    _fields = ("flip", "witness")

    def __init__(self, flip: bool, witness: SignSeq | None = None):
        self._fill(flip, witness)

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


def is_order_type_homogeneous(seq: PointSeq) -> HomogeneityReport:
    """Common orientation sign of all (d+1)-tuples, if there is one.

    In R^1 and R^2 homogeneous input is settled by exactgeom._alternating
    on the homogeneous rows, with 2n - 3 and at most 3n determinants.
    Where that fails, and from R^3 up at once, the first tuple's sign is
    the candidate and exactgeom._least_bad names the least tuple whose
    sign differs from it, the witness, from O(n^max(2, d-1))
    determinants; 3 * C(n, 2) at most in R^3.  From R^3 up the kernel's
    anchors are _alternating's own, so homogeneous input costs one
    determinant more than _alternating alone, and other input half of
    running both.  A zero orientation before the witness raises
    GeneralPositionError.
    """
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    hom = seq._hom
    if d < 3:
        sigma = _alternating(hom)
        if sigma:
            return HomogeneityReport(True, sign=sigma)
    sigma = exactgeom._det_sign(hom[:d + 1])
    # A zero first tuple is the least witness for either sign.
    wit = _least_bad(hom, sigma or 1)
    if wit is None:
        return HomogeneityReport(True, sign=sigma)
    if not exactgeom._det_sign([hom[i] for i in wit]):
        _raise_dependent(wit)
    return HomogeneityReport(False, witness=(tuple(range(d + 1)), wit))


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


def _pencils(hom, d: int):
    """Sweep the pencil of hyperplanes through every (d-1)-subset F of the
    first n - 1 vertices, in lexicographic order, and give the best count
    of every D = F + (p,) with p > max F.

    Yields (F, (counts, q)), or (F, None) when F + {x, y} is dependent
    for some vertices x and y outside F, or F itself is.  counts[p] is
    the best count of D: the most strict sign changes along the vertex
    sides of a generic perturbation of h(D), whose vertices D are pushed
    to chosen sides (crossing._keys lists these hyperplanes).  As no
    (d+1)-subset containing F is dependent once the sweep ends, that is d
    plus the sign changes of D's sign sequence (see is_flip).  q maps the
    vertices to the plane, with sign det(q(x), q(y)) = sign det[F; x; y];
    so the vertex sides of h(D) are sign det(q(p), q(y)).  Cost per F:
    the exactgeom._quotient of the n rows by its last member (the levels
    before are shared), a sort and an O(n) sweep.  It serves both
    crossing.max_crossings and is_flip on input that is not convex;
    convex input is answered from the alternation certificate.

    Pencil: the rows modulo F are the plane of the pencil.  The rows are
    taken mod the row of F[0], then mod the image of F[1], and so on, one
    _quotient of all n rows per member, so the rows of F map to 0.  Each
    prefix level serves every F that shares the prefix, as the recursion
    of exactgeom._alternating does: sum_{j=1}^{d-1} C(n-d+j, j)
    quotients in all, n - 1 in the plane and none on the line.  The
    quotients' signs multiply to eps with sign det[F; x; y] = eps * sign
    det(q(x), q(y)), and swapping q's coordinates when eps < 0 makes it
    the same sign.  A zero pivot means F is dependent.

    Sweep: scale each q(x) = (u, v) by t(x) = sign v, or sign u on the at
    most one row with v = 0, into the half-open upper half-plane, and
    sort the vertices by angle.  A line through the origin turning from
    angle 0 to pi passes each q(x) once.  Up to one sign shared by all y,
    y's side of the line through q(p) is t(y), negated once the line has
    passed q(y).  So each event moves one vertex across the hyperplane.
    That changes two edges, and the count of crossed edges away from F
    updates in O(1).  Past the row on angle 0, each row's angle rises
    with -u/v, which scaling by t(x) keeps.  Two distinct ratios with
    |v| <= V differ by at least 1/V^2, so floor(-u 4^k / v) with 2^k > V
    is an exact integer key.  A zero row outside F, a second row on angle
    0, or two equal keys is a pair x, y outside F with det[F; x; y] = 0.

    Counts at the event of p: the edges away from D cross the running
    count less p's crossed edges, call it R.  A perturbation scores R
    plus the crossings of the edges touching D.  These split over the
    maximal runs i..j of consecutive members of D, and ``edges`` gives
    the best for one run: the sides along (l, run, r) change at most
    j - i + 2 times, an even number of times iff l = r, so every edge
    crosses unless both neighbours exist and l r = (-1)^(j-i+1).  The
    runs of F are summed once and again only when a neighbour of one of
    them moves.  When p = max F + 1, p extends the last run of F.  h(D)
    itself scores R + d, and only when no edge lies in D.  Then each
    member of D is a run of its own, whose best crosses at least one
    edge, so h(D) never scores more than the best perturbation; it only
    comes first on a tie, which crossing._keys settles.
    """
    n = len(hom)

    def sweep(q, F):
        vs = [v for _, v in q]
        shift = 2 * max(max(vs), -min(vs)).bit_length()
        order = {(-u << shift) // v: x for x, (u, v) in enumerate(q) if v}
        # t[x + 1] is t(x), and 0 on F and past both ends.
        t = [0]
        t += [1 if v > 0 else -1 if v else (u > 0) - (u < 0) for u, v in q]
        t.append(0)
        # The rows of F are 0.  Outside F, a zero row, two rows on angle 0
        # or two equal keys are two rows parallel mod F.
        flat = vs.count(0) - len(F)
        if (flat > 1 or t.count(0) > len(F) + 2
                or len(order) + flat < n - len(F)):
            return None
        events = [order[k] for k in sorted(order)]
        if flat:
            events.insert(0, next(x for x, v in enumerate(vs)
                                  if not v and x not in F))

        def edges(i: int, j: int) -> int:
            l, r = t[i], t[j + 2]
            return j - i + (l != 0) + (r != 0) - (l * r == (-1) ** (j - i + 1))

        runs: list[list[int]] = []
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
        for p in events:
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
        return counts

    def level(rows, eps, F):
        if len(F) == d - 1:
            counts = sweep(rows, F)
            if counts is None:
                yield F, None
            else:
                yield F, (counts, rows if eps > 0
                          else [(v, u) for u, v in rows])
            return
        for f in range(F[-1] + 1 if F else 0, n - d + len(F) + 1):
            if any(rows[f]):
                sub, e = exactgeom._quotient(rows, rows[f])
                yield from level(sub, eps * e, F + (f,))
            else:
                for G in itertools.combinations(range(f + 1, n - 1),
                                                d - 2 - len(F)):
                    yield F + (f,) + G, None

    return level(hom, 1, ())


def is_flip(seq: PointSeq) -> FlipReport:
    """True iff every d-subset's sign sequence has at most one sign change.

    The reported violation is the lexicographically least one.  Each
    d-subset D is F + (p,) with p = max D, and one sweep of the pencil
    through F (see _pencils) gives the best crossing count of every such
    D.  For n > d and D in general position, that count is d plus the
    sign changes of D's sign sequence, so D violates the flip property
    iff its count exceeds d + 1: a general-position sequence is flip iff
    its path is (d+1)-crossing.

    Proof.  Entry i of D's sign sequence is (-1)^#{j in D : j > i} *
    side(i), with side(i) the side of h(D) that vertex i lies on (see
    sign_sequence).  Take two consecutive non-members i < i' with k
    members of D between them: their entries differ iff side(i) *
    side(i') * (-1)^k = -1.  Pushing those k members to chosen sides,
    the k + 1 edges from i to i' change side at most k + 1 times, an even
    number of times iff side(i) = side(i').  So all k + 1 can cross
    exactly when the entries differ, and k otherwise.  A run of k
    members before the first or after the last non-member has no such
    constraint, and all its k edges cross.  The runs are perturbed
    independently, and the members of D number d, so the best count is
    d plus the number of sign changes.

    F in lexicographic order and then p ascending visits D in
    lexicographic order, so the first count above d + 1 gives the
    witness.  Cost: C(n-1, d-1) pencils, each a sort and an O(n) sweep
    on rows that the quotients of its prefix levels share, n - 1
    quotients in the plane and no cofactor vector: O(n^(d-1) * n log n)
    arithmetic operations, where scanning every D's sign sequence takes
    C(n, d) cofactor vectors and about n * C(n, d) dot products,
    O(n^(d+1)).

    Homogeneous input sweeps nothing: when the homogeneous rows
    alternate (exactgeom._alternating), the sequence is flip.  Proof.
    Every (d+1)-tuple then has the orientation sigma, so every entry of
    every d-subset's sign sequence is sigma, with no sign change.  Put
    as crossings: a homogeneous sequence is d-crossing, hence
    (d+1)-crossing, hence flip.  The test takes O(n^(d-1)) determinants
    (2n - 3 on the line, 3n - 8 in the plane), where the sweep takes
    C(n-1, d-1) pencil sorts.  When the rows do not alternate the sweep
    runs as below, so no report or error changes.

    Degenerate input: the sweep of F stops on meeting a dependent
    (d+1)-subset, and the scan over d-subsets (_scan_flip) resumes at the
    first D of that pencil; it returns the same witness or raises the
    same GeneralPositionError as a scan from the start.  A finished sweep
    of F' also proves that no D = F' + (p,) has a zero entry, so every D
    before the stopping pencil has neither a zero entry nor a violation.
    """
    n, d = len(seq), seq.dim
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points, got {n}")
    if _alternating(seq._hom):
        return FlipReport(True)
    for F, pencil in _pencils(seq._hom, d):
        if pencil is None:
            return _scan_flip(seq, F + (F[-1] + 1 if F else 0,))
        counts = pencil[0]
        if max(counts) > d + 1:
            p = next(p for p, c in enumerate(counts) if c > d + 1)
            return FlipReport(False, witness=sign_sequence(seq, F + (p,)))
    return FlipReport(True)


def _scan_flip(seq: PointSeq, first: tuple[int, ...]) -> FlipReport:
    """is_flip by scanning the sign sequence of every d-subset from
    ``first`` on, in lexicographic order; the first zero entry raises
    GeneralPositionError (see sign_sequence)."""
    subsets = itertools.combinations(range(len(seq)), seq.dim)
    for subset in itertools.dropwhile(first.__gt__, subsets):
        ss = sign_sequence(seq, subset)
        if count_sign_changes(ss) > 1:
            return FlipReport(False, witness=ss)
    return FlipReport(True)
