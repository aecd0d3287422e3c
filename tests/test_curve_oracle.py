"""Exact curve-level oracle for ``decompose-curve`` on planar graphs.

The graph t -> (t, f(t)) of a polynomial f splits into 1 + m convex
pieces, m the number of odd-multiplicity roots of f'' in the domain.  A
sampled path's cut sits at a vertex where the second divided differences
f[t_i, t_i+1, t_i+2] = f''(xi)/2 change sign, so some root lies within
two sampling steps (< 2 eps) of it.  Each triple's hat kernel is
stochastically dominated by the next one's, so where f'' is monotone
near a root the signs change once there.  Sturm sequences over ``Fraction``
isolate the roots exactly, so this holds at any n, far beyond the
brute-force crossing oracle.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexsplit.curves import builtin, decompose_curve

LO, HI = Fraction(-1), Fraction(1)


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def divmod_poly(a, b):
    """Quotient and remainder of ascending coefficient lists."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c, shift = a[-1] / b[-1], len(a) - len(b)
        q[shift] = c
        for i, x in enumerate(b):
            a[shift + i] -= c * x
        a = trim(a[:-1])
    return q, a


def value(p, t):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def sign(x):
    return (x > 0) - (x < 0)


def odd_roots(g, width):
    """Disjoint intervals (x, y] of width <= width, in order, one for each
    real root of g of odd multiplicity; no end is a root."""
    a, b = g, derivative(g)
    while b:
        a, b = b, [-c for c in divmod_poly(a, b)[1]]
    s = divmod_poly(g, a)[0]                     # square-free part of g
    seq = [s, derivative(s)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in divmod_poly(seq[-2], seq[-1])[1]])

    def changes(t):
        signs = [v for v in map(sign, (value(p, t) for p in seq)) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    bound = 1 + sum(abs(c / s[-1]) for c in s)   # Cauchy: |root| < bound
    out, todo = [], [(-bound, bound)]
    while todo:
        x, y = todo.pop()
        k = changes(x) - changes(y)
        if k == 1 and y - x <= width:
            out.append((x, y))
        elif k:
            m = (x + y) / 2
            while value(s, m) == 0:
                m = (m + y) / 2
            todo += [(m, y), (x, m)]
    return [(x, y) for x, y in sorted(out)
            if sign(value(g, x)) != sign(value(g, y))]


def integrate_twice(g):
    for _ in range(2):
        g = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(g)]
    return g


coef = st.fractions(min_value=-4, max_value=4, max_denominator=6)
by_coefficients = st.lists(coef, min_size=4, max_size=7).filter(
    lambda f: f[-1] != 0)


@st.composite
def by_inflections(draw):
    """f'' = c * prod (t - r_j) over 1-4 rational roots, some repeated."""
    roots = draw(st.lists(st.fractions(min_value=-1, max_value=1,
                                       max_denominator=12),
                          min_size=1, max_size=4))
    g = [draw(coef.filter(bool))]
    for r in roots:
        g = [b - r * a for a, b in zip(g + [0], [0] + g)]
    f = integrate_twice(g)
    f[0], f[1] = draw(coef), draw(coef)
    return f


@given(st.one_of(by_coefficients, by_inflections()),
       st.sampled_from([Fraction(1, 25), Fraction(1, 50), Fraction(1, 100)]),
       st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_cuts_match_the_inflections(f, eps, seed):
    roots = odd_roots(derivative(derivative(f)), eps / 8)
    # Keep every inflection off the domain's ends and > 4 eps from the next.
    assume(all(y < LO or x > HI or LO + 4 * eps < x and y < HI - 4 * eps
               for x, y in roots))
    inside = [(x, y) for x, y in roots if LO < x and y < HI]
    assume(all(x2 - y1 > 4 * eps for (_, y1), (x2, _) in
               zip(inside, inside[1:])))
    curve = builtin("poly", coeffs=[[0, 1], f], domain=(LO, HI))
    cd = decompose_curve(curve, eps, seed)
    assert cd.pieces == 1 + len(inside)
    for cut, (x, y) in zip(cd.cuts, inside):
        # every root in (x, y] lies within 2 eps of the cut
        assert y - 2 * eps <= cut <= x + 2 * eps


def test_quintic_ladder():
    # y = t (1 - t^2)^2: inflections at 0 and +-sqrt(3/5)
    f = [Fraction(c) for c in (0, 1, 0, -2, 0, 1)]
    for den in (25, 50, 100):
        eps = Fraction(1, den)
        roots = odd_roots(derivative(derivative(f)), eps / 8)
        cd = decompose_curve(builtin("quintic"), eps)
        assert cd.pieces == 1 + len(roots) == 4
        for cut, (x, y) in zip(cd.cuts, roots):
            assert y - 2 * eps <= cut <= x + 2 * eps
