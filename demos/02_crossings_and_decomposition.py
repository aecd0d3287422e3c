"""Exact crossing numbers and greedy convex decomposition of paths.

A path is convex exactly when no hyperplane crosses it more than d times.
The oracle below finds the worst hyperplane among all those spanned by
vertices and their perturbations, sweeping each pencil of them once, so
the crossing number it reports is exact, with a witness you can
re-evaluate.
"""

from fractions import Fraction

from convexsplit import (Hyperplane, PolyPath, crossings_with, decompose,
                         is_convex, max_crossings, point_seq,
                         witness_crossings)
from convexsplit.cli import render_svg

zigzag = PolyPath(point_seq([(0, 0), (1, 1), (2, 0), (3, 1)]))

# Count crossings against one explicit line: y = 1/2 cuts all three edges.
line = Hyperplane((Fraction(0), Fraction(1)), Fraction(1, 2))
print("zigzag crossings with y=1/2:", crossings_with(zigzag, line))

# The oracle searches all vertex subsets for the worst hyperplane.
report = max_crossings(zigzag)
print("zigzag max crossings:", report.max_crossings)
print("  witness:", report.witness)
print("  re-evaluated:", witness_crossings(zigzag, report.witness))
print("zigzag is convex:", is_convex(zigzag))

square = PolyPath(point_seq([(0, 0), (1, 0), (1, 1), (0, 1)]))
print("\nsquare max crossings:", max_crossings(square).max_crossings,
      "-> convex:", is_convex(square))

# Greedy decomposition: walk left to right, extend the current piece while
# it stays convex, cut one point back on failure.  Adjacent pieces share
# their boundary vertex, and the result uses the fewest pieces possible.
wiggle = PolyPath(point_seq([(0, 4), (1, 6), (2, 9), (3, 7), (4, 4),
                             (5, 7), (6, 0)]))
dec = decompose(wiggle)
print("\nwiggly path pieces:", dec.pieces)
for lo, hi in dec.pieces:
    piece = wiggle.seq.subsequence(range(lo, hi + 1))
    print(f"  vertices {lo}..{hi}: convex = {is_convex(PolyPath(piece))}")

with open("demo_decomposition.svg", "w", encoding="utf-8") as fh:
    fh.write(render_svg(wiggle.seq, dec.pieces))
print("\nwrote demo_decomposition.svg (pieces in alternating strokes)")
