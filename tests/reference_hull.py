"""Reference hull and emax: the Fraction code the integer versions replace.

`exact_convex_hull` sorts, merges and takes cross products on Fractions, and
`compute_emax` takes the ceiling log2 of the largest |y_i| + delta_i as a
Fraction, both exactly as first written.  Tests compare geom.exact_convex_hull
and grid.compute_emax (integer arithmetic) against them.
"""

from __future__ import annotations

from fractions import Fraction

from cperturb.reals import ceil_log2


def exact_convex_hull(points) -> list[int]:
    """Rational-arithmetic monotone chain."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    keyed = sorted(range(n), key=lambda i: pts[i])
    dedup: list[int] = []
    for i in keyed:
        if dedup and pts[i] == pts[dedup[-1]]:
            continue
        dedup.append(i)
    if len(dedup) < 3:
        raise ValueError("hull oracle needs three distinct points")

    def cross(o, a, b):
        return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) - (
            pts[a][1] - pts[o][1]
        ) * (pts[b][0] - pts[o][0])

    def build(seq):
        chain: list[int] = []
        for i in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], i) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(dedup)
    upper = build(reversed(dedup))
    return lower[:-1] + upper[:-1]


def compute_emax(centers, deltas) -> int:
    """Least integer e' >= 0 with |y_i| + delta_i <= 2^e' for all i."""
    bound = max(abs(Fraction(c)) + Fraction(d) for c, d in zip(centers, deltas))
    if bound <= 0:
        return 0
    return max(0, ceil_log2(bound))
