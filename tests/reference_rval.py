"""Four-product interval arithmetic for rational enclosures.

This was the arithmetic of `reals.RVal` before its exact and nonnegative fast
paths; it stays here as the reference they are tested against.  Every
operation forms all endpoint combinations and takes their min and max, so
it makes no assumption about the operands' signs.  The one difference from
the old code is `pow`: for even m on an enclosure below zero the old lower
bound was 0, while the image is [hi^m, lo^m]; here it is the exact image.
Operands are (lo, hi) pairs of Fractions; results are the same.
"""

from __future__ import annotations

from fractions import Fraction


def _check(lo, hi):
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("inverted enclosure")
    return lo, hi


def add(a, b):
    return _check(a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return _check(a[0] - b[1], a[1] - b[0])


def mul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _check(min(vals), max(vals))


def truediv(a, b):
    if b[0] <= 0:
        raise ZeroDivisionError("divisor enclosure touches zero")
    vals = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return _check(min(vals), max(vals))


def pow_(a, m: int):
    if m < 0:
        return truediv((Fraction(1), Fraction(1)), pow_(a, -m))
    if m == 0:
        return Fraction(1), Fraction(1)
    vals = [a[0] ** m, a[1] ** m]
    if m % 2 == 0 and a[0] < 0 < a[1]:
        vals.append(Fraction(0))  # the even power's minimum lies inside
    return _check(min(vals), max(vals))
