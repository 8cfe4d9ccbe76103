"""Exact integer-log and directed-rounding interval helpers.

All analysis-side numerics run on rationals.  Where an irrational value is
unavoidable (pi in the in_circle region bound, k-th roots in the cubical
multivariate analysis) a value is carried as a rational enclosure [lo, hi]
computed with directed rounding, and floors/ceilings of log2 are taken only
once the enclosure decides them unambiguously.  Binary floating point is
never consulted.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class PrecisionExhausted(ArithmeticError):
    """An enclosure stayed ambiguous up to the refinement cap."""


def _ratio(q: Rat, name: str) -> tuple[int, int]:
    """(numerator, denominator) of rational q > 0, without building a Fraction
    from an int or a Fraction."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    a, b = q.numerator, q.denominator
    if a <= 0:
        raise ValueError(f"{name} needs a positive value")
    return a, b


def _floor_log2(a: int, b: int) -> int:
    n = a.bit_length() - b.bit_length()
    # a/b >= 2^n  <=>  a >= b<<n (n may be negative)
    if n >= 0:
        if a < (b << n):
            n -= 1
    else:
        if (a << (-n)) < b:
            n -= 1
    return n


def _is_power_of_two(a: int, b: int) -> bool:
    # a/b in lowest terms is 2^n exactly when both a and b are powers of two
    return a & (a - 1) == 0 and b & (b - 1) == 0


def floor_log2(q: Rat) -> int:
    """Largest n with 2^n <= q, for rational q > 0.  Exact integer arithmetic."""
    return _floor_log2(*_ratio(q, "floor_log2"))


def ceil_log2(q: Rat) -> int:
    """Smallest n with 2^n >= q, for rational q > 0."""
    a, b = _ratio(q, "ceil_log2")
    if _is_power_of_two(a, b):
        return a.bit_length() - b.bit_length()
    return _floor_log2(a, b) + 1


def is_power_of_two(q: Rat) -> bool:
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return q.numerator > 0 and _is_power_of_two(q.numerator, q.denominator)


def _int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on integers."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def nth_root_exact(q: Rat, k: int) -> Fraction | None:
    """q^(1/k) if it is rational, else None.  q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    rn = _int_nth_root(q.numerator, k)
    rd = _int_nth_root(q.denominator, k)
    if rn ** k == q.numerator and rd ** k == q.denominator:
        return Fraction(rn, rd)
    return None


class RVal:
    """A real number carried as a rational enclosure [lo, hi], lo <= hi.

    Enclosures of either sign occur (differences, affine factors); lo and hi
    are always of type Fraction.  An RVal whose lo *is* its hi (one shared
    object, as RVal(x) and every exact result make) is an exact value, and
    arithmetic on two exact values does one Fraction operation.  Products
    and quotients of nonnegative enclosures take only the two endpoint
    combinations that can be extreme; mixed signs take all four.  Every fast
    path returns the same Fractions as the four-combination min/max would.
    Division needs a divisor enclosure with lo > 0.

    Never mutated after construction: pi_enclosure shares cached instances."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat | None = None):
        if lo.__class__ is not Fraction:
            lo = Fraction(lo)
        if hi is None:
            hi = lo
        else:
            if hi.__class__ is not Fraction:
                hi = Fraction(hi)
            if lo > hi:
                raise ValueError("inverted enclosure")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"RVal({self.lo}, {self.hi})"

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self.lo == self.hi else None

    def __add__(self, other):
        o = _coerce(other)
        if self.lo is self.hi and o.lo is o.hi:
            return _point(self.lo + o.lo)
        return _enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if self.lo is self.hi and o.lo is o.hi:
            return _point(self.lo - o.lo)
        return _enclosure(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        o = _coerce(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        if a is b and c is d:
            return _point(a * c)
        if a.numerator >= 0 and c.numerator >= 0:
            return _enclosure(a * c, b * d)
        vals = (a * c, a * d, b * c, b * d)
        return _enclosure(min(vals), max(vals))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        if c.numerator <= 0:
            raise ZeroDivisionError("divisor enclosure touches zero")
        if a is b and c is d:
            return _point(a / c)
        if a.numerator >= 0:
            return _enclosure(a / d, b / c)
        vals = (a / c, a / d, b / c, b / d)
        return _enclosure(min(vals), max(vals))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, m: int):
        if m < 0:
            return _ONE / self ** (-m)
        if m == 0:
            return _ONE
        lo, hi = self.lo, self.hi
        if lo is hi:
            return _point(lo ** m)
        if m % 2 or lo.numerator >= 0:  # increasing on the enclosure
            return _enclosure(lo ** m, hi ** m)
        if hi.numerator <= 0:  # even power, decreasing on the enclosure
            return _enclosure(hi ** m, lo ** m)
        return _enclosure(_ZERO, max(lo ** m, hi ** m))


def _enclosure(lo: Fraction, hi: Fraction) -> RVal:
    """RVal(lo, hi) for Fractions already known to satisfy lo <= hi."""
    v = object.__new__(RVal)
    v.lo = lo
    v.hi = hi
    return v


def _point(x: Fraction) -> RVal:
    """The exact RVal x, sharing one object for lo and hi."""
    v = object.__new__(RVal)
    v.lo = v.hi = x
    return v


_ZERO = Fraction(0)
_ONE = RVal(1)


def _coerce(x) -> RVal:
    if isinstance(x, RVal):
        return x
    return RVal(x)


def nth_root(x: RVal | Rat, k: int, bits: int) -> RVal:
    """Enclosure of x^(1/k) with about `bits` fractional bits, x > 0."""
    v = _coerce(x)
    exact_lo = nth_root_exact(v.lo, k)
    exact_hi = exact_lo if v.hi == v.lo else nth_root_exact(v.hi, k)
    if exact_lo is not None and exact_hi is not None:
        return RVal(exact_lo, exact_hi)

    def root_down(q: Fraction) -> Fraction:
        scale = 1 << (bits * k)
        n = (q.numerator * scale) // q.denominator  # <= q * 2^(bits*k)
        return Fraction(_int_nth_root(n, k), 1 << bits)

    def root_up(q: Fraction) -> Fraction:
        scale = 1 << (bits * k)
        n = -((-q.numerator * scale) // q.denominator)  # >= q * 2^(bits*k)
        r = _int_nth_root(n, k)
        if r ** k < n:
            r += 1
        return Fraction(r, 1 << bits)

    return RVal(root_down(v.lo), root_up(v.hi))


@functools.lru_cache(maxsize=16)
def pi_enclosure(bits: int) -> RVal:
    """pi by Machin's formula with alternating-series tail bounds.

    Memoized on the exact `bits`, bounded so that arbitrary budgets cannot
    grow the cache; all callers of one budget share one RVal.
    """
    def atan_inv(x: int) -> tuple[Fraction, Fraction]:
        # arctan(1/x) partial sums; alternating, strictly shrinking terms,
        # so consecutive partial sums bracket the limit.
        total = Fraction(0)
        term_num = Fraction(1, x)
        k = 0
        below = above = None
        while True:
            term = term_num / (2 * k + 1)
            total = total + term if k % 2 == 0 else total - term
            if k % 2 == 0:
                above = total
            else:
                below = total
            if term < Fraction(1, 1 << (bits + 8)) and below is not None:
                return below, above
            term_num /= x * x
            k += 1

    lo5, hi5 = atan_inv(5)
    lo239, hi239 = atan_inv(239)
    return RVal(16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239)


def ceil_log2_rval(v: RVal) -> int:
    if v.lo <= 0:
        raise ValueError("needs a positive enclosure")
    clo, chi = ceil_log2(v.lo), ceil_log2(v.hi)
    if clo == chi:
        return clo
    raise PrecisionExhausted(f"ceil log2 ambiguous on [{v.lo}, {v.hi}]")


def ceil_rval(v: RVal) -> int:
    clo, chi = math.ceil(v.lo), math.ceil(v.hi)
    if clo == chi:
        return clo
    raise PrecisionExhausted(f"ceiling ambiguous on [{v.lo}, {v.hi}]")


REFINEMENT_BITS = (128, 256, 512, 1024, 2048, 4096)


def refine(compute, extract):
    """Run extract(compute(bits)) at growing precision until unambiguous.

    `compute` maps a bit budget to an enclosure-valued structure; `extract`
    either returns the decided discrete answer or raises PrecisionExhausted.
    """
    last = None
    for bits in REFINEMENT_BITS:
        try:
            return extract(compute(bits))
        except PrecisionExhausted as exc:
            last = exc
    raise PrecisionExhausted(f"undecided after {REFINEMENT_BITS[-1]} bits") from last
