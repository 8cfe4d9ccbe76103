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
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class PrecisionExhausted(ArithmeticError):
    """An enclosure stayed ambiguous up to the refinement cap."""


def floor_log2(q: Rat) -> int:
    """Largest n with 2^n <= q, for rational q > 0.  Exact integer arithmetic."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("floor_log2 needs a positive value")
    a, b = q.numerator, q.denominator
    n = a.bit_length() - b.bit_length()
    # a/b >= 2^n  <=>  a >= b<<n (n may be negative)
    if n >= 0:
        if a < (b << n):
            n -= 1
    else:
        if (a << (-n)) < b:
            n -= 1
    return n


def ceil_log2(q: Rat) -> int:
    """Smallest n with 2^n >= q, for rational q > 0."""
    q = Fraction(q)
    n = floor_log2(q)
    return n if q == Fraction(2) ** n else n + 1


def is_power_of_two(q: Rat) -> bool:
    q = Fraction(q)
    if q <= 0:
        return False
    return q == Fraction(2) ** floor_log2(q)


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
    """A positive real carried as a rational enclosure [lo, hi].

    Never mutated after __init__: pi_enclosure shares cached instances."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat | None = None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("inverted enclosure")

    def __repr__(self):
        return f"RVal({self.lo}, {self.hi})"

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self.lo == self.hi else None

    def __add__(self, other):
        o = _coerce(other)
        return RVal(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return RVal(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        o = _coerce(other)
        vals = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RVal(min(vals), max(vals))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o.lo <= 0:
            raise ZeroDivisionError("divisor enclosure touches zero")
        vals = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return RVal(min(vals), max(vals))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, m: int):
        if m < 0:
            return RVal(1) / self ** (-m)
        if m == 0:
            return RVal(1)
        lo, hi = self.lo ** m, self.hi ** m
        if self.lo < 0:  # not needed for our positive pipeline, kept safe
            lo, hi = min(lo, hi, 0 if m % 2 == 0 else lo), max(lo, hi)
        return RVal(lo, hi)


def _coerce(x) -> RVal:
    if isinstance(x, RVal):
        return x
    return RVal(Fraction(x))


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
    import math

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
