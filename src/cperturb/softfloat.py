"""Radix-2 floating-point arithmetic with configurable precision and exponent width.

F_{L,K} is the finite set of numbers ±m·2^(e-L) with m in [2^L, 2^(L+1)) and
e in [-2^(K-1)+1, 2^(K-1)], together with the subnormals ±m·2^(e_min-L),
m in [1, 2^L), and a single unsigned zero.  L counts fractional significand
bits (the leading bit is explicit in storage), so there are 2^L members per
binade and the largest magnitude is (2 - 2^-L)·2^(2^(K-1)).

Every operation rounds its exact rational result to the nearest member of
F_{L,K}, ties to even significand.  Results whose exact magnitude exceeds the
largest member raise RangeError.  Inexact results below the smallest normal
magnitude also raise RangeError: past that point rounding can no longer keep
the relative error within 2^-L, which is the premise the guard error analysis
stands on.  Exact subnormal values are returned as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .reals import floor_log2

Exact = Union[int, Fraction]


class RangeError(ArithmeticError):
    """Exact result not representable: overflow, or inexact underflow."""

    def __init__(self, source_op: str, magnitude_hint: str = ""):
        self.source_op = source_op
        self.magnitude_hint = magnitude_hint
        super().__init__(f"range error in {source_op}: {magnitude_hint}")


class DivisionByZero(ZeroDivisionError):
    """Division by an exact zero operand."""


def exponent_min(K: int) -> int:
    return -(1 << (K - 1)) + 1


def exponent_max(K: int) -> int:
    return 1 << (K - 1)


def max_magnitude(L: int, K: int) -> Fraction:
    """(2 - 2^-L)·2^(2^(K-1)), the largest member of F_{L,K}."""
    return Fraction((1 << (L + 1)) - 1, 1) * Fraction(2) ** (exponent_max(K) - L)


def min_normal(L: int, K: int) -> Fraction:
    return Fraction(2) ** exponent_min(K)


@dataclass(frozen=True)
class SoftFloat:
    """One member of F_{L,K}.  Immutable; arithmetic lives in fl_binop."""

    sign: int  # +1 or -1; +1 for zero
    significand: int  # m: [2^L, 2^(L+1)) normal, [1, 2^L) at e_min, 0 for zero
    exponent: int  # e: value is sign·m·2^(e-L)
    prec: int  # L
    expbits: int  # K

    def __post_init__(self):
        L, K = self.prec, self.expbits
        if L < 1 or K < 2:
            raise ValueError("need L >= 1 and K >= 2")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        m, e = self.significand, self.exponent
        if m == 0:
            if self.sign != 1 or e != exponent_min(K):
                raise ValueError("zero must be canonical")
            return
        if not exponent_min(K) <= e <= exponent_max(K):
            raise ValueError("exponent out of range")
        if m >= (1 << (L + 1)) or m < 0:
            raise ValueError("significand out of range")
        if m < (1 << L) and e != exponent_min(K):
            raise ValueError("subnormal significand away from e_min")

    def is_zero(self) -> bool:
        return self.significand == 0

    def to_fraction(self) -> Fraction:
        """Exact value; the conversion is lossless."""
        cached = getattr(self, "_frac", None)
        if cached is not None:
            return cached
        if self.significand == 0:
            value = Fraction(0)
        else:
            shift = self.exponent - self.prec
            if shift >= 0:
                value = Fraction(self.sign * self.significand << shift)
            else:
                value = Fraction(self.sign * self.significand, 1 << -shift)
        object.__setattr__(self, "_frac", value)
        return value

    def __repr__(self):
        return f"SoftFloat({self.to_fraction()}, L={self.prec}, K={self.expbits})"


def zero(L: int, K: int) -> SoftFloat:
    return SoftFloat(1, 0, exponent_min(K), L, K)


def fl_round(x: Exact, L: int, K: int, source_op: str = "fl_round") -> SoftFloat:
    """Nearest member of F_{L,K} to the rational x, ties to even significand.

    Raises RangeError when |x| rounds past the largest member, and when x is
    nonzero, below the smallest normal magnitude, and not exactly
    representable (inexact underflow).
    """
    x = Fraction(x)
    if x == 0:
        return zero(L, K)
    sign = 1 if x > 0 else -1
    ax = -x if x < 0 else x
    emin, emax = exponent_min(K), exponent_max(K)

    raw_e = floor_log2(ax)  # 2^raw_e <= ax < 2^(raw_e+1)
    e = max(raw_e, emin)  # below emin we round on the subnormal grid at e_min
    # round ax onto multiples of 2^(e-L)
    num, den = ax.numerator, ax.denominator
    shift = e - L
    if shift >= 0:
        q_num, q_den = num, den << shift
    else:
        q_num, q_den = num << (-shift), den
    m, rem = divmod(q_num, q_den)
    double_rem = 2 * rem
    if double_rem > q_den or (double_rem == q_den and m % 2 == 1):
        m += 1
    if m == (1 << (L + 1)):  # rounded up into the next binade
        m >>= 1
        e += 1
    inexact = m * q_den != q_num

    if e > emax:
        raise RangeError(source_op, f"|result| ~ 2^{e} exceeds F_{{{L},{K}}}")
    if m == 0:
        # nonzero x rounded to zero: necessarily inexact underflow
        raise RangeError(source_op, "inexact result below the subnormal range")
    if inexact and raw_e < emin:  # ax below the smallest normal magnitude
        raise RangeError(source_op, "inexact result below the smallest normal")
    return SoftFloat(sign, m, e, L, K)


def to_rational(a: SoftFloat) -> Fraction:
    """Exact rational value of a float; lossless, round-trips through fl_round."""
    return a.to_fraction()


def to_pair(a: SoftFloat) -> tuple[int, int]:
    """The value as an integer pair (M, q) with a = M * 2^q: M is the signed
    significand and q = exponent - L.  Zero is (0, 0), so that it never
    shifts the other operand of an addition."""
    return (a.sign * a.significand, a.exponent - a.prec) if a.significand else (0, 0)


def is_representable(x: Exact, L: int, K: int) -> bool:
    """True when x is exactly a member of F_{L,K}."""
    x = Fraction(x)
    if x == 0:
        return True
    try:
        return fl_round(x, L, K).to_fraction() == x
    except RangeError:
        return False


def _round_scaled(sign: int, M: int, q: int, L: int, K: int, op: str) -> SoftFloat:
    """Round the exact value sign * M * 2^q (M >= 1) to F_{L,K}, ties to even."""
    emin, emax = exponent_min(K), exponent_max(K)
    raw_e = q + M.bit_length() - 1
    e = max(raw_e, emin)
    shift = e - L - q
    if shift <= 0:
        m = M << -shift
        inexact = False
    else:
        m = M >> shift
        rem = M & ((1 << shift) - 1)
        inexact = rem != 0
        half = 1 << (shift - 1)
        if rem > half or (rem == half and m & 1):
            m += 1
    if m == (1 << (L + 1)):
        m >>= 1
        e += 1
    if e > emax:
        raise RangeError(op, f"|result| ~ 2^{e} exceeds F_{{{L},{K}}}")
    if m == 0:
        raise RangeError(op, "inexact result below the subnormal range")
    if inexact and raw_e < emin:
        raise RangeError(op, "inexact result below the smallest normal")
    return SoftFloat(sign, m, e, L, K)


def fl_binop(op: str, a: SoftFloat, b: SoftFloat) -> SoftFloat:
    """Correctly rounded +, -, *, / on two members of the same F_{L,K}."""
    if (a.prec, a.expbits) != (b.prec, b.expbits):
        raise ValueError("operands live in different F_{L,K}")
    L, K = a.prec, a.expbits
    if op in ("+", "-"):
        if a.significand == 0:
            return b if op == "+" else fl_neg(b)
        if b.significand == 0:
            return a
        bsign = b.sign if op == "+" else -b.sign
        q = min(a.exponent, b.exponent) - L
        total = (a.sign * a.significand << (a.exponent - L - q)) + (
            bsign * b.significand << (b.exponent - L - q)
        )
        if total == 0:
            return zero(L, K)
        sign = 1 if total > 0 else -1
        return _round_scaled(sign, abs(total), q, L, K, op)
    if op == "*":
        if a.significand == 0 or b.significand == 0:
            return zero(L, K)
        return _round_scaled(
            a.sign * b.sign,
            a.significand * b.significand,
            a.exponent + b.exponent - 2 * L,
            L,
            K,
            op,
        )
    if op == "/":
        if b.significand == 0:
            raise DivisionByZero("division by zero")
        if a.significand == 0:
            return zero(L, K)
        return fl_round(a.to_fraction() / b.to_fraction(), L, K, source_op=op)
    raise ValueError(f"unknown operation {op!r}")


def fl_abs(a: SoftFloat) -> SoftFloat:
    if a.significand == 0 or a.sign == 1:
        return a
    return SoftFloat(1, a.significand, a.exponent, a.prec, a.expbits)


def fl_neg(a: SoftFloat) -> SoftFloat:
    if a.significand == 0:
        return a
    return SoftFloat(-a.sign, a.significand, a.exponent, a.prec, a.expbits)


def fl_cmp(a: SoftFloat, b: SoftFloat) -> int:
    """Exact comparison; rounding plays no role."""
    av, bv = a.to_fraction(), b.to_fraction()
    return (av > bv) - (av < bv)


def enumerate_floats(lo: Exact, hi: Exact, L: int, K: int) -> Iterator[Fraction]:
    """All members of F_{L,K} in [lo, hi], ascending, as exact rationals."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        return
    values = []
    # negative mirror of the positive walk, zero, positive walk
    for v in _positive_floats(L, K):
        if -v < lo:
            break
        if -v <= hi:
            values.append(-v)
    values.reverse()
    if lo <= 0 <= hi:
        values.append(Fraction(0))
    for v in _positive_floats(L, K):
        if v > hi:
            break
        if v >= lo:
            values.append(v)
    yield from values


def _positive_floats(L: int, K: int) -> Iterator[Fraction]:
    emin, emax = exponent_min(K), exponent_max(K)
    base = Fraction(2) ** (emin - L)
    for m in range(1, 1 << L):  # subnormals
        yield m * base
    for e in range(emin, emax + 1):
        scale = Fraction(2) ** (e - L)
        for m in range(1 << L, 1 << (L + 1)):
            yield m * scale


def count_floats(lo: Exact, hi: Exact, L: int, K: int) -> int:
    """|F_{L,K} ∩ [lo, hi]| without materializing the set (used by the CLI)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        return 0

    def positives_upto(x: Fraction) -> int:
        # number of positive members <= x
        if x <= 0:
            return 0
        emin, emax = exponent_min(K), exponent_max(K)
        if x >= max_magnitude(L, K):
            return ((1 << L) - 1) + (emax - emin + 1) * (1 << L)
        # subnormals
        sub_quantum = Fraction(2) ** (emin - L)
        count = min((1 << L) - 1, int(x / sub_quantum))
        if x < Fraction(2) ** emin:
            return count
        e = floor_log2(x)
        e = min(e, emax)
        count += (e - emin) * (1 << L)  # full binades below 2^e
        quantum = Fraction(2) ** (e - L)
        count += int(x / quantum) - (1 << L) + 1  # members of [2^e, x]
        return count

    def positives_below(x: Fraction) -> int:
        # number of positive members strictly less than x
        n = positives_upto(x)
        if x > 0 and is_representable(x, L, K):
            n -= 1
        return n

    total = 0
    if hi > 0:
        total += positives_upto(hi) - positives_below(max(lo, 0))
    if lo < 0:
        total += positives_upto(-lo) - positives_below(max(-hi, 0))
    if lo <= 0 <= hi:
        total += 1
    return total


def float_set_size(L: int, K: int) -> int:
    """Total |F_{L,K}| including zero and both signs."""
    per_sign = ((1 << L) - 1) + (exponent_max(K) - exponent_min(K) + 1) * (1 << L)
    return 2 * per_sign + 1
