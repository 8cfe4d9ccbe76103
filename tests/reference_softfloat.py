"""Reference rounding: fl_round as first written, on Fractions.

`fl_round` takes floor(log2 |x|) with reals.floor_log2, scales x onto the
grid of its binade as a numerator/denominator pair, rounds the quotient with
divmod and decides ties, overflow and underflow in its own body.  Membership
was the round trip through it: x is in F_{L,K} when it rounds to itself.
softfloat.fl_round now reduces every rational to an integer pair for
softfloat._round_scaled, and softfloat.member_pair decides membership on the
integers; tests compare both with this.
"""

from __future__ import annotations

from fractions import Fraction

from cperturb.reals import floor_log2
from cperturb.softfloat import RangeError, SoftFloat, exponent_max, exponent_min, zero


def fl_round(x, L: int, K: int, source_op: str = "fl_round") -> SoftFloat:
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

