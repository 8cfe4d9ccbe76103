"""fl_round and member_pair against the Fraction rounding they replace.

softfloat.fl_round reduces every rational to an integer pair (a sticky pair
when the rational is not dyadic) and rounds it with softfloat._round_scaled;
softfloat.member_pair decides membership on numerator, denominator and bit
lengths.  Over a fixed-seed stream of rationals from every region of F_{L,K}
(L 1..60, K 2..9) each rounding must give the fields the reference
(tests/reference_softfloat.py) gives, or the same RangeError source_op and
message, and membership must equal the reference's round trip.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference_softfloat as ref
from cperturb.softfloat import RangeError, SoftFloat, exponent_max, exponent_min, fl_round, is_representable, member_pair

N_CASES = 100_000


def _case(rng: random.Random, L: int, K: int) -> Fraction:
    """One rational from the region the draw picks, with a random sign."""
    emin, emax = exponent_min(K), exponent_max(K)
    region = rng.randrange(8)
    if region == 0:  # dyadic, with up to L + 12 significant bits, anywhere in range and past it
        n = rng.getrandbits(rng.randint(1, L + 12)) | 1
        x = Fraction(n) * Fraction(2) ** rng.randint(emin - 2 * L - 16, emax + 2)
    elif region == 1:  # not dyadic
        d = (2 * rng.getrandbits(rng.randint(1, 40)) + 3) << rng.randint(0, 8)
        n = rng.getrandbits(rng.randint(1, L + 40)) + 1
        x = Fraction(n, d) * Fraction(2) ** rng.randint(emin - L - 8, emax + 2)
    elif region == 2:  # an exact tie between two normals
        m = rng.randint(1 << L, (1 << (L + 1)) - 1)
        x = Fraction(2 * m + 1) * Fraction(2) ** (rng.randint(emin, emax) - L - 1)
    elif region == 3:  # at the overflow edge: the largest member, the tie above it, their neighbours
        x = Fraction((1 << (L + 2)) - rng.randint(-2, 4)) * Fraction(2) ** (emax - L - 1)
        x += rng.choice((0, 0, Fraction(1, 3), -Fraction(1, 3))) * Fraction(2) ** (emax - L - 1)
    elif region == 4:  # a subnormal, or the tie between two of them
        x = Fraction(rng.randint(1, (1 << (L + 1)) - 1)) * Fraction(2) ** (emin - L - 1)
    elif region == 5:  # inexact below the smallest normal, down past half the least subnormal
        x = Fraction(rng.getrandbits(L + 20) | 1, 3 << rng.randint(0, 20)) * Fraction(2) ** (emin - L - 12)
    elif region == 6:  # a member of F_{L,K}: a normal significand in any binade
        x = Fraction(rng.randint(1 << L, (1 << (L + 1)) - 1)) * Fraction(2) ** (rng.randint(emin, emax) - L)
    else:  # a small integer or its reciprocal
        x = Fraction(rng.randint(1, 1 << 20))
        x = x if rng.random() < 0.5 else 1 / x
    return x if rng.random() < 0.5 else -x


def _outcome(round_, x, L, K, op):
    try:
        return round_(x, L, K, op)
    except RangeError as exc:
        return exc.source_op, str(exc)


def test_fl_round_and_membership_match_reference():
    rng = random.Random(20261019)
    raised = members = 0
    for i in range(N_CASES):
        L, K = rng.randint(1, 60), rng.randint(2, 9)
        x = _case(rng, L, K)
        op = ("fl_round", "/", "const")[i % 3]
        want = _outcome(ref.fl_round, x, L, K, op)
        got = _outcome(fl_round, x, L, K, op)
        assert type(got) is type(want) and got == want, (x, L, K)
        if type(got) is SoftFloat:
            assert (got.sign, got.significand, got.exponent) == (want.sign, want.significand, want.exponent)
        # membership was the round trip through the reference rounding
        member = type(want) is SoftFloat and want.to_fraction() == x
        pair = member_pair(x, L, K)
        assert (pair is not None) == member == is_representable(x, L, K), (x, L, K)
        if pair is not None:
            M, q = pair
            assert Fraction(M) * Fraction(2) ** q == x and (M & 1 or M == 0)
        raised += type(got) is not SoftFloat
        members += member
    # every region is reached: roundings, range errors and members all occur often
    assert N_CASES // 20 < raised < N_CASES // 2 and N_CASES // 10 < members < N_CASES // 2


def test_zero_and_non_fraction_inputs():
    assert member_pair(0, 4, 4) == (0, 0) and member_pair(Fraction(0), 4, 4) == (0, 0)
    assert member_pair(0.75, 4, 4) == (3, -2) and fl_round(0.75, 4, 4).to_fraction() == Fraction(3, 4)
    assert member_pair(-12, 4, 4) == (-3, 2)
