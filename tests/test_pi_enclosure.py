"""The memoized pi enclosure against an uncached Machin computation."""

from fractions import Fraction as F

from cperturb.reals import REFINEMENT_BITS, pi_enclosure

# pi to 50 decimal places, rounded down and up
PI_50_LO = F(314159265358979323846264338327950288419716939937510, 10 ** 50)
PI_50_HI = PI_50_LO + F(1, 10 ** 50)


def machin(bits):
    """16 atan(1/5) - 4 atan(1/239) from alternating partial sums, stopped at
    the first term below 2^-(bits + 8) once both brackets exist."""
    def atan_inv(x):
        total, power, k = F(0), F(1, x), 0
        below = above = None
        while True:
            term = power / (2 * k + 1)
            if k % 2 == 0:
                total += term
                above = total
            else:
                total -= term
                below = total
            if term < F(1, 1 << (bits + 8)) and below is not None:
                return below, above
            power /= x * x
            k += 1

    lo5, hi5 = atan_inv(5)
    lo239, hi239 = atan_inv(239)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def test_equals_uncached_machin():
    for bits in (*REFINEMENT_BITS, 192):
        first = pi_enclosure(bits)
        assert (first.lo, first.hi) == machin(bits)
        again = pi_enclosure(bits)
        assert (again.lo, again.hi) == (first.lo, first.hi)


def test_brackets_pi():
    for bits in (*REFINEMENT_BITS, 192):
        v = pi_enclosure(bits)
        if v.hi - v.lo > PI_50_HI - PI_50_LO:
            assert v.lo < PI_50_LO and PI_50_HI < v.hi
        else:
            assert PI_50_LO < v.lo <= v.hi < PI_50_HI


def test_cache_stays_bounded():
    bound = pi_enclosure.cache_info().maxsize
    for bits in range(8, 8 + 3 * bound):
        pi_enclosure(bits)
    assert pi_enclosure.cache_info().currsize <= bound
