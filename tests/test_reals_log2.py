"""Integer log2 in `reals` against the Fraction-power definitions."""

import random
from fractions import Fraction

import pytest

from cperturb.reals import ceil_log2, floor_log2, is_power_of_two

TWO = Fraction(2)


def reference_floor_log2(q: Fraction) -> int:
    """Largest n with 2^n <= q, by walking n one step at a time."""
    n = 0
    while TWO ** n > q:
        n -= 1
    while TWO ** (n + 1) <= q:
        n += 1
    return n


def reference_ceil_log2(q: Fraction) -> int:
    n = reference_floor_log2(q)
    return n if q == TWO ** n else n + 1


def check(values):
    for q in values:
        f = Fraction(q)
        assert floor_log2(q) == reference_floor_log2(f), q
        assert ceil_log2(q) == reference_ceil_log2(f), q
        assert is_power_of_two(q) == (f == TWO ** reference_floor_log2(f)), q


def test_small_and_edge_values():
    check([1, 2, 3, 7, 8, 9, True, Fraction(1), Fraction(1, 3), Fraction(2, 3),
           Fraction(3, 4), Fraction(5, 4), Fraction(7, 8), Fraction(9, 8)])


def test_powers_of_two_and_neighbours():
    check([TWO ** 200, TWO ** -200, 1 << 200, TWO ** 200 + 1, TWO ** 200 - 1,
           TWO ** -200 * 3, Fraction(1, 3 << 200), Fraction((1 << 200) + 1, 1 << 200)])
    rng = random.Random(1203)
    check([Fraction(1 << rng.randint(0, 90), 1 << rng.randint(0, 90)) for _ in range(100)])


def test_random_ints_and_rationals():
    rng = random.Random(6464)
    check([rng.randint(1, 1 << 80) for _ in range(100)])
    check([Fraction(rng.randint(1, 1 << 64), rng.randint(1, 1 << 64)) for _ in range(300)])


def test_non_dyadic_values():
    rng = random.Random(1011)
    # odd denominators > 1 are never powers of two
    check([Fraction(rng.randint(1, 1 << 40), 2 * rng.randint(1, 1 << 20) + 1) for _ in range(200)])


@pytest.mark.parametrize("q", [0, -1, Fraction(-1, 3), Fraction(0), -(TWO ** 200)])
def test_nonpositive_values(q):
    with pytest.raises(ValueError):
        floor_log2(q)
    with pytest.raises(ValueError):
        ceil_log2(q)
    assert is_power_of_two(q) is False
