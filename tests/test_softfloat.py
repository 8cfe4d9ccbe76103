import random
import struct
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cperturb.softfloat import (
    DivisionByZero,
    RangeError,
    SoftFloat,
    count_floats,
    enumerate_floats,
    exponent_min,
    fl_binop,
    fl_round,
    is_representable,
    max_magnitude,
    zero,
)
from conftest import nearest_by_enumeration, random_rational


class TestRound:
    def test_representable_fixed_point(self):
        assert fl_round(F(1, 2), 2, 4).to_fraction() == F(1, 2)

    def test_one_third_matches_enumeration_oracle(self):
        # nearest member of F_{2,4} to 1/3, computed by exhaustive search
        expected = nearest_by_enumeration(F(1, 3), 2, 4)
        assert expected == F(5, 16)
        assert fl_round(F(1, 3), 2, 4).to_fraction() == expected

    def test_overflow(self):
        # max magnitude with K=4 is (2 - 2^-4) * 2^8 = 496 < 2^20
        assert max_magnitude(4, 4) == 496
        with pytest.raises(RangeError):
            fl_round(2**20, 4, 4)

    def test_round_trip_representable(self):
        assert fl_round(F(5, 4), 8, 8).to_fraction() == F(5, 4)

    def test_zero_canonical(self):
        z = fl_round(0, 6, 5)
        assert z.significand == 0 and z.to_fraction() == 0

    def test_relative_error_bound(self, rng):
        for _ in range(300):
            L = rng.randint(1, 20)
            K = rng.randint(3, 8)
            x = random_rational(rng)
            if x == 0 or abs(x) < F(2) ** exponent_min(K) or abs(x) > max_magnitude(L, K) / 2:
                continue
            r = fl_round(x, L, K).to_fraction()
            assert abs(r - x) <= abs(x) * F(2) ** (-L)

    def test_matches_enumeration_oracle_randomized(self, rng):
        for _ in range(400):
            L = rng.randint(1, 3)
            K = rng.randint(2, 4)
            x = random_rational(rng, 64)
            try:
                got = fl_round(x, L, K).to_fraction()
            except RangeError:
                continue
            assert got == nearest_by_enumeration(x, L, K)

    def test_monotone_refinement(self, rng):
        for _ in range(200):
            x = random_rational(rng)
            if x == 0:
                continue
            L = rng.randint(2, 18)
            try:
                coarse = fl_round(x, L, 9).to_fraction()
                fine = fl_round(x, L + 1, 9).to_fraction()
            except RangeError:
                continue
            assert abs(fine - x) <= abs(coarse - x)

    def test_inexact_underflow_raises(self):
        # smallest normal of F_{4,4} is 2^-7; an inexact value below it fails
        with pytest.raises(RangeError):
            fl_round(F(1, 3) * F(1, 256), 4, 4)

    def test_exact_subnormal_ok(self):
        # 2^-9 = 4 * 2^-11 is an exact subnormal of F_{4,4}
        v = fl_round(F(1, 512), 4, 4)
        assert v.to_fraction() == F(1, 512)


class TestBinop:
    def test_add_exact(self):
        for L, K in [(2, 3), (5, 4), (24, 8)]:
            one = fl_round(1, L, K)
            assert fl_binop("+", one, one).to_fraction() == 2

    def test_mul_tie_to_even(self):
        a = fl_round(F(3, 8), 2, 4)
        assert fl_binop("*", a, a).to_fraction() == F(1, 8)

    def test_division_by_zero(self):
        one = fl_round(1, 4, 4)
        with pytest.raises(DivisionByZero):
            fl_binop("/", one, zero(4, 4))

    def test_mixed_formats_rejected(self):
        with pytest.raises(ValueError):
            fl_binop("+", fl_round(1, 4, 4), fl_round(1, 5, 4))

    def test_correct_rounding_randomized(self, rng):
        ops = "+-*/"
        checked = 0
        while checked < 500:
            L = rng.randint(1, 3)
            K = rng.randint(2, 4)
            x = random_rational(rng, 32)
            y = random_rational(rng, 32)
            op = ops[rng.randrange(4)]
            try:
                a, b = fl_round(x, L, K), fl_round(y, L, K)
            except RangeError:
                continue
            if op == "/" and b.significand == 0:
                continue
            exact = {
                "+": a.to_fraction() + b.to_fraction(),
                "-": a.to_fraction() - b.to_fraction(),
                "*": a.to_fraction() * b.to_fraction(),
                "/": a.to_fraction() / b.to_fraction() if b.significand else None,
            }[op]
            try:
                got = fl_binop(op, a, b).to_fraction()
            except RangeError:
                continue
            assert got == nearest_by_enumeration(exact, L, K), (op, x, y, L, K)
            checked += 1

    def test_error_model(self, rng):
        for _ in range(300):
            L = rng.randint(4, 24)
            a = fl_round(random_rational(rng), L, 8)
            b = fl_round(random_rational(rng), L, 8)
            for op in "+-*":
                exact = {
                    "+": a.to_fraction() + b.to_fraction(),
                    "-": a.to_fraction() - b.to_fraction(),
                    "*": a.to_fraction() * b.to_fraction(),
                }[op]
                try:
                    got = fl_binop(op, a, b).to_fraction()
                except RangeError:
                    continue
                assert abs(got - exact) <= abs(exact) * F(2) ** (-L)


class TestEnumeration:
    def test_small_format_counts(self):
        assert len(list(enumerate_floats(0, 2, 2, 3))) == 21
        assert len(list(enumerate_floats(0, 1, 2, 3))) == 17
        assert len(list(enumerate_floats(1, 2, 2, 3))) == 5

    def test_counts_match_enumeration(self, rng):
        for _ in range(50):
            L, K = rng.randint(1, 3), rng.randint(2, 4)
            a, b = sorted(random_rational(rng, 64) for _ in range(2))
            assert count_floats(a, b, L, K) == len(list(enumerate_floats(a, b, L, K)))

    def test_sorted_and_distinct(self):
        vals = list(enumerate_floats(-3, 3, 3, 3))
        assert vals == sorted(set(vals))


class TestIEEE:
    def test_binary64_crosscheck(self, rng):
        # (L=52, K=11) is binary64: 52 fraction bits, exponents in [-1023, 1024]
        checked = 0
        while checked < 2000:
            x = float(rng.randint(-(10**9), 10**9)) / float(2 ** rng.randint(0, 40))
            y = float(rng.randint(-(10**9), 10**9)) / float(2 ** rng.randint(0, 40))
            if y == 0:
                continue
            a, b = fl_round(F(x), 52, 11), fl_round(F(y), 52, 11)
            assert a.to_fraction() == F(x) and b.to_fraction() == F(y)
            for op, pyop in (("+", x + y), ("-", x - y), ("*", x * y), ("/", x / y)):
                if pyop == 0 or abs(pyop) < 2**-1000 or abs(pyop) > 2**1000:
                    continue
                got = fl_binop(op, a, b).to_fraction()
                assert got == F(pyop), (op, x, y)
                checked += 1

    def test_binary32_crosscheck(self, rng):
        # binary32 has 23 fraction bits and an 8-bit exponent field
        np = pytest.importorskip("numpy")
        checked = excluded = 0
        while checked < 2000:
            xi = rng.randint(-(1 << 24), 1 << 24)
            yi = rng.randint(-(1 << 24), 1 << 24)
            sx, sy = rng.randint(-10, 10), rng.randint(-10, 10)
            x = np.float32(xi) * np.float32(2.0) ** sx
            y = np.float32(yi) * np.float32(2.0) ** sy
            if x == 0 or y == 0:
                continue
            a = fl_round(F(float(x)), 23, 8)
            b = fl_round(F(float(y)), 23, 8)
            for op in "+-*/":
                ref = {
                    "+": x + y,
                    "-": x - y,
                    "*": x * y,
                    "/": x / y if y != 0 else None,
                }[op]
                rf = float(ref)
                if rf == 0 or not np.isfinite(ref) or abs(rf) < 2.0**-126 or abs(rf) >= 2.0**128:
                    excluded += 1
                    continue
                got = fl_binop(op, a, b).to_fraction()
                assert got == F(rf), (op, float(x), float(y))
                checked += 1
        assert excluded < checked


class TestInvariants:
    @given(
        st.integers(min_value=-4096, max_value=4096),
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_idempotent(self, num, den, L):
        x = F(num, den)
        try:
            v = fl_round(x, L, 8)
        except RangeError:
            return
        assert fl_round(v.to_fraction(), L, 8).to_fraction() == v.to_fraction()

    def test_normalization_invariant(self, rng):
        for _ in range(200):
            L = rng.randint(1, 10)
            try:
                v = fl_round(random_rational(rng), L, 6)
            except RangeError:
                continue
            if v.significand:
                assert v.significand < (1 << (L + 1))
                if v.significand < (1 << L):
                    assert v.exponent == -(1 << 5) + 1

    def test_is_representable(self):
        assert is_representable(F(5, 4), 2, 3)
        assert not is_representable(F(1, 3), 8, 8)

    def test_to_rational_round_trips(self, rng):
        assert fl_round(F(5, 4), 8, 8).to_fraction() == F(5, 4)
        assert zero(6, 5).to_fraction() == 0
        expected = nearest_by_enumeration(F(1, 3), 2, 4)
        assert fl_round(F(1, 3), 2, 4).to_fraction() == expected
        for _ in range(100):
            try:
                v = fl_round(random_rational(rng), rng.randint(1, 12), 8)
            except RangeError:
                continue
            assert fl_round(v.to_fraction(), v.prec, v.expbits).to_fraction() == v.to_fraction()
