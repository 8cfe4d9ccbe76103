import random
from fractions import Fraction as F

import pytest

from cperturb.grid import (
    EmptyGrid,
    GridSpec,
    MeasurementNotRepresentable,
    ObjectInput,
    PerturbationBox,
    SplitMix64,
    compute_emax,
    count_grid,
    enumerate_grid,
    grid_float,
    grid_unit,
    perturb_object_preserving,
    sample_grid_point,
    sample_grid_values,
)
from cperturb.softfloat import enumerate_floats, fl_round, is_representable


class TestEmax:
    def test_examples(self):
        assert compute_emax([3], [1]) == 2
        assert compute_emax([F(1, 2)], [F(1, 2)]) == 0
        assert compute_emax([7, -9], [1, 2]) == 4


class TestGridUnit:
    def test_quarter_unit(self):
        assert grid_unit(1, 2) == F(1, 4)

    def test_direct_formula(self):
        assert grid_unit(0, 0) == F(1, 2)
        assert grid_unit(10, 53) == F(2) ** (-44)


class TestEnumerate:
    def test_unit_interval(self):
        spec = GridSpec(2, 3, 1)
        assert enumerate_grid(0, 1, spec) == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]

    def test_counts_and_ratios(self):
        spec = GridSpec(2, 3, 1)
        assert count_grid(0, 2, spec) == 9
        assert F(count_grid(0, 1, spec), count_grid(0, 2, spec)) == F(5, 9)
        assert F(count_grid(1, 2, spec), count_grid(0, 2, spec)) == F(5, 9)
        assert F(count_grid(F(1, 10), F(9, 10), spec), count_grid(0, 2, spec)) == F(1, 3)

    def test_inner_interval(self):
        assert enumerate_grid(F(1, 8), F(3, 8), GridSpec(2, 3, 1)) == [F(1, 4)]

    def test_grid_subset_of_floats(self):
        spec = GridSpec(3, 4, 1)
        for v in enumerate_grid(-2, 2, spec):
            f = fl_round(v, spec.L, spec.K)
            assert f.to_fraction() == v

    def test_tau_is_max_spacing(self):
        # exhaustive at (L=2, K=3), emax=1
        spec = GridSpec(2, 3, 1)
        members = list(enumerate_floats(-2, 2, 2, 3))
        gaps = {b - a for a, b in zip(members, members[1:])}
        assert max(gaps) == spec.tau


class TestGridFloat:
    """grid_float builds lam * tau directly; fl_round of the value is the
    reference, field by field."""

    @pytest.mark.parametrize("L, K, emax", [(1, 2, 0), (2, 3, 1), (10, 3, 0), (12, 5, 7),
                                            (53, 11, 200)])
    def test_equals_fl_round(self, L, K, emax):
        spec = GridSpec(L, K, emax)
        edge = 1 << (L + 1)
        rng = random.Random(L * 1000 + K * 10 + emax)
        lams = [0, 1, -1, edge, -edge] + [rng.randint(-edge, edge) for _ in range(400)]
        subnormal = 0
        for lam in lams:
            want = fl_round(lam * spec.tau, L, K)
            got = grid_float(lam, spec)
            assert (got.sign, got.significand, got.exponent, got.prec, got.expbits) == (
                want.sign, want.significand, want.exponent, want.prec, want.expbits)
            subnormal += 0 < want.significand < 1 << L
        if (L, K, emax) == (10, 3, 0):
            # tau = 2^-11 and e_min = -3: the smallest points are subnormal
            assert subnormal > 0


class TestSampling:
    def test_membership_and_determinism(self):
        spec = GridSpec(2, 4, 1)
        box = PerturbationBox((F(1),), (F(1),))
        a = sample_grid_point(box, spec, 42)
        b = sample_grid_point(box, spec, 42)
        assert [v.to_fraction() for v in a] == [v.to_fraction() for v in b]
        grid = set(enumerate_grid(0, 2, spec))
        assert a[0].to_fraction() in grid

    def test_uniformity(self):
        # 10^4 samples over [0,2] with tau=1/2: each of 5 points 2000 +- 200
        spec = GridSpec(1, 4, 1)
        assert spec.tau == F(1, 2)
        box = PerturbationBox((F(1),), (F(1),))
        rng = SplitMix64(2024)
        counts = {}
        for _ in range(10_000):
            (v,) = sample_grid_values(box, spec, rng)
            counts[v] = counts.get(v, 0) + 1
        assert set(counts) == {F(0), F(1, 2), F(1), F(3, 2), F(2)}
        for c in counts.values():
            assert abs(c - 2000) <= 200

    def test_empty_grid(self):
        spec = GridSpec(1, 4, 1)  # tau = 1/2
        box = PerturbationBox((F(1, 8),), (F(1, 16),))
        with pytest.raises(EmptyGrid):
            sample_grid_point(box, spec, 1)

    @pytest.mark.parametrize("L, K, emax", [(2, 4, 1), (10, 3, 0), (12, 5, 7), (53, 11, 200)])
    def test_point_equals_rounded_values(self, L, K, emax):
        # sample_grid_point draws through GridSampler; fl_round of the values
        # sample_grid_values draws from the same seed is the reference
        spec = GridSpec(L, K, emax)
        rng = random.Random(L * 1000 + K * 10 + emax)
        top = 1 << emax
        subnormal = 0
        for trial in range(60):
            dim = rng.randint(1, 4)
            center = [F(rng.randint(-64 * top, 64 * top), 64) for _ in range(dim)]
            radius = [F(rng.randint(0, 64 * top), 64 * rng.choice((1, 2**6, 2**12))) for _ in range(dim)]
            center = [max(-top + r, min(top - r, c)) for c, r in zip(center, radius)]
            box = PerturbationBox(center, radius)
            try:
                want = sample_grid_values(box, spec, SplitMix64(trial))
            except EmptyGrid:
                with pytest.raises(EmptyGrid):
                    sample_grid_point(box, spec, trial)
                continue
            got = sample_grid_point(box, spec, trial)
            assert len(got) == dim
            for f, v in zip(got, want):
                r = fl_round(v, L, K)
                assert (f.sign, f.significand, f.exponent, f.prec, f.expbits) == (
                    r.sign, r.significand, r.exponent, r.prec, r.expbits)
                subnormal += 0 < r.significand < 1 << L
        if K == 3:
            # e_min = -3 and tau = 2^-11: boxes near 0 draw subnormal points
            assert subnormal > 0

    def test_point_empty_in_a_later_coordinate(self):
        spec = GridSpec(1, 4, 1)  # tau = 1/2
        box = PerturbationBox((F(1), F(1, 8)), (F(1), F(1, 16)))
        with pytest.raises(EmptyGrid):
            sample_grid_point(box, spec, 1)

    def test_counting_inequality(self):
        # Example-3 style: |R cap G| / |U cap G| <= mu(R +- tau/2) / mu(U)
        spec = GridSpec(4, 6, 1)
        tau = spec.tau
        rng = SplitMix64(7)
        lam0 = 32  # U = [0, lam0 * tau] = [0, 2], inside [-2^emax, 2^emax]
        u_lo, u_hi = F(0), lam0 * tau
        n_u = count_grid(u_lo, u_hi, spec)
        for _ in range(10_000):
            a_num = rng.uniform_int(1024)
            len_num = rng.uniform_int(1024)
            a = u_lo + F(a_num, 1024) * (u_hi - u_lo)
            b = min(u_hi, a + F(len_num, 1024) * (u_hi - u_lo))
            n_r = count_grid(a, b, spec)
            lhs = F(n_r, n_u)
            rhs = ((b + tau / 2) - (a - tau / 2)) / (u_hi - u_lo)
            assert lhs <= rhs, (a, b)


class TestObjectPreserving:
    def test_square_translation(self):
        obj = ObjectInput((0, 0), ((1, 0), (1, 1), (0, 1)))
        spec = GridSpec(4, 6, 1)
        box = PerturbationBox((0, 0), (F(1, 2), F(1, 2)))
        rows = perturb_object_preserving(obj, box, spec, 99)
        anchor = rows[0]
        assert rows[1] == (anchor[0] + 1, anchor[1])
        assert rows[2] == (anchor[0] + 1, anchor[1] + 1)
        assert rows[3] == (anchor[0], anchor[1] + 1)

    def test_zero_delta_identity(self):
        obj = ObjectInput((F(1, 4), F(1, 2)), ((1, 0),))
        spec = GridSpec(4, 6, 1)
        box = PerturbationBox((F(1, 4), F(1, 2)), (0, 0))
        rows = perturb_object_preserving(obj, box, spec, 5)
        assert rows[0] == (F(1, 4), F(1, 2))
        assert rows[1] == (F(5, 4), F(1, 2))

    def test_circle_radius_preserved(self):
        # center anchor plus a radius-point measurement: the distance between
        # the two rows is translation-invariant, bit-exactly
        obj = ObjectInput((0, 0), ((1, 0),))
        spec = GridSpec(5, 6, 2)
        box = PerturbationBox((0, 0), (F(1, 2), F(1, 2)))
        rows = perturb_object_preserving(obj, box, spec, 123)
        dx = rows[1][0] - rows[0][0]
        dy = rows[1][1] - rows[0][1]
        assert (dx, dy) == (F(1), F(0))

    def test_unrepresentable_measurement(self):
        spec = GridSpec(2, 4, 1)
        obj = ObjectInput((0,), ((F(7, 4),),))
        box = PerturbationBox((0,), (F(1, 2),))
        # anchor can land at 1/2; 1/2 + 7/4 = 9/4 needs 4 significand bits
        with pytest.raises(MeasurementNotRepresentable):
            for seed in range(64):
                perturb_object_preserving(obj, box, spec, seed)


class TestRng:
    def test_counter_based(self):
        a, b = SplitMix64(9), SplitMix64(9)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_uniform_int_range(self):
        rng = SplitMix64(3)
        for n in (1, 2, 3, 5, 17, 1000):
            for _ in range(50):
                assert 0 <= rng.uniform_int(n) < n

    def test_spec_guard(self):
        with pytest.raises(ValueError):
            GridSpec(4, 3, 3)  # emax + 1 < 2^(K-1) violated
