import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

import reference_grid as ref
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
    grid_floats,
    grid_unit,
    perturb_object_preserving,
    sample_grid_point,
    sample_grid_values,
)
from cperturb.softfloat import SoftFloat, enumerate_floats, exponent_min, fl_round, is_representable, to_pair


class TestEmax:
    def test_examples(self):
        assert compute_emax([3], [1]) == 2
        assert compute_emax([F(1, 2)], [F(1, 2)]) == 0
        assert compute_emax([7, -9], [1, 2]) == 4

    def test_lengths_must_agree(self):
        # zip would drop the coordinate 100 and answer 1
        with pytest.raises(ValueError):
            compute_emax([1, 100], [F(1, 2)])
        with pytest.raises(ValueError):
            compute_emax([1], [F(1, 2), F(1, 2)])


class TestIndexRange:
    def test_equals_ceil_and_floor_over_tau(self):
        # lo = ceil(a / tau), hi = floor(b / tau), clipped to +-2^(L+1), with
        # both signs of t = L + 1 - emax; index_range_about agrees on c -+ r
        rng = random.Random(18)
        for _ in range(500):
            L, emax = rng.randint(1, 12), rng.randint(0, 16)
            spec = GridSpec(L, emax.bit_length() + 3, emax)
            c = F(rng.randint(-5000, 5000), rng.choice((1, 3, 64, 1000)))
            r = F(rng.randint(0, 5000), rng.choice((1, 7, 1024)))
            a, b = c - r, c + r
            edge = 1 << (L + 1)
            want = (max(math.ceil(a / spec.tau), -edge), min(math.floor(b / spec.tau), edge))
            assert spec.index_range(a, b) == want
            assert ref.index_range_about(spec, c.numerator, c.denominator, r.numerator, r.denominator) == want


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
            got = ref.grid_float(lam, spec)
            assert (got.sign, got.significand, got.exponent, got.prec, got.expbits) == (
                want.sign, want.significand, want.exponent, want.prec, want.expbits)
            subnormal += 0 < want.significand < 1 << L
        if (L, K, emax) == (10, 3, 0):
            # tau = 2^-11 and e_min = -3: the smallest points are subnormal
            assert subnormal > 0


    @pytest.mark.parametrize("L, K, emax", [(1, 2, 0), (2, 3, 1), (3, 4, 6), (4, 3, 1), (10, 3, 0),
                                            (12, 5, 7), (53, 11, 200)])
    def test_builder_equals_fl_round(self, L, K, emax):
        # one call over many indices, as GridSampler.floats makes it; built
        # members also pass the public constructor's checks
        spec = GridSpec(L, K, emax)
        edge = 1 << (L + 1)
        rng = random.Random(L * 1000 + K * 10 + emax + 1)
        lams = [0, 1, -1, 2, -3, edge, -edge, edge - 1, 1 - edge, edge // 2, 0, 1]
        lams += [rng.randint(-edge, edge) for _ in range(400)] + [rng.randint(-min(64, edge), min(64, edge)) for _ in range(100)]
        got = grid_floats(lams, spec)
        assert type(got) is tuple and len(got) == len(lams)
        kinds = set()
        for lam, f in zip(lams, got):
            want = fl_round(lam * spec.tau, L, K)
            assert type(f) is SoftFloat
            assert (f.sign, f.significand, f.exponent, f.prec, f.expbits) == (
                want.sign, want.significand, want.exponent, want.prec, want.expbits)
            assert f == want and hash(f) == hash(want) and repr(f) == repr(want)
            assert f.to_fraction() == want.to_fraction() == lam * spec.tau
            assert SoftFloat(f.sign, f.significand, f.exponent, f.prec, f.expbits) == f
            kinds.add("zero" if not lam else "subnormal" if f.significand < 1 << L else "normal")
        # points below 2^e_min exist where tau is below it
        below = spec.tau < F(2) ** exponent_min(K)
        assert kinds == ({"zero", "normal", "subnormal"} if below else {"zero", "normal"})
        assert [ref.grid_float(lam, spec) for lam in lams] == list(got)
        assert grid_floats([], spec) == ()
        assert grid_floats(iter(lams[:5]), spec) == got[:5]

    def test_built_members_equal_checked_construction(self, rng):
        # the members grid_floats builds unchecked, over random formats, grids
        # and indices of every bit length up to L + 1, equal the checked ones
        for _ in range(500):
            L, K = rng.randint(1, 64), rng.randint(2, 12)
            emax = rng.choice((0, (1 << (K - 1)) - 2, rng.randint(0, (1 << (K - 1)) - 2)))
            spec = GridSpec(L, K, emax)
            n = rng.randint(1, L + 1)
            lam = rng.choice((1, -1)) * rng.randint(1 << (n - 1), (1 << n) - 1)
            (a,) = grid_floats([lam], spec)
            b = SoftFloat(a.sign, a.significand, a.exponent, L, K)
            assert type(a) is SoftFloat
            assert a == b and b == a and not a != b
            assert hash(a) == hash(b) and len({a, b}) == 1
            assert repr(a) == repr(b)
            assert a.to_fraction() == b.to_fraction() == lam * spec.tau and to_pair(a) == to_pair(b)
            assert a != grid_floats([-lam], spec)[0]
            assert a == fl_round(a.to_fraction(), L, K)

    def test_built_members_are_frozen(self):
        a = grid_floats([3], GridSpec(2, 3, 1))[0]
        with pytest.raises(FrozenInstanceError):
            a.sign = -1

    def test_builder_checks_the_format_once(self):
        # GridSpec admits L = 0 and K = 1; SoftFloat does not
        for spec in (GridSpec(0, 4, 0), GridSpec(2, 1, -1)):
            with pytest.raises(ValueError, match="need L >= 1 and K >= 2"):
                grid_floats([1], spec)
            with pytest.raises(ValueError, match="need L >= 1 and K >= 2"):
                ref.grid_float(1, spec)


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
        assert [ref.next_u64(a) for _ in range(5)] == [ref.next_u64(b) for _ in range(5)]

    def test_uniform_int_words_are_splitmix64(self):
        # n = 2^64 takes each word whole, and never rejects: one word per draw
        for seed in (0, 9, (1 << 64) - 1, 1 << 70):
            a, b = SplitMix64(seed), SplitMix64(seed)
            assert [a.uniform_int(1 << 64) for _ in range(8)] == [ref.next_u64(b) for _ in range(8)]
            assert a.counter == b.counter == 8
        # a narrower draw starts a fresh word and takes its low bits first
        a, b = SplitMix64(3), SplitMix64(3)
        assert [a.uniform_int(1 << 16) for _ in range(4)] == [ref.next_u64(b) & 0xFFFF for _ in range(4)]
        assert a.counter == b.counter == 4
        # rejection moves on 3 bits at a time within a word (21 chunks), then
        # to the next word
        a, b = SplitMix64(11), SplitMix64(11)
        for _ in range(200):
            want = None
            while want is None:
                word = ref.next_u64(b)
                want = next((c for c in ((word >> s) & 7 for s in range(0, 63, 3)) if c < 5), None)
            assert a.uniform_int(5) == want
            assert a.counter == b.counter

    # spans of 1 to 70 bits: powers of two and their neighbours, 2^32 and
    # 2^32 + 1 on either side of the whole-word rule, 2^64 and beyond
    SPANS = sorted({n for k in range(71) for n in ((1 << k) - 1, 1 << k, (1 << k) + 1) if n >= 1}
                   | {3, 5, 1000, 12345, (1 << 32) + 1, 10**12, 3 << 62})

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1, 1 << 70, 12345])
    def test_batched_stream_equals_word_by_word(self, seed):
        # long runs of draws cross every batch size and many batch edges; the
        # counter is checked after each draw
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert a.seed == b.seed == seed & ((1 << 64) - 1)
        rng = random.Random(seed)
        for _ in range(3000):
            n = rng.choice(self.SPANS)
            assert a.uniform_int(n) == ref.uniform_int(b, n)
            assert a.counter == b.counter
        assert a.counter > 1024  # well into the 256-word batches

    def test_short_streams_equal_word_by_word(self):
        # a fresh stream per draw count: streams of one to three words, and
        # words taken singly through the reference between the draws
        for seed in range(200):
            for draws in (1, 2, 3):
                a, b = SplitMix64(seed), SplitMix64(seed)
                for j in range(draws):
                    n = self.SPANS[(seed * 7 + j) % len(self.SPANS)]
                    assert a.uniform_int(n) == ref.uniform_int(b, n)
                    assert a.counter == b.counter
                assert a.uniform_int(1 << 64) == ref.next_u64(b)
                assert ref.next_u64(a) == ref.next_u64(b)

    def test_counter_moved_from_outside(self):
        # the words follow the counter wherever it is set: forward past the
        # batch, back into it, back before it, and near 2^64, where the word
        # index wraps
        top = 1 << 64
        a, b = SplitMix64(77), SplitMix64(77)
        rng = random.Random(4)
        for target in (0, 5, 3, 700, 690, 2, 1000, 999, top - 3, top - 1, top + 5, 40, top - 700, 2 * top):
            a.counter = b.counter = target
            for _ in range(rng.randint(1, 300)):
                n = rng.choice(self.SPANS)
                assert a.uniform_int(n) == ref.uniform_int(b, n)
                assert a.counter == b.counter
            ref.next_u64(a)  # one word through the reference moves the counter alone
            ref.next_u64(b)
            assert a.uniform_int(1 << 64) == ref.next_u64(b)
        # past index 2^64 the word index wraps: word 2^64 + i is word i
        a = SplitMix64(5)
        a.counter = top - 1
        assert [a.uniform_int(1 << 64) for _ in range(3)] == [ref._mix64(5 + i * ref._GAMMA) for i in range(3)]

    def test_wide_span_reaches_its_top_bits(self):
        # n = 2^70 takes two whole words per try and never rejects: the draws
        # reach bit length 70, and about a quarter land in [3 * 2^68, 2^70)
        rng = SplitMix64(2024)
        draws = [rng.uniform_int(1 << 70) for _ in range(2000)]
        assert rng.counter == 4000
        assert max(draws).bit_length() == 70
        assert 400 <= sum(d >= 3 << 68 for d in draws) <= 600  # 500 +- 5 sigma

    def test_uniform_int_range(self):
        rng = SplitMix64(3)
        for n in (1, 2, 3, 5, 17, 1000):
            for _ in range(50):
                assert 0 <= rng.uniform_int(n) < n

    def test_spec_guard(self):
        with pytest.raises(ValueError):
            GridSpec(4, 3, 3)  # emax + 1 < 2^(K-1) violated
