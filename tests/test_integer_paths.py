"""The integer hull pipeline against its Fraction references.

compute_emax, the hull oracle and the guarded hull's sort keys all run on
integers (compute_emax also on the (numerator, denominator) pairs the
perturbation loop reads); each is checked here, on fixed seeds, against the Fraction code it
replaced (tests/reference_hull.py) or against exact rational ordering.
"""

import random
from fractions import Fraction as F

import pytest

import reference_hull

from cperturb.geom import exact_convex_hull, guarded_convex_hull
from cperturb.grid import compute_emax
from cperturb.softfloat import exponent_min, fl_round, zero


def rational(rng: random.Random) -> F:
    """Integers, dyadic and non-dyadic fractions, zero, either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(0)
    if kind == 1:
        return F(rng.randint(-50, 50))
    if kind == 2:
        return F(rng.randint(-400, 400), 1 << rng.randint(0, 12))
    return F(rng.randint(-400, 400), rng.randint(1, 60))


class TestComputeEmax:
    def test_random_against_reference(self):
        rng = random.Random(31)
        for _ in range(2000):
            k = rng.randint(1, 6)
            scale = F(2) ** rng.choice((0, 0, 0, 200, -30))
            centers = [rational(rng) * scale for _ in range(k)]
            deltas = [abs(rational(rng)) for _ in range(k)]
            expected = reference_hull.compute_emax(centers, deltas)
            assert compute_emax(centers, deltas) == expected
            # as the perturbation loop passes them: (numerator, denominator) pairs
            pairs = [c.as_integer_ratio() for c in centers]
            assert compute_emax(pairs, [d.as_integer_ratio() for d in deltas]) == expected
            assert compute_emax(pairs, deltas) == expected

    def test_int_and_fraction_inputs_agree(self):
        rng = random.Random(32)
        for _ in range(500):
            centers = [rng.randint(-(1 << 210), 1 << 210) >> rng.randint(0, 210) for _ in range(3)]
            deltas = [rng.randint(0, 9) for _ in range(3)]
            expected = reference_hull.compute_emax(centers, deltas)
            assert compute_emax(centers, deltas) == expected
            assert compute_emax([F(c) for c in centers], [F(d) for d in deltas]) == expected

    @pytest.mark.parametrize("centers, deltas, emax", [
        ([0], [0], 0),  # zero bound
        ([0], [F(1, 3)], 0),  # below 1
        ([-3], [1], 2),  # |c| + d = 4 exactly: no rounding up
        ([F(-7, 3)], [F(5, 3)], 2),  # 4 again, non-dyadic
        ([F(-7, 3)], [F(6, 3)], 3),
        ([2**200 - 1], [1], 200),
        ([-(2**200)], [F(1, 2)], 201),
        ([5, F(-1, 7), 2**30], [F(1, 2)] * 3, 31),
    ])
    def test_edges(self, centers, deltas, emax):
        assert compute_emax(centers, deltas) == emax
        assert reference_hull.compute_emax(centers, deltas) == emax

    def test_no_coordinates(self):
        with pytest.raises(ValueError):
            compute_emax([], [])


class TestHullOracle:
    def test_random_against_reference(self):
        rng = random.Random(41)
        for _ in range(600):
            # a small pool of values gives duplicates and collinear points
            pool = [rational(rng) * F(2) ** rng.choice((0, 0, 190)) for _ in range(rng.randint(1, 6))]
            pts = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 12))]
            try:
                expected = reference_hull.exact_convex_hull(pts)
            except ValueError:
                with pytest.raises(ValueError):
                    exact_convex_hull(pts)
                continue
            assert exact_convex_hull(pts) == expected

    def test_int_inputs(self):
        pts = [(0, 0), (3, 0), (3, 0), (0, 3), (1, 1), (2**200, 5)]
        assert exact_convex_hull(pts) == reference_hull.exact_convex_hull(pts)

    @pytest.mark.parametrize("pts", [[], [(1, 2)], [(F(1, 3), 0), (F(2, 6), 0), (1, 1)]])
    def test_fewer_than_three_distinct(self, pts):
        with pytest.raises(ValueError):
            exact_convex_hull(pts)


def softfloats(rng: random.Random, L: int, K: int, n: int) -> list:
    """Members of F_{L,K}: zero, subnormals, and small normal values."""
    emin = exponent_min(K)
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.2:
            out.append(zero(L, K))
        elif r < 0.4:
            m = rng.randint(1, (1 << L) - 1) * rng.choice((1, -1))
            out.append(fl_round(F(m, 1 << (L - emin)), L, K))
        else:
            out.append(fl_round(F(rng.randint(-64, 64), rng.choice((1, 2, 4, 8))), L, K))
    return out


class TestGuardedHullKeys:
    def test_xy_order_is_fraction_order(self):
        # SoftFloats of several F_{L,K}, all members of F_{30,6}, mixed in one
        # point set: the hull's integer keys sort and merge them by value, so
        # it starts at the same vertex and keeps the same index of each
        # coincident group as the exact hull
        rng = random.Random(51)
        seen = {"success": 0, "merged": 0, "too_few": 0}
        for _ in range(400):
            pool = [v for L, K in ((4, 4), (10, 4), (30, 6)) for v in softfloats(rng, L, K, 3)]
            pts = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 10))]
            vals = [(x.to_fraction(), y.to_fraction()) for x, y in pts]
            kind, hull = guarded_convex_hull(pts, 30, 6, emax=7)
            if len(set(vals)) < 3:
                assert kind == "guard_failure" and hull is None
                seen["too_few"] += 1
            elif kind == "success":
                assert hull == exact_convex_hull(vals)
                seen["success"] += 1
                seen["merged"] += len(set(vals)) < len(vals)
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("L, K", [(6, 4), (12, 5), (20, 5)])
    def test_matches_oracle_in_one_F(self, L, K):
        rng = random.Random(L * 100 + K)
        emin = exponent_min(K)
        seen = {"success": 0, "subnormal": 0, "zero": 0, "merged": 0}
        for _ in range(150):
            pool = softfloats(rng, L, K, 6)
            pts = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(3, 8))]
            if rng.random() < 0.5:
                pts.append(pts[0])
            vals = [(x.to_fraction(), y.to_fraction()) for x, y in pts]
            kind, hull = guarded_convex_hull(pts, L, K, emax=7)
            if kind != "success":
                continue  # degenerate or out of range: nothing certified to compare
            assert hull == exact_convex_hull(vals)
            flat = [v for p in vals for v in p]
            seen["success"] += 1
            seen["subnormal"] += any(0 < abs(v) < F(2) ** emin for v in flat)
            seen["zero"] += 0 in flat
            seen["merged"] += len(set(vals)) < len(vals)
        assert min(seen.values()) >= 10, seen
