"""Every draw goes through GridSampler: the same points, the same EmptyGrid or
None, and the same stream position as the per-caller loops it replaced
(tests/reference_grid.py)."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

import reference_grid as ref
from cperturb import algo
from cperturb.algo import (
    IterationCapExceeded,
    PerturbationShape,
    _input_drawer,
    run_acp,
    run_acp_delta_variant,
    run_basic_acp,
)
from cperturb.grid import (
    EmptyGrid,
    GridSampler,
    GridSpec,
    PerturbationBox,
    SplitMix64,
    compute_emax,
    sample_grid_point,
    sample_grid_values,
)
from cperturb.geom import guarded_convex_hull

SHAPES = {"box": 1, "disc": 2, "ball": 3}


def random_spec(rng: random.Random, emax: int) -> GridSpec:
    K = max(3, (emax + 2).bit_length() + 1)  # emax + 1 < 2^(K-1)
    return GridSpec(rng.randint(1, 10), K, emax)


def random_box(rng: random.Random, dim: int) -> PerturbationBox:
    # radii from zero up: on a coarse grid some coordinate ranges come out empty
    center = [F(rng.randint(-4096, 4096), rng.choice((1, 3, 64, 1024))) for _ in range(dim)]
    radius = [F(rng.randint(0, 64), rng.choice((1, 64, 4096))) for _ in range(dim)]
    return PerturbationBox(center, radius)


def values_or_empty(fn):
    try:
        return fn()
    except EmptyGrid:
        return "empty"


def test_sample_grid_values_matches_reference_stream():
    rng = random.Random(15)
    outcomes = set()
    for trial in range(400):
        box = random_box(rng, rng.randint(1, 5))
        emax = compute_emax(box.center, box.radius)
        spec = random_spec(rng, emax)
        a, b = SplitMix64(trial), SplitMix64(trial)
        for _ in range(3):  # repeated draws continue one stream
            before = a.counter
            want = values_or_empty(lambda: ref.sample_grid_values(box, spec, a))
            got = values_or_empty(lambda: sample_grid_values(box, spec, b))
            assert got == want
            assert b.counter == a.counter
            outcomes.add((want == "empty", a.counter > before))
    # EmptyGrid both before any draw and after earlier coordinates drew
    assert {(True, False), (True, True), (False, True)} <= outcomes


def test_sample_grid_point_matches_reference_values():
    rng = random.Random(16)
    for trial in range(200):
        box = random_box(rng, rng.randint(1, 4))
        spec = random_spec(rng, compute_emax(box.center, box.radius))
        want = values_or_empty(lambda: ref.sample_grid_values(box, spec, SplitMix64(trial)))
        got = values_or_empty(lambda: sample_grid_point(box, spec, trial))
        if want == "empty":
            assert got == "empty"
        else:
            assert [f.to_fraction() for f in got] == want


def shape_cases():
    """(kind, centres, delta, spec): several deltas per shape, grids from
    fine to coarser than delta, so ranges are full, partly or all empty and
    discs/balls may hold no grid point at all."""
    rng = random.Random(17)
    cases = []
    for kind, cpo in SHAPES.items():
        for _ in range(24):
            n = cpo * rng.randint(1, 3)
            ybar = [F(rng.randint(-512, 512), rng.choice((1, 3, 8, 256))) for _ in range(n)]
            for delta in (F(1, 64), F(1, 5), F(3, 2)):
                emax = compute_emax(ybar, [delta] * len(ybar))
                cases.append((kind, ybar, delta, random_spec(rng, emax)))
    # at tau = 1/4 these index ranges hold two grid points each, but the last
    # disc or ball holds none: its object exhausts its tries after the first
    # disc drew
    coarse = GridSpec(1, 3, 0)
    cases.append(("disc", [F(1, 8), F(0), F(1, 8), F(1, 8)], F(1, 7), coarse))
    cases.append(("ball", [F(1, 8)] * 3, F(1, 5), coarse))
    return cases


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_input_drawer_matches_reference_stream(kind):
    seen = set()
    for n, (k, ybar, delta, spec) in enumerate(shape_cases()):
        if k != kind:
            continue
        a, b = SplitMix64(n), SplitMix64(n)
        D = lcm(delta.denominator, *(c.denominator for c in ybar))  # the run's one denominator
        Cs = [c.numerator * (D // c.denominator) for c in ybar]
        draw = _input_drawer(Cs, D, delta.numerator * (D // delta.denominator), SHAPES[kind], spec, b)
        for _ in range(3):  # one drawer per (spec, delta), drawn from repeatedly
            before = a.counter
            want = ref.sample_shape_input(ybar, kind, delta, spec, a)
            got = draw()
            assert (None if got is None else tuple(f.to_fraction() for f in got)) == want
            assert b.counter == a.counter
            seen.add((want is None, a.counter > before))
    # None before any draw, and for discs and balls also after draws; under
    # one delta a box range with two or more grid points rules out an empty one
    assert {(True, False), (False, True)} <= seen
    assert ((True, True) in seen) == (kind != "box")


def test_loops_draw_the_reference_stream():
    # run_basic_acp doubles L after each failing round and the delta variant
    # builds a sampler per attempt; both consume the stream as the reference
    # does attempt by attempt, unsampled attempts included
    ybar = [F(1 << 30), F(1 << 30), F((1 << 30) + 4), F(1 << 30)]
    cases = [
        ("disc", (F(1, 4),), run_basic_acp, {}),
        ("box", (F(1, 4), F(1, 2), F(1)), run_acp_delta_variant,
         {"psi_delta": 2, "delta_min": F(1, 4), "eta_runs": 3}),
    ]
    for kind, deltas, loop, extra in cases:
        drawn = []

        def fail(y, L, K):
            drawn.append(tuple(f.to_fraction() for f in y))
            return ("guard_failure", None)

        shape = PerturbationShape(kind, deltas[0])
        with pytest.raises(IterationCapExceeded):
            loop(fail, ybar, shape, seed=5, L0=8, max_rounds=4, **extra)
        emax = compute_emax(ybar, [deltas[-1]] * len(ybar))
        rng, L, want = SplitMix64(5), 8, []
        for _ in range(4):
            for delta in deltas:
                y = ref.sample_shape_input(ybar, kind, delta, GridSpec(L, 8, emax), rng)
                if y is not None:
                    want.append(y)
            L *= 2
        assert drawn == want
        assert 0 < len(drawn) < 4 * len(deltas)  # the first rounds draw nothing


@pytest.mark.parametrize("kind", sorted(SHAPES))
@pytest.mark.parametrize("variant", ["acp", "delta"])
def test_run_constants_draw_the_reference_stream(kind, variant):
    # the range ends and in-shape constants are computed once per run and
    # delta, and each round only shifts them by t = L + 1 - emax: rounds of
    # growing L, from grids coarser than delta (t < 0) to fine ones (t > 0),
    # must draw what the reference draws from scratch, stream position included
    ybar = [F(1, 3), F(-5, 8), F(1025, 3), F(2, 3), F(-1, 6), F(9, 4)]
    drawn = []

    def fail(y, L, K):
        drawn.append(tuple(f.to_fraction() for f in y))
        return ("guard_failure", None)

    if variant == "delta":
        deltas = (F(1, 5), F(2, 5), F(4, 5))
        shape = PerturbationShape(kind, deltas[0])
        with pytest.raises(IterationCapExceeded):
            run_acp_delta_variant(fail, ybar, shape, psi_delta=2, delta_min=deltas[0], eta_runs=3,
                                  seed=7, L0=1, max_rounds=7)
    else:
        deltas = (F(3, 7),) * 3
        shape = PerturbationShape(kind, deltas[0])
        with pytest.raises(IterationCapExceeded):
            run_acp(fail, ybar, shape, eta_runs=3, seed=7, L0=1, max_rounds=7)
    emax = compute_emax(ybar, [deltas[-1]] * len(ybar))
    rng, want, ts = SplitMix64(7), [], set()
    for L in (1, 2, 4, 8, 16, 32, 64):
        ts.add((L + 1 - emax > 0) - (L + 1 - emax < 0))
        for delta in deltas:
            y = ref.sample_shape_input(ybar, kind, delta, GridSpec(L, 8, emax), rng)
            if y is not None:
                want.append(y)
    assert drawn == want
    assert ts == {-1, 0, 1}
    assert 0 < len(drawn) < 7 * len(deltas)  # the coarse rounds draw nothing


def test_balls_must_cover_every_coordinate():
    # two coordinates, 0 and 1/2 on tau = 1/2 (indices 0 and 1): a ball over
    # coordinate 0 alone leaves coordinate 1 undrawn
    box = PerturbationBox((0, F(1, 2)), (0, 0))
    sampler = GridSampler.from_box(box, GridSpec(1, 4, 1), SplitMix64(3))
    assert sampler.draw_balls([(1, (0, 1), 2)]) == [0, 1]
    with pytest.raises(ValueError):
        sampler.draw_balls([(1, (0,), 1)])
    with pytest.raises(ValueError):
        sampler.draw_balls([])


def setup_cases():
    """(kind, variant, centres, delta, L0): all three shapes under run_acp and
    run_acp_delta_variant, dyadic centres on rasters down to 2^-24 (D a power
    of two, so that t = L + 1 - emax falls on both sides of log2 D) and
    non-dyadic ones, starting precisions from 2 to 96."""
    rng = random.Random(24)
    cases = []
    for n in range(48):
        kind, variant = ("box", "disc", "ball")[n % 3], ("acp", "delta")[n // 3 % 2]
        dyadic = n // 6 % 2 == 0
        dens = (1, 2, 1 << 10, 1 << 24) if dyadic else (1, 3, 10, 1 << 10)
        ybar = [F(rng.randint(-1 << 12, 1 << 12), rng.choice(dens)) for _ in range(6 * rng.randint(1, 3))]
        delta = rng.choice((F(1, 2), F(3, 4), F(1, 1 << 12)) if dyadic else (F(3, 7), F(1, 3), F(1, 2)))
        cases.append((kind, variant, ybar, delta, rng.randint(2, 96)))
    return cases


def upto_empty(ranges):
    """The ranges up to and including the first empty one."""
    n = next((i + 1 for i, (_, span) in enumerate(ranges) if span <= 0), len(ranges))
    return ranges[:n]


def test_run_setup_on_one_denominator_matches_the_per_centre_reference(monkeypatch):
    # the loop puts centres and deltas on one denominator D once per run and
    # derives each round's ranges and in-shape constants from it; the
    # reference computes them per centre and clips them to the grid.  Every
    # round's (lo, span) list, the run's emax, y, the hull and the stats agree
    seen = []
    init = GridSampler.__init__

    def recording(self, spec, ranges, rng):
        seen.append((spec, list(ranges)))
        init(self, spec, ranges, rng)

    monkeypatch.setattr(GridSampler, "__init__", recording)
    sides = set()
    for n, (kind, variant, ybar, delta, L0) in enumerate(setup_cases()):
        if variant == "delta":
            extra = {"psi_delta": 2, "delta_min": delta, "eta_runs": 3}
            loop, delta_max = run_acp_delta_variant, delta * 4
        else:
            extra, loop, delta_max = {}, run_acp, delta
        emax = compute_emax(ybar, [delta_max] * len(ybar))

        def run():
            calls = []

            def guarded(y, L, K):  # three failures first, so that L grows
                calls.append(1)
                if len(calls) <= 3:
                    return ("guard_failure", None)
                return guarded_convex_hull(list(zip(y[0::2], y[1::2])), L, K, emax)

            seen.clear()
            try:
                y, hull, stats = loop(guarded, ybar, PerturbationShape(kind, delta), seed=n, L0=L0, **extra)
            except IterationCapExceeded as exc:
                y, hull, stats = None, None, exc.stats
            return (y, hull, stats.to_json()), list(seen)

        got, got_ranges = run()
        with monkeypatch.context() as m:
            m.setattr(algo, "_acp_loop", ref.acp_loop)
            want, want_ranges = run()
        assert got == want
        assert len(got_ranges) == len(want_ranges) > 0
        for (spec, ranges), (ref_spec, ref_ranges) in zip(got_ranges, want_ranges):
            assert spec == ref_spec and spec.emax == emax
            assert ranges == upto_empty(ref_ranges)
        D = lcm(delta.denominator, *(c.denominator for c in ybar))
        if D & (D - 1) == 0:
            sides |= {spec.L + 1 - emax >= D.bit_length() - 1 for spec, _ in got_ranges}
    assert sides == {True, False}
