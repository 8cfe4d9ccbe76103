"""Every draw goes through GridSampler: the same points, the same EmptyGrid or
None, and the same stream position as the per-caller loops it replaced
(tests/reference_grid.py)."""

import random
from fractions import Fraction as F

import pytest

import reference_grid as ref
from cperturb.algo import (
    IterationCapExceeded,
    PerturbationShape,
    _input_drawer,
    run_acp_delta_variant,
    run_basic_acp,
)
from cperturb.grid import (
    EmptyGrid,
    GridSpec,
    PerturbationBox,
    SplitMix64,
    compute_emax,
    sample_grid_point,
    sample_grid_values,
)

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
        centers = [(c.numerator, c.denominator) for c in ybar]
        draw = _input_drawer(centers, PerturbationShape(kind, delta), delta, spec, b)
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
