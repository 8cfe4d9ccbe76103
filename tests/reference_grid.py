"""Reference draws: the per-caller draw loops that GridSampler replaces.

`next_u64` is the SplitMix64 word by word, through the standard finalizer
`_mix64`, as the stream once exposed it, and `uniform_int` draws from those
words; `SplitMix64.uniform_int` computes the same words in batches.

`grid_float` and `index_range_about` are the one-point and centre/radius
forms of `grid.grid_floats` and `GridSpec.index_range`, which the tests use
to build single points and ranges.

`sample_grid_values` computes each coordinate's index range as it reaches it
and draws through SplitMix64.uniform_int, exactly as first written.
`sample_shape_input` is the perturbation loop's draw of a whole input, with
the disc/ball test done on Fractions instead of scaled integers.  Both return
exact rationals, or None / EmptyGrid, and consume the stream coordinate by
coordinate, so tests compare points and `rng.counter` with the GridSampler
paths.

`acp_loop` is `algo._acp_loop` as it set up its draws per centre: each
coordinate's range ends over their own denominator, clipped to the grid, and
for discs and balls per object the lcm of its denominators
(`area_constants`, `input_drawer`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Optional, Sequence

from cperturb.algo import MAX_L, CpRunStats, IterationCapExceeded
from cperturb.grid import EmptyGrid, GridSampler, GridSpec, PerturbationBox, SplitMix64, compute_emax, grid_floats
from cperturb.softfloat import SoftFloat

_GAMMA = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def next_u64(rng: SplitMix64) -> int:
    """The stream's next 64-bit word: mix(seed + counter * GAMMA)."""
    rng.counter += 1
    return _mix64(rng.seed + rng.counter * _GAMMA)


def uniform_int(rng: SplitMix64, n: int) -> int:
    """rng.uniform_int(n) on the words of next_u64, as first written."""
    if n == 1:
        return 0
    bits = (n - 1).bit_length()
    mask = (1 << bits) - 1
    while True:
        if bits > 64:  # ceil(bits / 64) whole words, the low word first
            v = sum(next_u64(rng) << (64 * j) for j in range(-(-bits // 64))) & mask
            if v < n:
                return v
            continue
        word = next_u64(rng)
        for _ in range(64 // bits if bits <= 32 else 1):
            v = word & mask
            word >>= bits
            if v < n:
                return v


def grid_float(lam: int, spec: GridSpec) -> SoftFloat:
    """The grid point lam * tau as a member of F_{L,K} (see grid_floats)."""
    return grid_floats((lam,), spec)[0]


def index_range_about(spec: GridSpec, cn: int, cd: int, rn: int, rd: int) -> tuple[int, int]:
    """spec.index_range(c - r, c + r) for c = cn/cd and r = rn/rd with
    positive cd, rd, taking and computing integers only."""
    den = cd * rd
    lo, span = spec._indices([(cn * rd - rn * cd, den, cn * rd + rn * cd, den)])[0]
    return lo, lo + span - 1


def sample_grid_values(box: PerturbationBox, spec: GridSpec, rng: SplitMix64) -> list[Fraction]:
    """One uniform grid point per coordinate interval, as exact rationals."""
    tau = spec.tau
    out = []
    for i in range(box.dimension):
        a, b = box.interval(i)
        lo, hi = spec.index_range(a, b)
        if hi < lo:
            raise EmptyGrid(f"no grid point in coordinate {i} interval [{a}, {b}]")
        lam = lo + rng.uniform_int(hi - lo + 1)
        out.append(lam * tau)
    return out


def sample_shape_input(
    ybar: Sequence[Fraction],
    kind: str,
    delta: Fraction,
    spec: GridSpec,
    rng: SplitMix64,
) -> Optional[tuple[Fraction, ...]]:
    """One uniform grid point of the full perturbation area of a 'box',
    'disc' or 'ball' shape; None when a coordinate's range is empty (once the
    draw reaches it) or an object found no in-shape point in 4096 tries."""
    cpo = {"box": 1, "disc": 2, "ball": 3}[kind]
    tau = spec.tau
    ranges = []
    for c in ybar:
        lo, hi = spec.index_range(c - delta, c + delta)
        ranges.append((lo, hi - lo + 1))
    out: list[Fraction] = []
    for base in range(0, len(ybar), cpo):
        group = ranges[base : base + cpo]
        centers = ybar[base : base + cpo]
        for _ in range(4096):
            pts = []
            for lo, span in group:
                if span <= 0:
                    return None
                pts.append((lo + rng.uniform_int(span)) * tau)
            if kind == "box" or sum((p - c) ** 2 for p, c in zip(pts, centers)) <= delta**2:
                out.extend(pts)
                break
        else:
            return None
    return tuple(out)


def area_constants(centers, shape, delta):
    """What every draw about the (numerator, denominator) centres needs at
    any grid: each coordinate's range ends c -+ delta as integers over one
    denominator, and for discs and balls (cpo, S0s, scaled, radii2): per
    object the lcm S0 of its denominators and (S0 * delta)^2, per coordinate
    its centre times its object's S0."""
    dn, dd = delta.numerator, delta.denominator
    ends = [(cn * dd - dn * cd, cd * dd, cn * dd + dn * cd, cd * dd) for cn, cd in centers]
    if shape.kind == "box":
        return ends, None
    cpo = shape.coords_per_object
    dens = [cd for _, cd in centers]
    S0s = list(map(lcm, repeat(dd), *(dens[j::cpo] for j in range(cpo))))
    S0_of = [S0 for S0 in S0s for _ in range(cpo)]
    scaled = [cn * (S0 // cd) for (cn, cd), S0 in zip(centers, S0_of)]
    return ends, (cpo, S0s, scaled, [(dn * (S0 // dd)) ** 2 for S0 in S0s])


def input_drawer(area, spec, rng):
    """Draws of one uniform grid point of the perturbation area, every
    coordinate's clipped range computed up front; None on an empty range or
    after 4096 failed tries of one object."""
    ends, balls = area
    sampler = GridSampler(spec, spec._indices(ends), rng)
    if balls:
        t = spec.L + 1 - spec.emax
        up, down = max(t, 0), max(-t, 0)
        cpo, S0s, scaled, radii2 = balls
        centres = zip(*[iter([sc << up for sc in scaled])] * cpo)
        balls = list(zip([S0 << down for S0 in S0s], centres, [r2 << 2 * up for r2 in radii2]))

    def draw():
        try:
            lams = sampler.draw_balls(balls) if balls else sampler.draw()
        except EmptyGrid:
            return None
        return None if lams is None else sampler.floats(lams)

    return draw


def acp_loop(guarded, ybar, shape, seed, L0, K0, max_rounds, eta_runs, grow, delta_schedule=None):
    """algo._acp_loop with the per-centre set-up above."""
    centers = [(c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio() for c in ybar]
    if len(centers) % shape.coords_per_object:
        raise ValueError("input length does not match the shape's grouping")
    deltas = delta_schedule or (shape.delta,) * eta_runs
    delta_max = delta_schedule[-1] if delta_schedule else shape.delta
    emax = compute_emax(centers, [delta_max.as_integer_ratio()] * len(centers))
    areas = {d: area_constants(centers, shape, d) for d in set(deltas)}
    rng = SplitMix64(seed)
    stats = CpRunStats(seed=seed)
    L, K = L0, K0
    for _ in range(max_rounds):
        if L > MAX_L:
            break
        stats.rounds += 1
        while emax + 1 >= (1 << (K - 1)):
            K += 1
        stats.L_sequence.append(L)
        stats.K_sequence.append(K)
        spec = GridSpec(L, K, emax)
        round_kind = "guard_failure"
        draw = None
        for delta in deltas:
            stats.attempts += 1
            if delta_schedule:
                stats.delta_sequence.append(delta)
            if draw is None or delta_schedule:
                draw = input_drawer(areas[delta], spec, rng)
            y = draw()
            if y is None:
                round_kind = "guard_failure"
                continue
            outcome = guarded(y, L, K)
            kind = outcome[0]
            if kind == "success":
                stats.outcomes.append("success")
                stats.final_L, stats.final_K = L, K
                return y, outcome[1], stats
            round_kind = kind
        stats.outcomes.append(round_kind)
        L, K = grow(L, K, round_kind)
    stats.final_L, stats.final_K = L, K
    cap = f"L = {L} is past the bit budget {MAX_L}" if L > MAX_L else f"no success within {max_rounds} rounds"
    raise IterationCapExceeded(f"{cap} (seed {seed})", stats)
