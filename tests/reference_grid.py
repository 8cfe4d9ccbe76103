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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from cperturb.grid import EmptyGrid, GridSpec, PerturbationBox, SplitMix64, grid_floats
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
