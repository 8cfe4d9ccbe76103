"""Reference draws: the per-caller draw loops that GridSampler replaces.

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

from cperturb.grid import EmptyGrid, GridSpec, PerturbationBox, SplitMix64


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
