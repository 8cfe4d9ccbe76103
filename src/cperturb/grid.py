"""The perturbation substrate: grids of exactly representable points.

Perturbed inputs are drawn from G_{L,K,emax}, the multiples of the grid unit
tau = 2^(emax-L-1) inside [-2^emax, 2^emax].  Every grid point is a member of
F_{L,K}, so perturbed inputs enter the arithmetic exactly and the error
analysis may treat them as error-free.

Sampling uses SplitMix64 keyed by (seed, counter): for word index i the
output is mix(seed + (i+1)*GAMMA) with the standard SplitMix64 finalizer.
Uniform integers are drawn by rejection from the enclosing power of two, so
there is no modulo bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .softfloat import SoftFloat, _round_scaled, exponent_min, is_representable, zero

Exact = Fraction


class EmptyGrid(ValueError):
    """An interval contains no grid point (tau too coarse)."""


class MeasurementNotRepresentable(ValueError):
    """anchor + measurement left F_{L,K}."""


_GAMMA = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based SplitMix64 stream; word i depends only on (seed, i)."""

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64(self.seed + self.counter * _GAMMA)

    def uniform_int(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from 2^ceil(log2 n)."""
        if n <= 0:
            raise ValueError("need n >= 1")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        while True:
            word = self.next_u64()
            for _ in range(64 // bits if bits <= 32 else 1):
                v = word & ((1 << bits) - 1)
                word >>= bits
                if v < n:
                    return v


def compute_emax(centers: Sequence[Exact], deltas: Sequence[Exact]) -> int:
    """Least integer e' >= 0 with |y_i| + delta_i <= 2^e' for all i.

    Works on numerators and denominators only.  With |y_i| + delta_i = a/b,
    ceil(log2(a/b)) is n = a.bit_length() - b.bit_length() or n + 1, and
    one shift-compare decides which; int and Fraction inputs agree.
    """
    if not centers:
        raise ValueError("need at least one coordinate")
    emax = 0
    for c, d in zip(centers, deltas):
        if not isinstance(c, (int, Fraction)) or not isinstance(d, (int, Fraction)):
            c, d = Fraction(c), Fraction(d)
        cd, dd = c.denominator, d.denominator
        a, b = abs(c.numerator) * dd + d.numerator * cd, cd * dd
        if a <= b << emax:  # already covered; also skips a <= 0
            continue
        n = a.bit_length() - b.bit_length()
        emax = n if (a <= b << n if n >= 0 else a << -n <= b) else n + 1
    return emax


def grid_unit(emax: int, L: int) -> Fraction:
    """tau = 2^(emax-L-1)."""
    return Fraction(2) ** (emax - L - 1)


@dataclass(frozen=True)
class GridSpec:
    """G_{L,K,emax}: multiples of tau inside [-2^emax, 2^emax]."""

    L: int
    K: int
    emax: int

    def __post_init__(self):
        # the grid construction needs emax << 2^(K-1); enforce emax + 1 < 2^(K-1)
        if not self.emax + 1 < (1 << (self.K - 1)):
            raise ValueError(f"emax={self.emax} too large for K={self.K}")

    @property
    def tau(self) -> Fraction:
        return grid_unit(self.emax, self.L)

    def index_range(self, a: Exact, b: Exact) -> tuple[int, int]:
        """Integers lo..hi (inclusive) with lo*tau >= a, hi*tau <= b, clipped
        to [-2^emax, 2^emax]."""
        a, b = Fraction(a), Fraction(b)
        return self._indices(a.numerator, a.denominator, b.numerator, b.denominator)

    def index_range_about(self, cn: int, cd: int, rn: int, rd: int) -> tuple[int, int]:
        """index_range(c - r, c + r) for c = cn/cd and r = rn/rd with positive
        cd, rd, taking and computing integers only."""
        den = cd * rd
        return self._indices(cn * rd - rn * cd, den, cn * rd + rn * cd, den)

    def _indices(self, an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
        """index_range(an/ad, bn/bd) for positive ad, bd."""
        t = self.L + 1 - self.emax  # 1/tau = 2^t, and 2^emax/tau = 2^(L+1)
        if t >= 0:
            lo, hi = -((-an << t) // ad), (bn << t) // bd
        else:
            lo, hi = -(-an // (ad << -t)), bn // (bd << -t)
        edge = 1 << (self.L + 1)
        return max(lo, -edge), min(hi, edge)


def grid_float(lam: int, spec: GridSpec) -> SoftFloat:
    """The grid point lam * tau as a member of F_{L,K}, built from its index.

    With n = |lam|.bit_length() <= L + 1, lam * tau has exponent
    e = emax - L - 2 + n and significand |lam| << (L + 1 - n), exactly.
    The rest (subnormal points below e_min, and |lam| >= 2^(L+1)) is rounded.
    """
    L, K = spec.L, spec.K
    if lam == 0:
        return zero(L, K)
    a, sign = (lam, 1) if lam > 0 else (-lam, -1)
    n = a.bit_length()
    e = spec.emax - L - 2 + n
    if n > L + 1 or e < exponent_min(K):
        return _round_scaled(sign, a, spec.emax - L - 1, L, K, "grid")
    return SoftFloat(sign, a << (L + 1 - n), e, L, K)


def enumerate_grid(a: Exact, b: Exact, spec: GridSpec) -> list[Fraction]:
    """All grid points in [a, b], ascending."""
    lo, hi = spec.index_range(a, b)
    tau = spec.tau
    return [lam * tau for lam in range(lo, hi + 1)]


def count_grid(a: Exact, b: Exact, spec: GridSpec) -> int:
    lo, hi = spec.index_range(a, b)
    return max(0, hi - lo + 1)


@dataclass(frozen=True)
class PerturbationBox:
    """Axis-parallel box prod_i [c_i - d_i, c_i + d_i]."""

    center: tuple[Fraction, ...]
    radius: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(Fraction(c) for c in self.center))
        object.__setattr__(self, "radius", tuple(Fraction(r) for r in self.radius))
        if len(self.center) != len(self.radius):
            raise ValueError("center/radius length mismatch")
        # zero radius = degenerate box (identity perturbation); negatives are bugs
        if any(r < 0 for r in self.radius):
            raise ValueError("radii must be nonnegative")

    @property
    def dimension(self) -> int:
        return len(self.center)

    def interval(self, i: int) -> tuple[Fraction, Fraction]:
        return self.center[i] - self.radius[i], self.center[i] + self.radius[i]


def sample_grid_values(box: PerturbationBox, spec: GridSpec, rng: SplitMix64) -> list[Fraction]:
    """One uniform grid point per coordinate interval, as exact rationals."""
    sampler = GridSampler.from_box(box, spec, rng)
    return sampler.values(sampler.draw())


def sample_grid_point(box: PerturbationBox, spec: GridSpec, seed: int) -> tuple[SoftFloat, ...]:
    """Independent uniform grid coordinates; deterministic in the seed."""
    return GridSampler.from_box(box, spec, SplitMix64(seed)).draw_floats()


class GridSampler:
    """The one draw loop: uniform grid points of one grid from a SplitMix64
    stream, each coordinate's index range computed once.

    A draw takes one index per coordinate, in coordinate order.  A range with
    no grid point raises EmptyGrid when its coordinate is reached, after the
    earlier coordinates have drawn, so every path consumes a seeded stream
    alike.  values() and floats() turn indices into exact rationals or into
    members of F_{L,K}.
    """

    def __init__(self, spec: GridSpec, ranges: Iterable[tuple[int, int]], rng: SplitMix64):
        """``ranges``: inclusive (lo, hi) index pairs, as index_range gives."""
        self.spec = spec
        self.rng = rng
        self.ranges = [(lo, hi - lo + 1) for lo, hi in ranges]  # (lo, span)

    @classmethod
    def from_box(cls, box: PerturbationBox, spec: GridSpec, rng: SplitMix64) -> "GridSampler":
        return cls(spec, (spec.index_range(*box.interval(i)) for i in range(box.dimension)), rng)

    def draw(self, start: int = 0, stop: Optional[int] = None) -> list[int]:
        """One uniform grid index for each coordinate in start..stop-1."""
        uniform = self.rng.uniform_int
        lams = []
        for lo, span in self.ranges[start:stop]:
            if span <= 0:
                tau = self.spec.tau
                raise EmptyGrid(f"coordinate {start + len(lams)}: no multiple of tau = {tau}")
            lams.append(lo + uniform(span))
        return lams

    def values(self, lams: Iterable[int]) -> list[Fraction]:
        tau = self.spec.tau
        return [lam * tau for lam in lams]

    def floats(self, lams: Iterable[int]) -> tuple[SoftFloat, ...]:
        spec = self.spec
        return tuple(grid_float(lam, spec) for lam in lams)

    def draw_floats(self) -> tuple[SoftFloat, ...]:
        return self.floats(self.draw())


@dataclass(frozen=True)
class ObjectInput:
    """Anchor coordinates plus fixed measurement offsets for dependent points.

    ``anchor`` holds the anchor coordinates; ``measurements`` holds, per
    dependent point, one offset per anchor coordinate.  The perturbed object
    is the perturbed anchor plus each offset, computed exactly.
    """

    anchor: tuple[Fraction, ...]
    measurements: tuple[tuple[Fraction, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "anchor", tuple(Fraction(a) for a in self.anchor))
        object.__setattr__(
            self,
            "measurements",
            tuple(tuple(Fraction(m) for m in row) for row in self.measurements),
        )
        for row in self.measurements:
            if len(row) != len(self.anchor):
                raise ValueError("measurement dimension mismatch")


def perturb_object_preserving(
    obj: ObjectInput, box: PerturbationBox, spec: GridSpec, seed: int
) -> list[tuple[Fraction, ...]]:
    """Perturb the anchor on the grid, then translate every measurement.

    Returns the full coordinate rows (anchor first).  Dependent coordinates
    are anchor + measurement with no rounding; a result outside F_{L,K}
    raises MeasurementNotRepresentable.
    """
    if box.dimension != len(obj.anchor):
        raise ValueError("box does not match anchor dimension")
    anchor = tuple(sample_grid_values(box, spec, SplitMix64(seed)))
    rows = [anchor]
    for row in obj.measurements:
        shifted = tuple(a + m for a, m in zip(anchor, row))
        for v in shifted:
            if not is_representable(v, spec.L, spec.K):
                raise MeasurementNotRepresentable(f"{v} is outside F_{{{spec.L},{spec.K}}}")
        rows.append(shifted)
    return rows
