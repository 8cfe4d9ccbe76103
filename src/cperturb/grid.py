"""The perturbation substrate: grids of exactly representable points.

Perturbed inputs are drawn from G_{L,K,emax}, the multiples of the grid unit
tau = 2^(emax-L-1) inside [-2^emax, 2^emax].  Every grid point is a member of
F_{L,K}, so perturbed inputs enter the arithmetic exactly and the error
analysis may treat them as error-free.

Sampling uses SplitMix64 keyed by (seed, counter): word i is mix(seed + i*GAMMA)
with the standard finalizer, computed in batches (see SplitMix64).  Uniform
integers are drawn by rejection from the enclosing power of two, so there is
no modulo bias; each draw is one uniform_int call.  Drawn indices
become members of F_{L,K} through grid_floats, which builds in-range normal
points from their fields, with no rounding and no re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from struct import Struct
from typing import Iterable, Optional, Sequence

from .softfloat import SoftFloat, _round_scaled, exponent_min, is_representable, zero

Exact = Fraction


class InadmissibleInput(ValueError):
    """A parameter outside its domain, or input that no perturbation can
    make solvable (a hull of fewer than three points): refused up front."""


class EmptyGrid(ValueError):
    """An interval contains no grid point (tau too coarse)."""


class MeasurementNotRepresentable(ValueError):
    """anchor + measurement left F_{L,K}."""


_GAMMA = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


def _batches() -> list:
    """Per c < 511, the batch after c words, of k = c + 1 rounded down to a power of
    two: its reader (None for k = 1), and 1, 2^64 - 1 and (j + 1) * GAMMA in lane j."""
    out, ones, steps = [], 1, _GAMMA
    for b in range(9):
        k, unpack = 1 << b, Struct(f"<{2 << b}Q").unpack  # the lanes' 64-bit halves, low first
        read = (lambda z, k=k, unpack=unpack: unpack(z.to_bytes(16 * k, "little"))[::2]) if k > 1 else None
        out += [(read, ones, ones * _M64, steps)] * k
        steps += (steps + k * _GAMMA * ones) << 128 * k
        ones += ones << 128 * k
    return out


_LANES = _batches()


class SplitMix64:
    """Counter-based SplitMix64 stream; word i depends only on (seed, i).

    One pass of the finalizer over 128-bit lane j of an integer gives word c + 1 + j
    (a lane times a 64-bit constant fits; a mask takes it mod 2^64).  A fresh
    stream's batches hold 1, 2, 4, ... words, up to 256.  They only cache words
    of the fixed seed: uniform_int reads word counter + 1 from the batch, and
    computes one there whenever counter has left it; the stream does not change."""

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self.counter = 0
        self._base, self._words = 0, ()  # _words[i] is word _base + 1 + i

    def uniform_int(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from 2^ceil(log2 n).

        A word is taken whole when n needs more than 32 bits, else in
        chunks of ceil(log2 n) bits from its low end; past 64 bits a try
        takes ceil(log2 n / 64) whole words, the low word first."""
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError("need n >= 1")
        bits = (n - 1).bit_length()
        mask = (1 << bits) - 1
        v = shift = 0
        while True:
            c = self.counter
            self.counter = c + 1
            i = c - self._base
            words = self._words
            if 0 <= i < len(words):
                word = words[i]
            else:
                read, ones, lanes, steps = _LANES[c if 0 <= c < 511 else -1]
                z = (((self.seed + c * _GAMMA) & _M64) * ones + steps) & lanes
                z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
                z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
                word = z ^ (z >> 31)
                if read:
                    self._base, self._words = c, read(word)
                    word = self._words[0]
            if bits > 64:
                v |= word << shift
                shift += 64
                if shift >= bits:
                    v &= mask
                    if v < n:
                        return v
                    v = shift = 0
                continue
            v, end = word & mask, bits
            while v >= n:  # on to the word's next chunk, if it has one
                end += bits
                if end > 64:
                    break
                word >>= bits
                v = word & mask
            else:
                return v


def _ratio(x) -> tuple[int, int]:
    """x as (numerator, denominator), through Fraction unless an int or Fraction."""
    return (x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio()


def compute_emax(centers: Sequence[Exact], deltas: Sequence[Exact]) -> int:
    """Least integer e' >= 0 with |y_i| + delta_i <= 2^e' for all i.

    Each value is a number or its as_integer_ratio() pair, as run_acp reads
    its centres.  Works on numerators and denominators only.  With
    |y_i| + delta_i = a/b, ceil(log2(a/b)) is n = a.bit_length() -
    b.bit_length() or n + 1, and one shift-compare decides which.
    """
    if not centers:
        raise ValueError("need at least one coordinate")
    emax = 0
    for c, d in zip(centers, deltas, strict=True):  # ValueError on unequal lengths
        cn, cd = c if c.__class__ is tuple else _ratio(c)
        dn, dd = d if d.__class__ is tuple else _ratio(d)
        a, b = (cn if cn >= 0 else -cn) * dd + dn * cd, cd * dd
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
            raise InadmissibleInput(f"emax={self.emax} too large for K={self.K}")

    @property
    def tau(self) -> Fraction:
        return grid_unit(self.emax, self.L)

    def index_range(self, a: Exact, b: Exact) -> tuple[int, int]:
        """Integers lo..hi (inclusive) with lo*tau >= a, hi*tau <= b, clipped
        to [-2^emax, 2^emax]."""
        a, b = Fraction(a), Fraction(b)
        lo, span = self._indices([(a.numerator, a.denominator, b.numerator, b.denominator)])[0]
        return lo, lo + span - 1

    def _indices(self, ends: Iterable[tuple[int, int, int, int]]) -> list[tuple[int, int]]:
        """(lo, span) of index_range(an/ad, bn/bd) for each (an, ad, bn, bd), ad, bd > 0."""
        t = self.L + 1 - self.emax  # 1/tau = 2^t, and 2^emax/tau = 2^(L+1)
        edge = 1 << (self.L + 1)
        out = []
        for an, ad, bn, bd in ends:
            if t >= 0:
                lo, hi = -((-an << t) // ad), (bn << t) // bd
            else:
                lo, hi = -(-an // (ad << -t)), bn // (bd << -t)
            lo = lo if lo > -edge else -edge
            out.append((lo, (hi if hi < edge else edge) - lo + 1))
        return out


def grid_floats(lams: Iterable[int], spec: GridSpec) -> tuple[SoftFloat, ...]:
    """The grid points lam * tau as members of F_{L,K}, the spec read once.

    With n = |lam|.bit_length() <= L + 1, lam * tau has exponent
    e = emax - L - 2 + n and significand |lam| << (L + 1 - n), exactly; for
    e >= e_min these fields are valid by construction (e <= emax - 1 < e_max
    by GridSpec's invariant), and the member is built unchecked, its fields
    set by one assignment of its __dict__: it equals the checked
    construction in ==, hash and repr.  Zero, points below 2^e_min and
    |lam| >= 2^(L+1) go through the general rounding.
    """
    L, K = spec.L, spec.K
    if L < 1 or K < 2:
        raise ValueError("need L >= 1 and K >= 2")
    L1 = L + 1
    q = spec.emax - L1  # lam * tau = lam * 2^q
    low = max(exponent_min(K) - q + 1, 1)  # least n with e >= e_min
    out = []
    new, set_fields = object.__new__, object.__setattr__
    for lam in lams:
        n = lam.bit_length()
        if low <= n <= L1:
            f = new(SoftFloat)
            set_fields(f, "__dict__", {"sign": 1 if lam > 0 else -1, "significand": abs(lam) << (L1 - n),
                                       "exponent": q - 1 + n, "prec": L, "expbits": K})
            out.append(f)
        elif lam:
            out.append(_round_scaled(1 if lam > 0 else -1, abs(lam), q, L, K, "grid"))
        else:
            out.append(zero(L, K))
    return tuple(out)


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

    A draw takes one index per coordinate, in coordinate order; draw_balls
    redraws each ball's coordinates until they fall inside it.  A range with
    no grid point raises EmptyGrid when its coordinate is reached, after the
    earlier coordinates have drawn, so every path consumes a seeded stream
    alike.  values() and floats() turn indices into exact rationals or into
    members of F_{L,K}.
    """

    def __init__(self, spec: GridSpec, ranges: list[tuple[int, int]], rng: SplitMix64):
        """``ranges``: per coordinate its indices lo..lo+span-1 as (lo, span);
        they may end at the first empty one, which no draw passes."""
        self.spec = spec
        self.rng = rng
        self.ranges = ranges

    @classmethod
    def from_box(cls, box: PerturbationBox, spec: GridSpec, rng: SplitMix64) -> "GridSampler":
        ends = [(*a.as_integer_ratio(), *b.as_integer_ratio()) for a, b in map(box.interval, range(box.dimension))]
        return cls(spec, spec._indices(ends), rng)

    def draw(self) -> list[int]:
        """One uniform grid index for each coordinate."""
        uniform = self.rng.uniform_int
        lams = []
        for lo, span in self.ranges:
            if span <= 0:
                raise EmptyGrid(f"coordinate {len(lams)}: no multiple of tau = {self.spec.tau}")
            lams.append(lo + uniform(span))
        return lams

    def draw_balls(self, balls: Iterable[tuple[int, Sequence[int], int]]) -> Optional[list[int]]:
        """One uniform grid index for each coordinate, drawn ball by ball in
        coordinate order.  A ball (unit, centre, bound) covers the next
        len(centre) coordinates and holds the indices lam with
        sum_j (lam_j * unit - centre_j)^2 <= bound; its coordinates are
        redrawn together, in place, until they fall inside it.  None once a
        ball has failed 4096 tries; ValueError if the balls leave coordinates."""
        uniform, ranges = self.rng.uniform_int, self.ranges
        lams = [0] * len(ranges)
        j = 0  # the ball's first coordinate
        for unit, centre, bound in balls:
            for _ in range(4096):
                d2 = 0
                k = j
                for c in centre:
                    lo, span = ranges[k]
                    if span <= 0:
                        raise EmptyGrid(f"coordinate {k}: no multiple of tau = {self.spec.tau}")
                    lam = lams[k] = lo + uniform(span)
                    v = lam * unit - c
                    d2 += v * v
                    k += 1
                if d2 <= bound:
                    break
            else:
                return None
            j = k
        if j != len(lams):
            raise ValueError(f"balls cover {j} of {len(lams)} coordinates")
        return lams

    def values(self, lams: Iterable[int]) -> list[Fraction]:
        tau = self.spec.tau
        return [lam * tau for lam in lams]

    def floats(self, lams: Iterable[int]) -> tuple[SoftFloat, ...]:
        return grid_floats(lams, self.spec)

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
