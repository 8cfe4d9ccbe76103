"""Algorithm analysis and the controlled-perturbation runtime.

The analysis side distributes a failure budget (1-p) over the predicate
evaluations of one run and takes the worst precision over predicate types.
The runtime side is the perturb/evaluate/grow loop: eta fresh perturbations
per parameter setting, precision L grown multiplicatively on guard failures,
exponent width K grown additively on range errors, until the guarded
algorithm succeeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm
from typing import Callable, Optional, Sequence, Union

from .bounds import BoundSet, InadmissibleInput, PredicateDescription
from .grid import EmptyGrid, GridSampler, GridSpec, SplitMix64, compute_emax
from .qr import quantified_relations
from .reals import RVal, ceil_rval, nth_root, pi_enclosure, refine
from .softfloat import SoftFloat

# benchmarks/tracing.py wraps fl_round under this module's name
from .softfloat import fl_round  # noqa: F401

Exact = Union[int, Fraction]
Outcome = tuple  # ('success', payload) | ('guard_failure', None) | ('range_error', None)
GuardedAlgorithm = Callable[[tuple[SoftFloat, ...], int, int], Outcome]


class IterationCapExceeded(RuntimeError):
    """The perturbation loop hit its round cap or its bit budget without a
    success; ``stats`` holds the rounds it ran."""

    def __init__(self, message: str, stats: Optional["CpRunStats"] = None):
        super().__init__(message)
        self.stats = stats


# The bit budget: no round runs at a larger L.  Far above what the analysis
# asks for (L_f <= 118 on every pinned query), yet an input no perturbation
# can solve, such as two points, reaches it in a few rounds, not out of memory.
MAX_L = 1 << 16


# --- perturbation shapes -------------------------------------------------------


@dataclass(frozen=True)
class PerturbationShape:
    """Per-object perturbation area around groups of input coordinates.

    ``kind`` is 'box', 'disc' (planar points) or 'ball' (spatial points).
    ``delta`` is the per-coordinate half-width (box) or the object radius.
    """

    kind: str
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.kind not in ("box", "disc", "ball"):
            raise ValueError(f"unknown shape {self.kind!r}")
        if self.delta <= 0:
            raise InadmissibleInput("delta must be positive")

    @property
    def coords_per_object(self) -> int:
        return {"box": 1, "disc": 2, "ball": 3}[self.kind]

    def volume_ratio(self, bits: int) -> RVal:
        """mu(one object area) / V(inscribed axis-parallel box)."""
        d = RVal(self.delta)
        if self.kind == "box":
            return RVal(1)
        if self.kind == "disc":
            # pi d^2 over the inscribed square (edge d*sqrt(2), area 2 d^2)
            return pi_enclosure(bits) / RVal(2)
        # ball: (4/3) pi d^3 over the inscribed cube (edge 2d/sqrt(3))
        cube = RVal(8) * d ** 3 / (RVal(3) * nth_root(RVal(3), 2, bits))
        return (RVal(Fraction(4, 3)) * pi_enclosure(bits) * d ** 3) / cube


def eta(shape: PerturbationShape) -> int:
    """ceil(mu(U_shape) / V(inscribed box)) per object: expected number of
    uniform draws from the shape until one lands in the inscribed box."""
    return refine(shape.volume_ratio, ceil_rval)


def rho(p: Exact, n_evals: int) -> Fraction:
    """Per-evaluation failure budget (1-p)/N_E."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise InadmissibleInput("p must lie in (0,1)")
    if n_evals < 1:
        raise InadmissibleInput("need at least one evaluation")
    return (1 - p) / n_evals


@dataclass(frozen=True)
class AlgorithmDescription:
    """Evaluation-, predicate- and perturbation-suitability data."""

    predicates: tuple[tuple[str, PredicateDescription, BoundSet], ...]
    n_evals: Callable[[int], int]
    shape: PerturbationShape


@dataclass(frozen=True)
class DistributedRequirement:
    L: int
    K: int
    eta: int
    rho: Fraction
    per_predicate: tuple[tuple[str, int, int], ...]


def distributed_probability(
    algo: AlgorithmDescription, p: Exact, n: int
) -> DistributedRequirement:
    """Distribute the failure budget over the evaluations: analyze every
    predicate at success probability 1 - (1-p)/N_E(n) and take the maxima."""
    r = rho(p, algo.n_evals(n))
    q = 1 - r
    per = []
    L = K = 0
    for name, desc, bounds in algo.predicates:
        req = quantified_relations(desc, bounds, q)
        per.append((name, req.L_f, req.K_f))
        L = max(L, req.L_f)
        K = max(K, req.K_f)
    return DistributedRequirement(L, K, eta(algo.shape), r, tuple(per))


# --- the runtime loop ----------------------------------------------------------


@dataclass
class CpRunStats:
    seed: int
    rounds: int = 0
    attempts: int = 0
    final_L: int = 0
    final_K: int = 0
    outcomes: list = field(default_factory=list)  # one entry per round
    eval_counts: list = field(default_factory=list)
    L_sequence: list = field(default_factory=list)
    K_sequence: list = field(default_factory=list)
    delta_sequence: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rounds": self.rounds,
                "attempts": self.attempts,
                "final_L": self.final_L,
                "final_K": self.final_K,
                "outcomes": self.outcomes,
                "eval_counts": self.eval_counts,
                "L_sequence": self.L_sequence,
                "K_sequence": self.K_sequence,
                "delta_sequence": [str(d) for d in self.delta_sequence],
            },
            sort_keys=True,
        )


def _ranges(Cs: Sequence[int], D: int, W: int, t: int) -> list[tuple[int, int]]:
    """(lo, span) of the grid indices in [(C - W)/D, (C + W)/D] at tau = 2^-t for
    each C, up to and including the first empty range.  With D = 2^s and t >= s
    both ends are indices, and one span serves every coordinate.  No clipping:
    emax covers every |C| + W."""
    s = D.bit_length() - 1
    if D == 1 << s and t >= s:
        k = t - s
        span = (W << k + 1) + 1
        return [((C - W) << k, span) for C in Cs]
    num, den = (1 << t, D) if t >= 0 else (1, D << -t)
    out = []
    for C in Cs:
        lo = -((W - C) * num // den)
        span = (C + W) * num // den - lo + 1
        out.append((lo, span))
        if span <= 0:
            break
    return out


def _input_drawer(Cs: Sequence[int], D: int, W: int, cpo: int, spec: GridSpec,
                  rng: SplitMix64) -> Callable[[], Optional[tuple[SoftFloat, ...]]]:
    """Draws of one uniform grid point of the perturbation area about the
    centres C_i/D with half-width or radius W/D: a box (cpo = 1) draws the
    whole input in one call, a disc or ball (cpo = 2, 3) is one ball of
    GridSampler.draw_balls, its in-shape test on integers, every length times
    D * 2^max(t, 0) with tau = 2^-t.  None on an empty index range or after
    4096 failed tries of one object."""
    t = spec.L + 1 - spec.emax
    sampler = GridSampler(spec, _ranges(Cs, D, W, t), rng)
    balls = None
    if cpo > 1:
        up = max(t, 0)
        # every object: D * tau, D * 2^up * centre, (W * 2^up)^2
        unit, bound = D << max(-t, 0), W * W << 2 * up
        balls = [(unit, c, bound) for c in zip(*[iter([C << up for C in Cs])] * cpo)]

    def draw():
        try:
            lams = sampler.draw_balls(balls) if balls else sampler.draw()
        except EmptyGrid:
            return None
        return None if lams is None else sampler.floats(lams)

    return draw


def _psi_growth(psi: tuple[Exact, int]) -> Callable[[int, int, str], tuple[int, int]]:
    """The psi-augmentation step: K + psi_K after a range error, else L grown
    to ceil(psi_L * L)."""
    psi_l, psi_k = Fraction(psi[0]), int(psi[1])
    if psi_l <= 1 or psi_k < 1:
        raise InadmissibleInput("need psi_L > 1 and psi_K >= 1")

    def grow(L: int, K: int, kind: str) -> tuple[int, int]:
        if kind == "range_error":
            return L, K + psi_k
        return ceil(psi_l * L), K

    return grow


def run_acp(
    guarded: GuardedAlgorithm,
    ybar: Sequence[Exact],
    shape: PerturbationShape,
    psi: tuple[Exact, int] = (2, 8),
    eta_runs: Optional[int] = None,
    seed: int = 0,
    L0: int = 24,
    K0: int = 8,
    max_rounds: int = 64,
) -> tuple[tuple[SoftFloat, ...], object, CpRunStats]:
    """The general controlled-perturbation loop (psi-augmentation template).

    Per round: up to eta fresh perturbations at the current (L, K); if all
    fail, grow K by psi_K after a range error, else grow L to ceil(psi_L * L).
    Returns (perturbed input, result, stats).
    """
    return _acp_loop(
        guarded, ybar, shape, seed, L0, K0, max_rounds,
        eta_runs=eta_runs if eta_runs is not None else eta(shape),
        grow=_psi_growth(psi),
    )


def run_basic_acp(
    guarded: GuardedAlgorithm,
    ybar: Sequence[Exact],
    box: PerturbationShape,
    seed: int = 0,
    L0: int = 24,
    K0: int = 8,
    max_rounds: int = 64,
) -> tuple[tuple[SoftFloat, ...], object, CpRunStats]:
    """The provisional loop: one perturbation per round, K fixed, L doubled on
    any failure (range errors included)."""
    return _acp_loop(
        guarded, ybar, box, seed, L0, K0, max_rounds,
        eta_runs=1,
        grow=lambda L, K, kind: (2 * L, K),
    )


def run_acp_delta_variant(
    guarded: GuardedAlgorithm,
    ybar: Sequence[Exact],
    shape: PerturbationShape,
    psi_delta: Exact,
    delta_min: Exact,
    eta_runs: Optional[int] = None,
    psi: tuple[Exact, int] = (2, 8),
    seed: int = 0,
    L0: int = 24,
    K0: int = 8,
    max_rounds: int = 64,
) -> tuple[tuple[SoftFloat, ...], object, CpRunStats]:
    """Like run_acp, but the perturbation parameter grows by psi_delta on each
    inner attempt and resets to delta_min when the round ends; the analysis
    bound delta_max = delta_min * psi_delta^(eta-1) sizes the grid."""
    psi_delta = Fraction(psi_delta)
    delta_min = Fraction(delta_min)
    if psi_delta <= 1:
        raise InadmissibleInput("need psi_delta > 1")
    er = eta_runs if eta_runs is not None else eta(shape)
    schedule = tuple(delta_min * psi_delta ** i for i in range(er))
    return _acp_loop(
        guarded, ybar, shape, seed, L0, K0, max_rounds,
        eta_runs=er,
        grow=_psi_growth(psi),
        delta_schedule=schedule,
    )


def _acp_loop(
    guarded, ybar, shape, seed, L0, K0, max_rounds, eta_runs, grow, delta_schedule=None
):
    # each centre read once per run and put, with every delta, on one denominator D
    ratios = [(c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio() for c in ybar]
    cpo = shape.coords_per_object
    if not ratios or len(ratios) % cpo:
        raise ValueError("input length does not match the shape's grouping")
    deltas = delta_schedule or (shape.delta,) * eta_runs
    delta_max = delta_schedule[-1] if delta_schedule else shape.delta
    D = lcm(*{d for _, d in ratios}, *{d.denominator for d in (delta_max, *deltas)})
    Cs = [n * (D // d) for n, d in ratios]
    Ws = {d: d.numerator * (D // d.denominator) for d in (delta_max, *deltas)}
    emax = compute_emax([(max(max(Cs), -min(Cs)) + Ws[delta_max], D)], [(0, 1)])
    rng = SplitMix64(seed)
    stats = CpRunStats(seed=seed)
    L, K = L0, K0
    for _ in range(max_rounds):
        if L > MAX_L:
            break
        stats.rounds += 1
        # K must leave room for the grid: emax + 1 < 2^(K-1)
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
            if draw is None or delta_schedule:  # once per (spec, delta)
                draw = _input_drawer(Cs, D, Ws[delta], cpo, spec, rng)
            y = draw()
            if y is None:
                round_kind = "guard_failure"  # grid too coarse: more bits help
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
