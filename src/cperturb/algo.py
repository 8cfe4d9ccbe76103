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
from itertools import repeat
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


def _area_constants(centers: Sequence[tuple[int, int]], shape: PerturbationShape,
                    delta: Fraction) -> tuple:
    """What every draw about the (numerator, denominator) centres needs at
    any grid, computed once per run and delta: each coordinate's range ends
    c -+ delta as integers over one denominator, and for discs and balls
    (cpo, S0s, scaled, radii2): per object the lcm S0 of its denominators
    and (S0 * delta)^2, per coordinate its centre times its object's S0."""
    dn, dd = delta.numerator, delta.denominator
    ends = [(cn * dd - dn * cd, cd * dd, cn * dd + dn * cd, cd * dd) for cn, cd in centers]
    if shape.kind == "box":
        return ends, None
    cpo = shape.coords_per_object
    dens = [cd for _, cd in centers]
    S0s = list(map(lcm, repeat(dd), *(dens[j::cpo] for j in range(cpo))))
    S0_of = [S0 for S0 in S0s for _ in range(cpo)]  # per coordinate, its object's S0
    scaled = [cn * (S0 // cd) for (cn, cd), S0 in zip(centers, S0_of)]
    return ends, (cpo, S0s, scaled, [(dn * (S0 // dd)) ** 2 for S0 in S0s])


def _input_drawer(area: tuple, spec: GridSpec,
                  rng: SplitMix64) -> Callable[[], Optional[tuple[SoftFloat, ...]]]:
    """Draws of one uniform grid point of the perturbation area (as
    _area_constants gives it): a box draws the whole input in one call, a
    disc or ball is one ball of GridSampler.draw_balls, its in-shape test on
    integers, every length times S = S0 * 2^max(t, 0) with tau = 2^-t.
    None on an empty index range or after 4096 failed tries of one object."""
    ends, balls = area
    sampler = GridSampler(spec, ends, rng)
    if balls:
        t = spec.L + 1 - spec.emax
        up, down = max(t, 0), max(-t, 0)
        cpo, S0s, scaled, radii2 = balls
        centres = zip(*[iter([sc << up for sc in scaled])] * cpo)
        # per object: S * tau, S * centre, (S * delta)^2
        balls = list(zip([S0 << down for S0 in S0s], centres, [r2 << 2 * up for r2 in radii2]))

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
    # each centre read once per run, as its (numerator, denominator) pair
    centers = [(c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio() for c in ybar]
    if len(centers) % shape.coords_per_object:
        raise ValueError("input length does not match the shape's grouping")
    deltas = delta_schedule or (shape.delta,) * eta_runs
    delta_max = delta_schedule[-1] if delta_schedule else shape.delta
    emax = compute_emax(centers, [delta_max.as_integer_ratio()] * len(centers))
    areas = {d: _area_constants(centers, shape, d) for d in set(deltas)}  # once per delta
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
                draw = _input_drawer(areas[delta], spec, rng)
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
