"""The three benchmark workloads and their correctness gates.

A workload is built from freshly imported ``cperturb`` modules and a seed.
``op(i)`` is the timed unit of work; ``check(i, result)`` is its gate and runs
outside the timed section.  Inputs depend only on the seed and on ``i``, so a
run, or a pass over a fixed list of ops, replays exactly.

Every call into the program goes through a module attribute looked up at call
time (``self.cp.geom.guarded_convex_hull``), never through a name bound at
import, so that the tracer can wrap it.
"""

from __future__ import annotations

import importlib
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

LAYERS = (
    "softfloat", "grid", "expr", "exact", "errorbounds",
    "bounds", "qr", "reals", "algo", "geom",
)


def _loaded() -> list[str]:
    return [m for m in sys.modules if m == "cperturb" or m.startswith("cperturb.")]


def fresh_import() -> SimpleNamespace:
    """Import cperturb from scratch, so each set-up pays the import."""
    for name in _loaded():
        del sys.modules[name]
    importlib.import_module("cperturb")
    return SimpleNamespace(**{layer: sys.modules["cperturb." + layer] for layer in LAYERS})


@contextmanager
def modules_kept():
    """Put the current cperturb modules back into sys.modules on exit.

    The program imports some names inside functions; a workload built on one
    import must keep resolving them to that import's classes after another
    set-up has imported cperturb afresh.
    """
    saved = {name: sys.modules[name] for name in _loaded()}
    try:
        yield
    finally:
        for name in _loaded():
            del sys.modules[name]
        sys.modules.update(saved)


def _op_seed(seed: int, i: int) -> int:
    """Per-op seed for the program's own SplitMix64 streams."""
    return (seed * 1_000_003 + i) & ((1 << 64) - 1)


class Workload:
    """Defaults for workloads whose gate needs no replay and which keep no
    per-op counters of their own."""

    def replay(self, i: int, result) -> bool:
        return True

    @staticmethod
    def counts(result) -> dict:
        return {}


@dataclass
class Refusal:
    """A typed refusal of the analysis (the CLI's exit code 2)."""

    kind: str


# --- hull ------------------------------------------------------------------------


@dataclass
class HullResult:
    cls: str
    y: tuple
    hull: list
    stats: object
    attempts: list  # (L, K, evaluations, outcome kind) per guarded call


class HullWorkload(Workload):
    """run_acp over guarded_convex_hull, delta = 1/2, default psi.

    Each class's ops cost about the same, and the machine's speed swings
    split every class into a fast and a slow cluster.  A latency percentile
    that falls inside one class moves in jumps when the share of slow time
    crosses its position there.  The weights keep both percentiles deep in
    the slow part of their class for any slow share above a third: the
    cheap far and huge classes hold 60 % of the ops (the median), lattice
    the top 30 % (the 90th percentile), uniform the 10 % between.
    """

    name = "hull"
    ORDER = ("far", "huge", "lattice", "far", "huge", "uniform", "far", "huge", "lattice", "lattice")
    POOL = 4  # point sets per class; op i reuses one with a fresh perturbation seed
    DELTA = Fraction(1, 2)
    trace_ops = 10  # one rotation

    def __init__(self, cp, seed: int, n_uniform=250, lattice_side=16, n_far=100, n_huge=100):
        self.cp = cp
        self.seed = seed
        rng = random.Random(seed)
        sizes = {"uniform": n_uniform, "far": n_far, "huge": n_huge}
        self.pool = {}
        for cls in ("uniform", "lattice", "far", "huge"):
            sets = []
            for _ in range(self.POOL):
                if cls == "lattice":
                    flat, kind = self._lattice(lattice_side), "disc"
                else:
                    flat, kind = self._points(cls, sizes[cls], rng), "box"
                shape = cp.algo.PerturbationShape(kind, self.DELTA)
                emax = cp.grid.compute_emax(flat, [self.DELTA] * len(flat))
                sets.append((flat, shape, emax))
            self.pool[cls] = sets
        self.replayed = set()  # classes whose first solve was rerun

    @staticmethod
    def _points(cls, n, rng):
        # dyadic coordinates in [0, 64] on a 2^-10 raster
        raw = [Fraction(rng.randrange(0, 64 * 1024 + 1), 1024) for _ in range(2 * n)]
        if cls == "far":
            return [c + 2**30 for c in raw]
        if cls == "huge":
            return [c * 2**200 for c in raw]
        return raw

    @staticmethod
    def _lattice(side):
        # every lattice point twice: exact duplicates and collinear rows
        flat = []
        for i in range(side):
            for j in range(side):
                flat += [Fraction(i), Fraction(j)] * 2
        return flat

    def op(self, i: int) -> HullResult:
        cp = self.cp
        cls = self.ORDER[i % len(self.ORDER)]
        flat, shape, emax = self.pool[cls][(i // len(self.ORDER)) % self.POOL]
        attempts = []

        def hull_attempt(y, L, K):
            # the (L, K) actually used, as the loop passes them in
            counter = cp.geom.EvalCounter()
            pts = [(y[j], y[j + 1]) for j in range(0, len(y), 2)]
            out = cp.geom.guarded_convex_hull(pts, L, K, emax, counter)
            attempts.append((L, K, counter.evaluations, out[0]))
            return out

        y, hull, stats = cp.algo.run_acp(hull_attempt, flat, shape, seed=_op_seed(self.seed, i))
        return HullResult(cls, y, hull, stats, attempts)

    def check(self, i: int, r) -> bool:
        if not isinstance(r, HullResult):
            return False
        geom = self.cp.geom
        pts = [(r.y[j].to_fraction(), r.y[j + 1].to_fraction()) for j in range(0, len(r.y), 2)]
        return geom.canonical_cycle(r.hull) == geom.canonical_cycle(geom.exact_convex_hull(pts))

    def replay(self, i: int, r) -> bool:
        """Rerun the first solve of each class: same perturbed input, same stats."""
        if not isinstance(r, HullResult) or r.cls in self.replayed:
            return True
        self.replayed.add(r.cls)
        again = self.op(i)
        return (
            [v.to_fraction() for v in again.y] == [v.to_fraction() for v in r.y]
            and again.hull == r.hull
            and again.stats.to_json() == r.stats.to_json()
        )

    @staticmethod
    def counts(r) -> dict:
        """Per-op counters of the algo and geom layers for one result."""
        if not isinstance(r, HullResult):
            return {}
        evals = [a[2] for a in r.attempts]
        return {
            "algo.rounds": r.stats.rounds,
            "algo.attempts": r.stats.attempts,
            "algo.rounds.guard_failure": r.stats.outcomes.count("guard_failure"),
            "algo.rounds.range_error": r.stats.outcomes.count("range_error"),
            "algo.unsampled_attempts": r.stats.attempts - len(r.attempts),
            "algo.useful_evals": evals[-1] if r.attempts and r.attempts[-1][3] == "success" else 0,
            "geom.orient_evals": sum(evals),
            "algo.L.max": max((a[0] for a in r.attempts), default=0),
            "algo.K.max": max((a[1] for a in r.attempts), default=0),
        }


# --- guard_mix -------------------------------------------------------------------


class GuardMixWorkload(Workload):
    """One op is one Monte Carlo draw along the path `cperturb simulate` takes:
    sample_grid_values -> PredicateInstance.assemble -> PredicateInstance.guarded.

    Five predicates, each centred on its critical set, in a fixed rotation;
    (L, K) runs through every pair of L in [8, 64] and 113, K in [4, 11], in
    an order shuffled by the seed.  Every seed thus has the same mix of
    precisions, and runs differ only in the order and in the grid draws.
    """

    name = "guard_mix"
    L_CHOICES = tuple(range(8, 65)) + (113,)
    K_CHOICES = tuple(range(4, 12))
    trace_ops = 1000

    def __init__(self, cp, seed: int):
        self.cp = cp
        self.seed = seed
        F = Fraction
        geom, grid = cp.geom, cp.grid
        # delta = 1/64 keeps the draws close to the critical sets: about 95 % of
        # the verdicts are certified, and the small circle's squares underflow
        # at the smallest K, so in_circle gives the most range errors
        d = F(1, 64)
        insts = [
            # 477/1024 is the nearest raster point to the root 0.46572... of -1/3 + x/4 + x^2
            geom.make_univariate((F(-1, 3), F(1, 4), F(1)), center=F(477, 1024), delta=d),
            geom.make_orientation2d([(0, 0), (1, 1), (2, 2)], delta=d),
            geom.make_inbox((0, 0), (2, 2), (2, 1), delta=d),
            geom.make_incircle((0, 0), F(5, 64), (F(3, 64), F(4, 64)), delta=d),
            self._rational(cp, d),
        ]
        self.preds = []
        for inst in insts:
            centers = tuple(lo for lo, _ in inst.desc.a_box)
            self.preds.append((inst, grid.PerturbationBox(centers, inst.desc.delta)))
        self.LK = [(L, K) for L in self.L_CHOICES for K in self.K_CHOICES]
        random.Random(seed).shuffle(self.LK)

    @staticmethod
    def _rational(cp, d):
        """x0 / x1 centred on its pole; its guard is the Div rule of guarded_eval."""
        expr = cp.geom.rational_expr()
        desc = cp.bounds.PredicateDescription(
            expr=expr, k=2, delta=(d, d), emax=cp.grid.compute_emax((0, 0), (d, d)),
            analysis_indices=(0, 1), a_box=((0, 0), (0, 0)),
        )
        return cp.geom.PredicateInstance("rational", expr, desc, None, None, fixed={})

    def op(self, i: int):
        grid = self.cp.grid
        inst, box = self.preds[i % len(self.preds)]
        L, K = self.LK[i // len(self.preds) % len(self.LK)]
        spec = grid.GridSpec(L, K, inst.desc.emax)
        vals = grid.sample_grid_values(box, spec, grid.SplitMix64(_op_seed(self.seed, i)))
        x = inst.assemble(vals)
        return x, inst.guarded(x, L, K)

    def check(self, i: int, r) -> bool:
        if not isinstance(r, tuple):
            return False
        eb = self.cp.errorbounds
        x, verdict = r
        if isinstance(verdict, eb.SignCertified):
            inst, _ = self.preds[i % len(self.preds)]
            return verdict.sign == self.cp.exact.rat_sign(inst.expr, x)
        return isinstance(verdict, (eb.GuardFailed, eb.RangeErrorVerdict))


# --- analyze ---------------------------------------------------------------------


@dataclass
class AnalyzeResult:
    L: int
    K: int
    p_f: Fraction
    target: Fraction  # the success probability the (L, K) must deliver


@dataclass(frozen=True)
class Query:
    kind: str  # a built-in predicate, "det2x2" or "hull"
    p: Fraction
    params: tuple
    expect_refusal: bool = False


DET2X2 = "(sub (mul x0 x3) (mul x1 x2))"
P_CHOICES = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))


class AnalyzeWorkload(Workload):
    """One op is one `cperturb analyze` call: build the predicate, run
    quantified_relations(p), then the inverse probability(L_f, K_f).

    A cycle holds ten blocks of the light queries (univariate, in_box,
    in_circle, det2x2, each at the four p values), orientation2d at the four
    p values, and the hull's distributed analysis at n = 16, 10^3, 10^6 for
    box and disc shapes, each at one p.  Every query draws its parameters
    from the seed.

    The ten heavy queries (about 10-16 ms, mostly the orientation2d build)
    are 6 % of the ops and about a third of the op time.  So both latency
    percentiles lie among the light queries, whose costs spread over a
    factor of five, and not on the edge of the tight heavy cluster, where
    the machine's speed swings would move them in jumps.
    """

    name = "analyze"
    CYCLES = 4
    LIGHT_BLOCKS = 10
    trace_ops = 170  # one cycle

    def __init__(self, cp, seed: int):
        self.cp = cp
        self.seed = seed
        rng = random.Random(seed)
        self.queries = []
        for _ in range(self.CYCLES):
            for kind in ("univariate", "in_box", "in_circle", "det2x2") * self.LIGHT_BLOCKS + ("orientation2d",):
                for p in P_CHOICES:
                    refuse = kind == "in_circle" and p == Fraction(1, 2)
                    self.queries.append(Query(kind, p, self._params(kind, rng), refuse))
            for shape in ("box", "disc"):
                for n in (16, 10**3, 10**6):
                    delta = rng.choice((Fraction(1, 2), Fraction(1, 4)))
                    self.queries.append(Query("hull", rng.choice(P_CHOICES), (shape, n, delta)))

    @staticmethod
    def _params(kind, rng):
        F = Fraction
        delta = rng.choice((F(1, 2), F(1, 4), F(1, 8)))
        if kind == "univariate":
            # near one of the irrational roots 0.4657... and -0.7157... of -1/3 + x/4 + x^2
            return (rng.choice((F(30, 64), F(-46, 64))), delta)
        if kind == "orientation2d":
            px, py = rng.randint(-2, 2), rng.randint(-2, 2)
            dx, dy = rng.randint(1, 2), rng.randint(-2, 2)
            return (((px, py), (px + dx, py + dy), (px + 2 * dx, py + 2 * dy)), delta)
        if kind == "in_box":
            w, h = rng.randint(1, 4), rng.randint(1, 4)
            return ((0, 0), (w, h), (w, F(rng.randint(0, 4 * h), 4)), delta)
        if kind == "in_circle":
            r = F(5, 2 ** rng.randint(0, 2))
            c = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
            return (c, r, (c[0] + F(3, 5) * r, c[1] + F(4, 5) * r), delta)
        centers = tuple(F(rng.randint(-4, 4), 2) for _ in range(4))  # det2x2
        return (centers, delta)

    def _build(self, q: Query):
        """(desc, bounds) through the same calls the CLI makes."""
        cp = self.cp
        geom = cp.geom
        if q.kind == "univariate":
            center, delta = q.params
            inst = geom.make_univariate((Fraction(-1, 3), Fraction(1, 4), Fraction(1)),
                                        center=center, delta=delta)
        elif q.kind == "orientation2d":
            centers, delta = q.params
            inst = geom.make_orientation2d(centers, delta=delta)
        elif q.kind == "in_box":
            u, v, qbar, delta = q.params
            inst = geom.make_inbox(u, v, qbar, delta=delta)
        elif q.kind == "in_circle":
            c, r, qbar, delta = q.params
            inst = geom.make_incircle(c, r, qbar, delta=delta)
        else:
            centers, delta = q.params
            expr = cp.expr.parse(DET2X2)
            terms = cp.expr.expand_polynomial(expr, 4)
            desc = cp.bounds.PredicateDescription(
                expr=expr, k=4, delta=(delta,) * 4,
                emax=cp.grid.compute_emax(centers, [delta] * 4),
                analysis_indices=(0, 1, 2, 3), a_box=tuple((c, c) for c in centers),
            )
            beta = cp.bounds.choose_beta(set(terms), 4)
            return cp.bounds.bounds_multivariate(set(terms), terms, beta, desc)
        return inst.desc, inst.bounds

    def op(self, i: int):
        cp = self.cp
        q = self.queries[i % len(self.queries)]
        if q.kind == "hull":
            return self._hull(q)
        desc, bounds = self._build(q)
        try:
            req = cp.qr.quantified_relations(desc, bounds, q.p)
        except (cp.qr.BudgetTooLarge, cp.bounds.NotAnalyzable) as exc:
            return Refusal(type(exc).__name__)
        rep = cp.qr.probability(desc, bounds, req.L_f, req.K_f)
        return AnalyzeResult(req.L_f, req.K_f, rep.p_f, q.p)

    def _hull(self, q: Query):
        """`cperturb analyze --algorithm hull`, then the per-predicate inverse."""
        cp = self.cp
        shape, n, delta = q.params
        inst = cp.geom.make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=delta)
        description = cp.algo.AlgorithmDescription(
            predicates=(("orientation2d", inst.desc, inst.bounds),),
            n_evals=lambda m: 4 * m,
            shape=cp.algo.PerturbationShape(shape, delta),
        )
        req = cp.algo.distributed_probability(description, q.p, n)
        rep = cp.qr.probability(inst.desc, inst.bounds, req.L, req.K)
        return AnalyzeResult(req.L, req.K, rep.p_f, 1 - req.rho)

    def check(self, i: int, r) -> bool:
        q = self.queries[i % len(self.queries)]
        if q.expect_refusal:
            return isinstance(r, Refusal) and r.kind == "BudgetTooLarge"
        return isinstance(r, AnalyzeResult) and r.p_f >= r.target


WORKLOADS = {w.name: w for w in (HullWorkload, GuardMixWorkload, AnalyzeWorkload)}
