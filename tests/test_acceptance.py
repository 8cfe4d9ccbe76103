"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is fixed here, none is calibrated after the fact.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from cperturb.algo import PerturbationShape, eta, rho, run_acp
from cperturb.bounds import PredicateDescription, bounds_multivariate, bounds_univariate
from cperturb.errorbounds import (
    RangeErrorVerdict,
    SignCertified,
    annotate,
    compile_guard,
    static_bound,
)
from cperturb.exact import rat_eval, rat_sign
from cperturb.expr import Input, Mul
from cperturb.geom import (
    canonical_cycle,
    exact_convex_hull,
    guarded_convex_hull,
    make_inbox,
    make_incircle,
    make_orientation2d,
    make_univariate,
)
from cperturb.grid import (
    GridSampler,
    GridSpec,
    PerturbationBox,
    SplitMix64,
    compute_emax,
    count_grid,
    grid_unit,
)
from cperturb.qr import lgrid, quantified_relations
from cperturb.reals import RVal, ceil_log2_rval, nth_root
from cperturb.softfloat import RangeError, count_floats, fl_binop, fl_round


def report(num: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_exact_enumeration_ratios():
    t0 = time.time()
    f_all = count_floats(0, 2, 2, 3)
    ok = (
        F(count_floats(0, 1, 2, 3), f_all) == F(17, 21)
        and F(count_floats(1, 2, 2, 3), f_all) == F(5, 21)
    )
    spec = GridSpec(2, 3, 1)
    g_all = count_grid(0, 2, spec)
    ok &= F(count_grid(0, 1, spec), g_all) == F(5, 9)
    ok &= F(count_grid(1, 2, spec), g_all) == F(5, 9)
    ok &= F(count_grid(F(1, 10), F(9, 10), spec), g_all) == F(1, 3)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"17/21, 5/21 over F_2,3 and 5/9, 5/9, 1/3 over G_2,3,1 in {elapsed:.3f}s")


def test_criterion_2_grid_constants():
    ok = grid_unit(1, 2) == F(1, 4)
    rng = random.Random(2)
    for _ in range(100):
        g = F(rng.randint(1, 1 << 12), 1 << rng.randint(2, 16))
        ok &= lgrid([g / 2], F(1, 2), 1) == lgrid([g], F(1, 2), 1) + 1
    report(2, ok, "tau(emax=1, L=2) = 1/4 and L_grid(gamma/2) = L_grid(gamma) + 1")


def test_criterion_3_univariate_shift_law():
    rng = random.Random(3)
    ok = True
    for d in range(1, 7):
        coeffs = [0] * d + [1]
        desc = PredicateDescription(expr=Input(0), k=1, delta=(F(1),), emax=1)
        desc, bs = bounds_univariate(coeffs, desc)
        for _ in range(50):
            p = F(rng.randint(1001, 1999), 2000)  # the Gamma-line absorbs p >= 1/2
            a = quantified_relations(desc, bs, p).L_safe
            b = quantified_relations(desc, bs, (1 + p) / 2).L_safe
            ok &= b == a + d
    report(3, ok, "L_safe((1+p)/2) = L_safe(p) + d for d in 1..6, 50 random p each")


def test_criterion_4_multivariate_shift_law():
    rng = random.Random(4)
    ok = True
    for _ in range(50):
        k = rng.randint(2, 4)
        beta = tuple(rng.randint(0, 2) for _ in range(k))
        if max(beta) == 0:
            beta = (1,) + beta[1:]
        desc = PredicateDescription(
            expr=_monomial(beta), k=k, delta=(F(1),) * k, emax=1
        )
        desc, bs = bounds_multivariate({beta}, {beta: F(1)}, beta, desc)
        p = F(rng.randint(1, 1999), 2000)
        q = (1 + p) / 2
        l_p = quantified_relations(desc, bs, p).L_safe
        l_q = quantified_relations(desc, bs, q).L_safe
        beta_star = sum(beta)
        bits = 256
        a = RVal(1) - nth_root(RVal(p), k, bits)
        b = RVal(1) - nth_root(RVal(q), k, bits)
        ceil_lam_bstar = ceil_log2_rval((a / b) ** beta_star)
        ok &= l_q <= l_p + ceil_lam_bstar
    report(4, ok, "L_safe((1+p)/2) <= L_safe(p) + ceil(lambda*beta_star), 50 draws")


def _monomial(beta):
    e = None
    for i, b in enumerate(beta):
        for _ in range(b):
            e = Input(i) if e is None else Mul(e, Input(i))
    return e


def _mixed_instances():
    return [
        make_univariate((-F(1, 8), F(1, 4), F(1)), center=0, delta=1),
        make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=F(1, 2)),
        make_inbox((0, 0), (2, 2), (1, 1), delta=F(1, 2)),
        make_incircle((0, 0), 1, (1, 0), delta=F(1, 2)),
    ]


def _draw_stream(n_draws: int, master_seed: int):
    """Deterministic stream of (instance, L, K, grid values) draws."""
    instances = _mixed_instances()
    chooser = random.Random(master_seed)
    samplers = {}
    for _ in range(n_draws):
        idx = chooser.randrange(len(instances))
        inst = instances[idx]
        L = chooser.randint(8, 64)
        K = chooser.randint(4, 10)
        key = (idx, L, K)
        if key not in samplers:
            spec = GridSpec(L, K, inst.desc.emax)
            centers = tuple(lo for lo, _ in inst.desc.a_box)
            box = PerturbationBox(centers, inst.desc.delta)
            samplers[key] = GridSampler.from_box(box, spec, SplitMix64(master_seed ^ hash(key)))
        pts = samplers[key].draw_floats()
        yield inst, L, K, pts


N_SOUNDNESS = 100_000


def test_criterion_5_guard_soundness():
    t0 = time.time()
    mismatches = 0
    certified = failures = range_errors = 0
    for inst, L, K, pts in _draw_stream(N_SOUNDNESS, 55):
        full = inst.assemble([v.to_fraction() for v in pts])
        verdict = inst.guarded(full, L, K)
        if isinstance(verdict, SignCertified):
            certified += 1
            if verdict.sign != inst.exact_sign(full):
                mismatches += 1
        elif isinstance(verdict, RangeErrorVerdict):
            range_errors += 1
        else:
            failures += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60
    report(
        5,
        ok,
        f"{N_SOUNDNESS} draws: {certified} certified, {mismatches} sign mismatches, "
        f"{failures} guard failures, {range_errors} range errors, {elapsed:.1f}s",
    )


def test_criterion_6_error_bound_soundness():
    violations = checked = 0
    guards = {}
    for inst, L, K, pts in _draw_stream(N_SOUNDNESS, 55):
        if id(inst) not in guards:
            guards[id(inst)] = compile_guard(inst.expr)
        guard = guards[id(inst)]
        try:
            value, raw = guard.evaluate(_as_inputs(inst, pts, L, K), L, K)
        except (RangeError, ValueError):
            continue
        exact = rat_eval(inst.expr, inst.assemble([v.to_fraction() for v in pts]))
        stat = static_bound(annotate(inst.expr, inst.desc.emax, prec=L), L)
        dyn = min(raw, stat)
        err = abs(value - exact)
        checked += 1
        if not (err <= dyn <= stat):
            violations += 1
    ok = violations == 0 and checked > N_SOUNDNESS // 2
    report(6, ok, f"|fl - exact| <= dynamic <= static on {checked} draws, {violations} violations")


def _as_inputs(inst, pts, L, K):
    full = []
    it = iter(pts)
    fixed = inst.fixed or {}
    for slot in range(inst.desc.k):
        if slot in fixed:
            full.append(fl_round(fixed[slot], L, K))
        else:
            full.append(next(it))
    return full


def test_criterion_7_calibration():
    t0 = time.time()
    trials = 10_000
    lines = []
    ok = True
    cases = [
        ("univariate d=2", make_univariate((0, 0, 1), center=0, delta=1)),
        ("in_box", make_inbox((0, 0), (2, 2), (1, 1), delta=F(1, 2))),
    ]
    for label, inst in cases:
        for p in (F(1, 2), F(9, 10), F(99, 100)):
            req = quantified_relations(inst.desc, inst.bounds, p)
            spec = GridSpec(req.L_f, req.K_f, inst.desc.emax)
            centers = tuple(lo for lo, _ in inst.desc.a_box)
            sampler = GridSampler.from_box(
                PerturbationBox(centers, inst.desc.delta), spec, SplitMix64(7_000 + req.L_f)
            )
            successes = 0
            for _ in range(trials):
                pts = sampler.draw_floats()
                full = _as_inputs(inst, pts, req.L_f, req.K_f)
                if isinstance(inst.guarded(full, req.L_f, req.K_f), SignCertified):
                    successes += 1
            sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
            needed = float(p) - 3 * sigma
            rate = successes / trials
            lines.append(f"{label} p={p}: rate {rate:.4f} needs >= {needed:.4f} (L={req.L_f}, K={req.K_f})")
            ok &= rate >= needed
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(7, ok, f"calibration in {elapsed:.1f}s: " + "; ".join(lines))


def test_criterion_8_grid_inequality_exhaustive():
    rng = random.Random(8)
    t = F(1, 2)
    emax = 1
    delta = F(1)
    violations = 0
    for _ in range(1000):
        roots = [F(rng.randint(-63, 63), 64) for _ in range(rng.randint(1, 4))]
        gamma = F(rng.randint(1, 16), 64)
        L0 = lgrid([gamma], t, emax)
        for L in range(L0, L0 + 5):
            spec = GridSpec(L, 10, emax)
            n_u = count_grid(-delta, delta, spec)
            merged = _merge(
                sorted((max(-delta, r - t * gamma), min(delta, r + t * gamma)) for r in roots)
            )
            hits = sum(_count_open(lo, hi, spec) for lo, hi in merged)
            vol = sum(
                hi - lo
                for lo, hi in _merge(
                    sorted((max(-delta, r - gamma), min(delta, r + gamma)) for r in roots)
                )
            )
            if F(hits, n_u) > vol / (2 * delta):
                violations += 1
    report(8, violations == 0, f"1000 random regions x 5 precisions, {violations} violations")


def _merge(intervals):
    out = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo > out[-1][1]:
            out.append([lo, hi])
        else:
            out[-1][1] = max(out[-1][1], hi)
    return [(lo, hi) for lo, hi in out]


def _count_open(lo, hi, spec):
    """Grid points in the open interval (lo, hi)."""
    n = count_grid(lo, hi, spec)
    tau = spec.tau
    if lo / tau == lo // tau:  # lo itself on the grid
        n -= 1 if lo <= hi else 0
    if hi / tau == hi // tau and hi > lo:
        n -= 1
    return max(0, n)


def test_criterion_9_eta_and_rho():
    ok = eta(PerturbationShape("disc", F(1, 2))) == 2
    ok &= rho(F(9, 10), 100) == F(1, 1000)
    report(9, ok, "eta(disc) = 2 and rho(0.9, 100) = 1/1000 exactly")


def test_criterion_10_end_to_end_acp():
    def run_one(flat, seed, emax):
        def algo(y, L, K):
            pts = [(y[i], y[i + 1]) for i in range(0, len(y), 2)]
            return guarded_convex_hull(pts, L, K, emax)

        return run_acp(algo, flat, PerturbationShape("box", F(1, 2)), seed=seed)

    collinear = []
    for i in range(16):
        collinear += [F(i), F(i)]
    dup_heavy = []
    for i in range(8):
        for _ in range(4):
            dup_heavy += [F(i % 3), F((i * 2) % 3)]
    ok = True
    details = []
    for base, flat in (("collinear", collinear), ("duplicates", dup_heavy)):
        emax = compute_emax(flat, [F(1, 2)] * len(flat))
        rounds_hist = []
        for seed in range(100):
            y, hull, stats = run_one(flat, seed, emax)
            pts = [(y[i].to_fraction(), y[i + 1].to_fraction()) for i in range(0, len(y), 2)]
            ok &= canonical_cycle(hull) == canonical_cycle(exact_convex_hull(pts))
            rounds_hist.append(stats.rounds)
            if seed < 10:  # rerun determinism
                y2, hull2, stats2 = run_one(flat, seed, emax)
                ok &= [v.to_fraction() for v in y] == [v.to_fraction() for v in y2]
                ok &= hull == hull2 and stats.to_json() == stats2.to_json()
        details.append(f"{base}: max rounds {max(rounds_hist)}")
    report(10, ok, "200 seeded degenerate hull runs match the rational oracle; " + "; ".join(details))


def test_criterion_11_softfloat_vs_ieee():
    np = pytest.importorskip("numpy")
    # binary32 has 23 stored fraction bits and an 8-bit exponent field; in the
    # fraction-bit convention used throughout, that is (L, K) = (23, 8)
    L, K = 23, 8
    rng = random.Random(11)
    matched = excluded = 0
    ops = "+-*/"
    while matched < 100_000:
        x = np.float32(rng.randint(-(1 << 24), 1 << 24)) * np.float32(2.0) ** rng.randint(-70, 70)
        y = np.float32(rng.randint(-(1 << 24), 1 << 24)) * np.float32(2.0) ** rng.randint(-70, 70)
        if x == 0 or y == 0:
            continue
        a = fl_round(F(float(x)), L, K)
        b = fl_round(F(float(y)), L, K)
        for op in ops:
            with np.errstate(all="ignore"):
                ref = {"+": x + y, "-": x - y, "*": x * y, "/": x / y}[op]
            rf = float(ref)
            in_range = np.isfinite(ref) and rf != 0 and 2.0**-126 <= abs(rf) < 2.0**128
            if not in_range:
                excluded += 1
                continue
            got = fl_binop(op, a, b)
            assert got.to_fraction() == F(rf), (op, float(x), float(y))
            matched += 1
    report(
        11,
        True,
        f"binary32-equivalent (L=23, K=8): {matched} ops bit-for-bit, "
        f"{excluded} subnormal/out-of-range cases excluded",
    )
