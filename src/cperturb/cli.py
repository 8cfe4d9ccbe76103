"""Command-line harness: analyze | enumerate | simulate | hull.

Exit codes: 0 ok, 2 not analyzable or inadmissible input, 3 iteration cap
exceeded.  The default seed comes from the CP_SEED environment variable
(else 0).  All output is byte-deterministic given flags and seed; enumeration
ratios are printed as exact fractions with no floating point anywhere on that
path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .algo import (
    AlgorithmDescription,
    IterationCapExceeded,
    PerturbationShape,
    distributed_probability,
    eta as shape_eta,
    run_acp,
    run_basic_acp,
)
from .bounds import NotAnalyzable, PredicateDescription, bounds_multivariate, choose_beta
from .errorbounds import SignCertified
from .expr import Mul, Input
from .geom import (
    EvalCounter,
    PredicateInstance,
    canonical_cycle,
    guarded_convex_hull,
    make_inbox,
    make_incircle,
    make_orientation2d,
    make_univariate,
)
from .grid import GridSpec, PerturbationBox, SplitMix64, count_grid, sample_grid_values
from .qr import BudgetTooLarge, probability, quantified_relations
from .reals import is_power_of_two
from .softfloat import count_floats, float_set_size


class RefuseEnumeration(ValueError):
    """The requested set is too large to enumerate (more than 10^7 members)."""


class InadmissibleInput(ValueError):
    """Input that no perturbation can make solvable, such as a hull of fewer
    than three points: the loop would grow L without end."""


def frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def dec_str(v: Fraction, places: int = 9) -> str:
    """Fixed-point decimal of a rational, computed with integer arithmetic."""
    v = Fraction(v)
    sign = "-" if v < 0 else ""
    v = abs(v)
    scaled = (v.numerator * 10**places + v.denominator // 2) // v.denominator
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def parse_exact(text: str) -> Fraction:
    """p/q, integer, or dyadic decimal.  Non-dyadic decimals are rejected so
    no silently unrepresentable coordinate enters the pipeline."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    if "." in text or "e" in text.lower():
        v = Fraction(text)
        if not is_power_of_two(Fraction(v.denominator)):
            raise ValueError(
                f"{text!r} is not a dyadic rational; write it as p/q to mean exactly p/q"
            )
        return v
    return Fraction(int(text))


def default_seed() -> int:
    return int(os.environ.get("CP_SEED", "0"))


# --- predicate construction from flags ----------------------------------------


def build_predicate(args) -> PredicateInstance:
    deltas = [parse_exact(v) for v in args.delta] if args.delta else [Fraction(1)]
    t = parse_exact(args.t)
    if getattr(args, "predicate_file", None):
        return _predicate_from_file(args, deltas, t)
    name = args.predicate
    if name == "univariate":
        degree = args.degree or 1
        if args.coeffs:
            coeffs = [parse_exact(c) for c in args.coeffs]
        else:
            coeffs = [Fraction(0)] * degree + [Fraction(1)]
        center = parse_exact(args.xbar[0]) if args.xbar else Fraction(0)
        return make_univariate(coeffs, center=center, delta=deltas[0], t=t, emax=args.emax)
    if name == "multivariate":
        terms = {}
        for spec_txt in args.terms or ["1:1,1"]:
            coeff_txt, exps_txt = spec_txt.split(":")
            key = tuple(int(e) for e in exps_txt.split(","))
            terms[key] = terms.get(key, Fraction(0)) + parse_exact(coeff_txt)
        k = len(next(iter(terms)))
        dl = deltas if len(deltas) == k else [deltas[0]] * k
        centers = (
            [parse_exact(v) for v in args.xbar] if args.xbar else [Fraction(0)] * k
        )
        expr = _monomial_expr(terms, k)
        emax = args.emax
        if emax is None:
            from .grid import compute_emax

            emax = compute_emax(centers, dl)
        desc = PredicateDescription(
            expr=expr,
            k=k,
            delta=tuple(dl),
            emax=emax,
            analysis_indices=tuple(range(k)),
            a_box=tuple((c, c) for c in centers),
            t=t,
        )
        beta = choose_beta(set(terms), k)
        desc, bs = bounds_multivariate(set(terms), terms, beta, desc)
        return PredicateInstance("multivariate", expr, desc, bs, None, fixed={})
    if name == "in_box":
        u = [parse_exact(v) for v in (args.corner_u or ["0", "0"])]
        v = [parse_exact(v) for v in (args.corner_v or ["2", "2"])]
        q = [parse_exact(v) for v in (args.xbar or ["1", "1"])]
        return make_inbox(u, v, q, delta=deltas[0], t=t, emax=args.emax)
    if name == "in_circle":
        c = [parse_exact(v) for v in (args.center or ["0", "0"])]
        r = parse_exact(args.radius or "1")
        q = [parse_exact(v) for v in (args.xbar or ["0", "1"])]
        return make_incircle(c, r, q, delta=deltas[0], t=t, emax=args.emax)
    if name == "orientation2d":
        pts = [parse_exact(v) for v in (args.xbar or ["0", "0", "1", "0", "0", "1"])]
        centers = [pts[i : i + 2] for i in range(0, 6, 2)]
        return make_orientation2d(centers, delta=deltas[0], t=t, emax=args.emax)
    raise ValueError(f"unknown predicate {name!r}")


def _predicate_from_file(args, deltas, t) -> PredicateInstance:
    """A polynomial predicate from a prefix-format expression file.

    The expression is expanded symbolically and analyzed through the
    multivariate machinery; non-polynomial operators are not analyzable by
    this route (use the named built-ins instead)."""
    from .expr import NotPolynomial, expand_polynomial, parse

    with open(args.predicate_file, "r", encoding="utf-8") as fh:
        expr = parse(fh.read())
    k = expr.arity()
    if k == 0:
        raise NotAnalyzable("expression has no inputs")
    try:
        terms = expand_polynomial(expr, k)
    except NotPolynomial as exc:
        raise NotAnalyzable(f"not a polynomial expression: {exc}") from exc
    if not terms:
        raise NotAnalyzable("the zero polynomial has no sign to certify")
    dl = deltas if len(deltas) == k else [deltas[0]] * k
    centers = [parse_exact(v) for v in args.xbar] if args.xbar else [Fraction(0)] * k
    emax = args.emax
    if emax is None:
        from .grid import compute_emax

        emax = compute_emax(centers, dl)
    desc = PredicateDescription(
        expr=expr,
        k=k,
        delta=tuple(dl),
        emax=emax,
        analysis_indices=tuple(range(k)),
        a_box=tuple((c, c) for c in centers),
        t=t,
    )
    beta = choose_beta(set(terms), k)
    desc, bs = bounds_multivariate(set(terms), terms, beta, desc)
    return PredicateInstance("file", expr, desc, bs, None, fixed={})


def _monomial_expr(terms: dict, k: int):
    from .expr import Add, Const

    out = None
    for key, coeff in sorted(terms.items()):
        term = Const(coeff)
        for i, e in enumerate(key):
            for _ in range(e):
                term = Mul(term, Input(i))
        out = term if out is None else Add(out, term)
    return out


# --- analyze --------------------------------------------------------------------


def cmd_analyze(args) -> int:
    p = Fraction(parse_exact(args.p))
    if args.algorithm:
        return _analyze_algorithm(args, p)
    if args.predicate == "rational":
        return _analyze_rational(args, p)
    inst = build_predicate(args)
    try:
        req = quantified_relations(inst.desc, inst.bounds, p)
    except (NotAnalyzable, BudgetTooLarge) as exc:
        print(f"not analyzable: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(req.to_json_dict(), sort_keys=True))
        return 0
    _print_trace(inst.name, req)
    return 0


def _print_trace(name: str, req, indent: str = "") -> None:
    d = req.to_json_dict()
    print(f"{indent}predicate: {name} (route {d['route']})")
    print(f"{indent}step 1  eps      = {d['eps_nu']}")
    print(f"{indent}step 2  gamma    = {d['gamma']}")
    print(f"{indent}step 3  t*gamma  = {d['t_gamma']}")
    print(f"{indent}step 4  phi      = {d['phi']}")
    print(f"{indent}step 5  L_safe   = {d['L_safe']}")
    print(f"{indent}step 6  L_grid   = {d['L_grid']}")
    print(f"{indent}        L_f      = {d['L_f']}")
    print(f"{indent}        K_f      = {d['K_f']}")


def _analyze_rational(args, p: Fraction) -> int:
    """f = g/h: both components analyzed at (1+p)/2; L_f is their max."""
    q = (1 + p) / 2
    t = parse_exact(args.t)
    deltas = [parse_exact(v) for v in args.delta] if args.delta else [Fraction(1)]
    num = make_univariate((0, 1), center=1, delta=deltas[0], t=t, emax=args.emax)
    den = make_univariate((0, 1), center=1, delta=deltas[-1], t=t, emax=args.emax)
    try:
        rn = quantified_relations(num.desc, num.bounds, q)
        rd = quantified_relations(den.desc, den.bounds, q)
    except (NotAnalyzable, BudgetTooLarge) as exc:
        print(f"not analyzable: {exc}", file=sys.stderr)
        return 2
    L_f = max(rn.L_f, rd.L_f)
    K_f = max(rn.K_f, rd.K_f)
    if args.json:
        print(
            json.dumps(
                {
                    "component_p": frac_str(q),
                    "numerator": rn.to_json_dict(),
                    "denominator": rd.to_json_dict(),
                    "L_f": L_f,
                    "K_f": K_f,
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"predicate: rational (components analyzed at (1+p)/2 = {frac_str(q)})")
    _print_trace("numerator", rn, indent="  ")
    _print_trace("denominator", rd, indent="  ")
    print(f"L_f = max of components = {L_f}")
    print(f"K_f = max of components = {K_f}")
    return 0


def _analyze_algorithm(args, p: Fraction) -> int:
    if args.algorithm != "hull":
        print(f"unknown algorithm {args.algorithm!r}", file=sys.stderr)
        return 2
    n = args.n or 16
    delta = parse_exact(args.delta[0]) if args.delta else Fraction(1, 2)
    shape = PerturbationShape(args.shape or "box", delta)
    inst = make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=delta, emax=args.emax)
    algo = AlgorithmDescription(
        predicates=(("orientation2d", inst.desc, inst.bounds),),
        n_evals=lambda m: 4 * m,
        shape=shape,
    )
    try:
        req = distributed_probability(algo, p, n)
    except (NotAnalyzable, BudgetTooLarge) as exc:
        print(f"not analyzable: {exc}", file=sys.stderr)
        return 2
    payload = {
        "algorithm": "hull",
        "n": n,
        "N_E": 4 * n,
        "rho": frac_str(req.rho),
        "eta": req.eta,
        "L_ACP": req.L,
        "K_ACP": req.K,
        "per_predicate": [
            {"name": nm, "L_f": lf, "K_f": kf} for nm, lf, kf in req.per_predicate
        ],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"algorithm: hull, n = {n}, N_E = {4*n}")
        print(f"rho    = {frac_str(req.rho)}")
        print(f"eta    = {req.eta}")
        print(f"L_ACP  = {req.L}")
        print(f"K_ACP  = {req.K}")
    return 0


# --- enumerate -------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    a, b = parse_exact(args.universe[0]), parse_exact(args.universe[1])
    c, d = parse_exact(args.target[0]), parse_exact(args.target[1])
    if args.grid:
        emax = args.emax if args.emax is not None else 1
        spec = GridSpec(args.L, args.K, emax)
        total_size = count_grid(-(Fraction(2) ** emax), Fraction(2) ** emax, spec)
        if total_size > 10**7:
            raise RefuseEnumeration(f"grid has {total_size} members")
        universe = count_grid(a, b, spec)
        hits = count_grid(max(a, c), min(b, d), spec)
        label = f"G_{{{args.L},{args.K},{emax}}}"
    else:
        if float_set_size(args.L, args.K) > 10**7:
            raise RefuseEnumeration(f"F has {float_set_size(args.L, args.K)} members")
        universe = count_floats(a, b, args.L, args.K)
        hits = count_floats(max(a, c), min(b, d), args.L, args.K)
        label = f"F_{{{args.L},{args.K}}}"
    ratio = Fraction(hits, universe) if universe else Fraction(0)
    print(f"{label} in [{frac_str(a)}, {frac_str(b)}]: {universe} members")
    print(f"target [{frac_str(c)}, {frac_str(d)}]: {hits} members")
    print(f"ratio: {frac_str(ratio)}")
    return 0


# --- simulate --------------------------------------------------------------------


def _simulate_chunk(payload) -> int:
    """Worker for --jobs: counts certified draws for one seed partition."""
    args_dict, trials, seed = payload
    args = argparse.Namespace(**args_dict)
    inst = build_predicate(args)
    spec = GridSpec(args.L, args.K, inst.desc.emax)
    centers = tuple(lo for lo, _ in inst.desc.a_box)
    box = PerturbationBox(centers, inst.desc.delta)
    rng = SplitMix64(seed)
    successes = 0
    for _ in range(trials):
        vals = sample_grid_values(box, spec, rng)
        verdict = inst.guarded(inst.assemble(vals), args.L, args.K)
        if isinstance(verdict, SignCertified):
            successes += 1
    return successes


def cmd_simulate(args) -> int:
    inst = build_predicate(args)
    L, K = args.L, args.K
    seed = args.seed if args.seed is not None else default_seed()
    jobs = max(1, args.jobs)
    base = args.trials // jobs
    chunks = [
        (vars(args), base + (1 if j < args.trials % jobs else 0), seed + 1_000_003 * j)
        for j in range(jobs)
    ]
    chunks = [c for c in chunks if c[1] > 0]
    if jobs == 1 or len(chunks) <= 1:
        successes = sum(_simulate_chunk(c) for c in chunks)
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=jobs) as pool:
            successes = sum(pool.map(_simulate_chunk, chunks))
    try:
        rep = probability(inst.desc, inst.bounds, L, K)
        theo = dec_str(rep.p_f)
    except (NotAnalyzable, BudgetTooLarge):
        theo = "n/a"
    print("L,K,trials,successes,empirical_p,theoretical_p_f")
    if args.trials > 0:
        emp = dec_str(Fraction(successes, args.trials))
        print(f"{L},{K},{args.trials},{successes},{emp},{theo}")
    return 0


# --- hull ------------------------------------------------------------------------


def read_points_csv(path: str) -> list[tuple[Fraction, Fraction]]:
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'x,y'")
            pts.append((parse_exact(parts[0]), parse_exact(parts[1])))
    return pts


def cmd_hull(args) -> int:
    pts = read_points_csv(args.input)
    if len(pts) < 3:
        # repeated points count: perturbation separates them
        raise InadmissibleInput(f"a hull needs at least three points, {args.input} has {len(pts)}")
    flat = [c for pt in pts for c in pt]
    delta = parse_exact(args.delta)
    shape = PerturbationShape(args.shape, delta)
    emax_holder = {}

    def hull_algo(y, L, K):
        grouped = [(y[i], y[i + 1]) for i in range(0, len(y), 2)]
        counter = EvalCounter()
        out = guarded_convex_hull(grouped, L, K, emax_holder["emax"], counter)
        emax_holder.setdefault("evals", []).append(counter.evaluations)
        return out

    from .grid import compute_emax

    emax_holder["emax"] = compute_emax(flat, [delta] * len(flat))
    seed = args.seed if args.seed is not None else default_seed()
    try:
        if args.basic:
            y, hull, stats = run_basic_acp(
                hull_algo, flat, shape, seed=seed, max_rounds=args.max_rounds
            )
        else:
            y, hull, stats = run_acp(
                hull_algo,
                flat,
                shape,
                psi=(parse_exact(args.psi_l), args.psi_k),
                seed=seed,
                max_rounds=args.max_rounds,
            )
    except IterationCapExceeded as exc:
        print(f"iteration cap exceeded: {exc}", file=sys.stderr)
        return 3
    stats.eval_counts = emax_holder.get("evals", [])
    payload = {
        "hull": list(canonical_cycle(hull)),
        "eta": shape_eta(shape),
        "perturbed": [
            [frac_str(y[i].to_fraction()), frac_str(y[i + 1].to_fraction())]
            for i in range(0, len(y), 2)
        ],
        "stats": json.loads(stats.to_json()),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


# --- entry point -------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cperturb", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="precision/probability analysis")
    pa.add_argument("--predicate", default="univariate")
    pa.add_argument("--predicate-file", dest="predicate_file",
                    help="prefix-format polynomial expression file")
    pa.add_argument("--algorithm", help="analyze a whole algorithm (hull)")
    pa.add_argument("--p", required=True, help="target success probability")
    pa.add_argument("--delta", nargs="*", help="perturbation parameters")
    pa.add_argument("--emax", type=int, default=None)
    pa.add_argument("--t", default="1/2")
    pa.add_argument("--n", type=int, help="input size for --algorithm")
    pa.add_argument("--degree", type=int)
    pa.add_argument("--coeffs", nargs="*", help="a_0 .. a_d for univariate")
    pa.add_argument("--terms", nargs="*", help="coeff:e1,e2,... for multivariate")
    pa.add_argument("--xbar", nargs="*", help="analysis-coordinate centers")
    pa.add_argument("--corner-u", nargs=2, dest="corner_u")
    pa.add_argument("--corner-v", nargs=2, dest="corner_v")
    pa.add_argument("--center", nargs=2)
    pa.add_argument("--radius")
    pa.add_argument("--shape", choices=["box", "disc", "ball"])
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("enumerate", help="exact membership ratios over F or G")
    pe.add_argument("--L", type=int, required=True)
    pe.add_argument("--K", type=int, required=True)
    pe.add_argument("--emax", type=int)
    pe.add_argument("--universe", nargs=2, required=True)
    pe.add_argument("--target", nargs=2, required=True)
    pe.add_argument("--grid", action="store_true")
    pe.set_defaults(func=cmd_enumerate)

    ps = sub.add_parser("simulate", help="Monte Carlo success-rate estimation")
    ps.add_argument("--predicate", default="univariate")
    ps.add_argument("--predicate-file", dest="predicate_file")
    ps.add_argument("--L", type=int, required=True)
    ps.add_argument("--K", type=int, required=True)
    ps.add_argument("--trials", type=int, required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--xbar", nargs="*")
    ps.add_argument("--delta", nargs="*")
    ps.add_argument("--emax", type=int, default=None)
    ps.add_argument("--t", default="1/2")
    ps.add_argument("--degree", type=int)
    ps.add_argument("--coeffs", nargs="*")
    ps.add_argument("--terms", nargs="*")
    ps.add_argument("--corner-u", nargs=2, dest="corner_u")
    ps.add_argument("--corner-v", nargs=2, dest="corner_v")
    ps.add_argument("--center", nargs=2)
    ps.add_argument("--radius")
    ps.add_argument("--jobs", type=int, default=1,
                    help="parallel Monte Carlo workers (seed-partitioned)")
    ps.set_defaults(func=cmd_simulate)

    ph = sub.add_parser("hull", help="controlled-perturbation convex hull")
    ph.add_argument("--input", required=True, help="CSV of x,y per line")
    ph.add_argument("--shape", choices=["box", "disc"], default="box")
    ph.add_argument("--delta", default="1/2")
    ph.add_argument("--seed", type=int, default=None)
    ph.add_argument("--psi-l", dest="psi_l", default="2")
    ph.add_argument("--psi-k", dest="psi_k", type=int, default=8)
    ph.add_argument("--basic", action="store_true")
    ph.add_argument("--max-rounds", dest="max_rounds", type=int, default=64)
    ph.set_defaults(func=cmd_hull)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except RefuseEnumeration as exc:
        print(f"refusing enumeration: {exc}", file=sys.stderr)
        return 2
    except InadmissibleInput as exc:
        print(f"inadmissible input: {exc}", file=sys.stderr)
        return 2
    except (NotAnalyzable, BudgetTooLarge) as exc:
        print(f"not analyzable: {exc}", file=sys.stderr)
        return 2
    except IterationCapExceeded as exc:
        print(f"iteration cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
