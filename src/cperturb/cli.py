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
import re
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
from .bounds import InadmissibleInput, NotAnalyzable, RationalPrecision
from .errorbounds import SignCertified
from .expr import ParseError, parse, polynomial_expr
from .geom import (
    EvalCounter,
    PredicateInstance,
    canonical_cycle,
    guarded_convex_hull,
    make_inbox,
    make_incircle,
    make_orientation2d,
    make_polynomial,
    make_univariate,
)
from .grid import EmptyGrid, GridSampler, GridSpec, PerturbationBox, SplitMix64, compute_emax, count_grid
from .qr import BudgetTooLarge, probability, quantified_relations
from .reals import is_power_of_two
from .softfloat import count_floats, float_set_size


class RefuseEnumeration(ValueError):
    """The requested set is too large to enumerate (more than 10^7 members)."""


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


MAX_EXPONENT_DIGITS = 4  # decimal exponents stay below 10^4 in magnitude


def parse_exact(text: str) -> Fraction:
    """p/q, integer, or dyadic decimal.  Non-dyadic decimals and non-numbers
    are rejected so no silently unrepresentable coordinate enters the pipeline.
    A decimal exponent of more than MAX_EXPONENT_DIGITS digits (leading zeros
    aside) is refused before any power of ten is built, so a short argument
    cannot cost minutes."""
    text = text.strip()
    decimal = "/" not in text and ("." in text or "e" in text.lower())
    exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    if len(exponent) > MAX_EXPONENT_DIGITS:
        raise InadmissibleInput(f"{text!r}: a decimal exponent has at most {MAX_EXPONENT_DIGITS} digits")
    try:
        v = Fraction(text) if "/" in text or decimal else Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InadmissibleInput(f"{text!r} is not an integer, p/q or decimal number") from exc
    if decimal and not is_power_of_two(Fraction(v.denominator)):
        raise InadmissibleInput(f"{text!r} is not a dyadic rational; write it as p/q to mean exactly p/q")
    return v


def default_seed() -> int:
    return int(os.environ.get("CP_SEED", "0"))


# --- predicate construction from flags ----------------------------------------


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InadmissibleInput(f"cannot read {path}: {exc}") from exc


def build_predicate(args) -> PredicateInstance:
    t = parse_exact(args.t)
    if getattr(args, "predicate_file", None):
        try:
            expr = parse(read_text(args.predicate_file))
        except ParseError as exc:
            raise InadmissibleInput(f"{args.predicate_file}: {exc}") from exc
        return _polynomial(args, expr, expr.arity(), t, "file")
    name = args.predicate
    if name == "multivariate":
        terms = {}
        for spec_txt in args.terms or ["1:1,1"]:
            coeff_txt, colon, exps = spec_txt.partition(":")
            if not colon or not all(e.isascii() and e.isdigit() for e in exps.split(",")):
                raise InadmissibleInput(f"--terms entry {spec_txt!r} is not coeff:e1,e2,... with exponents >= 0")
            key = tuple(int(e) for e in exps.split(","))
            terms[key] = terms.get(key, Fraction(0)) + parse_exact(coeff_txt)
        if len({len(key) for key in terms}) > 1:
            raise InadmissibleInput("--terms exponent tuples differ in length")
        k = len(next(iter(terms)))
        return _polynomial(args, polynomial_expr(terms), k, t, "multivariate")
    delta = _deltas(args, 1)[0]
    if name == "univariate":
        degree = 1 if args.degree is None else args.degree
        if args.coeffs:
            if args.degree is not None and args.degree != len(args.coeffs) - 1:
                raise InadmissibleInput(f"--degree {args.degree} does not match {len(args.coeffs)} --coeffs")
            coeffs = [parse_exact(c) for c in args.coeffs]
        else:
            coeffs = [Fraction(0)] * degree + [Fraction(1)]
        (center,) = _exacts("--xbar", args.xbar, ["0"])
        return make_univariate(coeffs, center=center, delta=delta, t=t, emax=args.emax)
    if name == "in_box":
        u = [parse_exact(v) for v in (args.corner_u or ["0", "0"])]
        v = [parse_exact(v) for v in (args.corner_v or ["2", "2"])]
        q = _exacts("--xbar", args.xbar, ["1", "1"])
        return make_inbox(u, v, q, delta=delta, t=t, emax=args.emax)
    if name == "in_circle":
        c = [parse_exact(v) for v in (args.center or ["0", "0"])]
        r = parse_exact(args.radius or "1")
        q = _exacts("--xbar", args.xbar, ["0", "1"])
        return make_incircle(c, r, q, delta=delta, t=t, emax=args.emax)
    if name == "orientation2d":
        pts = _exacts("--xbar", args.xbar, ["0", "0", "1", "0", "0", "1"])
        centers = [pts[i : i + 2] for i in range(0, 6, 2)]
        return make_orientation2d(centers, delta=delta, t=t, emax=args.emax)
    raise InadmissibleInput(f"unknown predicate {name!r}")


def _exacts(flag: str, texts, default: list[str]) -> list[Fraction]:
    """A flag's exact values, as many as its default has; the default when
    the flag is absent."""
    texts, n = texts or default, len(default)
    if len(texts) != n:
        raise InadmissibleInput(f"{flag} takes {n} value{'s' * (n != 1)}, got {len(texts)}")
    return [parse_exact(v) for v in texts]


def _deltas(args, k: int) -> list[Fraction]:
    """k perturbation parameters from --delta: one for all, or one each."""
    texts = args.delta or ["1"]
    if len(texts) not in (1, k):
        want = "1 value" if k == 1 else f"1 or {k} values"
        raise InadmissibleInput(f"--delta takes {want}, got {len(texts)}")
    return [parse_exact(v) for v in texts] * (k // len(texts))


def _polynomial(args, expr, k: int, t: Fraction, name: str) -> PredicateInstance:
    """A polynomial predicate over k inputs, all perturbed and analyzed."""
    centers = _exacts("--xbar", args.xbar, ["0"] * k)
    return make_polynomial(expr, k, centers, _deltas(args, k), t, args.emax, name)


# --- analyze --------------------------------------------------------------------


def cmd_analyze(args) -> int:
    p = Fraction(parse_exact(args.p))
    if args.algorithm:
        return _analyze_algorithm(args, p)
    if args.predicate == "rational":
        return _analyze_rational(args, p)
    inst = build_predicate(args)
    req = quantified_relations(inst.desc, inst.bounds, p)
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
    q = RationalPrecision.component_probability(p)
    t = parse_exact(args.t)
    d_num, d_den = _deltas(args, 2)
    num = make_univariate((0, 1), center=1, delta=d_num, t=t, emax=args.emax)
    den = make_univariate((0, 1), center=1, delta=d_den, t=t, emax=args.emax)
    rn = quantified_relations(num.desc, num.bounds, q)
    rd = quantified_relations(den.desc, den.bounds, q)
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
        raise InadmissibleInput(f"unknown algorithm {args.algorithm!r}")
    n = 16 if args.n is None else args.n
    delta = parse_exact(args.delta[0]) if args.delta else Fraction(1, 2)
    shape = PerturbationShape(args.shape or "box", delta)
    inst = make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=delta, emax=args.emax)
    algo = AlgorithmDescription(
        predicates=(("orientation2d", inst.desc, inst.bounds),),
        n_evals=lambda m: 4 * m,
        shape=shape,
    )
    req = distributed_probability(algo, p, n)
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


def _float_format(L: int, K: int) -> None:
    """Refuse --L and --K unless F_{L,K} exists."""
    if L < 1 or K < 2:
        raise InadmissibleInput(f"F_{{{L},{K}}} needs --L >= 1 and --K >= 2")


def cmd_enumerate(args) -> int:
    _float_format(args.L, args.K)
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
    box = PerturbationBox([lo for lo, _ in inst.desc.a_box], inst.desc.delta)
    sampler = GridSampler.from_box(box, GridSpec(args.L, args.K, inst.desc.emax), SplitMix64(seed))
    successes = 0
    for _ in range(trials):
        verdict = inst.guarded(inst.assemble(sampler.values(sampler.draw())), args.L, args.K)
        successes += isinstance(verdict, SignCertified)
    return successes


def cmd_simulate(args) -> int:
    L, K = args.L, args.K
    _float_format(L, K)
    if args.trials < 0:
        raise InadmissibleInput("--trials must not be negative")
    if args.jobs < 1:
        raise InadmissibleInput("--jobs must be at least 1")
    inst = build_predicate(args)
    seed = args.seed if args.seed is not None else default_seed()
    base = args.trials // args.jobs
    chunks = [
        (vars(args), base + (1 if j < args.trials % args.jobs else 0), seed + 1_000_003 * j)
        for j in range(args.jobs)
    ]
    chunks = [c for c in chunks if c[1] > 0]
    workers = min(args.jobs, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        successes = sum(_simulate_chunk(c) for c in chunks)
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=workers) as pool:
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
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InadmissibleInput(f"{path}:{line_no}: expected 'x,y'")
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
    emax = compute_emax(flat, [delta] * len(flat))
    evals = []

    def hull_algo(y, L, K):
        grouped = [(y[i], y[i + 1]) for i in range(0, len(y), 2)]
        counter = EvalCounter()
        out = guarded_convex_hull(grouped, L, K, emax, counter)
        evals.append(counter.evaluations)
        return out

    seed = args.seed if args.seed is not None else default_seed()
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
    stats.eval_counts = evals
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


class _Parser(argparse.ArgumentParser):
    """No option name starts with a digit or a dot, so every token
    -<digit>... or -.<digit>... is a value: a negative number such as -1/8
    or -.5, or a --terms entry -1:1,1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cperturb", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    # the predicate flags analyze and simulate share
    pred = argparse.ArgumentParser(add_help=False)
    pred.add_argument("--predicate", default="univariate")
    pred.add_argument("--predicate-file", dest="predicate_file",
                      help="prefix-format polynomial expression file")
    pred.add_argument("--delta", nargs="*", help="perturbation parameters")
    pred.add_argument("--emax", type=int, default=None)
    pred.add_argument("--t", default="1/2")
    pred.add_argument("--degree", type=int)
    pred.add_argument("--coeffs", nargs="*", help="a_0 .. a_d for univariate")
    pred.add_argument("--terms", nargs="*", action="extend",
                      help="coeff:e1,e2,... for multivariate; repeats accumulate")
    pred.add_argument("--xbar", nargs="*", help="analysis-coordinate centers")
    pred.add_argument("--corner-u", nargs=2, dest="corner_u")
    pred.add_argument("--corner-v", nargs=2, dest="corner_v")
    pred.add_argument("--center", nargs=2)
    pred.add_argument("--radius")

    pa = sub.add_parser("analyze", parents=[pred], help="precision/probability analysis")
    pa.add_argument("--algorithm", help="analyze a whole algorithm (hull)")
    pa.add_argument("--p", required=True, help="target success probability")
    pa.add_argument("--n", type=int, help="input size for --algorithm")
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

    ps = sub.add_parser("simulate", parents=[pred],
                        help="Monte Carlo success-rate estimation")
    ps.add_argument("--L", type=int, required=True)
    ps.add_argument("--K", type=int, required=True)
    ps.add_argument("--trials", type=int, required=True)
    ps.add_argument("--seed", type=int, default=None)
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
    except (InadmissibleInput, EmptyGrid) as exc:
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
