"""Concrete guarded predicates and the guarded convex hull.

Input slot conventions:

  orientation2d: (p_x, p_y, q_x, q_y, r_x, r_y)
  in_box:        (u_x, u_y, v_x, v_y, q_x, q_y), query analyzed, box fixed
  in_circle:     (c_x, c_y, r, q_x, q_y), query analyzed, circle fixed
  rational:      (x_0, x_1) for x_0 / x_1

Degeneracies are never special-cased: an exact zero cannot be certified, the
guard fails, and the perturbation loop retries.  That is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence, Union

from .bounds import (
    BoundSet,
    InadmissibleInput,
    NotAnalyzable,
    PredicateDescription,
    bounds_inbox_direct,
    bounds_incircle_direct,
    bounds_multivariate,
    bounds_univariate,
    choose_beta,
)
from .errorbounds import RangeErrorVerdict, SignCertified, _on_one_exponent, guarded_eval
from .expr import (
    Add, Div, Expr, Input, Max, Mul, NotPolynomial, Sub, expand_polynomial, polynomial_expr,
)
from .softfloat import SoftFloat

Exact = Union[int, Fraction]


def orientation2d_expr() -> Expr:
    """(q_x - p_x)(r_y - p_y) - (q_y - p_y)(r_x - p_x)."""
    px, py, qx, qy, rx, ry = (Input(i) for i in range(6))
    return Sub(
        Mul(Sub(qx, px), Sub(ry, py)),
        Mul(Sub(qy, py), Sub(rx, px)),
    )


def inbox_expr() -> Expr:
    """max{(q_x-u_x)(q_x-v_x), (q_y-u_y)(q_y-v_y)}: negative inside the box."""
    ux, uy, vx, vy, qx, qy = (Input(i) for i in range(6))
    return Max(
        Mul(Sub(qx, ux), Sub(qx, vx)),
        Mul(Sub(qy, uy), Sub(qy, vy)),
    )


def incircle_expr() -> Expr:
    """(q_x-c_x)^2 + (q_y-c_y)^2 - r^2: negative inside the circle."""
    cx, cy, r, qx, qy = (Input(i) for i in range(5))
    dx, dy = Sub(qx, cx), Sub(qy, cy)
    return Sub(Add(Mul(dx, dx), Mul(dy, dy)), Mul(r, r))


def rational_expr() -> Expr:
    """x_0 / x_1: the minimal pole-bearing predicate."""
    return Div(Input(0), Input(1))


# built once: the guard, its quanta and the expansion are memoized on each
# instance, so every predicate and hull built on one shares them
_ORIENTATION2D, _INBOX, _INCIRCLE = orientation2d_expr(), inbox_expr(), incircle_expr()


@dataclass(frozen=True)
class PredicateInstance:
    """A named predicate wired to its description and bound set."""

    name: str
    expr: Expr
    desc: PredicateDescription
    bounds: BoundSet
    # analytic critical set inside the analysis coordinates, used by tests:
    # for each analysis point, distance to the critical set
    critical_distance: Optional[Callable[[Sequence[Fraction]], Fraction]] = None
    # exact values for the input slots that are instance data, not perturbed
    fixed: dict = None

    def assemble(self, analysis_values: Sequence[Exact]) -> tuple[Fraction, ...]:
        """Full input tuple from values for the analysis coordinates."""
        vals = [Fraction(v) for v in analysis_values]
        if len(vals) != self.desc.n_analysis:
            raise ValueError("one value per analysis coordinate expected")
        out: list[Optional[Fraction]] = [None] * self.desc.k
        for slot, v in (self.fixed or {}).items():
            out[slot] = Fraction(v)
        for slot, v in zip(self.desc.analysis_indices, vals):
            out[slot] = v
        if any(v is None for v in out):
            raise ValueError("unfilled input slot")
        return tuple(out)

    def guarded(self, x: Sequence[Union[SoftFloat, Exact]], L: int, K: int):
        return guarded_eval(self.expr, x, L, K, self.desc.emax)


def _description(expr: Expr, k: int, centers: Sequence[Exact], deltas: Sequence[Exact], t: Exact,
                 emax: int | None, fixed: Sequence[Exact] = ()) -> PredicateDescription:
    """expr's k inputs: the fixed data, then the analysis coordinates, each
    perturbed about its centre by its delta.  emax is by default the least
    e' >= 0 with |v| + delta <= 2^e' over the centres and, at the centres'
    delta, the fixed data; an explicit emax must hold every guard input, each
    centre +- its delta and each fixed value, or raises InadmissibleInput."""
    from .grid import compute_emax

    if emax is None:
        emax = compute_emax([*centers, *fixed], [*deltas, *[deltas[0]] * len(fixed)])
    elif emax < (need := compute_emax([*centers, *fixed], [*deltas, *[0] * len(fixed)])):
        raise InadmissibleInput(f"emax = {emax} is below {need}, the least that holds every centre +- delta "
                                "and fixed value")
    return PredicateDescription(expr=expr, k=k, delta=tuple(deltas), emax=emax, t=t,
                                analysis_indices=tuple(range(len(fixed), k)), a_box=tuple((c, c) for c in centers))


def make_univariate(
    coeffs: Sequence[Exact],
    center: Exact = 0,
    delta: Exact = 1,
    t: Exact = Fraction(1, 2),
    roots: Sequence[Exact] = (),
    emax: int | None = None,
) -> PredicateInstance:
    """Univariate polynomial over one perturbed coordinate."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    expr = polynomial_expr({(i,): c for i, c in enumerate(coeffs)})
    desc = _description(expr, 1, [Fraction(center)], [Fraction(delta)], Fraction(t), emax)
    desc, bs = bounds_univariate(coeffs, desc)
    rts = tuple(Fraction(r) for r in roots)
    crit = (lambda x: min(abs(Fraction(x[0]) - r) for r in rts)) if rts else None
    return PredicateInstance("univariate", expr, desc, bs, crit, fixed={})


def make_polynomial(
    expr: Expr,
    k: int,
    centers: Sequence[Exact],
    deltas: Sequence[Exact],
    t: Exact = Fraction(1, 2),
    emax: int | None = None,
    name: str = "polynomial",
) -> PredicateInstance:
    """A polynomial predicate with all k inputs perturbed and analyzed.

    The expression is expanded, which drops zero and cancelled terms; phi
    and chi come from the chosen maximal exponent tuple beta.  A zero or
    constant polynomial has no sign change to analyze.
    """
    try:
        terms = expand_polynomial(expr, k)
    except NotPolynomial as exc:
        raise NotAnalyzable(f"not a polynomial expression: {exc}") from exc
    if not any(any(key) for key in terms):
        raise NotAnalyzable("the zero or a constant polynomial has no sign change to analyze")
    desc = _description(expr, k, centers, deltas, t, emax)
    desc, bs = bounds_multivariate(set(terms), terms, choose_beta(set(terms), k), desc)
    return PredicateInstance(name, expr, desc, bs, None, fixed={})


def make_orientation2d(
    centers: Sequence[Sequence[Exact]],
    delta: Exact = 1,
    t: Exact = Fraction(1, 2),
    emax: int | None = None,
) -> PredicateInstance:
    """orientation2d with all six coordinates perturbed (cubical deltas)."""
    flat = [Fraction(c) for pt in centers for c in pt]
    if len(flat) != 6:
        raise ValueError("three planar points expected")
    return make_polynomial(_ORIENTATION2D, 6, flat, [delta] * 6, t, emax, "orientation2d")


def make_inbox(
    u: Sequence[Exact],
    v: Sequence[Exact],
    qbar: Sequence[Exact],
    delta: Exact = Fraction(1, 2),
    t: Exact = Fraction(1, 2),
    emax: int | None = None,
) -> PredicateInstance:
    """in_box with the query point perturbed; u, v are exact instance data."""
    u = tuple(Fraction(c) for c in u)
    v = tuple(Fraction(c) for c in v)
    qbar = tuple(Fraction(c) for c in qbar)
    delta = Fraction(delta)
    desc = _description(_INBOX, 6, qbar, (delta, delta), Fraction(t), emax, u + v)
    desc, bs = bounds_inbox_direct(desc, (v[0] - u[0], v[1] - u[1]))

    def crit(q: Sequence[Fraction]) -> Fraction:
        # componentwise distance to the box boundary's coordinate lines
        qx, qy = (Fraction(c) for c in q)
        return min(abs(qx - u[0]), abs(qx - v[0]), abs(qy - u[1]), abs(qy - v[1]))

    return PredicateInstance("in_box", _INBOX, desc, bs, crit,
                             fixed={0: u[0], 1: u[1], 2: v[0], 3: v[1]})


def make_incircle(
    c: Sequence[Exact],
    r: Exact,
    qbar: Sequence[Exact],
    delta: Exact = Fraction(1, 2),
    t: Exact = Fraction(1, 2),
    emax: int | None = None,
) -> PredicateInstance:
    """in_circle with the query point perturbed; center and radius exact."""
    c = tuple(Fraction(v) for v in c)
    r = Fraction(r)
    qbar = tuple(Fraction(v) for v in qbar)
    delta = Fraction(delta)
    desc = _description(_INCIRCLE, 5, qbar, (delta, delta), Fraction(t), emax, (*c, r))
    desc, bs = bounds_incircle_direct(desc, r)

    def crit(q: Sequence[Fraction]) -> Fraction:
        # exact |dist(q, center) - r| is irrational; bound it from below by
        # |d^2 - r^2| / (d + r) with d^2 exact
        qx, qy = (Fraction(v) for v in q)
        d2 = (qx - c[0]) ** 2 + (qy - c[1]) ** 2
        from .reals import RVal, nth_root

        d = nth_root(RVal(d2), 2, 64)
        return abs(d2 - r * r) / (d.hi + r)

    return PredicateInstance("in_circle", _INCIRCLE, desc, bs, crit,
                             fixed={0: c[0], 1: c[1], 2: r})


# --- guarded convex hull -------------------------------------------------------


Outcome = tuple  # ('success', payload) | ('guard_failure', None) | ('range_error', None)


@dataclass
class EvalCounter:
    evaluations: int = 0


def guarded_convex_hull(
    points: Sequence[tuple[Union[SoftFloat, Exact], Union[SoftFloat, Exact]]],
    L: int,
    K: int,
    emax: int,
    counter: Optional[EvalCounter] = None,
) -> Outcome:
    """Monotone-chain hull over guarded orientation tests only.

    Returns ('success', indices) with the CCW hull (first vertex = smallest
    point in xy-order), or the failure kind of the first unguarded test.
    Every coordinate must lie in F_{L,K} and in [-2^emax, 2^emax], checked
    once per call (InadmissibleInput otherwise).  Each becomes once an
    integer on the exponent q0 of the lowest set bit of any coordinate (on a
    grid, mostly the grid index), with exactly the order and ties of the
    values: the sort keys, so coincident points merge exactly (the first
    index kept), and the inputs of every orientation test, in integer mode.
    """
    if len(points) < 3:
        return ("guard_failure", None)
    scaled, q0 = _on_one_exponent([c for pt in points for c in pt], L, K, emax)
    pts = list(zip(scaled[0::2], scaled[1::2]))
    dedup: list[int] = []
    for i in sorted(range(len(pts)), key=pts.__getitem__):
        if not dedup or pts[i] != pts[dedup[-1]]:
            dedup.append(i)
    if len(dedup) < 3:
        return ("guard_failure", None)
    tests = 0

    def build(seq):
        nonlocal tests
        chain: list[int] = []
        for i in seq:
            p = pts[i]
            while len(chain) >= 2:
                tests += 1
                verdict = guarded_eval(_ORIENTATION2D, pts[chain[-2]] + pts[chain[-1]] + p, L, K, emax, q0)
                if verdict.__class__ is not SignCertified:
                    return ("range_error" if verdict.__class__ is RangeErrorVerdict else "guard_failure", None)
                if verdict.sign > 0:  # strict left turn: keep
                    break
                chain.pop()
            chain.append(i)
        return ("success", chain)

    lower = build(dedup)
    upper = build(reversed(dedup)) if lower[0] == "success" else lower
    if counter is not None:
        counter.evaluations += tests
    if upper[0] != "success":
        return upper
    return ("success", lower[1][:-1] + upper[1][:-1])


def exact_convex_hull(points: Sequence[tuple[Exact, Exact]]) -> list[int]:
    """Exact monotone chain: the oracle the guarded hull must match.

    Every coordinate is scaled to the common denominator of all of them, so
    the sort, the merging of coincident points and the cross products run
    on integers.
    """
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for pt in points for v in pt]
    den = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    pts = list(zip(ints[0::2], ints[1::2]))
    n = len(pts)
    keyed = sorted(range(n), key=pts.__getitem__)
    dedup: list[int] = []
    for i in keyed:
        if dedup and pts[i] == pts[dedup[-1]]:
            continue
        dedup.append(i)
    if len(dedup) < 3:
        raise ValueError("hull oracle needs three distinct points")

    def cross(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = pts[o], pts[a], pts[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    def build(seq):
        chain: list[int] = []
        for i in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], i) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(dedup)
    upper = build(reversed(dedup))
    return lower[:-1] + upper[:-1]


def canonical_cycle(indices: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic index sequence to start at its smallest element."""
    if not indices:
        return ()
    k = min(range(len(indices)), key=lambda i: indices[i])
    return tuple(indices[k:]) + tuple(indices[:k])
