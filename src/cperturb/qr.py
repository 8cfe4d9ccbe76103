"""The method of quantified relations and its probability-side inverses.

From a predicate description and its bound set, derive for a target success
probability p:

  Step 1   eps = (1-p) * mu(U)          (volume budget for the region), or
  Step 1'  eps = p * mu(U)              (budget for its complement),
  Step 2   gamma = region_inverse(eps)  (on the Gamma-line),
  Step 3   shrink by t (the augmentation factor's inverse),
  Step 4   phi = phi_inf(t * gamma)     (guaranteed |f| outside the region),
  Step 5   L_safe = ceil(S_inf^-1(phi)),
  Step 6   L_grid from the grid unit condition, L_f = max(L_safe, L_grid),
  and the exponent requirement K_f from the upper fp-safety bound.

With an empty critical set (nu identically zero) the first four steps are
skipped: phi is the constant bound and no grid constraint is generated.

Everything is computed in exact rational arithmetic; the few genuinely
irrational values (k-th roots, pi) travel as rational enclosures that are
refined until every integer output is decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .bounds import (
    BoundSet,
    ConstLine,
    NotAnalyzable,
    PredicateDescription,
)
from .errorbounds import UnsupportedNode, value_quantum
from .reals import (
    PrecisionExhausted,
    RVal,
    ceil_log2,
    ceil_log2_rval,
    floor_log2,
    refine,
)

Exact = Union[int, Fraction]


class BudgetTooLarge(ValueError):
    """The volume budget exceeds what the Gamma-line can absorb."""


def lgrid(gamma: Sequence[Exact], t: Exact, emax: int) -> int:
    """emax - 1 - floor(log2(min(t, 1-t) * min_i gamma_i)), exactly."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError("t must lie in (0,1)")
    g = min(Fraction(v) for v in gamma)
    if g <= 0:
        raise ValueError("gamma components must be positive")
    return emax - 1 - floor_log2(min(t, 1 - t) * g)


def _lgrid_rval(min_gamma: RVal, t: Fraction, emax: int) -> int:
    scaled = RVal(min(t, 1 - t)) * min_gamma
    lo, hi = floor_log2(scaled.lo), floor_log2(scaled.hi)
    if lo != hi:
        raise PrecisionExhausted("grid exponent undecided")
    return emax - 1 - lo


@dataclass(frozen=True)
class ArithmeticRequirement:
    """(L_f(p), K_f(p)) plus the per-step intermediates."""

    p: Fraction
    route: str  # 'nu' | 'chi' | 'empty'
    eps: Optional[Fraction]
    lam: Optional[Fraction]  # lambda on the Gamma-line (enclosure midpoint)
    gamma: Optional[tuple[Fraction, ...]]
    t_gamma: Optional[tuple[Fraction, ...]]
    phi: Fraction
    L_safe: int
    L_grid: int
    L_f: int
    K_f: int
    exact: bool  # every intermediate was rational
    trace: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def exact_fmt(v):
            if v is None:
                return None
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        def value_fmt(v):
            if v is None:
                return None
            if isinstance(v, tuple):
                return [value_fmt(x) for x in v]
            if self.exact:
                return exact_fmt(v)
            # enclosure midpoint of an irrational intermediate
            scaled = (abs(v).numerator * 10**18) // abs(v).denominator
            whole, frac = divmod(scaled, 10**18)
            return f"~{'-' if v < 0 else ''}{whole}.{frac:018d}"

        return {
            "p": exact_fmt(self.p),
            "eps_nu": exact_fmt(self.eps) if self.eps is not None else None,
            "gamma": value_fmt(self.gamma),
            "t_gamma": value_fmt(self.t_gamma),
            "phi": value_fmt(self.phi),
            "L_safe": self.L_safe,
            "L_grid": self.L_grid,
            "L_f": self.L_f,
            "K_f": self.K_f,
            "route": self.route,
            "exact": self.exact,
        }


def _mid(v: RVal) -> Fraction:
    return (v.lo + v.hi) / 2


def _line_lambda(desc: PredicateDescription, bounds: BoundSet, p: Fraction, bits: int) -> RVal:
    """Steps 1-2: the Gamma-line parameter from the volume budget."""
    if bounds.region_line is None:
        raise NotAnalyzable("region bound has no invertible line form")
    mu = bounds.mu_u
    if bounds.kind == "nu":
        eps = (1 - p) * mu
        top = bounds.region_line.value(Fraction(1), bits)
        if top.hi < eps:
            raise BudgetTooLarge(f"eps={eps} exceeds nu(gamma_hat)={top.hi}")
        lam = bounds.region_line.inverse(eps, bits)
    else:
        eps = p * mu
        lam = bounds.region_line.inverse(eps, bits)
    if lam.lo > 1:
        raise BudgetTooLarge("budget puts gamma beyond the Gamma-line")
    if lam.hi > 1:
        lam = RVal(lam.lo, Fraction(1))
    if lam.hi <= 0:
        raise BudgetTooLarge("budget leaves no room for a region")
    return lam


def _budget(desc: PredicateDescription, bounds: BoundSet, p: Fraction) -> Fraction:
    return (1 - p) * bounds.mu_u if bounds.kind == "nu" else p * bounds.mu_u


def quantified_relations(
    desc: PredicateDescription, bounds: BoundSet, p: Exact
) -> ArithmeticRequirement:
    """Derive the arithmetic requirement (L_f(p), K_f(p)) with full trace."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie in (0,1)")
    t = desc.t

    if bounds.kind == "empty":
        if not isinstance(bounds.phi_inf_line, ConstLine):
            raise NotAnalyzable("empty critical set needs a constant phi")
        phi_sym = bounds.phi_inf_line.c
        if not phi_sym.is_rational:
            raise NotAnalyzable("irrational constant phi")
        phi = phi_sym.rat
        L_safe = bounds.s_inf_inverse_L(phi)
        L_f = L_safe
        K_f = _k_requirement(desc, bounds, None, L_f, 128)
        return ArithmeticRequirement(
            p, "empty", None, None, None, None, phi, L_safe, 0, L_f, K_f, True
        )

    def compute(bits: int):
        lam = _line_lambda(desc, bounds, p, bits)
        t_lam = RVal(t) * lam
        phi = bounds.phi_inf_line.value(t_lam, bits)
        s_arg = RVal(bounds.s_inf_coeff) / phi
        min_gamma = lam * RVal(min(bounds.gamma_hat))
        return bits, lam, t_lam, phi, s_arg, min_gamma

    def extract(state):
        bits, lam, t_lam, phi, s_arg, min_gamma = state
        L_safe = max(1, ceil_log2_rval(s_arg))
        L_grid = _lgrid_rval(min_gamma, t, desc.emax)
        L_f = max(L_safe, L_grid)
        K_f = _k_requirement(desc, bounds, t_lam, L_f, bits)
        exact = lam.exact is not None and phi.exact is not None
        lam_mid = _mid(lam)
        gamma = tuple(lam_mid * g for g in bounds.gamma_hat)
        return ArithmeticRequirement(
            p=p,
            route=bounds.kind,
            eps=_budget(desc, bounds, p),
            lam=lam_mid,
            gamma=gamma,
            t_gamma=tuple(t * v for v in gamma),
            phi=_mid(phi),
            L_safe=L_safe,
            L_grid=L_grid,
            L_f=L_f,
            K_f=K_f,
            exact=exact,
        )

    return refine(compute, extract)


def _k_requirement(
    desc: PredicateDescription,
    bounds: BoundSet,
    t_lam: Optional[RVal],
    L: int,
    bits: int,
) -> int:
    """Smallest K supporting precision L: the upper fp-safety condition
    2^(2^(K-1)) >= phi_sup + S_inf(L), the grid constraint emax + 1 < 2^(K-1),
    and freedom from inexact underflow for the expression's value quantum."""
    if bounds.phi_sup_line is None:
        raise NotAnalyzable("no phi_sup bound for the exponent requirement")
    if isinstance(bounds.phi_sup_line, ConstLine):
        phi_sup = bounds.phi_sup_line.c.to_rval(bits)
    else:
        if t_lam is None:
            raise NotAnalyzable("gamma-dependent phi_sup with no gamma")
        phi_sup = bounds.phi_sup_line.value(t_lam, bits)
    need = phi_sup + RVal(bounds.s_inf(L))
    e_req = ceil_log2_rval(need)  # need 2^(K-1) >= e_req
    e_req = max(e_req, desc.emax + 2)  # grid: emax + 1 < 2^(K-1)
    try:
        q_min = value_quantum(desc.expr, desc.emax, L)
        e_req = max(e_req, 1 - L - q_min)  # no inexact underflow at precision L
    except UnsupportedNode:
        pass  # rational predicates compose per-component requirements
    K = 2 if e_req <= 2 else 1 + ceil_log2(e_req)
    return max(2, K)


def exponent_requirement(
    desc: PredicateDescription, bounds: BoundSet, p: Exact, L: Optional[int] = None
) -> int:
    """K_f(p): the exponent width matching the precision choice at p."""
    p = Fraction(p)
    if L is None:
        L = quantified_relations(desc, bounds, p).L_f
    if bounds.kind == "empty":
        return _k_requirement(desc, bounds, None, L, 128)

    def compute(bits: int):
        lam = _line_lambda(desc, bounds, p, bits)
        return RVal(desc.t) * lam, bits

    def extract(state):
        t_lam, bits = state
        return _k_requirement(desc, bounds, t_lam, L, bits)

    return refine(compute, extract)


@dataclass(frozen=True)
class ProbabilityReport:
    """p_f(L, K) = min(p_inf(L), p_sup(K), p_grid(L)); lower bounds where the
    closed forms are irrational, exact rationals otherwise."""

    p_inf: Fraction
    p_sup: Fraction
    p_grid: Fraction
    clamped: tuple[str, ...] = ()

    @property
    def p_f(self) -> Fraction:
        return min(self.p_inf, self.p_sup, self.p_grid)


_PROB_BITS = 192


def _region_share(bounds: BoundSet, lam: RVal, bits: int) -> RVal:
    """The success probability at line position lam: the share of the A-box
    outside the region (kind nu), or the region's share (kind mu)."""
    if bounds.region_line is None:
        raise NotAnalyzable("region bound has no invertible line form")
    region = bounds.region_line.value(lam, bits)
    if bounds.kind == "nu":
        return RVal(1) - region / RVal(bounds.mu_u)
    return region / RVal(bounds.mu_u)


def probability(
    desc: PredicateDescription, bounds: BoundSet, L: int, K: int
) -> ProbabilityReport:
    """Invert the analysis: success probability guaranteed by (L, K)."""
    clamped: list[str] = []
    bits = _PROB_BITS

    def prob_from_lambda(lam: RVal, tag: str) -> Fraction:
        # probability that a random point avoids the region at line position lam;
        # beyond the line end (lam > 1) the region bound gives no guarantee
        if lam.hi > 1:
            clamped.append(tag)
            return Fraction(0)
        p = _region_share(bounds, lam, bits)
        if p.lo < 0:
            clamped.append(tag)
            return Fraction(0)
        return min(p.lo, Fraction(1))

    if bounds.kind == "empty":
        phi_const = bounds.phi_inf_line.c
        p_inf = Fraction(1) if RVal(bounds.s_inf(L)).hi < phi_const.to_rval(bits).lo else Fraction(0)
        clamped.append("p_inf")
        p_grid = Fraction(1)
        clamped.append("p_grid")
    else:
        s = bounds.s_inf(L)
        try:
            lam_phi = bounds.phi_inf_line.inverse(s, bits)
            p_inf = prob_from_lambda(lam_phi / RVal(desc.t), "p_inf")
        except (NotAnalyzable, ValueError):
            p_inf = Fraction(0)
            clamped.append("p_inf")
        tau_req = Fraction(2) ** (desc.emax - L - 1) / min(desc.t, 1 - desc.t)
        lam_grid = RVal(tau_req) / RVal(min(bounds.gamma_hat))
        p_grid = prob_from_lambda(lam_grid, "p_grid")

    # upper side: range safety at exponent width K
    p_sup = _p_sup(desc, bounds, L, K, bits, clamped)
    return ProbabilityReport(p_inf, p_sup, p_grid, tuple(clamped))


def _p_sup(
    desc: PredicateDescription,
    bounds: BoundSet,
    L: int,
    K: int,
    bits: int,
    clamped: list,
) -> Fraction:
    if bounds.phi_sup_line is None:
        raise NotAnalyzable("no phi_sup bound")
    # bottom/grid constraints first: K too small means no guarantee at all
    e_have = 1 << (K - 1)
    if desc.emax + 2 > e_have:
        clamped.append("p_sup")
        return Fraction(0)
    try:
        q_min = value_quantum(desc.expr, desc.emax, L)
        if 1 - L - q_min > e_have:
            clamped.append("p_sup")
            return Fraction(0)
    except UnsupportedNode:
        pass
    s_inf = bounds.s_inf(L)
    if isinstance(bounds.phi_sup_line, ConstLine):
        c = bounds.phi_sup_line.c.to_rval(bits)
        # S_sup(K) >= phi_sup  <=>  2^(K-1) >= log2(phi_sup + S_inf)
        ok = e_have >= ceil_log2_rval(c + RVal(s_inf))
        clamped.append("p_sup")
        return Fraction(1) if ok else Fraction(0)
    # increasing phi_sup: invert like p_inf
    e_cap = Fraction(2) ** e_have - s_inf
    lam = bounds.phi_sup_line.inverse(e_cap, bits) / RVal(desc.t)
    if lam.lo >= 1:
        clamped.append("p_sup")
        return Fraction(1)
    p = _region_share(bounds, RVal(max(lam.lo, 0), max(lam.hi, 0)), bits)
    return max(Fraction(0), min(p.lo, Fraction(1)))
