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
  and the exponent requirement K_f = _k_requirement(L_f) from the rational
  constant phi_sup.

With an empty critical set (nu identically zero) the first four steps are
skipped: phi is the constant bound and no grid constraint is generated.

Everything is computed in exact rational arithmetic; the few genuinely
irrational values (k-th roots, pi) travel as rational enclosures that are
refined until every integer output of steps 2-6 is decided.  K_f needs no
refinement: its inputs are rational.  probability inverts the same
conditions, and p_sup is K >= _k_requirement(L).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .bounds import (
    BoundSet,
    ConstLine,
    InadmissibleInput,
    NotAnalyzable,
    PredicateDescription,
    Sym,
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
    lo, hi = lgrid((min_gamma.lo,), t, emax), lgrid((min_gamma.hi,), t, emax)
    if lo != hi:
        raise PrecisionExhausted("grid exponent undecided")
    return lo


@dataclass(frozen=True)
class ArithmeticRequirement:
    """(L_f(p), K_f(p)) plus the per-step intermediates."""

    p: Fraction
    route: str  # 'nu' | 'chi' | 'empty'
    eps: Optional[Fraction]
    gamma: Optional[tuple[Fraction, ...]]
    t_gamma: Optional[tuple[Fraction, ...]]
    phi: Fraction
    L_safe: int
    L_grid: int
    L_f: int
    K_f: int
    exact: bool  # every intermediate was rational

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


def _line_lambda(bounds: BoundSet, eps: Fraction, bits: int) -> RVal:
    """Step 2: the Gamma-line parameter for the volume budget eps."""
    if bounds.region_line is None:
        raise NotAnalyzable("region bound has no invertible line form")
    if bounds.kind == "nu":
        top = bounds.region_line.value(Fraction(1), bits)
        if top.hi < eps:
            raise BudgetTooLarge(f"eps={eps} exceeds nu(gamma_hat)={top.hi}")
    lam = bounds.region_line.inverse(eps, bits)
    if lam.lo > 1:
        raise BudgetTooLarge("budget puts gamma beyond the Gamma-line")
    if lam.hi > 1:
        lam = RVal(lam.lo, Fraction(1))
    if lam.hi <= 0:
        raise BudgetTooLarge("budget leaves no room for a region")
    if lam.lo <= 0:  # lambda > 0, but this enclosure cannot show it yet
        raise PrecisionExhausted("Gamma-line parameter undecided at zero")
    return lam


def _empty_phi(bounds: BoundSet) -> Sym:
    """The constant phi of an empty critical set, where nu never vanishes."""
    if not isinstance(bounds.phi_inf_line, ConstLine):
        raise NotAnalyzable("empty critical set needs a constant phi")
    return bounds.phi_inf_line.c


def quantified_relations(
    desc: PredicateDescription, bounds: BoundSet, p: Exact
) -> ArithmeticRequirement:
    """Derive the arithmetic requirement (L_f(p), K_f(p)) with full trace."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise InadmissibleInput("p must lie in (0,1)")
    t = desc.t

    if bounds.kind == "empty":
        phi_sym = _empty_phi(bounds)
        if not phi_sym.is_rational:
            raise NotAnalyzable("irrational constant phi")
        phi = phi_sym.rat
        L_f = bounds.s_inf_inverse_L(phi)
        K_f = _k_requirement(desc, bounds, L_f)
        return ArithmeticRequirement(p, "empty", None, None, None, phi, L_f, 0, L_f, K_f, True)

    # Step 1 (nu) or 1' (chi)
    eps = (1 - p) * bounds.mu_u if bounds.kind == "nu" else p * bounds.mu_u

    def compute(bits: int):
        lam = _line_lambda(bounds, eps, bits)
        phi = bounds.phi_inf_line.value(RVal(t) * lam, bits)
        s_arg = RVal(bounds.s_inf_coeff) / phi
        return lam, phi, s_arg, lam * RVal(min(bounds.gamma_hat))

    def extract(state):
        lam, phi, s_arg, min_gamma = state
        L_safe = max(1, ceil_log2_rval(s_arg))
        return lam, phi, L_safe, _lgrid_rval(min_gamma, t, desc.emax)

    lam, phi, L_safe, L_grid = refine(compute, extract)
    L_f = max(L_safe, L_grid)
    lam_mid = _mid(lam)
    gamma = tuple(lam_mid * g for g in bounds.gamma_hat)
    return ArithmeticRequirement(
        p=p,
        route=bounds.kind,
        eps=eps,
        gamma=gamma,
        t_gamma=tuple(t * v for v in gamma),
        phi=_mid(phi),
        L_safe=L_safe,
        L_grid=L_grid,
        L_f=L_f,
        K_f=_k_requirement(desc, bounds, L_f),
        exact=lam.exact is not None and phi.exact is not None,
    )


def _k_requirement(desc: PredicateDescription, bounds: BoundSet, L: int) -> int:
    """Smallest K >= 2 supporting precision L: the upper fp-safety condition
    2^(2^(K-1)) >= phi_sup + S_inf(L), the grid constraint emax + 1 < 2^(K-1),
    and freedom from inexact underflow for the expression's value quantum."""
    if bounds.phi_sup is None:
        raise NotAnalyzable("no phi_sup bound for the exponent requirement")
    # need 2^(K-1) >= e_req
    e_req = max(ceil_log2(bounds.phi_sup + bounds.s_inf(L)), desc.emax + 2)
    try:
        q_min = value_quantum(desc.expr, desc.emax, L)
        e_req = max(e_req, 1 - L - q_min)  # no inexact underflow at precision L
    except UnsupportedNode:
        pass  # rational predicates compose per-component requirements
    return 2 if e_req <= 2 else 1 + ceil_log2(e_req)


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
        phi_const = _empty_phi(bounds)
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
    clamped.append("p_sup")
    p_sup = Fraction(1) if K >= _k_requirement(desc, bounds, L) else Fraction(0)
    return ProbabilityReport(p_inf, p_sup, p_grid, tuple(clamped))
