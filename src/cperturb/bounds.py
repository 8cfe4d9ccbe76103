"""Region/value/safety bounding functions and the calculation rules.

A BoundSet packages, for one predicate description, the invertible bounding
functions the quantified-relations method consumes:

  * a region bound: nu (volume of the region of uncertainty) or its
    complement chi, as a closed form on the Gamma-line gamma = lambda*gamma_hat,
  * a lower value bound phi_inf and, where range analysis applies, an upper
    bound phi_sup on |f| outside the region of uncertainty,
  * a lower fp-safety bound S_inf(L) = coeff * 2^-L with its exact inverse,
    and the upper bound S_sup(K) = 2^(2^(K-1)) - S_inf(L).

Closed forms are stored as symbolic records (rational coefficient, optional
pi factor, exponents), never as opaque callables, so their inverses are exact
where the inputs are rational and tight rational enclosures otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

from .exact import Exact
# benchmarks/tracing.py wraps expand_polynomial under this module's name
from .expr import Expr, expand_polynomial  # noqa: F401
from .reals import RVal, ceil_log2, nth_root, nth_root_exact, pi_enclosure
from .errorbounds import safety_lower_multivariate, safety_lower_univariate
from .grid import InadmissibleInput, compute_emax


class NotAnalyzable(ValueError):
    """A bound required by the analysis is missing or not invertible."""


class GammaTooLarge(ValueError):
    """gamma violates a positivity precondition of a closed form."""


class ArityTooLarge(NotAnalyzable):
    """select_beta is capped at k = 8 variables."""


class IndexSplitInvalid(ValueError):
    """Product/min/max rule indices do not satisfy 0 <= j <= l <= k."""


# --- symbolic scalars (rational times an optional power of pi) --------------


@dataclass(frozen=True)
class Sym:
    rat: Fraction
    pi_pow: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rat", Fraction(self.rat))

    def __mul__(self, other):
        o = _sym(other)
        return Sym(self.rat * o.rat, self.pi_pow + o.pi_pow)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _sym(other)
        return Sym(self.rat / o.rat, self.pi_pow - o.pi_pow)

    def __rtruediv__(self, other):
        return _sym(other) / self

    def to_rval(self, bits: int) -> RVal:
        v = RVal(self.rat)
        if self.pi_pow:
            v = v * pi_enclosure(bits) ** self.pi_pow
        return v

    @property
    def is_rational(self) -> bool:
        return self.pi_pow == 0


def _sym(x) -> Sym:
    if isinstance(x, Sym):
        return x
    return Sym(Fraction(x))


Real = Union[int, Fraction, RVal]


def _rv(x: Real, bits: int) -> RVal:
    if isinstance(x, RVal):
        return x
    if isinstance(x, Sym):
        return x.to_rval(bits)
    return RVal(Fraction(x))


# --- closed-form functions of lambda on the Gamma-line ----------------------


@dataclass(frozen=True)
class PowerLine:
    """f(lambda) = c * lambda^m, increasing (m >= 1)."""

    c: Sym
    m: int

    monotone = "inc"

    def value(self, lam: Real, bits: int) -> RVal:
        return self.c.to_rval(bits) * _rv(lam, bits) ** self.m

    def inverse(self, v: Real, bits: int) -> RVal:
        base = _rv(v, bits) / self.c.to_rval(bits)
        if self.m == 1:
            return base
        return nth_root(base, self.m, bits)

    def scaled(self, s) -> "PowerLine":
        return PowerLine(self.c * _sym(s), self.m)


@dataclass(frozen=True)
class AffinePowLine:
    """f(lambda) = c * (a - b*lambda)^m, decreasing on [0, a/b)."""

    c: Sym
    a: Fraction
    b: Fraction
    m: int

    monotone = "dec"

    def value(self, lam: Real, bits: int) -> RVal:
        base = RVal(self.a) - RVal(self.b) * _rv(lam, bits)
        if base.lo < 0:
            raise GammaTooLarge("affine factor went nonpositive")
        return self.c.to_rval(bits) * base ** self.m

    def inverse(self, v: Real, bits: int) -> RVal:
        base = _rv(v, bits) / self.c.to_rval(bits)
        root = nth_root(base, self.m, bits) if self.m > 1 else base
        return (RVal(self.a) - root) / RVal(self.b)

    def scaled(self, s) -> "AffinePowLine":
        return AffinePowLine(self.c * _sym(s), self.a, self.b, self.m)


@dataclass(frozen=True)
class MinQuadLine:
    """f(lambda) = min_j (p_j*lambda - q_j*lambda^2), increasing while every
    branch is below its vertex (guaranteed by the gamma_hat choices)."""

    terms: tuple[tuple[Fraction, Fraction], ...]  # (p_j, q_j)

    monotone = "inc"

    def value(self, lam: Real, bits: int) -> RVal:
        lv = _rv(lam, bits)
        branches = [RVal(p) * lv - RVal(q) * lv ** 2 for p, q in self.terms]
        return RVal(min(b.lo for b in branches), min(b.hi for b in branches))

    def inverse(self, v: Real, bits: int) -> RVal:
        # min of increasing branches: inverse is the max of branch inverses
        s = _rv(v, bits)
        best: Optional[RVal] = None
        for p, q in self.terms:
            if q == 0:
                lam = s / RVal(p)
            else:
                disc = RVal(p) ** 2 - RVal(4 * q) * s
                if disc.lo < 0:
                    raise GammaTooLarge("value above the quadratic vertex")
                lam = (RVal(p) - nth_root(disc, 2, bits)) / RVal(2 * q)
            if best is None or lam.lo > best.lo:
                best = lam if best is None else RVal(max(lam.lo, best.lo), max(lam.hi, best.hi))
        return best

    def scaled(self, s) -> "MinQuadLine":
        s = Fraction(s)
        return MinQuadLine(tuple((p * s, q * s) for p, q in self.terms))


@dataclass(frozen=True)
class ConstLine:
    c: Sym

    monotone = "const"

    def value(self, lam: Real, bits: int) -> RVal:
        return self.c.to_rval(bits)

    def inverse(self, v: Real, bits: int) -> RVal:
        raise NotAnalyzable("a constant bound has no inverse")

    def scaled(self, s) -> "ConstLine":
        return ConstLine(self.c * _sym(s))


@dataclass(frozen=True)
class ComboLine:
    """Pointwise min/max/product of component forms.  Produced by the
    calculation rules; invertible only in the min/max-of-increasing cases."""

    parts: tuple
    mode: str  # 'min' | 'max' | 'mul'

    @property
    def monotone(self):
        modes = {p.monotone for p in self.parts}
        if self.mode in ("min", "max"):
            return modes.pop() if len(modes) == 1 else "mixed"
        return "inc" if modes == {"inc"} else ("dec" if modes == {"dec"} else "mixed")

    def value(self, lam: Real, bits: int) -> RVal:
        vals = [p.value(lam, bits) for p in self.parts]
        if self.mode == "mul":
            out = vals[0]
            for v in vals[1:]:
                out = out * v
            return out
        lo = (min if self.mode == "min" else max)(v.lo for v in vals)
        hi = (min if self.mode == "min" else max)(v.hi for v in vals)
        return RVal(lo, hi)

    def inverse(self, v: Real, bits: int) -> RVal:
        if self.mode == "mul":
            raise NotAnalyzable("product combination has no closed inverse")
        invs = [p.inverse(v, bits) for p in self.parts]
        if self.monotone != "inc":
            raise NotAnalyzable("min/max inverse needs increasing components")
        # min of increasing -> max of inverses; max of increasing -> min
        pick = max if self.mode == "min" else min
        lo = pick(i.lo for i in invs)
        hi = pick(i.hi for i in invs)
        return RVal(lo, hi)

    def scaled(self, s) -> "ComboLine":
        if self.mode == "mul":
            return ComboLine((self.parts[0].scaled(s),) + self.parts[1:], "mul")
        return ComboLine(tuple(p.scaled(s) for p in self.parts), self.mode)


LineForm = Union[PowerLine, AffinePowLine, MinQuadLine, ConstLine, ComboLine]


def compose_mul(a: LineForm, b: LineForm) -> LineForm:
    """Product of two line forms, kept closed-form when the family allows."""
    if isinstance(a, ConstLine):
        return b.scaled(a.c)
    if isinstance(b, ConstLine):
        return a.scaled(b.c)
    if isinstance(a, PowerLine) and isinstance(b, PowerLine):
        return PowerLine(a.c * b.c, a.m + b.m)
    if (
        isinstance(a, AffinePowLine)
        and isinstance(b, AffinePowLine)
        and (a.a, a.b) == (b.a, b.b)
    ):
        return AffinePowLine(a.c * b.c, a.a, a.b, a.m + b.m)
    return ComboLine((a, b), "mul")


# --- predicate descriptions --------------------------------------------------


@dataclass(frozen=True)
class PredicateDescription:
    """(f, k, A, delta, emax, Gamma, t): the analysis-facing description.

    ``analysis_indices`` are the input slots the perturbation analysis covers;
    remaining slots are instance parameters held at exact grid values.  delta,
    a_box and gamma_hat are per analysis coordinate.
    """

    expr: Expr
    k: int
    delta: tuple[Fraction, ...]
    emax: int
    analysis_indices: tuple[int, ...] = ()
    a_box: tuple[tuple[Fraction, Fraction], ...] = ()
    gamma_hat: Optional[tuple[Fraction, ...]] = None
    t: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(Fraction(d) for d in self.delta))
        object.__setattr__(self, "t", Fraction(self.t))
        idx = self.analysis_indices or tuple(range(len(self.delta)))
        object.__setattr__(self, "analysis_indices", tuple(idx))
        if len(self.analysis_indices) != len(self.delta):
            raise ValueError("delta must match analysis coordinates")
        if not 0 < self.t < 1:
            raise InadmissibleInput("t must lie in (0,1)")
        if any(d <= 0 for d in self.delta):
            raise InadmissibleInput("perturbation parameters must be positive")
        box = self.a_box or tuple((Fraction(0), Fraction(0)) for _ in self.delta)
        if len(box) != len(self.delta):
            raise ValueError("a_box must match analysis coordinates")
        object.__setattr__(
            self, "a_box", tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
        )
        if any(lo > hi for lo, hi in self.a_box):
            raise InadmissibleInput("a_box needs lo <= hi in every coordinate")
        # with lo <= hi, max(|lo - d|, |hi + d|) = max(|lo|, |hi|) + d, which
        # compute_emax bounds from 2^0 up: a negative emax scales the box to it
        ends, deltas = [v for end in self.a_box for v in end], [d for d in self.delta for _ in "lh"]
        if self.emax < 0:
            ends, deltas = [v * (1 << -self.emax) for v in ends], [d * (1 << -self.emax) for d in deltas]
        if ends and compute_emax(ends, deltas) > max(self.emax, 0):
            raise InadmissibleInput("U_delta(A) leaves [-2^emax, 2^emax]")

    def with_gamma_hat(self, gamma_hat: tuple[Fraction, ...]) -> "PredicateDescription":
        """This description with gamma_hat set.  __post_init__ never reads
        gamma_hat, so the copy skips it; replace() on any other field still
        validates."""
        out = object.__new__(type(self))
        vars(out).update(vars(self), gamma_hat=gamma_hat)
        return out

    @property
    def n_analysis(self) -> int:
        return len(self.analysis_indices)

    @property
    def mu_u(self) -> Fraction:
        out = Fraction(1)
        for d in self.delta:
            out *= 2 * d
        return out


# --- the BoundSet -------------------------------------------------------------


@dataclass(frozen=True)
class BoundSet:
    """The analysis interface for one predicate description.

    Each bound is held once, as a line form: a closed-form function of
    lambda on the Gamma-line gamma = lambda * gamma_hat.  The region bound
    is nu or chi as ``kind`` says, and None where no invertible line form
    exists (the analysis then raises NotAnalyzable).
    """

    kind: str  # 'nu' | 'chi' | 'empty'
    region_line: Optional[LineForm]
    phi_inf_line: Optional[LineForm]
    phi_sup_line: Optional[LineForm]
    s_inf_coeff: Optional[Fraction]  # S_inf(L) = coeff * 2^-L
    gamma_hat: tuple[Fraction, ...]
    mu_u: Fraction
    meta: dict = field(default_factory=dict)

    def s_inf(self, L: int) -> Fraction:
        if self.s_inf_coeff is None:
            raise NotAnalyzable("no fp-safety bound attached")
        return self.s_inf_coeff * Fraction(2) ** (-L)

    def s_inf_inverse_L(self, phi: Fraction) -> int:
        """Smallest integer L with S_inf(L) <= phi (the ceil of log2(coeff/phi))."""
        if self.s_inf_coeff is None:
            raise NotAnalyzable("no fp-safety bound attached")
        if phi <= 0:
            raise NotAnalyzable("need a positive value bound")
        return max(1, ceil_log2(Fraction(self.s_inf_coeff) / phi))


def multivariate_sinf_coeff(terms: dict, emax: int) -> Fraction:
    """Cor.-2 coefficient for a polynomial given as a term dict."""
    if not terms:
        raise NotAnalyzable("zero polynomial")
    d = max(sum(key) for key in terms)
    n_t = len(terms)
    maxcoeff = max(abs(c) for c in terms.values())
    return safety_lower_multivariate(d, n_t, maxcoeff, emax, 0)


# --- reverse-lexicographic selection -----------------------------------------


def _rlex_key(t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(reversed(t))


def select_beta(index_set, k: int) -> set[tuple[int, ...]]:
    """All tuples that are the reverse-lex maximum under some permutation.

    A permutation ranks the variables, and its maximum is what is left after
    keeping the tuples maximal in the top-ranked variable, then the next,
    and so on.  The search walks the rankings, memoized on (survivors,
    unranked variables), and stops at one survivor; k is capped at 8.  Its
    answer is memoized per (tuple set, k); each call returns a fresh set.
    """
    if k > 8:
        raise ArityTooLarge(f"select_beta is capped at k = 8, got k = {k}")
    tuples = frozenset(tuple(t) for t in index_set)
    if not tuples:
        raise ValueError("empty exponent set")
    if any(len(t) != k for t in tuples):
        raise ValueError(f"every exponent tuple needs {k} entries")
    return set(_select_beta(tuples, k))


@lru_cache(maxsize=256)
def _select_beta(tuples: frozenset, k: int) -> frozenset:
    memo: dict = {}

    def search(survivors: frozenset, free: frozenset) -> frozenset:
        if len(survivors) == 1 or not free:
            return survivors
        key = (survivors, free)
        if key not in memo:
            out = set()
            for v in free:
                top = max(t[v] for t in survivors)
                kept = frozenset(t for t in survivors if t[v] == top)
                # a variable all survivors tie in filters nothing here or
                # later, so ranking it first adds no new outcome
                if len(kept) < len(survivors):
                    out |= search(kept, free - {v})
            memo[key] = frozenset(out)
        return memo[key]

    return search(tuples, frozenset(range(k)))


def choose_beta(index_set, k: int) -> tuple[int, ...]:
    """Deterministic pick from I_max: smallest beta* (the asymptotic constant),
    ties broken by reverse-lex order under the identity permutation."""
    candidates = select_beta(index_set, k)
    return max(
        candidates,
        key=lambda t: (-sum(t), _rlex_key(t)),
    )


# --- built-in bound derivations ----------------------------------------------


def bounds_univariate(coeffs: Sequence[Exact], desc: PredicateDescription) -> tuple[PredicateDescription, BoundSet]:
    """Degree-d univariate polynomial: nu = 2*d*gamma, phi = |a_d|*gamma^d,
    S_inf per the univariate closed form."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    d = len(coeffs) - 1
    if d < 1 or coeffs[d] == 0:
        raise InadmissibleInput("need a_d != 0 and degree >= 1")
    if desc.n_analysis != 1:
        raise ValueError("univariate analysis needs one analysis coordinate")
    delta = desc.delta[0]
    gamma_hat = desc.gamma_hat or (delta / (2 * d),)
    desc = desc.with_gamma_hat(gamma_hat)
    gh = gamma_hat[0]

    nu_line = PowerLine(Sym(2 * d * gh), 1)
    phi_line = PowerLine(Sym(abs(coeffs[d]) * gh ** d), d)
    phi_sup_val = sum(abs(c) * Fraction(2) ** (desc.emax * i) for i, c in enumerate(coeffs))
    bs = BoundSet(
        kind="nu",
        region_line=nu_line,
        phi_inf_line=phi_line,
        phi_sup_line=ConstLine(Sym(phi_sup_val)),
        s_inf_coeff=safety_lower_univariate(d, coeffs, desc.emax, 0),
        gamma_hat=gamma_hat,
        mu_u=desc.mu_u,
        meta={"d": d, "coeffs": coeffs},
    )
    return desc, bs


def bounds_multivariate(
    index_set,
    coeffs: dict,
    beta: tuple[int, ...],
    desc: PredicateDescription,
) -> tuple[PredicateDescription, BoundSet]:
    """k-variate polynomial via the exponent tuple beta in I_max:
    phi = |a_beta| * gamma^beta, chi = prod_i 2*(delta_i - beta_i*gamma_i).

    The invertible line form is the cubical specialization
    chi(lambda) = mu(U) * (1 - lambda)^k on gamma_hat = delta/(2*beta_hat),
    a sound lower bound on the product form.  Non-cubical deltas have no
    line form, and region_line is None.
    """
    k = desc.n_analysis
    terms = {tuple(key): Fraction(c) for key, c in coeffs.items()}
    beta = tuple(beta)
    if beta not in select_beta(index_set, k):
        raise ValueError("beta is not a maximal exponent tuple")
    beta_star = sum(beta)
    beta_hat = max(beta)
    if beta_hat == 0:
        raise ValueError("constant polynomial has no region analysis")
    d = max(sum(key) for key in terms)
    a_beta = abs(terms[beta])

    cubical = all(dl == desc.delta[0] for dl in desc.delta)
    gamma_hat = desc.gamma_hat or tuple(dl / (2 * beta_hat) for dl in desc.delta)
    desc = desc.with_gamma_hat(gamma_hat)

    phi_coeff = a_beta
    for bi, gh in zip(beta, gamma_hat):
        phi_coeff *= gh ** bi

    chi_line = (
        AffinePowLine(Sym(desc.mu_u), Fraction(1), Fraction(1), k) if cubical else None
    )
    phi_sup_val = sum(
        abs(c) * Fraction(2) ** (desc.emax * sum(key)) for key, c in terms.items()
    )
    bs = BoundSet(
        kind="chi",
        region_line=chi_line,
        phi_inf_line=PowerLine(Sym(phi_coeff), beta_star),
        phi_sup_line=ConstLine(Sym(phi_sup_val)),
        s_inf_coeff=multivariate_sinf_coeff(terms, desc.emax),
        gamma_hat=gamma_hat,
        mu_u=desc.mu_u,
        meta={
            "beta": beta,
            "beta_star": beta_star,
            "beta_hat": beta_hat,
            "d": d,
            "n_terms": len(terms),
            "maxcoeff": max(abs(c) for c in terms.values()),
        },
    )
    return desc, bs


def bounds_inbox_direct(
    desc: PredicateDescription, width: tuple[Exact, Exact]
) -> tuple[PredicateDescription, BoundSet]:
    """in_box with fixed opposite corners and a perturbed query point:
    nu = 4*(g_qx*delta_y + g_qy*delta_x),
    phi = min over axes of |gamma^2 - gamma*|v_i - u_i||."""
    if desc.n_analysis != 2:
        raise ValueError("query-point analysis has two coordinates")
    wx, wy = (abs(Fraction(w)) for w in width)
    if wx == 0 or wy == 0:
        raise InadmissibleInput("degenerate box")
    dx, dy = desc.delta
    cap = (dx * dy) / (2 * (dx + dy))  # keeps nu(gamma_hat) <= mu(U)/2
    gh = min(wx / 2, wy / 2, cap)
    gamma_hat = desc.gamma_hat or (gh, gh)
    desc = desc.with_gamma_hat(gamma_hat)
    ghx, ghy = gamma_hat

    bs = BoundSet(
        kind="nu",
        region_line=PowerLine(Sym(4 * (ghx * dy + ghy * dx)), 1),
        phi_inf_line=MinQuadLine(((wx * ghx, ghx * ghx), (wy * ghy, ghy * ghy))),
        phi_sup_line=ConstLine(Sym(Fraction(2) ** (2 * desc.emax + 2))),
        s_inf_coeff=_inbox_child_sinf(desc.emax),
        gamma_hat=gamma_hat,
        mu_u=desc.mu_u,
        meta={"width": (wx, wy)},
    )
    return desc, bs


def _inbox_child_sinf(emax: int) -> Fraction:
    # each child (q-u)(q-v) expands to 4 degree-2 terms with unit coefficients
    return safety_lower_multivariate(2, 4, 1, emax, 0)


def bounds_incircle_direct(
    desc: PredicateDescription, radius: Exact
) -> tuple[PredicateDescription, BoundSet]:
    """in_circle with fixed center/radius and a perturbed query point:
    nu = 4*pi*gamma_qx*min(delta), phi = gamma_qx*(2r - gamma_qx)."""
    if desc.n_analysis != 2:
        raise ValueError("query-point analysis has two coordinates")
    r = Fraction(radius)
    if r <= 0:
        raise InadmissibleInput("radius must be positive")
    dx, dy = desc.delta
    dmin = min(dx, dy)
    # nu(gamma_hat) <= mu(U)/2 via pi <= 4: 4*pi*g*dmin <= 16*g*dmin <= 2*dx*dy
    gh = min(r / 2, (dx * dy) / (8 * dmin))
    gamma_hat = desc.gamma_hat or (gh, gh)
    desc = desc.with_gamma_hat(gamma_hat)

    phi_sup_val = Fraction(2) ** (2 * desc.emax + 3) + Fraction(2) ** (2 * desc.emax)
    bs = BoundSet(
        kind="nu",
        region_line=PowerLine(Sym(4 * dmin * gamma_hat[0], 1), 1),
        phi_inf_line=MinQuadLine(((2 * r * gamma_hat[0], gamma_hat[0] ** 2),)),
        phi_sup_line=ConstLine(Sym(phi_sup_val)),
        s_inf_coeff=safety_lower_multivariate(2, 7, 2, desc.emax, 0),
        gamma_hat=gamma_hat,
        mu_u=desc.mu_u,
        meta={"radius": r},
    )
    return desc, bs


def bounds_inbox_topdown(
    desc: PredicateDescription,
    half_lengths: Sequence[Exact],
    center: Sequence[Exact] | None = None,
) -> tuple[PredicateDescription, BoundSet]:
    """in_box as min_j (l_j^2 - (x_j - c_j)^2):
    phi = min_j (2*l_j - gamma_j)*gamma_j, chi = prod_i (2*delta_i - 4*gamma_i)."""
    ls = tuple(Fraction(v) for v in half_lengths)
    k = desc.n_analysis
    if len(ls) != k:
        raise ValueError("one half-length per analysis coordinate")
    if any(l <= 0 for l in ls):
        raise ValueError("half-lengths must be positive")
    # gamma_hat_i = c*delta_i keeps chi in one closed family; c caps both the
    # chi positivity margin (1/4) and the phi monotone range (l_i / (2 delta_i))
    cfac = min(Fraction(1, 4), min(l / (2 * d) for l, d in zip(ls, desc.delta)))
    gamma_hat = desc.gamma_hat or tuple(cfac * d for d in desc.delta)
    desc = desc.with_gamma_hat(gamma_hat)

    prod_delta = Fraction(1)
    for d in desc.delta:
        prod_delta *= d

    chi_line = AffinePowLine(Sym(prod_delta), Fraction(2), 4 * cfac, k)
    phi_line = MinQuadLine(tuple((2 * l * gh, gh * gh) for l, gh in zip(ls, gamma_hat)))
    centers = tuple(Fraction(c) for c in (center or [0] * k))
    s_coeff = max(
        safety_lower_univariate(2, (l * l - c * c, 2 * abs(c), Fraction(1)), desc.emax, 0)
        for l, c in zip(ls, centers)
    )
    phi_sup_val = max(l * l for l in ls) + Fraction(2) ** (2 * desc.emax + 2)
    bs = BoundSet(
        kind="chi",
        region_line=chi_line,
        phi_inf_line=phi_line,
        phi_sup_line=ConstLine(Sym(phi_sup_val)),
        s_inf_coeff=s_coeff,
        gamma_hat=gamma_hat,
        mu_u=desc.mu_u,
        meta={"half_lengths": ls},
    )
    return desc, bs


# --- calculation rules --------------------------------------------------------


def rule_sandwich(g: BoundSet, c1: Exact, c2: Exact | None = None) -> BoundSet:
    """c1*|g| <= |f| <= c2*|g|: region bound unchanged, value bounds scaled.
    With c2 omitted this is the lower-bound-only legacy rule (no phi_sup)."""
    c1 = Fraction(c1)
    if c1 <= 0 or (c2 is not None and Fraction(c2) < c1):
        raise ValueError("need 0 < c1 <= c2")
    c2f = None if c2 is None else Fraction(c2)
    return replace(
        g,
        phi_inf_line=g.phi_inf_line.scaled(c1) if g.phi_inf_line else None,
        phi_sup_line=(g.phi_sup_line.scaled(c2f) if (c2f is not None and g.phi_sup_line) else None),
        s_inf_coeff=None,
        meta=dict(g.meta, rule="sandwich"),
    )


def _split_blocks(j: int, l: int, k: int):
    if not 0 <= j <= l <= k:
        raise IndexSplitInvalid(f"need 0 <= j <= l <= k, got {(j, l, k)}")


def rule_product(
    g: BoundSet,
    h: BoundSet,
    j: int,
    l: int,
    k: int,
    deltas: Sequence[Exact],
    s_inf_coeff: Fraction | None = None,
) -> BoundSet:
    """f(x_1..x_k) = g(x_1..x_l) * h(x_{j+1}..x_k).

    phi bounds multiply.  With disjoint arguments (j = l) the complements chi
    multiply; with shared arguments the nu volumes add after scaling by the
    free directions.  Every operand line is read at the product's lambda, so
    the shared coordinates need the same gamma_hat in g and h.
    """
    _split_blocks(j, l, k)
    deltas = tuple(Fraction(d) for d in deltas)
    if len(deltas) != k:
        raise IndexSplitInvalid("need one delta per coordinate")
    if tuple(g.gamma_hat)[j:l] != tuple(h.gamma_hat)[: l - j]:
        raise ValueError("shared coordinates need the same gamma_hat in g and h")
    mu_u = Fraction(1)
    for d in deltas:
        mu_u *= 2 * d
    gamma_hat = tuple(g.gamma_hat) + tuple(h.gamma_hat)[l - j :]

    phi_line = (
        compose_mul(g.phi_inf_line, h.phi_inf_line)
        if g.phi_inf_line and h.phi_inf_line
        else None
    )
    phi_sup_line = (
        compose_mul(g.phi_sup_line, h.phi_sup_line)
        if g.phi_sup_line and h.phi_sup_line
        else None
    )

    if j == l:
        kind = "chi"
        region_line = (
            compose_mul(g_chi_line, h_chi_line)
            if (g_chi_line := _chi_line_of(g)) and (h_chi_line := _chi_line_of(h))
            else None
        )
    else:
        # shared arguments: nu_f = nu_g * prod_{i>l} 2d_i + nu_h * prod_{i<=j} 2d_i
        kind = "nu"
        tail = Fraction(1)
        for d in deltas[l:]:
            tail *= 2 * d
        head = Fraction(1)
        for d in deltas[:j]:
            head *= 2 * d
        region_line = None
        gl, hl = g.region_line, h.region_line
        if (
            g.kind == h.kind == "nu"
            and isinstance(gl, PowerLine)
            and isinstance(hl, PowerLine)
            and gl.m == hl.m == 1
            and gl.c.pi_pow == hl.c.pi_pow
        ):
            region_line = PowerLine(Sym(gl.c.rat * tail + hl.c.rat * head, gl.c.pi_pow), 1)
    return BoundSet(
        kind=kind,
        region_line=region_line,
        phi_inf_line=phi_line,
        phi_sup_line=phi_sup_line,
        s_inf_coeff=s_inf_coeff,
        gamma_hat=gamma_hat,
        mu_u=mu_u,
        meta={"rule": "product", "split": (j, l, k)},
    )


def rule_minmax(
    g: BoundSet,
    h: BoundSet,
    which: str,
    j: int,
    l: int,
    k: int,
    deltas: Sequence[Exact],
    s_inf_coeff: Fraction | None = None,
) -> BoundSet:
    """min/max of two functions: phi_min/phi_max are the min/max of the
    component bounds; the region bound composes exactly as in the product rule."""
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    base = rule_product(g, h, j, l, k, deltas, s_inf_coeff=s_inf_coeff)
    phi_line = (
        ComboLine((g.phi_inf_line, h.phi_inf_line), which)
        if g.phi_inf_line and h.phi_inf_line
        else None
    )
    phi_sup_line = (
        ComboLine((g.phi_sup_line, h.phi_sup_line), which)
        if g.phi_sup_line and h.phi_sup_line
        else None
    )
    return replace(
        base,
        phi_inf_line=phi_line,
        phi_sup_line=phi_sup_line,
        meta={"rule": f"{which}", "split": (j, l, k)},
    )


def _chi_line_of(b: BoundSet) -> Optional[LineForm]:
    if b.kind == "chi":
        return b.region_line
    if b.kind == "nu" and isinstance(b.region_line, PowerLine) and b.region_line.m == 1:
        c = b.region_line.c
        if c.is_rational:
            # mu_u - c*lambda = c * (mu_u/c - lambda)
            return AffinePowLine(c, b.mu_u / c.rat, Fraction(1), 1)
    return None


# --- rational functions -------------------------------------------------------


@dataclass(frozen=True)
class RationalPrecision:
    """L_f(p) = max(L_g((1+p)/2), L_h((1+p)/2)) for f = g/h (guard G_g and G_h)."""

    l_g: Callable[[Fraction], int]
    l_h: Callable[[Fraction], int]

    @staticmethod
    def component_probability(p: Exact) -> Fraction:
        return (1 + Fraction(p)) / 2

    def __call__(self, p: Exact) -> int:
        q = self.component_probability(p)
        return max(self.l_g(q), self.l_h(q))


def rational_precision(l_g: Callable[[Fraction], int], l_h: Callable[[Fraction], int]) -> RationalPrecision:
    return RationalPrecision(l_g, l_h)
