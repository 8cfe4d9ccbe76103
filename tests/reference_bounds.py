"""The paper's bounds as functions of the gamma vector.

A `bounds.BoundSet` once carried these next to its line forms, as the
`nu_gamma`/`chi_gamma`/`phi_inf_gamma` closures.  The analysis reads only the
line forms (functions of lambda on the Gamma-line gamma = lambda * gamma_hat),
so the gamma-vector formulas stay here as the reference those line forms are
tested against.  Each builder takes what the builder of the same name in
`cperturb.bounds` takes; the rules compose references as the calculation
rules compose bounds.  The disjoint product of chi is the full product form,
also where the deltas are not cubical and no line form exists.

`region` is nu or chi, as `kind` says, and `phi_inf` the lower value bound.
Both map a gamma vector to a Fraction, except nu of in_circle, which carries
a factor pi and is a `Sym`.  A gamma outside a formula's domain raises
GammaTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cperturb.bounds import GammaTooLarge, NotAnalyzable, Sym


@dataclass(frozen=True)
class Reference:
    kind: str  # 'nu' | 'chi'
    mu_u: Fraction
    region: Callable
    phi_inf: Callable


def gamma_of_lambda(bs, lam: Fraction) -> tuple[Fraction, ...]:
    """The gamma vector at lambda on bs's Gamma-line: lambda * gamma_hat."""
    return tuple(lam * g for g in bs.gamma_hat)


def _mu(deltas) -> Fraction:
    out = Fraction(1)
    for d in deltas:
        out *= 2 * Fraction(d)
    return out


def _as_rat(v) -> Fraction:
    if isinstance(v, Sym):
        if not v.is_rational:
            raise NotAnalyzable("irrational value in rational context")
        return v.rat
    return Fraction(v)


def _nu(r: Reference) -> Callable:
    if r.kind == "nu":
        return r.region
    return lambda g: r.mu_u - _as_rat(r.region(g))


def _chi(r: Reference) -> Callable:
    if r.kind == "chi":
        return r.region
    return lambda g: r.mu_u - _as_rat(r.region(g))


# --- builders -----------------------------------------------------------------


def univariate(coeffs, delta) -> Reference:
    """nu = 2*d*gamma, phi = |a_d|*gamma^d."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    d = len(coeffs) - 1
    return Reference(
        "nu",
        _mu((delta,)),
        lambda g: 2 * d * Fraction(g[0]),
        lambda g: abs(coeffs[d]) * Fraction(g[0]) ** d,
    )


def multivariate(terms: dict, beta, deltas) -> Reference:
    """chi = prod_i 2*(delta_i - beta_i*gamma_i), phi = |a_beta| * gamma^beta."""
    deltas = tuple(Fraction(d) for d in deltas)
    a_beta = abs(Fraction(terms[tuple(beta)]))

    def chi(g):
        out = Fraction(1)
        for dl, bi, gi in zip(deltas, beta, g):
            factor = 2 * (dl - bi * Fraction(gi))
            if factor <= 0:
                raise GammaTooLarge(f"need gamma_i < delta_i/beta_i, got {gi}")
            out *= factor
        return out

    def phi(g):
        out = a_beta
        for bi, gi in zip(beta, g):
            out *= Fraction(gi) ** bi
        return out

    return Reference("chi", _mu(deltas), chi, phi)


def inbox_direct(width, deltas) -> Reference:
    """nu = 4*(gamma_x*delta_y + gamma_y*delta_x),
    phi = min over axes of |gamma^2 - gamma*w|."""
    wx, wy = (abs(Fraction(w)) for w in width)
    dx, dy = (Fraction(d) for d in deltas)

    def nu(g):
        gx, gy = (Fraction(v) for v in g)
        return 4 * (gx * dy + gy * dx)

    def phi(g):
        gx, gy = (Fraction(v) for v in g)
        tx = abs(gx * gx - gx * wx)
        ty = abs(gy * gy - gy * wy)
        if tx == 0 or ty == 0:
            raise GammaTooLarge("phi vanishes at gamma = |v - u|")
        return min(tx, ty)

    return Reference("nu", _mu((dx, dy)), nu, phi)


def incircle_direct(radius, deltas) -> Reference:
    """nu = 4*pi*gamma_x*min(delta), phi = gamma_x*(2r - gamma_x)."""
    r = Fraction(radius)
    dmin = min(Fraction(d) for d in deltas)

    def phi(g):
        gx = Fraction(g[0])
        val = gx * (2 * r - gx)
        if val <= 0:
            raise GammaTooLarge("query distance reached the diameter")
        return val

    return Reference("nu", _mu(deltas), lambda g: Sym(4 * Fraction(g[0]) * dmin, 1), phi)


def inbox_topdown(half_lengths, deltas) -> Reference:
    """chi = prod_i (2*delta_i - 4*gamma_i), phi = min_j (2*l_j - gamma_j)*gamma_j."""
    ls = tuple(Fraction(v) for v in half_lengths)
    deltas = tuple(Fraction(d) for d in deltas)

    def chi(g):
        out = Fraction(1)
        for d, gi in zip(deltas, g):
            factor = 2 * d - 4 * Fraction(gi)
            if factor <= 0:
                raise GammaTooLarge("need 4*gamma_i < 2*delta_i")
            out *= factor
        return out

    def phi(g):
        vals = []
        for l, gi in zip(ls, g):
            gi = Fraction(gi)
            if gi >= l:
                raise GammaTooLarge("need gamma_j < l_j")
            vals.append((2 * l - gi) * gi)
        return min(vals)

    return Reference("chi", _mu(deltas), chi, phi)


# --- calculation rules ----------------------------------------------------------


def sandwich(g: Reference, c1) -> Reference:
    """c1*|g| <= |f|: region unchanged, phi scaled by c1."""
    c1 = Fraction(c1)
    return Reference(g.kind, g.mu_u, g.region, lambda gv: c1 * g.phi_inf(gv))


def product(g: Reference, h: Reference, j: int, l: int, k: int, deltas) -> Reference:
    """f = g(x_1..x_l) * h(x_{j+1}..x_k): phi multiplies; disjoint arguments
    multiply chi, shared ones add the nu volumes scaled by the free
    directions, capped at mu(U)."""
    deltas = tuple(Fraction(d) for d in deltas)
    mu_u = _mu(deltas)

    def phi(gv):
        return g.phi_inf(tuple(gv)[:l]) * h.phi_inf(tuple(gv)[j:])

    if j == l:
        gc, hc = _chi(g), _chi(h)
        return Reference("chi", mu_u, lambda gv: gc(tuple(gv)[:j]) * hc(tuple(gv)[j:]), phi)
    tail, head = _mu(deltas[l:]), _mu(deltas[:j])
    gn, hn = _nu(g), _nu(h)

    def nu(gv):
        return min(mu_u, _as_rat(gn(tuple(gv)[:l])) * tail + _as_rat(hn(tuple(gv)[j:])) * head)

    return Reference("nu", mu_u, nu, phi)


def minmax(g: Reference, h: Reference, which: str, j: int, l: int, k: int, deltas) -> Reference:
    """min/max of two functions: phi is the min/max of the component bounds,
    the region as in the product rule."""
    base = product(g, h, j, l, k, deltas)
    pick = min if which == "min" else max

    def phi(gv):
        return pick(_as_rat(g.phi_inf(tuple(gv)[:l])), _as_rat(h.phi_inf(tuple(gv)[j:])))

    return Reference(base.kind, base.mu_u, base.region, phi)
