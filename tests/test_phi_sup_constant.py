"""phi_sup is one rational constant, and K_f has one derivation.

The exponent requirement K_f = _k_requirement(L) is the only place where
phi_sup is read: quantified_relations returns it, and probability's p_sup is
K >= _k_requirement(L).  The calculation rules keep phi_sup constant, so a
rule's output answers both directions of the analysis.  The module also
checks the product rule with a constant phi_inf factor, queries whose
Gamma-line parameter lies just above zero, and mu(U) computed once.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cperturb.bounds import (
    ComboLine,
    ConstLine,
    MinQuadLine,
    PredicateDescription,
    Sym,
    box_volume,
    bounds_inbox_direct,
    bounds_inbox_topdown,
    bounds_incircle_direct,
    bounds_univariate,
    multivariate_sinf_coeff,
    rule_minmax,
    rule_product,
    rule_sandwich,
)
from cperturb.cli import build_predicate, main, make_parser
from cperturb.expr import Input, Max, Min, Mul
from cperturb.geom import make_inbox, make_incircle, make_orientation2d, make_univariate
from cperturb.qr import _k_requirement, probability, quantified_relations
from cperturb.reals import PrecisionExhausted

BITS = 128


def univariate(coeffs, delta=F(1), emax=1):
    desc = PredicateDescription(expr=Input(0), k=1, delta=(delta,), emax=emax)
    return bounds_univariate(coeffs, desc)


class TestRulesEndToEnd:
    """f(x0, x1) = g(x0) op h(x1) with g = x and h = x^2 on disjoint arguments:
    the rule's bound set runs through quantified_relations and back through
    probability, which must guarantee at least p."""

    EXPRS = {
        "product": Mul(Input(0), Mul(Input(1), Input(1))),
        "min": Min(Input(0), Mul(Input(1), Input(1))),
        "max": Max(Input(0), Mul(Input(1), Input(1))),
    }

    def composed(self, rule):
        _, g = univariate((0, 1))
        _, h = univariate((0, 0, 1))
        if rule == "product":
            s_inf = multivariate_sinf_coeff({(1, 2): F(1)}, 1)
            bs = rule_product(g, h, 1, 1, 2, (1, 1), s_inf_coeff=s_inf)
        else:
            s_inf = max(g.s_inf_coeff, h.s_inf_coeff)
            bs = rule_minmax(g, h, rule, 1, 1, 2, (1, 1), s_inf_coeff=s_inf)
        desc = PredicateDescription(expr=self.EXPRS[rule], k=2, delta=(F(1), F(1)), emax=1)
        return desc, bs, g, h

    @pytest.mark.parametrize("rule", ["product", "min", "max"])
    @pytest.mark.parametrize("p", [F(1, 2), F(9, 10), F(99, 100)])
    def test_round_trip(self, rule, p):
        desc, bs, _, _ = self.composed(rule)
        req = quantified_relations(desc, bs, p)
        assert req.K_f == _k_requirement(desc, bs, req.L_f)
        rep = probability(desc, bs, req.L_f, req.K_f)
        assert rep.p_sup == 1
        assert rep.p_f >= p
        assert probability(desc, bs, req.L_f, req.K_f - 1).p_sup == 0

    @pytest.mark.parametrize("rule", ["product", "min", "max"])
    def test_phi_sup_stays_a_constant(self, rule):
        desc, bs, g, h = self.composed(rule)
        want = g.phi_sup * h.phi_sup if rule == "product" else max(g.phi_sup, h.phi_sup)
        assert type(bs.phi_sup) is F and bs.phi_sup == want

    def test_sandwich_scales_by_c2(self):
        _, g = univariate((0, 1))
        assert rule_sandwich(g, 2, 3).phi_sup == 3 * g.phi_sup
        assert rule_sandwich(g, 2).phi_sup is None


def constant_factor(c=Sym(F(3))):
    """A one-coordinate bound set whose phi_inf is a constant line."""
    _, g = univariate((0, 1))
    return replace(g, phi_inf_line=ConstLine(c))


def quadratic_factors():
    inbox = bounds_inbox_direct(
        PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(1)), emax=3, a_box=((1, 1), (1, 1))),
        (2, 2))[1]
    circle = bounds_incircle_direct(
        PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(2)), emax=3, a_box=((0, 0), (1, 1))),
        1)[1]
    topdown = bounds_inbox_topdown(
        PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(2)), emax=2), (1, 1))[1]
    return {"in_box": inbox, "in_circle": circle, "top_down": topdown}


class TestProductWithConstantFactor:
    """A constant phi_inf times a min-of-quadratics phi_inf scales the branch
    coefficients by a rational constant; a constant with a pi factor stays a
    product of the two forms."""

    LAMS = (F(1, 16), F(1, 4), F(1, 2))

    @pytest.mark.parametrize("name", ["in_box", "in_circle", "top_down"])
    @pytest.mark.parametrize("order", ["const_first", "const_second"])
    def test_rational_constant(self, name, order):
        c, q = constant_factor(), quadratic_factors()[name]
        if order == "const_first":
            f = rule_product(c, q, 1, 1, 3, (1, 1, 1))
        else:
            f = rule_product(q, c, 2, 2, 3, (1, 1, 1))
        assert isinstance(f.phi_inf_line, MinQuadLine)
        for lam in self.LAMS:
            assert f.phi_inf_line.value(lam, BITS).exact == 3 * q.phi_inf_line.value(lam, BITS).exact

    @pytest.mark.parametrize("order", ["const_first", "const_second"])
    def test_pi_constant(self, order):
        c, q = constant_factor(Sym(F(1, 2), 1)), quadratic_factors()["in_box"]
        pair = (c, q) if order == "const_first" else (q, c)
        split = (1, 1, 3) if order == "const_first" else (2, 2, 3)
        f = rule_product(*pair, *split, (1, 1, 1))
        assert isinstance(f.phi_inf_line, ComboLine) and f.phi_inf_line.mode == "mul"
        for lam in self.LAMS:
            got = f.phi_inf_line.value(lam, BITS)
            want = Sym(F(1, 2), 1).to_rval(BITS) * q.phi_inf_line.value(lam, BITS)
            assert got.lo <= want.hi and want.lo <= got.hi


NEAR_ONE = F(10**45 - 1, 10**45)


class TestNearOneOnTheChiRoute:
    """At p = 1 - 10^-45 the Gamma-line parameter is about 10^-45: the first
    enclosures straddle zero, and refinement must go on until lambda > 0 is
    decided rather than divide by an enclosure that touches zero."""

    @pytest.mark.parametrize("predicate", ["orientation2d", "multivariate"])
    def test_predicate(self, predicate, capsys):
        argv = ["analyze", "--predicate", predicate, "--p", str(NEAR_ONE), "--json"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        inst = build_predicate(make_parser().parse_args(argv))
        req = quantified_relations(inst.desc, inst.bounds, NEAR_ONE)
        assert (out["L_f"], out["K_f"], out["route"]) == (req.L_f, req.K_f, "chi")
        assert probability(inst.desc, inst.bounds, req.L_f, req.K_f).p_f >= NEAR_ONE

    def test_hull(self, capsys):
        n = 10**49
        assert main(["analyze", "--algorithm", "hull", "--n", str(n), "--p", "1/2", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["L_ACP"] == 351
        # the instance and the per-evaluation target of cperturb analyze --algorithm hull
        inst = make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=F(1, 2))
        q = 1 - F(1, 2) / (4 * n)
        assert probability(inst.desc, inst.bounds, out["L_ACP"], out["K_ACP"]).p_f >= q

    def test_undecided_refinement_exits_2(self, monkeypatch, capsys):
        import cperturb.cli as cli

        def exhausted(*args):
            raise PrecisionExhausted("undecided after 4096 bits")

        monkeypatch.setattr(cli, "quantified_relations", exhausted)
        assert main(["analyze", "--predicate", "orientation2d", "--p", "1/2"]) == 2
        assert capsys.readouterr().err == "not analyzable: undecided after 4096 bits\n"


class TestBoxVolume:
    def test_once_per_description(self):
        desc = PredicateDescription(expr=Input(0), k=3, delta=(F(1, 2), F(1, 4), F(3)), emax=3)
        assert desc.mu_u == box_volume(desc.delta) == F(3)
        assert desc.mu_u is desc.mu_u
        assert desc.with_gamma_hat((F(1, 8),) * 3).mu_u == desc.mu_u

    @pytest.mark.parametrize("inst", [
        make_univariate((0, 1), delta=F(1, 4)),
        make_inbox((0, 0), (2, 1), (1, 1), delta=F(1, 2)),
        make_incircle((0, 0), 1, (1, 0), delta=F(1, 2)),
    ], ids=["univariate", "in_box", "in_circle"])
    def test_builders_carry_it(self, inst):
        assert inst.bounds.mu_u == inst.desc.mu_u == box_volume(inst.desc.delta)

    def test_topdown_chi_at_zero_is_the_box(self):
        desc = PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(3)), emax=3)
        _, bs = bounds_inbox_topdown(desc, (1, 2))
        assert bs.region_line.value(F(0), BITS).exact == desc.mu_u

    def test_rule_product_volumes(self):
        _, g = univariate((0, 1), delta=F(1, 2))
        _, h = univariate((0, 1), delta=F(1, 2))
        f = rule_product(g, h, 0, 1, 2, (F(1, 2), F(3, 4)))
        assert f.mu_u == box_volume((F(1, 2), F(3, 4))) == F(3, 2)
        # nu_f = nu_g * 2*delta_2 + nu_h * 1: x1 is free in g, and h has no head
        lam = F(1, 4)
        want = g.region_line.value(lam, BITS).exact * F(3, 2) + h.region_line.value(lam, BITS).exact
        assert f.region_line.value(lam, BITS).exact == want

