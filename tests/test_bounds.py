from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

import reference_bounds
from reference_bounds import gamma_of_lambda

from cperturb.bounds import (
    ArityTooLarge,
    GammaTooLarge,
    IndexSplitInvalid,
    InadmissibleInput,
    NotAnalyzable,
    PredicateDescription,
    Sym,
    bounds_inbox_direct,
    bounds_inbox_topdown,
    bounds_incircle_direct,
    bounds_multivariate,
    bounds_univariate,
    choose_beta,
    RationalPrecision,
    rule_minmax,
    rule_product,
    rule_sandwich,
    select_beta,
)
from cperturb.exact import rat_eval
from cperturb.expr import Input, Mul
from cperturb.geom import make_inbox, make_incircle, make_univariate
from cperturb.grid import GridSpec, PerturbationBox, SplitMix64, enumerate_grid, sample_grid_values
from cperturb.qr import quantified_relations
from cperturb.reals import RVal


BITS = 128


def univariate_pair(coeffs=(0, 1), delta=F(1), emax=1, gamma_hat=None):
    desc = PredicateDescription(expr=Input(0), k=1, delta=(delta,), emax=emax, gamma_hat=gamma_hat)
    return bounds_univariate(coeffs, desc)


def at(bs, line, gv):
    """The line form at the gamma vector gv, which must lie on bs's Gamma-line."""
    lam = F(gv[0]) / bs.gamma_hat[0]
    assert gamma_of_lambda(bs, lam) == tuple(gv)
    return line.value(lam, BITS)


def exact_at(bs, line, gv):
    v = at(bs, line, gv)
    assert v.exact is not None
    return v.exact


def enclosure(v):
    """A reference value as an enclosure: a pi-valued Sym at the lines' bit
    budget, so both sides share one pi enclosure and like endpoints compare."""
    return v.to_rval(BITS) if isinstance(v, Sym) else RVal(v)


class TestPredicateDescription:
    DESCS = (
        PredicateDescription(expr=Input(0), k=1, delta=(F(1, 2),), emax=2),
        PredicateDescription(expr=Input(0), k=6, delta=(1, F(1, 4)), emax=3,
                             analysis_indices=(4, 5), a_box=((1, 2), (F(-1, 3), 0)), t=F(1, 3)),
        PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(2)), emax=4,
                             gamma_hat=(F(1, 8), F(1, 4))),
    )

    @pytest.mark.parametrize("desc", DESCS)
    def test_with_gamma_hat_equals_replace(self, desc):
        gh = tuple(F(1, 16) for _ in desc.delta)
        fast, slow = desc.with_gamma_hat(gh), replace(desc, gamma_hat=gh)
        assert fast == slow and hash(fast) == hash(slow)
        for f in fields(PredicateDescription):
            assert getattr(fast, f.name) == getattr(slow, f.name)
            assert type(getattr(fast, f.name)) is type(getattr(slow, f.name))
        assert fast.gamma_hat is gh and desc.gamma_hat is not gh  # the original is untouched

    def test_builders_set_gamma_hat_like_replace(self):
        desc = self.DESCS[0]
        out, bs = bounds_univariate((0, 1), desc)
        assert out == replace(desc, gamma_hat=bs.gamma_hat)

    @pytest.mark.parametrize("change", [
        {"delta": (F(0),)}, {"delta": (F(-1, 2),)}, {"delta": (F(1), F(1))},
        {"t": F(0)}, {"t": F(1)}, {"a_box": ((F(4), F(4)),)}, {"a_box": ((F(1), F(0)),)},
    ])
    def test_replace_still_validates(self, change):
        with pytest.raises(ValueError):
            replace(self.DESCS[0].with_gamma_hat((F(1, 4),)), **change)

    @pytest.mark.parametrize("emax, box, delta, fits", [
        (2, (F(-3), F(1)), F(1), True),  # |lo| + delta = 4 = 2^2
        (2, (F(-3), F(1)), F(3, 2), False),
        (-1, (F(0), F(0)), F(1, 2), True),  # a negative emax: 1/2 = 2^-1
        (-1, (F(1, 8), F(1, 4)), F(1, 4), True),
        (-1, (F(1, 8), F(1, 4)), F(1, 3), False),
        (-2, (F(-1, 8), F(-1, 8)), F(1, 8), True),
        (-2, (F(-1, 8), F(-1, 8)), F(3, 16), False),
    ])
    def test_u_delta_must_fit_the_domain(self, emax, box, delta, fits):
        def make():
            return PredicateDescription(expr=Input(0), k=1, delta=(delta,), emax=emax, a_box=(box,))

        if fits:
            make()
        else:
            with pytest.raises(InadmissibleInput, match="U_delta"):
                make()

    @pytest.mark.parametrize("a_box", [((F(0), F(0)),), ((F(0), F(0)),) * 3])
    def test_a_box_length_must_match_delta(self, a_box):
        with pytest.raises(ValueError, match="a_box"):
            PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(1)), emax=2, a_box=a_box)


class TestSelectBeta:
    def test_two_incomparable(self):
        assert select_beta({(2, 0), (0, 1)}, 2) == {(2, 0), (0, 1)}

    def test_singleton(self):
        assert select_beta({(3, 1)}, 2) == {(3, 1)}

    def test_dominating(self):
        assert select_beta({(1, 1), (0, 1), (1, 0)}, 2) == {(1, 1)}

    def test_arity_cap(self):
        with pytest.raises(ArityTooLarge):
            select_beta({(0,) * 9}, 9)

    def test_choose_minimizes_beta_star(self):
        assert choose_beta({(2, 0), (0, 1)}, 2) == (0, 1)


class TestUnivariate:
    def test_linear_forms(self):
        _, bs = univariate_pair()
        g = (F(1, 4),)
        assert exact_at(bs, bs.region_line, g) == F(1, 2)  # 2*d*gamma
        assert exact_at(bs, bs.phi_inf_line, g) == F(1, 4)

    def test_cubic_phi(self):
        _, bs = univariate_pair(coeffs=(0, 0, 0, 2))
        assert exact_at(bs, bs.phi_inf_line, (F(1, 4),)) == 2 * F(1, 4) ** 3

    def test_inverse_round_trip(self):
        _, bs = univariate_pair(coeffs=(0, 0, 1))
        for lam in (F(1, 8), F(1, 3), F(7, 9)):
            v = bs.region_line.value(lam, 96)
            assert v.exact is not None
            back = bs.region_line.inverse(v.lo, 96)
            assert back.lo == lam == back.hi
            w = bs.phi_inf_line.value(lam, 96)
            back2 = bs.phi_inf_line.inverse(w.lo, 96)
            assert back2.lo <= lam <= back2.hi


def product_desc(delta):
    return PredicateDescription(expr=Mul(Input(0), Input(1)), k=2, delta=delta, emax=2)


class TestMultivariate:
    def test_quoted_closed_forms(self):
        desc, bs = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), product_desc((F(1), F(1))))
        g = (F(1, 4), F(1, 4))
        ref = reference_bounds.multivariate({(1, 1): 1}, (1, 1), desc.delta)
        assert exact_at(bs, bs.phi_inf_line, g) == ref.phi_inf(g) == F(1, 16)
        # the cubical line mu(U) * (1 - lambda)^k lies below the product form
        assert ref.region(g) == F(9, 4)
        assert exact_at(bs, bs.region_line, g) == 1 <= ref.region(g)

    def test_gamma_to_zero_limit(self):
        # non-cubical deltas: no line form, so the analysis refuses
        desc, bs = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), product_desc((F(1), F(2))))
        assert bs.region_line is None
        with pytest.raises(NotAnalyzable, match="no invertible line form"):
            quantified_relations(desc, bs, F(1, 2))
        ref = reference_bounds.multivariate({(1, 1): 1}, (1, 1), desc.delta)
        tiny = (F(1, 2**20), F(1, 2**20))
        assert abs(ref.region(tiny) - desc.mu_u) < F(1, 2**15)
        # cubical deltas: the line takes the same limit
        desc, bs = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), product_desc((F(2), F(2))))
        assert abs(bs.region_line.value(F(1, 2**20), BITS).exact - desc.mu_u) < F(1, 2**15)

    def test_gamma_too_large(self):
        _, bs = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), product_desc((F(1), F(1))))
        with pytest.raises(GammaTooLarge):
            at(bs, bs.region_line, (F(2), F(2)))

    def test_beta_membership_enforced(self):
        desc = PredicateDescription(
            expr=Mul(Input(0), Input(1)), k=2, delta=(F(1), F(1)), emax=1
        )
        with pytest.raises(ValueError):
            bounds_multivariate({(1, 1), (2, 1)}, {(1, 1): 1, (2, 1): 1}, (1, 1), desc)


class TestRules:
    def test_product_disjoint_matches_closed_form(self):
        _, g = univariate_pair()
        _, h = univariate_pair()
        f = rule_product(g, h, 1, 1, 2, (1, 1))
        desc, direct = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), product_desc((F(1), F(1))))
        ref = reference_bounds.multivariate({(1, 1): 1}, (1, 1), desc.delta)
        for lam_num in range(1, 8):
            gv = (F(lam_num, 16), F(lam_num, 16))
            # the product of the two chi lines is the full product form
            assert exact_at(f, f.region_line, gv) == ref.region(gv)
            assert exact_at(direct, direct.region_line, gv) <= ref.region(gv)
            assert exact_at(f, f.phi_inf_line, gv) == exact_at(direct, direct.phi_inf_line, gv)

    def test_product_shared_all(self):
        _, g = univariate_pair(gamma_hat=(F(1, 4),))
        _, h = univariate_pair(coeffs=(0, 0, 1))
        f = rule_product(g, h, 0, 1, 1, (1,))
        ref = reference_bounds.product(
            reference_bounds.univariate((0, 1), 1), reference_bounds.univariate((0, 0, 1), 1),
            0, 1, 1, (1,))
        gv = (F(1, 8),)
        assert exact_at(f, f.region_line, gv) == ref.region(gv) == F(3, 4)
        # the reference caps at mu(U) for large gamma; the uncapped line stays above it
        big = (F(63, 128),)
        assert ref.region(big) == F(2)
        assert exact_at(f, f.region_line, big) >= F(2)

    def test_product_shared_needs_one_gamma_hat(self):
        # g and h would read their lines at different lambdas on the shared x
        _, g = univariate_pair()
        _, h = univariate_pair(coeffs=(0, 0, 1))
        assert g.gamma_hat != h.gamma_hat
        with pytest.raises(ValueError, match="same gamma_hat"):
            rule_product(g, h, 0, 1, 1, (1,))
        with pytest.raises(ValueError, match="same gamma_hat"):
            rule_minmax(g, h, "max", 0, 1, 1, (1,))

    def test_invalid_split(self):
        _, g = univariate_pair()
        with pytest.raises(IndexSplitInvalid):
            rule_product(g, g, 2, 1, 1, (1,))

    def test_sandwich_identity_and_scaling(self):
        _, g = univariate_pair()
        same = rule_sandwich(g, 1, 1)
        scaled = rule_sandwich(g, 2)
        gv = (F(1, 4),)
        assert exact_at(same, same.phi_inf_line, gv) == exact_at(g, g.phi_inf_line, gv)
        assert exact_at(same, same.region_line, gv) == exact_at(g, g.region_line, gv)
        assert exact_at(scaled, scaled.phi_inf_line, gv) == 2 * exact_at(g, g.phi_inf_line, gv)
        assert same.phi_sup == g.phi_sup
        assert scaled.phi_sup is None  # lower-bound-only legacy rule

    def test_minmax_bounds(self):
        _, g = univariate_pair()
        _, h = univariate_pair(coeffs=(0, 0, 1), gamma_hat=(F(1, 2),))
        lo = rule_minmax(g, h, "min", 1, 1, 2, (1, 1))
        hi = rule_minmax(g, h, "max", 1, 1, 2, (1, 1))
        gv = (F(1, 2), F(1, 2))
        assert exact_at(lo, lo.phi_inf_line, gv) == F(1, 4)
        assert exact_at(hi, hi.phi_inf_line, gv) == F(1, 2)

    def test_minmax_identical_operands(self):
        _, g = univariate_pair()
        f = rule_minmax(g, g, "max", 1, 1, 2, (1, 1))
        gv = (F(1, 4), F(1, 4))
        assert exact_at(f, f.phi_inf_line, gv) == exact_at(g, g.phi_inf_line, (gv[0],))


class TestInBoxDirect:
    def make(self, width=(2, 2), delta=F(1)):
        desc = PredicateDescription(
            expr=Input(0),
            k=6,
            delta=(delta, delta),
            emax=3,
            analysis_indices=(4, 5),
            a_box=((1, 1), (1, 1)),
        )
        return bounds_inbox_direct(desc, width)

    def test_nu_symmetric(self):
        _, bs = self.make()
        g0 = F(1, 4)
        assert exact_at(bs, bs.region_line, (g0, g0)) == 8 * g0  # 4*(g*dy + g*dx) with dx=dy=1

    def test_phi_x_term(self):
        _, bs = self.make()
        assert exact_at(bs, bs.phi_inf_line, (F(1, 4), F(1, 4))) == abs(F(1, 16) - F(1, 2))

    def test_nu_vanishes(self):
        _, bs = self.make()
        tiny = F(1, 2**30)
        assert exact_at(bs, bs.region_line, (tiny, tiny)) == 8 * tiny

    def test_phi_rejects_vanishing_gamma(self):
        # at gamma = |v - u| the reference rejects and the line gives no
        # positive bound; the analysis reads the line only for lambda <= 1
        _, bs = self.make()
        g = (F(2), F(2))
        with pytest.raises(GammaTooLarge):
            reference_bounds.inbox_direct((2, 2), (1, 1)).phi_inf(g)
        assert exact_at(bs, bs.phi_inf_line, g) == 0


class TestInCircleDirect:
    def make(self, r=1, deltas=(F(1), F(2))):
        desc = PredicateDescription(
            expr=Input(0),
            k=5,
            delta=deltas,
            emax=3,
            analysis_indices=(3, 4),
            a_box=((0, 0), (1, 1)),
        )
        return bounds_incircle_direct(desc, r)

    def test_phi(self):
        _, bs = self.make()
        assert exact_at(bs, bs.phi_inf_line, (F(1, 2), F(1, 2))) == F(3, 4)

    def test_nu_carries_pi(self):
        _, bs = self.make()
        g = (F(1, 8), F(1, 8))
        assert bs.region_line.c.pi_pow == 1
        nu = at(bs, bs.region_line, g)
        want = reference_bounds.incircle_direct(1, (1, 2)).region(g)
        assert want == Sym(F(1, 2), 1)
        assert (nu.lo, nu.hi) == (enclosure(want).lo, enclosure(want).hi)

    def test_phi_limit(self):
        _, bs = self.make()
        tiny = F(1, 2**20)
        assert exact_at(bs, bs.phi_inf_line, (tiny, tiny)) == tiny * (2 - tiny)


class TestInBoxTopdown:
    def make(self, half=(1,), delta=(F(1),), emax=1):
        desc = PredicateDescription(expr=Input(0), k=len(half), delta=delta, emax=emax)
        return bounds_inbox_topdown(desc, half)

    def test_phi_quoted(self):
        _, bs = self.make()
        assert exact_at(bs, bs.phi_inf_line, (F(1, 4),)) == (2 - F(1, 4)) * F(1, 4)

    def test_chi_factor(self):
        _, bs = self.make()
        assert exact_at(bs, bs.region_line, (F(1, 8),)) == F(3, 2)

    def test_chi_limit(self):
        # delta = (1, 2): gamma_hat = (1/4, 1/2), so the limit is taken along the line
        desc = PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(2)), emax=2)
        _, bs = bounds_inbox_topdown(desc, (1, 1))
        assert abs(bs.region_line.value(F(1, 2**20), BITS).exact - F(8)) < F(1, 2**14)

    def test_line_inverse_round_trip(self):
        _, bs = self.make()
        for lam in (F(1, 5), F(1, 2), F(4, 5)):
            v = bs.region_line.value(lam, 96)
            back = bs.region_line.inverse(v.lo, 96)
            assert back.lo <= lam <= back.hi


class TestRationalPrecision:
    def test_equal_components(self):
        calls = []

        def lg(p):
            calls.append(("g", p))
            return 10

        def lh(p):
            calls.append(("h", p))
            return 10

        rp = RationalPrecision(lg, lh)
        assert rp(F(1, 2)) == 10
        assert calls[0][1] == F(3, 4) and calls[1][1] == F(3, 4)

    def test_component_budget(self):
        rp = RationalPrecision(lambda p: 0, lambda p: 0)
        p = F(2, 5)
        q = rp.component_probability(p)
        assert (1 - q) + (1 - q) == 1 - p

    def test_max_contract(self):
        rp = RationalPrecision(lambda p: 17, lambda p: 23)
        assert rp(F(1, 2)) == 23


class TestSweepInvariants:
    """Each bound set against its gamma-vector reference along the line: nu
    from above, chi and phi from below, and monotone in lambda."""

    def line_points(self):
        # 20 log-spaced points on the open line: 2^-20 .. 2^-1
        return [F(1, 2) ** i for i in range(20, 0, -1)]

    def check(self, bs, ref):
        assert bs.kind == ref.kind and bs.mu_u == ref.mu_u
        prev_region = None
        prev_phi = None
        for lam in self.line_points():
            gv = gamma_of_lambda(bs, lam)
            region = bs.region_line.value(lam, BITS)
            want = enclosure(ref.region(gv))
            if bs.kind == "nu":
                assert region.lo >= want.lo
                assert region.lo >= 0
                if prev_region is not None:
                    assert region.lo >= prev_region
            else:
                assert region.hi <= want.hi
                assert region.lo > 0
                if prev_region is not None:
                    assert region.lo <= prev_region
            prev_region = region.lo
            phi = bs.phi_inf_line.value(lam, BITS)
            assert phi.hi <= ref.phi_inf(gv)
            assert phi.lo > 0
            if prev_phi is not None:
                assert phi.lo >= prev_phi
            prev_phi = phi.lo

    def builders(self):
        _, uni = univariate_pair(coeffs=(0, 1, 2))
        yield uni, reference_bounds.univariate((0, 1, 2), 1)
        desc, mv = bounds_multivariate(
            {(1, 1), (2, 0)}, {(1, 1): 1, (2, 0): -3}, (1, 1), product_desc((F(1), F(1))))
        yield mv, reference_bounds.multivariate({(1, 1): 1, (2, 0): -3}, (1, 1), desc.delta)
        yield TestInBoxDirect().make()[1], reference_bounds.inbox_direct((2, 2), (1, 1))
        yield TestInCircleDirect().make()[1], reference_bounds.incircle_direct(1, (1, 2))
        yield TestInBoxTopdown().make()[1], reference_bounds.inbox_topdown((1,), (1,))
        desc = PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(2)), emax=2)
        yield bounds_inbox_topdown(desc, (1, 1))[1], reference_bounds.inbox_topdown((1, 1), (1, 2))

    def test_all_builtins(self):
        for bs, ref in self.builders():
            self.check(bs, ref)

    def test_rule_outputs(self):
        R = reference_bounds
        _, g = univariate_pair(coeffs=(1, 3))
        _, h = univariate_pair(coeffs=(0, 0, 1))
        rg, rh = R.univariate((1, 3), 1), R.univariate((0, 0, 1), 1)
        # shared arguments need one gamma_hat on the shared coordinate
        assert g.gamma_hat != h.gamma_hat
        _, hs = univariate_pair(coeffs=(0, 0, 1), gamma_hat=g.gamma_hat)
        cases = [
            (rule_sandwich(g, 3, 4), R.sandwich(rg, 3)),
            (rule_product(g, h, 1, 1, 2, (1, 1)), R.product(rg, rh, 1, 1, 2, (1, 1))),
            (rule_product(g, hs, 0, 1, 1, (1,)), R.product(rg, rh, 0, 1, 1, (1,))),
            (rule_minmax(g, h, "min", 1, 1, 2, (1, 1)), R.minmax(rg, rh, "min", 1, 1, 2, (1, 1))),
            (rule_minmax(g, h, "max", 1, 1, 2, (1, 1)), R.minmax(rg, rh, "max", 1, 1, 2, (1, 1))),
            (rule_minmax(g, hs, "max", 0, 1, 1, (1,)), R.minmax(rg, rh, "max", 0, 1, 1, (1,))),
        ]
        for bs, ref in cases:
            self.check(bs, ref)

    def test_no_line_form_not_analyzable(self):
        # non-cubical multivariate, and a disjoint product whose nu carries pi
        desc, mv = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), product_desc((F(1), F(2))))
        _, uni = univariate_pair()
        circle = TestInCircleDirect().make()[1]
        prod = rule_product(uni, circle, 1, 1, 3, (1, 1, 2))
        prod_desc = PredicateDescription(expr=Input(0), k=3, delta=(F(1), F(1), F(2)), emax=3)
        for d, bs in ((desc, mv), (prod_desc, prod)):
            assert bs.region_line is None
            with pytest.raises(NotAnalyzable):
                quantified_relations(d, bs, F(1, 2))


def phi_line_at(inst, gamma):
    """phi_inf on the instance's line at gamma = (gamma_0, ...), from above."""
    return inst.bounds.phi_inf_line.value(F(gamma[0]) / inst.bounds.gamma_hat[0], BITS).hi


class TestEmpiricalSoundness:
    def test_phi_bounds_univariate(self):
        # f(x) = (x - 1/4)(x + 1/2), roots known exactly
        coeffs = (-F(1, 8), F(1, 4), F(1))
        inst = make_univariate(coeffs, center=0, delta=1, roots=(F(1, 4), -F(1, 2)))
        gamma = (F(1, 16),)
        phi = phi_line_at(inst, gamma)
        spec = GridSpec(12, 8, inst.desc.emax)
        box = PerturbationBox((0,), (1,))
        rng = SplitMix64(11)
        tested = 0
        while tested < 10_000:
            (x,) = sample_grid_values(box, spec, rng)
            if inst.critical_distance((x,)) <= gamma[0]:
                continue
            tested += 1
            assert abs(rat_eval(inst.expr, [x])) >= phi

    def test_phi_bounds_inbox(self):
        inst = make_inbox((0, 0), (2, 2), (1, 1), delta=F(1, 2))
        gamma = (F(1, 16), F(1, 16))
        phi = phi_line_at(inst, gamma)
        spec = GridSpec(12, 8, inst.desc.emax)
        box = PerturbationBox((1, 1), (F(1, 2), F(1, 2)))
        rng = SplitMix64(13)
        tested = 0
        while tested < 10_000:
            q = sample_grid_values(box, spec, rng)
            if inst.critical_distance(q) <= gamma[0]:
                continue
            tested += 1
            assert abs(rat_eval(inst.expr, inst.assemble(q))) >= phi

    def test_phi_bounds_incircle(self):
        inst = make_incircle((0, 0), 1, (1, 0), delta=F(1, 2))
        gamma = (F(1, 16), F(1, 16))
        phi = phi_line_at(inst, gamma)
        spec = GridSpec(12, 8, inst.desc.emax)
        box = PerturbationBox((1, 0), (F(1, 2), F(1, 2)))
        rng = SplitMix64(17)
        tested = 0
        while tested < 10_000:
            q = sample_grid_values(box, spec, rng)
            if inst.critical_distance(q) <= gamma[0]:
                continue
            tested += 1
            assert abs(rat_eval(inst.expr, inst.assemble(q))) >= phi

    def test_nu_bounds_root_neighborhood_counts(self):
        # 1D: grid points within gamma of any root, versus nu(gamma)
        coeffs = (-F(1, 8), F(1, 4), F(1))
        roots = (F(1, 4), -F(1, 2))
        inst = make_univariate(coeffs, center=0, delta=1, roots=roots)
        d = 2
        spec = GridSpec(9, 8, inst.desc.emax)
        tau = spec.tau
        for gamma in (F(1, 32), F(1, 8), F(1, 4)):
            count = sum(
                1
                for x in enumerate_grid(-1, 1, spec)
                if min(abs(x - r) for r in roots) < gamma
            )
            nu = inst.bounds.region_line.value(gamma / inst.bounds.gamma_hat[0], BITS).lo
            assert count * tau <= nu + 2 * tau * d
