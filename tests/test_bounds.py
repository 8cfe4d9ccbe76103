from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

from cperturb.bounds import (
    ArityTooLarge,
    GammaTooLarge,
    IndexSplitInvalid,
    PredicateDescription,
    Sym,
    bounds_inbox_direct,
    bounds_inbox_topdown,
    bounds_incircle_direct,
    bounds_multivariate,
    bounds_univariate,
    choose_beta,
    rational_precision,
    rule_minmax,
    rule_product,
    rule_sandwich,
    select_beta,
)
from cperturb.exact import rat_eval
from cperturb.expr import Input, Mul
from cperturb.geom import make_inbox, make_incircle, make_univariate
from cperturb.grid import GridSpec, PerturbationBox, SplitMix64, enumerate_grid, sample_grid_values
from cperturb.reals import RVal


def univariate_pair(coeffs=(0, 1), delta=F(1), emax=1):
    desc = PredicateDescription(expr=Input(0), k=1, delta=(delta,), emax=emax)
    return bounds_univariate(coeffs, desc)


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
        {"t": F(0)}, {"t": F(1)}, {"a_box": ((F(4), F(4)),)},
    ])
    def test_replace_still_validates(self, change):
        with pytest.raises(ValueError):
            replace(self.DESCS[0].with_gamma_hat((F(1, 4),)), **change)

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
        assert bs.nu_gamma((F(1, 4),)) == F(1, 2)  # 2*d*gamma
        assert bs.phi_inf_gamma((F(1, 4),)) == F(1, 4)

    def test_cubic_phi(self):
        _, bs = univariate_pair(coeffs=(0, 0, 0, 2))
        assert bs.phi_inf_gamma((F(1, 4),)) == 2 * F(1, 4) ** 3

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


class TestMultivariate:
    def test_quoted_closed_forms(self):
        desc = PredicateDescription(
            expr=Mul(Input(0), Input(1)), k=2, delta=(F(1), F(1)), emax=1
        )
        desc, bs = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), desc)
        g = (F(1, 4), F(1, 4))
        assert bs.phi_inf_gamma(g) == F(1, 16)
        assert bs.chi_gamma(g) == F(9, 4)

    def test_gamma_to_zero_limit(self):
        desc = PredicateDescription(
            expr=Mul(Input(0), Input(1)), k=2, delta=(F(1), F(2)), emax=2
        )
        desc, bs = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), desc)
        tiny = (F(1, 2**20), F(1, 2**20))
        assert abs(bs.chi_gamma(tiny) - desc.mu_u) < F(1, 2**15)

    def test_gamma_too_large(self):
        desc = PredicateDescription(
            expr=Mul(Input(0), Input(1)), k=2, delta=(F(1), F(1)), emax=1
        )
        desc, bs = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), desc)
        with pytest.raises(GammaTooLarge):
            bs.chi_gamma((F(2), F(2)))

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
        desc = PredicateDescription(
            expr=Mul(Input(0), Input(1)), k=2, delta=(F(1), F(1)), emax=1
        )
        _, direct = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), desc)
        for lam_num in range(1, 8):
            gv = (F(lam_num, 16), F(lam_num, 16))
            assert f.chi_gamma(gv) == direct.chi_gamma(gv)
            assert f.phi_inf_gamma(gv) == direct.phi_inf_gamma(gv)

    def test_product_shared_all(self):
        _, g = univariate_pair()
        _, h = univariate_pair(coeffs=(0, 0, 1))
        f = rule_product(g, h, 0, 1, 1, (1,))
        gv = (F(1, 8),)
        expected = min(F(2), g.nu_gamma(gv) + h.nu_gamma(gv))
        assert f.nu_gamma(gv) == expected
        # the cap engages for large gamma
        big = (F(63, 128),)
        assert f.nu_gamma(big) == min(F(2), g.nu_gamma(big) + h.nu_gamma(big))

    def test_invalid_split(self):
        _, g = univariate_pair()
        with pytest.raises(IndexSplitInvalid):
            rule_product(g, g, 2, 1, 1, (1,))

    def test_sandwich_identity_and_scaling(self):
        _, g = univariate_pair()
        same = rule_sandwich(g, 1, 1)
        scaled = rule_sandwich(g, 2)
        gv = (F(1, 4),)
        assert same.phi_inf_gamma(gv) == g.phi_inf_gamma(gv)
        assert same.nu_gamma(gv) == g.nu_gamma(gv)
        assert scaled.phi_inf_gamma(gv) == 2 * g.phi_inf_gamma(gv)
        assert scaled.phi_sup_line is None  # lower-bound-only legacy rule

    def test_minmax_bounds(self):
        _, g = univariate_pair()
        _, h = univariate_pair(coeffs=(0, 0, 1))
        lo = rule_minmax(g, h, "min", 1, 1, 2, (1, 1))
        hi = rule_minmax(g, h, "max", 1, 1, 2, (1, 1))
        gv = (F(1, 2), F(1, 2))
        assert lo.phi_inf_gamma(gv) == F(1, 4)
        assert hi.phi_inf_gamma(gv) == F(1, 2)

    def test_minmax_identical_operands(self):
        _, g = univariate_pair()
        f = rule_minmax(g, g, "max", 1, 1, 2, (1, 1))
        gv = (F(1, 4), F(1, 4))
        assert f.phi_inf_gamma(gv) == g.phi_inf_gamma((gv[0],))


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
        assert bs.nu_gamma((g0, g0)) == 8 * g0  # 4*(g*dy + g*dx) with dx=dy=1

    def test_phi_x_term(self):
        _, bs = self.make()
        assert bs.phi_inf_gamma((F(1, 4), F(1, 4))) == abs(F(1, 16) - F(1, 2))

    def test_nu_vanishes(self):
        _, bs = self.make()
        tiny = F(1, 2**30)
        assert bs.nu_gamma((tiny, tiny)) == 8 * tiny

    def test_phi_rejects_vanishing_gamma(self):
        _, bs = self.make()
        with pytest.raises(GammaTooLarge):
            bs.phi_inf_gamma((F(2), F(2)))


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
        assert bs.phi_inf_gamma((F(1, 2), F(1, 2))) == F(3, 4)

    def test_nu_carries_pi(self):
        _, bs = self.make()
        nu = bs.nu_gamma((F(1, 8), F(1, 8)))
        assert isinstance(nu, Sym) and nu.pi_pow == 1 and nu.rat == F(1, 2)

    def test_phi_limit(self):
        _, bs = self.make()
        tiny = F(1, 2**20)
        assert bs.phi_inf_gamma((tiny, tiny)) == tiny * (2 - tiny)


class TestInBoxTopdown:
    def make(self, half=(1,), delta=(F(1),), emax=1):
        desc = PredicateDescription(expr=Input(0), k=len(half), delta=delta, emax=emax)
        return bounds_inbox_topdown(desc, half)

    def test_phi_quoted(self):
        _, bs = self.make()
        assert bs.phi_inf_gamma((F(1, 4),)) == (2 - F(1, 4)) * F(1, 4)

    def test_chi_factor(self):
        _, bs = self.make()
        assert bs.chi_gamma((F(1, 8),)) == F(3, 2)

    def test_chi_limit(self):
        desc = PredicateDescription(expr=Input(0), k=2, delta=(F(1), F(2)), emax=2)
        _, bs = bounds_inbox_topdown(desc, (1, 1))
        tiny = (F(1, 2**20), F(1, 2**20))
        assert abs(bs.chi_gamma(tiny) - F(8)) < F(1, 2**14)

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

        rp = rational_precision(lg, lh)
        assert rp(F(1, 2)) == 10
        assert calls[0][1] == F(3, 4) and calls[1][1] == F(3, 4)

    def test_component_budget(self):
        rp = rational_precision(lambda p: 0, lambda p: 0)
        p = F(2, 5)
        q = rp.component_probability(p)
        assert (1 - q) + (1 - q) == 1 - p

    def test_max_contract(self):
        rp = rational_precision(lambda p: 17, lambda p: 23)
        assert rp(F(1, 2)) == 23


class TestSweepInvariants:
    def line_points(self):
        # 20 log-spaced points on the open line: 2^-20 .. 2^-1
        return [F(1, 2) ** i for i in range(20, 0, -1)]

    def check(self, bs):
        prev_region = None
        prev_phi = None
        for lam in self.line_points():
            gv = bs.gamma_of_lambda(lam)
            if bs.nu_gamma is not None:
                nu = bs.nu_gamma(gv)
                nu = nu.rat if isinstance(nu, Sym) else nu
                assert nu >= 0
                if prev_region is not None:
                    assert nu >= prev_region
                prev_region = nu
            else:
                chi = bs.chi_gamma(gv)
                assert chi > 0
                if prev_region is not None:
                    assert chi <= prev_region
                prev_region = chi
            phi = bs.phi_inf_gamma(gv)
            assert phi > 0
            if prev_phi is not None:
                assert phi >= prev_phi
            prev_phi = phi
            # line form agrees with (or conservatively under-reports) gamma form
            if bs.region_line is not None:
                lv = bs.region_line.value(lam, 128)
                if bs.kind == "chi":
                    assert lv.hi <= bs.chi_gamma(gv)

    def test_all_builtins(self):
        _, uni = univariate_pair(coeffs=(0, 1, 2))
        self.check(uni)
        desc = PredicateDescription(
            expr=Mul(Input(0), Input(1)), k=2, delta=(F(1), F(1)), emax=1
        )
        _, mv = bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), desc)
        self.check(mv)
        self.check(TestInBoxDirect().make()[1])
        self.check(TestInCircleDirect().make()[1])
        self.check(TestInBoxTopdown().make()[1])


class TestEmpiricalSoundness:
    def test_phi_bounds_univariate(self):
        # f(x) = (x - 1/4)(x + 1/2), roots known exactly
        coeffs = (-F(1, 8), F(1, 4), F(1))
        inst = make_univariate(coeffs, center=0, delta=1, roots=(F(1, 4), -F(1, 2)))
        gamma = (F(1, 16),)
        phi = inst.bounds.phi_inf_gamma(gamma)
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
        phi = inst.bounds.phi_inf_gamma(gamma)
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
        phi = inst.bounds.phi_inf_gamma(gamma)
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
            nu = inst.bounds.nu_gamma((gamma,))
            assert count * tau <= nu + 2 * tau * d
