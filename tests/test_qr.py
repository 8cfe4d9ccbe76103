import random
from fractions import Fraction as F

import pytest

from cperturb.bounds import (
    BoundSet,
    ConstLine,
    MinQuadLine,
    NotAnalyzable,
    PowerLine,
    PredicateDescription,
    Sym,
    bounds_multivariate,
    bounds_univariate,
)
from cperturb.expr import Add, Const, Input, Mul
from cperturb.geom import make_incircle, make_univariate
from cperturb.grid import GridSpec, count_grid, grid_unit
from cperturb.qr import (
    BudgetTooLarge,
    exponent_requirement,
    lgrid,
    probability,
    quantified_relations,
)


def univariate(coeffs=(0, 1), delta=F(1), emax=1, t=F(1, 2)):
    desc = PredicateDescription(expr=Input(0), k=1, delta=(delta,), emax=emax, t=t)
    return bounds_univariate(coeffs, desc)


def monomial_xy(delta=F(1), emax=1):
    desc = PredicateDescription(
        expr=Mul(Input(0), Input(1)), k=2, delta=(delta, delta), emax=emax
    )
    return bounds_multivariate({(1, 1)}, {(1, 1): 1}, (1, 1), desc)


class TestQuantifiedRelations:
    def test_univariate_identity_example(self):
        desc, bs = univariate()
        req = quantified_relations(desc, bs, F(1, 2))
        assert req.L_safe == 7  # ceil(1 + log2 48)
        assert req.eps == 1 and req.gamma == (F(1, 2),) and req.phi == F(1, 4)

    def test_univariate_shift_identity(self, rng):
        for d in (1, 2, 3, 4):
            coeffs = [0] * d + [1]
            desc, bs = univariate(coeffs)
            for _ in range(10):
                p = F(1, 2) + F(rng.randint(1, 999), 2001)
                a = quantified_relations(desc, bs, p).L_safe
                b = quantified_relations(desc, bs, (1 + p) / 2).L_safe
                assert b == a + d

    def test_multivariate_example(self):
        desc, bs = monomial_xy()
        req = quantified_relations(desc, bs, F(1, 4))
        assert req.L_safe == 11  # ceil(2 + log2 384)
        assert req.phi == F(1, 64)

    def test_budget_too_large(self):
        desc, bs = univariate()
        with pytest.raises(BudgetTooLarge):
            quantified_relations(desc, bs, F(1, 4))

    def test_determinism(self):
        desc, bs = monomial_xy()
        a = quantified_relations(desc, bs, F(9, 10))
        b = quantified_relations(desc, bs, F(9, 10))
        assert a.to_json_dict() == b.to_json_dict()

    def test_l_f_is_max(self):
        desc, bs = univariate()
        for p in (F(1, 2), F(3, 4), F(99, 100)):
            req = quantified_relations(desc, bs, p)
            assert req.L_f == max(req.L_safe, req.L_grid)


class TestLgrid:
    def test_example(self):
        assert lgrid([F(1, 8)], F(1, 2), 1) == 4

    def test_specialization_t_half(self):
        # t = 1/2: L_grid = emax - floor(log2 min gamma)
        for emax, g in ((1, F(1, 8)), (3, F(3, 16)), (0, F(1, 5))):
            from cperturb.reals import floor_log2

            assert lgrid([g], F(1, 2), emax) == emax - floor_log2(g)

    def test_halving_adds_one_bit(self, rng):
        for _ in range(100):
            g = F(rng.randint(1, 4096), 2 ** rng.randint(3, 12))
            assert lgrid([g / 2], F(1, 2), 1) == lgrid([g], F(1, 2), 1) + 1

    def test_t_symmetry(self):
        g = [F(5, 64)]
        assert lgrid(g, F(1, 4), 2) == lgrid(g, F(3, 4), 2)

    def test_grid_unit_condition_holds(self):
        # at L = lgrid(gamma), tau <= min(t,1-t) * min gamma
        g = (F(3, 32), F(1, 8))
        t = F(1, 3)
        L = lgrid(g, t, 2)
        assert grid_unit(2, L) <= min(t, 1 - t) * min(g)
        assert grid_unit(2, L - 1) > min(t, 1 - t) * min(g)


class TestExponent:
    def test_brute_force_top_condition(self):
        # phi_sup ~ 2^10, S_inf <= 1: K = 5 is the least with 2^(2^(K-1)) big enough
        desc, bs = univariate(coeffs=(0, 1), emax=0)
        from dataclasses import replace
        from cperturb.bounds import ConstLine, Sym

        bs2 = replace(bs, phi_sup_line=ConstLine(Sym(F(2) ** 10)))
        K = exponent_requirement(desc, bs2, F(3, 4), L=10)
        brute = next(
            k
            for k in range(2, 9)
            if F(2) ** (2 ** (k - 1)) >= F(2) ** 10 + bs2.s_inf(10)
        )
        assert K == brute == 5

    def test_small_constant_phi_sup(self):
        desc, bs = univariate(coeffs=(0, 1), emax=0)
        from dataclasses import replace
        from cperturb.bounds import ConstLine, Sym

        bs2 = replace(bs, phi_sup_line=ConstLine(Sym(F(1))))
        assert bs2.s_inf(10) <= 1
        assert exponent_requirement(desc, bs2, F(3, 4), L=10) == 2

    def test_nondecreasing_in_p(self):
        desc, bs = monomial_xy(emax=1)
        ks = [exponent_requirement(desc, bs, p) for p in (F(1, 2), F(3, 4), F(9, 10))]
        assert ks == sorted(ks)


class TestProbability:
    def test_round_trip(self):
        desc, bs = univariate(coeffs=(0, 0, 1))
        for p in (F(1, 2), F(9, 10), F(99, 100)):
            req = quantified_relations(desc, bs, p)
            rep = probability(desc, bs, req.L_f, req.K_f)
            assert rep.p_f >= p

    def test_clamped_at_tiny_L(self):
        desc, bs = univariate()
        rep = probability(desc, bs, 1, 8)
        assert rep.p_f == 0

    def test_monotone_in_L(self):
        desc, bs = univariate(coeffs=(0, 0, 1))
        prev = F(-1)
        for L in range(8, 65, 4):
            rep = probability(desc, bs, L, 8)
            assert rep.p_f >= prev
            prev = rep.p_f

    def test_incircle_round_trip(self):
        inst = make_incircle((0, 0), 1, (1, 0), delta=F(1, 2))
        p = F(3, 4)
        req = quantified_relations(inst.desc, inst.bounds, p)
        rep = probability(inst.desc, inst.bounds, req.L_f, req.K_f)
        assert rep.p_f >= p


class TestThm1Validation:
    def test_grid_count_vs_volume_exhaustive(self):
        """1D: |R_{t*gamma} cap G| / |U cap G| <= mu(R_gamma) / mu(U)
        whenever L >= lgrid(gamma), for random finite root sets."""
        rng = random.Random(4)
        t = F(1, 2)
        emax = 1
        delta = F(1)
        for _ in range(200):
            n_roots = rng.randint(1, 4)
            roots = [F(rng.randint(-63, 63), 64) for _ in range(n_roots)]
            gamma = F(rng.randint(1, 16), 64)
            L0 = lgrid([gamma], t, emax)
            for L in range(L0, min(L0 + 5, 13)):
                spec = GridSpec(L, 8, emax)
                n_u = count_grid(-delta, delta, spec)
                hits = 0
                tau = spec.tau
                lam_lo, lam_hi = spec.index_range(-delta, delta)
                for lam in range(lam_lo, lam_hi + 1):
                    x = lam * tau
                    if any(abs(x - r) < t * gamma for r in roots):
                        hits += 1
                lhs = F(hits, n_u)
                # mu(R_gamma) within U, computed by interval merging
                intervals = sorted(
                    (max(-delta, r - gamma), min(delta, r + gamma)) for r in roots
                )
                vol = F(0)
                cur_lo, cur_hi = intervals[0]
                for lo, hi in intervals[1:]:
                    if lo > cur_hi:
                        vol += cur_hi - cur_lo
                        cur_lo, cur_hi = lo, hi
                    else:
                        cur_hi = max(cur_hi, hi)
                vol += cur_hi - cur_lo
                rhs = vol / (2 * delta)
                assert lhs <= rhs, (roots, gamma, L)


class TestEmptyRoute:
    """kind 'empty': no critical set, so phi is a constant, L_f comes from
    S_inf alone and there is no grid constraint."""

    PHI = F(3)

    def make(self, phi_line):
        # x0^2 + 3 never vanishes
        desc = PredicateDescription(
            expr=Add(Mul(Input(0), Input(0)), Const(3)), k=1, delta=(F(1),), emax=1
        )
        bs = BoundSet(
            kind="empty",
            region_line=None,
            phi_inf_line=phi_line,
            phi_sup_line=ConstLine(Sym(F(7))),
            s_inf_coeff=F(100),
            gamma_hat=(F(1, 2),),
            mu_u=F(2),
        )
        return desc, bs

    def test_requirement(self):
        desc, bs = self.make(ConstLine(Sym(self.PHI)))
        for p in (F(1, 10), F(1, 2), F(99, 100)):
            req = quantified_relations(desc, bs, p)
            assert req.route == "empty"
            assert req.L_f == req.L_safe == bs.s_inf_inverse_L(self.PHI) == 6  # ceil(log2(100/3))
            assert req.L_grid == 0
            assert req.phi == self.PHI and req.exact
            assert exponent_requirement(desc, bs, p) == req.K_f
            assert exponent_requirement(desc, bs, p, L=req.L_f) == req.K_f

    def test_probability_clamps(self):
        desc, bs = self.make(ConstLine(Sym(self.PHI)))
        L = quantified_relations(desc, bs, F(1, 2)).L_f
        K = exponent_requirement(desc, bs, F(1, 2))
        ok = probability(desc, bs, L, K)
        assert (ok.p_inf, ok.p_grid, ok.p_sup) == (1, 1, 1)
        assert {"p_inf", "p_grid"} <= set(ok.clamped)
        short = probability(desc, bs, L - 1, K)  # S_inf(L - 1) = 100/32 > 3
        assert (short.p_inf, short.p_grid, short.p_f) == (0, 1, 0)
        assert {"p_inf", "p_grid"} <= set(short.clamped)

    @pytest.mark.parametrize("phi_line", [PowerLine(Sym(F(3)), 1), ConstLine(Sym(F(3), 1))],
                             ids=["non_constant", "irrational"])
    def test_needs_rational_constant_phi(self, phi_line):
        desc, bs = self.make(phi_line)
        with pytest.raises(NotAnalyzable):
            quantified_relations(desc, bs, F(1, 2))
        with pytest.raises(NotAnalyzable):
            exponent_requirement(desc, bs, F(1, 2))

    @pytest.mark.parametrize("phi_line", [PowerLine(Sym(F(3)), 1), MinQuadLine(((F(3), F(1)),))],
                             ids=["power", "min_quad"])
    def test_probability_needs_constant_phi(self, phi_line):
        desc, bs = self.make(phi_line)
        for call in (lambda: quantified_relations(desc, bs, F(1, 2)),
                     lambda: probability(desc, bs, 8, 8)):
            with pytest.raises(NotAnalyzable, match="^empty critical set needs a constant phi$"):
                call()
