import random
import re
from fractions import Fraction as F

import pytest

from cperturb.errorbounds import (
    GuardFailed,
    RangeErrorVerdict,
    SignCertified,
    UnsupportedNode,
    _guard_of,
    annotate,
    compile_guard,
    guarded_eval,
    safety_lower_multivariate,
    safety_lower_univariate,
    static_bound,
    value_quantum,
)
from cperturb.exact import ExactPole, rat_eval, rat_sign
from cperturb.expr import Abs, Add, Const, Div, Input, Max, Min, Mul, Sub, parse
from cperturb.geom import orientation2d_expr
from cperturb.grid import GridSpec, InadmissibleInput, PerturbationBox, SplitMix64, sample_grid_values
from cperturb.softfloat import fl_round


def chain_product(k: int, coeff=F(1, 3)) -> "Expr":
    e = Const(coeff)
    for i in range(k):
        e = Mul(e, Input(i))
    return e


class TestAnnotate:
    def test_kfold_product(self):
        # a * x1 * ... * xk left to right: ind = k+1, sup = max(|a|, |fl(a)|) * 2^(k*emax)
        a = max(F(1, 3), fl_round(F(1, 3), 12, 64).to_fraction())
        for k in (1, 3, 5):
            ann = annotate(chain_product(k), 2, prec=12)
            assert ann.ind == k + 1
            assert ann.sup == a * F(2) ** (k * 2)

    def test_single_input(self):
        ann = annotate(Input(0), 3, prec=8)
        assert (ann.ind, ann.sup) == (0, 8)

    def test_add_row(self):
        ann = annotate(Add(Input(0), Input(1)), 1, prec=8)
        assert (ann.ind, ann.sup) == (1, 4)

    def test_minmax_rows(self):
        ann = annotate(Max(Input(0), Add(Input(0), Input(1))), 1, prec=8)
        assert (ann.ind, ann.sup) == (1, 4)
        ann = annotate(Abs(Add(Input(0), Input(1))), 1, prec=8)
        assert (ann.ind, ann.sup) == (1, 4)

    def test_representable_constant_at_prec(self):
        assert annotate(Const(F(3, 4)), 0, prec=4).ind == 0
        assert annotate(Const(F(1, 3)), 0, prec=4).ind == 1

    def test_div_refused(self):
        with pytest.raises(UnsupportedNode):
            annotate(Div(Input(0), Input(1)), 1, prec=8)


class TestStaticBound:
    def test_kfold_closed_form(self):
        k, L = 4, 12
        ann = annotate(chain_product(k), 2, prec=L)
        a = max(F(1, 3), fl_round(F(1, 3), L, 64).to_fraction())
        assert static_bound(ann, L) == (k + 1) * a * F(2) ** (k * 2 - L)

    def test_input_is_exact(self):
        assert static_bound(annotate(Input(0), 5, prec=10), 10) == 0

    def test_halving(self):
        e = parse("(sub (mul x0 x1) (mul x2 x3))")
        for L in (4, 9, 17):
            assert static_bound(annotate(e, 3, prec=L + 1), L + 1) == static_bound(annotate(e, 3, prec=L), L) / 2


def dynamic_bound(e, xs, L, K, emax):
    """The input-dependent bound min(raw, static), as criterion 6 takes it
    (the compiled guard memoized on e)."""
    _, raw = _guard_of(e).evaluate(xs, L, K)
    return min(raw, static_bound(annotate(e, emax, prec=L), L))


class TestDynamicBound:
    def test_product_uses_actual_magnitudes(self):
        k, L, K = 3, 16, 8
        e = chain_product(k)
        xs = [fl_round(F(1, 2), L, K) for _ in range(k)]
        got = dynamic_bound(e, xs, L, K, emax=2)
        coeff = fl_round(F(1, 3), L, K).to_fraction()
        expected = (k + 1) * (max(F(1, 3), coeff) * F(1, 8)) * F(2) ** (-L)
        assert got == expected

    def test_zero_input_zero_bound(self):
        e = Mul(Mul(Input(0), Input(1)), Input(2))
        xs = [fl_round(v, 12, 8) for v in (0, F(3, 4), F(1, 2))]
        assert dynamic_bound(e, xs, 12, 8, emax=1) == 0

    def test_dynamic_below_static(self, rng):
        e = parse("(sub (mul x0 x1) (mul x2 x3))")
        spec = GridSpec(10, 8, 1)
        box = PerturbationBox((0, 0, 0, 0), (1, 1, 1, 1))
        sm = SplitMix64(31337)
        ann = annotate(e, 1, prec=10)
        guard = compile_guard(e)
        for _ in range(10_000):
            vals = sample_grid_values(box, spec, sm)
            xs = [fl_round(v, 10, 8) for v in vals]
            dyn = dynamic_bound(e, xs, 10, 8, emax=1)
            assert dyn <= static_bound(ann, 10)
            exact = rat_eval(e, vals)
            approx, _ = guard.evaluate(xs, 10, 8)
            assert abs(approx - exact) <= dyn


class TestGuardedEval:
    def test_identity_certified(self):
        assert guarded_eval(Input(0), [1], 16, 8, 1) == SignCertified(1)

    def test_inputs_outside_the_floats_are_inadmissible(self):
        # 2^300 overflows F_{24,8} and 2^-300 lies below its subnormals: both
        # once escaped the input check as RangeError, unlike 1/3
        e = parse("(sub x0 x1)")
        wide = fl_round(F(2) ** -300, 52, 11)  # a member of another format, taken by value
        for v in (F(2) ** 300, -F(2) ** 300, F(2) ** -300, F(1, 3), wide):
            with pytest.raises(InadmissibleInput, match=re.escape("is not exactly representable in F_{24,8}")):
                guarded_eval(e, [v, 1], 24, 8, 3)
        assert guarded_eval(e, [fl_round(F(3, 4), 52, 11), 1], 24, 8, 3) == SignCertified(-1)

    def test_collinear_never_certified(self):
        e = orientation2d_expr()
        for L in (4, 8, 16, 32, 64):
            v = guarded_eval(e, [0, 0, 1, 1, 2, 2], L, 8, 2)
            assert isinstance(v, GuardFailed)

    def test_exact_zero_product_difference(self):
        e = parse("(sub (mul x0 x1) (mul x2 x3))")
        x = [F(3, 4), F(3, 4), F(9, 16), 1]
        assert rat_sign(e, x) == 0
        assert isinstance(guarded_eval(e, x, 4, 8, 1), GuardFailed)
        assert isinstance(guarded_eval(e, x, 40, 8, 1), GuardFailed)

    def test_low_precision_fails_high_certifies(self):
        e = parse("(sub (mul x0 x1) (mul x2 x3))")
        x = [F(3, 4), F(3, 4), F(9, 16), F(15, 16)]  # exact value 9/256
        assert rat_sign(e, x) != 0
        assert isinstance(guarded_eval(e, x, 4, 8, 1), GuardFailed)
        v = guarded_eval(e, x, 40, 8, 1)
        assert v == SignCertified(rat_sign(e, x))

    def test_division_at_root(self):
        e = Div(Input(0), Input(1))
        assert guarded_eval(e, [F(1, 2), F(-1, 4)], 16, 8, 1) == SignCertified(-1)
        assert isinstance(guarded_eval(e, [F(1, 2), 0], 16, 8, 1), GuardFailed)

    def test_overflow_reports_range_error(self):
        e = Mul(Mul(Input(0), Input(0)), Mul(Input(0), Input(0)))
        big = fl_round(F(2) ** 7, 4, 4)
        v = guarded_eval(e, [big], 4, 4, 8)
        assert isinstance(v, RangeErrorVerdict)

    def test_underflow_reports_range_error(self):
        e = Mul(Input(0), Input(1))
        tiny = fl_round(F(3, 64), 4, 4)  # product 9/4096 is inexact below 2^-7
        v = guarded_eval(e, [tiny, tiny], 4, 4, 0)
        assert isinstance(v, RangeErrorVerdict)

    def test_guard_implication_from_static_bound(self, rng):
        # exact |f(x)| > 2 * static bound forces certification
        e = parse("(sub (mul x0 x1) (mul x2 x3))")
        L, K = 12, 8
        ann = annotate(e, 1, prec=L)
        threshold = 2 * static_bound(ann, L)
        spec = GridSpec(L, K, 1)
        box = PerturbationBox((0, 0, 0, 0), (1, 1, 1, 1))
        sm = SplitMix64(5)
        hits = 0
        while hits < 500:
            vals = sample_grid_values(box, spec, sm)
            if abs(rat_eval(e, vals)) <= threshold:
                continue
            hits += 1
            v = guarded_eval(e, vals, L, K, 1)
            assert v == SignCertified(rat_sign(e, vals))

    def test_soundness_sample(self, rng):
        e = orientation2d_expr()
        spec = GridSpec(16, 8, 1)
        box = PerturbationBox((0,) * 6, (1,) * 6)
        sm = SplitMix64(77)
        for _ in range(2000):
            vals = sample_grid_values(box, spec, sm)
            v = guarded_eval(e, vals, 16, 8, 1)
            if isinstance(v, SignCertified):
                assert v.sign == rat_sign(e, vals)

    def test_minmax_child_guarding(self):
        e = Max(Input(0), Input(1))
        assert guarded_eval(e, [F(-1, 2), F(-1, 4)], 8, 6, 1) == SignCertified(-1)
        assert guarded_eval(e, [F(-1, 2), F(1, 4)], 8, 6, 1) == SignCertified(1)
        assert isinstance(guarded_eval(e, [F(0), F(-1, 4)], 8, 6, 1), GuardFailed)
        e2 = Min(Input(0), Input(1))
        assert guarded_eval(e2, [F(1, 2), F(1, 4)], 8, 6, 1) == SignCertified(1)
        assert guarded_eval(e2, [F(1, 2), F(-1, 4)], 8, 6, 1) == SignCertified(-1)


class TestSafetyBounds:
    def test_univariate_example(self):
        assert safety_lower_univariate(1, (0, 1), 0, 10) == 3 * F(2) ** (-9)

    def test_univariate_halving(self):
        for L in (5, 9):
            assert safety_lower_univariate(3, (1, 2, 1, 1), 2, L + 1) == (
                safety_lower_univariate(3, (1, 2, 1, 1), 2, L) / 2
            )

    def test_univariate_degree_two(self):
        assert safety_lower_univariate(2, (1, 1, 1), 1, 20) == F(2) ** (-14)

    def test_multivariate_example(self):
        assert safety_lower_multivariate(2, 1, 1, 1, 10) == 3 * F(2) ** (-7)

    def test_multivariate_single_term_log(self):
        # N_T = 1 kills the log term
        assert safety_lower_multivariate(3, 1, 2, 0, 8) == 4 * 2 * F(2) ** (1 - 8)

    def test_multivariate_halving(self):
        a = safety_lower_multivariate(2, 5, F(3, 2), 1, 12)
        b = safety_lower_multivariate(2, 5, F(3, 2), 1, 13)
        assert b == a / 2


class TestValueQuantum:
    def test_orientation(self):
        # inputs are multiples of tau = 2^(emax-L-1); the products double that
        e = orientation2d_expr()
        assert value_quantum(e, 1, 10) == 2 * (1 - 10 - 1)

    def test_identity(self):
        assert value_quantum(Input(0), 1, 10) == -10
