from fractions import Fraction as F

import pytest

from cperturb.exact import ExactPole, rat_eval, rat_sign
from cperturb.expr import Const, Div, Input, Mul, Sub, parse, serialize
from cperturb.errorbounds import annotate, compile_guard, static_bound
from cperturb.geom import inbox_expr, incircle_expr, orientation2d_expr
from cperturb.softfloat import fl_round


class TestRatEval:
    def test_product_minus_one(self):
        e = Sub(Mul(Input(0), Input(1)), Const(F(1)))
        assert rat_eval(e, [2, F(1, 2)]) == 0

    def test_inbox_at_center(self):
        # u=(0,0), v=(2,2), q=(1,1): max{-1, -1} = -1
        e = inbox_expr()
        assert rat_eval(e, [0, 0, 2, 2, 1, 1]) == -1

    def test_pole(self):
        e = Div(Const(F(1)), Input(0))
        with pytest.raises(ExactPole):
            rat_eval(e, [0])

    def test_parse_serialize_roundtrip(self):
        text = "(sub (mul x0 x3) (mul x1 x2))"
        assert serialize(parse(text)) == text


class TestRatSign:
    def test_positive(self):
        e = parse("(add (mul x0 x0) 1)")
        assert rat_sign(e, [5]) == 1

    def test_collinear_zero(self):
        assert rat_sign(orientation2d_expr(), [0, 0, 1, 1, 2, 2]) == 0

    def test_incircle_outside(self):
        # c=(0,0), r=1, q=(2,0): 4 - 1 > 0
        assert rat_sign(incircle_expr(), [0, 0, 1, 2, 0]) == 1


class TestConvergence:
    def test_softfloat_approaches_rational(self):
        e = parse("(sub (mul x0 x1) (mul 1/3 x2))")
        xs = [F(5, 8), F(-3, 4), F(7, 8)]
        exact = rat_eval(e, xs)
        prev_err = None
        guard = compile_guard(e)
        for L in (16, 32, 64, 128):
            inputs = [fl_round(x, L, 10) for x in xs]
            value, _ = guard.evaluate(inputs, L, 10)
            err = abs(value - exact)
            bound = static_bound(annotate(e, 1, prec=L), L)
            assert err <= bound
            if prev_err is not None:
                assert err <= prev_err
            prev_err = err
