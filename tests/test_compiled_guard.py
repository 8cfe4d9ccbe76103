"""Compiled guards against the tree-walking reference on random expressions,
and the error bounds they certify with."""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_guard import coerce_inputs, eval_arithmetic, reference_guarded_eval

from cperturb.errorbounds import _input_pairs, annotate, compile_guard, guarded_eval, static_bound
from cperturb.exact import rat_eval
from cperturb.expr import Abs, Add, Const, Div, Input, Max, Min, Mul, Sub
from cperturb.geom import orientation2d_expr
from cperturb.grid import GridSpec, grid_float
from cperturb.softfloat import RangeError, fl_round

# dyadic and non-dyadic; 2^40 + 1 and 2^-40 leave F_{L,K} at small L or K
CONSTANTS = (F(0), F(1), F(-3, 4), F(5, 8), F(12345, 4096), F(2) ** 40 + 1, F(2) ** -40,
             F(1, 3), F(-2, 7), F(1, 10))


@st.composite
def cases(draw):
    k = draw(st.integers(1, 4))  # few slots, so inputs repeat
    leaf = st.one_of(
        st.integers(0, k - 1).map(Input),
        st.integers(0, k - 1).map(Input),
        st.sampled_from(CONSTANTS).map(Const),
    )

    def extend(kids):
        binary = st.tuples(st.sampled_from((Add, Sub, Mul, Min, Max)), kids, kids)
        return st.one_of(binary.map(lambda t: t[0](t[1], t[2])), kids.map(Abs))

    tree = st.recursive(leaf, extend, max_leaves=10)
    e = draw(tree)
    if draw(st.booleans()):
        e = Div(e, draw(tree))
    L = draw(st.integers(2, 60))
    K = draw(st.integers(3, 9))
    emax = draw(st.integers(0, (1 << (K - 1)) - 2))  # the grid needs emax + 1 < 2^(K-1)
    spec = GridSpec(L, K, emax)
    edge = 1 << (L + 1)
    xs = [grid_float(draw(st.integers(-edge, edge)), spec) for _ in range(k)]
    if draw(st.booleans()):
        xs = [v.to_fraction() for v in xs]
    return e, xs, L, K, emax


def _reference_block(e, xs, L, K):
    try:
        info = eval_arithmetic(e, coerce_inputs(xs, L, K), L, K)
    except RangeError as exc:
        return exc.source_op
    return info.value.to_fraction(), info.ind * info.dynsup * F(2) ** -L


def _compiled_block(e, xs, L, K):
    try:
        return compile_guard(e).evaluate(xs, L, K)
    except RangeError as exc:
        return exc.source_op


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_compiled_verdict_equals_reference(case):
    e, xs, L, K, emax = case
    # RangeErrorVerdict compares its source_op too
    assert guarded_eval(e, xs, L, K, emax) == reference_guarded_eval(e, xs, L, K, emax)
    if not isinstance(e, Div):
        # fl(e) and ind * dynsup * 2^-L with e taken as one block
        got = _compiled_block(e, xs, L, K)
        assert got == _reference_block(e, xs, L, K)
        if isinstance(got, tuple):  # no range error: the bounds hold
            value, raw = got
            exact = rat_eval(e, [v if isinstance(v, F) else v.to_fraction() for v in xs])
            assert abs(value - exact) <= min(raw, static_bound(annotate(e, emax, prec=L), L))


def test_zero_input_at_wide_exponent_field():
    # zero enters as (0, 0): an exponent of e_min - L would shift the other
    # operand of every addition by about 2^(K-1) bits
    L, K, emax = 53, 17, 200
    zero = fl_round(F(0), L, K)
    assert _input_pairs([zero, F(0), 0], L, K) == [(0, 0)] * 3
    spec = GridSpec(L, K, emax)
    xs = [grid_float(i, spec) for i in (0, 3, 5, 0, -7, 11)]
    e = orientation2d_expr()
    assert guarded_eval(e, xs, L, K, emax) == reference_guarded_eval(e, xs, L, K, emax)
    assert _compiled_block(e, xs, L, K) == _reference_block(e, xs, L, K)
