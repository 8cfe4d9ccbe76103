"""Compiled guards against the tree-walking reference on random expressions,
and the error bounds they certify with."""

import random
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_guard import coerce_inputs, eval_arithmetic, reference_guarded_eval

from cperturb.errorbounds import _input_pairs, annotate, compile_guard, guarded_eval, static_bound
from cperturb.exact import rat_eval
from cperturb.expr import Abs, Add, Const, Div, Input, Max, Min, Mul, Sub
from cperturb import geom
from cperturb.geom import orientation2d_expr
from cperturb.grid import GridSpec, grid_float
from cperturb.softfloat import RangeError, fl_round

# dyadic and non-dyadic; 2^40 + 1 and 2^-40 leave F_{L,K} at small L or K
CONSTANTS = (F(0), F(1), F(-3, 4), F(5, 8), F(12345, 4096), F(2) ** 40 + 1, F(2) ** -40,
             F(1, 3), F(-2, 7), F(1, 10))


def trees(k: int):
    """Expressions over the inputs x0..x(k-1) and CONSTANTS, up to ten leaves."""
    leaf = st.one_of(
        st.integers(0, k - 1).map(Input),
        st.integers(0, k - 1).map(Input),
        st.sampled_from(CONSTANTS).map(Const),
    )

    def extend(kids):
        binary = st.tuples(st.sampled_from((Add, Sub, Mul, Min, Max)), kids, kids)
        return st.one_of(binary.map(lambda t: t[0](t[1], t[2])), kids.map(Abs))

    return st.recursive(leaf, extend, max_leaves=10)


@st.composite
def cases(draw):
    k = draw(st.integers(1, 4))  # few slots, so inputs repeat
    tree = trees(k)
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


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_pairs_give_the_same_verdict(case):
    e, xs, L, K, emax = case
    verdict = guarded_eval(e, _input_pairs(xs, L, K), L, K, emax, pairs=True)
    assert verdict == guarded_eval(e, xs, L, K, emax) == reference_guarded_eval(e, xs, L, K, emax)


def test_hull_calls_guarded_eval_once_per_evaluation(monkeypatch):
    # the benchmark counts orientation tests by wrapping geom.guarded_eval
    calls = []
    real = geom.guarded_eval

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geom, "guarded_eval", counting)
    rng = random.Random(12)
    kinds = set()
    # K = 4 leaves orientation products of points near 2^6 out of range
    for L, K, emax, side in ((20, 6, 4, 1 << 20), (20, 4, 6, 1 << 20), (6, 5, 3, 4)):
        spec = GridSpec(L, K, emax)
        for _ in range(30):
            n = rng.randint(3, 12)
            pts = [(grid_float(rng.randint(-side, side), spec), grid_float(rng.randint(-side, side), spec))
                   for _ in range(n)]
            calls.clear()
            counter = geom.EvalCounter()
            kind, _ = geom.guarded_convex_hull(pts, L, K, emax, counter)
            kinds.add(kind)
            assert len(calls) == counter.evaluations
    assert kinds == {"success", "guard_failure", "range_error"}
