"""Compiled guards against the tree-walking reference on random expressions,
and the error bounds they certify with."""

import random
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_grid import grid_float
from reference_guard import coerce_inputs, eval_arithmetic, reference_guarded_eval
from test_guard_exact_stage import members

from cperturb.errorbounds import _input_pairs, _on_one_exponent, annotate, compile_guard, guarded_eval, static_bound
from cperturb.exact import rat_eval
from cperturb.expr import Abs, Add, Const, Div, Input, Max, Min, Mul, Sub
from cperturb import geom
from cperturb.geom import orientation2d_expr
from cperturb.grid import GridSpec
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
    # the inputs' pairs, as integers on the least exponent: integer mode
    e, xs, L, K, emax = case
    ms, q = on_one_exponent(_input_pairs(xs, L, K))
    verdict = guarded_eval(e, ms, L, K, emax, q)
    assert verdict == guarded_eval(e, xs, L, K, emax) == reference_guarded_eval(e, xs, L, K, emax)


def on_one_exponent(pairs, below=0):
    """Pairs (M, q) as integers m_i on one exponent q, `below` bits under the
    least exponent of the nonzero pairs."""
    q = min((q for M, q in pairs if M), default=0) - below
    return [M << (p - q) if M else 0 for M, p in pairs], q


@st.composite
def homogeneous(draw, k: int, degree: int, depth: int = 3):
    """A tree of the given degree over x0..x(k-1) with no constants, each
    Add, Sub, Min and Max joining two trees of one degree."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if degree == 1:
            return Input(draw(st.integers(0, k - 1)))
        kind = Mul
    else:
        kind = draw(st.sampled_from((Add, Sub, Min, Max, Abs) + ((Mul,) * 2 if degree > 1 else ())))
    if kind is Abs:
        return Abs(draw(homogeneous(k, degree, depth - 1)))
    if kind is Mul:
        a = draw(st.integers(1, degree - 1))
        return Mul(draw(homogeneous(k, a, max(depth - 1, 0))), draw(homogeneous(k, degree - a, max(depth - 1, 0))))
    return kind(draw(homogeneous(k, degree, depth - 1)), draw(homogeneous(k, degree, depth - 1)))


def mixed(k: int):
    """A join of two homogeneous trees of different degrees."""
    kinds = st.sampled_from((Add, Sub, Min, Max))
    return st.builds(lambda kind, a, b: kind(a, b), kinds, homogeneous(k, 1), homogeneous(k, 2))


@st.composite
def integer_mode_cases(draw):
    """Homogeneous, mixed-degree and other trees, on grids up to a 2^200
    scale, with grid indices at 0, +-1 and +-2^(L+1), points below 2^e_min,
    any other members of the box [-2^emax, 2^emax] (off the grid, subnormal),
    and the shared exponent q up to 300 bits below the inputs' least one."""
    k = draw(st.integers(1, 4))
    homogeneous_k = homogeneous(k, draw(st.integers(1, 3)))
    e = draw(st.one_of(homogeneous_k, homogeneous_k, mixed(k), mixed(k), trees(k)))
    if draw(st.sampled_from((False,) * 9 + (True,))):
        e = Div(e, draw(st.one_of(homogeneous(k, 1), trees(k))))
    L = draw(st.integers(2, 60))
    emax = draw(st.one_of(st.integers(0, 2), st.integers(0, 40), st.integers(198, 202)))
    K = (emax + 2).bit_length() + 1 + draw(st.integers(0, 3))  # emax + 1 < 2^(K-1)
    spec = GridSpec(L, K, emax)
    edge = 1 << (L + 1)
    big = st.integers(edge // 8, edge - 1)  # far from zero, so that N often clears T
    lams = st.one_of(big, big.map(lambda lam: -lam), st.integers(-edge, edge),
                     st.sampled_from((0, 1, -1, edge, -edge)), st.integers(-64, 64))
    xs = [draw(st.one_of(lams.map(lambda lam: grid_float(lam, spec)), members(L, K, emax))) for _ in range(k)]
    below = draw(st.sampled_from((0, 0, 0, 1, 7, 300)))
    return e, xs, L, K, emax, below


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(integer_mode_cases())
def test_integer_mode_equals_reference(case):
    e, xs, L, K, emax, below = case
    ms, q = on_one_exponent(_input_pairs(xs, L, K), below)
    assert guarded_eval(e, ms, L, K, emax, q) == reference_guarded_eval(e, xs, L, K, emax)


@st.composite
def edge_cases(draw):
    """trees(k) with every input at -2^emax, 0 or 2^emax (at least one at an
    end) or at a grid point next to them."""
    k = draw(st.integers(1, 4))
    e = draw(trees(k))
    L = draw(st.integers(2, 60))
    emax = draw(st.one_of(st.integers(0, 2), st.integers(0, 40), st.integers(198, 202)))
    K = (emax + 2).bit_length() + 1 + draw(st.integers(0, 3))  # emax + 1 < 2^(K-1)
    spec = GridSpec(L, K, emax)
    edge = 1 << (L + 1)
    lams = [draw(st.sampled_from((edge, -edge, edge, -edge, 0, edge - 1, 1 - edge))) for _ in range(k)]
    lams[draw(st.integers(0, k - 1))] = draw(st.sampled_from((edge, -edge)))
    return e, [grid_float(lam, spec) for lam in lams], L, K, emax


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_cases())
def test_integer_mode_at_the_box_edge_equals_reference(case):
    # the range-safe record gives every input sup 2^emax, so inputs of exactly
    # +-2^emax are admitted, and integer mode decides them as any other
    e, xs, L, K, emax = case
    ms, q = _on_one_exponent(xs, L, K, emax)
    assert max(map(abs, ms)) * F(2) ** q == 2 ** emax
    assert guarded_eval(e, ms, L, K, emax, q) == reference_guarded_eval(e, xs, L, K, emax)
    assert guarded_eval(e, xs, L, K, emax) == reference_guarded_eval(e, xs, L, K, emax)


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
