"""One error plan per expression: the fold of each block's plan against the
node walks it replaced.

The static bound equals annotate's, the range-safe record equals the old
record at every K tried, and value_quantum equals the old walk; a zero
constant is compared through the requirements that read the quantum.
value_quantum writes no block code.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_guard import reference_range_safe, reference_value_quantum

from cperturb import errorbounds
from cperturb.errorbounds import _Block, _guard_of, annotate, static_bound, value_quantum
from cperturb.expr import Abs, Add, Const, Div, Input, Max, Min, Mul, Sub
from cperturb.geom import orientation2d_expr

# dyadic, some not representable at small L or outside F_{L,K} at small K,
# and non-dyadic
CONSTANTS = (F(0), F(1), F(-3, 4), F(5, 8), F(12345, 4096), F(2) ** 40 + 1, F(2) ** -40,
             F(2) ** -200, F(-7, 2), F(1, 3), F(-2, 7), F(1, 10))


def trees(k: int):
    leaf = st.one_of(
        st.integers(0, k - 1).map(Input),
        st.integers(0, k - 1).map(Input),
        st.sampled_from(CONSTANTS).map(Const),
    )

    def extend(kids):
        binary = st.tuples(st.sampled_from((Add, Sub, Mul, Add, Sub, Mul, Min, Max)), kids, kids)
        return st.one_of(binary.map(lambda t: t[0](t[1], t[2])), kids.map(Abs))

    return st.recursive(leaf, extend, max_leaves=10)


@st.composite
def cases(draw):
    tree = trees(draw(st.integers(1, 4)))
    e = draw(tree)
    if draw(st.booleans()):
        e = Div(e, draw(tree))
    return e, draw(st.integers(2, 60)), draw(st.integers(0, 40))


def has_zero_constant(e) -> bool:
    return any(isinstance(n, Const) and n.value == 0 for n in e.walk())


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_fold_equals_the_node_walks(case):
    e, L, emax = case
    blocks = [b.node for b in _guard_of(e).blocks]
    if not isinstance(e, Div):
        blocks.append(e)  # the whole expression as one block, as dynamic_bound takes it
    for node in blocks:
        block = _Block(node)
        B = static_bound(annotate(node, emax, prec=L), L)
        assert F(*block._static_bound(emax, L)) == B
        for K in range(2, 10):
            assert block._range_safe(emax, L, K) == reference_range_safe(node, emax, L, K)
    q, old = value_quantum(e, emax, L), reference_value_quantum(e, emax, L)
    if has_zero_constant(e):
        # a zero constant's 0 never binds: q enters only as 1 - L - q against
        # emax + 2 (the K requirement and p_sup's grid check)
        assert max(1 - L - q, emax + 2) == max(1 - L - old, emax + 2)
    else:
        assert q == old


def test_value_quantum_writes_no_block_code(monkeypatch):
    def refuse(*args):
        raise AssertionError("block code generated")

    monkeypatch.setattr(errorbounds, "exec", refuse, raising=False)
    e = Min(Sub(orientation2d_expr(), Const(F(1, 3))), Abs(Mul(Input(0), Const(F(5, 8)))))
    assert value_quantum(e, 3, 20) == reference_value_quantum(e, 3, 20)
    assert all(block._code is None for block in _guard_of(e).blocks)
