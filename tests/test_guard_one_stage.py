"""Integer mode is the guard's one exact stage: a clear sign never reaches the
rounded block.

For every block of a guard over random trees with dyadic constants: where
the block's range-safe record exists at (emax, L, K), its inputs lie on a
quantum at or above Q_safe and below 2^emax, and |E| > 2B (E by rat_eval, B
by static_bound), the verdict is sign E and the rounded block does not run,
whether the guard takes the inputs as values or as grid indices on 2^q.
"""

from contextlib import contextmanager
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_grid import grid_float
from test_compiled_guard import trees

from cperturb.errorbounds import SignCertified, _guard_of, _on_one_exponent, annotate, guarded_eval, static_bound
from cperturb.exact import rat_eval
from cperturb.expr import Const, Input
from cperturb.grid import GridSpec


def dyadic(e):
    """e with each non-dyadic constant n/d replaced by n / 2^bitlength(d)."""
    if isinstance(e, Const):
        n, d = e.value.numerator, e.value.denominator
        return Const(F(n, 1 << d.bit_length())) if d & (d - 1) else e
    if isinstance(e, Input):
        return e
    return type(e)(*map(dyadic, e.children()))


@st.composite
def cases(draw):
    k = draw(st.integers(1, 4))
    e = dyadic(draw(trees(k)))
    L = draw(st.integers(2, 60))
    K = draw(st.integers(3, 9))
    emax = draw(st.integers(0, (1 << (K - 1)) - 2))  # the grid needs emax + 1 < 2^(K-1)
    edge = 1 << (L + 1)  # below 2^emax: indices inside (-edge, edge)
    lams = [draw(st.one_of(st.integers(1 - edge, edge - 1), st.integers(edge // 4, edge - 1))) for _ in range(k)]
    return e, lams, L, K, emax


@contextmanager
def rounded_calls(block):
    """Records each run of the block's rounded function while open; the guard
    lives on its tree, so the block gets its own function back on exit."""
    calls, run = [], block._run
    block._run = lambda *args: calls.append(args) or run(*args)
    try:
        yield calls
    finally:
        block._run = run


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_clear_signs_skip_the_rounded_block(case):
    e, lams, L, K, emax = case
    spec = GridSpec(L, K, emax)
    xs = [grid_float(lam, spec) for lam in lams]
    q_grid = emax - L - 1  # every grid point is a multiple of 2^q_grid
    values = [F(lam) * F(2) ** q_grid for lam in lams]
    for block in _guard_of(e).blocks:
        n = block.node  # an arithmetic block: its own guard is one block
        record = _guard_of(n).blocks[0]._range_safe(emax, L, K)
        E = rat_eval(n, values)
        if record is None or abs(E) <= 2 * static_bound(annotate(n, emax, prec=L), L):
            continue
        clear = SignCertified(1 if E > 0 else -1)
        with rounded_calls(_guard_of(n).blocks[0]) as calls:
            if _on_one_exponent(xs, L, K)[1] >= record[0]:
                assert guarded_eval(n, xs, L, K, emax) == clear and not calls
            if q_grid >= record[0]:
                assert guarded_eval(n, lams, L, K, emax, q_grid) == clear and not calls
