"""The exact stage of compiled guard blocks never changes a verdict.

A dyadic block first evaluates its expression exactly, in integer mode on
its inputs' one exponent; when no range error can occur at (emax, L, K) and
|E| exceeds twice the static bound B, it certifies sign E and skips the
rounded block.  These tests compare every verdict with the tree-walking
reference, and check at the stage's boundaries (|E| = 2B, the overflow
margin, the input quantum, constants that leave F_{L,K}, non-dyadic
constants) whether the rounded block ran.
"""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_grid import grid_float
from reference_guard import reference_guarded_eval

from cperturb.errorbounds import (
    GuardFailed,
    RangeErrorVerdict,
    SignCertified,
    _Block,
    _guard_of,
    _input_pairs,
    _on_one_exponent,
    guarded_eval,
)
from cperturb.expr import Abs, Add, Const, Input, Max, Min, Mul, Sub
from cperturb.exact import rat_eval
from cperturb.geom import guarded_convex_hull, orientation2d_expr
from cperturb.grid import GridSpec, InadmissibleInput
from cperturb.softfloat import SoftFloat, exponent_max, exponent_min, fl_round

# dyadic constants, some not representable at small L (2^40 + 1, 12345/4096)
# or outside F_{L,K} at small K (2^40 + 1, 2^-40, 2^-200)
CONSTANTS = (F(0), F(1), F(-3, 4), F(5, 8), F(12345, 4096), F(2) ** 40 + 1, F(2) ** -40,
             F(2) ** -200, F(-7, 2))


def smallest_k(emax: int) -> int:
    """The least K with emax + 1 < 2^(K-1), as the grid requires."""
    K = 2
    while emax + 1 >= 1 << (K - 1):
        K += 1
    return K


@st.composite
def members(draw, L, K, emax):
    """Any member of F_{L,K} in [-2^emax, 2^emax], the box every guard admits:
    zero, subnormal or normal, of either sign, the ends +-2^emax among them."""
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("zero", "subnormal", "normal", "normal", "edge")))
    top = min(exponent_max(K), emax - 1)  # normal members below 2^(top + 1) <= 2^emax
    if kind == "zero":
        return SoftFloat(1, 0, exponent_min(K), L, K)
    if kind == "subnormal":
        return SoftFloat(sign, draw(st.integers(1, (1 << L) - 1)), exponent_min(K), L, K)
    if kind == "edge" or top < exponent_min(K):
        return SoftFloat(sign, 1 << L, emax, L, K)
    m = draw(st.integers(1 << L, (1 << (L + 1)) - 1))
    return SoftFloat(sign, m, draw(st.integers(exponent_min(K), top)), L, K)


@st.composite
def cases(draw):
    k = draw(st.integers(1, 4))
    leaf = st.one_of(
        st.integers(0, k - 1).map(Input),
        st.integers(0, k - 1).map(Input),
        st.sampled_from(CONSTANTS).map(Const),
    )

    def extend(kids):
        binary = st.tuples(st.sampled_from((Add, Sub, Mul, Add, Sub, Mul, Min, Max)), kids, kids)
        return st.one_of(binary.map(lambda t: t[0](t[1], t[2])), kids.map(Abs))

    e = draw(st.recursive(leaf, extend, max_leaves=10))
    L = draw(st.integers(2, 60))
    emax = draw(st.integers(0, 40))
    K = smallest_k(emax) + draw(st.integers(0, 3))
    spec = GridSpec(L, K, emax)
    edge = 1 << (L + 1)
    grid = st.integers(-edge, edge).map(lambda lam: grid_float(lam, spec))
    xs = [draw(st.one_of(grid, grid, members(L, K, emax))) for _ in range(k)]
    form = draw(st.sampled_from(("softfloat", "fraction", "integers")))
    if form == "fraction":
        xs = [v.to_fraction() for v in xs]
    return e, xs, L, K, emax, form


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_verdict_equals_reference(case):
    e, xs, L, K, emax, form = case
    expected = reference_guarded_eval(e, xs, L, K, emax)
    if form == "integers":  # integer mode, on the least exponent of the inputs
        pairs = _input_pairs(xs, L, K)
        q = min((q for M, q in pairs if M), default=0)
        assert guarded_eval(e, [M << (p - q) if M else 0 for M, p in pairs], L, K, emax, q) == expected
    else:
        assert guarded_eval(e, xs, L, K, emax) == expected


@pytest.fixture
def rounded_runs(monkeypatch):
    """Counts the calls of every block's rounded function.  Only blocks built
    while the fixture is on count, so each test hands it trees of its own,
    not the shared ones the predicate builders and parse return."""
    calls = []
    init = _Block.__init__

    def counting_init(self, node):
        init(self, node)
        run = self._run

        def counted(*args):
            calls.append(node)
            return run(*args)

        self._run = counted

    monkeypatch.setattr(_Block, "__init__", counting_init)
    return calls


def verdict_and_stage(e, xs, L, K, emax, calls):
    """The verdict, checked against the reference, and whether the rounded
    block ran for it."""
    calls.clear()
    verdict = guarded_eval(e, xs, L, K, emax)
    assert verdict == reference_guarded_eval(e, xs, L, K, emax)
    return verdict, bool(calls)


TAU_24 = F(1, 1 << 25)  # the grid step at (L, emax) = (24, 0)


def test_orientation_stages_at_24_8(rounded_runs):
    L, K, emax = 24, 8, 0
    e = orientation2d_expr()
    far = [0, 0, F(1, 2), 0, 0, F(1, 2)]
    assert verdict_and_stage(e, far, L, K, emax, rounded_runs) == (SignCertified(1), False)
    assert verdict_and_stage(e, far[:2] + far[4:] + far[2:4], L, K, emax, rounded_runs) == (
        SignCertified(-1), False)
    near = [0, 0, F(1, 2), F(1, 2), F(1, 4), F(1, 4) + TAU_24]
    verdict, rounded = verdict_and_stage(e, near, L, K, emax, rounded_runs)
    assert rounded and verdict == GuardFailed()
    collinear = [0, 0, F(1, 2), F(1, 2), F(1, 4), F(1, 4)]
    assert verdict_and_stage(e, collinear, L, K, emax, rounded_runs) == (GuardFailed(), True)


@pytest.mark.parametrize("offset, rounded", [(-TAU_24, True), (0, True), (TAU_24, False)],
                         ids=["below_2B", "at_2B", "above_2B"])
def test_threshold_is_twice_the_static_bound(rounded_runs, offset, rounded):
    # orientation: ind 4, sup 2 * (2 * 2^emax)^2, so 2B = 2^-18 at (24, 0);
    # p = (0, 0), q = (2^-9, 0), r = (0, b) give E = 2^-9 * b
    L, K, emax = 24, 8, 0
    xs = [0, 0, F(1, 1 << 9), 0, 0, F(1, 1 << 9) + offset]
    verdict, ran = verdict_and_stage(orientation2d_expr(), xs, L, K, emax, rounded_runs)
    assert verdict == SignCertified(1) and ran == rounded


def integer_mode(e, ms, L, K, emax, q, calls):
    """The integer-mode verdict on x_i = ms[i] * 2^q, checked against the
    reference, and what decided it: integer mode or the rounded block."""
    calls.clear()
    verdict = guarded_eval(e, ms, L, K, emax, q)
    assert verdict == reference_guarded_eval(e, [F(m) * F(2) ** q for m in ms], L, K, emax)
    return verdict, "rounded" if calls else "integer"


def test_integer_mode_decides_clear_signs(rounded_runs):
    # orientation at (24, 8, 0) on the grid unit 2^-25: 2B = 2^-18, that is
    # T = 2^32 at q = -25; r = (0, b) gives N = 2^16 * b
    L, K, emax, q = 24, 8, 0, -25
    e = orientation2d_expr()
    assert integer_mode(e, [0, 0, 1 << 16, 0, 0, 1 << 24], L, K, emax, q, rounded_runs) == (
        SignCertified(1), "integer")
    assert integer_mode(e, [0, 0, 1 << 16, 0, 0, -(1 << 24)], L, K, emax, q, rounded_runs) == (
        SignCertified(-1), "integer")
    # |N| above T, at T and below: at and below, the rounded block decides
    for b, stage in (((1 << 16) + 1, "integer"), (1 << 16, "rounded"), ((1 << 16) - 1, "rounded")):
        assert integer_mode(e, [0, 0, 1 << 16, 0, 0, b], L, K, emax, q, rounded_runs) == (
            SignCertified(1), stage)
    # inputs at 2^emax = 2^25 * 2^q, the box's edge, and at -2^emax: integer mode
    edge = [0, 0, 1 << 25, 0, 0, 1 << 24]
    assert integer_mode(e, edge, L, K, emax, q, rounded_runs) == (SignCertified(1), "integer")
    edge = [-(1 << 25), 0, 0, 0, -(1 << 25), -(1 << 25)]
    assert integer_mode(e, edge, L, K, emax, q, rounded_runs) == (SignCertified(-1), "integer")
    # q = 1 above emax = 0: every nonzero input is at least 2 > 2^emax, which
    # the checked path refuses
    with pytest.raises(InadmissibleInput):
        guarded_eval(e, [0, 0, 2, 0, 0, 2], L, K, emax)
    # q = -125 below the safe quantum -75: the guard takes q as given, so the
    # rounded block decides, though the inputs are multiples of 2^-25
    fine = [0, 0, 1 << 116, 0, 0, 1 << 124]
    assert integer_mode(e, fine, L, K, emax, q - 100, rounded_runs) == (SignCertified(1), "rounded")
    # a block with a constant, and ones joining degrees 2 and 1 (E = 1/4 +- 1/2,
    # N = 2^48 +- 2^24): integer mode, each join shifting its operands
    for e, x2, sign in ((Add(Input(0), Const(F(1, 2))), 0, 1),
                        (Add(Mul(Input(0), Input(1)), Input(2)), 1 << 24, 1),
                        (Add(Mul(Input(0), Input(1)), Input(2)), -(1 << 24), -1)):
        assert integer_mode(e, [1 << 24, 1 << 24, x2], L, K, emax, q, rounded_runs) == (
            SignCertified(sign), "integer")
    # F_{8,4} at emax = 2, safe quantum 2^-7: x0 * x1 = 9 * 2^-18 underflows
    # inexactly, though E = x0 * x1 - 1 is far from zero; q = -9 is below
    # the safe quantum, so integer mode must not decide it
    e = Sub(Mul(Input(0), Input(1)), Mul(Input(2), Input(3)))
    verdict, stage = integer_mode(e, [3, 3, 512, 512], 8, 4, 2, -9, rounded_runs)
    assert isinstance(verdict, RangeErrorVerdict) and stage == "rounded"


def test_overflowing_intermediate_runs_the_rounded_block(rounded_runs):
    # x0 * x1 = 2304 > 2^(2^(K-1)) = 256 overflows at K = 4, while E is far from 0
    e = Sub(Mul(Input(0), Input(1)), Mul(Input(2), Input(3)))
    verdict, ran = verdict_and_stage(e, [48, 48, 1, 1], 24, 4, 6, rounded_runs)
    assert ran and isinstance(verdict, RangeErrorVerdict)


def test_overflow_margin(rounded_runs):
    # the record needs 2 * sup <= 2^(2^(K-1)) at every node; x0 * x1 has sup
    # 2^(2 emax), so at K = 5 emax = 7 is the last admitted and emax = 8,
    # where sup reaches 2^16 itself, runs the rounded block
    e = Mul(Input(0), Input(1))
    assert verdict_and_stage(e, [1, 1], 24, 5, 7, rounded_runs) == (SignCertified(1), False)
    assert verdict_and_stage(e, [1, 1], 24, 5, 8, rounded_runs) == (SignCertified(1), True)


def test_input_quantum_underflow(rounded_runs):
    # F_{8,4}: e_min = -7, subnormal step 2^-15.  x0 * x1 = 9 * 2^-18 is inexact
    # below the smallest normal, though E = x0 * x1 + 2 is far from zero
    e = Add(Mul(Input(0), Input(1)), Input(2))
    x = F(3, 1 << 9)
    verdict, ran = verdict_and_stage(e, [x, x, 2], 8, 4, 2, rounded_runs)
    assert ran and isinstance(verdict, RangeErrorVerdict)
    # inputs on the quantum 2^Q_safe = 2^-7 or coarser settle in the exact stage
    y = F(3, 1 << 7)
    assert verdict_and_stage(e, [y, y, 2], 8, 4, 2, rounded_runs) == (SignCertified(1), False)
    assert verdict_and_stage(e, [y / 2, y, 2], 8, 4, 2, rounded_runs) == (SignCertified(1), True)


@pytest.mark.parametrize("c", [F(2) ** -40, F(2) ** 40 + 1], ids=["underflows", "overflows"])
def test_constant_outside_the_float_set(rounded_runs, c):
    e = Add(Input(0), Const(c))
    verdict, ran = verdict_and_stage(e, [F(1, 2)], 24, 5, 0, rounded_runs)
    assert ran and verdict == RangeErrorVerdict("const")


def test_constant_rounded_at_L_is_exact_in_the_stage(rounded_runs):
    # 12345/4096 needs 14 bits: the stage takes it exactly, the block rounds it
    e = Sub(Input(0), Const(F(12345, 4096)))
    assert verdict_and_stage(e, [F(5, 2)], 8, 5, 2, rounded_runs) == (SignCertified(-1), False)
    assert verdict_and_stage(e, [F(13, 4)], 8, 5, 2, rounded_runs) == (SignCertified(1), False)


def test_non_dyadic_block_keeps_the_rounded_path(rounded_runs):
    e = Sub(Input(0), Const(F(1, 3)))
    for x, sign in ((F(3, 2), 1), (F(-3, 2), -1)):
        assert verdict_and_stage(e, [x], 24, 8, 1, rounded_runs) == (SignCertified(sign), True)


def test_blocks_below_min_max_abs_each_take_the_stage(rounded_runs):
    # min(x0 - x1, |x2 * x3|): two blocks, each settled exactly
    e = Min(Sub(Input(0), Input(1)), Abs(Mul(Input(2), Input(3))))
    xs = [F(1, 2), F(1, 4), F(1, 8), F(-1, 2)]
    assert verdict_and_stage(e, xs, 24, 8, 0, rounded_runs) == (SignCertified(1), False)
    e = Max(Sub(Input(0), Input(1)), Const(F(1, 3)))  # the 1/3 block alone runs rounded
    assert verdict_and_stage(e, xs, 24, 8, 0, rounded_runs) == (SignCertified(1), True)
    assert rounded_runs == [Const(F(1, 3))]


@pytest.mark.parametrize("e, fine", [
    (Add(Mul(Input(0), Input(0)), Input(1)), (SignCertified(1), False)),
    (Add(Input(1), Mul(Input(0), Input(0))), (SignCertified(1), False)),
    # E = 0 exactly: the stage cannot settle it, the rounded block fails it
    (Sub(Mul(Input(1), Input(0)), Mul(Input(0), Input(1))), (GuardFailed(), True)),
], ids=["x0_twice", "x0_read_after_x1", "both_twice"])
def test_input_read_twice_is_checked_at_its_one_load(rounded_runs, e, fine):
    # the stage loads and checks each input index once, and later reads of it
    # reuse that integer; F_{8,4} at emax = 2 as in test_input_quantum_underflow,
    # where the stage's quantum is 2^-7
    L, K, emax = 8, 4, 2
    y = F(3, 1 << 7)
    assert verdict_and_stage(e, [y, 2], L, K, emax, rounded_runs) == fine
    # at the box's edge +-2^emax = +-4 the stage decides as it does inside
    for edge in ([F(-4), 2], [F(4), -2], [2, F(4)]):
        assert verdict_and_stage(e, edge, L, K, emax, rounded_runs)[1] == fine[1]
    # off the quantum: the stage declines, the block rounds
    off = ([y / 2, 2], [2, y / 2])
    for bad in off:
        assert verdict_and_stage(e, bad, L, K, emax, rounded_runs)[1]
    # above 2^emax: refused at the one load, whichever read comes first
    for bad in ([F(5), 2], [2, F(5)], [F(-5), 2]):
        with pytest.raises(InadmissibleInput):
            guarded_eval(e, bad, L, K, emax)
        with pytest.raises(InadmissibleInput):
            _on_one_exponent(bad, L, K, emax)
    # the same inputs on their one exponent, given to integer mode directly
    Q = _guard_of(e)._whole._range_safe(emax, L, K)[0]
    ms, q = _on_one_exponent([y, 2], L, K, emax)
    assert q == Q and integer_mode(e, ms, L, K, emax, q, rounded_runs) == (
        fine[0], "rounded" if fine[1] else "integer")
    ms, q = _on_one_exponent([F(-4), 2], L, K, emax)
    assert integer_mode(e, ms, L, K, emax, q, rounded_runs)[1] == ("rounded" if fine[1] else "integer")
    for bad in off:
        ms, q = _on_one_exponent(bad, L, K, emax)
        assert integer_mode(e, ms, L, K, emax, q, rounded_runs)[1] == "rounded"


def test_inputs_above_the_box_are_refused():
    # the static bound assumes |x_i| <= 2^emax; an input beyond it would be
    # certified with a bound that does not hold.  Here E = 0 exactly, and the
    # rounded block at (4, 8) once certified -1
    e = orientation2d_expr()
    xs = [40, 10, 26, -24, -30, -160]
    assert rat_eval(e, xs) == 0
    with pytest.raises(InadmissibleInput, match="outside"):
        guarded_eval(e, xs, 4, 8, 0)
    # the same inputs on a box that holds them: no sign is certified
    assert guarded_eval(e, xs, 4, 8, 8) == reference_guarded_eval(e, xs, 4, 8, 8) == GuardFailed()
    # one step above the edge is refused, the edge itself is admitted, in
    # every form and through the hull's one check
    L, K, emax = 24, 8, 3
    above = F(8) + F(1, 1 << 20)
    for x, admitted in ((F(8), True), (F(-8), True), (above, False), (-above, False)):
        for form in (x, fl_round(x, L, K)):
            xs = [form, 0, 1, 0, 0, 1]
            if admitted:
                assert guarded_eval(e, xs, L, K, emax) == reference_guarded_eval(e, xs, L, K, emax)
                assert guarded_convex_hull([(form, 0), (1, 0), (0, 1)], L, K, emax)[0] == "success"
            else:
                with pytest.raises(InadmissibleInput):
                    guarded_eval(e, xs, L, K, emax)
                with pytest.raises(InadmissibleInput):
                    guarded_convex_hull([(form, 0), (1, 0), (0, 1)], L, K, emax)
    # every input zero: q = 0 lies above emax = -1, and nothing is refused
    assert guarded_eval(e, [0] * 6, L, K, -1) == GuardFailed()
