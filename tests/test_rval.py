"""`reals.RVal` arithmetic against the four-product reference.

Every operation's endpoints must equal the reference's and be Fractions,
whichever fast path (exact operands, nonnegative operands) the operands
take, and errors must be raised where the reference raises them.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rval as ref

from cperturb.reals import RVal

# small numerators often, so endpoints near zero (+-1/d, 0) come up
rationals = st.builds(Fraction, st.integers(-2, 2) | st.integers(-40, 40), st.integers(1, 12))


@st.composite
def operands(draw):
    """An RVal or an int, with its (lo, hi) for the reference."""
    kind = draw(st.sampled_from(("exact", "equal", "general", "zero_end", "int")))
    if kind == "int":
        n = draw(st.integers(-5, 5))
        return n, (Fraction(n), Fraction(n))
    x = draw(rationals)
    if kind == "exact":  # one object for lo and hi
        return RVal(x), (x, x)
    if kind == "equal":  # equal in value, two objects
        return RVal(x, Fraction(x.numerator, x.denominator)), (x, x)
    y = Fraction(0) if kind == "zero_end" else draw(rationals)
    lo, hi = min(x, y), max(x, y)
    return RVal(lo, hi), (lo, hi)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, RVal)
    assert type(got.lo) is Fraction and type(got.hi) is Fraction
    assert (got.lo, got.hi) == want


BINARY = (
    (operator.add, ref.add),
    (operator.sub, ref.sub),
    (operator.mul, ref.mul),
    (operator.truediv, ref.truediv),
)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(operands(), operands(), st.sampled_from(BINARY))
def test_binary_ops_match_reference(a, b, ops):
    (x, xr), (y, yr) = a, b
    op, ref_op = ops
    if not isinstance(x, RVal) and not isinstance(y, RVal):
        x = RVal(x)  # int op int is not RVal arithmetic
    # an int left operand goes through __radd__, __rsub__, __rmul__, __rtruediv__
    assert_same(outcome(op, x, y), outcome(ref_op, xr, yr))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(operands(), st.integers(-4, 5))
def test_pow_matches_reference(a, m):
    x, xr = a
    x = x if isinstance(x, RVal) else RVal(x)
    assert_same(outcome(operator.pow, x, m), outcome(ref.pow_, xr, m))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rationals, rationals, st.sampled_from((operator.add, operator.sub, operator.mul, operator.truediv)))
def test_exact_operands_give_exact_results(x, y, op):
    try:
        out = op(RVal(x), RVal(y))
    except ZeroDivisionError:
        assert y <= 0
        return
    assert out.lo is out.hi
    assert out.exact == op(x, y)


def test_constructor_makes_fractions_and_shares_exact_values():
    v = RVal(Fraction(3, 4))
    assert v.lo is v.hi
    w = RVal(3)
    assert w.lo is w.hi and type(w.lo) is Fraction
    for v in (RVal(1, 2), RVal(Fraction(1, 2), 1), RVal(-1, Fraction(1, 3)), RVal(True, 2)):
        assert type(v.lo) is Fraction and type(v.hi) is Fraction


def test_even_power_below_zero():
    v = RVal(-3, -2) ** 2
    assert (v.lo, v.hi) == (4, 9)
    v = RVal(-3, -2) ** -2
    assert (v.lo, v.hi) == (Fraction(1, 9), Fraction(1, 4))
    v = RVal(-3, 2) ** 2
    assert (v.lo, v.hi) == (0, 9)
    v = RVal(-3, -2) ** 3
    assert (v.lo, v.hi) == (-27, -8)


def test_inverted_enclosure_raises():
    with pytest.raises(ValueError, match="inverted enclosure"):
        RVal(2, 1)
    with pytest.raises(ValueError, match="inverted enclosure"):
        RVal(Fraction(1, 2), Fraction(1, 3))
    RVal(Fraction(1, 2), Fraction(2, 4))  # equal ends are fine


@pytest.mark.parametrize("divisor", [RVal(0), RVal(-1, 2), RVal(0, 1), RVal(-2, -1)])
def test_divisor_not_above_zero_raises(divisor):
    for dividend in (RVal(1, 2), RVal(1), 3):
        with pytest.raises(ZeroDivisionError):
            dividend / divisor
    with pytest.raises(ZeroDivisionError):
        RVal(1, 2) / 0


def test_negative_power_of_zero_touching_enclosure_raises():
    with pytest.raises(ZeroDivisionError):
        RVal(0, 1) ** -1
    with pytest.raises(ZeroDivisionError):
        RVal(-1, 1) ** -2
