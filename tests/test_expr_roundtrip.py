"""serialize and parse are inverse on every expression tree."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_compiled_guard import trees

from cperturb.expr import Div, parse, serialize


@st.composite
def expressions(draw):
    """The guard tests' trees, with a division at the root or below any node."""
    k = draw(st.integers(1, 4))
    e = draw(trees(k))
    if draw(st.booleans()):
        e = Div(e, draw(trees(k)))
    if draw(st.booleans()):
        e = Div(draw(trees(k)), e)
    return e


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expressions())
def test_parse_inverts_serialize(e):
    text = serialize(e)
    assert parse(text) == e
    assert serialize(parse(text)) == text
