"""The ranking search in `select_beta` against the k! brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_beta import reference_select_beta

from cperturb.bounds import choose_beta, select_beta


def reference_choice(index_set, k):
    return max(reference_select_beta(index_set, k), key=lambda t: (-sum(t), tuple(reversed(t))))


@st.composite
def exponent_sets(draw):
    k = draw(st.integers(1, 6))
    # small exponents, so tuples tie in some variables
    row = st.tuples(*[st.integers(0, 3)] * k)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    if draw(st.booleans()):  # duplicate tuples
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    zero_cols = draw(st.sets(st.integers(0, k - 1), max_size=k))
    rows = [tuple(0 if i in zero_cols else e for i, e in enumerate(t)) for t in rows]
    return rows, k


@settings(max_examples=200, derandomize=True, deadline=None)
@given(exponent_sets())
def test_matches_brute_force(case):
    rows, k = case
    assert select_beta(rows, k) == reference_select_beta(rows, k)
    assert choose_beta(rows, k) == reference_choice(rows, k)


def test_single_tuple():
    assert select_beta([(0, 2, 1)], 3) == reference_select_beta([(0, 2, 1)], 3) == {(0, 2, 1)}


def test_tuple_length_must_equal_k():
    # an extra entry would be a variable the search never ranks
    with pytest.raises(ValueError):
        select_beta({(1, 0, 2), (0, 1, 2)}, 2)


def test_orientation2d_terms():
    # the six monomials of the 2D orientation determinant: each is maximal
    # under some ranking
    terms = {(1, 0, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0), (1, 0, 0, 0, 0, 1),
             (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 0)}
    assert select_beta(terms, 6) == reference_select_beta(terms, 6) == terms


def test_k7_fixed_set():
    terms = [(1, 0, 2, 0, 0, 1, 0), (0, 1, 1, 0, 2, 0, 0), (2, 0, 0, 1, 0, 0, 1),
             (0, 0, 1, 1, 1, 0, 1), (1, 1, 0, 0, 0, 2, 0), (0, 2, 0, 0, 1, 0, 1),
             (1, 0, 0, 2, 0, 0, 0), (0, 0, 0, 0, 0, 1, 2), (1, 0, 2, 0, 0, 0, 0),
             (0, 1, 0, 1, 0, 1, 1), (0, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 1)]
    assert select_beta(terms, 7) == reference_select_beta(terms, 7)
    assert choose_beta(terms, 7) == reference_choice(terms, 7)
