"""One shared tree per expression, and analysis data derived once per tree.

The builders of the built-in predicates share one expression each, parse and
polynomial_expr intern their trees, and expand_polynomial and select_beta
memoize their answers.  Sharing must never change an answer: every query
built on a fresh tree, with every cache cold, answers as the shared one does.
"""

import random
from fractions import Fraction as F

import pytest

from cperturb import bounds, expr, geom
from cperturb.bounds import ArityTooLarge, choose_beta, select_beta
from cperturb.expr import expand_polynomial, parse, polynomial_expr, serialize
from cperturb.grid import compute_emax
from cperturb.qr import BudgetTooLarge, probability, quantified_relations

DET2X2 = "(sub (mul x0 x3) (mul x1 x2))"
P_CHOICES = (F(1, 2), F(9, 10), F(99, 100), F(999, 1000))
UNIVARIATE = (F(-1, 3), F(1, 4), F(1))


def test_builders_share_one_expression():
    a = geom.make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=F(1, 2))
    b = geom.make_orientation2d([(1, 1), (3, 2), (0, 4)], delta=F(1, 8))
    assert a.expr is b.expr is geom._ORIENTATION2D
    a = geom.make_inbox((0, 0), (2, 3), (1, F(1, 2)))
    b = geom.make_inbox((1, 1), (4, 4), (3, 2), delta=F(1, 4))
    assert a.expr is b.expr is geom._INBOX
    a = geom.make_incircle((0, 0), 2, (1, 1))
    b = geom.make_incircle((1, F(1, 2)), 5, (2, 3), delta=F(1, 8))
    assert a.expr is b.expr is geom._INCIRCLE
    # the expression constructors still build fresh trees
    assert geom.orientation2d_expr() is not geom.orientation2d_expr()
    assert geom.inbox_expr() == geom._INBOX and geom.inbox_expr() is not geom._INBOX


def test_parse_interns_per_text():
    assert parse(DET2X2) is parse(DET2X2)
    assert parse("(sub x0 x1)") is not parse("(sub x1 x0)")
    # equal trees from different texts are different instances
    assert parse("(sub  x0 x1)") == parse("(sub x0 x1)")
    assert parse("(sub  x0 x1)") is not parse("(sub x0 x1)")


def test_polynomial_expr_interns_per_nonzero_terms():
    terms = {(2, 0): F(1), (0, 1): F(-3, 4), (1, 1): F(5)}
    e = polynomial_expr(terms)
    assert polynomial_expr(dict(terms)) is e
    assert polynomial_expr({**terms, (3, 3): F(0), (0, 0): 0}) is e
    assert polynomial_expr(dict(reversed(list(terms.items())))) is e
    assert polynomial_expr({(1,): 1}) is polynomial_expr({(1,): F(1)})
    assert polynomial_expr({**terms, (0, 0): F(1)}) is not e
    assert polynomial_expr({}) is polynomial_expr({(1, 0): F(0)})
    assert serialize(polynomial_expr({})) == "0"


def test_expand_polynomial_returns_a_fresh_dict():
    e = parse(DET2X2)
    first = expand_polynomial(e, 4)
    expected = dict(first)
    first[(0, 0, 0, 0)] = F(7)
    first.pop((1, 0, 0, 1))
    assert expand_polynomial(e, 4) == expected
    assert expand_polynomial(e, 4) is not expand_polynomial(e, 4)
    # another arity is expanded afresh, and the first one still answers right
    assert expand_polynomial(e, 5) == {key + (0,): c for key, c in expected.items()}
    assert expand_polynomial(e, 4) == expected
    with pytest.raises(expr.NotPolynomial):
        expand_polynomial(e, 3)
    with pytest.raises(expr.NotPolynomial):
        expand_polynomial(e, 3)


def test_select_beta_returns_a_fresh_set():
    rows = [(2, 0, 1), (0, 2, 1), (1, 1, 1), (0, 0, 3)]
    first = select_beta(rows, 3)
    expected = set(first)
    first.add((9, 9, 9))
    first.discard(next(iter(expected)))
    assert select_beta(rows, 3) == expected
    assert select_beta(set(rows), 3) is not select_beta(set(rows), 3)
    assert choose_beta(rows, 3) in expected


@pytest.mark.parametrize("bad, k, error", [
    ([], 2, ValueError),
    ([(1, 0), (1, 0, 0)], 2, ValueError),
    ([(1,) * 9], 9, ArityTooLarge),
])
def test_select_beta_raises_on_every_bad_call(bad, k, error):
    for _ in range(2):
        with pytest.raises(error):
            select_beta(bad, k)


def fresh_polynomial_expr(terms):
    """A tree equal to polynomial_expr(terms), parsed afresh."""
    return parse.__wrapped__(serialize(polynomial_expr(terms)))


def build(kind, params, shared):
    """(desc, bounds) the way the analyze command builds them.  Unshared, every
    expression is a fresh tree and select_beta searches with a cold cache."""
    if kind == "det2x2":
        centers, delta = params
        e = parse(DET2X2) if shared else parse.__wrapped__(DET2X2)
        terms = expand_polynomial(e, 4)
        desc = bounds.PredicateDescription(
            expr=e, k=4, delta=(delta,) * 4, emax=compute_emax(centers, [delta] * 4),
            analysis_indices=(0, 1, 2, 3), a_box=tuple((c, c) for c in centers),
        )
        return bounds.bounds_multivariate(set(terms), terms, choose_beta(set(terms), 4), desc)
    if kind == "univariate":
        center, delta = params
        inst = geom.make_univariate(UNIVARIATE, center=center, delta=delta)
    elif kind == "orientation2d":
        centers, delta = params
        inst = geom.make_orientation2d(centers, delta=delta)
    elif kind == "in_box":
        u, v, qbar, delta = params
        inst = geom.make_inbox(u, v, qbar, delta=delta)
    else:
        c, r, qbar, delta = params
        inst = geom.make_incircle(c, r, qbar, delta=delta)
    return inst.desc, inst.bounds


def analyze(kind, params, p, shared, monkeypatch):
    with monkeypatch.context() as m:
        if not shared:
            m.setattr(geom, "_ORIENTATION2D", geom.orientation2d_expr())
            m.setattr(geom, "_INBOX", geom.inbox_expr())
            m.setattr(geom, "_INCIRCLE", geom.incircle_expr())
            m.setattr(geom, "polynomial_expr", fresh_polynomial_expr)
            m.setattr(bounds, "_select_beta", bounds._select_beta.__wrapped__)
        desc, bs = build(kind, params, shared)
        try:
            req = quantified_relations(desc, bs, p)
        except (BudgetTooLarge, bounds.NotAnalyzable) as exc:
            return desc.expr, type(exc).__name__
        return desc.expr, (req.to_json_dict(), probability(desc, bs, req.L_f, req.K_f))


def params(kind, rng):
    delta = rng.choice((F(1, 2), F(1, 4), F(1, 8)))
    if kind == "univariate":
        return (rng.choice((F(30, 64), F(-46, 64))), delta)
    if kind == "orientation2d":
        px, py, dx, dy = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 2), rng.randint(-2, 2)
        return (((px, py), (px + dx, py + dy), (px + 2 * dx, py + 2 * dy)), delta)
    if kind == "in_box":
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        return ((0, 0), (w, h), (w, F(rng.randint(0, 4 * h), 4)), delta)
    if kind == "in_circle":
        r = F(5, 2 ** rng.randint(0, 2))
        c = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
        return (c, r, (c[0] + F(3, 5) * r, c[1] + F(4, 5) * r), delta)
    return (tuple(F(rng.randint(-4, 4), 2) for _ in range(4)), delta)


@pytest.mark.parametrize("kind", ["univariate", "in_box", "in_circle", "det2x2", "orientation2d"])
def test_shared_and_fresh_trees_answer_alike(kind, monkeypatch):
    rng = random.Random(1)
    refusals = []
    for _ in range(6):
        ps = params(kind, rng)
        for p in P_CHOICES:
            fresh_expr, fresh = analyze(kind, ps, p, False, monkeypatch)
            shared_expr, shared = analyze(kind, ps, p, True, monkeypatch)
            assert fresh_expr is not shared_expr and fresh_expr == shared_expr
            assert fresh == shared
            if isinstance(shared, str):
                refusals.append((p, shared))
    if kind == "in_circle":  # the refusal the analyze workload expects
        assert (F(1, 2), "BudgetTooLarge") in refusals
