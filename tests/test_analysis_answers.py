"""Answer golden for the library-level analysis path.

A fixed, seeded list of queries runs `quantified_relations(p)` and then the
inverse `probability(L_f, K_f)`, as `cperturb analyze` does, and the test
compares `(L_f, K_f, p_f)` with tests/golden/analysis_answers.json.  The
queries cover univariate, multivariate, in_box, in_circle and orientation2d,
det2x2 (a parsed polynomial), the two components of the rational predicate,
and the hull's distributed analysis for box, disc and ball shapes, each at
four values of p.  To regenerate after an intended change of the answers:

    PYTHONPATH=src python tests/test_analysis_answers.py > tests/golden/analysis_answers.json
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from cperturb import algo, bounds, expr, geom, grid, qr
from cperturb.cli import build_predicate

GOLDEN = Path(__file__).parent / "golden" / "analysis_answers.json"

P_VALUES = (F(1, 2), F(9, 10), F(99, 100), F(999, 1000))
DET2X2 = "(sub (mul x0 x3) (mul x1 x2))"


def _univariate(rng):
    coeffs = rng.choice(((F(-1, 3), F(1, 4), F(1)), (F(1, 5), F(-2), F(0), F(3))))
    center = F(rng.randint(-64, 64), 64)
    return geom.make_univariate(coeffs, center=center, delta=rng.choice((F(1, 2), F(1, 8))))


def _multivariate(rng):
    k = rng.choice((2, 3))
    terms = set()
    while len(terms) < 3:
        terms.add(tuple(rng.randint(0, 2) for _ in range(k)))
    args = SimpleNamespace(
        predicate="multivariate", delta=[rng.choice(("1/2", "1/4"))], t="1/2", emax=None,
        terms=[f"{rng.randint(1, 5)}/{rng.randint(1, 3)}:{','.join(map(str, e))}"
               for e in sorted(terms)],
        xbar=[str(F(rng.randint(-4, 4), 2)) for _ in range(k)],
    )
    return build_predicate(args)


def _in_box(rng):
    w, h = rng.randint(1, 4), rng.randint(1, 4)
    return geom.make_inbox((0, 0), (w, h), (w, F(rng.randint(0, 4 * h), 4)),
                           delta=rng.choice((F(1, 2), F(1, 4))))


def _in_circle(rng):
    r = F(5, 2 ** rng.randint(0, 2))
    c = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
    return geom.make_incircle(c, r, (c[0] + F(3, 5) * r, c[1] + F(4, 5) * r),
                              delta=rng.choice((F(1, 2), F(1, 4))))


def _orientation2d(rng):
    px, py = rng.randint(-2, 2), rng.randint(-2, 2)
    dx, dy = rng.randint(1, 2), rng.randint(-2, 2)
    return geom.make_orientation2d(((px, py), (px + dx, py + dy), (px + 2 * dx, py + 2 * dy)),
                                   delta=rng.choice((F(1, 2), F(1, 4))))


def _det2x2(rng):
    centers = tuple(F(rng.randint(-4, 4), 2) for _ in range(4))
    delta = rng.choice((F(1, 2), F(1, 4), F(1, 8)))
    e = expr.parse(DET2X2)
    terms = expr.expand_polynomial(e, 4)
    desc = bounds.PredicateDescription(
        expr=e, k=4, delta=(delta,) * 4, emax=grid.compute_emax(centers, [delta] * 4),
        analysis_indices=(0, 1, 2, 3), a_box=tuple((c, c) for c in centers),
    )
    desc, bs = bounds.bounds_multivariate(set(terms), terms, bounds.choose_beta(set(terms), 4), desc)
    return SimpleNamespace(desc=desc, bounds=bs)


def _rational_component(rng):
    # cli._analyze_rational analyzes x0 and x1 as these univariates
    return geom.make_univariate((0, 1), center=1, delta=rng.choice((F(1, 2), F(1, 4))))


BUILDERS = {
    "univariate": (_univariate, 3),
    "multivariate": (_multivariate, 2),
    "in_box": (_in_box, 3),
    "in_circle": (_in_circle, 3),
    "orientation2d": (_orientation2d, 2),
    "det2x2": (_det2x2, 2),
    "rational": (_rational_component, 2),
}
HULL_CASES = tuple((shape, n) for shape in ("box", "disc", "ball") for n in (16, 10**4))


def _frac(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def _answer(desc, bs, p) -> dict:
    try:
        req = qr.quantified_relations(desc, bs, p)
    except (qr.BudgetTooLarge, bounds.NotAnalyzable) as exc:
        return {"refused": type(exc).__name__}
    rep = qr.probability(desc, bs, req.L_f, req.K_f)
    return {"L_f": req.L_f, "K_f": req.K_f, "p_f": _frac(rep.p_f)}


def _hull_answer(shape, n, delta, p) -> dict:
    inst = geom.make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=delta)
    description = algo.AlgorithmDescription(
        predicates=(("orientation2d", inst.desc, inst.bounds),),
        n_evals=lambda m: 4 * m,
        shape=algo.PerturbationShape(shape, delta),
    )
    req = algo.distributed_probability(description, p, n)
    rep = qr.probability(inst.desc, inst.bounds, req.L, req.K)
    return {"L_f": req.L, "K_f": req.K, "eta": req.eta, "p_f": _frac(rep.p_f)}


def compute_answers() -> dict[str, dict]:
    rng = random.Random(20111)
    out = {}
    for kind, (build, draws) in BUILDERS.items():
        for j in range(draws):
            inst = build(rng)
            for p in P_VALUES:
                out[f"{kind}/{j}/p={_frac(p)}"] = _answer(inst.desc, inst.bounds, p)
    for shape, n in HULL_CASES:
        delta = rng.choice((F(1, 2), F(1, 4)))
        for p in P_VALUES:
            out[f"hull/{shape}/n={n}/p={_frac(p)}"] = _hull_answer(shape, n, delta, p)
    return out


@pytest.fixture(scope="module")
def answers():
    return compute_answers()


def test_answers_match_golden(answers):
    expected = json.loads(GOLDEN.read_text())
    assert sorted(answers) == sorted(expected)
    mismatched = {k: (answers[k], expected[k]) for k in expected if answers[k] != expected[k]}
    assert not mismatched


def test_golden_covers_every_kind_and_p(answers):
    kinds = {key.split("/")[0] for key, a in answers.items() if "refused" not in a}
    assert kinds == set(BUILDERS) | {"hull"}
    for p in P_VALUES:
        assert any(key.endswith(f"p={_frac(p)}") and "L_f" in a for key, a in answers.items())


if __name__ == "__main__":
    json.dump(compute_answers(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
