"""The analysis checked exactly where the grid is small.

For a one-dimensional predicate the grid of U at the analysis's (L_f, K_f)
holds 129 to 8,193 points, so the guard runs on every one of them.  The
exact success fraction must reach p_f(L_f, K_f), which must reach p.  Both
polynomials have a non-dyadic constant; K_f runs from 3 to 5, so the value
quantum's underflow rule takes part in choosing it.
"""

from fractions import Fraction as F

import pytest

from cperturb.errorbounds import SignCertified
from cperturb.geom import make_univariate
from cperturb.grid import GridSampler, GridSpec, PerturbationBox, SplitMix64, count_grid
from cperturb.qr import probability, quantified_relations

# (coefficients a_0..a_d, p, grid points of U at L_f)
CASES = [
    ((F(-1, 3), 1), F(1, 2), 129),
    ((F(-1, 3), 1), F(9, 10), 513),
    ((F(-1, 3), 1), F(99, 100), 8193),
    # the analyze benchmark's polynomial -1/3 + x/4 + x^2
    ((F(-1, 3), F(1, 4), 1), F(1, 2), 2049),
]


@pytest.mark.parametrize("coeffs, p, points", CASES,
                         ids=["d1_p1/2", "d1_p9/10", "d1_p99/100", "d2_p1/2"])
def test_success_fraction_reaches_p_f(coeffs, p, points):
    inst = make_univariate(coeffs)  # centre 0, delta 1: U = [-1, 1]
    req = quantified_relations(inst.desc, inst.bounds, p)
    L, K = req.L_f, req.K_f
    p_f = probability(inst.desc, inst.bounds, L, K).p_f
    assert p_f >= p
    spec = GridSpec(L, K, inst.desc.emax)
    box = PerturbationBox([lo for lo, _ in inst.desc.a_box], inst.desc.delta)
    sampler = GridSampler.from_box(box, spec, SplitMix64(0))
    (lo, span), = sampler.ranges
    assert span == count_grid(*box.interval(0), spec) == points
    certified = sum(
        isinstance(inst.guarded(sampler.floats([lam]), L, K), SignCertified)
        for lam in range(lo, lo + span)
    )
    assert F(certified, span) >= p_f
