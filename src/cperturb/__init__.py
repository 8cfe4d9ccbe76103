"""Controlled perturbation for geometric predicates.

Guarded evaluation over a configurable-precision floating-point arithmetic,
grid-based input perturbation, the region/value/safety bound calculus, the
methods of quantified relations and distributed probability, and the
controlled-perturbation loop itself, demonstrated on planar predicates.

Each name is imported from its submodule (the README's module table);
importing the package loads them all.
"""

from . import algo, bounds, errorbounds, exact, expr, geom, grid, qr, reals, softfloat  # noqa: F401

__version__ = "0.1.0"
