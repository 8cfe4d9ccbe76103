"""Controlled perturbation for geometric predicates.

Guarded evaluation over a configurable-precision floating-point arithmetic,
grid-based input perturbation, the region/value/safety bound calculus, the
methods of quantified relations and distributed probability, and the
controlled-perturbation loop itself, demonstrated on planar predicates.
"""

from .softfloat import (
    DivisionByZero,
    RangeError,
    SoftFloat,
    enumerate_floats,
    fl_binop,
    fl_round,
    is_representable,
    max_magnitude,
)
from .exact import ExactPole, rat_eval, rat_sign
from .expr import Expr, parse, serialize
from .grid import (
    EmptyGrid,
    GridSpec,
    ObjectInput,
    PerturbationBox,
    SplitMix64,
    compute_emax,
    enumerate_grid,
    grid_unit,
    perturb_object_preserving,
    sample_grid_point,
)
from .errorbounds import (
    GuardFailed,
    RangeErrorVerdict,
    SignCertified,
    annotate,
    compile_guard,
    dynamic_bound,
    guarded_eval,
    safety_lower_multivariate,
    safety_lower_univariate,
    safety_upper,
    static_bound,
)
from .bounds import (
    BoundSet,
    GammaTooLarge,
    NotAnalyzable,
    PredicateDescription,
    bounds_inbox_direct,
    bounds_inbox_topdown,
    bounds_incircle_direct,
    bounds_multivariate,
    bounds_univariate,
    rational_precision,
    rule_minmax,
    rule_product,
    rule_sandwich,
    select_beta,
)
from .qr import (
    ArithmeticRequirement,
    BudgetTooLarge,
    ProbabilityReport,
    exponent_requirement,
    lgrid,
    probability,
    quantified_relations,
)
from .algo import (
    AlgorithmDescription,
    CpRunStats,
    IterationCapExceeded,
    PerturbationShape,
    distributed_probability,
    eta,
    rho,
    run_acp,
    run_acp_delta_variant,
    run_basic_acp,
)
from .geom import (
    PredicateInstance,
    exact_convex_hull,
    guarded_convex_hull,
    inbox_expr,
    incircle_expr,
    make_inbox,
    make_incircle,
    make_orientation2d,
    make_polynomial,
    make_univariate,
    orientation2d_expr,
    rational_expr,
)

__version__ = "0.1.0"
