from fractions import Fraction as F

import pytest

from cperturb.bounds import NotAnalyzable
from cperturb.errorbounds import GuardFailed, SignCertified
from cperturb.exact import rat_eval, rat_sign
from cperturb.expr import Add, Const, Div, Input, Mul, Sub, expand_polynomial, polynomial_expr
from cperturb.geom import (
    canonical_cycle,
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
from cperturb.grid import GridSpec, InadmissibleInput, PerturbationBox, SplitMix64, sample_grid_values
from cperturb.softfloat import fl_round


class TestOrientationExpr:
    def test_left_turn(self):
        assert rat_eval(orientation2d_expr(), [0, 0, 1, 0, 0, 1]) == 1

    def test_collinear(self):
        assert rat_sign(orientation2d_expr(), [0, 0, 1, 1, 2, 2]) == 0

    def test_antisymmetry(self):
        e = orientation2d_expr()
        pts = [F(1, 4), F(3, 8), F(7, 8), F(-1, 2), F(5, 8), F(9, 16)]
        swapped = pts[:2] + pts[4:6] + pts[2:4]
        assert rat_eval(e, pts) == -rat_eval(e, swapped)


class TestInBoxExpr:
    def test_inside(self):
        assert rat_eval(inbox_expr(), [0, 0, 2, 2, 1, 1]) == -1

    def test_edge_zero(self):
        assert rat_sign(inbox_expr(), [0, 0, 2, 2, 0, 1]) == 0

    def test_outside(self):
        assert rat_sign(inbox_expr(), [0, 0, 2, 2, 3, 1]) == 1


class TestInCircleExpr:
    def test_outside(self):
        assert rat_eval(incircle_expr(), [0, 0, 1, 2, 0]) == 3

    def test_on_circle(self):
        assert rat_sign(incircle_expr(), [0, 0, 1, 1, 0]) == 0

    def test_inside(self):
        assert rat_sign(incircle_expr(), [0, 0, 1, F(1, 2), 0]) == -1


class TestGuardMatchesOracle:
    def make_instances(self):
        return [
            make_univariate((-F(1, 8), F(1, 4), F(1)), center=0, delta=1),
            make_orientation2d([(0, 0), (1, 0), (0, 1)], delta=F(1, 2)),
            make_inbox((0, 0), (2, 2), (1, 1), delta=F(1, 2)),
            make_incircle((0, 0), 1, (1, 0), delta=F(1, 2)),
        ]

    @pytest.mark.parametrize("L", [16, 24, 53])
    def test_certified_equals_exact_sign(self, L):
        for inst in self.make_instances():
            spec = GridSpec(L, 8, inst.desc.emax)
            centers = tuple(lo for lo, _ in inst.desc.a_box)
            box = PerturbationBox(centers, inst.desc.delta)
            rng = SplitMix64(hash(inst.name) & 0xFFFF)
            for _ in range(2500):
                vals = sample_grid_values(box, spec, rng)
                full = inst.assemble(vals)
                v = inst.guarded(full, L, 8)
                if isinstance(v, SignCertified):
                    assert v.sign == rat_sign(inst.expr, full)

    def test_inbox_max_composition(self):
        # certified sign of the Max node equals the sign of the exact max
        inst = make_inbox((0, 0), (2, 2), (1, 1), delta=F(1, 2))
        spec = GridSpec(20, 8, inst.desc.emax)
        box = PerturbationBox((1, 1), inst.desc.delta)
        rng = SplitMix64(99)
        certified = 0
        for _ in range(500):
            vals = sample_grid_values(box, spec, rng)
            full = inst.assemble(vals)
            v = inst.guarded(full, 20, 8)
            if isinstance(v, SignCertified):
                certified += 1
                assert v.sign == rat_sign(inst.expr, full)
        assert certified > 400  # generous precision certifies nearly always


class TestPolynomialBuilder:
    def test_univariate_tree_shape(self):
        # ascending terms, zeros skipped, Const times x one Mul at a time,
        # folded left: the shape fixes the guard's rounding order
        x = Input(0)
        expected = Add(
            Add(Const(F(3)), Mul(Mul(Const(F(-2)), x), x)),
            Mul(Mul(Mul(Const(F(1, 3)), x), x), x),
        )
        assert make_univariate((3, 0, -2, F(1, 3))).expr == expected

    def test_polynomial_expr_inverts_expansion(self):
        terms = {(0, 2, 1): F(-3, 4), (1, 0, 0): F(5), (0, 0, 0): F(1, 3), (2, 1, 0): F(0)}
        e = polynomial_expr(terms)
        assert expand_polynomial(e, 3) == {key: c for key, c in terms.items() if c}
        assert polynomial_expr({(1, 0): F(0)}) == Const(F(0))

    def test_orientation2d_is_a_polynomial(self):
        centers = [(0, 0), (1, F(1, 2)), (F(-3, 4), 2)]
        flat = [c for pt in centers for c in pt]
        a = make_orientation2d(centers, delta=F(1, 8))
        b = make_polynomial(orientation2d_expr(), 6, flat, [F(1, 8)] * 6, name="orientation2d")
        assert (a.name, a.expr, a.desc) == (b.name, b.expr, b.desc)
        assert a.bounds == b.bounds

    def test_zero_terms_are_dropped(self):
        e = polynomial_expr({(2, 0): F(1), (1, 1): F(1)})
        padded = Add(e, Mul(Const(F(0)), Mul(Input(0), Input(1))))
        a = make_polynomial(e, 2, (F(1, 2), 1), (F(1, 4), F(1, 4)))
        b = make_polynomial(padded, 2, (F(1, 2), 1), (F(1, 4), F(1, 4)))
        assert a.bounds == b.bounds and a.desc.emax == b.desc.emax

    @pytest.mark.parametrize("expr", [
        Const(F(0)),
        Sub(Mul(Input(0), Input(1)), Mul(Input(1), Input(0))),
        Add(Const(F(3)), Sub(Input(0), Input(0))),
        Div(Input(0), Input(1)),
    ], ids=["zero", "cancelling", "constant", "division"])
    def test_refusals(self, expr):
        with pytest.raises(NotAnalyzable):
            make_polynomial(expr, 2, (0, 0), (1, 1))

    def test_explicit_emax_must_hold_every_input(self):
        # each builder admits the least emax that holds every centre +- delta
        # and every fixed value, and refuses one below it; the default also
        # adds delta to the fixed data, as it always has
        builds = [
            (lambda e: make_univariate((1, 1), center=3, delta=1, emax=e), 2, 2),
            (lambda e: make_polynomial(Mul(Input(0), Input(1)), 2, (F(1, 2), -5), (F(1, 4), 3), emax=e), 3, 3),
            (lambda e: make_orientation2d([(0, 0), (1, 0), (0, 7)], delta=1, emax=e), 3, 3),
            (lambda e: make_inbox((0, 0), (8, 1), (1, 1), delta=F(1, 2), emax=e), 3, 4),
            (lambda e: make_incircle((0, 0), 8, (1, 1), delta=F(1, 2), emax=e), 3, 4),
        ]
        for build, need, default in builds:
            assert build(None).desc.emax == default
            assert build(need).desc.emax == need
            with pytest.raises(InadmissibleInput, match=f"emax = {need - 1} is below {need}"):
                build(need - 1)

    def test_coordinate_counts_checked(self):
        with pytest.raises(ValueError):
            make_polynomial(Mul(Input(0), Input(1)), 2, (0,), (1, 1))


class TestRationalPredicate:
    def test_sign_composes(self):
        from cperturb.errorbounds import guarded_eval

        e = rational_expr()
        assert guarded_eval(e, [F(1, 2), F(-1, 4)], 16, 8, 1) == SignCertified(-1)
        assert guarded_eval(e, [F(-1, 2), F(-1, 4)], 16, 8, 1) == SignCertified(1)

    def test_pole_fails_guard(self):
        from cperturb.errorbounds import guarded_eval

        assert isinstance(guarded_eval(rational_expr(), [F(1, 2), 0], 16, 8, 1), GuardFailed)


def to_points(coords, L=53, K=11):
    return [
        (fl_round(F(x), L, K), fl_round(F(y), L, K))
        for x, y in zip(coords[::2], coords[1::2])
    ]


class TestGuardedHull:
    def test_square(self):
        pts = to_points([0, 0, 2, 0, 2, 2, 0, 2])
        kind, hull = guarded_convex_hull(pts, 53, 11, emax=2)
        assert kind == "success"
        assert canonical_cycle(hull) == (0, 1, 2, 3)

    def test_collinear_fails_all_precisions(self):
        for L in (8, 16, 32, 64):
            pts = to_points([0, 0, 1, 1, 2, 2], L=L)
            kind, _ = guarded_convex_hull(pts, L, 11, emax=2)
            assert kind == "guard_failure"

    def test_random_grid_points_match_oracle(self):
        spec = GridSpec(53, 11, 2)
        box = PerturbationBox((0,) * 2, (2, 2))
        rng = SplitMix64(123)
        for trial in range(10):
            coords = []
            for _ in range(100):
                coords.extend(sample_grid_values(box, spec, rng))
            pts = to_points(coords)
            kind, hull = guarded_convex_hull(pts, 53, 11, emax=2)
            if kind != "success":
                continue  # an exact degeneracy is possible, just rare
            exact = exact_convex_hull(list(zip(coords[::2], coords[1::2])))
            assert canonical_cycle(hull) == canonical_cycle(exact)

    def test_duplicate_points_merged(self):
        pts = to_points([0, 0, 0, 0, 2, 0, 2, 2, 0, 2, 2, 2])
        kind, hull = guarded_convex_hull(pts, 53, 11, emax=2)
        assert kind == "success"
        assert len(hull) == 4
