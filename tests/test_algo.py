import time
from fractions import Fraction as F

import pytest

from cperturb.algo import (
    MAX_L,
    AlgorithmDescription,
    IterationCapExceeded,
    PerturbationShape,
    distributed_probability,
    eta,
    rho,
    run_acp,
    run_acp_delta_variant,
    run_basic_acp,
)
from cperturb.geom import (
    EvalCounter,
    canonical_cycle,
    exact_convex_hull,
    guarded_convex_hull,
    make_orientation2d,
    make_univariate,
)
from cperturb.grid import compute_emax
from cperturb.qr import quantified_relations


class TestEta:
    def test_box(self):
        assert eta(PerturbationShape("box", 1)) == 1

    def test_disc(self):
        assert eta(PerturbationShape("disc", F(1, 2))) == 2  # ceil(pi/2)

    def test_ball(self):
        assert eta(PerturbationShape("ball", 2)) == 3  # ceil(pi*sqrt(3)/2)


class TestRho:
    def test_budget_split(self):
        assert rho(F(9, 10), 100) == F(1, 1000)

    def test_single_eval(self):
        assert rho(F(1, 2), 1) == F(1, 2)


class TestDistributed:
    def test_single_predicate_reduces_to_lf(self):
        inst = make_univariate((0, 0, 1), delta=1)
        algo = AlgorithmDescription(
            predicates=(("u", inst.desc, inst.bounds),),
            n_evals=lambda n: 1,
            shape=PerturbationShape("box", 1),
        )
        p = F(3, 4)
        req = distributed_probability(algo, p, 10)
        direct = quantified_relations(inst.desc, inst.bounds, p)
        assert (req.L, req.K) == (direct.L_f, direct.K_f)
        assert req.rho == 1 - p

    def test_budget_division(self):
        inst = make_univariate((0, 0, 1), delta=1)
        algo = AlgorithmDescription(
            predicates=(("u", inst.desc, inst.bounds),),
            n_evals=lambda n: 100,
            shape=PerturbationShape("box", 1),
        )
        req = distributed_probability(algo, F(9, 10), 1)
        assert req.rho == F(1, 1000)
        direct = quantified_relations(inst.desc, inst.bounds, F(999, 1000))
        assert req.L == direct.L_f

    def test_max_over_predicates(self):
        a = make_univariate((0, 1), delta=1)
        b = make_univariate((0, 0, 0, 1), delta=1)  # higher degree, more bits
        algo = AlgorithmDescription(
            predicates=(("a", a.desc, a.bounds), ("b", b.desc, b.bounds)),
            n_evals=lambda n: 2,
            shape=PerturbationShape("box", 1),
        )
        req = distributed_probability(algo, F(3, 4), 4)
        per = dict((nm, lf) for nm, lf, _ in req.per_predicate)
        assert req.L == max(per.values()) == per["b"]


def scripted(outcomes):
    state = {"i": 0}

    def algo(y, L, K):
        kind = outcomes[min(state["i"], len(outcomes) - 1)]
        state["i"] += 1
        if kind == "success":
            return ("success", (L, K))
        return (kind, None)

    return algo


class TestRunAcp:
    def test_immediate_success(self):
        y, result, stats = run_acp(
            scripted(["success"]), [F(0)], PerturbationShape("box", 1), seed=1
        )
        assert stats.rounds == 1 and stats.outcomes == ["success"]
        assert stats.final_L == 24 and stats.final_K == 8

    def test_range_error_grows_K_once(self):
        y, result, stats = run_acp(
            scripted(["range_error", "success"]),
            [F(0)],
            PerturbationShape("box", 1),
            psi=(2, 8),
            eta_runs=1,
            seed=1,
        )
        assert stats.K_sequence == [8, 16] and stats.final_K == 16
        assert stats.final_L == 24  # L untouched

    def test_guard_failure_grows_L(self):
        y, result, stats = run_acp(
            scripted(["guard_failure", "success"]),
            [F(0)],
            PerturbationShape("box", 1),
            psi=(F(3, 2), 8),
            eta_runs=1,
            seed=1,
        )
        assert stats.L_sequence == [24, 36]

    def test_iteration_cap(self):
        with pytest.raises(IterationCapExceeded):
            run_acp(
                scripted(["guard_failure"]),
                [F(0)],
                PerturbationShape("box", 1),
                seed=1,
                max_rounds=3,
            )

    def test_monotone_parameters(self):
        y, result, stats = run_acp(
            scripted(["guard_failure", "range_error", "guard_failure", "success"]),
            [F(0)],
            PerturbationShape("box", 1),
            eta_runs=1,
            seed=1,
        )
        assert stats.L_sequence == sorted(stats.L_sequence)
        assert stats.K_sequence == sorted(stats.K_sequence)

    def test_K_sequence_is_the_K_used(self):
        # near 2^200 the grid needs K = 9 > K0 = 8 before any evaluation
        flat = [F(c) * 2**200 for c in (0, 0, 3, 0, 0, 3, 2, 2, 1, 1)]
        emax = compute_emax(flat, [F(1, 2)] * len(flat))
        used = []

        def algo(y, L, K):
            used.append(K)
            pts = [(y[i], y[i + 1]) for i in range(0, len(y), 2)]
            return guarded_convex_hull(pts, L, K, emax)

        _, _, stats = run_acp(algo, flat, PerturbationShape("box", F(1, 2)), seed=3)
        assert stats.rounds == len(used) >= 2  # a range-error round, then success
        assert stats.K_sequence == used
        assert used[0] == 9 and stats.final_K == used[-1]


class TestRunBasic:
    def test_single_round(self):
        _, _, stats = run_basic_acp(scripted(["success"]), [F(0)], PerturbationShape("box", 1))
        assert stats.rounds == 1

    def test_fail_twice_quadruples_L(self):
        _, _, stats = run_basic_acp(
            scripted(["guard_failure", "guard_failure", "success"]),
            [F(0)],
            PerturbationShape("box", 1),
            L0=10,
        )
        assert stats.final_L == 40

    def test_matches_general_loop_with_psi2(self):
        outcomes = ["guard_failure", "range_error", "guard_failure", "success"]
        _, _, basic = run_basic_acp(
            scripted(list(outcomes)), [F(0)], PerturbationShape("box", 1), L0=8
        )
        mapped = ["guard_failure" if o == "range_error" else o for o in outcomes]
        _, _, general = run_acp(
            scripted(mapped),
            [F(0)],
            PerturbationShape("box", 1),
            psi=(2, 1),
            eta_runs=1,
            L0=8,
        )
        assert basic.L_sequence == general.L_sequence
        assert basic.rounds == general.rounds


class TestDeltaVariant:
    def test_eta_one_matches_run_acp(self):
        a = run_acp_delta_variant(
            scripted(["guard_failure", "success"]),
            [F(0)],
            PerturbationShape("box", F(1, 4)),
            psi_delta=2,
            delta_min=F(1, 4),
            eta_runs=1,
            seed=3,
        )[2]
        b = run_acp(
            scripted(["guard_failure", "success"]),
            [F(0)],
            PerturbationShape("box", F(1, 4)),
            eta_runs=1,
            seed=3,
        )[2]
        assert a.L_sequence == b.L_sequence and a.rounds == b.rounds

    def test_delta_schedule_and_reset(self):
        _, _, stats = run_acp_delta_variant(
            scripted(["guard_failure"] * 3 + ["success"]),
            [F(0)],
            PerturbationShape("box", F(1, 4)),
            psi_delta=2,
            delta_min=F(1, 4),
            eta_runs=3,
            seed=3,
        )
        assert stats.delta_sequence[:3] == [F(1, 4), F(1, 2), F(1)]
        assert stats.delta_sequence[3] == F(1, 4)  # reset on the next round

    @pytest.mark.parametrize("psi", [(1, 8), (2, 0)])
    def test_psi_checked_like_run_acp(self, psi):
        # psi_L = 1 would rerun every round at L0 until the round cap
        shape = PerturbationShape("box", F(1, 4))
        with pytest.raises(ValueError, match="need psi_L > 1 and psi_K >= 1"):
            run_acp(scripted(["guard_failure"]), [F(0)], shape, psi=psi, max_rounds=3)
        with pytest.raises(ValueError, match="need psi_L > 1 and psi_K >= 1"):
            run_acp_delta_variant(
                scripted(["guard_failure"]), [F(0)], shape,
                psi_delta=2, delta_min=F(1, 4), psi=psi, max_rounds=3,
            )


def hull_guarded(emax):
    def algo(y, L, K):
        pts = [(y[i], y[i + 1]) for i in range(0, len(y), 2)]
        return guarded_convex_hull(pts, L, K, emax)

    return algo


class TestHullEndToEnd:
    @pytest.mark.parametrize("loop", [run_acp, run_basic_acp])
    def test_two_points_stop_at_the_bit_budget(self, loop):
        # no perturbation gives a hull of two points: every round fails and
        # doubles L, until the next round would pass the budget
        flat = [F(0), F(0), F(1), F(1)]
        emax = compute_emax(flat, [F(1, 2)] * len(flat))
        start = time.perf_counter()
        with pytest.raises(IterationCapExceeded, match="bit budget") as info:
            loop(hull_guarded(emax), flat, PerturbationShape("box", F(1, 2)), seed=4)
        assert time.perf_counter() - start < 10
        stats = info.value.stats
        assert stats.L_sequence == [24 << i for i in range(12)]  # 24 * 2^11 <= MAX_L < 24 * 2^12
        assert stats.rounds == 12 and stats.outcomes == ["guard_failure"] * 12
        assert stats.final_L == 24 << 12 > MAX_L
        assert max(stats.L_sequence) <= MAX_L

    def test_round_cap_attaches_the_stats(self):
        with pytest.raises(IterationCapExceeded, match="within 3 rounds") as info:
            run_acp(scripted(["guard_failure"]), [F(0)], PerturbationShape("box", 1), seed=1, max_rounds=3)
        assert info.value.stats.rounds == 3 and info.value.stats.L_sequence == [24, 48, 96]

    def test_degenerate_inputs_terminate_and_match_oracle(self):
        flat = []
        for i in range(8):
            flat += [F(i), F(i)]  # fully collinear
        emax = compute_emax(flat, [F(1, 2)] * len(flat))
        shape = PerturbationShape("box", F(1, 2))
        for seed in range(30):
            y, hull, stats = run_acp(hull_guarded(emax), flat, shape, seed=seed)
            pts = [(y[i].to_fraction(), y[i + 1].to_fraction()) for i in range(0, len(y), 2)]
            assert canonical_cycle(hull) == canonical_cycle(exact_convex_hull(pts))

    def test_rerun_bit_identical(self):
        flat = [F(0), F(0), F(1), F(1), F(2), F(2), F(1), F(0)]
        emax = compute_emax(flat, [F(1, 2)] * len(flat))
        shape = PerturbationShape("disc", F(1, 2))
        a = run_acp(hull_guarded(emax), flat, shape, seed=11)
        b = run_acp(hull_guarded(emax), flat, shape, seed=11)
        assert [v.to_fraction() for v in a[0]] == [v.to_fraction() for v in b[0]]
        assert a[1] == b[1] and a[2].to_json() == b[2].to_json()

    def test_expected_first_round_success(self):
        # parameters from the distributed-probability analysis at p = 1/2, n = 16
        inst = make_orientation2d([(0, 0), (4, 0), (0, 4)], delta=F(1, 2))
        algo = AlgorithmDescription(
            predicates=(("orientation2d", inst.desc, inst.bounds),),
            n_evals=lambda n: 4 * n,
            shape=PerturbationShape("box", F(1, 2)),
        )
        n_pts = 16
        req = distributed_probability(algo, F(1, 2), n_pts)
        flat = []
        for i in range(n_pts):
            flat += [F(i % 4), F((i * i) % 4)]
        emax = compute_emax(flat, [F(1, 2)] * len(flat))
        first_round = 0
        runs = 500
        for seed in range(runs):
            _, _, stats = run_acp(
                hull_guarded(emax),
                flat,
                algo.shape,
                seed=seed,
                L0=req.L,
                K0=req.K,
            )
            if stats.rounds == 1:
                first_round += 1
        # 3-sigma binomial slack around p = 1/2
        import math

        assert first_round >= runs / 2 - 3 * math.sqrt(runs * 0.25)

    def test_collinear_32_points_low_initial_precision(self):
        flat = []
        for i in range(32):
            flat += [F(i), F(i)]
        emax = compute_emax(flat, [F(1, 2)] * len(flat))
        shape = PerturbationShape("box", F(1, 2))
        y, hull, stats = run_acp(hull_guarded(emax), flat, shape, seed=2, L0=8)
        y2, hull2, stats2 = run_acp(hull_guarded(emax), flat, shape, seed=2, L0=8)
        assert stats.outcomes[-1] == "success"
        assert [v.to_fraction() for v in y] == [v.to_fraction() for v in y2]
        assert hull == hull2 and stats.to_json() == stats2.to_json()
