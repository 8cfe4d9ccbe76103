import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cperturb.cli import main, parse_exact


def run_cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "cperturb.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


class TestParseExact:
    def test_fraction(self):
        assert parse_exact("3/8") == F(3, 8)

    def test_dyadic_decimal(self):
        assert parse_exact("0.5") == F(1, 2)
        assert parse_exact("-1.25") == F(-5, 4)

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            parse_exact("0.1")


class TestEnumerate:
    def test_float_ratio_lower_half(self, capsys):
        assert main(["enumerate", "--L", "2", "--K", "3", "--universe", "0", "2", "--target", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "ratio: 17/21" in out

    def test_float_ratio_upper_half(self, capsys):
        main(["enumerate", "--L", "2", "--K", "3", "--universe", "0", "2", "--target", "1", "2"])
        assert "ratio: 5/21" in capsys.readouterr().out

    def test_grid_ratio_lower_half(self, capsys):
        main(["enumerate", "--L", "2", "--K", "3", "--emax", "1", "--universe", "0", "2", "--target", "0", "1", "--grid"])
        assert "ratio: 5/9" in capsys.readouterr().out

    def test_grid_ratio_inner_interval(self, capsys):
        main(["enumerate", "--L", "2", "--K", "3", "--emax", "1", "--universe", "0", "2", "--target", "1/10", "9/10", "--grid"])
        assert "ratio: 1/3" in capsys.readouterr().out

    def test_refusal(self, capsys):
        assert main(["enumerate", "--L", "24", "--K", "8", "--universe", "0", "1", "--target", "0", "1"]) == 2


class TestAnalyze:
    def test_univariate_example(self, capsys):
        code = main(
            ["analyze", "--predicate", "univariate", "--degree", "1", "--p", "0.5",
             "--delta", "1", "--emax", "1", "--t", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "L_safe   = 7" in out

    def test_json_deterministic(self, capsys):
        args = ["analyze", "--predicate", "multivariate", "--terms", "1:1,1", "--p", "1/4",
                "--delta", "1", "--emax", "1", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["L_safe"] == 11

    def test_rational_shows_components(self, capsys):
        main(["analyze", "--predicate", "rational", "--p", "1/2", "--delta", "1/2"])
        out = capsys.readouterr().out
        assert "(1+p)/2 = 3/4" in out
        assert out.count("step 5") == 2

    def test_algorithm_hull(self, capsys):
        main(["analyze", "--algorithm", "hull", "--n", "16", "--p", "0.5", "--delta", "1/2", "--json"])
        d = json.loads(capsys.readouterr().out)
        assert d["N_E"] == 64
        assert F(d["rho"]) == F(1, 2) / 64

    def test_not_analyzable_exit_code(self, capsys):
        # univariate budget cannot absorb p < 1/2
        code = main(["analyze", "--predicate", "univariate", "--degree", "1", "--p", "1/4",
                     "--delta", "1", "--emax", "1"])
        assert code == 2


class TestInadmissibleParameters:
    """Parameters outside their domain end with exit 2 and one line, no
    traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--p", "2"], "p must lie in (0,1)"),
        (["analyze", "--delta", "0", "--p", "1/2"], "perturbation parameters must be positive"),
        (["analyze", "--t", "2", "--p", "1/2"], "t must lie in (0,1)"),
        (["simulate", "--delta", "0", "--L", "8", "--K", "4", "--trials", "3"],
         "perturbation parameters must be positive"),
        (["analyze", "--algorithm", "hull", "--p", "2"], "p must lie in (0,1)"),
        (["analyze", "--algorithm", "hull", "--delta", "0", "--p", "1/2"], "delta must be positive"),
        (["analyze", "--algorithm", "tsp", "--p", "1/2"], "unknown algorithm 'tsp'"),
        (["analyze", "--predicate", "tsp", "--p", "1/2"], "unknown predicate 'tsp'"),
    ], ids=["analyze_p", "analyze_delta", "analyze_t", "simulate_delta", "algorithm_p",
            "algorithm_delta", "unknown_algorithm", "unknown_predicate"])
    def test_exit_two(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"inadmissible input: {message}\n"


class TestSimulate:
    def test_header_only(self, capsys):
        main(["simulate", "--predicate", "univariate", "--degree", "2", "--L", "16",
              "--K", "8", "--trials", "0", "--seed", "1", "--delta", "1"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["L,K,trials,successes,empirical_p,theoretical_p_f"]

    def test_deterministic_bytes(self, capsys):
        args = ["simulate", "--predicate", "univariate", "--degree", "2", "--L", "16",
                "--K", "8", "--trials", "200", "--seed", "5", "--delta", "1"]
        main(args)
        a = capsys.readouterr().out
        main(args)
        b = capsys.readouterr().out
        assert a == b

    def test_no_region_line_prints_na(self, capsys):
        # non-cubical deltas leave the multivariate region bound without a line form
        code = main(["simulate", "--predicate", "multivariate", "--terms", "1:2,0", "1:0,2",
                     "--delta", "1/4", "1/8", "--L", "16", "--K", "8", "--trials", "10",
                     "--seed", "1"])
        assert code == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row.startswith("16,8,10,") and row.endswith(",n/a")


class TestHull(object):
    def write_points(self, tmp_path, rows):
        path = tmp_path / "pts.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_square_one_round(self, tmp_path, capsys):
        path = self.write_points(tmp_path, ["0,0", "4,0", "4,4", "0,4"])
        assert main(["hull", "--input", path, "--delta", "1/4", "--seed", "3"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert len(d["hull"]) == 4
        assert d["stats"]["rounds"] == 1

    def test_collinear_recovers(self, tmp_path, capsys):
        rows = [f"{i},{i}" for i in range(32)]
        path = self.write_points(tmp_path, rows)
        assert main(["hull", "--input", path, "--delta", "1/2", "--seed", "9"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["stats"]["outcomes"][-1] == "success"

    def test_disc_uses_eta_two(self, tmp_path, capsys):
        path = self.write_points(tmp_path, ["0,0", "4,0", "4,4", "0,4"])
        main(["hull", "--input", path, "--shape", "disc", "--delta", "1/4", "--seed", "3"])
        d = json.loads(capsys.readouterr().out)
        assert d["eta"] == 2

    def test_iteration_cap_exit_code(self, tmp_path, capsys):
        # at L = 24 the grid unit near 2^30 is 64, so no grid point lies within
        # 1/4 of 2^30 + 4: the only round fails
        rows = ["1073741824,1073741824", "1073741828,1073741824", "1073741824,1073741828"]
        path = self.write_points(tmp_path, rows)
        code = main(["hull", "--input", path, "--delta", "1/4", "--seed", "1",
                     "--max-rounds", "1"])
        assert code == 3

    @pytest.mark.parametrize("extra", [[], ["--basic"]])
    def test_two_points_refused_promptly(self, tmp_path, extra):
        # no perturbation of two points has a hull: refused before the loop,
        # which would otherwise double L for the default 64 rounds
        path = self.write_points(tmp_path, ["0,0", "0,0"])
        proc = subprocess.run(
            [sys.executable, "-m", "cperturb.cli", "hull", "--input", path, *extra],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "inadmissible input" in proc.stderr

    def test_three_repeated_points_accepted(self, tmp_path, capsys):
        path = self.write_points(tmp_path, ["1,1", "1,1", "1,1"])
        assert main(["hull", "--input", path, "--delta", "1/4", "--seed", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["hull"]) == 3

    def test_basic_variant(self, tmp_path, capsys):
        path = self.write_points(tmp_path, ["0,0", "4,0", "4,4", "0,4"])
        assert main(["hull", "--input", path, "--delta", "1/4", "--seed", "3", "--basic"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["stats"]["rounds"] >= 1

    @pytest.mark.parametrize("rows, flags, message", [
        (["0,0", "4,0", "0,4"], ["--psi-l", "1"], "need psi_L > 1 and psi_K >= 1"),
        (["0,0", "4,0", "0,4"], ["--psi-k", "0"], "need psi_L > 1 and psi_K >= 1"),
        (["0,0", "4,0,1", "0,4"], [], "pts.csv:2: expected 'x,y'"),
    ], ids=["psi_l", "psi_k", "csv_row"])
    def test_inadmissible_exit_two(self, tmp_path, capsys, rows, flags, message):
        path = self.write_points(tmp_path, rows)
        assert main(["hull", "--input", path, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("inadmissible input: ") and err.endswith(f"{message}\n")

    def test_reject_non_dyadic_point(self, tmp_path):
        path = self.write_points(tmp_path, ["0.1,0"])
        with pytest.raises(ValueError):
            main(["hull", "--input", path, "--delta", "1/4"])


class TestSeedEnv:
    def test_cp_seed_env_default(self, tmp_path):
        import os

        path = tmp_path / "pts.csv"
        path.write_text("0,0\n4,0\n4,4\n0,4\n")
        env = dict(os.environ, CP_SEED="77")
        a = run_cli("hull", "--input", str(path), "--delta", "1/4", env=env)
        b = run_cli("hull", "--input", str(path), "--delta", "1/4", "--seed", "77")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestPredicateInput:
    """Polynomial predicates from --terms or a file: zero terms, the zero
    polynomial and coordinate counts, through both subcommands."""

    RUN = {
        "analyze": ["--p", "9/10"],
        "simulate": ["--L", "10", "--K", "8", "--trials", "20", "--seed", "1"],
    }

    def run(self, command, *flags):
        return main([command, *flags, *self.RUN[command]])

    @pytest.mark.parametrize("command", sorted(RUN))
    def test_zero_coefficient_term_is_dropped(self, command, capsys):
        assert self.run(command, "--predicate", "multivariate", "--terms", "0:2,0", "1:1,0") == 0
        with_zero = capsys.readouterr().out
        assert self.run(command, "--predicate", "multivariate", "--terms", "1:1,0") == 0
        assert with_zero == capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(RUN))
    def test_zero_terms_not_analyzable(self, command, capsys):
        assert self.run(command, "--predicate", "multivariate", "--terms", "0:2,0", "0:1,1") == 2
        assert "not analyzable" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(RUN))
    def test_cancelling_file_not_analyzable(self, command, tmp_path, capsys):
        path = tmp_path / "cancel.txt"
        path.write_text("(sub (mul x0 x1) (mul x1 x0))\n")
        assert self.run(command, "--predicate-file", str(path)) == 2
        assert "not analyzable" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(RUN))
    @pytest.mark.parametrize("flags", [
        ["--predicate", "multivariate", "--terms", "1:1,1", "--xbar", "1"],
        ["--predicate", "multivariate", "--terms", "1:1,1", "--xbar", "1", "2", "3"],
        ["--predicate", "multivariate", "--terms", "1:1,1", "--delta", "1", "2", "3"],
        ["--predicate", "multivariate", "--terms", "1:1,1", "1:1"],
        ["--predicate", "orientation2d", "--xbar", "0", "0", "1", "0"],
        ["--predicate", "univariate", "--xbar", "1", "2"],
        ["--predicate", "in_circle", "--delta", "1/4", "1/4"],
    ], ids=["xbar_short", "xbar_long", "delta_count", "terms_lengths", "orientation2d_xbar",
            "univariate_xbar", "in_circle_delta"])
    def test_inadmissible_counts(self, command, flags, capsys):
        assert self.run(command, *flags) == 2
        assert "inadmissible input" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(RUN))
    def test_arity_above_eight_not_analyzable(self, command, tmp_path, capsys):
        # select_beta is capped at eight variables
        path = tmp_path / "nine.txt"
        path.write_text("(add (mul x0 x8) x1)\n")
        assert self.run(command, "--predicate-file", str(path)) == 2
        assert "not analyzable" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(RUN))
    def test_file_xbar_count(self, command, tmp_path, capsys):
        path = tmp_path / "poly.txt"
        path.write_text("(mul x0 (sub x1 x2))\n")
        assert self.run(command, "--predicate-file", str(path), "--xbar", "1", "2") == 2
        assert "inadmissible input" in capsys.readouterr().err

    def test_option_sets(self):
        from cperturb.cli import make_parser

        shared = {"--predicate", "--predicate-file", "--delta", "--emax", "--t", "--degree",
                  "--coeffs", "--terms", "--xbar", "--corner-u", "--corner-v", "--center",
                  "--radius", "-h", "--help"}
        subparsers = make_parser()._subparsers._group_actions[0].choices
        options = {
            name: {s for a in sub._actions for s in a.option_strings}
            for name, sub in subparsers.items()
        }
        assert options["analyze"] == shared | {"--algorithm", "--p", "--n", "--shape", "--json"}
        assert options["simulate"] == shared | {"--L", "--K", "--trials", "--seed", "--jobs"}


class TestNegativeValues:
    """A token -<digit>... is a value, never an option: negative
    coefficients, centres and coordinates reach the predicate, and repeated
    --terms flags accumulate."""

    # at L = 4 some guards fail, so a dropped term shows in the counts
    RUN = {
        "analyze": ["--p", "9/10"],
        "simulate": ["--L", "4", "--K", "8", "--trials", "20", "--seed", "1"],
    }
    # x0^2 - x0*x1 in the tree --terms builds, so the guards round alike
    POLY = "(add (mul (mul -1 x0) x1) (mul (mul 1 x0) x0))\n"

    def output(self, capsys, command, *flags):
        extra = ["--json"] if command == "analyze" else []
        assert main([command, *flags, *self.RUN[command], *extra]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(RUN))
    @pytest.mark.parametrize("terms", [
        ["--terms", "1:2,0", "-1:1,1"],
        ["--terms", "1:2,0", "--terms", "-1:1,1"],
        ["--terms", "1:2,0", "--terms=-1:1,1"],
        ["--terms=-1:1,1", "--terms", "1:2,0"],
    ], ids=["one_flag", "repeated", "repeated_equals", "negative_first"])
    @pytest.mark.parametrize("xbar", [["1", "1/2"], ["-1/2", "1"]], ids=["xbar_pos", "xbar_neg"])
    def test_terms_match_predicate_file(self, command, terms, xbar, tmp_path, capsys):
        path = tmp_path / "poly.txt"
        path.write_text(self.POLY)
        common = ["--delta", "1/4", "--xbar", *xbar]
        from_terms = self.output(capsys, command, "--predicate", "multivariate", *terms, *common)
        assert from_terms == self.output(capsys, command, "--predicate-file", str(path), *common)

    # the analysis reads |a_i| and |centre| only, so these are the same problem
    @pytest.mark.parametrize("negative,positive", [
        (["--coeffs", "-1/8", "1/4", "1"], ["--coeffs", "1/8", "1/4", "1"]),
        (["--coeffs", "1", "-3", "1/2", "--xbar", "-1/2"], ["--coeffs", "1", "3", "1/2", "--xbar", "1/2"]),
        (["--xbar", "-3/2"], ["--xbar", "3/2"]),
        (["--xbar", "-.5"], ["--xbar", ".5"]),
        (["--predicate", "in_circle", "--radius", "5/2", "--delta", "1/4",
          "--center", "-1/4", "1/2", "--xbar", "-7/4", "5/2"],
         ["--predicate", "in_circle", "--radius", "5/2", "--delta", "1/4",
          "--center", "1/4", "1/2", "--xbar", "7/4", "5/2"]),
    ], ids=["coeffs", "coeffs_xbar", "xbar", "xbar_decimal", "in_circle_center"])
    def test_mirror_matches_positive(self, negative, positive, capsys):
        assert self.output(capsys, "analyze", *negative) == self.output(capsys, "analyze", *positive)

    def test_coefficients_reach_the_predicate(self, capsys):
        from cperturb.geom import make_univariate
        from cperturb.qr import quantified_relations

        out = self.output(capsys, "analyze", "--coeffs", "-1/8", "1/4", "1")
        inst = make_univariate((F(-1, 8), F(1, 4), F(1)), center=0, delta=1)
        req = quantified_relations(inst.desc, inst.bounds, F(9, 10))
        assert json.loads(out) == req.to_json_dict()
