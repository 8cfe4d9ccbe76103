"""Mutated argv of the golden `analyze` and `simulate` cases ends in a typed
outcome.

Each example takes one golden case, drops, duplicates or swaps a token, or
puts in a boundary value (0, -1, 1/3, 0.1, 2^64, abc or the path of an
empty file), and runs `main` in-process.  The exit code must be 0, 2 or 3,
stderr must hold no traceback, and a rerun must print the same stdout.
Simulate cases run at most 20 trials at L <= 16 with --jobs 1, so no worker
process starts and the suite stays fast.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from test_cli_golden_analyze import CASES as ANALYZE_CASES
from test_cli_golden_analyze import _POLY_FILE
from test_cli_golden_simulate import CASES as SIMULATE_CASES

from cperturb.cli import main, make_parser

MAX_TRIALS, MAX_L = 20, 16
EMPTY = "{empty}"
VALUES = ("0", "-1", "1/3", "0.1", "2^64", "abc", EMPTY)


def _small(argv: list[str]) -> list[str]:
    """A simulate case cut to at most MAX_TRIALS trials at L <= MAX_L."""
    out = list(argv)
    for flag, cap in (("--trials", MAX_TRIALS), ("--L", MAX_L)):
        i = out.index(flag) + 1
        out[i] = str(min(int(out[i]), cap))
    return out


BASES = [("analyze", argv) for _, argv in sorted(ANALYZE_CASES.items())] + [
    ("simulate", _small(argv)) for _, argv in sorted(SIMULATE_CASES.items())
]


@st.composite
def mutations(draw):
    command, argv = draw(st.sampled_from(BASES))
    argv = list(argv)
    i = draw(st.integers(0, len(argv) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "swap", "put")))
    if how == "drop":
        del argv[i]
    elif how == "duplicate":
        argv.insert(i, argv[i])
    elif how == "swap":
        j = draw(st.integers(0, len(argv) - 1))
        argv[i], argv[j] = argv[j], argv[i]
    else:
        argv[i] = draw(st.sampled_from(VALUES))
    if command == "simulate":
        argv += ["--jobs", "1"]  # the last --jobs wins: no worker process
    return [command, *argv]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def within_budget(argv: list[str]) -> bool:
    """Whether the command line, if it parses, stays within the trial and
    precision caps."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = make_parser().parse_args(argv)
        except SystemExit:
            return True
    return argv[0] != "simulate" or (args.trials <= MAX_TRIALS and args.L <= MAX_L)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "poly.txt").write_text(_POLY_FILE)
    (d / "empty.txt").write_text("")
    return {"{poly}": str(d / "poly.txt"), EMPTY: str(d / "empty.txt")}


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(mutations())
def test_mutated_argv_ends_typed(files, argv):
    argv = [files.get(a, a) for a in argv]
    assume(within_budget(argv))
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    assert run(argv)[1] == out, argv
