"""Byte goldens for seeded `cperturb simulate` runs.

Each case runs the CLI in-process and compares stdout with the bytes in
tests/golden/simulate.json.  The cases cover every predicate route that
`simulate` builds: univariate d = 2, a multivariate monomial set,
orientation2d, in_box and in_circle (fixed instance slots), and a predicate
file with a non-dyadic constant; one case splits its trials over two worker
processes.  To regenerate after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden_simulate.py > tests/golden/simulate.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cperturb.cli import main

GOLDEN = Path(__file__).parent / "golden" / "simulate.json"

# (x0 + 1/3) * x1^2 - x2 * (x0 - 2): a non-dyadic constant, k = 3
_POLY_FILE = "(sub (mul (add x0 1/3) (mul x1 x1)) (mul x2 (sub x0 2)))\n"
# x0 * x1 + x0^2 / 2 + x1^3, centred next to its zero set
_TERMS = ["1:1,1", "1/2:2,0", "1:0,3"]

CASES = {
    "univariate_d2": ["--predicate", "univariate", "--degree", "2", "--delta", "1",
                      "--L", "20", "--K", "8", "--trials", "300", "--seed", "5"],
    "univariate_d2_jobs2": ["--predicate", "univariate", "--degree", "2", "--delta", "1",
                            "--L", "4", "--K", "8", "--trials", "301", "--seed", "5",
                            "--jobs", "2"],
    "multivariate": ["--predicate", "multivariate", "--terms", *_TERMS, "--xbar", "1/8",
                     "0", "--delta", "1/4", "--L", "8", "--K", "8", "--trials", "200",
                     "--seed", "7"],
    "multivariate_L24": ["--predicate", "multivariate", "--terms", *_TERMS, "--xbar",
                         "1/8", "0", "--delta", "1/4", "--L", "24", "--K", "8",
                         "--trials", "50", "--seed", "7"],
    "orientation2d": ["--predicate", "orientation2d", "--xbar", "0", "0", "1", "1",
                      "2", "2", "--delta", "1/8", "--L", "8", "--K", "8",
                      "--trials", "150", "--seed", "3"],
    "in_box": ["--predicate", "in_box", "--xbar", "2", "1", "--delta", "1/2",
               "--L", "6", "--K", "8", "--trials", "200", "--seed", "11"],
    "in_circle": ["--predicate", "in_circle", "--center", "1/4", "1/2", "--radius",
                  "5/2", "--xbar", "7/4", "5/2", "--delta", "1/4", "--L", "8",
                  "--K", "8", "--trials", "200", "--seed", "13"],
    # the centre lies on the zero set, so low L fails some draws
    "predicate_file": ["--predicate-file", "{poly}", "--delta", "1/4", "--xbar", "3",
                       "3/4", "15/8", "--L", "12", "--K", "8", "--trials", "150",
                       "--seed", "17"],
    "predicate_file_L32": ["--predicate-file", "{poly}", "--delta", "1/4", "--xbar",
                           "3", "3/4", "15/8", "--L", "32", "--K", "8", "--trials",
                           "50", "--seed", "17"],
}


def simulate_stdout(name: str, directory: Path) -> str:
    poly = directory / "poly.txt"
    poly.write_text(_POLY_FILE)
    argv = [a.replace("{poly}", str(poly)) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", *argv]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert simulate_stdout(name, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {name: simulate_stdout(name, Path(tmp)) for name in sorted(CASES)}
    json.dump(goldens, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
