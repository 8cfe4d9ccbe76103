"""Byte goldens for `cperturb analyze` runs.

Each case runs the CLI in-process and compares stdout with the bytes in
tests/golden/analyze.json.  The cases cover the irrational `~` path through
pi (in_circle, the disc hull), the multivariate route with several beta
candidates (orientation2d, a k = 6 monomial set, a predicate file), the
rational split and the box hull.  To regenerate after an intended output
change:

    PYTHONPATH=src python tests/test_cli_golden_analyze.py > tests/golden/analyze.json
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

GOLDEN = Path(__file__).parent / "golden" / "analyze.json"

_IN_CIRCLE = ["--predicate", "in_circle", "--center", "1/4", "1/2", "--radius", "5/2",
              "--xbar", "7/4", "5/2", "--delta", "1/4", "--p", "3/4"]
# k = 6, five monomials; more than one tuple is reverse-lex maximal
_TERMS_K6 = ["1:1,0,0,0,0,1", "1/2:0,1,1,0,0,0", "3:0,0,1,1,1,0",
             "1:2,0,0,0,1,1", "5/4:0,2,0,1,0,1"]
# (x0 + 1/3) * x1^2 - x2 * (x0 - 2): a non-dyadic constant, k = 3
_POLY_FILE = "(sub (mul (add x0 1/3) (mul x1 x1)) (mul x2 (sub x0 2)))\n"

CASES = {
    "in_circle": _IN_CIRCLE,
    "in_circle_json": [*_IN_CIRCLE, "--json"],
    "orientation2d_json": ["--predicate", "orientation2d", "--p", "3/4", "--json"],
    "multivariate_k6": ["--predicate", "multivariate", "--terms", *_TERMS_K6,
                        "--delta", "1/4", "--p", "1/2"],
    "predicate_file": ["--predicate-file", "{poly}", "--delta", "1/4",
                       "--xbar", "1", "2", "3", "--p", "1/2"],
    "rational": ["--predicate", "rational", "--delta", "1/2", "1/4", "--p", "1/2"],
    "hull_disc": ["--algorithm", "hull", "--shape", "disc", "--n", "16", "--p", "1/2"],
    "hull_box": ["--algorithm", "hull", "--shape", "box", "--n", "64", "--p", "3/4",
                 "--json"],
}


def analyze_stdout(name: str, directory: Path) -> str:
    poly = directory / "poly.txt"
    poly.write_text(_POLY_FILE)
    argv = [a.replace("{poly}", str(poly)) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", *argv]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert analyze_stdout(name, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {name: analyze_stdout(name, Path(tmp)) for name in sorted(CASES)}
    json.dump(goldens, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
