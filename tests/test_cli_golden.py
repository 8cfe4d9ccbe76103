"""Byte goldens for seeded `cperturb hull` runs.

Each case writes a fixed point file and compares stdout with the bytes in
tests/golden/hull.json.  To regenerate after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/hull.json
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

GOLDEN = Path(__file__).parent / "golden" / "hull.json"

# mixed signs, zero coordinates, an exact duplicate and a collinear row
_MIXED = ["0,0", "3,-2", "-5/2,1", "0,4", "3,-2", "-1,-1", "1,1", "2,2",
          "7/4,-3", "-3,0", "0,-7/8", "5,5"]
# a 3 x 3 lattice, every point twice
_LATTICE = [f"{i},{j}" for i in range(3) for j in range(3) for _ in range(2)]
# a square with a collinear side point, offset by 2^30: the first round's
# grid is too coarse for delta, so L grows
_FAR = [f"{x + 2**30},{y + 2**30}" for x, y in
        [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0), (2, 2)]]
_HUGE = [f"{x * 2**190},{y * 2**190}" for x, y in
         [(0, 0), (3, 1), (1, 4), (-2, 2), (1, 1), (3, 1), (-1, -3)]]

CASES = {
    "box": (_MIXED, ["--delta", "1/2", "--seed", "11"]),
    "disc": (_LATTICE, ["--shape", "disc", "--delta", "1/4", "--seed", "5"]),
    "basic": (_FAR, ["--basic", "--delta", "1/4", "--seed", "3"]),
    "huge": (_HUGE, ["--delta", "1/2", "--seed", "7"]),
}


def hull_stdout(name: str, directory: Path) -> str:
    rows, flags = CASES[name]
    path = directory / f"{name}.csv"
    path.write_text("\n".join(rows) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["hull", "--input", str(path), *flags]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_hull_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert hull_stdout(name, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {name: hull_stdout(name, Path(tmp)) for name in sorted(CASES)}
    json.dump(goldens, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
