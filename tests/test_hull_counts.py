"""Count goldens for seeded perturbation runs of the guarded hull.

Each case runs `run_acp` over `guarded_convex_hull` on a fixed point set of
one of four classes (uniform, far offset, 2^200-scaled, duplicated lattice)
and pins, per run: the orientation tests of every attempt (`EvalCounter`),
the `uniform_int` calls, the rounds, attempts and outcomes, the L and K
sequences, the hull, and a digest of the perturbed input.  A change that
keeps these keeps the work the loop does, not only its answer.  To
regenerate after an intended change of the counts:

    PYTHONPATH=src python tests/test_hull_counts.py > tests/golden/hull_counts.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cperturb import grid
from cperturb.algo import PerturbationShape, run_acp
from cperturb.geom import EvalCounter, guarded_convex_hull
from cperturb.grid import compute_emax

GOLDEN = Path(__file__).parent / "golden" / "hull_counts.json"
DELTA = F(1, 2)


def _points(cls: str, n: int, seed: int) -> list:
    """Dyadic coordinates in [0, 64] on a 2^-10 raster, shifted or scaled."""
    rng = random.Random(seed)
    raw = [F(rng.randrange(0, 64 * 1024 + 1), 1024) for _ in range(2 * n)]
    if cls == "far":
        return [c + 2**30 for c in raw]
    if cls == "huge":
        return [c * 2**200 for c in raw]
    return raw


def _lattice(side: int) -> list:
    """Every lattice point twice: exact duplicates and collinear rows."""
    return [F(v) for i in range(side) for j in range(side) for v in (i, j, i, j)]


INPUTS = {
    "uniform": (_points("uniform", 60, 1), "box"),
    "far": (_points("far", 30, 2), "box"),
    "huge": (_points("huge", 30, 3), "box"),
    "lattice": (_lattice(8), "disc"),
}
SEEDS = (1, 2, 3)


def hull_run(name: str, seed: int, monkeypatch) -> dict:
    flat, kind = INPUTS[name]
    emax = compute_emax(flat, [DELTA] * len(flat))
    evaluations = []
    draws = [0]
    uniform_int = grid.SplitMix64.uniform_int

    def counting(self, n):
        draws[0] += 1
        return uniform_int(self, n)

    def attempt(y, L, K):
        counter = EvalCounter()
        out = guarded_convex_hull([(y[j], y[j + 1]) for j in range(0, len(y), 2)], L, K, emax, counter)
        evaluations.append(counter.evaluations)
        return out

    monkeypatch.setattr(grid.SplitMix64, "uniform_int", counting)
    y, hull, stats = run_acp(attempt, flat, PerturbationShape(kind, DELTA), seed=seed)
    monkeypatch.undo()
    return {
        "evaluations": evaluations,
        "uniform_int": draws[0],
        "rounds": stats.rounds,
        "attempts": stats.attempts,
        "outcomes": stats.outcomes,
        "L_sequence": stats.L_sequence,
        "K_sequence": stats.K_sequence,
        "hull": hull,
        "y_sha256": hashlib.sha256(" ".join(str(v.to_fraction()) for v in y).encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_hull_counts(name, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[name]
    assert [hull_run(name, seed, monkeypatch) for seed in SEEDS] == expected


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    goldens = {name: [hull_run(name, seed, patch) for seed in SEEDS] for name in sorted(INPUTS)}
    json.dump(goldens, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
