"""Self-test of the benchmark: gates pass on real results and trip on corrupted
ones, traced counts repeat, and the command's output follows its contract.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str, seed: int = 3):
    cp = workloads.fresh_import()
    if name == "hull":
        return workloads.HullWorkload(cp, seed, n_uniform=12, lattice_side=3, n_far=8, n_huge=8)
    return workloads.WORKLOADS[name](cp, seed)


OPS = {"hull": 10, "guard_mix": 50, "analyze": 170}  # analyze: one cycle, heavy queries included


@pytest.mark.parametrize("name", sorted(OPS))
def test_gates_pass_at_tiny_size(name):
    wl = tiny(name)
    tally = run.Tally()
    for i in range(OPS[name]):
        tally.gate(wl, i, tally.call(wl.op, i))
    assert (tally.attempted, tally.failed) == (OPS[name], 0)


def _corrupt_op0(wl, corrupt):
    op = wl.op

    def corrupted(i):
        result = op(i)
        return corrupt(wl, result) if i == 0 else result

    wl.op = corrupted
    return wl


def _drop_vertex(wl, r):
    return dataclasses.replace(r, hull=r.hull[:-1])


def _flip_sign(wl, r):
    x, _ = r
    sign = wl.cp.exact.rat_sign(wl.preds[0][0].expr, x)
    return x, wl.cp.errorbounds.SignCertified(-sign if sign else 1)


def _lower_p_f(wl, r):
    return dataclasses.replace(r, p_f=r.target - Fraction(1, 10**9))


@pytest.mark.parametrize("name, corrupt", [
    ("hull", _drop_vertex),
    ("guard_mix", _flip_sign),
    ("analyze", _lower_p_f),
])
def test_corrupted_result_counts_as_failed(name, corrupt):
    wl = _corrupt_op0(tiny(name), corrupt)
    tally = run.Tally()
    metrics = run.end_to_end(workloads, wl, 0.0, 0.05, tally)
    assert tally.failed == 1 and tally.attempted >= 1
    assert metrics["ops_per_s"][0] > 0


def test_analyze_gate_expects_the_typed_refusal():
    wl = tiny("analyze")
    i = next(k for k, q in enumerate(wl.queries) if q.expect_refusal)
    assert isinstance(wl.op(i), workloads.Refusal)
    assert wl.check(i, wl.op(i))
    assert not wl.check(i, workloads.AnalyzeResult(20, 6, Fraction(1), Fraction(1, 2)))
    assert not wl.check(0, workloads.Refusal("BudgetTooLarge"))


def test_failing_op_counts_as_failed():
    wl = tiny("guard_mix")

    def boom(i):
        raise RuntimeError("untyped failure")

    wl.op = boom
    tally = run.Tally()
    tally.gate(wl, 0, tally.call(wl.op, 0))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_hull_replay_detects_a_changed_rerun():
    wl = tiny("hull")
    r = wl.op(0)
    assert wl.replay(0, r)
    wl.replayed.clear()
    r.stats.attempts += 1
    assert not wl.replay(0, r)


@pytest.mark.parametrize("name", sorted(OPS))
def test_traced_counts_repeat(name, tmp_path):
    def layer_counts():
        wl = tiny(name)
        wl.trace_ops = min(wl.trace_ops, OPS[name])
        out = run.traced(wl, 0.0, run.Tally(), tmp_path / f"{name}.jsonl", {})
        return {k: v for k, (v, unit) in out.items() if unit in ("count", "bits")}, out

    first, out = layer_counts()
    second, _ = layer_counts()
    assert first == second
    assert out["trace.overhead_ratio"][0] > 0
    spans = (tmp_path / f"{name}.jsonl").read_text().splitlines()
    assert len(spans) > 1 and {"op", "id", "parent", "name", "start", "end"} <= set(json.loads(spans[1]))


def test_hull_records_actual_K():
    # points near 2^200: the first round is a range error; K grows to 17
    wl = tiny("hull")
    i = workloads.HullWorkload.ORDER.index("huge")
    r = wl.op(i)
    counts = wl.counts(r)
    assert counts["algo.rounds.range_error"] >= 1
    assert counts["algo.K.max"] == max(a[1] for a in r.attempts) >= 17


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(OPS))
def test_command_prints_the_result_line(name):
    done = _run_cli(BENCH.parent, "--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks")
    done = _run_cli(tmp_path, "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""
