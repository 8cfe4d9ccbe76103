"""cperturb benchmark: one workload per run, one client in a closed loop.

    python3 benchmarks/run.py --workload hull --seed 1 --seconds 55 --trace 0

Each op starts when the previous one ends.  Its result is checked against the
rational oracle outside the timed section; a wrong result, an untyped
exception or IterationCapExceeded counts as a failed op.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed list of ops
from the same seed, alternating untraced and traced passes, and reports the
per-layer metrics of the first traced pass together with the tracing
overhead; its spans go to .bench_trace/<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# set-ups per run, spread over the run so that they sample the same machine
# conditions as the ops; setup_s is their median
SETUP_REPEATS = 8


def git_sha() -> str:
    """The checked-out commit, when the tree is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def set_up(workloads, name: str, seed: int):
    """Import cperturb afresh and build the workload: (workload, seconds)."""
    start = perf_counter()
    wl = workloads.WORKLOADS[name](workloads.fresh_import(), seed)
    return wl, perf_counter() - start


class Tally:
    """Attempted and failed ops, with the first traceback of each error type."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.oracle_s = 0.0
        self._reported = set()

    def call(self, op, i):
        try:
            return op(i)
        except Exception as exc:  # any escaping error is a failed op, not a stopped run
            if type(exc) not in self._reported:
                self._reported.add(type(exc))
                traceback.print_exc(file=sys.stderr)
            return exc

    def gate(self, wl, i, result):
        start = perf_counter()
        ok = wl.check(i, result)
        self.oracle_s += perf_counter() - start
        ok = wl.replay(i, result) and ok
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"op {i}: wrong result {result!r:.200}", file=sys.stderr)


def end_to_end(workloads, wl, first_setup_s: float, seconds: float, tally: Tally) -> dict:
    """Closed loop until the ops' summed duration reaches `seconds`.

    Between ops, at even steps of op time, the set-up is measured again, so
    that setup_s samples the same machine conditions as the ops.
    """
    setups = [first_setup_s]
    step = seconds / SETUP_REPEATS
    lat = array("d")  # compact, so that the latencies barely add to peak_rss_mb
    busy = 0.0
    i = 0
    while busy < seconds:
        start = perf_counter()
        result = tally.call(wl.op, i)
        dt = perf_counter() - start
        busy += dt
        lat.append(dt)
        tally.gate(wl, i, result)
        i += 1
        if busy >= step * len(setups) and len(setups) < SETUP_REPEATS:
            with workloads.modules_kept():
                setups.append(set_up(workloads, wl.name, wl.seed)[1])
            gc.collect()  # so the set-up's garbage is not collected inside a timed op

    cuts = statistics.quantiles(lat, n=10) if len(lat) > 1 else list(lat) * 9
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_ms.p50": (cuts[4] * 1e3, "ms"),
        "op_ms.p90": (cuts[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def timed_pass(wl, n: int, tally: Tally, op, on_result=None) -> float:
    """Ops 0..n-1 through `op`, gated; their summed duration."""
    busy = 0.0
    for i in range(n):
        start = perf_counter()
        result = tally.call(op, i)
        busy += perf_counter() - start
        tally.gate(wl, i, result)
        if on_result is not None:
            on_result(result)
    return busy


def traced(wl, seconds: float, tally: Tally, spans_path: Path, meta: dict) -> dict:
    """Alternate untraced and traced passes over the first trace_ops ops."""
    import tracing

    n = wl.trace_ops
    annotate = wl.cp.errorbounds.annotate
    tracer = tracing.Tracer(wl.cp)
    untraced_s, traced_s = [], []
    first = None
    start = perf_counter()
    while first is None or perf_counter() - start < seconds:
        annotate.cache_clear()
        untraced_s.append(timed_pass(wl, n, tally, wl.op))

        annotate.cache_clear()
        tracer.reset()
        counts, maxima = Counter(), Counter()

        def add_counts(result):
            for key, v in wl.counts(result).items():
                if key.endswith(".max"):
                    maxima[key] = max(maxima[key], v)
                else:
                    counts[key] += v

        oracle_before = tally.oracle_s
        tracer.install()
        traced_s.append(timed_pass(wl, n, tally, lambda i: tracer.run_op(wl.op, i), add_counts))
        tracer.uninstall()
        if first is None:
            first = tracer.layer_metrics(n, counts + maxima, tally.oracle_s - oracle_before)
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write_spans(spans_path, meta)
        tracer.reset()

    u, t = statistics.median(untraced_s), statistics.median(traced_s)
    out = {key: (value, tracing.unit(key)) for key, value in first.items()}
    out["trace.untraced_ops_per_s"] = (n / u, "1/s")
    out["trace.traced_ops_per_s"] = (n / t, "1/s")
    out["trace.overhead_ratio"] = (t / u, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cperturb" / "__init__.py").is_file():
        print(f"cperturb sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    wl, setup_s = set_up(workloads, args.workload, args.seed)
    tally = Tally()
    if args.trace:
        spans = ROOT / ".bench_trace" / f"{args.workload}-{args.seed}.jsonl"
        metrics = traced(wl, args.seconds, tally, spans, meta)
        meta["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics = end_to_end(workloads, wl, setup_s, args.seconds, tally)
    print("# " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
