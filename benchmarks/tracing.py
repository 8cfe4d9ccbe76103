"""Per-layer tracing from outside the program.

The tracer wraps public functions of each ``cperturb`` module at the name
their caller looks them up under (``errorbounds.fl_binop`` is softfloat work
called by errorbounds), so nothing inside ``src/`` changes.  Each wrapped call
is a span: name, start, end, parent span and op id, kept in memory and written
out when the run ends.  A layer's self time is the duration of its spans minus
the time covered by their child spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# (module the caller looks the name up in, attribute path, span name).  The
# span name's first component is the layer that does the work.
TARGETS = (
    # softfloat, as the guard and the perturbation loop call it
    ("errorbounds", "fl_binop", "softfloat.fl_binop"),
    ("errorbounds", "fl_round", "softfloat.fl_round"),
    ("errorbounds", "fl_abs", "softfloat.fl_abs"),
    ("errorbounds", "fl_cmp", "softfloat.fl_cmp"),
    ("errorbounds", "is_representable", "softfloat.is_representable"),
    ("algo", "fl_round", "softfloat.fl_round"),
    ("softfloat", "SoftFloat.to_fraction", "softfloat.to_fraction"),
    # grid
    ("grid", "SplitMix64.uniform_int", "grid.uniform_int"),
    ("grid", "GridSpec.index_range", "grid.index_range"),
    ("grid", "sample_grid_values", "grid.sample_grid_values"),
    ("grid", "compute_emax", "grid.compute_emax"),
    ("algo", "compute_emax", "grid.compute_emax"),
    # expr
    ("expr", "parse", "expr.parse"),
    ("expr", "expand_polynomial", "expr.expand_polynomial"),
    ("geom", "expand_polynomial", "expr.expand_polynomial"),
    ("bounds", "expand_polynomial", "expr.expand_polynomial"),
    # errorbounds
    ("geom", "guarded_eval", "errorbounds.guarded_eval"),
    ("qr", "value_quantum", "errorbounds.value_quantum"),
    ("bounds", "safety_lower_univariate", "errorbounds.safety_lower_univariate"),
    ("bounds", "safety_lower_multivariate", "errorbounds.safety_lower_multivariate"),
    # bounds: the builders, and the bound forms the analysis evaluates
    ("geom", "bounds_univariate", "bounds.bounds_univariate"),
    ("geom", "bounds_multivariate", "bounds.bounds_multivariate"),
    ("geom", "bounds_inbox_direct", "bounds.bounds_inbox_direct"),
    ("geom", "bounds_incircle_direct", "bounds.bounds_incircle_direct"),
    ("bounds", "bounds_multivariate", "bounds.bounds_multivariate"),
    ("geom", "choose_beta", "bounds.choose_beta"),
    ("bounds", "choose_beta", "bounds.choose_beta"),
    ("bounds", "BoundSet.s_inf", "bounds.s_inf"),
    ("bounds", "BoundSet.s_inf_inverse_L", "bounds.s_inf_inverse_L"),
    ("bounds", "Sym.to_rval", "bounds.Sym.to_rval"),
    *(
        ("bounds", f"{cls}.{meth}", f"bounds.{cls}.{meth}")
        for cls in ("PowerLine", "AffinePowLine", "MinQuadLine", "ConstLine", "ComboLine")
        for meth in ("value", "inverse")
    ),
    # qr
    ("qr", "quantified_relations", "qr.quantified_relations"),
    ("qr", "probability", "qr.probability"),
    ("algo", "quantified_relations", "qr.quantified_relations"),
    # reals
    ("bounds", "pi_enclosure", "reals.pi_enclosure"),
    ("algo", "pi_enclosure", "reals.pi_enclosure"),
    ("bounds", "nth_root", "reals.nth_root"),
    ("bounds", "nth_root_exact", "reals.nth_root_exact"),
    ("algo", "nth_root", "reals.nth_root"),
    ("qr", "ceil_log2_rval", "reals.ceil_log2_rval"),
    *(
        ("reals", f"RVal.{meth}", "reals.RVal")
        for meth in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__pow__")
    ),
    # algo
    ("algo", "run_acp", "algo.run_acp"),
    ("algo", "distributed_probability", "algo.distributed_probability"),
    # geom
    ("geom", "guarded_convex_hull", "geom.guarded_convex_hull"),
    ("geom", "make_univariate", "geom.make_univariate"),
    ("geom", "make_orientation2d", "geom.make_orientation2d"),
    ("geom", "make_inbox", "geom.make_inbox"),
    ("geom", "make_incircle", "geom.make_incircle"),
    ("geom", "PredicateInstance.assemble", "geom.assemble"),
    ("geom", "PredicateInstance.guarded", "geom.guarded"),
)

# refine(compute, extract) is reals code driving callbacks of its caller: the
# callbacks are spans of the calling layer, and qr's compute calls are its
# refinement passes.
REFINE_CALLERS = ("qr", "algo")

BOUND_BUILDERS = (
    "bounds.bounds_univariate", "bounds.bounds_multivariate",
    "bounds.bounds_inbox_direct", "bounds.bounds_incircle_direct",
)


class Tracer:
    """Spans and counts for one traced pass at a time."""

    def __init__(self, cp):
        self.cp = cp
        self.on = False
        self._saved = []
        self._after = {"errorbounds.guarded_eval": self._count_verdict}
        self.reset()

    def reset(self):
        self.spans = []  # (op, id, parent, name, start, end)
        self._stack = []  # [id, name, start, time covered by children]
        self._next_id = 0
        self.op_id = -1
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.guard_s = []
        self.verdicts = Counter()
        self.range_errors = 0
        self.annotate_misses = 0

    # --- spans ----------------------------------------------------------------

    def enter(self, name: str):
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> float:
        end = perf_counter()
        sid, name, start, covered = self._stack.pop()
        dur = end - start
        self.self_s[name.split(".", 1)[0]] += dur - covered
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((self.op_id, sid, parent, name, start, end))
        return dur

    def run_op(self, op, i: int):
        """Call op(i) as the root span of op i, counting annotate misses."""
        info = self.cp.errorbounds.annotate.cache_info
        misses = info().misses
        self.op_id = i
        self.on = True
        self.enter("bench.op")
        try:
            return op(i)
        finally:
            self.exit()
            self.on = False
            self.annotate_misses += info().misses - misses

    def wrap(self, name: str, fn):
        tracer = self
        after = self._after.get(name)
        range_error = self.cp.softfloat.RangeError
        softfloat = name.startswith("softfloat.")

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit()
                if softfloat and isinstance(exc, range_error):
                    tracer.range_errors += 1
                raise
            dur = tracer.exit()
            if after is not None:
                after(out, dur)
            return out

        return traced

    def _count_verdict(self, verdict, dur):
        eb = self.cp.errorbounds
        self.guard_s.append(dur)
        if isinstance(verdict, eb.SignCertified):
            self.verdicts["certified"] += 1
        elif isinstance(verdict, eb.GuardFailed):
            self.verdicts["guard_failed"] += 1
        elif isinstance(verdict, eb.RangeErrorVerdict):
            self.verdicts["range_error"] += 1

    def wrap_refine(self, caller: str, refine):
        tracer = self
        traced_refine = self.wrap("reals.refine", refine)

        def callback(role, fn):
            if getattr(fn, "__module__", "") == "cperturb.reals":
                return tracer.wrap(f"reals.{fn.__name__}", fn)
            return tracer.wrap(f"{caller}.refine.{role}", fn)

        def refine_with_spans(compute, extract):
            if not tracer.on:
                return refine(compute, extract)
            return traced_refine(callback("compute", compute), callback("extract", extract))

        return refine_with_spans

    # --- installing the wrappers --------------------------------------------------

    def install(self):
        for module, path, name in TARGETS:
            owner = getattr(self.cp, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        for module in REFINE_CALLERS:
            owner = getattr(self.cp, module)
            self._saved.append((owner, "refine", owner.refine))
            owner.refine = self.wrap_refine(module, owner.refine)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------------------

    def layer_metrics(self, n_ops: int, counts: Counter, oracle_s: float) -> dict:
        """Per-op layer metrics of the pass just traced."""
        c = self.calls
        per = 1.0 / n_ops
        ms = 1000.0 * per
        guards = c["errorbounds.guarded_eval"]
        orient = counts["geom.orient_evals"]
        guard_us = sorted(d * 1e6 for d in self.guard_s)
        return {
            "softfloat.fl_binop.calls": c["softfloat.fl_binop"] * per,
            "softfloat.fl_round.calls": c["softfloat.fl_round"] * per,
            "softfloat.range_errors": self.range_errors * per,
            "softfloat.self_ms": self.self_s["softfloat"] * ms,
            "grid.draws": c["grid.uniform_int"] * per,
            "grid.self_ms": self.self_s["grid"] * ms,
            "expr.parse.calls": c["expr.parse"] * per,
            "expr.self_ms": self.self_s["expr"] * ms,
            "exact.oracle_ms": oracle_s * ms,
            "errorbounds.guard.calls": guards * per,
            "errorbounds.guard_us.p50": _quantile(guard_us, 0.5),
            "errorbounds.guard_us.p90": _quantile(guard_us, 0.9),
            "errorbounds.certified": self.verdicts["certified"] * per,
            "errorbounds.guard_failed": self.verdicts["guard_failed"] * per,
            "errorbounds.range_error": self.verdicts["range_error"] * per,
            "errorbounds.certified_ratio": self.verdicts["certified"] / guards if guards else 0.0,
            "errorbounds.annotate.misses": self.annotate_misses * per,
            "errorbounds.self_ms": self.self_s["errorbounds"] * ms,
            "bounds.build.calls": sum(c[b] for b in BOUND_BUILDERS) * per,
            "bounds.self_ms": self.self_s["bounds"] * ms,
            "qr.quantified_relations.calls": c["qr.quantified_relations"] * per,
            "qr.probability.calls": c["qr.probability"] * per,
            "qr.refine_passes": c["qr.refine.compute"] * per,
            "qr.self_ms": self.self_s["qr"] * ms,
            "reals.pi_enclosure.calls": c["reals.pi_enclosure"] * per,
            "reals.self_ms": self.self_s["reals"] * ms,
            "algo.rounds": counts["algo.rounds"] * per,
            "algo.attempts": counts["algo.attempts"] * per,
            "algo.rounds.guard_failure": counts["algo.rounds.guard_failure"] * per,
            "algo.rounds.range_error": counts["algo.rounds.range_error"] * per,
            "algo.unsampled_attempts": counts["algo.unsampled_attempts"] * per,
            "algo.useful_eval_ratio": counts["algo.useful_evals"] / orient if orient else 0.0,
            "algo.L.max": counts["algo.L.max"],
            "algo.K.max": counts["algo.K.max"],
            "algo.self_ms": self.self_s["algo"] * ms,
            "geom.hull.calls": c["geom.guarded_convex_hull"] * per,
            "geom.orient_evals": orient * per,
            "geom.self_ms": self.self_s["geom"] * ms,
        }

    def write_spans(self, path, meta: dict):
        """One JSON object per line: the run's metadata, then every span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def unit(metric: str) -> str:
    """Unit of a layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if ".guard_us." in metric:
        return "us"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".max"):
        return "bits"
    return "count"


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[k]
