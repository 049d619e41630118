"""Spans and per-layer metrics for the traced benchmark run.

The traced child process wraps the public functions that the CLI and the
simulator call at run time (LAYER_FUNCTIONS) and records one span per call:
its name, start, end and the span that was open when it began. Calls made
once per simulated step are folded into a count and a total per parent span
instead (AGGREGATED); they must not call another wrapped function. Spans are
kept in memory and written out when the command ends.

A span's self time is its duration minus the part of it that its child spans
cover. Self times of all spans plus `cli.self.s`, the time outside every
span, add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) -> span name; "Class.method" names a method
LAYER_FUNCTIONS = {
    ("onoffpriv.markov", "conditional_table"): "markov.conditional_table",
    ("onoffpriv.markov", "matrix_power"): "markov.matrix_power",
    ("onoffpriv.bounds", "theta_profile"): "bounds.theta_profile",
    ("onoffpriv.scheme", "build_scheme"): "scheme.build",
    ("onoffpriv.scheme", "collapse_to_sets"): "scheme.collapse",
    ("onoffpriv.scheme", "conditional_query_sampler"): "scheme.sample",
    ("onoffpriv.scheme", "SchemeDistribution.to_json_obj"): "scheme.to_json",
    ("onoffpriv.scheme", "SchemeDistribution.from_json_obj"): "scheme.from_json",
    ("onoffpriv.verify", "check_scheme"): "verify.check",
    ("onoffpriv.verify", "expected_cost"): "verify.expected_cost",
    ("onoffpriv.lp", "formulate_lp"): "lp.formulate",
    ("onoffpriv.lp", "solve_simplex"): "lp.solve",
    ("onoffpriv.sim", "run_simulation"): "sim.run",
    ("onoffpriv.sim", "build_scheme_for_gap"): "sim.build_for_gap",
    ("onoffpriv.sim", "empirical_privacy_test"): "sim.privacy_test",
    ("onoffpriv.sim", "empirical_composed_history"): "sim.composed_history",
}
IMPORT_SPAN = "cli.import"
AGGREGATED = frozenset({"scheme.sample"})

# A per-gap scheme build is redundant when its likelihood table lies within
# this distance (max abs entry) of the previous gap's: check_scheme's default
# pass threshold, so the previous gap's scheme would pass for this gap too.
REDUNDANT_TABLE_TOL = 1e-9

# spans whose self time is reported under another name than "<span>.s"
SELF_METRIC = {"sim.run": "sim.loop_self.s"}
# spans counted per call, and the metric that holds the count
CALL_COUNTS = {
    "bounds.theta_profile": "bounds.theta_profile.calls",
    "scheme.build": "scheme.build.calls",
    "sim.build_for_gap": "sim.schemes_built",
}

# the workload, and the commands in it, where each metric should move
SPARSE, PERIODIC = "simulate (sparse run)", "simulate (periodic:2 run)"
ROUNDTRIP, LP = "scheme-lp (scheme, verify)", "scheme-lp (lp)"
# Every per-layer metric: unit, better, and the end-to-end metric and
# workload it should move. On the other commands it should stay near zero.
PER_LAYER = {
    "markov.conditional_table.s": ("s", "lower", f"wall_rel on {SPARSE}"),
    "markov.matrix_power.s": ("s", "lower", f"wall_rel on {SPARSE}"),
    "markov.matrix_power.mults": ("count", "lower", f"wall_rel on {SPARSE}"),
    "bounds.theta_profile.s": ("s", "lower", f"wall_rel on {SPARSE}"),
    "bounds.theta_profile.calls": ("count", "lower", f"wall_rel on {SPARSE}"),
    "scheme.build.s": (
        "s", "lower",
        f"wall_rel on {SPARSE} and {ROUNDTRIP}; peak_rss_mb on {ROUNDTRIP}",
    ),
    "scheme.build.calls": ("count", "lower", f"wall_rel on {SPARSE}"),
    "scheme.entries": (
        "count", "lower", f"wall_rel and peak_rss_mb on {ROUNDTRIP}"
    ),
    "scheme.collapse.s": ("s", "lower", f"wall_rel on {SPARSE} and {ROUNDTRIP}"),
    "scheme.sample.s": ("s", "lower", f"wall_rel on {PERIODIC}"),
    "scheme.sample.calls": ("count", "lower", f"wall_rel on {PERIODIC}"),
    "scheme.to_json.s": ("s", "lower", f"wall_rel and peak_rss_mb on {ROUNDTRIP}"),
    "scheme.from_json.s": (
        "s", "lower", f"wall_rel and peak_rss_mb on {ROUNDTRIP}"
    ),
    "verify.check.s": ("s", "lower", f"wall_rel on {ROUNDTRIP}"),
    "verify.expected_cost.s": ("s", "lower", f"wall_rel on {ROUNDTRIP}"),
    "lp.formulate.s": ("s", "lower", f"wall_rel on {LP}"),
    "lp.solve.s": ("s", "lower", f"wall_rel on {LP}"),
    "lp.iterations": ("count", "lower", f"wall_rel on {LP}"),
    "lp.vars": ("count", "lower", f"wall_rel on {LP}"),
    "lp.rows": ("count", "lower", f"wall_rel on {LP}"),
    "lp.nnz": ("count", "lower", f"wall_rel on {LP}"),
    # sim.run.s is inclusive; its self time is sim.loop_self.s
    "sim.run.s": ("s", "lower", f"wall_rel on {PERIODIC}"),
    "sim.loop_self.s": ("s", "lower", f"wall_rel on {PERIODIC}"),
    "sim.steps": ("count", "higher", f"wall_rel on {PERIODIC}"),
    "sim.privacy_test.s": ("s", "lower", f"wall_rel on {PERIODIC}"),
    "sim.composed_history.s": ("s", "lower", f"wall_rel on {PERIODIC}"),
    "sim.build_for_gap.s": ("s", "lower", f"wall_rel on {SPARSE}"),
    "sim.schemes_built": ("count", "lower", f"wall_rel on {SPARSE}"),
    "sim.distinct_gaps": ("count", "lower", f"wall_rel on {SPARSE}"),
    "sim.redundant_builds": ("count", "lower", f"wall_rel on {SPARSE}"),
    "cli.import.s": ("s", "lower", "setup_s on every workload"),
    "cli.self.s": ("s", "lower", f"wall_rel on {ROUNDTRIP} and {PERIODIC}"),
    "cli.bytes_out": ("B", "lower", f"wall_rel on {ROUNDTRIP} and {PERIODIC}"),
    "trace.wall_s": ("s", "lower", "none: the traced wall the self times add to"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall"),
}
# counts that must repeat exactly across runs of the same inputs
EXACT_COUNTS = (
    "lp.iterations",
    "markov.matrix_power.mults",
    "scheme.entries",
    "sim.schemes_built",
    "sim.redundant_builds",
)


def self_metric(span_name: str) -> str:
    return SELF_METRIC.get(span_name, span_name + ".s")


class Tracer:
    """Records spans, per-step aggregates and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.aggregates: dict = defaultdict(lambda: [0, 0.0])
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []
        self._last_table = None
        self._gap_tables: dict = {}
        self.untraced: list[str] = []  # LAYER_FUNCTIONS the program lacks

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def call(self, name: str, fn, args, kwargs):
        if name in AGGREGATED:
            parent = self._stack[-1] if self._stack else None
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                agg = self.aggregates[(name, parent)]
                agg[0] += 1
                agg[1] += self.clock() - start
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        self._observe(name, args, kwargs, result)
        return result

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counters read off one finished call; runs outside its span."""
        import numpy as np  # loaded by onoffpriv already; kept off the import span

        c = self.counters
        if name == "markov.matrix_power":
            c["markov.matrix_power.mults"] += _arg(args, kwargs, 1, "delta")
        elif name == "markov.conditional_table":
            self._last_table = result.values
        elif name == "scheme.build":
            dist = result[0] if isinstance(result, tuple) else result
            c["scheme.entries"] += dist.entry_count
        elif name == "lp.formulate":
            c["lp.vars"] += len(result.var_keys)
            c["lp.rows"] += len(result.row_keys)
            c["lp.nnz"] += int(np.count_nonzero(result.A))
        elif name == "lp.solve":
            c["lp.iterations"] += result.iterations
        elif name == "sim.run":
            c["sim.steps"] += result.horizon
        elif name == "sim.build_for_gap":
            # the table built inside this call is the latest one recorded
            delta = _arg(args, kwargs, 1, "delta")
            prev = self._gap_tables.get(delta - 1)
            table = self._last_table
            if prev is not None and np.abs(table - prev).max() <= REDUNDANT_TABLE_TOL:
                c["sim.redundant_builds"] += 1
            self._gap_tables[delta] = table
            c["sim.distinct_gaps"] = len(self._gap_tables)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls, "total": total}
                for (name, parent), (calls, total) in self.aggregates.items()
            ],
            "counters": dict(self.counters),
            "untraced": self.untraced,
        }


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every LAYER_FUNCTIONS entry, in its own module and wherever it
    was imported by name, so calls from any onoffpriv module are seen.

    A function the program no longer has is listed in tracer.untraced and
    its time shows up in its caller's self time.
    """
    for (modname, attr), name in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(modname)
        owner, _, meth = attr.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or meth not in vars(holder):
            tracer.untraced.append(f"{modname}.{attr}")
            continue
        if owner:
            raw = vars(holder)[meth]
            if isinstance(raw, classmethod):
                setattr(holder, meth, classmethod(_wrap(tracer, name, raw.__func__)))
            else:
                setattr(holder, meth, _wrap(tracer, name, raw))
            continue
        original = vars(mod)[meth]
        wrapped = _wrap(tracer, name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("onoffpriv") and (
                getattr(loaded, attr, None) is original
            ):
                setattr(loaded, attr, wrapped)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list, aggregates: list) -> list:
    """Self time of each span: duration minus the part children cover.

    Aggregated calls ran one after another inside their parent and outside
    its other children, so their total adds to the parent's coverage.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    agg_cover = defaultdict(float)
    for a in aggregates:
        if a["parent"] is not None:
            agg_cover[a["parent"]] += a["total"]
    return [
        s["end"] - s["start"]
        - covered(s["start"], s["end"], children[s["id"]])
        - agg_cover[s["id"]]
        for s in spans
    ]


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced command that took wall_s seconds."""
    spans, aggregates = trace["spans"], trace["aggregates"]
    out = defaultdict(float)
    for s, own in zip(spans, self_times(spans, aggregates)):
        out[self_metric(s["name"])] += own
        if s["name"] == "sim.run":
            out["sim.run.s"] += s["end"] - s["start"]
    for a in aggregates:
        out[self_metric(a["name"])] += a["total"]
        out[a["name"] + ".calls"] += a["calls"]
    for s in spans:
        if s["name"] in CALL_COUNTS:
            out[CALL_COUNTS[s["name"]]] += 1
    for name, value in trace["counters"].items():
        out[name] += value
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    inside = covered(float("-inf"), float("inf"), roots) + sum(
        a["total"] for a in aggregates if a["parent"] is None
    )
    out["cli.self.s"] += wall_s - inside
    return dict(out)


def self_seconds(metrics: dict) -> float:
    """Sum of the self-time metrics; equals the traced wall time."""
    return sum(
        v for k, v in metrics.items()
        if k.endswith(".s") and k != "sim.run.s" and not k.startswith("trace.")
    )
