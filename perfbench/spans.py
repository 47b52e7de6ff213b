"""Spans around m3sim's public functions, recorded from outside the package.

``Tracer.install`` replaces each function at the module attribute where its
callers look it up (``m3sim.economics.link_sinr`` is what ``route_capacity``
calls, for example) and ``uninstall`` puts the originals back.  A missing
attribute is an error: the benchmark would otherwise measure less than it
claims without saying so.

Spans stay in memory until ``layers`` folds one repetition into per-layer
self times and counts.  A span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

# (module, attribute, layer metric that the span's self time adds to)
TARGETS = (
    ("m3sim.cli", "main", "cli.self_s"),
    ("m3sim.cli", "load_scenario", "scenario.load_s"),
    ("m3sim.cli", "run_experiment", "scenario.run_s"),
    ("m3sim.cli", "emit_csv", "scenario.emit_s"),
    ("m3sim.cli", "emit_plotdata", "scenario.emit_s"),
    ("m3sim.scenario", "SubcellGrid", "grid.build_s"),
    ("m3sim.economics", "SubcellGrid", "grid.build_s"),
    ("m3sim.routing", "build_chain", "chains.build_s"),
    ("m3sim.chains", "canonical_form", "chains.check_s"),
    ("m3sim.scenario", "absorption_statistics", "chains.solve_s"),
    ("m3sim.economics", "absorption_statistics", "chains.solve_s"),
    ("m3sim.scenario", "simulate_walks", "chains.mc_s"),
    ("m3sim.scenario", "build_mdr_chain", "routing.chain_build_s"),
    ("m3sim.scenario", "build_lir_chain", "routing.chain_build_s"),
    ("m3sim.economics", "build_mdr_chain", "routing.chain_build_s"),
    ("m3sim.scenario", "extract_routes", "routing.extract_s"),
    ("m3sim.economics", "extract_routes", "routing.extract_s"),
    ("m3sim.scenario", "schedule", "routing.schedule_s"),
    ("m3sim.economics", "schedule", "routing.schedule_s"),
    ("m3sim.scenario", "network_capacity_throughput", "economics.capacity_s"),
    ("m3sim.economics", "route_capacity", "economics.capacity_s"),
    ("m3sim.economics", "link_sinr", "radio.sinr_s"),
    ("m3sim.economics", "offload_breakdown", "economics.breakdown_s"),
    ("m3sim.scenario", "negotiate", "economics.walk_s"),
    ("m3sim.scenario", "optimize_tessellation", "economics.utility_s"),
    ("m3sim.economics", "macrocell_utility", "economics.utility_s"),
    ("m3sim.economics", "climb_topology", "compression.climb_s"),
)

# attributes whose arguments or return value the counts need
_KEPT = {"build_chain", "simulate_walks", "extract_routes", "schedule", "negotiate", "emit_csv"}

COUNTS = {
    "chains.states": "count",
    "chains.nnz": "count",
    "chains.matrix_mb": "MB",
    "chains.mc_walks_per_s": "1/s",
    "routing.links": "count",
    "routing.cycle_slots": "count",
    "routing.routed_frac": "ratio",
    "radio.sinr_calls": "count",
    "economics.breakdowns": "count",
    "economics.probes": "count",
    "scenario.rows": "count",
}

# every per-layer metric with its unit
METRICS = {metric: "s" for _, _, metric in TARGETS} | COUNTS


class TraceError(RuntimeError):
    """A wrapped name is missing, so the trace would silently cover less."""


class Tracer:
    """Records one span per call of every target while installed.

    A span is (attribute, start, end, parent span index, study id); the
    caller sets ``study`` before each study it runs.
    """

    def __init__(self):
        self.study = 0
        self.spans: list = []
        self.kept: list = []  # (attribute, args, kwargs, result)
        self._stack: list[int] = []
        self._originals: list = []

    def install(self) -> None:
        for module_name, attr, metric in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TraceError(f"{module_name}.{attr} is gone; update perfbench/trace.py")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, metric, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, attr, metric, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        keep = attr in _KEPT

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (metric, start, end, parent, self.study)
            if keep:
                kept.append((attr, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layers(self) -> dict[str, float]:
        """Fold the spans recorded so far into per-layer numbers, then forget them."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out = dict.fromkeys(METRICS, 0.0)
        for (metric, *_), t in zip(self.spans, self_time):
            out[metric] += t
            if metric == "radio.sinr_s":
                out["radio.sinr_calls"] += 1
            elif metric == "economics.breakdown_s":
                out["economics.breakdowns"] += 1

        walks = routes = complete = 0
        for attr, args, kwargs, result in self.kept:
            if attr == "build_chain":
                n, a = len(result.transient), len(result.absorbing)
                out["chains.states"] = max(out["chains.states"], n)
                out["chains.nnz"] = max(out["chains.nnz"], int(np.count_nonzero(result.matrix)))
                out["chains.matrix_mb"] = max(out["chains.matrix_mb"], (n + a) ** 2 * 8 / 1e6)
            elif attr == "simulate_walks":
                walks += args[1] if len(args) > 1 else kwargs["n_walks"]
            elif attr == "extract_routes":
                routes += len(result.routes)
                complete += len(result.complete_routes)
            elif attr == "schedule":
                out["routing.links"] += sum(len(links) for links in result.slots.values())
                out["routing.cycle_slots"] += result.cycle_length
            elif attr == "negotiate":
                out["economics.probes"] += len(result.trace)
            elif attr == "emit_csv":
                out["scenario.rows"] += len(args[0].rows)
        if out["chains.mc_s"] > 0:
            out["chains.mc_walks_per_s"] = walks / out["chains.mc_s"]
        if routes:
            out["routing.routed_frac"] = complete / routes
        self.spans.clear()
        self.kept.clear()
        return out
