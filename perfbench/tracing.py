"""Layer tracing from outside the program.

The tracer replaces a layer's public functions with timing wrappers for the
duration of one traced pass.  A function is replaced under its name in every
``smallscat`` module that holds it, because ``synthesis``, ``metrics`` and
``cli`` bind imported names at import time; patching only the defining
module would miss their calls.  Nothing in ``src/`` is edited, and an
untraced pass runs the program exactly as shipped.

Spans are kept in memory as (name, start, end, parent) and written out when
the benchmark ends.  A layer's self time is its span's duration minus the
durations of its direct children (spans nest and run on one thread, so the
children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# layer name -> (module, attribute) of each public function timed as that layer
LAYERS = {
    "geometry.grid": [("smallscat.geometry", "build_surface_grid")],
    "bem.static_core": [("smallscat.bem", "get_static_core")],
    "incident.trace": [("smallscat.incident", "incident_trace")],
    "bem.assemble": [("smallscat.bem", "assemble_single_layer")],
    "bem.solve": [("smallscat.bem", "solve_density_with_diagnostics")],
    "bem.evaluate": [("smallscat.bem", "evaluate_potential")],
    "bem.capacitance": [("smallscat.bem", "capacitance")],
    "synthesis.sweep": [("smallscat.synthesis", "frequency_sweep")],
    "synthesis.inverse": [("smallscat.synthesis", "inverse_transform")],
    "synthesis.table_save": [("smallscat.synthesis", "FrequencyTable.save_csv")],
    "synthesis.table_load": [("smallscat.synthesis", "FrequencyTable.load_csv")],
    "asymptotic.model": [("smallscat.asymptotic", "point_scatterer_time")],
    "metrics.checks": [("smallscat.metrics", name) for name in (
        "check_dilation_identity", "check_projection_scaling",
        "check_density_expansion", "check_kernel_difference")],
    "cli.command": [("smallscat.cli", "run_command")],
}

LAYER_STATS = (("calls", "count"), ("self_s", "s"), ("p50_ms", "ms"), ("p95_ms", "ms"))

# counters measured at the layer boundaries: name -> (unit, how passes combine)
COUNTERS = {
    "bem.static_core.hits": ("count", "sum"),
    "bem.assemble.computed_mb": ("MB", "sum"),
    "bem.solve.failed": ("count", "sum"),
    "bem.solve.worst_cond": ("1", "max"),
    "bem.solve.max_residual": ("1", "max"),
    "synthesis.nudged_nodes": ("count", "sum"),
    "synthesis.solves_per_node": ("1", "ratio"),
    "synthesis.tail_warnings": ("count", "sum"),
    "synthesis.table_bytes": ("bytes", "sum"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.passes = 0
        self._open: list[int] = []
        self._seen_grids: dict[int, weakref.ref] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), math.nan, self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def _first_sight(self, grid) -> bool:
        ref = self._seen_grids.get(id(grid))
        if ref is not None and ref() is grid:
            return False
        self._seen_grids[id(grid)] = weakref.ref(grid)
        return True

    # -- wrappers ---------------------------------------------------------
    def _wrapper(self, layer: str, fn):
        if layer == "bem.static_core":
            return self._wrap_static_core(fn)
        if layer == "bem.solve":
            return self._wrap_solve(fn)
        after = {"bem.assemble": self._after_assemble,
                 "synthesis.sweep": self._after_sweep,
                 "synthesis.table_save": self._after_table_save}.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if after is not None:
                after(fn, args, kwargs, result)
            return result
        return traced

    def _wrap_static_core(self, fn):
        @functools.wraps(fn)
        def traced(grid):
            # only the first lookup on a grid builds the core; later lookups
            # are cache hits, counted but not timed
            if self._first_sight(grid):
                return self.call("bem.static_core", fn, grid)
            self.counters["bem.static_core.hits"] += 1
            return fn(grid)
        return traced

    def _wrap_solve(self, fn):
        from smallscat.bem import NearResonanceError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                result = self.call("bem.solve", fn, *args, **kwargs)
            except NearResonanceError:
                self.counters["bem.solve.failed"] += 1
                raise
            diag, c = result[1], self.counters
            c["bem.solve.worst_cond"] = max(c["bem.solve.worst_cond"], diag.condition_estimate)
            c["bem.solve.max_residual"] = max(c["bem.solve.max_residual"], diag.residual)
            return result
        return traced

    def _after_assemble(self, fn, args, kwargs, result):
        n = result.matrix.shape[0]
        # computed, not measured: one complex N x N matrix
        self.counters["bem.assemble.computed_mb"] += n * n * 16 / 1e6

    def _after_sweep(self, fn, args, kwargs, result):
        from smallscat.synthesis import build_frequency_grid
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        requested, _, _ = build_frequency_grid(bound.arguments["omega_max"],
                                               bound.arguments["n_omega"])
        self.counters["synthesis.nudged_nodes"] += int(np.count_nonzero(result.omegas != requested))
        self.counters["synthesis.sweep_nodes"] += len(requested)

    def _after_table_save(self, fn, args, kwargs, result):
        self.counters["synthesis.table_bytes"] += os.path.getsize(args[1])

    def install(self) -> None:
        """Replace every layer function, in every smallscat module holding it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "smallscat" or name.startswith("smallscat."))]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(sys.modules[module_name], cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrapper(layer, raw.__func__))
                    else:
                        wrapped = self._wrapper(layer, raw)
                    self._patch(cls, meth, wrapped)
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapped = self._wrapper(layer, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def solve_calls_inside_sweeps(self) -> int:
        sweeps = {i for i, s in enumerate(self.spans) if s.name == "synthesis.sweep"}
        count = 0
        for span in self.spans:
            if span.name != "bem.solve":
                continue
            parent = span.parent
            while parent >= 0 and parent not in sweeps:
                parent = self.spans[parent].parent
            count += parent >= 0
        return count

    # -- report -----------------------------------------------------------
    def self_times(self) -> np.ndarray:
        own = np.array([s.end - s.start for s in self.spans])
        out = own.copy()
        for s, d in zip(self.spans, own):
            if s.parent >= 0:
                out[s.parent] -= d
        return out

    def metrics(self) -> dict:
        """Per-layer metrics, per traced pass, as {name: {"value", "unit"}}."""
        passes = max(self.passes, 1)
        self_s = self.self_times()
        out = {}
        for layer in LAYERS:
            idx = [i for i, s in enumerate(self.spans) if s.name == layer]
            durations_ms = [1e3 * (self.spans[i].end - self.spans[i].start) for i in idx]
            values = {
                "calls": len(idx) / passes,
                "self_s": float(sum(self_s[i] for i in idx)) / passes,
                "p50_ms": float(np.percentile(durations_ms, 50)) if idx else 0.0,
                "p95_ms": float(np.percentile(durations_ms, 95)) if idx else 0.0,
            }
            for stat, unit in LAYER_STATS:
                out[f"{layer}.{stat}"] = {"value": values[stat], "unit": unit}
        nodes = self.counters.get("synthesis.sweep_nodes", 0.0)
        for name, (unit, combine) in COUNTERS.items():
            if combine == "ratio":
                value = self.solve_calls_inside_sweeps() / nodes if nodes else 0.0
            elif combine == "max":
                value = self.counters.get(name, 0.0)
            else:
                value = self.counters.get(name, 0.0) / passes
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                       for s in self.spans], fh)
