"""Spans around calls into fluidqoe's public functions, aggregated per module.

The tracer replaces every public function of the package's layer modules at
every place it is bound: the defining module, the modules that imported it
by name, and the ``fluidqoe`` package re-exports.  Each call records a span
(name, start, end, parent, op id); a layer's self time is the time of its
spans minus the time of their direct child spans.  Package warnings are
recorded with ``catch_warnings(record=True)`` and attributed to the layer
whose span was innermost when they were raised.

Nothing here is imported by the package: spans live in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "model", "spectral", "inversion", "starvation", "startup",
          "events", "qoe", "simulator")

SIMULATOR_BATCHES = ("monte_carlo", "prefetch_times", "first_passage_times")


@dataclass
class Span:
    name: str        # "module.function"
    layer: str       # module, with spectral split into closed / generic
    start: int       # perf_counter_ns
    end: int
    parent: int      # index of the enclosing span, -1 at the top
    op: int          # id of the benchmark op that caused the call
    error: str | None = None


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_of(module: str, func: str) -> str:
    if module == "spectral":
        return "spectral.closed" if func == "two_state_transform" else "spectral.generic"
    return module


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.residual_max = 0.0
        self.errors = Counter()       # (layer, exception class) -> n
        self.warnings = Counter()     # (layer, warning class) -> n
        self._log = None
        self._seen = 0
        self._last_exc = None

    # --- warnings ---------------------------------------------------------

    def record_warnings(self, log) -> None:
        """Attribute entries later appended to ``log`` to the active layer;
        ``None`` stops recording."""
        self._drain()
        self._log, self._seen = log, len(log) if log is not None else 0

    def _drain(self) -> None:
        if self._log is None or len(self._log) == self._seen:
            return
        layer = self.spans[self.stack[-1]].layer if self.stack else "harness"
        for entry in self._log[self._seen:]:
            self.warnings[(layer, entry.category.__name__)] += 1
        self._seen = len(self._log)

    # --- spans ------------------------------------------------------------

    def call(self, func, module: str, name: str, args, kwargs):
        self._drain()
        layer = layer_of(module, name)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = Span(f"{module}.{name}", layer, 0, 0, parent, self.op)
        self.spans.append(span)
        self.stack.append(idx)
        self._count_call(module, name, args, kwargs)
        if name == "invert":
            args = (self._counting(args[0]),) + tuple(args[1:])
        span.start = time.perf_counter_ns()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            span.end = time.perf_counter_ns()
            self._drain()
            self.stack.pop()
            span.error = type(exc).__name__
            if exc is not self._last_exc:  # count it once, where it was raised
                self._last_exc = exc
                self.errors[(layer, span.error)] += 1
            raise
        span.end = time.perf_counter_ns()
        self._drain()
        self.stack.pop()
        self._count_result(name, result)
        return result

    def _counting(self, evaluator):
        def counted(omegas):
            self.counts["inversion.freqs"] += int(np.size(omegas))
            return evaluator(omegas)
        return counted

    def _count_call(self, module, name, args, kwargs) -> None:
        c = self.counts
        c[f"{module}.calls"] += 1
        if name == "two_state_transform":
            omega = kwargs.get("omega", args[2] if len(args) > 2 else None)
            c["spectral.closed.freqs"] += int(np.size(omega))
        elif name == "transform_matrix":
            c["spectral.generic.freqs"] += 1
        elif name == "invert":
            c["inversion.inversions"] += 1
        elif name == "prefetch_end_distribution":
            c["startup.fill_calls"] += 1
        elif name == "build_path_grid":
            c["events.grid_builds"] += 1
        elif name == "simulate_session":
            c["simulator.sessions"] += 1
        elif name in SIMULATOR_BATCHES:
            cfg = kwargs.get("cfg", args[-1] if args else None)
            c["simulator.sessions"] += int(cfg.replications)

    def _count_result(self, name, result) -> None:
        if name == "build_path_grid":
            self.counts["events.grid_nodes"] += int(result.n_t)
        elif name == "starvation_count_pmf":
            residual = abs(1.0 - float(np.sum(result.p)) - float(result.tail))
            self.residual_max = max(self.residual_max, residual)
        elif name == "counter_uniform":
            self.counts["simulator.rng_calls"] += 1
            self.counts["simulator.rng_draws"] += int(np.size(result))

    # --- aggregation ------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as plain numbers."""
        own = self_times(self.spans)
        self_ns = Counter()
        fn_self_ns = Counter()
        for span, t in zip(self.spans, own):
            self_ns[span.layer] += t
            fn_self_ns[span.name] += t
        rng_ns = sum(s.end - s.start for s in self.spans
                     if s.name == "simulator.counter_uniform")
        wasted_ns = sum(s.end - s.start for s in self.spans
                        if s.name == "events.starvation_count_pmf"
                        and s.error == "TailTooLarge")
        by_class = Counter()
        for (_, category), n in self.warnings.items():
            by_class[category] += n
        c = self.counts
        ms = 1e-6
        generic_freqs = c["spectral.generic.freqs"]
        sessions = c["simulator.sessions"]
        return {
            "cli.calls": c["cli.calls"],
            "cli.self_ms": self_ns["cli"] * ms,
            "model.calls": c["model.calls"],
            "model.self_ms": self_ns["model"] * ms,
            "spectral.closed.freqs": c["spectral.closed.freqs"],
            "spectral.closed.self_ms": self_ns["spectral.closed"] * ms,
            "spectral.generic.freqs": generic_freqs,
            "spectral.generic.self_ms": self_ns["spectral.generic"] * ms,
            "spectral.generic.us_per_freq":
                self_ns["spectral.generic"] * 1e-3 / generic_freqs if generic_freqs else 0.0,
            "spectral.warnings":
                by_class["IllConditionedWarning"] + by_class["BoundaryRootWarning"],
            "inversion.calls": c["inversion.inversions"],
            "inversion.freqs": c["inversion.freqs"],
            "inversion.self_ms": self_ns["inversion"] * ms,
            "inversion.failed": self.errors[("inversion", "OutOfRange")],
            "starvation.self_ms": self_ns["starvation"] * ms,
            "startup.self_ms": self_ns["startup"] * ms,
            "startup.fill_calls": c["startup.fill_calls"],
            "events.grid_builds": c["events.grid_builds"],
            "events.grid_nodes": c["events.grid_nodes"],
            "events.grid_self_ms": fn_self_ns["events.build_path_grid"] * ms,
            "events.chain_self_ms": fn_self_ns["events.starvation_count_pmf"] * ms,
            "events.negative_density_warnings": by_class["NegativeDensityWarning"],
            "events.tail_too_large": self.errors[("events", "TailTooLarge")],
            "events.wasted_ms": wasted_ns * ms,
            "events.mass_residual_max": self.residual_max,
            "qoe.calls": c["qoe.calls"],
            "qoe.self_ms": self_ns["qoe"] * ms,
            "simulator.sessions": sessions,
            "simulator.self_ms": self_ns["simulator"] * ms,
            "simulator.rng_calls": c["simulator.rng_calls"],
            "simulator.rng_draws": c["simulator.rng_draws"],
            "simulator.rng_ms": rng_ns * ms,
            "simulator.draws_per_session":
                c["simulator.rng_draws"] / sessions if sessions else 0.0,
            "trace.spans": len(self.spans),
        }

    def warning_table(self) -> dict:
        return {f"{layer}.{category}": n
                for (layer, category), n in sorted(self.warnings.items())}

    def error_table(self) -> dict:
        return {f"{layer}.{error}": n
                for (layer, error), n in sorted(self.errors.items())}

    def write(self, path, extra: dict) -> None:
        """Write spans and tables as gzipped JSON; times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0
        payload = {
            **extra,
            "warnings": self.warning_table(),
            "errors": self.error_table(),
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "error"],
            "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.op, s.error]
                      for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _targets():
    """Public functions defined in each layer module, keyed by identity."""
    found = {}
    for module in LAYERS:
        mod = importlib.import_module(f"fluidqoe.{module}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[id(obj)] = (obj, module, name)
    return found


def install(tracer: Tracer) -> list:
    """Wrap every binding of every target function in the ``fluidqoe``
    modules; returns the undo list."""
    targets = _targets()
    wrappers = {}
    for key, (func, module, name) in targets.items():
        def wrapper(*args, _f=func, _m=module, _n=name, **kwargs):
            return tracer.call(_f, _m, _n, args, kwargs)
        wrappers[key] = functools.update_wrapper(wrapper, func)
    namespaces = [m for n, m in sys.modules.items()
                  if n == "fluidqoe" or n.startswith("fluidqoe.")]
    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = targets.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, wrappers[id(obj)])
                undo.append((ns, attr, obj))
    return undo


def uninstall(undo: list) -> None:
    for ns, attr, obj in reversed(undo):
        setattr(ns, attr, obj)


@contextlib.contextmanager
def recording(tracer: Tracer):
    """Tracer installed and every package warning recorded, then undone."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        tracer.record_warnings(log)
        undo = install(tracer)
        try:
            yield tracer
        finally:
            uninstall(undo)
            tracer.record_warnings(None)
