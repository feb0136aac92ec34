"""Spans around calls into chaincx's public functions, for the traced run.

`Tracer.install` replaces each function in LAYER_FUNCTIONS, wherever a
chaincx module holds it, with a wrapper that records a span; `remove`
puts the originals back.  The package's source is not changed.  A span
has a name (`<module>.<function>`), start and end in seconds, the id of
the workload operation that caused it, the span it was called from and
the phase of the run.  Some spans carry counters computed from the
call's arguments and result.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import oracles

LAYER_FUNCTIONS = {
    "cli": ("main",),
    "optimizer": ("maximize_dp", "maximizer_rank_sum_range", "enumerate_maximizers"),
    "predictions": ("conjecture_scan", "sweep_theorems"),
    "numerics": ("orbit_dimension", "random_conjugation", "sequential_sample",
                 "numerical_rank"),
    "core": ("stratum_dimension",),
}


def _dp_counters(args, kwargs, result):
    counters = {"cells": oracles.dp_cells(args[0].dims)}
    if hasattr(result, "maximizers"):
        counters["listed"] = len(result.maximizers)
    return counters


def _scan_counters(args, kwargs, result):
    max_length, max_entry = args[0], args[1]
    return {"generated": oracles.rectangle_size(max_length, max_entry),
            "scanned": result.shapes_scanned}


def _orbit_counters(args, kwargs, result):
    dims = args[0].shape.dims
    domain = sum(a * a for a in dims)
    ambient = sum(dims[i - 1] * dims[i] for i in range(1, len(dims)))
    return {"bytes": 8 * ambient * domain}


COUNTERS = {
    "optimizer.maximize_dp": _dp_counters,
    "optimizer.maximizer_rank_sum_range": _dp_counters,
    "optimizer.enumerate_maximizers": _dp_counters,
    "predictions.conjecture_scan": _scan_counters,
    "numerics.orbit_dimension": _orbit_counters,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.phase = None
        self._stack = []
        self._patched = []
        self._origin = time.perf_counter()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op, "phase": self.phase,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter() - self._origin
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter() - self._origin
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "chaincx" or n.startswith("chaincx."))]
        for module_name, functions in LAYER_FUNCTIONS.items():
            module = sys.modules[f"chaincx.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def remove(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def add(self, name, seconds):
        """Record a span the harness timed itself (a child process)."""
        end = time.perf_counter() - self._origin
        self.spans.append({"id": len(self.spans), "name": name, "op": self.op,
                           "phase": self.phase, "parent": None,
                           "start": end - seconds, "end": end})

    def write(self, path, header):
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path):
    with open(path) as handle:
        header = json.loads(handle.readline())
        return header, [json.loads(line) for line in handle]


def _median(values):
    return statistics.median(values) if values else float("nan")


def layer_metrics(spans, traced_wall, untraced_wall):
    """Per-layer metrics from the spans of a traced run.

    The workload phases ("pass" and "cli_replay") feed every metric except
    optimizer.small_call_us_p50, which comes from the "small_replay" phase.
    """
    work = [s for s in spans if s["phase"] in ("pass", "cli_replay")]

    def durations(name, phase_spans=work):
        return [s["end"] - s["start"] for s in phase_spans if s["name"] == name]

    def total(name):
        return sum(durations(name))

    children = {}
    for s in work:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    dp = [s for s in work if s["name"].startswith("optimizer.")]
    scans = [s for s in work if s["name"] == "predictions.conjecture_scan"]
    predictions = [s for s in work if s["name"].startswith("predictions.")]
    orbits = [s for s in work if s["name"] == "numerics.orbit_dimension"]
    largest = max((s.get("bytes", 0) for s in orbits), default=0)
    generated = sum(s.get("generated", 0) for s in scans)
    scanned = sum(s.get("scanned", 0) for s in scans)
    cells = sum(s.get("cells", 0) for s in dp)
    dp_time = sum(s["end"] - s["start"] for s in dp)
    small = durations("optimizer.maximizer_rank_sum_range",
                      [s for s in spans if s["phase"] == "small_replay"])
    return {
        "cli.interp_ms": 1e3 * _median(durations("cli.interp", spans)),
        "cli.import_ms": 1e3 * _median(durations("cli.import", spans)),
        "cli.main_ms_p50": 1e3 * _median(durations("cli.main")),
        "optimizer.maximize_dp_s": total("optimizer.maximize_dp"),
        "optimizer.rank_sum_range_s": total("optimizer.maximizer_rank_sum_range"),
        "optimizer.enumerate_s": total("optimizer.enumerate_maximizers"),
        "optimizer.dp_cells": cells,
        "optimizer.cells_per_s": cells / dp_time if dp_time else float("nan"),
        "optimizer.maximizers_listed": sum(s.get("listed", 0) for s in dp),
        "optimizer.small_call_us_p50": 1e6 * _median(small),
        "predictions.conjecture_scan_s": total("predictions.conjecture_scan"),
        "predictions.sweep_theorems_s": total("predictions.sweep_theorems"),
        "predictions.shapes_generated": generated,
        "predictions.shapes_scanned": scanned,
        "predictions.scan_yield": (scanned / generated
                                   if generated else float("nan")),
        "predictions.self_s": sum(s["end"] - s["start"] - children.get(s["id"], 0.0)
                                  for s in predictions),
        "numerics.orbit_dimension_ms_p50": 1e3 * _median(durations("numerics.orbit_dimension")),
        "numerics.orbit_dimension_large_s": _median(
            [s["end"] - s["start"] for s in orbits if s.get("bytes") == largest]),
        "numerics.random_conjugation_ms_p50":
            1e3 * _median(durations("numerics.random_conjugation")),
        "numerics.sequential_sample_ms_p50":
            1e3 * _median(durations("numerics.sequential_sample")),
        "numerics.numerical_rank_ms_p50": 1e3 * _median(durations("numerics.numerical_rank")),
        "numerics.orbit_matrix_bytes": largest,
        "core.stratum_dimension_us_p50": 1e6 * _median(durations("core.stratum_dimension")),
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }

