"""Outside-in tracing of suvsim's layers for the benchmark's traced runs.

The tracer replaces, for the duration of one repetition, the module
attributes through which the package's layers call each other (for
example ``suvsim.engine._suv_heun``, which the engine looks up on every
step) with wrappers that record a span per call. Nothing inside the
package is edited: the wrappers live here and are removed afterwards.

A span is ``(name, start, end, parent)``, where ``parent`` is the index of
the enclosing span or -1. Spans stay in memory until the run ends. A
span's self time is its duration minus the time its direct children
cover; summed over every span, self times give back the root's duration.

A target that no longer exists (a later change renamed or removed it) is
recorded as absent, and every metric built from its span is left out of
the result instead of being reported wrong.
"""
from __future__ import annotations

import importlib
import re
import statistics
import time
from contextlib import contextmanager

__all__ = [
    "METRIC_NAME",
    "PER_LAYER",
    "TARGETS",
    "Tracer",
    "aggregate",
    "check_spans",
    "layer_metrics",
    "median_metrics",
    "self_times",
    "unit_of",
]

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

ROOT = "harness.run_experiment"

_MB = 8 / 1e6  # megabytes per float64 element


def _rows(args, kwargs):
    return len(args[1])


def _draw_matrix_mb(args, kwargs):
    cfg, streams = args[0], args[1]
    return len(streams) * cfg.n_steps * _MB


def _paths_matrix_mb(args, kwargs):
    n_steps, streams = args[1], args[3]
    return len(streams) * (n_steps + 1) * _MB


# (module, attribute, span name, counter). A counter is (metric, function of
# the call's arguments, "sum" or "max"). Span names are "<layer>.<what>".
TARGETS = (
    ("suvsim.harness", "sha256_file", "output.sha256", None),
    ("suvsim.harness", "write_json_atomic", "harness.manifest", None),
    ("suvsim.experiments", "simulate_ensemble", "engine.ensemble", None),
    ("suvsim.experiments", "derive_stream", "engine.streams", None),
    ("suvsim.experiments", "simulate_paths", "noise.paths",
     ("noise.paths_matrix_mb", _paths_matrix_mb, "max")),
    ("suvsim.experiments", "autocorrelation", "noise.autocorr", None),
    ("suvsim.experiments", "steady_samples", "noise.steady", None),
    ("suvsim.experiments", "collapse_statistics", "observables.stats", None),
    ("suvsim.experiments", "born_deviation", "observables.stats", None),
    ("suvsim.experiments", "ks_distance", "observables.stats", None),
    ("suvsim.experiments", "write_ensemble_csv", "output.write", None),
    ("suvsim.experiments", "write_table_csv", "output.write", None),
    ("suvsim.experiments", "write_trajectory_csv", "output.write", None),
    ("suvsim.engine", "derive_stream", "engine.streams", None),
    ("suvsim.engine", "_integrate_chunk", "engine.chunk",
     ("engine.draw_matrix_mb", _draw_matrix_mb, "max")),
    ("suvsim.engine", "_suv_heun", "dynamics.kernel", None),
    ("suvsim.engine", "_unnormalized_heun", "dynamics.kernel", None),
    ("suvsim.engine", "_sse_em", "dynamics.kernel", None),
    ("suvsim.engine", "_white_strat_heun", "dynamics.kernel", None),
    ("suvsim.engine", "_white_ito_em", "dynamics.kernel", None),
    ("suvsim.engine", "_z_colored_heun", "dynamics.kernel", None),
    ("suvsim.engine", "_z_white_heun", "dynamics.kernel", None),
    ("suvsim.engine", "_renormalize", "dynamics.renormalize", None),
    ("suvsim.engine", "_ou_update", "noise.update", None),
    ("suvsim.engine", "_sbm_update", "noise.update", None),
    ("suvsim.observables", "CompensatedAccumulator.add_rows", "observables.fold",
     ("observables.fold_rows", _rows, "sum")),
)

# Per-layer metric -> (span name, field). "self" fields are the layers' self
# times; whatever of the traced wall they do not cover is unattributed.
SPAN_METRICS = {
    "observables.fold_s": ("observables.fold", "self"),
    "observables.stats_s": ("observables.stats", "self"),
    "engine.streams_s": ("engine.streams", "self"),
    "engine.streams_calls": ("engine.streams", "calls"),
    "engine.chunk_self_s": ("engine.chunk", "self"),
    "engine.chunks": ("engine.chunk", "calls"),
    "engine.ensemble_s": ("engine.ensemble", "total"),
    "engine.ensemble_self_s": ("engine.ensemble", "self"),
    "engine.ensembles": ("engine.ensemble", "calls"),
    "dynamics.kernel_s": ("dynamics.kernel", "self"),
    "dynamics.kernel_calls": ("dynamics.kernel", "calls"),
    "dynamics.renormalize_s": ("dynamics.renormalize", "self"),
    "noise.update_s": ("noise.update", "self"),
    "noise.update_calls": ("noise.update", "calls"),
    "noise.paths_s": ("noise.paths", "self"),
    "noise.autocorr_s": ("noise.autocorr", "self"),
    "noise.steady_s": ("noise.steady", "self"),
    "output.write_s": ("output.write", "self"),
    "output.sha256_s": ("output.sha256", "self"),
    "harness.manifest_s": ("harness.manifest", "self"),
}

# Every per-layer metric a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    *SPAN_METRICS,
    "dynamics.kernel_us_per_call",
    "observables.fold_rows",
    "engine.draw_matrix_mb",
    "noise.paths_matrix_mb",
    "output.bytes_written",
    "config.build_s",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.unattributed_s",
)


def unit_of(metric: str) -> str:
    """Unit of a metric, from its name's suffix."""
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_us_per_call"):
        return "us"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("_s"):
        return "s"
    return "count"


def _resolve(module_name: str, attr: str):
    """Owner object, leaf name and value of a dotted attribute of a module."""
    owner = importlib.import_module(module_name)
    *parents, leaf = attr.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Span recorder that wraps the layer-boundary attributes in ``targets``.

    Use as a context manager around one repetition; ``root`` opens the span
    that encloses the whole repetition.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()  # span or counter names with a missing source
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for module_name, attr, name, counter in self.targets:
            try:
                owner, leaf, original = _resolve(module_name, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                if counter is not None:
                    self.absent.add(counter[0])
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc_info):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
        return False

    @contextmanager
    def root(self):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, ROOT, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent)

    def _count(self, counter, args, kwargs) -> None:
        metric, measure, how = counter
        try:
            value = measure(args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError):
            # The call's signature changed: the counter is no longer valid.
            self.absent.add(metric)
            return
        old = self.counters.get(metric, 0)
        self.counters[metric] = old + value if how == "sum" else max(old, value)

    def _wrap(self, fn, name, counter):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                self._count(counter, args, kwargs)
            index = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start)

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, covered)]


def aggregate(spans) -> dict[str, dict]:
    """Per span name: summed self time, summed duration and call count."""
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0})
        row["self"] += own
        row["total"] += end - start
        row["calls"] += 1
    return out


def check_spans(spans, tolerance: float = 1e-6) -> list[str]:
    """Problems with a finished span tree; empty when it is consistent.

    Every span must be closed and inside its parent, no self time may be
    negative, and the self times must add up to the roots' durations.
    """
    problems = []
    if any(s is None for s in spans):
        return ["a span was opened but never closed"]
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent")
    selfs = self_times(spans)
    worst = min(selfs, default=0.0)
    if worst < -tolerance:
        problems.append(f"negative self time {worst!r} s")
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    if abs(sum(selfs) - roots) > tolerance * max(1.0, roots):
        problems.append(f"self times sum to {sum(selfs)!r} s, roots to {roots!r} s")
    return problems


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition whose root lasted ``wall``.

    ``trace.unattributed_s`` is the wall minus every reported self time, so
    the reported self times plus it add up to the wall exactly.
    """
    rows = aggregate(tracer.spans)
    empty = {"self": 0.0, "total": 0.0, "calls": 0}
    out: dict[str, float] = {}
    for metric, (span, field) in SPAN_METRICS.items():
        if span not in tracer.absent:
            out[metric] = rows.get(span, empty)[field]
    if "dynamics.kernel_s" in out:
        calls = out["dynamics.kernel_calls"]
        out["dynamics.kernel_us_per_call"] = out["dynamics.kernel_s"] / calls * 1e6 if calls else 0.0
    for _, _, _, counter in TARGETS:
        if counter is not None and counter[0] not in tracer.absent:
            out[counter[0]] = tracer.counters.get(counter[0], 0)
    attributed = sum(out[m] for m, (_, field) in SPAN_METRICS.items() if field == "self" and m in out)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over repetitions; a metric missing from any
    repetition is left out."""
    names = set(samples[0]).intersection(*samples[1:]) if samples else set()
    return {name: statistics.median(s[name] for s in samples) for name in names}
