"""Layer tracing from outside the package: timing wrappers on public functions.

:class:`Tracer` replaces each layer function at every ``paircomp`` module
attribute that holds it (the place its callers look it up) with a wrapper
that records a span: name, start, end, parent span and trial id. Spans of
one ``cli.main`` call, or of one ``run_trial`` inside it, share a trial id.
Self time is a span's duration minus the time its child spans cover. On
exit every attribute is put back and checked to hold the original again.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import time
from dataclasses import dataclass, field

# layer name -> (defining module, function name)
LAYERS = {
    "graphs.make_topology": ("paircomp.graphs", "make_topology"),
    "observation.observe": ("paircomp.observation", "observe"),
    "observation.sample_matrix": ("paircomp.observation", "sample_matrix"),
    "observation.empirical_scores": ("paircomp.observation", "empirical_scores"),
    "models.make_noisy_sorting": ("paircomp.models", "make_noisy_sorting"),
    "models.sample_sst_bands": ("paircomp.models", "sample_sst_bands"),
    "models.kt_distance": ("paircomp.models", "kt_distance"),
    "models.frobenius_error": ("paircomp.models", "frobenius_error"),
    "estimators.asp_estimate": ("paircomp.estimators", "asp_estimate"),
    "estimators.asp_lambda_mle": ("paircomp.estimators", "asp_lambda_mle"),
    "estimators.bap_estimate": ("paircomp.estimators", "bap_estimate"),
    "estimators.block_partition": ("paircomp.estimators", "block_partition"),
    "estimators.block_average": ("paircomp.estimators", "block_average"),
    "estimators.project_biso": ("paircomp.estimators", "project_biso"),
    "diagnostics.minimax_lower_bound": ("paircomp.diagnostics", "minimax_lower_bound"),
    "diagnostics.max_independent_set": ("paircomp.diagnostics", "max_independent_set"),
    "diagnostics.max_biclique_complement": ("paircomp.diagnostics", "max_biclique_complement"),
    "harness.run_trial": ("paircomp.harness", "run_trial"),
    "harness.records_to_csv": ("paircomp.harness", "records_to_csv"),
    "harness.fit_slope": ("paircomp.harness", "fit_slope"),
    "cli.main": ("paircomp.cli", "main"),
}
# spans of these layers start a new trial id; others inherit their parent's
_TRIAL_ROOTS = ("cli.main", "harness.run_trial")
# work counted from a layer's return value; dense_bytes is n^2 * 8 per float matrix
COUNTERS = {
    "graphs.make_topology": lambda g: {"edges": len(g.edges)},
    "observation.observe": lambda s: {"pairs": len(s.pairs)},
    "models.make_noisy_sorting": lambda m: {"dense_bytes": m.nbytes},
    "models.sample_sst_bands": lambda m: {"dense_bytes": m.nbytes},
    "estimators.block_partition": lambda c: {"groups": len(c.groups)},
    "estimators.project_biso": lambda r: {
        "iterations": r.iterations,
        "entry_updates": r.iterations * r.matrix.size,
        "nonconverged": int(not r.converged),
    },
    "harness.run_trial": lambda r: {"failed": int(r.error is not None)},
}


def _package_modules() -> list:
    return [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "paircomp"]


@dataclass
class Span:
    name: str
    parent: Span | None
    trial: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Context manager that installs the wrappers and keeps spans in memory."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)
    _wrappers: dict[int, object] = field(default_factory=dict)  # held, so ids stay unique

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            trial = next(self._ids) if name in _TRIAL_ROOTS or parent is None else parent.trial
            span = Span(name, parent, trial)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts = count(result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)

        return wrapper

    def __enter__(self) -> Tracer:
        originals = {
            name: getattr(importlib.import_module(module), attr)
            for name, (module, attr) in LAYERS.items()
        }
        modules = _package_modules()
        try:
            for name, original in originals.items():
                wrapper = self._wrap(name, original)
                self._wrappers[id(wrapper)] = wrapper
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._patched.append((m, key, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back, then check that no module still holds a wrapper."""
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()
        left = [
            f"{m.__name__}.{key}"
            for m in _package_modules()
            for key, value in list(vars(m).items())
            if id(value) in self._wrappers
        ]
        if left:
            raise RuntimeError(f"tracing wrappers left in place: {left}")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit): self seconds and counts per pass,
    and percentiles over single calls where the name says so."""
    by_layer: dict[str, list[Span]] = {name: [] for name in LAYERS}
    for span in spans:
        by_layer[span.name].append(span)

    def per_pass(layer: str, key: str) -> float:
        return sum(span.counts.get(key, 0) for span in by_layer[layer]) / passes

    out = {f"{name}.s": (sum(sp.self_s for sp in group) / passes, "s") for name, group in by_layer.items()}
    iterations = [sp.counts["iterations"] for sp in by_layer["estimators.project_biso"]]
    trial_ms = [sp.duration * 1e3 for sp in by_layer["harness.run_trial"]]
    out.update({
        "graphs.make_topology.edges": (per_pass("graphs.make_topology", "edges"), "count"),
        "observation.observe.pairs": (per_pass("observation.observe", "pairs"), "count"),
        "models.dense_bytes": (
            per_pass("models.make_noisy_sorting", "dense_bytes")
            + per_pass("models.sample_sst_bands", "dense_bytes"),
            "bytes",
        ),
        "estimators.block_partition.groups": (per_pass("estimators.block_partition", "groups"), "count"),
        "estimators.project_biso.iterations": (per_pass("estimators.project_biso", "iterations"), "count"),
        "estimators.project_biso.iterations.p50": (_percentile(iterations, 50), "count"),
        "estimators.project_biso.iterations.max": (float(max(iterations, default=0)), "count"),
        "estimators.project_biso.entry_updates": (per_pass("estimators.project_biso", "entry_updates"), "count"),
        "estimators.project_biso.nonconverged": (per_pass("estimators.project_biso", "nonconverged"), "count"),
        "harness.run_trial.ms.p50": (_percentile(trial_ms, 50), "ms"),
        "harness.run_trial.ms.p90": (_percentile(trial_ms, 90), "ms"),
        "harness.run_trial.failed": (per_pass("harness.run_trial", "failed"), "count"),
    })
    return out
