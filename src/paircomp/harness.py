"""Monte Carlo harness: seeded trials, sweeps over n, slope fits, CSV I/O.

A trial draws a ground-truth matrix on a fixed topology (true ranking =
identity), samples observations under a random assignment, runs one
estimator, and records error metrics.  Sweeps are reproducible: every
trial's generator is seeded by a stated 64-bit mix of (master_seed, n,
trial_index), records come back in (n, trial) order serially or in
parallel, and the CSV serialization is byte-stable.  A sweep's unit of
work is one run of consecutive trials at one size, and each run builds its
own graph, serial or parallel; nothing is cached between sweeps.

Wall-clock runtime is carried on each record but written to CSV only on
request, so that re-runs of the same spec produce identical bytes.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, replace
from itertools import chain, product, repeat

import numpy as np

from .estimators import asp_estimate, bap_estimate
from .graphs import GRAPH_FAMILIES, Graph, _check_topology, degree_functional, make_topology
from .models import (
    NoisySorting,
    frobenius_error,
    identity_permutation,
    kt_distance,
    noisy_sorting_error,
    sample_sst_bands,
)
from .observation import assign_random, observe

__all__ = [
    "ExperimentSpec",
    "TrialRecord",
    "SlopeFit",
    "derive_seed",
    "build_graph",
    "run_trial",
    "run_sweep",
    "fit_slope",
    "records_to_csv",
    "records_from_csv",
    "mean_errors",
    "summarize",
    "parse_config",
    "CSV_HEADER",
]

_MODELS = ("ns", "sst")
_ESTIMATORS = ("asp", "bap", "bap1")
_MODES = ("bernoulli", "expectation")

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a graph family, a model, an estimator, and seeds."""

    graph_family: str
    n_values: tuple[int, ...]
    model: str = "ns"
    lambda_star: float = 0.4
    estimator: str = "asp"
    trials: int = 10
    master_seed: int = 0
    mode: str = "bernoulli"
    bipartite_alpha: float | None = None
    edge_probability: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.graph_family not in GRAPH_FAMILIES:
            raise ValueError(f"graph_family must be one of {GRAPH_FAMILIES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if len(self.n_values) == 0 or any(
            b <= a for a, b in zip(self.n_values, self.n_values[1:])
        ):
            raise ValueError("n_values must be nonempty and strictly increasing")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.model == "ns" and not 0.0 <= self.lambda_star <= 0.5:
            raise ValueError("lambda_star must lie in [0, 1/2]")
        for n in self.n_values:  # a bad size fails here, before a sweep runs a trial
            _check_topology(self.graph_family, n, self.bipartite_alpha, self.edge_probability)


@dataclass(frozen=True)
class TrialRecord:
    graph_family: str
    n: int
    trial_index: int
    seed: int
    estimator: str
    model: str
    frob_err: float | None
    kt_dist: int | None
    lambda_hat: float | None
    degree_functional: float | None
    runtime_ms: float | None
    error: str | None = None


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *parts: int) -> int:
    """Deterministic 64-bit trial seed: fold each part through splitmix64."""
    h = _splitmix64(master_seed & _MASK64)
    for p in parts:
        h = _splitmix64(h ^ (p & _MASK64))
    return h


def build_graph(spec: ExperimentSpec, n: int) -> Graph:
    """Every command's topology at size n; Erdos-Renyi is seeded by master_seed
    alone, so its graph is fixed across trials and is what `diagnose` reports on."""
    return make_topology(
        spec.graph_family,
        n,
        alpha=spec.bipartite_alpha,
        p=spec.edge_probability,
        rng=np.random.default_rng(spec.master_seed),
    )


def run_trial(spec: ExperimentSpec, trial_index: int, graph: Graph) -> TrialRecord:
    """Run one seeded trial on graph, a topology from build_graph, at its
    size n; estimator failures become failed records."""
    n = graph.n
    seed = derive_seed(spec.master_seed, n, trial_index)
    start = time.perf_counter()
    metrics, error = (None, None, None, None), None
    try:
        rng = np.random.default_rng(seed)
        pi_star = identity_permutation(n)
        # an NS truth stays matrix-free; frobenius_error densifies it where no closed form applies
        if spec.model == "ns":
            m_star = NoisySorting(pi_star, spec.lambda_star)
        else:
            m_star = sample_sst_bands(n, rng)
        value_rng = rng if spec.mode == "bernoulli" else None
        s1 = observe(m_star, graph, assign_random(graph, rng), value_rng)
        kt = lam_hat = None
        if spec.estimator == "asp":
            m_hat = asp_estimate(s1)
            kt, lam_hat = kt_distance(pi_star, m_hat.ranks), m_hat.lam
        else:
            s2 = s1  # bap1 reuses the first sample
            if spec.estimator == "bap":
                s2 = observe(m_star, graph, assign_random(graph, rng), value_rng)
            m_hat = bap_estimate(s1, s2)
        if isinstance(m_hat, NoisySorting) and isinstance(m_star, NoisySorting):
            err = noisy_sorting_error(n, kt, lam_hat, spec.lambda_star)
        else:
            err = frobenius_error(m_hat, m_star)
        metrics = (err, kt, lam_hat, degree_functional(graph))
    except Exception as exc:  # noqa: BLE001 - failed trials are data, not crashes
        error = f"{type(exc).__name__}: {exc}"
    return TrialRecord(
        spec.graph_family,
        n,
        trial_index,
        seed,
        spec.estimator,
        spec.model,
        *metrics,
        runtime_ms=(time.perf_counter() - start) * 1e3,
        error=error,
    )


def _run_trials(spec: ExperimentSpec, n: int, trials: range) -> list[TrialRecord]:
    """One unit of sweep work: build the size-n graph, then run these trials on it."""
    graph = build_graph(spec, n)
    return [run_trial(spec, t, graph) for t in trials]


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> list[TrialRecord]:
    """All (n, trial) combinations in (n, trial_index) order.  Each size's
    trials are cut into runs of ceil(trials / workers), one task each; a run
    builds its own graph, so no graph crosses a process boundary."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    step = -(-spec.trials // workers)  # ceil(trials / workers)
    trials = range(spec.trials)
    size_runs = [trials[i : i + step] for i in trials[::step]]
    ns, runs = zip(*product(spec.n_values, size_runs))
    if workers == 1:
        return list(chain.from_iterable(map(_run_trials, repeat(spec), ns, runs)))
    from concurrent.futures import ProcessPoolExecutor  # deferred: ~24 ms of import
    with ProcessPoolExecutor(max_workers=min(workers, len(runs))) as pool:
        return list(chain.from_iterable(pool.map(_run_trials, repeat(spec), ns, runs)))


@dataclass(frozen=True)
class SlopeFit:
    slope: float | None
    intercept: float | None
    r_squared: float | None
    n_points: int  # slope is None when some mean error is zero (exact)


def _successful(records) -> list[TrialRecord]:
    return [r for r in records if r.error is None]


def mean_errors(records) -> dict[int, float]:
    """Arithmetic mean of frob_err over successful trials, keyed by n."""
    by_n: dict[int, list[float]] = {}
    for r in _successful(records):
        by_n.setdefault(r.n, []).append(r.frob_err)
    return {n: float(np.mean(v)) for n, v in sorted(by_n.items())}


def fit_slope(records) -> dict[tuple, SlopeFit]:
    """OLS of log(mean error) on log(n) per (graph_family, estimator, model)."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in _successful(records):
        groups.setdefault((r.graph_family, r.estimator, r.model), []).append(r)
    if not groups:
        raise ValueError("no successful trials to fit")
    out: dict[tuple, SlopeFit] = {}
    for key, group in groups.items():
        means = mean_errors(group)
        if len(means) < 2:
            raise ValueError(f"group {key} has fewer than 2 distinct n values")
        if any(v == 0.0 for v in means.values()):
            out[key] = SlopeFit(None, None, None, len(means))
            continue
        x = np.log(np.fromiter(means.keys(), dtype=np.float64))
        y = np.log(np.fromiter(means.values(), dtype=np.float64))
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
        out[key] = SlopeFit(float(slope), float(intercept), r2, len(means))
    return out


# ---------------------------------------------------------------------------
# CSV and config
# ---------------------------------------------------------------------------


def _optional(parse):
    return lambda cell: parse(cell) if cell else None


# CSV column -> (TrialRecord field, cell parser); the order is the CSV's
_CSV_COLUMNS = {
    "graph": ("graph_family", str),
    "n": ("n", int),
    "trial": ("trial_index", int),
    "seed": ("seed", int),
    "estimator": ("estimator", str),
    "model": ("model", str),
    "frob_err": ("frob_err", _optional(float)),
    "kt": ("kt_dist", _optional(int)),
    "lambda_hat": ("lambda_hat", _optional(float)),
    "deg_functional": ("degree_functional", _optional(float)),
    "runtime_ms": ("runtime_ms", _optional(float)),
}
CSV_HEADER = ",".join(_CSV_COLUMNS)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def records_to_csv(records, include_runtime: bool = False) -> str:
    """Stable CSV; runtime_ms stays empty unless include_runtime is set,
    keeping re-runs of the same spec byte-identical."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        if not include_runtime:
            r = replace(r, runtime_ms=None)
        buf.write(",".join(_fmt(getattr(r, field)) for field, _ in _CSV_COLUMNS.values()))
        buf.write("\n")
    return buf.getvalue()


def records_from_csv(text: str) -> list[TrialRecord]:
    """Parse records_to_csv output; rows without metrics come back failed, and a
    row that does not parse or that the fit cannot use (n < 1, frob_err not
    finite and >= 0) names its line."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    records = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_CSV_COLUMNS):
            raise ValueError(
                f"line {lineno}: expected {len(_CSV_COLUMNS)} fields, got {len(cells)}: {ln!r}"
            )
        values = {}
        for (column, (field, parse)), cell in zip(_CSV_COLUMNS.items(), cells):
            try:
                values[field] = parse(cell)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {column}: {exc}") from None
        n, frob_err = values["n"], values["frob_err"]
        if n < 1:
            raise ValueError(f"line {lineno}: n must be >= 1, got {n}")
        if frob_err is not None and not 0.0 <= frob_err < np.inf:
            raise ValueError(f"line {lineno}: frob_err must be finite and >= 0, got {frob_err}")
        error = None if frob_err is not None else "failed (metrics absent in CSV)"
        records.append(TrialRecord(**values, error=error))
    return records


def _slope_line(key: tuple, fit: SlopeFit) -> str:
    """The one rendering of a fit, in the sweep's report and from `slope`."""
    name = "/".join(str(k) for k in key)
    if fit.slope is None:
        return f"slope[{name}]: exact (zero mean error)"
    return (
        f"slope[{name}]: {fit.slope:.4f} (intercept {fit.intercept:.4f}, "
        f"r2 {fit.r_squared:.4f}, {fit.n_points} sizes)"
    )


def summarize(records) -> str:
    """A sweep's stderr report: mean error per n, failures, then the slopes."""
    lines = [f"n={n}: mean frob_err={err:.6g}" for n, err in mean_errors(records).items()]
    failures = [r for r in records if r.error is not None]
    lines.append(f"failed trials: {len(failures)}")
    lines.extend(f"  n={r.n} trial={r.trial_index}: {r.error}" for r in failures)
    try:
        lines.extend(_slope_line(key, fit) for key, fit in fit_slope(records).items())
    except ValueError as exc:
        lines.append(f"slope: skipped ({exc})")
    return "\n".join(lines) + "\n"


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


# config key, also a CLI flag -> (ExperimentSpec field, text -> value, flag help)
_CONFIG_KEYS = {
    "graph": ("graph_family", str, "graph family"),
    "n_list": ("n_values", _int_tuple, "comma-separated sizes, e.g. 64,128,256"),
    "model": ("model", str, f"ground-truth model: {', '.join(_MODELS)}"),
    "lambda": ("lambda_star", float, "noise gap lambda_star of the NS model"),
    "estimator": ("estimator", str, f"estimator: {', '.join(_ESTIMATORS)}"),
    "trials": ("trials", int, "trials per size"),
    "seed": ("master_seed", int, "random seed"),
    "mode": ("mode", str, f"observation mode: {', '.join(_MODES)}"),
    "alpha": ("bipartite_alpha", float, "bipartite exponent"),
    "p": ("edge_probability", float, "Erdos-Renyi edge probability"),
}


def _spec_from_values(items) -> ExperimentSpec:
    """Spec from (config key, text) pairs; keys left out take the spec's
    defaults.  Config files and CLI flags both go through here."""
    kwargs: dict = {}
    for key, value in items:
        field, convert, _ = _CONFIG_KEYS[key]
        try:
            kwargs[field] = convert(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    if "graph_family" not in kwargs or "n_values" not in kwargs:
        raise ValueError("config requires at least 'graph' and 'n_list'")
    return ExperimentSpec(**kwargs)


def parse_config(text: str) -> ExperimentSpec:
    """Flat key = value lines with # comments; keys mirror the CLI flags."""
    items: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in items:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        items[key] = value
    return _spec_from_values(items.items())
