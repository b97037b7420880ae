"""Benchmark workloads: seeded lists of `paircomp` CLI calls, run in-process.

A workload is a list of operations, made of one or more mixes. One pass
runs every operation once through ``paircomp.cli.main``. Copy ``r`` of mix
``m`` in pass ``k`` of seed ``s`` draws its inputs (noise level, sweep
seeds, Erdos-Renyi seeds) from ``(m, s, k * copies + r)`` alone, so the
same seed always gives the same inputs. Sizes and families are fixed per
mix; the reasons for each choice are in README.md.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass

# workload -> (mix, copies per pass); two long workloads rather than one per
# mix, because a shared host's speed can drift over tens of seconds and a
# longer run averages more of that drift. Eight sst_bap copies give that
# mix about half of its workload's pass, so neither mix hides the other.
WORKLOADS = {
    "ns_asp": (("ns_asp_dense", 1), ("ns_asp_sparse", 1)),
    "sst_bap_diagnose": (("sst_bap", 8), ("diagnose", 1)),
}

# (graph families, sizes) of the three sweep mixes
_SWEEPS = {
    "ns_asp_dense": (("two_cliques", "power_law"), (256, 512, 1024, 2048)),
    "ns_asp_sparse": (("cycle", "path"), (1024, 2048, 4096)),
    "sst_bap": (("power_law", "clique_plus_path"), (64, 128, 256)),
}
# diagnose: Erdos-Renyi draws at n = 20 per edge probability, and the tagged
# families at every size; the exact search time grows steeply with n (star:
# 0.07 s at n = 16, 1.1 s at n = 20), so the sizes are fixed, not drawn
_ER_N = 20
_ER_PROBABILITIES = (0.15, 0.3, 0.5, 0.7)
_ER_DRAWS = 4
_TAGGED = (
    "star",
    "path",
    "cycle",
    "complete",
    "two_cliques",
    "clique_plus_path",
    "power_law",
    "regular_bipartite",
)
_TAGGED_SIZES = (16, 18, 20)
_BIPARTITE_ALPHA = 0.5


@dataclass(frozen=True)
class Op:
    """One CLI call: a sweep (``simulate``) or a ``diagnose``."""

    kind: str  # "sweep" or "diagnose"
    graph: str
    n_values: tuple[int, ...]
    seed: int
    model: str = "ns"
    estimator: str = "asp"
    lam: float = 0.4
    p: float | None = None
    alpha: float | None = None

    def argv(self) -> list[str]:
        if self.kind == "sweep":
            args = [
                "simulate", "--graph", self.graph,
                "--n-list", ",".join(map(str, self.n_values)),
                "--model", self.model, "--lambda", repr(self.lam),
                "--estimator", self.estimator, "--trials", "1",
                "--seed", str(self.seed), "--mode", "bernoulli", "--workers", "1",
            ]
        else:
            args = [
                "diagnose", "--graph", self.graph, "--n", str(self.n_values[0]),
                "--seed", str(self.seed), "--json",
            ]
            if self.p is not None:
                args += ["--p", repr(self.p)]
        if self.alpha is not None:
            args += ["--alpha", repr(self.alpha)]
        return args


def pass_ops(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of pass ``index`` of ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {tuple(WORKLOADS)}")
    return [
        op
        for mix, copies in WORKLOADS[workload]
        for r in range(copies)
        for op in mix_ops(mix, seed, index * copies + r)
    ]


def mix_ops(mix: str, seed: int, index: int) -> list[Op]:
    """The operations of copy ``index`` of ``mix`` under ``seed``."""
    rng = random.Random(f"{mix}:{seed}:{index}")
    if mix in _SWEEPS:
        graphs, sizes = _SWEEPS[mix]
        model, estimator = ("sst", "bap") if mix == "sst_bap" else ("ns", "asp")
        return [
            Op(
                "sweep", graph, sizes, rng.randrange(2**31), model=model,
                estimator=estimator, lam=round(rng.uniform(0.05, 0.45), 3),
            )
            for graph in graphs
        ]
    ops = [
        Op("diagnose", "erdos_renyi", (_ER_N,), rng.randrange(2**31), p=p)
        for p in _ER_PROBABILITIES
        for _ in range(_ER_DRAWS)
    ]
    for graph in _TAGGED:
        alpha = _BIPARTITE_ALPHA if graph == "regular_bipartite" else None
        ops.extend(Op("diagnose", graph, (n,), 0, alpha=alpha) for n in _TAGGED_SIZES)
    return ops


@dataclass(frozen=True)
class Outcome:
    """What one CLI call produced: its stdout bytes, exit code, or exception."""

    stdout: str
    returncode: int | None
    error: BaseException | None


def run_op(op: Op) -> Outcome:
    """Call ``paircomp.cli.main`` as a fresh CLI process would see it.

    The harness keeps built graphs in a process-wide cache; a real CLI call
    starts with it empty, so it is emptied before every call.
    """
    from paircomp import cli, harness

    getattr(harness, "_GRAPH_CACHE", {}).clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(op.argv())
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            return Outcome(out.getvalue(), None, exc)
    return Outcome(out.getvalue(), rc, None)


def run_pass(ops: list[Op]) -> tuple[float, list[Outcome]]:
    """Run every operation once; return the wall time and the outcomes."""
    start = time.perf_counter()
    outcomes = [run_op(op) for op in ops]
    return time.perf_counter() - start, outcomes
