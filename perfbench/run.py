"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload ns_asp --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of one workload:
wall_s (median wall time of one pass over the workload's CLI calls),
setup_s (median time from starting a Python process to the first
workload call: interpreter, ``import paircomp`` and input generation)
and peak_rss_mb (peak RSS of this process). With ``--trace 1`` it runs
every pass untraced and traced, requires identical output bytes, and
reports per-layer self time and work counts per pass plus the tracing
overhead.

Every run first checks the reference pass against reference.json, then
checks every output of every pass; a wrong output exits 1. The last
stdout line is the JSON result; a readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # timed, after one untimed probe that fills the bytecode cache
MIN_PASSES = 3


def _use_checkout_sources() -> None:
    """Import paircomp from this checkout's src/, or stop without a result."""
    src = ROOT / "src"
    if not (src / "paircomp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no paircomp sources under {src}")
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        del sys.path[0]  # the script directory would shadow top-level module names
    sys.path[:0] = [str(src), str(ROOT)]
    import paircomp

    if Path(paircomp.__file__).resolve().parent != src / "paircomp":
        sys.exit(f"perfbench: imported paircomp from {paircomp.__file__}, not {src}")


def _probe(workload: str, seed: int) -> None:
    """Setup probe: everything a workload call needs, then signal the parent."""
    import paircomp.cli  # noqa: F401
    from perfbench.workloads import pass_ops

    pass_ops(workload, seed, 0)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning a probe process to its "ready" line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {child.returncode} after {line!r}")
    return statistics.median(times[1:])


def _passes(workload: str, seed: int, seconds: float, run_one):
    """Call run_one(ops) for passes 0, 1, ... until the next would end past
    ``seconds``, at least MIN_PASSES times; run_one returns its wall time."""
    from perfbench.workloads import pass_ops

    walls: list[float] = []
    start = time.perf_counter()
    while True:
        walls.append(run_one(pass_ops(workload, seed, len(walls))))
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return walls


def _check_pass(ops, outcomes, tally: Counter) -> None:
    """Check every output; count operations, failures, and diagnose failure
    reasons (known defects included)."""
    from perfbench.checks import check_op

    for op, out in zip(ops, outcomes):
        checked = check_op(op, out)
        tally["attempted"] += len(checked.results)
        tally["failed"] += len(checked.failures)
        if op.kind == "diagnose":
            tally.update(checked.failures + checked.known)


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload, seed)
    from perfbench.reference import check_reference
    from perfbench.workloads import run_pass

    check_reference(workload)
    tally = Counter()

    def run_one(ops):
        wall, outcomes = run_pass(ops)
        _check_pass(ops, outcomes, tally)
        return wall

    walls = _passes(workload, seed, seconds, run_one)
    return {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
    }


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    from perfbench.checks import FAILURE_REASONS, CheckError
    from perfbench.reference import check_reference
    from perfbench.tracer import Tracer, layer_metrics
    from perfbench.workloads import run_pass

    check_reference(workload)
    tracer = Tracer()
    plain_walls, traced_walls = [], []
    tally = Counter()

    def traced(ops):
        with tracer:
            return run_pass(ops)

    def run_one(ops):
        # alternate which run goes first, so neither always gets the warm caches
        first, second = (run_pass, traced) if len(traced_walls) % 2 == 0 else (traced, run_pass)
        a, b = first(ops), second(ops)
        (plain_wall, plain), (traced_wall, outs) = (a, b) if first is run_pass else (b, a)
        for op, x, y in zip(ops, plain, outs):
            if (x.stdout, x.returncode, repr(x.error)) != (y.stdout, y.returncode, repr(y.error)):
                raise CheckError(f"paircomp {' '.join(op.argv())}: traced output differs from untraced")
        _check_pass(ops, outs, tally)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        return plain_wall + traced_wall

    passes = len(_passes(workload, seed, seconds, run_one))
    metrics = layer_metrics(tracer.spans, passes)
    metrics["diagnostics.failed"] = (sum(tally[r] for r in FAILURE_REASONS) / passes, "count")
    for reason in FAILURE_REASONS:
        metrics[f"diagnostics.failed.{reason}"] = (tally[reason] / passes, "count")
    traced_median = statistics.median(traced_walls)
    metrics["trace.wall_s"] = (traced_median, "s")
    metrics["trace.overhead_s"] = (traced_median - statistics.median(plain_walls), "s")
    return {"attempted": tally["attempted"], "failed": tally["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    from perfbench.checks import CheckError
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.probe:
        _probe(args.workload, args.seed)
        return 0

    run = run_traced if args.trace else run_untraced
    try:
        result = {"correct": True, **run(args.workload, args.seed, args.seconds)}
    except CheckError as exc:
        print(f"perfbench: wrong output on {args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:>14} {name:<42} {value:>16.6g} {unit}", file=sys.stderr)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, and --workers 1: nothing runs
    # in parallel, so the numbers depend less on the load of other processes
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.exit(main())
