"""Command-line harness: simulate, sweep, diagnose, slope."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .diagnostics import minimax_lower_bound, report_to_json, report_to_text
from .graphs import make_topology
from .harness import (
    _CONFIG_KEYS,
    _ESTIMATORS,
    _MODELS,
    _MODES,
    ExperimentSpec,
    _spec_from_values,
    fit_slope,
    parse_config,
    records_from_csv,
    records_to_csv,
    run_sweep,
    summarize,
)

__all__ = ["main"]


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    # values stay text: _spec_from_values converts them and ExperimentSpec
    # supplies the defaults, exactly as for a config file
    p.add_argument("--graph", required=True, help="graph family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single problem size")
    group.add_argument("--n-list", help="comma-separated sizes, e.g. 64,128,256")
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--lambda", metavar="LAMBDA_STAR")
    p.add_argument("--estimator", choices=_ESTIMATORS)
    p.add_argument("--trials")
    p.add_argument("--seed")
    p.add_argument("--mode", choices=_MODES)
    p.add_argument("--alpha", help="bipartite exponent")
    p.add_argument("--p", help="Erdos-Renyi edge probability")


def _read_input(path: str) -> str:
    """Text of a file named on the command line; an unreadable file is a
    ValueError, so it is reported like any other bad input."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_output(text: str, out: str | None) -> None:
    """Write text to the --out file, or to stdout without one; an unwritable
    file is a ValueError, so it is reported like any other bad input."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _error(exc: ValueError) -> int:
    sys.stderr.write(f"paircomp: error: {exc}\n")
    return 2


def _simulate_spec(args: argparse.Namespace) -> ExperimentSpec:
    flags = dict(vars(args), n_list=args.n_list if args.n is None else str(args.n))
    return _spec_from_values((k, flags[k]) for k in _CONFIG_KEYS if flags[k] is not None)


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        records = run_sweep(args.spec(args), workers=args.workers)
    except ValueError as exc:  # a bad spec: nothing ran, nothing is written
        return _error(exc)
    csv_text = records_to_csv(records, include_runtime=args.timings)
    try:
        _write_output(csv_text, args.out)
    except ValueError as exc:
        return _error(exc)
    sys.stderr.write(summarize(records))
    try:
        fits = fit_slope(records)
    except ValueError as exc:
        sys.stderr.write(f"slope: skipped ({exc})\n")
        fits = {}
    for key, fit in fits.items():
        name = "/".join(str(k) for k in key)
        if fit.status == "exact":
            sys.stderr.write(f"slope[{name}]: exact (zero mean error)\n")
        else:
            sys.stderr.write(
                f"slope[{name}]: {fit.slope:.4f} (intercept {fit.intercept:.4f}, "
                f"r2 {fit.r_squared:.4f}, {fit.n_points} sizes)\n"
            )
    return 1 if any(r.error for r in records) else 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed) if args.graph == "erdos_renyi" else None
    g = make_topology(args.graph, args.n, alpha=args.alpha, p=args.p, rng=rng)
    report = minimax_lower_bound(g)
    text = report_to_json(report) + "\n" if args.json else report_to_text(report)
    try:
        _write_output(text, args.out)
    except ValueError as exc:  # only the write: a bad graph still raises
        return _error(exc)
    return 0


def _cmd_slope(args: argparse.Namespace) -> int:
    try:
        records = records_from_csv(_read_input(args.input))
    except ValueError as exc:
        return _error(exc)
    try:
        fits = fit_slope(records)
    except ValueError as exc:
        sys.stderr.write(f"slope: {exc}\n")
        return 1
    for key, fit in fits.items():
        name = "/".join(str(k) for k in key)
        if fit.status == "exact":
            print(f"{name}: exact (zero mean error)")
        else:
            print(
                f"{name}: slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
                f"r2={fit.r_squared:.6g} sizes={fit.n_points}"
            )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="paircomp",
        description="Pairwise-comparison estimation experiments on fixed topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--out", help="CSV output path (default: stdout)")
    run_flags.add_argument("--workers", type=int, default=1)
    run_flags.add_argument("--timings", action="store_true", help="include runtime_ms in CSV")

    p_sim = sub.add_parser(
        "simulate", parents=[run_flags], help="run a sweep specified inline by flags"
    )
    _add_spec_flags(p_sim)
    p_sim.set_defaults(func=_cmd_sweep, spec=_simulate_spec)

    p_sweep = sub.add_parser(
        "sweep", parents=[run_flags], help="run a sweep from a key = value config file"
    )
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(func=_cmd_sweep, spec=lambda a: parse_config(_read_input(a.config)))

    p_diag = sub.add_parser("diagnose", help="worst-case diagnostics for a topology")
    p_diag.add_argument("--graph", required=True)
    p_diag.add_argument("--n", type=int, required=True)
    p_diag.add_argument("--alpha", type=float, default=None)
    p_diag.add_argument("--p", type=float, default=None)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--json", action="store_true")
    p_diag.add_argument("--out")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_slope = sub.add_parser("slope", help="fit log-log slopes from a results CSV")
    p_slope.add_argument("--input", required=True)
    p_slope.set_defaults(func=_cmd_slope)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
