"""Command-line harness: simulate, sweep, diagnose, slope."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .diagnostics import minimax_lower_bound, report_to_json, report_to_text
from .harness import (
    _CONFIG_KEYS,
    ExperimentSpec,
    _slope_line,
    _spec_from_values,
    build_graph,
    fit_slope,
    parse_config,
    records_from_csv,
    records_to_csv,
    run_sweep,
    summarize,
)

__all__ = ["main"]


def _add_spec_flags(p: argparse.ArgumentParser, keys) -> None:
    """One text flag per config key (--n-list pairs with --n, its one-size
    spelling): _spec_from_args converts and ExperimentSpec checks them, as
    for a config file."""
    for key in keys:
        target = p
        if key == "n_list":
            target = p.add_mutually_exclusive_group(required=True)
            target.add_argument("--n", help="single problem size")
        flag = "--" + key.replace("_", "-")
        target.add_argument(flag, dest=key, required=key == "graph", help=_CONFIG_KEYS[key][2])


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


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The spec the flags name; --n is the one-size spelling of --n-list."""
    values = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    if args.n is not None:
        values["n_list"] = args.n
    spec = _spec_from_values((k, v) for k, v in values.items() if v is not None)
    if args.n is not None and len(spec.n_values) > 1:
        raise ValueError(f"n must be one size, got {args.n!r}")
    return spec


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:  # a bad spec runs nothing and writes nothing
        records = run_sweep(args.spec(args), workers=args.workers)
        _write_output(records_to_csv(records, include_runtime=args.timings), args.out)
    except ValueError as exc:
        return _error(exc)
    sys.stderr.write(summarize(records))
    return 1 if any(r.error for r in records) else 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    try:  # bad flags or topology; a graph the report cannot take still raises
        s = _spec_from_args(args)
        g = build_graph(s, s.n_values[0])
    except ValueError as exc:
        return _error(exc)
    report = minimax_lower_bound(g)
    text = report_to_json(report) + "\n" if args.json else report_to_text(report)
    try:
        _write_output(text, args.out)
    except ValueError as exc:
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
        print(_slope_line(key, fit))
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
    _add_spec_flags(p_sim, _CONFIG_KEYS)
    p_sim.set_defaults(func=_cmd_sweep, spec=_spec_from_args)

    p_sweep = sub.add_parser(
        "sweep", parents=[run_flags], help="run a sweep from a key = value config file"
    )
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(func=_cmd_sweep, spec=lambda a: parse_config(_read_input(a.config)))

    p_diag = sub.add_parser("diagnose", help="worst-case diagnostics for a topology")
    _add_spec_flags(p_diag, ("graph",))
    p_diag.add_argument("--n", required=True, help="single problem size")
    _add_spec_flags(p_diag, ("alpha", "p", "seed"))
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
