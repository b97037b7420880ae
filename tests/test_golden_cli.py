"""Golden outputs of the command line: `simulate` and `diagnose`, in process.

`golden_cli.json` holds, for every call below, its stdout, stderr and exit
code, or the type and message of the exception it raised.  Text compares
exactly except for float tokens, which compare to 1e-12 relative, so that
last-digit rounding in another numpy release does not count as a change.

Rewrite the file only with a change that declares new output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from paircomp import GRAPH_FAMILIES
from paircomp.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FLOAT_REL_TOL = 1e-12

# numbers with a fraction or an exponent; integers compare as text
_FLOAT = re.compile(r"(-?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+)")


def _family_flags(family: str) -> list[str]:
    return {"regular_bipartite": ["--alpha", "0.5"], "erdos_renyi": ["--p", "0.3"]}.get(
        family, []
    )


def _calls() -> list[list[str]]:
    calls = []
    for family in GRAPH_FAMILIES:
        for model in ("ns", "sst"):
            for estimator in ("asp", "bap", "bap1"):
                for mode in ("bernoulli", "expectation"):
                    calls.append(
                        ["simulate", "--graph", family, *_family_flags(family),
                         "--model", model, "--estimator", estimator, "--mode", mode,
                         "--n-list", "8,16", "--trials", "2", "--seed", "11"]
                    )
    for family in GRAPH_FAMILIES:
        for seed in range(3) if family == "erdos_renyi" else (None,):
            for n in (8, 12, 16):
                argv = ["diagnose", "--graph", family, "--n", str(n), *_family_flags(family)]
                argv += [] if seed is None else ["--seed", str(seed)]
                calls += [argv, argv + ["--json"]]
    return calls


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result = {"argv": argv}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result["exit"] = main(argv)
        except Exception as exc:  # noqa: BLE001 - a raise is part of the output
            result["raised"] = [type(exc).__name__, str(exc)]
    result["stdout"], result["stderr"] = out.getvalue(), err.getvalue()
    return result


def _same_text(got: str, want: str) -> bool:
    got_parts, want_parts = _FLOAT.split(got), _FLOAT.split(want)
    if len(got_parts) != len(want_parts):
        return False
    # split with one capture group: odd positions hold the float tokens
    return all(
        math.isclose(float(a), float(b), rel_tol=FLOAT_REL_TOL) if i % 2 else a == b
        for i, (a, b) in enumerate(zip(got_parts, want_parts))
    )


GOLDEN_CALLS = json.loads(GOLDEN.read_text()) if __name__ != "__main__" else []


def test_golden_covers_every_call():
    assert [c["argv"] for c in GOLDEN_CALLS] == _calls()
    assert len(GOLDEN_CALLS) == 174


@pytest.mark.parametrize(
    "want", GOLDEN_CALLS, ids=[f"{i}-{' '.join(c['argv'][:3])}" for i, c in enumerate(GOLDEN_CALLS)]
)
def test_cli_output_matches_golden(want):
    got = _run(want["argv"])
    assert got.keys() == want.keys()
    assert got.get("exit") == want.get("exit")
    assert got.get("raised", [None])[0] == want.get("raised", [None])[0]
    for key in ("stdout", "stderr"):
        assert _same_text(got[key], want[key]), (key, got[key], want[key])
    if "raised" in want:
        assert _same_text(got["raised"][1], want["raised"][1])


def test_float_tokens_compare_relative():
    assert _same_text("a,0.30000000000000004,7\n", "a,0.3,7\n")
    assert not _same_text("a,0.3001,7\n", "a,0.3,7\n")
    assert not _same_text("a,0.3,8\n", "a,0.3,7\n")
    assert not _same_text("a,1e-5\n", "a,1e-5,\n")


def _regenerate(old: list[dict]) -> list[dict]:
    """Run every call; a field whose output still matches keeps its old text,
    so last-bit float differences between hosts rewrite nothing."""
    kept = {json.dumps(c["argv"]): c for c in old}
    out = []
    for argv in _calls():
        want = kept.get(json.dumps(argv), {})
        out.append(
            {k: want[k] if k in want and _same_text(str(v), str(want[k])) else v
             for k, v in _run(argv).items()}
        )
    return out


if __name__ == "__main__":
    # one call per line, so a declared output change diffs line by line
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in _regenerate(old)) + "\n]\n")
