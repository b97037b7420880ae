"""Reference results at one committed seed, and the comparison against them.

Pass 0 of every workload at REFERENCE_SEED must reproduce reference.json:
kt, lambda_hat, alpha and beta exactly, frob_err to FROB_RTOL. The
tolerance allows for the projection's 1e-8 stopping rule, so a different
projection kernel or a matrix-free ASP path still passes while a wrong
answer does not. An operation that failed in the reference and succeeds
now is accepted (a fixed defect); the reverse is counted as a failure by
the run, not reported here.

Regenerate, only together with a declared output change, from the
repository root:

    PYTHONPATH=src python3 -m perfbench.reference
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .checks import CheckError, check_op
from .workloads import WORKLOADS, pass_ops, run_pass

REFERENCE_SEED = 20170720
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# frob_err of BAP rows moves by < 1e-10 relative between projection tolerances
# 1e-8 and 1e-13 on these inputs, and by 1e-7 when the tolerance is loosened
# to 1e-4; 1e-8 leaves room for another kernel that meets the tolerance
FROB_RTOL = 1e-8
_EXACT_KEYS = ("n", "kt", "lambda_hat", "alpha", "beta")


def _failed(result: dict) -> bool:
    return "failed" in result or result.get("frob_err", 0.0) is None


def compare(expected: list[list[dict]], got: list[list[dict]]) -> None:
    """Raise CheckError where ``got`` departs from the reference results."""
    if len(expected) != len(got):
        raise CheckError(f"{len(got)} operations, reference has {len(expected)}")
    for k, (exp_op, got_op) in enumerate(zip(expected, got)):
        if len(exp_op) != len(got_op):
            raise CheckError(f"op {k}: {len(got_op)} results, reference has {len(exp_op)}")
        for e, g in zip(exp_op, got_op):
            if _failed(e) or _failed(g):
                continue
            for key in _EXACT_KEYS:
                if key in e and e[key] != g.get(key):
                    raise CheckError(f"op {k}: {key} = {g.get(key)!r}, reference {e[key]!r}")
            if "frob_err" in e and not math.isclose(
                g["frob_err"], e["frob_err"], rel_tol=FROB_RTOL, abs_tol=1e-300
            ):
                raise CheckError(f"op {k}: frob_err = {g['frob_err']!r}, reference {e['frob_err']!r}")


def reference_results(workload: str) -> list[list[dict]]:
    """Run pass 0 at the reference seed; return the checked results per op."""
    ops = pass_ops(workload, REFERENCE_SEED, 0)
    _, outcomes = run_pass(ops)
    return [check_op(op, out).results for op, out in zip(ops, outcomes)]


def check_reference(workload: str) -> None:
    expected = json.loads(REFERENCE_PATH.read_text())["workloads"][workload]
    compare(expected, reference_results(workload))


if __name__ == "__main__":
    data = {"seed": REFERENCE_SEED, "workloads": {w: reference_results(w) for w in WORKLOADS}}
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")
