"""Tests of the benchmark's own checks, reference comparison and tracing.

Each check is shown to accept a real CLI output and to reject a corrupted
row, witness or report.
"""

import copy
import json
from pathlib import Path

import pytest

import paircomp
from perfbench import run
from perfbench.checks import CheckError, check_diagnose, check_sweep, diagnose_graph
from perfbench.reference import REFERENCE_PATH, compare
from perfbench.tracer import LAYERS, Tracer, layer_metrics
from perfbench.workloads import WORKLOADS, Op, Outcome, pass_ops, run_op

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
ASP_OP = Op("sweep", "two_cliques", (16, 32), seed=5, lam=0.3)
BAP_OP = Op("sweep", "power_law", (16, 32), seed=5, model="sst", estimator="bap")
PATH_OP = Op("diagnose", "path", (9,), seed=0)


def _edit_csv(outcome: Outcome, column: str, edit) -> Outcome:
    lines = outcome.stdout.splitlines()
    header = lines[0].split(",")
    fields = lines[1].split(",")
    k = header.index(column)
    fields[k] = edit(fields[k])
    lines[1] = ",".join(fields)
    return Outcome("\n".join(lines) + "\n", outcome.returncode, outcome.error)


def _edit_report(outcome: Outcome, edit) -> Outcome:
    report = json.loads(outcome.stdout)
    edit(report)
    return Outcome(json.dumps(report), outcome.returncode, outcome.error)


def test_pass_inputs_depend_only_on_seed():
    for workload in WORKLOADS:
        assert pass_ops(workload, 3, 1) == pass_ops(workload, 3, 1)
        assert pass_ops(workload, 3, 1) != pass_ops(workload, 4, 1)
        assert pass_ops(workload, 3, 1) != pass_ops(workload, 3, 2)


def test_asp_closed_form_accepts_real_rows():
    checked = check_sweep(ASP_OP, run_op(ASP_OP))
    assert [r["n"] for r in checked.results] == [16, 32]
    assert checked.failures == []


@pytest.mark.parametrize(
    "column, edit",
    [
        ("frob_err", lambda v: repr(float(v) * (1 + 1e-6))),
        ("kt", lambda v: str(int(v) + 1)),
        ("lambda_hat", lambda v: repr(float(v) + 1e-6)),
        ("deg_functional", lambda v: repr(float(v) * 1.01)),
        ("n", lambda v: str(int(v) + 2)),
    ],
)
def test_asp_closed_form_rejects_corrupted_row(column, edit):
    bad = _edit_csv(run_op(ASP_OP), column, edit)
    with pytest.raises(CheckError):
        check_sweep(ASP_OP, bad)


def test_bap_rows_checked():
    good = run_op(BAP_OP)
    assert check_sweep(BAP_OP, good).failures == []
    for column, value in (("frob_err", "1.5"), ("kt", "3"), ("deg_functional", "0.5")):
        with pytest.raises(CheckError):
            check_sweep(BAP_OP, _edit_csv(good, column, lambda _: value))


def test_empty_metrics_row_is_counted_not_rejected():
    bad = _edit_csv(run_op(ASP_OP), "frob_err", lambda _: "")
    assert check_sweep(ASP_OP, bad).failures == ["empty_metrics"]


def test_witness_checks_accept_real_report():
    checked = check_diagnose(PATH_OP, run_op(PATH_OP))
    assert checked.results == [{"alpha": 5, "beta": 16}]  # path: {0,2,..,8}; {0..3} x {5..8}


def _add_neighbour_to_independent_set(r):
    r["independent_set"].append(r["independent_set"][0] + 1)
    r["alpha"] += 1


def _overlap_biclique(r):
    r["biclique"][1][0] = r["biclique"][0][0]


def _edge_across_biclique(r):
    # path edge (v, v + 1): put both ends on different sides
    v1, v2 = r["biclique"]
    v2[0] = v1[-1] + 1


@pytest.mark.parametrize(
    "edit",
    [
        _add_neighbour_to_independent_set,
        lambda r: r.__setitem__("alpha", r["alpha"] + 1),
        _overlap_biclique,
        _edge_across_biclique,
        lambda r: r.__setitem__("beta_complement", r["beta_complement"] + 1),
        lambda r: r.__setitem__("minimax_lb", r["minimax_lb"] * (1 + 1e-6)),
        lambda r: r.__setitem__("degree_functional", r["degree_functional"] + 1e-3),
        lambda r: r["independent_set"].append(99),
    ],
)
def test_witness_checks_reject_corrupted_report(edit):
    bad = _edit_report(run_op(PATH_OP), edit)
    with pytest.raises(CheckError):
        check_diagnose(PATH_OP, bad)


def test_isolated_vertex_failure_keeps_its_reason():
    seed = next(
        s for s in range(100)
        if diagnose_graph(Op("diagnose", "erdos_renyi", (10,), s, p=0.15)).degrees.min() == 0
    )
    op = Op("diagnose", "erdos_renyi", (10,), seed, p=0.15)
    checked = check_diagnose(op, run_op(op))
    assert checked.failures == [] and checked.known == ["isolated_vertex"]
    # the same error on a graph without an isolated vertex is a failure
    other = Op("diagnose", "path", (9,), 0)
    assert check_diagnose(other, Outcome("", None, ValueError("vertex 3 is isolated"))).failures == ["other"]


def test_reference_compare():
    expected = json.loads(REFERENCE_PATH.read_text())["workloads"]
    for workload, results in expected.items():
        compare(results, copy.deepcopy(results))
    sweep = expected["sst_bap_diagnose"]
    near = copy.deepcopy(sweep)
    near[0][0]["frob_err"] *= 1 + 1e-9  # within the projection tolerance
    compare(sweep, near)
    far = copy.deepcopy(sweep)
    far[0][0]["frob_err"] *= 1 + 1e-7  # a projection stopped at tolerance 1e-4
    with pytest.raises(CheckError):
        compare(sweep, far)
    kt = copy.deepcopy(expected["ns_asp"])
    kt[1][2]["kt"] += 1
    with pytest.raises(CheckError):
        compare(expected["ns_asp"], kt)
    diag = expected["sst_bap_diagnose"]
    ok = next(k for k, r in enumerate(diag) if "alpha" in r[0])
    alpha = copy.deepcopy(diag)
    alpha[ok][0]["alpha"] += 1
    with pytest.raises(CheckError):
        compare(diag, alpha)
    # a failure in the reference that succeeds now is a fixed defect
    fixed = copy.deepcopy(diag)
    failed = next(k for k, r in enumerate(diag) if "failed" in r[0])
    fixed[failed] = [{"alpha": 3, "beta": 4}]
    compare(diag, fixed)


def _holders(original) -> list[str]:
    import sys

    return sorted(
        f"{name}.{key}"
        for name, m in list(sys.modules.items())
        if name.split(".")[0] == "paircomp"
        for key, value in vars(m).items()
        if value is original
    )


def test_tracer_wraps_where_callers_look_up_and_restores():
    originals = {layer: getattr(__import__(mod, fromlist=[fn]), fn) for layer, (mod, fn) in LAYERS.items()}
    before = {layer: _holders(fn) for layer, fn in originals.items()}
    tracer = Tracer()
    with tracer:
        assert paircomp.harness.observe is not originals["observation.observe"]
        assert paircomp.estimators.project_biso is not originals["estimators.project_biso"]
        assert paircomp.cli.minimax_lower_bound is not originals["diagnostics.minimax_lower_bound"]
        assert all(_holders(fn) == [] for fn in originals.values())
    assert {layer: _holders(fn) for layer, fn in originals.items()} == before
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert {layer: _holders(fn) for layer, fn in originals.items()} == before


def test_traced_output_identical_and_spans_attributed():
    plain = run_op(BAP_OP)
    tracer = Tracer()
    with tracer:
        traced = run_op(BAP_OP)
    assert traced.stdout == plain.stdout
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "harness.run_trial", "estimators.project_biso", "observation.observe"} <= names
    trials = [span for span in tracer.spans if span.name == "harness.run_trial"]
    assert len({span.trial for span in trials}) == len(BAP_OP.n_values)
    for span in tracer.spans:
        assert -1e-12 <= span.self_s <= span.duration + 1e-12
        if span.name == "estimators.project_biso":
            assert span.parent.name == "estimators.bap_estimate"
            assert span.trial == span.parent.parent.trial
    metrics = layer_metrics(tracer.spans, passes=1)
    assert metrics["estimators.project_biso.iterations"][0] >= 2
    assert metrics["models.dense_bytes"][0] == 8 * (16**2 + 32**2)


def test_one_command_prints_every_declared_metric(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "sst_bap_diagnose", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] is True and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
