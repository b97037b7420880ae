import functools
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from paircomp import (
    CSV_HEADER,
    GRAPH_FAMILIES,
    ExperimentSpec,
    Graph,
    TrialRecord,
    asp_estimate,
    assign_random,
    bap_estimate,
    degree_functional,
    derive_seed,
    fit_slope,
    frobenius_error,
    identity_permutation,
    make_noisy_sorting,
    make_topology,
    mean_errors,
    observe,
    parse_config,
    project_biso,
    records_from_csv,
    records_to_csv,
    run_sweep,
    run_trial,
    sample_sst_bands,
    summarize,
)
from paircomp import estimators, harness
from paircomp.cli import main as cli_main


def small_spec(**overrides):
    base = dict(
        graph_family="two_cliques",
        n_values=(8, 16),
        model="ns",
        lambda_star=0.4,
        estimator="asp",
        trials=3,
        master_seed=99,
        mode="bernoulli",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(trials=0)
    with pytest.raises(ValueError):
        small_spec(n_values=(16, 8))
    with pytest.raises(ValueError):
        small_spec(model="btl")
    with pytest.raises(ValueError):
        small_spec(estimator="mle")
    with pytest.raises(ValueError):
        small_spec(lambda_star=0.7)
    with pytest.raises(ValueError):
        small_spec(graph_family="nosuch")


def test_spec_rejects_a_bad_later_size_before_any_trial():
    # make_topology's own message, from the spec: a sweep would run n = 256 first
    with pytest.raises(ValueError, match=r"^two_cliques requires an even n >= 4, got n=257$"):
        ExperimentSpec("two_cliques", (256, 257), trials=3)
    for kwargs, message in (
        (dict(graph_family="cycle", n_values=(2, 3)), "cycle requires n >= 3, got n=2"),
        (dict(graph_family="path", n_values=(1,)), "path requires n >= 2, got n=1"),
        (dict(graph_family="regular_bipartite", n_values=(8,)), "regular_bipartite requires alpha"),
        (dict(graph_family="erdos_renyi", n_values=(8,)), "erdos_renyi requires p in"),
        (dict(graph_family="erdos_renyi", n_values=(8,), edge_probability=1.5), "requires p in"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            small_spec(**kwargs)


def test_every_cell_runs_at_the_smallest_sizes():
    # each family's two smallest sizes, under every model, estimator and mode, at lambda 0 and 1/2
    sizes = dict.fromkeys(("two_cliques", "clique_plus_path", "regular_bipartite"), (4, 6))
    sizes["cycle"] = (3, 4)
    runs = itertools.product(("ns", "sst"), ("asp", "bap", "bap1"), ("bernoulli", "expectation"))
    cells = itertools.product(GRAPH_FAMILIES, list(runs), (0.0, 0.5))
    records = []
    for family, (model, estimator, mode), lam in cells:
        spec = ExperimentSpec(
            family, sizes.get(family, (2, 3)), model=model, lambda_star=lam,
            estimator=estimator, trials=3, master_seed=2, mode=mode,
            bipartite_alpha=0.5, edge_probability=0.5,
        )
        records += run_sweep(spec)
    assert len(records) == 1296
    for r in records:
        assert r.error is None, r
        assert math.isfinite(r.frob_err) and 0.0 <= r.frob_err <= 1.0, r


def test_derive_seed_is_deterministic_and_spread():
    seeds = {derive_seed(1, n, t) for n in range(50) for t in range(50)}
    assert len(seeds) == 2500
    assert derive_seed(1, 8, 3) == derive_seed(1, 8, 3)
    assert derive_seed(1, 8, 3) != derive_seed(2, 8, 3)


def test_run_trial_expectation_complete_is_exact():
    spec = small_spec(graph_family="complete", mode="expectation", n_values=(12,))
    rec = run_trial(spec, 0, harness.build_graph(spec, 12))
    assert rec.error is None
    assert rec.frob_err < 1e-12
    assert rec.kt_dist == 0
    assert rec.lambda_hat == pytest.approx(0.4, abs=1e-15)


def test_run_trial_lambda_zero_expectation():
    spec = small_spec(lambda_star=0.0, mode="expectation", n_values=(8,))
    rec = run_trial(spec, 0, harness.build_graph(spec, 8))
    assert rec.frob_err == 0.0
    assert rec.lambda_hat == 0.0


def test_run_trial_repeatable():
    spec = small_spec()
    g = harness.build_graph(spec, 16)
    a = run_trial(spec, 2, g)
    b = run_trial(spec, 2, g)
    # identical except wall-clock runtime
    assert (a.frob_err, a.kt_dist, a.lambda_hat, a.seed) == (
        b.frob_err,
        b.kt_dist,
        b.lambda_hat,
        b.seed,
    )
    assert a.degree_functional == degree_functional(make_topology("two_cliques", 16))


def test_run_trial_reads_its_size_from_the_graph():
    spec = small_spec(graph_family="cycle", n_values=(12,))
    g = make_topology("cycle", 8)
    rec = run_trial(spec, 0, g)
    assert rec.error is None
    assert (rec.n, rec.seed) == (g.n, derive_seed(spec.master_seed, g.n, 0))


def test_run_trial_records_failures():
    # p small enough that some vertex is isolated: estimator precondition fails
    spec = small_spec(graph_family="erdos_renyi", n_values=(16,), edge_probability=0.01)
    g = harness.build_graph(spec, 16)
    recs = [run_trial(spec, t, g) for t in range(5)]
    failed = [r for r in recs if r.error is not None]
    assert failed, "expected at least one failed trial at p=0.01"
    assert all(r.frob_err is None for r in failed)
    text = summarize(recs)
    assert "failed trials" in text


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_every_estimator_gives_an_isolated_item_the_same_reason(mode):
    # vertex 6 of this graph is isolated; each trial assigns some item to it
    base = small_spec(
        graph_family="erdos_renyi", n_values=(8,), master_seed=11, mode=mode, edge_probability=0.3
    ).__dict__
    g = harness.build_graph(ExperimentSpec(**base), 8)
    assert g.degrees.tolist().count(0) == 1
    errors = {}
    for est in ("asp", "bap", "bap1"):
        spec = ExperimentSpec(**{**base, "estimator": est})
        errors[est] = [run_trial(spec, t, g).error for t in range(4)]
    assert errors["asp"] == errors["bap"] == errors["bap1"]
    reason = re.compile(r"ValueError: item \d+ has no observed comparisons")
    assert all(reason.fullmatch(e) for e in errors["asp"])


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.5])
def test_ns_asp_closed_form_error_matches_dense(lam):
    # replay each trial's draws on the dense M* and score the dense M_hat
    for family in GRAPH_FAMILIES:
        spec = small_spec(
            graph_family=family,
            n_values=(8, 32, 256),
            lambda_star=lam,
            trials=2,
            bipartite_alpha=0.5,
            edge_probability=0.5,
        )
        for rec in run_sweep(spec):
            assert rec.error is None, rec.error
            g = harness.build_graph(spec, rec.n)
            m_star = make_noisy_sorting(identity_permutation(rec.n), lam)
            rng = np.random.default_rng(rec.seed)
            result = asp_estimate(observe(m_star, g, assign_random(g, rng), rng))
            assert (result.lam, int(result.ranks.size)) == (rec.lambda_hat, rec.n)
            dense = frobenius_error(make_noisy_sorting(result.ranks, result.lam), m_star)
            assert math.isclose(rec.frob_err, dense, rel_tol=1e-12), (family, rec.n)


@pytest.mark.parametrize("model, estimator", [("ns", "bap"), ("ns", "bap1"), ("sst", "asp")])
def test_dense_error_matches_redraws(model, estimator):
    # replay each trial's draws on the dense M* and score the estimate against it
    spec = small_spec(graph_family="power_law", model=model, estimator=estimator, trials=2)
    for rec in run_sweep(spec):
        assert rec.error is None, rec.error
        g = harness.build_graph(spec, rec.n)
        rng = np.random.default_rng(rec.seed)
        if model == "ns":
            m_star = make_noisy_sorting(identity_permutation(rec.n), spec.lambda_star)
        else:
            m_star = sample_sst_bands(rec.n, rng)
        s1 = observe(m_star, g, assign_random(g, rng), rng)
        if estimator == "asp":
            est = asp_estimate(s1)
            m_hat = make_noisy_sorting(est.ranks, est.lam)
        else:
            s2 = s1  # bap1 reuses the first sample
            if estimator == "bap":
                s2 = observe(m_star, g, assign_random(g, rng), rng)
            m_hat = bap_estimate(s1, s2)
        assert rec.frob_err == frobenius_error(m_hat, m_star), (rec.n, rec.trial_index)


def test_ns_asp_trial_allocates_no_dense_matrix():
    # a dense n x n float matrix at n = 8192 alone is 537 MB
    spec = small_spec(graph_family="cycle", n_values=(8192,), trials=1)
    g = harness.build_graph(spec, 8192)
    tracemalloc.start()
    try:
        rec = run_trial(spec, 0, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.error is None
    assert peak < 16 * 2**20


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_ns_asp_graph_and_trial_allocate_few_edge_sized_arrays(mode):
    # graph and trial in one traced region, in units of one int64 per edge:
    # the graph's intervals are O(n), so the peak is the sample plus ASP's work
    n = 2048
    spec = small_spec(graph_family="two_cliques", n_values=(n,), trials=1, mode=mode)
    tracemalloc.start()
    try:
        rec = run_trial(spec, 0, harness.build_graph(spec, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.error is None
    assert peak <= 3.2 * 8 * (n // 2) * (n // 2 - 1)  # two_cliques: m = 2 C(n/2, 2)


def test_run_trial_records_nonconverged_projection(monkeypatch):
    monkeypatch.setattr(estimators, "project_biso", functools.partial(project_biso, max_iter=1))
    spec = small_spec(graph_family="power_law", model="sst", estimator="bap", n_values=(64,))
    rec = run_trial(spec, 0, harness.build_graph(spec, 64))
    assert rec.frob_err is None
    assert rec.error == "RuntimeError: biso projection did not converge in 1 iterations (tol 1e-08)"


def test_run_sweep_shape_and_order():
    spec = small_spec()
    recs = run_sweep(spec)
    assert len(recs) == 6
    assert [(r.n, r.trial_index) for r in recs] == [
        (8, 0),
        (8, 1),
        (8, 2),
        (16, 0),
        (16, 1),
        (16, 2),
    ]


def test_sweep_builds_each_graph_once_per_sweep(monkeypatch):
    calls = []

    def counting_build_graph(spec, n):
        calls.append(n)
        return make_topology(spec.graph_family, n)

    monkeypatch.setattr(harness, "build_graph", counting_build_graph)
    spec = small_spec()
    for _ in range(2):
        calls.clear()
        run_sweep(spec)
        assert calls == list(spec.n_values)


def test_sweep_rerun_and_parallel_byte_identical():
    # 5 trials cut unevenly into runs of 3 + 2 (2 workers) and 2 + 2 + 1 (3 workers)
    cells = [("ns", "asp"), ("sst", "bap"), ("ns", "bap1")]
    for family, (model, estimator) in zip(GRAPH_FAMILIES, cells * 3):
        spec = small_spec(
            graph_family=family,
            model=model,
            estimator=estimator,
            trials=5,
            bipartite_alpha=0.5,
            edge_probability=0.5,
        )
        serial = records_to_csv(run_sweep(spec, workers=1))
        assert records_to_csv(run_sweep(spec, workers=1)) == serial, family
        for workers in (2, 3):
            assert records_to_csv(run_sweep(spec, workers=workers)) == serial, (family, workers)


def test_parallel_sweep_pickles_no_graph(monkeypatch):
    def refuse(self, protocol):
        raise AssertionError("a Graph was pickled")

    monkeypatch.setattr(Graph, "__reduce_ex__", refuse)
    spec = small_spec(trials=3)
    parallel = records_to_csv(run_sweep(spec, workers=2))
    assert parallel == records_to_csv(run_sweep(spec, workers=1))


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    started = []

    class InlineExecutor:  # records max_workers and runs map in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
    cases = [((8,), 1, 5000, 1), ((8, 16), 3, 2, 2), ((8, 16), 3, 5, 5), ((8, 16), 3, 10, 6)]
    for n_values, trials, workers, expected in cases:
        spec = small_spec(n_values=n_values, trials=trials)
        inline = records_to_csv(run_sweep(spec, workers=workers))
        assert inline == records_to_csv(run_sweep(spec)), (n_values, trials, workers)
        assert started.pop() == expected, (n_values, trials, workers)


def test_bap_trial_smoke():
    spec = small_spec(model="sst", estimator="bap", n_values=(8,), trials=2)
    recs = run_sweep(spec)
    assert all(r.error is None for r in recs)
    assert all(r.kt_dist is None and r.lambda_hat is None for r in recs)
    assert all(0 <= r.frob_err <= 1 for r in recs)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def synthetic_records(err_of_n, ns=(64, 128, 256, 512)):
    return [
        TrialRecord(
            graph_family="two_cliques",
            n=n,
            trial_index=t,
            seed=0,
            estimator="asp",
            model="ns",
            frob_err=err_of_n(n),
            kt_dist=None,
            lambda_hat=None,
            degree_functional=None,
            runtime_ms=None,
        )
        for n in ns
        for t in range(3)
    ]


def test_fit_slope_recovers_power_law():
    fit = next(iter(fit_slope(synthetic_records(lambda n: 0.9 * n**-0.5)).values()))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_slope_constant_error():
    fit = next(iter(fit_slope(synthetic_records(lambda n: 0.25)).values()))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_two_points():
    recs = synthetic_records(lambda n: {64: 0.04, 256: 0.02}[n], ns=(64, 256))
    fit = next(iter(fit_slope(recs).values()))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_slope_exact_group_excluded():
    fit = next(iter(fit_slope(synthetic_records(lambda n: 0.0)).values()))
    assert fit.slope is None


def test_fit_slope_needs_two_sizes():
    with pytest.raises(ValueError):
        fit_slope(synthetic_records(lambda n: 0.1, ns=(64,)))


# ---------------------------------------------------------------------------
# CSV and config
# ---------------------------------------------------------------------------


def test_csv_round_trip():
    recs = run_sweep(small_spec())
    text = records_to_csv(recs)
    assert text.splitlines()[0] == CSV_HEADER
    parsed = records_from_csv(text)
    assert len(parsed) == len(recs)
    for a, b in zip(parsed, recs):
        assert (a.graph_family, a.n, a.trial_index, a.seed) == (
            b.graph_family,
            b.n,
            b.trial_index,
            b.seed,
        )
        assert a.frob_err == b.frob_err
        assert a.kt_dist == b.kt_dist
    assert mean_errors(parsed) == mean_errors(recs)

    failing = run_sweep(small_spec(graph_family="erdos_renyi", edge_probability=0.01))
    assert all(r.error is not None for r in failing)
    for r in records_from_csv(records_to_csv(failing)):
        assert (r.frob_err, r.kt_dist, r.lambda_hat, r.degree_functional) == (None,) * 4
        assert r.error == "failed (metrics absent in CSV)"

    timed = records_from_csv(records_to_csv(recs, include_runtime=True))
    assert [r.runtime_ms for r in timed] == [r.runtime_ms for r in recs]
    assert all(isinstance(r.runtime_ms, float) for r in timed)


@pytest.mark.parametrize(
    "row, reason",
    [
        ("path,8,0,1,asp,ns,nan,,,,", "line 2: frob_err must be finite and >= 0, got nan"),
        ("path,8,0,1,asp,ns,inf,,,,", "line 2: frob_err must be finite and >= 0, got inf"),
        ("path,8,0,1,asp,ns,-0.5,,,,", "line 2: frob_err must be finite and >= 0, got -0.5"),
        ("path,0,0,1,asp,ns,0.5,,,,", "line 2: n must be >= 1, got 0"),
        ("\npath,0,0,1,asp,ns,,,,,", "line 3: n must be >= 1, got 0"),
        ("path,16.5,0,1,asp,ns,0.05,,,,", "line 2: n: invalid literal for int() with base 10: '16.5'"),
        ("path,8,0,1,asp,ns,abc,,,,", "line 2: frob_err: could not convert string to float: 'abc'"),
        ("\npath,8,0,1,asp,ns,0.5,x,,,", "line 3: kt: invalid literal for int() with base 10: 'x'"),
        ("path,8,0,1,asp,ns,0.5", "line 2: expected 11 fields, got 7: 'path,8,0,1,asp,ns,0.5'"),
    ],
    ids=[
        "frob-nan",
        "frob-inf",
        "frob-negative",
        "n-zero",
        "n-zero-failed-after-blank",
        "n-not-int",
        "frob-not-float",
        "kt-not-int-after-blank",
        "too-few-fields",
    ],
)
def test_csv_rejects_rows_the_fit_cannot_use(tmp_path, capsys, row, reason):
    # each row follows one good row, so the fit would otherwise see two sizes
    text = f"{CSV_HEADER}\n{row}\npath,16,0,1,asp,ns,0.25,,,,\n"
    with pytest.raises(ValueError) as exc:
        records_from_csv(text)
    assert str(exc.value) == reason
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert cli_main(["slope", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"paircomp: error: {reason}\n")


def test_csv_runtime_opt_in():
    recs = run_sweep(small_spec(n_values=(8,), trials=1))
    without = records_to_csv(recs).splitlines()[1]
    with_rt = records_to_csv(recs, include_runtime=True).splitlines()[1]
    assert without.endswith(",")
    assert not with_rt.endswith(",")


def test_parse_config():
    spec = parse_config(
        """
        # scaling run
        graph = regular_bipartite
        n_list = 64,128,256
        model = sst
        lambda = 0.25
        estimator = bap1
        trials = 10
        seed = 7   # master seed
        mode = expectation
        alpha = 0.5
        p = 0.3
        """
    )
    assert spec == ExperimentSpec(
        graph_family="regular_bipartite",
        n_values=(64, 128, 256),
        model="sst",
        lambda_star=0.25,
        estimator="bap1",
        trials=10,
        master_seed=7,
        mode="expectation",
        bipartite_alpha=0.5,
        edge_probability=0.3,
    )
    with pytest.raises(ValueError):
        parse_config("nonsense = 1")
    with pytest.raises(ValueError):
        parse_config("graph = path")  # n_list missing


def test_negative_seed_is_a_spec_error(capsys):
    reason = "master_seed must be >= 0"
    with pytest.raises(ValueError, match=reason):
        parse_config("graph = path\nn_list = 8\nseed = -1\n")
    for argv in (
        ["simulate", "--graph", "path", "--n-list", "8,16", "--seed", "-1"],
        ["diagnose", "--graph", "star", "--n", "8", "--seed", "-1"],
    ):
        assert cli_main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"paircomp: error: {reason}\n"), argv


def test_simulate_flags_give_the_config_spec():
    from paircomp import cli

    argv = ["simulate", "--graph", "regular_bipartite", "--n-list", "64,128,256"]
    argv += ["--model", "sst", "--lambda", "0.25", "--estimator", "bap1", "--trials", "10"]
    argv += ["--seed", "7", "--mode", "expectation", "--alpha", "0.5", "--p", "0.3"]
    args = cli._parser().parse_args(argv)
    assert args.spec(args) == ExperimentSpec(
        graph_family="regular_bipartite",
        n_values=(64, 128, 256),
        model="sst",
        lambda_star=0.25,
        estimator="bap1",
        trials=10,
        master_seed=7,
        mode="expectation",
        bipartite_alpha=0.5,
        edge_probability=0.3,
    )
    args = cli._parser().parse_args(["simulate", "--graph", "path", "--n", "8"])
    assert args.spec(args) == ExperimentSpec(graph_family="path", n_values=(8,))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_simulate_and_slope(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli_main(
        [
            "simulate",
            "--graph",
            "two_cliques",
            "--n-list",
            "8,16",
            "--model",
            "ns",
            "--lambda",
            "0.4",
            "--estimator",
            "asp",
            "--trials",
            "2",
            "--seed",
            "5",
            "--mode",
            "bernoulli",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    captured = capsys.readouterr()
    assert "mean frob_err" in captured.err

    code = cli_main(["slope", "--input", str(out)])
    assert code == 0
    number = r"-?\d+\.\d{4}"
    line = rf"slope\[two_cliques/asp/ns\]: {number} \(intercept {number}, r2 {number}, 2 sizes\)\n"
    assert re.fullmatch(line, capsys.readouterr().out)


def test_cli_exact_slope_lines(tmp_path, capsys):
    # lambda = 0 in expectation: every estimate is exact, so no slope is fitted
    out = tmp_path / "r.csv"
    args = ["simulate", "--graph", "path", "--n-list", "8,16", "--lambda", "0"]
    assert cli_main(args + ["--mode", "expectation", "--trials", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == "slope[path/asp/ns]: exact (zero mean error)"
    assert cli_main(["slope", "--input", str(out)]) == 0
    assert capsys.readouterr().out == "slope[path/asp/ns]: exact (zero mean error)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--graph", "two_cliques", "--n-list", "8,16,32", "--trials", "3", "--seed", "1"],
        ["--graph", "path", "--n-list", "8,16", "--lambda", "0", "--mode", "expectation"],
    ],
    ids=["ns-asp-3-sizes", "exact"],
)
def test_slope_prints_the_sweeps_slope_lines(tmp_path, capsys, argv):
    out = tmp_path / "r.csv"
    assert cli_main(["simulate", *argv, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert cli_main(["slope", "--input", str(out)]) == 0
    slope_lines = [ln + "\n" for ln in err.splitlines() if ln.startswith("slope[")]
    assert slope_lines
    assert capsys.readouterr() == ("".join(slope_lines), "")


def test_summarize_ends_with_the_slope_lines():
    recs = synthetic_records(lambda n: 0.9 * n**-0.5)
    [(key, fit)] = fit_slope(recs).items()
    assert summarize(recs).splitlines()[-2:] == ["failed trials: 0", harness._slope_line(key, fit)]
    single = summarize(synthetic_records(lambda n: 0.1, ns=(64,)))
    assert single.splitlines()[-1] == (
        "slope: skipped (group ('two_cliques', 'asp', 'ns') has fewer than 2 distinct n values)"
    )


def test_cli_slope_single_n_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "r.csv"
    args = ["simulate", "--graph", "path", "--n", "8", "--trials", "2", "--out", str(out)]
    assert cli_main(args) == 0
    capsys.readouterr()
    assert cli_main(["slope", "--input", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "slope: group ('path', 'asp', 'ns') has fewer than 2 distinct n values\n"


def test_cli_single_n_reports_skipped_slope(capsys):
    args = ["simulate", "--graph", "path", "--n", "8", "--trials", "1", "--seed", "1"]
    assert cli_main(args) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == CSV_HEADER
    assert captured.err.splitlines()[-1] == (
        "slope: skipped (group ('path', 'asp', 'ns') has fewer than 2 distinct n values)"
    )


ALL_FAILED = "simulate --graph erdos_renyi --p 0.01 --n-list 8,16 --trials 2 --seed 1".split()


def test_cli_all_failed_sweep_reports_skipped_slope(capsys):
    # at p = 0.01 item 0 has no comparisons in any trial: all fail, no slope is fitted
    assert cli_main(ALL_FAILED) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "failed trials: 4"
    assert err[-1] == "slope: skipped (no successful trials to fit)"


def test_cli_slope_all_failed_csv_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli_main([*ALL_FAILED, "--out", str(out)]) == 1
    capsys.readouterr()
    assert cli_main(["slope", "--input", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "slope: no successful trials to fit\n"


def test_cli_sweep_from_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("graph = path\nn_list = 8,12\ntrials = 2\nseed = 3\n")
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_cli_diagnose(tmp_path, capsys):
    assert cli_main(["diagnose", "--graph", "star", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 4" in out
    assert cli_main(["diagnose", "--graph", "star", "--n", "5", "--json"]) == 0
    assert '"minimax_lb"' in capsys.readouterr().out
    path = tmp_path / "d.txt"
    assert cli_main(["diagnose", "--graph", "star", "--n", "5", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == out


@pytest.mark.parametrize("n", [8, 12, 16])
def test_diagnose_and_simulate_build_one_erdos_renyi_graph(n, capsys):
    # build_graph draws G(n, p) from default_rng(seed), as diagnose always did;
    # none of these 30 graphs has an isolated vertex, so D(G) is defined
    for seed in range(10):
        spec = ExperimentSpec("erdos_renyi", (n,), trials=1, master_seed=seed, edge_probability=0.5)
        g = harness.build_graph(spec, n)
        ref = make_topology("erdos_renyi", n, p=0.5, rng=np.random.default_rng(seed))
        assert np.array_equal(g.edges, ref.edges), seed
        flags = ["--graph", "erdos_renyi", "--p", "0.5", "--n", str(n), "--seed", str(seed)]
        assert cli_main(["diagnose", *flags, "--json"]) == 0
        reported = json.loads(capsys.readouterr().out)["degree_functional"]
        assert cli_main(["simulate", *flags, "--trials", "1"]) == 0
        (rec,) = records_from_csv(capsys.readouterr().out)
        assert rec.degree_functional == reported == degree_functional(g), seed


def test_cli_stdout_csv(capsys):
    code = cli_main(
        ["simulate", "--graph", "path", "--n", "8", "--trials", "1", "--seed", "1"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == CSV_HEADER

    assert cli_main(["simulate", "--graph", "path", "--n-list", "8,16"]) == 0
    expected = records_to_csv(run_sweep(ExperimentSpec("path", (8, 16))))
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sweep", "--config", "CFG"], "trials: invalid literal for int() with base 10: 'abc'"),
        (["simulate", "--graph", "path", "--n", "8", "--trials", "0"], "trials must be >= 1"),
        (
            ["simulate", "--graph", "path", "--n-list", "8,8"],
            "n_values must be nonempty and strictly increasing",
        ),
        (["simulate", "--graph", "nosuch", "--n", "8"], "graph_family must be one of"),
        (["sweep", "--config", "MISSING"], "cannot read MISSING: No such file or directory"),
        (["slope", "--input", "MISSING"], "cannot read MISSING: No such file or directory"),
        (["slope", "--input", "CSV"], "missing or unexpected CSV header"),
        (["sweep", "--config", "DUP"], "line 4: duplicate key 'trials'"),
        (
            ["simulate", "--graph", "path", "--n-list", "8,16", "--trials", "1", "--out", "NODIR"],
            "cannot write NODIR: No such file or directory",
        ),
        (
            ["diagnose", "--graph", "star", "--n", "5", "--out", "NODIR"],
            "cannot write NODIR: No such file or directory",
        ),
        (["simulate", "--graph", "path", "--n", "8", "--workers", "0"], "workers must be >= 1"),
        (
            ["simulate", "--graph", "regular_bipartite", "--n", "8", "--workers", "2"],
            "regular_bipartite requires alpha in (0, 1]",
        ),
        (
            ["simulate", "--graph", "two_cliques", "--n-list", "7", "--workers", "2"],
            "two_cliques requires an even n >= 4, got n=7",
        ),
        (["simulate", "--graph", "path", "--n", "8", "--model", "bad"], "model must be one of"),
        (
            ["simulate", "--graph", "path", "--n", "abc"],
            "n_list: invalid literal for int() with base 10: 'abc'",
        ),
        (["simulate", "--graph", "path", "--n", "8,16"], "n must be one size, got '8,16'"),
        (["diagnose", "--graph", "nosuch", "--n", "8"], "graph_family must be one of"),
        (
            ["diagnose", "--graph", "regular_bipartite", "--n", "8"],
            "regular_bipartite requires alpha in (0, 1]",
        ),
        (
            ["diagnose", "--graph", "star", "--n", "8", "--alpha", "x"],
            "alpha: could not convert string to float: 'x'",
        ),
        (["diagnose", "--graph", "path", "--n", "8,16"], "n must be one size, got '8,16'"),
    ],
    ids=[
        "config-trials-abc",
        "trials-0",
        "repeated-n",
        "unknown-graph",
        "missing-config",
        "missing-csv",
        "csv-bad-header",
        "config-duplicate-key",
        "simulate-out-unwritable",
        "diagnose-out-unwritable",
        "workers-0",
        "regular-bipartite-no-alpha-workers-2",
        "two-cliques-odd-n-workers-2",
        "simulate-model-bad",
        "simulate-n-abc",
        "simulate-n-two-sizes",
        "diagnose-unknown-graph",
        "diagnose-regular-bipartite-no-alpha",
        "diagnose-alpha-x",
        "diagnose-n-two-sizes",
    ],
)
def test_cli_bad_spec_exits_2(tmp_path, capsys, argv, reason):
    files = {"CFG": tmp_path / "bad.cfg", "CSV": tmp_path / "bad.csv", "MISSING": tmp_path / "nope"}
    files.update(DUP=tmp_path / "dup.cfg", NODIR=tmp_path / "nodir" / "x.out")
    files["CFG"].write_text("graph = path\nn_list = 8,16\ntrials = abc\n")
    files["CSV"].write_text("graph,n\npath,8\n")
    files["DUP"].write_text("graph = path\nn_list = 8,16\ntrials = 3\ntrials = 5\n")
    argv = [str(files[a]) if a in files else a for a in argv]
    reason = reason.replace("MISSING", str(files["MISSING"])).replace("NODIR", str(files["NODIR"]))
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"paircomp: error: {reason}")
    assert captured.err.count("\n") == 1


def test_simulate_help_lists_allowed_values(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for value in ("ns", "sst", "bap1", "expectation"):
        assert re.search(rf"\b{value}\b", out), value


def test_cli_parser_reused_across_calls(capsys):
    from paircomp import cli

    cli._parser.cache_clear()  # the first call below builds the tree
    sim = ["simulate", "--graph", "power_law", "--n-list", "8,16", "--model", "sst"]
    sim += ["--estimator", "bap", "--trials", "2", "--seed", "3"]
    assert cli_main(sim) == 0
    first = capsys.readouterr()
    assert first.out.startswith(CSV_HEADER)
    assert cli_main(["diagnose", "--graph", "star", "--n", "5"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate", "--n", "8"])  # --graph is required
    assert exc.value.code == 2
    assert cli_main(["simulate", "--graph", "path", "--n", "8", "--trials", "0"]) == 2
    capsys.readouterr()
    assert cli_main(sim) == 0
    assert capsys.readouterr() == first
    assert cli._parser.cache_info().misses == 1


def test_cli_timings_flag(capsys):
    args = ["simulate", "--graph", "path", "--n", "8", "--trials", "1", "--seed", "1"]
    assert cli_main(args) == 0
    without = capsys.readouterr().out.splitlines()[1]
    assert cli_main(args + ["--timings"]) == 0
    with_rt = capsys.readouterr().out.splitlines()[1]
    assert without.endswith(",")
    assert not with_rt.endswith(",")
    assert float(with_rt.rsplit(",", 1)[1]) > 0
