"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see both the per-test
verdicts and the explicit ACCEPTANCE lines.
"""

import itertools
import time

import numpy as np
import pytest

from paircomp import (
    ExperimentSpec,
    adjacency_matrix,
    adversarial_pair,
    asp_estimate,
    frobenius_error,
    identity_permutation,
    inversion_table,
    is_biso,
    kt_distance,
    make_noisy_sorting,
    make_topology,
    max_biclique_complement,
    max_independent_set,
    mean_errors,
    minimax_lower_bound,
    observe,
    project_biso,
    records_to_csv,
    run_sweep,
    table_to_permutation,
    fit_slope,
)
from oracles import biso_projection_by_nnls

MASTER_SEED = 20250810


def _report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def random_perm(rng, n):
    ranks = np.empty(n, dtype=np.int64)
    ranks[rng.permutation(n)] = np.arange(n)
    return ranks


def kt_bruteforce(p, q):
    disc = (p[:, None] - p[None, :]) * (q[:, None] - q[None, :]) < 0
    return int(disc.sum() // 2)


def _sweep(family, estimator, model, n_values, alpha=None, trials=10):
    spec = ExperimentSpec(
        graph_family=family,
        n_values=n_values,
        model=model,
        lambda_star=0.4,
        estimator=estimator,
        trials=trials,
        master_seed=MASTER_SEED,
        mode="bernoulli",
        bipartite_alpha=alpha,
    )
    records = run_sweep(spec)
    assert all(r.error is None for r in records)
    return records


def _slope(records):
    fit = next(iter(fit_slope(records).values()))
    assert fit.slope is not None
    return fit.slope


# ---------------------------------------------------------------------------


def test_criterion_01_frobenius_kt_oracle_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        lam = float(rng.uniform(0.0, 0.5))
        p, q = random_perm(rng, n), random_perm(rng, n)
        d = make_noisy_sorting(p, lam) - make_noisy_sorting(q, lam)
        lhs = float((d * d).sum())
        rhs = 8.0 * lam * lam * kt_distance(p, q)
        assert abs(lhs - rhs) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"1000 random pairs satisfy ||M-M'||_F^2 = 8 lam^2 KT ({elapsed:.2f}s)")


def test_criterion_02_kt_and_inversion_tables():
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(200):
        n = int(rng.integers(1, 201))
        p, q = random_perm(rng, n), random_perm(rng, n)
        assert kt_distance(p, q) == kt_bruteforce(p, q)
    for n in range(1, 8):
        for perm in itertools.permutations(range(n)):
            ranks = np.array(perm, dtype=np.int64)
            table = inversion_table(ranks)
            assert np.array_equal(table_to_permutation(table), ranks)
            assert table.sum() == kt_distance(ranks, identity_permutation(n))
    _report(2, "merge-count KT == brute force; inversion tables biject for n <= 7")


def test_criterion_03_noiseless_exactness():
    for n in (3, 10, 50):
        g = make_topology("complete", n)
        m = make_noisy_sorting(identity_permutation(n), 0.4)
        s = observe(m, g, identity_permutation(n), "expectation")
        res = asp_estimate(s)
        assert frobenius_error(make_noisy_sorting(res.ranks, res.lam), m) < 1e-12
    _report(3, "expectation-mode ASP reproduces M_NS(id, 0.4) exactly for n in {3,10,50}")


@pytest.fixture(scope="module")
def two_cliques_asp_records():
    start = time.perf_counter()
    records = _sweep("two_cliques", "asp", "ns", (64, 128, 256, 512, 1024))
    return records, time.perf_counter() - start


def test_criterion_04_two_cliques_scaling(two_cliques_asp_records):
    records, elapsed = two_cliques_asp_records
    assert elapsed < 180.0
    slope = _slope(records)
    assert -0.75 <= slope <= -0.30
    means = mean_errors(records)
    assert means[64] / means[1024] >= 2.0  # predicted factor 4 from D(G) ~ n^-1/2
    kt_512 = np.mean([r.kt_dist for r in records if r.n == 512])
    assert kt_512 < 512**2 / 8  # far below the random baseline n(n-1)/4
    _report(4, f"two-cliques ASP slope {slope:.3f} in [-0.75, -0.30] ({elapsed:.0f}s)")


def test_criterion_05_bipartite_exponent_sweep():
    start = time.perf_counter()
    ns = (64, 128, 256, 512, 1024)
    slope_full = _slope(_sweep("regular_bipartite", "asp", "ns", ns, alpha=1.0))
    slope_half = _slope(_sweep("regular_bipartite", "asp", "ns", ns, alpha=0.5))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert -0.75 <= slope_full <= -0.30
    assert -0.45 <= slope_half <= -0.10
    _report(
        5,
        f"bipartite slopes: alpha=1 -> {slope_full:.3f}, alpha=0.5 -> {slope_half:.3f} "
        f"({elapsed:.0f}s)",
    )


def test_criterion_06_clique_plus_path_inconsistency():
    slope = _slope(_sweep("clique_plus_path", "asp", "ns", (64, 128, 256, 512, 1024)))
    assert -0.15 <= slope <= 0.05
    _report(6, f"clique-plus-path ASP slope {slope:.3f} in [-0.15, 0.05]")


def test_criterion_07_bap_scaling_and_single_sample():
    ns = (64, 128, 256, 512)
    two = _sweep("two_cliques", "bap", "sst", ns)
    one = _sweep("two_cliques", "bap1", "sst", ns)
    slope = _slope(two)
    assert -0.80 <= slope <= -0.20
    means_two = mean_errors(two)
    means_one = mean_errors(one)
    for n in ns:
        ratio = means_one[n] / means_two[n]
        assert 0.5 <= ratio <= 2.0
    _report(
        7,
        f"BAP slope {slope:.3f} in [-0.80, -0.20]; one-sample within 2x "
        f"(max ratio {max(means_one[n] / means_two[n] for n in ns):.2f})",
    )


def test_criterion_08_projection_correctness():
    rng = np.random.default_rng(MASTER_SEED + 2)
    tol = 1e-8
    mats = [rng.random((20, 20)) for _ in range(100)]
    projections = []
    for x in mats:
        proj = project_biso(x, tol=tol, max_iter=500_000)
        assert proj.converged
        assert is_biso(proj.matrix, tol)
        projections.append(proj.matrix)
    # idempotence within 10 * tol
    for px in projections[:25]:
        again = project_biso(px, tol=tol, max_iter=500_000).matrix
        assert np.linalg.norm(again - px) <= 10 * tol
    # nonexpansiveness within 10 * tol
    for (x, px), (y, py) in zip(
        zip(mats[:30], projections[:30]), zip(mats[30:60], projections[30:60])
    ):
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 10 * tol
    # small-n oracle: the exact projection from the NNLS dual, KKT-certified
    for n in (3, 4, 5, 6):
        for _ in range(3):
            a = rng.random((n, n))
            _, kkt, exact = biso_projection_by_nnls(a)
            assert kkt < 1e-12
            ours = project_biso(a, tol=1e-10, max_iter=500_000)
            assert ours.converged
            assert np.abs(ours.matrix - exact).max() < 1e-5
    _report(8, "projection is feasible, idempotent, nonexpansive, and matches the NNLS dual oracle")


CERTIFICATION_CASES = [
    ("star", 4),
    ("star", 9),
    ("star", 16),
    ("path", 5),
    ("path", 8),
    ("path", 15),
    ("two_cliques", 6),
    ("two_cliques", 10),
    ("two_cliques", 16),
]


def _closed_form_alpha_beta(family, n):
    if family == "star":
        return n - 1, ((n - 1) // 2) * ((n - 1) - (n - 1) // 2)
    if family == "path":
        return (n + 1) // 2, ((n - 1) // 2) * ((n - 1) - (n - 1) // 2)
    return 2, (n // 2) ** 2  # two_cliques


def test_criterion_09_worst_case_certification():
    for family, n in CERTIFICATION_CASES:
        g = make_topology(family, n)
        a = adjacency_matrix(g)
        report = minimax_lower_bound(g)
        alpha_cf, beta_cf = _closed_form_alpha_beta(family, n)
        assert max_independent_set(g)[0] == alpha_cf
        assert max_biclique_complement(g)[0] == beta_cf
        assert report.minimax_lb == max(alpha_cf * (alpha_cf - 1), beta_cf) / (4 * n**2)

        worst = 0.0
        for mode in ("independent_set", "biclique"):
            pair = adversarial_pair(g, mode)
            m1, m2 = (make_noisy_sorting(m.ranks, m.lam) for m in (pair.m1, pair.m2))
            assert np.array_equal(m1[a], m2[a])  # identical on every edge
            kt = kt_distance(pair.m1.ranks, pair.m2.ranks)
            d = m1 - m2
            assert abs((d * d).sum() - 8 * pair.m1.lam**2 * kt) < 1e-12
            if mode == "independent_set":
                assert 2 * kt == alpha_cf * (alpha_cf - 1)
            else:
                # the block swap inverts every cross pair: KT equals beta itself
                assert kt == beta_cf
            for truth in (m1, m2):
                s = observe(truth, g, identity_permutation(n), "expectation")
                est = asp_estimate(s)
                worst = max(worst, frobenius_error(make_noisy_sorting(est.ranks, est.lam), truth))
        assert worst >= report.minimax_lb - 1e-12
    _report(9, "adversarial pairs certify the bound and ASP incurs it on all 9 cases")


def test_criterion_10_sweep_determinism():
    spec = ExperimentSpec(
        graph_family="two_cliques",
        n_values=(16, 32),
        model="ns",
        lambda_star=0.4,
        estimator="asp",
        trials=3,
        master_seed=MASTER_SEED,
        mode="bernoulli",
    )
    serial_1 = records_to_csv(run_sweep(spec, workers=1))
    serial_2 = records_to_csv(run_sweep(spec, workers=1))
    parallel = records_to_csv(run_sweep(spec, workers=2))
    assert serial_1 == serial_2
    assert serial_1 == parallel
    _report(10, "same master seed gives byte-identical CSV, serial and parallel")
