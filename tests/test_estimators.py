import dataclasses
import functools
import inspect
import tracemalloc

import numpy as np
import pytest

from paircomp import (
    NoisySorting,
    asp_estimate,
    asp_lambda_mle,
    asp_sort,
    bap_estimate,
    block_average,
    block_partition,
    empirical_scores,
    identity_permutation,
    is_biso,
    frobenius_error,
    make_graph,
    make_noisy_sorting,
    make_topology,
    observe,
    project_biso,
    sample_matrix,
    sample_sst_bands,
    assign_random,
)
from paircomp import estimators
import oracles
from oracles import (
    biso_projection_by_nnls,
    block_partition_labels_at_stride_t,
    permute_matrix,
    sample_of_pairs,
    weighted_grid_projection_by_bvls,
)


def ident(n):
    return identity_permutation(n)


def expectation_sample(m, g, sigma=None):
    n = g.n
    return observe(m, g, ident(n) if sigma is None else sigma, None)


# ---------------------------------------------------------------------------
# ASP
# ---------------------------------------------------------------------------


def test_asp_sort_examples():
    assert asp_sort([0.9, 0.5, 0.1]).tolist() == [0, 1, 2]
    assert asp_sort([0.1, 0.5, 0.9]).tolist() == [2, 1, 0]
    assert asp_sort([0.3, 0.3, 0.3]).tolist() == [0, 1, 2]  # ties: smaller index wins


def test_asp_sort_orders_scores_nonincreasing():
    rng = np.random.default_rng(0)
    tau = rng.random(31)
    pi = asp_sort(tau)
    sorted_scores = tau[np.argsort(pi)]
    assert np.all(np.diff(sorted_scores) <= 0)


def test_asp_lambda_mle_cases():
    g = make_topology("complete", 6)
    m = make_noisy_sorting(ident(6), 0.4)
    s = expectation_sample(m, g)
    assert asp_lambda_mle(s, ident(6)) == pytest.approx(0.4, abs=1e-15)

    # all-lost sample with no inversions: raw -1/2 clamps to 0
    zeros = dataclasses.replace(s, values=np.zeros(s.num_pairs))
    assert asp_lambda_mle(zeros, ident(6)) == 0.0
    ones = dataclasses.replace(s, values=np.ones(s.num_pairs))
    assert asp_lambda_mle(ones, ident(6)) == 0.5

    empty = sample_of_pairs(2, np.empty((0, 2)), np.empty(0), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        asp_lambda_mle(empty, ident(2))


def test_asp_lambda_mle_rejects_a_ranking_of_another_size():
    s = expectation_sample(make_noisy_sorting(ident(6), 0.3), make_topology("path", 6))
    for size in (4, 9):
        message = f"ranking of {size} items does not match a sample of size 6"
        with pytest.raises(ValueError, match=message):
            asp_lambda_mle(s, np.arange(size))


def test_asp_lambda_mle_alignment_matches_where_formula_bit_for_bit():
    # |inverted - y| has the bits of np.where(inverted, 1 - y, y) for y in [0, 1]
    n = 90
    pairs = make_topology("complete", n).edges
    i, j = pairs[:, 0], pairs[:, 1]
    rng = np.random.default_rng(12)
    truth = ident(n)
    truth[20:30] = truth[20:30][::-1]
    ys = [
        rng.random(len(pairs)),
        rng.random(len(pairs)) ** 0.25,
        rng.integers(0, 2, len(pairs)).astype(np.float64),
        np.array([0.0, 0.5, 1.0])[rng.integers(0, 3, len(pairs))],
    ]
    # expectation-mode values, 1/2 +- lam
    ys += [NoisySorting(truth, lam)[i, j] for lam in (0.0, 0.1, 0.3, 0.5)]
    head_reversed = ident(n)
    head_reversed[:10] = head_reversed[:10][::-1]
    for pi in (head_reversed, rng.permutation(n)):
        inverted = pi[i] > pi[j]  # int64 gathers, as the reference
        for y in ys:
            ref = np.where(inverted, 1.0 - y, y)
            got = np.subtract(inverted, y)
            np.abs(got, out=got)
            assert got.tobytes() == ref.tobytes()
            s = sample_of_pairs(n, pairs, y, np.full(n, n - 1))
            assert asp_lambda_mle(s, pi) == min(max(float(ref.mean() - 0.5), 0.0), 0.5)


@pytest.mark.parametrize("n", [3, 10, 50])
def test_asp_noiseless_exactness(n):
    g = make_topology("complete", n)
    m = make_noisy_sorting(ident(n), 0.4)
    res = asp_estimate(expectation_sample(m, g))
    assert frobenius_error(make_noisy_sorting(res.ranks, res.lam), m) < 1e-12
    assert np.array_equal(res.ranks, ident(n))


def test_asp_lambda_zero_truth_recovered_exactly():
    g = make_topology("two_cliques", 8)
    m = make_noisy_sorting(ident(8), 0.0)
    res = asp_estimate(expectation_sample(m, g))
    assert frobenius_error(make_noisy_sorting(res.ranks, res.lam), m) == 0.0


def test_asp_result_is_consistent():
    g = make_topology("two_cliques", 16)
    m = make_noisy_sorting(ident(16), 0.4)
    rng = np.random.default_rng(2)
    s = observe(m, g, assign_random(g, rng), rng)
    res = asp_estimate(s)
    assert isinstance(res, NoisySorting)
    assert np.array_equal(res.ranks, asp_sort(empirical_scores(s)))
    assert res.lam == asp_lambda_mle(s, res.ranks)
    assert 0.0 <= res.lam <= 0.5


# ---------------------------------------------------------------------------
# PAV
# ---------------------------------------------------------------------------


def pav(y, w=None, new=None):
    """The PAV kernel on y, one chain unless new flags more."""
    y = np.asarray(y, dtype=np.float64)
    w = np.ones_like(y) if w is None else np.asarray(w, dtype=np.float64)
    new = [True] + [False] * (len(y) - 1) + [True] if new is None else new
    return estimators._pav_chains(y, w, new)


def test_pav_examples():
    assert np.allclose(pav([1, 2, 3]), [1, 2, 3])
    assert np.allclose(pav([3, 1]), [2, 2])
    assert np.allclose(pav([5, 3, 8]), [4, 4, 8])
    # weighted pooling: minimize (x-1)^2 + 3 y^2 with x <= y
    assert np.allclose(pav([1, 0], w=[1, 3]), [0.25, 0.25])
    assert pav([]).shape == (0,)
    # a chain start stops the pooling: chains [3, 1] and [0, 2]
    assert np.array_equal(pav([3, 1, 0, 2], new=[True, False, True, False, True]), [2, 2, 0, 2])


def test_pav_block_mean_semantics_and_idempotence():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.random(int(rng.integers(1, 40)))
        w = rng.random(len(y)) + 0.1
        fit = pav(y, w)
        assert np.all(np.diff(fit) >= -1e-12)
        assert np.allclose(pav(fit, w), fit, atol=1e-12)
        # each constant block carries the weighted mean of its inputs
        blocks = np.flatnonzero(np.diff(fit) > 1e-12)
        for lo, hi in zip(np.r_[0, blocks + 1], np.r_[blocks, len(y) - 1]):
            seg = slice(lo, hi + 1)
            assert fit[lo] == pytest.approx(np.average(y[seg], weights=w[seg]))


def test_pav_chains_never_decrease_inside_a_chain():
    # each chain's fit is that chain's own fit, exactly, however far apart the
    # chains' scales lie, and never decreases: project_biso tests only the
    # rows for monotonicity and relies on it for the columns
    rng = np.random.default_rng(11)
    for _ in range(300):
        lengths = rng.integers(1, 12, int(rng.integers(1, 8)))
        scales = 10.0 ** rng.integers(-9, 7, len(lengths))
        z = rng.normal(size=lengths.sum()) * np.repeat(scales, lengths)
        z[rng.random(len(z)) < 0.3] = 0.5  # ties
        w = rng.integers(1, 50, len(z)).astype(np.float64)
        ends = np.cumsum(lengths)
        new = np.zeros(ends[-1] + 1, dtype=bool)
        new[np.r_[0, ends]] = True
        out = pav(z, w, new.tolist())
        for lo, hi in zip(np.r_[0, ends[:-1]], ends):
            assert np.array_equal(out[lo:hi], pav(z[lo:hi], w[lo:hi]))
            assert np.all(np.diff(out[lo:hi]) >= 0.0)


# ---------------------------------------------------------------------------
# project_biso
# ---------------------------------------------------------------------------


def test_project_fixes_feasible_points():
    m = sample_sst_bands(12, np.random.default_rng(4))
    proj = project_biso(m)
    assert proj.converged
    assert np.abs(proj.matrix - m).max() < 1e-8


def test_project_constant_matrix():
    proj = project_biso(np.full((6, 6), 0.6))
    assert np.allclose(proj.matrix, 0.5, atol=1e-10)


def test_project_output_is_biso_and_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.random((15, 15))
        proj = project_biso(x, tol=1e-8, max_iter=100_000)
        assert proj.converged
        assert is_biso(proj.matrix, 1e-8)
        again = project_biso(proj.matrix, tol=1e-8, max_iter=100_000)
        assert np.abs(again.matrix - proj.matrix).max() < 1e-7


def test_project_nonexpansive():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x, y = rng.random((2, 12, 12))
        px = project_biso(x, max_iter=100_000).matrix
        py = project_biso(y, max_iter=100_000).matrix
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-7


def test_project_converges_near_the_float64_floor():
    # each PAV fit rounds only as scipy's does, so a tol of 1e-14 is reachable
    x = np.random.default_rng(3).random((16, 16))
    proj = project_biso(x, tol=1e-14, max_iter=2000)
    assert proj.converged
    assert is_biso(proj.matrix, 1e-14)


def test_project_reports_nonconvergence():
    x = np.random.default_rng(7).random((10, 10))
    proj = project_biso(x, tol=1e-12, max_iter=3)
    assert not proj.converged
    assert proj.iterations == 3


def bap_draw(family, n, seed, mode="bernoulli"):
    """Graph and two observation samples of one SST draw."""
    rng = np.random.default_rng(seed)
    g = make_topology(family, n)
    m = sample_sst_bands(n, rng)
    value_rng = rng if mode == "bernoulli" else None
    s1 = observe(m, g, assign_random(g, rng), value_rng)
    s2 = observe(m, g, assign_random(g, rng), value_rng)
    return g, s1, s2


def bap_projection_input(family, n, seed, mode="bernoulli"):
    """BAP's block-averaged second sample as a dense matrix in score-rank
    order: the input of the dense reference path."""
    g, s1, s2 = bap_draw(family, n, seed, mode)
    tau = empirical_scores(s1)
    t = float(np.sum(1.0 / np.sqrt(g.degrees)))
    c = block_partition(np.clip(n * tau, 0.0, n), t, upper=n)
    inv = np.argsort(asp_sort(tau))
    return permute_matrix(oracles.block_average(*sample_matrix(s2), c), inv)


def test_project_matches_nnls_dual_oracle():
    rng = np.random.default_rng(20)
    inputs = [rng.random((n, n)) for n in range(2, 11)]
    rng = np.random.default_rng(9)
    inputs += [rng.random((n, n)) for n in (3, 4, 5, 6)]
    # scipy's nnls can stop short of optimal on tied block inputs, so every
    # oracle answer is certified by its KKT residual before it is compared
    inputs += [
        bap_projection_input(family, n, seed)
        for family, n, seed in (
            ("power_law", 16, 1),
            ("power_law", 32, 25),
            ("clique_plus_path", 16, 0),
            ("clique_plus_path", 32, 1),
        )
    ]
    for x in inputs:
        u, kkt, exact = biso_projection_by_nnls(x)
        assert kkt < 1e-12
        # the unclipped fit already lies in [0, 1]: the box never binds
        assert -1e-12 <= u.min() and u.max() <= 1.0 + 1e-12
        proj = project_biso(x, tol=1e-12, max_iter=100_000)
        assert proj.converged
        assert np.abs(proj.matrix - exact).max() < 1e-10


def compress_rows(x):
    """t = clip((x - x^T + 1)/2, 0, 1), the first row of each maximal run of
    identical consecutive rows of t, and the run sizes."""
    t = np.clip(0.5 * (x - x.T + 1.0), 0.0, 1.0)
    starts = np.flatnonzero(np.r_[True, np.any(t[1:] != t[:-1], axis=1)])
    return t, starts, np.diff(np.r_[starts, len(t)])


def test_project_matches_bvls_dual_oracle_on_block_inputs():
    rng = np.random.default_rng(21)
    inputs = [rng.random((n, n)) for n in range(2, 9)]
    # tied BAP block inputs on which scipy's nnls stops short of optimal
    # (power_law n = 32 seeds 7, 9 and n = 64 seeds 7, 8), plus the slowest
    # power_law n = 256 draws; BVLS certifies them all
    block_inputs = [
        bap_projection_input(family, n, seed)
        for family, n, seed in (
            ("power_law", 32, 7),
            ("power_law", 32, 9),
            ("power_law", 64, 7),
            ("power_law", 64, 8),
            ("power_law", 256, 1),
            ("power_law", 256, 11),
            ("clique_plus_path", 128, 0),
        )
    ]
    for x in block_inputs:
        assert len(compress_rows(x)[1]) < len(x) // 4
    for x in inputs + block_inputs:
        t, starts, sizes = compress_rows(x)
        kkt, exact = weighted_grid_projection_by_bvls(t[np.ix_(starts, starts)], sizes)
        assert kkt <= 1e-12
        proj = project_biso(x, tol=1e-12, max_iter=100_000)
        assert proj.converged
        assert np.abs(proj.matrix - exact).max() < 1e-10


def test_project_n1_and_n2():
    one = project_biso(np.array([[0.3]]))
    assert one.converged and one.matrix.tolist() == [[0.5]]
    two = project_biso(np.array([[0.2, 0.9], [0.4, 0.7]]))
    assert two.converged
    assert np.allclose(two.matrix, [[0.5, 0.75], [0.25, 0.5]], atol=1e-15)
    # t_01 = 0.1 < 1/2: the diagonal bound binds
    low = project_biso(np.array([[0.0, 0.1], [0.9, 0.0]]))
    assert np.array_equal(low.matrix, np.full((2, 2), 0.5))


def test_project_single_group():
    # every row of t equals (1/2, ..., 1/2): one group, an empty triangle
    for x in (np.full((5, 5), 0.7), np.full((5, 5), 0.5)):
        assert len(compress_rows(x)[1]) == 1
        proj = project_biso(x)
        assert proj.converged and proj.iterations == 1
        assert np.array_equal(proj.matrix, np.full((5, 5), 0.5))


def expand_blocks(values, sizes):
    lab = np.repeat(np.arange(len(sizes)), sizes)
    return values[np.ix_(lab, lab)]


# block values whose middle two blocks agree everywhere; merged, the 3 x 3
# grid violates a row and a column
EQUAL_MIDDLE_BLOCKS = np.array(
    [
        [0.5, 0.9, 0.9, 0.6],
        [0.1, 0.5, 0.5, 0.7],
        [0.1, 0.5, 0.5, 0.7],
        [0.4, 0.3, 0.3, 0.5],
    ]
)


def test_project_merges_adjacent_groups_with_equal_blocks():
    # BAP groups of sizes 2, 3, 2, 2
    x = expand_blocks(EQUAL_MIDDLE_BLOCKS, [2, 3, 2, 2])
    assert compress_rows(x)[2].tolist() == [2, 5, 2]
    _, kkt, exact = biso_projection_by_nnls(x)  # uncompressed oracle
    assert kkt < 1e-12
    assert np.abs(project_biso(x, tol=1e-12).matrix - exact).max() < 1e-12


def test_project_keeps_nonadjacent_identical_rows_apart():
    # rows 0 and 2 of t are identical, row 1 between them is not
    x = np.full((4, 4), 0.5)
    x[0, 1] = x[2, 1] = 0.2
    x[1, 0] = x[1, 2] = 0.8
    x[:3, 3] = [0.9, 0.6, 0.9]
    x[3, :3] = 1.0 - x[:3, 3]
    t, starts, _ = compress_rows(x)
    assert np.array_equal(t[0], t[2]) and starts.tolist() == [0, 1, 2, 3]
    _, kkt, exact = biso_projection_by_nnls(x)
    assert kkt < 1e-12
    assert np.abs(project_biso(x, tol=1e-12).matrix - exact).max() < 1e-12


def test_project_block_input_matches_uncompressed_solve():
    rng = np.random.default_rng(22)
    grids = []
    for _ in range(5):
        g = int(rng.integers(2, 6))
        sizes = rng.integers(1, 4, size=g)
        grids.append((rng.random((g, g)), sizes))
    # blocks 1 and 2 agree everywhere, so their rows merge into one weighted group
    grids.append((EQUAL_MIDDLE_BLOCKS, np.array([2, 3, 2, 2])))
    for values, sizes in grids:
        x = expand_blocks(values, sizes)
        t, starts, _ = compress_rows(x)
        assert len(starts) == len(np.unique(values, axis=0))
        # the same problem on n singleton groups: no compression at all
        kkt, exact = weighted_grid_projection_by_bvls(t, np.ones(len(x), dtype=np.int64))
        assert kkt <= 1e-12
        dense = project_biso(x, tol=1e-12)
        assert np.abs(dense.matrix - exact).max() < 1e-12
        # the grid with its block sizes: the same solve, the grid of its answer
        firsts = np.r_[0, np.cumsum(sizes)[:-1]]
        grid = project_biso(values, tol=1e-12, sizes=sizes)
        assert grid.matrix.shape == values.shape and grid.iterations == dense.iterations
        assert grid.matrix.tobytes() == dense.matrix[np.ix_(firsts, firsts)].tobytes()


def test_project_rejects_bad_sizes():
    x = np.random.default_rng(23).random((3, 3))
    for sizes in ([1, 2], [1, 2, 3, 4], [1, 0, 2], [1, -1, 2], [1.0, 2.0, 3.0], [1, 2.5, 1]):
        with pytest.raises(ValueError, match="sizes must be 3 positive integers"):
            project_biso(x, sizes=np.array(sizes))


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,)], ids=["empty", "not-square", "1-d"])
def test_project_rejects_all_but_a_nonempty_square_matrix(shape):
    with pytest.raises(ValueError, match="expected a nonempty square matrix"):
        project_biso(np.full(shape, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_rejects_non_finite_input(bad):
    x = np.full((3, 3), 0.5)
    x[0, 2] = bad
    with pytest.raises(ValueError, match="x must be finite"):
        project_biso(x)


@pytest.mark.parametrize("tol", [np.nan, np.inf], ids=["nan", "inf"])
def test_tolerances_must_be_finite(tol):
    # a NaN tol passes every comparison; an infinite one stops the projection after one sweep
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        is_biso([[0.5, 0.0], [1.0, 0.5]], tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        project_biso(np.random.default_rng(8).random((8, 8)), tol=tol)
    assert is_biso(np.full((2, 2), 0.5), 0.0)  # is_biso still accepts an exact check


# ---------------------------------------------------------------------------
# blocking
# ---------------------------------------------------------------------------


def test_block_partition_example():
    c = block_partition(np.array([0.2, 3.1, 3.9, 7.5]), 3.0, upper=7.5)
    assert [g.tolist() for g in c.groups] == [[0], [1, 2], [3]]


def test_block_partition_single_interval():
    c = block_partition(np.array([0.5, 1.2, 2.0]), 5.0, upper=2.0)
    assert c.num_groups == 1
    assert c.groups[0].tolist() == [0, 1, 2]


def test_block_partition_top_value_and_bounds():
    c = block_partition(np.array([0.0, 2.5, 6.0]), 3.0, upper=6.0)
    assert [g.tolist() for g in c.groups] == [[0, 1], [2]]
    with pytest.raises(ValueError):
        block_partition(np.array([-0.1]), 1.0, upper=0.0)
    with pytest.raises(ValueError):
        block_partition(np.array([7.0]), 3.0, upper=6.0)
    with pytest.raises(ValueError):
        block_partition(np.array([1.0]), 0.0, upper=1.0)
    # upper = the largest value 6 sets top = 6, and 6 joins the last interval [3, 6]
    c = block_partition(np.array([0.0, 2.5, 6.0, 6.0]), 3.0, upper=6.0)
    assert [g.tolist() for g in c.groups] == [[0, 1], [2, 3]]
    # t < 1: the floored bounds 0, 0, 0, 1, 1, 2 give the intervals [0, 1), [1, 2]
    c = block_partition(np.array([0.0, 0.9, 1.0, 1.5, 2.0]), 0.4, upper=2.0)
    assert [g.tolist() for g in c.groups] == [[0, 1], [2, 3, 4]]
    c = block_partition(np.array([0.0, 0.1, 0.4]), 0.3, upper=0.4)
    assert [g.tolist() for g in c.groups] == [[0, 1, 2]]


@pytest.mark.parametrize(
    "values, t, upper, match",
    [
        ([0.0, 1.0], 1.0, np.nan, "upper must be finite"),
        ([0.0, 1.0], 1.0, np.inf, "upper must be finite"),
        ([0.0, 1.0], np.nan, 1.0, "threshold t must be positive and finite"),
        ([0.0, 1.0], np.inf, 1.0, "threshold t must be positive and finite"),
        ([0.0, np.nan], 1.0, 1.0, "values must be finite"),
    ],
    ids=["upper-nan", "upper-inf", "t-nan", "t-inf", "values-nan"],
)
def test_block_partition_rejects_non_finite_input(values, t, upper, match):
    with pytest.raises(ValueError, match=match):
        block_partition(np.array(values), t, upper=upper)


def test_block_partition_invariants_random():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(1, 50))
        v = rng.random(n) * n
        t = rng.uniform(0.3, n)
        c = block_partition(v, t, upper=n)
        all_idx = np.sort(np.concatenate(c.groups))
        assert np.array_equal(all_idx, np.arange(n))
        for grp in c.groups:
            assert v[grp].max() - v[grp].min() < t + 1  # interval width bound


def block_partition_oracle(values, t, upper):
    """The interval loop block_partition replaced: groups as index arrays."""
    v = np.asarray(values, dtype=np.float64)
    top = float(upper)
    if top <= 0:
        return (np.arange(len(v)),)
    bounds = [0.0]
    k = 1
    while bounds[-1] < top:
        bounds.append(float(np.floor(k * t)))
        k += 1
    lows = np.unique(bounds[:-1])
    idx = np.searchsorted(lows, v, side="right") - 1
    return tuple(np.flatnonzero(idx == g) for g in range(len(lows)) if np.any(idx == g))


def test_block_partition_matches_interval_loop_oracle():
    rng = np.random.default_rng(22)
    for it in range(2000):
        n = int(rng.integers(1, 60))
        upper = float(n) if it % 2 else None
        v = rng.random(n) * (n if upper else rng.uniform(0.0, 3 * n))
        if it % 7 == 0:
            v[:] = 0.0
        elif it % 7 == 1:
            v = np.round(v)
        elif it % 7 == 2 and upper:
            v[rng.random(n) < 0.3] = upper
        t = rng.uniform(0.05, 1.0) if it % 3 == 0 else rng.uniform(0.3, 2 * n + 1)
        if upper is None:  # even iterations: the largest value is the bound
            upper = float(v.max())
        c = block_partition(v, t, upper)
        groups = block_partition_oracle(v, t, upper)
        assert len(c.groups) == c.num_groups == len(groups)
        for got, want in zip(c.groups, groups):
            assert np.array_equal(got, want)
        expect = np.empty(n, dtype=np.int64)
        for k, grp in enumerate(groups):
            expect[grp] = k
        assert np.array_equal(c.labels, expect)
        assert c.labels.dtype == np.int64


def test_block_partition_below_unit_t_matches_stride_t_labels():
    rng = np.random.default_rng(29)
    for it in range(500):
        n = int(rng.integers(1, 60))
        v = rng.random(n) * n
        if it % 3 == 0:
            v = np.round(v)  # values on the interval lows
        t = (1.0, np.nextafter(1.0, 0.0), 1e-3)[it] if it < 3 else rng.uniform(1e-3, 1.0)
        upper = float(n) if it % 2 else float(v.max())
        want = block_partition_labels_at_stride_t(v, t, upper)
        assert np.array_equal(block_partition(v, t, upper).labels, want)


def test_block_partition_memory_does_not_grow_as_t_shrinks():
    # at stride t this call builds a million interval lows; at most ceil(upper) + 2 are distinct
    tracemalloc.start()
    try:
        c = block_partition([0.0, 1.0], 1e-4, upper=100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.labels.tolist() == [0, 1]
    assert peak < 64 * 1024


def test_block_partition_labels_read_only():
    c = block_partition(np.array([0.2, 3.1, 3.9, 7.5]), 3.0, upper=7.5)
    assert [f.name for f in dataclasses.fields(c)] == ["labels"]
    assert c.labels.tolist() == [0, 1, 1, 2]
    with pytest.raises(ValueError):
        c.labels[0] = 1


def test_block_average_rejects_size_mismatch():
    c = block_partition(np.arange(4, dtype=float), 2.0, upper=4.0)
    for n in (3, 5):
        s = expectation_sample(np.full((n, n), 0.5), make_topology("complete", n))
        with pytest.raises(ValueError, match=f"4 items .* size {n}"):
            block_average(s, c)


def test_block_average_cases():
    # single group, fully observed: each pair adds y and 1 - y, so the mean is 1/2
    n = 4
    y = np.random.default_rng(11).random((n, n))
    s = expectation_sample(y, make_topology("complete", n))
    c = block_partition(np.zeros(n), 2.0, upper=float(n))
    assert c.num_groups == 1
    out = block_average(s, c)
    assert out.shape == (1, 1) and out[0, 0] == pytest.approx(0.5)
    dense = oracles.block_average(*sample_matrix(s), c)
    assert np.array_equal(out[c.labels[:, None], c.labels], dense)

    # block pair with no observed pair -> 1/2; a single observation fills its block pair
    labels = block_partition(np.array([0.0, 0.5, 3.0, 3.5]), 3.0, upper=4.0)
    assert [g.tolist() for g in labels.groups] == [[0, 1], [2, 3]]
    s2 = sample_of_pairs(4, [[0, 2]], np.array([0.8]), np.array([1, 0, 1, 0]))
    out2 = block_average(s2, labels)
    assert out2[0, 1] == 0.8 and out2[1, 0] == pytest.approx(0.2)
    assert out2[0, 0] == out2[1, 1] == 0.5  # unobserved diagonal block pairs
    dense = oracles.block_average(*sample_matrix(s2), labels)
    assert np.array_equal(out2[labels.labels[:, None], labels.labels], dense)


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_block_average_matches_the_dense_oracle(mode):
    # sparse graphs leave block pairs unobserved (1/2); t = n puts every item in one group
    unobserved = 0
    for family in ("power_law", "two_cliques", "path", "star", "cycle"):
        for n in (16, 64):
            for t in (1.0, 3.0, float(n)):
                g, _, s = bap_draw(family, n, n + int(t), mode)
                c = block_partition(n * empirical_scores(s), t, upper=n)
                grid = block_average(s, c)
                assert grid.shape == (c.num_groups,) * 2
                got = grid[c.labels[:, None], c.labels]
                y, observed = sample_matrix(s)
                want = oracles.block_average(y, observed, c)
                if mode == "bernoulli":  # 0/1 outcomes: every block sum is exact
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
                i, j = np.nonzero(observed)
                hit = np.zeros(grid.shape, dtype=bool)
                hit[c.labels[i], c.labels[j]] = True
                assert np.all(grid[~hit] == 0.5)
                unobserved += int(np.sum(~hit))
    assert unobserved > 0


@pytest.mark.parametrize("family", ["two_cliques", "power_law"])
def test_block_average_allocates_four_pair_sized_arrays(family):
    # the 2m keys and the 2m values, in units of one int64 per observed pair
    n = 2048
    g = make_topology(family, n)
    rng = np.random.default_rng(6)
    s = observe(NoisySorting(ident(n), 0.3), g, assign_random(g, rng), rng)
    c = block_partition(n * empirical_scores(s), float(np.sum(1.0 / np.sqrt(s.counts))), upper=n)
    tracemalloc.start()
    try:
        grid = block_average(s, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (c.num_groups,) * 2 and c.num_groups > 1
    assert peak <= 4.1 * 8 * s.num_pairs


def test_block_average_equals_double_row_average_when_fully_observed():
    rng = np.random.default_rng(13)
    x = rng.random((8, 8))
    c = block_partition(rng.random(8) * 8, 3.0, upper=8.0)
    everything = np.ones((8, 8), dtype=bool)
    direct = oracles.block_average(x, everything, c)

    def row_block_average(x):  # each row replaced by the mean of its group's rows
        out = np.empty_like(x)
        for grp in c.groups:
            out[grp] = x[grp].mean(axis=0)
        return out

    via_rows = row_block_average(row_block_average(x).T).T
    assert np.allclose(direct, via_rows, atol=1e-12)


# ---------------------------------------------------------------------------
# BAP
# ---------------------------------------------------------------------------


def test_bap_expectation_output_feasible():
    n = 12
    g = make_topology("complete", n)
    m = sample_sst_bands(n, np.random.default_rng(14))
    s1 = expectation_sample(m, g)
    s2 = expectation_sample(m, g)
    out = bap_estimate(s1, s2)
    assert out.min() >= 0 and out.max() <= 1
    # output lies in the permuted biso set: conjugating back is biso
    from paircomp import asp_sort, empirical_scores

    pi_hat = asp_sort(empirical_scores(s1))
    assert is_biso(permute_matrix(out, np.argsort(pi_hat)), 1e-6)


def test_bap_all_half_fixed_point():
    n = 8
    g = make_topology("two_cliques", n)
    m = np.full((n, n), 0.5)
    s1 = expectation_sample(m, g)
    out = bap_estimate(s1, s1)
    assert np.allclose(out, 0.5, atol=1e-9)


def test_bap_single_block_when_gap_covers_all_row_sums():
    # every degree is 1, so the gap t = sum 1/sqrt(d) equals n: one block
    n = 16
    g = make_topology("regular_bipartite", n, alpha=0.1)
    assert np.all(g.degrees == 1)
    rng = np.random.default_rng(19)
    m = sample_sst_bands(n, rng)
    s1 = observe(m, g, assign_random(g, rng), rng)
    s2 = observe(m, g, assign_random(g, rng), rng)
    assert np.array_equal(bap_estimate(s1, s2), np.full((n, n), 0.5))


def test_bap_validates_sample_sizes():
    n = 8
    g = make_topology("two_cliques", n)
    m = sample_sst_bands(n, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    s1 = observe(m, g, assign_random(g, rng), rng)
    small = observe(m[:6, :6], make_topology("two_cliques", 6), ident(6), None)
    for pair, sizes in (((s1, small), "8 and 6"), ((small, s1), "6 and 8")):
        with pytest.raises(ValueError, match=f"sample sizes differ: {sizes}"):
            bap_estimate(*pair)


def test_bap_rejects_isolated_vertex():
    iso = make_graph(8, make_topology("path", 8).edges[:-1])  # vertex 7 loses its only edge
    sigma = np.roll(ident(8), 3)  # item 2 sits at vertex 7
    s = expectation_sample(make_noisy_sorting(ident(8), 0.3), iso, sigma)
    assert s.counts.tolist().index(0) == 2
    with pytest.raises(ValueError, match="item 2 has no observed comparisons"):
        bap_estimate(s, s)


def test_bap_matches_dense_reference_path():
    # the dense path: block-average the n x n sample matrix, conjugate by the
    # score ranking, project, conjugate back
    for family in ("power_law", "clique_plus_path", "two_cliques"):
        for n in (16, 32, 64, 128):
            for mode in ("bernoulli", "expectation"):
                g, s1, s2 = bap_draw(family, n, n + 1, mode)
                pi_hat = asp_sort(empirical_scores(s1))
                x = bap_projection_input(family, n, n + 1, mode)
                dense = permute_matrix(project_biso(x).matrix, pi_hat)
                out = bap_estimate(s1, s2)
                if mode == "bernoulli":  # 0/1 outcomes: every block sum is exact
                    assert out.tobytes() == dense.tobytes()
                else:
                    assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()


def test_bap_averages_through_the_public_block_average_once(monkeypatch):
    calls = []

    def counted(s, c):
        calls.append(c)
        return block_average(s, c)

    monkeypatch.setattr(estimators, "block_average", counted)
    for family, n, seed in (("power_law", 32, 1), ("two_cliques", 16, 2)):
        _, s1, s2 = bap_draw(family, n, seed)
        calls.clear()
        bap_estimate(s1, s2)
        assert len(calls) == 1
        bap_estimate(s1, s1)
        assert len(calls) == 2


def test_one_block_mean_path_and_one_reader_of_the_row_offsets():
    source = inspect.getsource(estimators)
    assert "indptr" not in source
    for name in ("_block_means", "_sample_block_means"):
        assert not hasattr(estimators, name), name


def test_bap_allocates_only_its_estimate():
    n = 2048
    g, s1, s2 = bap_draw("power_law", n, 5)
    tracemalloc.start()
    try:
        out = bap_estimate(s1, s2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * n * n
    assert peak < 2 * 8 * n * n


def test_bap_beats_trivial_guess_on_average():
    n = 64
    g = make_topology("two_cliques", n)
    rng = np.random.default_rng(17)
    errs, trivial = [], []
    for _ in range(3):
        m = sample_sst_bands(n, rng)
        s1 = observe(m, g, assign_random(g, rng), rng)
        s2 = observe(m, g, assign_random(g, rng), rng)
        errs.append(frobenius_error(bap_estimate(s1, s2), m))
        trivial.append(frobenius_error(np.full((n, n), 0.5), m))
    assert np.mean(errs) < 0.5 * np.mean(trivial)


def test_bap_raises_when_projection_does_not_converge(monkeypatch):
    n = 64  # this draw needs 2 Dykstra sweeps
    g = make_topology("power_law", n)
    rng = np.random.default_rng(20)
    m = sample_sst_bands(n, rng)
    s1 = observe(m, g, assign_random(g, rng), rng)
    s2 = observe(m, g, assign_random(g, rng), rng)
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "project_biso", functools.partial(project_biso, max_iter=1))
        with pytest.raises(RuntimeError, match=r"did not converge in 1 iterations \(tol 1e-08\)"):
            bap_estimate(s1, s2)
    assert bap_estimate(s1, s2).shape == (n, n)
    for setting in ("tol", "max_iter"):  # the tolerance is the constant BAP_TOL
        with pytest.raises(TypeError):
            bap_estimate(s1, s2, **{setting: 1})


def test_bap_deterministic_given_seeds():
    n = 16
    g = make_topology("two_cliques", n)

    def run():
        rng = np.random.default_rng(18)
        m = sample_sst_bands(n, rng)
        s1 = observe(m, g, assign_random(g, rng), rng)
        s2 = observe(m, g, assign_random(g, rng), rng)
        return bap_estimate(s1, s2)

    assert np.array_equal(run(), run())
