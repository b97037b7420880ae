import itertools
import re
import tracemalloc

import numpy as np
import pytest

from paircomp import (
    NoisySorting,
    asp_estimate,
    assign_random,
    empirical_scores,
    identity_permutation,
    make_graph,
    make_noisy_sorting,
    make_topology,
    GRAPH_FAMILIES,
    observe,
    sample_matrix,
    sample_sst_bands,
)
from paircomp import observation

from oracles import adjacency_matrix, observe_by_edge_list, sample_of_pairs, scores


def draws(mode, rng):
    """observe's generator argument in an observation mode: None in expectation."""
    return rng if mode == "bernoulli" else None


def test_assign_random_determinism_and_trivial_case():
    g = make_topology("path", 9)
    a = assign_random(g, np.random.default_rng(42))
    b = assign_random(g, np.random.default_rng(42))
    assert np.array_equal(a, b)
    g1 = make_topology("path", 2)
    # n=1 graphs are not constructible; n=2 smallest: still a permutation
    assert sorted(assign_random(g1, np.random.default_rng(0)).tolist()) == [0, 1]


def test_assign_random_is_uniform_at_n4():
    g = make_topology("complete", 4)
    rng = np.random.default_rng(7)
    counts = {p: 0 for p in itertools.permutations(range(4))}
    draws = 100_000
    for _ in range(draws):
        counts[tuple(assign_random(g, rng).tolist())] += 1
    for c in counts.values():
        assert abs(c / draws - 1 / 24) < 0.005


def test_observe_expectation_example():
    g = make_topology("complete", 3)
    m = make_noisy_sorting(identity_permutation(3), 0.4)
    s = observe(m, g, identity_permutation(3), None)
    assert s.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert np.allclose(s.values, [0.9, 0.9, 0.9], atol=0)


def test_observe_bernoulli_values_are_binary():
    g = make_topology("two_cliques", 10)
    m = make_noisy_sorting(identity_permutation(10), 0.3)
    s = observe(m, g, identity_permutation(10), np.random.default_rng(1))
    assert set(np.unique(s.values)).issubset({0.0, 1.0})
    assert s.num_pairs == 20


def test_observed_pairs_follow_assignment():
    g = make_topology("star", 6)
    m = make_noisy_sorting(identity_permutation(6), 0.2)
    rng = np.random.default_rng(5)
    sigma = assign_random(g, rng)
    s = observe(m, g, sigma, None)
    assert s.num_pairs == g.num_edges
    a = adjacency_matrix(g)
    expected = {
        (min(i, j), max(i, j))
        for i in range(6)
        for j in range(6)
        if i < j and a[sigma[i], sigma[j]]
    }
    assert {tuple(p) for p in s.pairs} == expected


def test_observe_validates_inputs():
    g = make_topology("path", 4)
    m = make_noisy_sorting(identity_permutation(5), 0.1)
    with pytest.raises(ValueError):
        observe(m, g, identity_permutation(4), None)
    m4 = make_noisy_sorting(identity_permutation(4), 0.1)
    with pytest.raises(TypeError):
        observe(m4, g, identity_permutation(4))  # rng has no default: None or a generator


@pytest.mark.parametrize("rng", [7, np.random.RandomState(7)], ids=["int-seed", "RandomState"])
def test_observe_rejects_an_rng_that_is_not_a_generator(rng):
    g = make_topology("path", 4)
    m = make_noisy_sorting(identity_permutation(4), 0.1)
    with pytest.raises(TypeError, match="rng must be a numpy Generator or None, got"):
        observe(m, g, identity_permutation(4), rng)


def _noisy_sorting_4(entries):
    m = make_noisy_sorting(identity_permutation(4), 0.1)
    for ij, value in entries.items():
        m[ij] = value
    return m


@pytest.mark.parametrize(
    "m, message",
    [
        (np.full((4, 3), 0.5), "comparison matrix must be square, got (4, 3)"),
        (_noisy_sorting_4({(0, 1): 1.2, (1, 0): -0.2}), "entries must lie in [0, 1]"),
        # path edge 0-1 is observed under the identity
        (_noisy_sorting_4({(0, 1): np.nan}), "entries must lie in [0, 1]"),
        # [0, 1] is exact: no rounding slack lets a Y outside it into the sample
        (_noisy_sorting_4({(0, 1): 1.0 + 5e-13}), "entries must lie in [0, 1]"),
        (_noisy_sorting_4({(0, 1): -5e-13}), "entries must lie in [0, 1]"),
    ],
    ids=[
        "not-square", "outside-unit-interval", "nan-at-an-observed-pair",
        "just-above-1", "just-below-0",
    ],
)
def test_observe_rejects_invalid_matrix(m, message):
    for mode in ("bernoulli", "expectation"):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as err:
            observe(m, make_topology("path", 4), identity_permutation(4), draws(mode, rng))
        assert str(err.value) == message, mode
        assert rng.bit_generator.state == state, mode  # rejected before any draw


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
@pytest.mark.parametrize("garbage", [np.nan, 7.0])
def test_observe_never_reads_a_dense_entry_outside_the_observed_pairs(garbage, mode):
    for family, n in (("two_cliques", 16), ("power_law", 33), ("cycle", 40)):
        g = make_topology(family, n)
        m = sample_sst_bands(n, np.random.default_rng(n))
        sigma = assign_random(g, np.random.default_rng(1))
        valid = observe(m, g, sigma, draws(mode, np.random.default_rng(2)))
        read = np.zeros((n, n), dtype=bool)
        read[valid.pairs[:, 0], valid.pairs[:, 1]] = True
        # garbage on the diagonal, the lower triangle and every unobserved upper pair
        s = observe(np.where(read, m, garbage), g, sigma, draws(mode, np.random.default_rng(2)))
        for a, b in ((valid.pairs, s.pairs), (valid.values, s.values), (valid.counts, s.counts)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_dense_observe_on_a_sparse_graph_allocates_no_matrix_sized_temporary(mode):
    n = 2048
    g = make_topology("cycle", n)
    rng = np.random.default_rng(6)
    m = sample_sst_bands(n, rng)  # 8n^2 bytes = 33.6 MB
    _, peak = traced_peak(observe, m, g, assign_random(g, rng), draws(mode, rng))
    assert peak < 1 << 20


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_observe_noisy_sorting_model_matches_its_dense_matrix(mode):
    for family, n in (("two_cliques", 16), ("power_law", 33), ("cycle", 40)):
        g = make_topology(family, n)
        ranks = np.random.default_rng(n).permutation(n)
        sigma = assign_random(g, np.random.default_rng(1))
        a, b = (
            observe(m, g, sigma, draws(mode, np.random.default_rng(2)))
            for m in (NoisySorting(ranks, 0.3), make_noisy_sorting(ranks, 0.3))
        )
        assert np.array_equal(a.pairs, b.pairs)
        assert a.values.tobytes() == b.values.tobytes()
    with pytest.raises(ValueError):
        observe(NoisySorting(identity_permutation(5), 0.1), g, identity_permutation(40), None)


def test_empirical_scores_expectation_equals_true_scores():
    g = make_topology("complete", 12)
    m = make_noisy_sorting(identity_permutation(12), 0.35)
    s = observe(m, g, identity_permutation(12), None)
    assert np.allclose(empirical_scores(s), scores(m), atol=1e-15)


def test_empirical_scores_single_win_and_pairing_identity():
    # star with identity assignment: each leaf has exactly one comparison
    g = make_topology("star", 5)
    m = make_noisy_sorting(np.array([4, 0, 1, 2, 3]), 0.5)  # hub ranked last
    s = observe(m, g, identity_permutation(5), None)
    tau = empirical_scores(s)
    assert np.allclose(tau[1:], 1.0)  # leaves won their single comparison
    counts = np.bincount(s.pairs.ravel(), minlength=5)
    assert np.isclose((counts * tau).sum(), s.num_pairs)


def test_empirical_scores_are_bit_identical_to_the_bincount_formula():
    def reference(s):
        wins = np.bincount(s.pairs[:, 0], weights=s.values, minlength=s.n)
        wins += np.bincount(s.pairs[:, 1], weights=1.0 - s.values, minlength=s.n)
        return wins / np.bincount(s.pairs.ravel(), minlength=s.n)

    g = make_topology("power_law", 300)
    rng = np.random.default_rng(9)
    model = NoisySorting(rng.permutation(g.n), 0.3)
    samples = [
        observe(model, g, assign_random(g, rng), value_rng) for value_rng in (rng, None)
    ]
    uniform = rng.random(g.num_edges)  # non-dyadic values
    uniform.setflags(write=False)  # frozen, as observe leaves its values
    samples.append(sample_of_pairs(g.n, g.edges, uniform, g.degrees))
    for s in samples:
        assert empirical_scores(s).tobytes() == reference(s).tobytes()


def test_empirical_scores_rejects_unobserved_item():
    s = sample_of_pairs(3, [[0, 1]], np.array([1.0]), np.array([1, 1, 0]))
    with pytest.raises(ValueError, match="item 2"):
        empirical_scores(s)


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_observe_counts_are_the_recount_of_its_pairs(family, mode):
    kwargs = {"alpha": 0.5} if family == "regular_bipartite" else {}
    if family == "erdos_renyi":
        kwargs = {"p": 0.5, "rng": np.random.default_rng(1)}
    g = make_topology(family, 12, **kwargs)
    rng = np.random.default_rng(4)
    model = NoisySorting(identity_permutation(g.n), 0.3)
    s = observe(model, g, assign_random(g, rng), draws(mode, rng))
    assert s.pairs.dtype == np.int64 and s.pairs.flags.f_contiguous
    assert not s.pairs.flags.writeable and s.pairs is not s.pairs  # expanded on each access
    for a in (s.indptr, s.partners, s.counts):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert len(s.indptr) == g.n + 1 and s.num_pairs == len(s.partners) == g.num_edges
    assert np.array_equal(s.counts, np.bincount(s.pairs.ravel(), minlength=g.n))


def test_observe_counts_name_the_same_unobserved_item():
    g = make_topology("erdos_renyi", 12, p=0.2, rng=np.random.default_rng(3))
    assert g.degrees.tolist().count(0) == 1  # vertex 4 is isolated
    rng = np.random.default_rng(5)
    sigma = assign_random(g, rng)
    s = observe(NoisySorting(identity_permutation(12), 0.3), g, sigma, rng)
    recount = np.bincount(s.pairs.ravel(), minlength=12)
    assert np.array_equal(s.counts, recount)
    item = int(np.argmin(recount))
    assert sigma[item] == 4
    with pytest.raises(ValueError, match=f"item {item} has no observed comparisons"):
        empirical_scores(s)


def relabelling_cases():
    """Graphs observe must relabel exactly as the edge-list path did."""
    for family in GRAPH_FAMILIES:
        if family == "regular_bipartite":
            kwargs = [{"alpha": a} for a in (0.05, 0.3, 0.5, 1.0)]
        elif family == "erdos_renyi":
            kwargs = [{"p": 0.3, "rng": np.random.default_rng(4)}]
        else:
            kwargs = [{}]
        for kw in kwargs:
            yield make_topology(family, 64, **kw)
    rng = np.random.default_rng(12)
    iu = np.column_stack(np.triu_indices(40, k=1))
    e = iu[rng.random(len(iu)) < 0.4]
    flip = rng.random(len(e)) < 0.5
    e[flip] = e[flip][:, ::-1]
    yield make_graph(40, e[rng.permutation(len(e))])
    yield make_graph(6, [])  # edgeless
    yield make_graph(1, [])
    yield make_graph(2, [(1, 0)])
    # the key is int32 up to n = 2**15 and int64 beyond
    for n in (2**15 - 2, 2**15 + 2):
        for family, kw in (("path", {}), ("cycle", {}), ("star", {}), ("regular_bipartite", {"alpha": 0.3})):
            yield make_topology(family, n, **kw)


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_observe_relabels_the_rows_as_the_edge_list_did(mode):
    for k, g in enumerate(relabelling_cases()):
        rng = np.random.default_rng(k)
        sigma = assign_random(g, rng)
        models = [NoisySorting(rng.permutation(g.n), 0.3)]
        if 2 <= g.n <= 64:
            models.append(sample_sst_bands(g.n, rng))
        for m in models:
            got = observe(m, g, sigma, draws(mode, np.random.default_rng(k)))
            ref = observe_by_edge_list(m, g, sigma, draws(mode, np.random.default_rng(k)))
            assert got.pairs.flags.f_contiguous and ref.pairs.flags.f_contiguous
            for a, b in ((got.pairs, ref.pairs), (got.values, ref.values), (got.counts, ref.counts)):
                assert a.dtype == b.dtype and a.shape == b.shape, (g.family, g.n)
                assert a.tobytes("A") == b.tobytes("A"), (g.family, g.n)


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_observe_by_blocks_draws_the_one_shot_stream(monkeypatch, mode):
    # rng.random(a) then rng.random(b) draws the doubles of rng.random(a + b),
    # so a block edge anywhere in a row changes no value and no generator state
    block = 8
    monkeypatch.setattr(observation, "_BLOCK", block)
    edges = make_topology("complete", 12).edges  # rows of 11, 10, ... partners
    for size in (block - 1, block, block + 1, 3 * block - 1, 3 * block, 3 * block + 1):
        g = make_graph(12, edges[:size])
        for seed in range(3):
            rng = np.random.default_rng(seed)
            sigma = rng.permutation(12)
            for m in (NoisySorting(rng.permutation(12), 0.3), sample_sst_bands(12, rng)):
                got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = observe(m, g, sigma, draws(mode, got_rng))
                ref = observe_by_edge_list(m, g, sigma, draws(mode, ref_rng))
                assert got.num_pairs == size
                for a, b in (
                    (got.indptr, ref.indptr), (got.partners, ref.partners),
                    (got.values, ref.values), (got.counts, ref.counts),
                ):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (size, seed)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_observe_checks_the_last_block_before_any_draw(monkeypatch):
    monkeypatch.setattr(observation, "_BLOCK", 8)
    g = make_topology("complete", 12)  # 66 pairs: the last block holds two
    sigma = np.random.default_rng(0).permutation(12)
    m = sample_sst_bands(12, np.random.default_rng(1))
    i, j = observe(m, g, sigma, None).pairs[-1]
    m[i, j] = 1.5
    for mode in ("bernoulli", "expectation"):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape("entries must lie in [0, 1]")):
            observe(m, g, sigma, draws(mode, rng))
        assert rng.bit_generator.state == state, mode


def traced_peak(f, *args):
    tracemalloc.start()
    try:
        result = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_ns_asp_steps_allocate_few_edge_sized_arrays(mode):
    # peaks in units of one int64 per edge; an m-long bool mask alone is 1/8
    n = 2048
    g, peak = traced_peak(make_topology, "two_cliques", n)
    unit = 8 * g.num_edges
    assert peak < 128 * n  # O(n): the graph keeps its intervals, not its edges
    rng = np.random.default_rng(8)
    model = NoisySorting(identity_permutation(n), 0.2)
    s, peak = traced_peak(observe, model, g, assign_random(g, rng), draws(mode, rng))
    assert peak <= 2.3 * unit  # the partners and the values, and one block's temporaries
    _, peak = traced_peak(empirical_scores, s)
    assert peak < 1.05 * unit
    _, peak = traced_peak(asp_estimate, s)
    assert peak < 1.2 * unit


@pytest.mark.parametrize(
    "family,n,kwargs,bound",
    [
        ("regular_bipartite", 20000, {"alpha": 0.5}, 3.3),  # d = 100, m = 10**6
        ("erdos_renyi", 2048, {"p": 0.5}, 8.5),  # the n(n-1)/2 candidate pairs dominate
    ],
    ids=["regular_bipartite", "erdos_renyi"],
)
def test_sorted_by_construction_families_allocate_few_edge_sized_arrays(family, n, kwargs, bound):
    # peaks in units of one int64 per edge, as above: no key sort, no validating copy
    rng = np.random.default_rng(8)
    g, peak = traced_peak(lambda: make_topology(family, n, rng=rng, **kwargs))
    assert peak < bound * 8 * g.num_edges


def test_score_concentration_improves_with_n():
    lam = 0.25
    means = []
    for n in (50, 100, 200, 400):
        g = make_topology("complete", n)
        m = make_noisy_sorting(identity_permutation(n), lam)
        tau_star = scores(m)
        rng = np.random.default_rng(1000 + n)
        vals = []
        for _ in range(20):
            s = observe(m, g, assign_random(g, rng), rng)
            vals.append(np.abs(empirical_scores(s) - tau_star).sum() / n)
        means.append(np.mean(vals))
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_sample_matrix_view():
    g = make_topology("path", 4)
    m = make_noisy_sorting(identity_permutation(4), 0.1)
    s = observe(m, g, identity_permutation(4), None)
    y, observed = sample_matrix(s)
    assert np.array_equal(observed, adjacency_matrix(g))
    assert np.allclose(y + y.T, 1.0)
    assert np.all(y[~observed] == 0.5)
