import itertools
import tracemalloc

import numpy as np
import pytest

from paircomp import (
    NoisySorting,
    ObservationSample,
    adjacency_matrix,
    asp_estimate,
    assign_random,
    empirical_scores,
    identity_permutation,
    make_noisy_sorting,
    make_topology,
    GRAPH_FAMILIES,
    observe,
    sample_from_text,
    sample_matrix,
    sample_to_text,
    scores,
)


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
    s = observe(m, g, identity_permutation(3), "expectation")
    assert s.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert np.allclose(s.values, [0.9, 0.9, 0.9], atol=0)


def test_observe_bernoulli_values_are_binary():
    g = make_topology("two_cliques", 10)
    m = make_noisy_sorting(identity_permutation(10), 0.3)
    s = observe(m, g, identity_permutation(10), "bernoulli", np.random.default_rng(1))
    assert set(np.unique(s.values)).issubset({0.0, 1.0})
    assert s.num_pairs == 20


def test_observed_pairs_follow_assignment():
    g = make_topology("star", 6)
    m = make_noisy_sorting(identity_permutation(6), 0.2)
    rng = np.random.default_rng(5)
    sigma = assign_random(g, rng)
    s = observe(m, g, sigma, "expectation")
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
        observe(m, g, identity_permutation(4), "expectation")
    m4 = make_noisy_sorting(identity_permutation(4), 0.1)
    with pytest.raises(ValueError):
        observe(m4, g, identity_permutation(4), "bernoulli")  # rng required
    with pytest.raises(ValueError):
        observe(m4, g, identity_permutation(4), "nonsense")


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
        (_noisy_sorting_4({(2, 2): 0.6}), "diagonal entries must equal 1/2"),
        (_noisy_sorting_4({(0, 1): 0.9}), "skew constraint M + M^T = ee^T violated"),
    ],
    ids=["not-square", "outside-unit-interval", "diagonal", "skew"],
)
def test_observe_rejects_invalid_matrix(m, message):
    with pytest.raises(ValueError) as err:
        observe(m, make_topology("path", 4), identity_permutation(4), "expectation")
    assert str(err.value) == message


@pytest.mark.parametrize("mode", ["bernoulli", "expectation"])
def test_observe_noisy_sorting_model_matches_its_dense_matrix(mode):
    for family, n in (("two_cliques", 16), ("power_law", 33), ("cycle", 40)):
        g = make_topology(family, n)
        ranks = np.random.default_rng(n).permutation(n)
        sigma = assign_random(g, np.random.default_rng(1))
        a, b = (
            observe(m, g, sigma, mode, np.random.default_rng(2))
            for m in (NoisySorting(ranks, 0.3), make_noisy_sorting(ranks, 0.3))
        )
        assert np.array_equal(a.pairs, b.pairs)
        assert a.values.tobytes() == b.values.tobytes()
    with pytest.raises(ValueError):
        observe(NoisySorting(identity_permutation(5), 0.1), g, identity_permutation(40), mode)


def test_empirical_scores_expectation_equals_true_scores():
    g = make_topology("complete", 12)
    m = make_noisy_sorting(identity_permutation(12), 0.35)
    s = observe(m, g, identity_permutation(12), "expectation")
    assert np.allclose(empirical_scores(s), scores(m), atol=1e-15)


def test_empirical_scores_single_win_and_pairing_identity():
    # star with identity assignment: each leaf has exactly one comparison
    g = make_topology("star", 5)
    m = make_noisy_sorting(np.array([4, 0, 1, 2, 3]), 0.5)  # hub ranked last
    s = observe(m, g, identity_permutation(5), "expectation")
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
        observe(model, g, assign_random(g, rng), mode, rng) for mode in ("bernoulli", "expectation")
    ]
    uniform = rng.random(g.num_edges)  # non-dyadic values
    samples.append(ObservationSample(g.n, g.edges, uniform, identity_permutation(g.n)))
    samples += [sample_from_text(sample_to_text(s)) for s in samples]
    for s in samples:
        assert empirical_scores(s).tobytes() == reference(s).tobytes()


def test_empirical_scores_rejects_unobserved_item():
    s = ObservationSample(
        n=3,
        pairs=np.array([[0, 1]]),
        values=np.array([1.0]),
        assignment=identity_permutation(3),
    )
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
    s = observe(NoisySorting(identity_permutation(g.n), 0.3), g, assign_random(g, rng), mode, rng)
    assert s.pairs.dtype == np.int64 and s.pairs.flags.f_contiguous
    assert s.counts.dtype == np.int64 and not s.counts.flags.writeable
    assert np.array_equal(s.counts, np.bincount(s.pairs.ravel(), minlength=g.n))


def test_observe_counts_name_the_same_unobserved_item():
    g = make_topology("erdos_renyi", 12, p=0.2, rng=np.random.default_rng(3))
    assert g.degrees.tolist().count(0) == 1  # vertex 4 is isolated
    rng = np.random.default_rng(5)
    sigma = assign_random(g, rng)
    s = observe(NoisySorting(identity_permutation(12), 0.3), g, sigma, "bernoulli", rng)
    recount = np.bincount(s.pairs.ravel(), minlength=12)
    assert np.array_equal(s.counts, recount)
    item = int(np.argmin(recount))
    assert sigma[item] == 4
    with pytest.raises(ValueError, match=f"item {item} has no observed comparisons"):
        empirical_scores(s)


def test_sample_text_round_trip_keeps_counts_and_layout():
    g = make_topology("power_law", 10)
    rng = np.random.default_rng(6)
    m = make_noisy_sorting(identity_permutation(10), 0.2)
    s = observe(m, g, assign_random(g, rng), "bernoulli", rng)
    s2 = sample_from_text(sample_to_text(s))
    assert np.array_equal(s2.counts, s.counts)
    assert s2.pairs.dtype == np.int64 and s2.pairs.flags.f_contiguous
    assert np.array_equal(empirical_scores(s2), empirical_scores(s))


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
    assert peak < 3.05 * unit
    rng = np.random.default_rng(8)
    model = NoisySorting(identity_permutation(n), 0.2)
    s, peak = traced_peak(observe, model, g, assign_random(g, rng), mode, rng)
    assert peak < 4.05 * unit
    _, peak = traced_peak(empirical_scores, s)
    assert peak < 1.05 * unit
    _, peak = traced_peak(asp_estimate, s)
    assert peak < 1.2 * unit


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
            s = observe(m, g, assign_random(g, rng), "bernoulli", rng)
            vals.append(np.abs(empirical_scores(s) - tau_star).sum() / n)
        means.append(np.mean(vals))
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_sample_matrix_view():
    g = make_topology("path", 4)
    m = make_noisy_sorting(identity_permutation(4), 0.1)
    s = observe(m, g, identity_permutation(4), "expectation")
    y, observed = sample_matrix(s)
    assert np.array_equal(observed, adjacency_matrix(g))
    assert np.allclose(y + y.T, 1.0)
    assert np.all(y[~observed] == 0.5)


def test_sample_text_round_trip():
    g = make_topology("two_cliques", 8)
    m = make_noisy_sorting(identity_permutation(8), 0.2)
    rng = np.random.default_rng(3)
    s = observe(m, g, assign_random(g, rng), "bernoulli", rng)
    t = sample_to_text(s)
    s2 = sample_from_text(t)
    assert s2.n == s.n
    assert np.array_equal(s2.pairs, s.pairs)
    assert np.array_equal(s2.values, s.values)
    assert np.array_equal(s2.assignment, s.assignment)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty sample text"),
        ("\n  \n", "empty sample text"),
        ("3 2\n0 5 0.5\n2 1 7.0\n0,1\n", "line 2: pair \\(0, 5\\)"),
        ("3 2\n0 1 0.5\n2 1 0.5\n0,1,2\n", "line 3: pair \\(2, 1\\)"),
        ("3 2\n0 1 0.5\n1 1 0.5\n0,1,2\n", "line 3: pair \\(1, 1\\)"),
        ("3 2\n0 2 0.5\n0 1 0.5\n0,1,2\n", "line 3: pairs must be strictly increasing"),
        ("3 2\n0 1 0.5\n0 1 0.5\n0,1,2\n", "line 3: pairs must be strictly increasing"),
        ("3 2\n0 1 0.5\n\n0 2 7.0\n0,1,2\n", "line 4: value 7.0 outside"),
        ("3 2\n0 1 -0.5\n0 2 1\n0,1,2\n", "line 2: value -0.5 outside"),
        ("3 2\n0 1 nan\n0 2 1\n0,1,2\n", "line 2: value nan outside"),
        ("3 2\n0 1 0.5\n0 2 0.5\n0,1\n", "line 4: assignment must be a permutation"),
        ("3 2\n0 1 0.5\n0 2 0.5\n0,1,1\n", "line 4: assignment must be a permutation"),
        ("3 2\n0 1 0.5\n0 2 0.5\n0,1,2,3\n", "line 4: assignment must be a permutation"),
    ],
)
def test_sample_from_text_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        sample_from_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("5\n", "line 1: not enough values"),
        ("\n3 x\n0 1 0.5\n0,1,2\n", "line 2: invalid literal"),
        ("3 -1\n", "line 1: header promises -1 pairs"),
        ("3 1\n0 1 0.5\n0,1,2\n0,1,2\n", "line 1: header promises 1 pairs, found 2"),
        ("3 1\n0 1\n0,1,2\n", "line 2: not enough values"),
        ("3 1\n0 1 0.5 0.5\n0,1,2\n", "line 2: too many values"),
        ("3 1\n0 x 0.5\n0,1,2\n", "line 2: invalid literal"),
        ("3 1\n0 1.0 0.5\n0,1,2\n", "line 2: invalid literal"),
        ("3 1\n0 99999999999999999999 0.5\n0,1,2\n", "line 2: "),
        ("3 1\n0 1 half\n0,1,2\n", "line 2: could not convert"),
        ("3 1\n0 1 0.5\n\n0,a,2\n", "line 4: invalid literal"),
        ("3 1\n0 1 0.5\n0,1,\n", "line 3: invalid literal"),
    ],
)
def test_sample_from_text_names_the_line_of_every_parse_error(text, message):
    with pytest.raises(ValueError, match=message):
        sample_from_text(text)
