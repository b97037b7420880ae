import itertools
import json
import tracemalloc

import numpy as np
import pytest

from paircomp import (
    GRAPH_FAMILIES,
    SearchBudgetError,
    adjacency_matrix,
    adversarial_pair,
    kt_distance,
    make_graph,
    make_noisy_sorting,
    make_topology,
    max_biclique_complement,
    max_independent_set,
    minimax_lower_bound,
    report_to_json,
    report_to_text,
)
from paircomp import diagnostics


def dense(m):
    """The n x n matrix of a NoisySorting model."""
    return make_noisy_sorting(m.ranks, m.lam)


def alpha_bruteforce(g):
    """Oracle: exhaustive subset enumeration."""
    a = adjacency_matrix(g)
    best = 0
    for r in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), r):
            if not any(a[u, v] for u, v in itertools.combinations(subset, 2)):
                return r
    return best


def beta_bruteforce(g):
    """Oracle: all disjoint subset pairs (ternary assignment)."""
    a = adjacency_matrix(g)
    best = 0
    for assignment in itertools.product((0, 1, 2), repeat=g.n):
        v1 = [i for i, s in enumerate(assignment) if s == 1]
        v2 = [i for i, s in enumerate(assignment) if s == 2]
        if not v1 or not v2:
            continue
        if any(a[u, v] for u in v1 for v in v2):
            continue
        best = max(best, len(v1) * len(v2))
    return best


SMALL_GRAPHS = [
    make_topology("star", 5),
    make_topology("star", 8),
    make_topology("path", 6),
    make_topology("path", 9),
    make_topology("cycle", 7),
    make_topology("cycle", 8),
    make_topology("complete", 6),
    make_topology("two_cliques", 6),
    make_topology("two_cliques", 8),
    make_topology("erdos_renyi", 9, p=0.35, rng=np.random.default_rng(0)),
    make_topology("erdos_renyi", 8, p=0.6, rng=np.random.default_rng(1)),
    make_graph(4, []),  # edgeless
]


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"{g.family}-{g.n}")
def test_alpha_matches_bruteforce(g):
    size, witness = max_independent_set(g)
    assert size == alpha_bruteforce(g)
    a = adjacency_matrix(g)
    assert len(witness) == size
    assert not any(a[u, v] for u, v in itertools.combinations(witness, 2))


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"{g.family}-{g.n}")
def test_beta_matches_bruteforce(g):
    value, (v1, v2) = max_biclique_complement(g)
    assert value == beta_bruteforce(g)
    a = adjacency_matrix(g)
    assert len(v1) * len(v2) == value
    assert not set(v1) & set(v2)
    assert not any(a[u, v] for u in v1 for v in v2)


def biclique_dfs_reference(g, budget=diagnostics.BICLIQUE_BUDGET):
    """Oracle: recursive include-first DFS; its witness is the first optimum in preorder."""
    if g.n > budget:
        raise SearchBudgetError(
            f"exact biclique search budget is n <= {budget}, got n={g.n}"
        )
    nbr = diagnostics._neighbor_masks(g)
    full = (1 << g.n) - 1
    best = 0
    best_parts = (0, 0)

    def expand(v: int, part1: int, size1: int, avail: int) -> None:
        nonlocal best, best_parts
        if size1 > 0:
            score = size1 * avail.bit_count()
            if score > best:
                best, best_parts = score, (part1, avail)
        remaining = g.n - v
        if v >= g.n or (size1 + remaining) * avail.bit_count() <= best:
            return
        bit = 1 << v
        expand(v + 1, part1 | bit, size1 + 1, avail & ~bit & ~nbr[v])
        expand(v + 1, part1, size1, avail)

    expand(0, 0, 0, full)
    v1 = tuple(v for v in range(g.n) if best_parts[0] >> v & 1)
    v2 = tuple(v for v in range(g.n) if best_parts[1] >> v & 1)
    return best, (v1, v2)


def _tagged_graphs():
    for family in GRAPH_FAMILIES:
        if family == "erdos_renyi":
            continue
        for alpha in (0.3, 0.5) if family == "regular_bipartite" else (None,):
            for n in range(2, diagnostics.BICLIQUE_BUDGET + 1):
                try:
                    yield make_topology(family, n, alpha=alpha)
                except ValueError:  # n outside the family's domain
                    continue


def _random_graphs():
    yield make_graph(1, [])
    for n in range(2, diagnostics.BICLIQUE_BUDGET + 1):
        for p in (0.1, 0.3, 0.5, 0.8):
            for seed in range(3):
                yield make_topology("erdos_renyi", n, p=p, rng=np.random.default_rng(seed))


def _edgeless_and_complete_graphs():
    for n in range(1, 13):  # edgeless: every split ties, the search is widest
        yield make_graph(n, [])
    for n in range(2, diagnostics.BICLIQUE_BUDGET + 1):
        yield make_topology("complete", n)


@pytest.mark.parametrize(
    "graphs", [_tagged_graphs, _random_graphs, _edgeless_and_complete_graphs],
    ids=["tagged", "erdos_renyi", "edgeless-complete"],
)
def test_beta_search_matches_dfs_reference(graphs):
    checked = 0
    for g in graphs():
        expected = biclique_dfs_reference(g)
        assert max_biclique_complement(g) == expected, (g.family, g.n, g.edges.tolist())
        checked += 1
    assert checked >= 19


def _biclique_score(g, v1):
    a = adjacency_matrix(g)
    return len(v1) * sum(v not in v1 and not a[v, list(v1)].any() for v in range(g.n))


# graphs where several V1 reach beta; the witness is the first in
# include-first depth-first preorder, and `other` is a tie that is not
TIE_CASES = {
    # {1} is found a level earlier and has the smaller mask, but {0, 2}
    # includes vertex 0 and so comes first
    "disjoint-optima-n3": (make_graph(3, [(0, 2)]), (2, ((0, 2), (1,))), (1,)),
    "disjoint-optima-n6": (make_graph(6, [(0, 5)]), (9, ((0, 1, 5), (2, 3, 4))), (1, 2, 3)),
    # {0, 1, 3} has the smaller mask; {0, 1, 2, 5} includes vertex 2 first
    "include-before-smaller-mask-n7": (
        make_graph(7, [(2, 5)]), (12, ((0, 1, 2, 5), (3, 4, 6))), (0, 1, 3)
    ),
    # the ancestor V1 ties with its descendant and comes first
    "ancestor-tie-edgeless-n3": (make_graph(3, []), (2, ((0,), (1, 2))), (0, 1)),
    "ancestor-tie-n7": (
        make_graph(7, [(0, 1), (2, 3), (2, 4), (3, 4)]),
        (12, ((0, 1, 5), (2, 3, 4, 6))),
        (0, 1, 5, 6),
    ),
}


@pytest.mark.parametrize("g,expected,other", TIE_CASES.values(), ids=TIE_CASES.keys())
def test_beta_witness_is_first_tie_in_dfs_order(g, expected, other):
    beta, (v1, _) = expected
    assert _biclique_score(g, v1) == _biclique_score(g, other) == beta
    assert biclique_dfs_reference(g) == expected
    assert max_biclique_complement(g) == expected


def lexicographic_optima(g):
    """Oracle: every vertex subset; the lexicographically smallest optimum of
    alpha and of beta (smallest V1, V2 its available set, ((), ()) at 0)."""
    nbr = diagnostics._neighbor_masks(g)
    subsets = [s for r in range(g.n + 1) for s in itertools.combinations(range(g.n), r)]
    independent = [
        s for s in subsets if not any(nbr[u] >> v & 1 for u, v in itertools.combinations(s, 2))
    ]
    alpha = max(map(len, independent))
    ind = min(s for s in independent if len(s) == alpha)

    def available(v1):
        blocked = 0
        for v in v1:
            blocked |= 1 << v | nbr[v]
        return tuple(v for v in range(g.n) if not blocked >> v & 1)

    scored = [(len(v1) * len(available(v1)), v1) for v1 in subsets if v1]
    beta = max((score for score, _ in scored), default=0)
    if beta == 0:
        return (alpha, ind), (0, ((), ()))
    v1 = min(v1 for score, v1 in scored if score == beta)
    return (alpha, ind), (beta, (v1, available(v1)))


def test_searches_and_closed_forms_return_lexicographically_smallest_optimum():
    checked = closed_checked = 0
    for graphs in (_tagged_graphs, _random_graphs, _edgeless_and_complete_graphs):
        for g in (g for g in graphs() if g.n <= 10):
            expected = lexicographic_optima(g)
            where = (g.family, g.n, g.edges.tolist())
            assert (max_independent_set(g), max_biclique_complement(g)) == expected, where
            closed = diagnostics._closed_form_witnesses(g)
            if closed is not None:
                assert closed == expected, where
                closed_checked += 1
            checked += 1
    assert (checked, closed_checked) == (188, 48)


def test_examples():
    size, witness = max_independent_set(make_topology("star", 5))
    assert size == 4 and set(witness) == {1, 2, 3, 4}
    assert max_independent_set(make_topology("complete", 5))[0] == 1
    assert max_independent_set(make_topology("path", 6))[0] == 3

    assert max_biclique_complement(make_topology("two_cliques", 10))[0] == 25
    assert max_biclique_complement(make_topology("complete", 7))[0] == 0
    assert max_biclique_complement(make_graph(4, []))[0] == 4


def test_budget_errors():
    with pytest.raises(SearchBudgetError):
        max_independent_set(make_graph(33, [(0, 1)]))
    with pytest.raises(SearchBudgetError):
        max_biclique_complement(make_graph(21, [(0, 1)]))


def test_search_limits_are_constants():
    g = make_topology("complete", 8)
    with pytest.raises(TypeError):
        max_independent_set(g, budget=100)
    with pytest.raises(TypeError):
        max_biclique_complement(g, budget=100)


CLOSED_FORMS = [
    ("star", lambda n: n - 1, lambda n: ((n - 1) // 2) * ((n - 1) - (n - 1) // 2)),
    ("path", lambda n: (n + 1) // 2, lambda n: ((n - 1) // 2) * ((n - 1) - (n - 1) // 2)),
    ("cycle", lambda n: n // 2, lambda n: ((n - 2) // 2) * ((n - 2) - (n - 2) // 2)),
    ("complete", lambda n: 1, lambda n: 0),
    ("two_cliques", lambda n: 2, lambda n: (n // 2) ** 2),
]


@pytest.mark.parametrize("family,alpha_formula,beta_formula", CLOSED_FORMS)
def test_closed_forms_match_exact_search(family, alpha_formula, beta_formula):
    # the report takes the closed forms; the exact searches are the oracle
    first, step = {"cycle": (3, 1), "two_cliques": (4, 2)}.get(family, (2, 1))
    for n in range(first, diagnostics.INDEPENDENT_SET_BUDGET + 1, step):
        g = make_topology(family, n)
        report = minimax_lower_bound(g)
        assert (report.alpha, report.beta_complement) == (alpha_formula(n), beta_formula(n))
        assert max_independent_set(g) == (report.alpha, report.independent_set)
        if n <= diagnostics.BICLIQUE_BUDGET:
            assert max_biclique_complement(g) == (report.beta_complement, report.biclique)


@pytest.mark.parametrize("family,alpha_formula,beta_formula", CLOSED_FORMS)
def test_closed_form_witnesses_valid_past_budget(family, alpha_formula, beta_formula):
    for n in (34, 64, 102) if family == "two_cliques" else (33, 64, 101):
        g = make_topology(family, n)
        a = adjacency_matrix(g)
        report = minimax_lower_bound(g)
        ind = report.independent_set
        v1, v2 = report.biclique
        assert report.alpha == len(ind) == alpha_formula(n)
        assert not any(a[u, v] for u, v in itertools.combinations(ind, 2))
        assert not set(v1) & set(v2)
        assert not any(a[u, v] for u in v1 for v in v2)
        assert report.beta_complement == len(v1) * len(v2) == beta_formula(n)


class SearchReached(Exception):
    pass


def test_closed_form_families_skip_exact_search(monkeypatch):
    def search(g, budget=None):
        raise SearchReached(g.family)

    monkeypatch.setattr(diagnostics, "max_independent_set", search)
    monkeypatch.setattr(diagnostics, "max_biclique_complement", search)
    for family in ("star", "path", "cycle", "two_cliques"):
        g = make_topology(family, 8)
        minimax_lower_bound(g)
        for mode in ("independent_set", "biclique"):
            adversarial_pair(g, mode)
    complete = make_topology("complete", 8)
    assert minimax_lower_bound(complete).alpha == 1
    for mode in ("independent_set", "biclique"):
        with pytest.raises(ValueError):  # alpha = 1 and beta = 0 give no pair
            adversarial_pair(complete, mode)
    with pytest.raises(SearchReached):
        minimax_lower_bound(make_topology("clique_plus_path", 8))
    with pytest.raises(SearchReached):
        adversarial_pair(make_topology("clique_plus_path", 8), "biclique")


def test_one_closed_form_lookup_per_report_and_pair(monkeypatch):
    calls = []
    lookup = diagnostics._closed_form_witnesses
    monkeypatch.setattr(
        diagnostics, "_closed_form_witnesses", lambda g: calls.append(g) or lookup(g)
    )
    for g in (make_topology("star", 8), make_topology("clique_plus_path", 8)):
        for call in (
            lambda: minimax_lower_bound(g),
            lambda: adversarial_pair(g, "independent_set"),
            lambda: adversarial_pair(g, "biclique"),
        ):
            calls.clear()
            call()
            assert len(calls) == 1


def test_isolated_vertex_raises_before_any_search(monkeypatch):
    def search(g, budget=None):
        raise AssertionError("exact search ran on a graph with an isolated vertex")

    monkeypatch.setattr(diagnostics, "max_independent_set", search)
    monkeypatch.setattr(diagnostics, "max_biclique_complement", search)
    with pytest.raises(ValueError, match="vertex 2 is isolated; degree functional undefined"):
        minimax_lower_bound(make_graph(5, [(0, 1)]))


def test_closed_forms_kick_in_past_budget():
    # large graphs work through the family closed forms
    r = minimax_lower_bound(make_topology("star", 100))
    assert r.alpha == 99
    assert r.beta_complement == 49 * 50
    r = minimax_lower_bound(make_topology("two_cliques", 64))
    assert r.alpha == 2 and r.beta_complement == 1024
    with pytest.raises(SearchBudgetError):
        minimax_lower_bound(make_topology("regular_bipartite", 64, alpha=1.0))


def test_minimax_lower_bound_examples():
    assert minimax_lower_bound(make_topology("star", 5)).minimax_lb == pytest.approx(0.12)
    assert minimax_lower_bound(make_topology("complete", 9)).minimax_lb == 0.0
    assert minimax_lower_bound(make_topology("two_cliques", 10)).minimax_lb == pytest.approx(
        0.0625
    )


def test_adversarial_pair_star_independent_set():
    g = make_topology("star", 4)
    pair = adversarial_pair(g, "independent_set")
    a = adjacency_matrix(g)
    m1, m2 = dense(pair.m1), dense(pair.m2)
    assert np.array_equal(m1[a], m2[a])  # agree on all 3 star edges
    d = m1 - m2
    assert (d * d).sum() == pytest.approx(1.5)  # 8 * (1/4)^2 * KT with KT = 3
    kt = kt_distance(pair.m1.ranks, pair.m2.ranks)
    alpha = 3
    assert 2 * kt == alpha * (alpha - 1)


def test_adversarial_pair_two_cliques_biclique():
    g = make_topology("two_cliques", 6)
    pair = adversarial_pair(g, "biclique")
    a = adjacency_matrix(g)
    m1, m2 = dense(pair.m1), dense(pair.m2)
    assert np.array_equal(m1[a], m2[a])  # agree on all 6 intra-clique edges
    kt = kt_distance(pair.m1.ranks, pair.m2.ranks)
    beta = max_biclique_complement(g)[0]
    # a full block swap inverts every cross pair: KT equals beta itself
    assert kt == beta == 9
    d = m1 - m2
    assert (d * d).sum() == pytest.approx(8 * pair.m1.lam**2 * kt, abs=1e-12)


def test_adversarial_pair_identities_random_graphs():
    for seed in range(5):
        g = make_topology("erdos_renyi", 10, p=0.3, rng=np.random.default_rng(seed))
        for mode in ("independent_set", "biclique"):
            try:
                pair = adversarial_pair(g, mode)
            except ValueError:
                continue  # witness too small for this graph
            u, v = g.edges.T  # both models read at the edges, neither densified
            assert np.array_equal(pair.m1[u, v], pair.m2[u, v])
            assert pair.m1.lam == pair.m2.lam == diagnostics.ADVERSARIAL_LAMBDA
            kt = kt_distance(pair.m1.ranks, pair.m2.ranks)
            d = dense(pair.m1) - dense(pair.m2)
            assert abs((d * d).sum() - 8 * pair.m1.lam**2 * kt) < 1e-12


@pytest.mark.parametrize("family", ["star", "two_cliques", "path"])
def test_adversarial_pair_allocates_no_dense_matrix(family):
    # two n x n float matrices would be 256 MiB at n = 4096
    g = make_topology(family, 4096)
    for mode in ("independent_set", "biclique"):
        tracemalloc.start()
        try:
            pair = adversarial_pair(g, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (mode, peak)
        assert pair.m1.ranks.shape == pair.m2.ranks.shape == (4096,)


def test_adversarial_pair_domain_errors():
    with pytest.raises(ValueError):
        adversarial_pair(make_topology("complete", 6), "biclique")
    with pytest.raises(ValueError):
        adversarial_pair(make_topology("complete", 6), "independent_set")
    with pytest.raises(ValueError):
        adversarial_pair(make_topology("star", 6), "nonsense")
    with pytest.raises(TypeError):  # the noise gap is ADVERSARIAL_LAMBDA, not a setting
        adversarial_pair(make_topology("star", 6), "independent_set", lam=0.3)


def test_asp_incurs_lower_bound_on_random_graphs():
    # infinite-sample worst-case: with the truth drawn from a certificate
    # pair, any estimator reading only the edges errs; check ASP concretely
    from paircomp import asp_estimate, frobenius_error, identity_permutation, observe

    checked = 0
    for seed in range(12):
        g = make_topology("erdos_renyi", 12, p=0.35, rng=np.random.default_rng(seed))
        if g.degrees.min() == 0:
            continue
        report = minimax_lower_bound(g)
        if report.minimax_lb <= 0:
            continue
        worst = 0.0
        for mode in ("independent_set", "biclique"):
            try:
                pair = adversarial_pair(g, mode)
            except ValueError:
                continue
            for truth in (pair.m1, pair.m2):
                s = observe(truth, g, identity_permutation(g.n), "expectation")
                worst = max(worst, frobenius_error(dense(asp_estimate(s)), dense(truth)))
        checked += 1
        assert worst >= report.minimax_lb - 1e-12
    assert checked >= 8


def test_report_serialization():
    r = minimax_lower_bound(make_topology("two_cliques", 8))
    text = report_to_text(r)
    assert "alpha = 2" in text
    assert "beta_complement = 16" in text
    assert "adversarial_lambda = 0.25" in text
    blob = json.loads(report_to_json(r))
    assert blob["alpha"] == 2
    assert blob["minimax_lb"] == pytest.approx(16 / (4 * 64))
    assert blob["adversarial_lambda"] == 0.25
    assert blob["biclique"][0] == [0, 1, 2, 3]
