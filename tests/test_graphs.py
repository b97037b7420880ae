import math
import re
import tracemalloc

import numpy as np
import pytest

from paircomp import (
    GRAPH_FAMILIES,
    NoisySorting,
    degree_functional,
    identity_permutation,
    make_graph,
    make_topology,
    observe,
)
from paircomp.graphs import _interval_graph

from oracles import InfeasibleDegreeSequenceError, adjacency_matrix, havel_hakimi, lexsort_reference

ALL_FAMILIES = [
    ("complete", 9, {}),
    ("two_cliques", 10, {}),
    ("clique_plus_path", 12, {}),
    ("power_law", 14, {}),
    ("regular_bipartite", 12, {"alpha": 0.7}),
    ("star", 7, {}),
    ("path", 8, {}),
    ("cycle", 9, {}),
    ("erdos_renyi", 15, {"p": 0.4, "rng": np.random.default_rng(3)}),
]


def check_simple(g):
    assert g.edges.shape[1] == 2
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    seen = {tuple(e) for e in g.edges}
    assert len(seen) == g.num_edges
    # degree consistency against a direct recount
    recount = np.zeros(g.n, dtype=int)
    for u, v in g.edges:
        recount[u] += 1
        recount[v] += 1
    assert np.array_equal(recount, g.degrees)
    assert g.degrees.sum() == 2 * g.num_edges


@pytest.mark.parametrize("family,n,kwargs", ALL_FAMILIES)
def test_families_are_simple_graphs(family, n, kwargs):
    g = make_topology(family, n, **kwargs)
    check_simple(g)
    assert g.family == family


def test_two_cliques_counts():
    g = make_topology("two_cliques", 10)
    assert set(g.degrees.tolist()) == {4}
    assert g.num_edges == 20  # 2 * C(5, 2)


def test_complete_triangle():
    g = make_topology("complete", 3)
    assert sorted(map(tuple, g.edges)) == [(0, 1), (0, 2), (1, 2)]
    assert g.degrees.tolist() == [2, 2, 2]


def test_regular_bipartite_k44():
    g = make_topology("regular_bipartite", 8, alpha=1.0)
    assert g.num_edges == 16
    assert set(g.degrees.tolist()) == {4}
    # bipartite across the two halves: no edge inside a half
    assert np.all((g.edges[:, 0] < 4) & (g.edges[:, 1] >= 4))


@pytest.mark.parametrize("n,alpha", [(8, 0.3), (12, 0.5), (20, 1.0), (34, 0.8)])
def test_regular_bipartite_degree_formula(n, alpha):
    g = make_topology("regular_bipartite", n, alpha=alpha)
    d = max(1, int(np.floor((n / 2) ** alpha + 1e-9)))
    assert set(g.degrees.tolist()) == {d}
    assert np.all((g.edges[:, 0] < n // 2) & (g.edges[:, 1] >= n // 2))


def test_star_degrees():
    g = make_topology("star", 5)
    assert g.degrees.tolist() == [4, 1, 1, 1, 1]


def test_clique_plus_path_shape():
    n = 12
    g = make_topology("clique_plus_path", n)
    h = n // 2
    a = adjacency_matrix(g)
    # clique on the first half
    assert np.all(a[:h, :h][~np.eye(h, dtype=bool)])
    # chain h-1 -> h -> ... -> n-1
    assert a[h - 1, h]
    for v in range(h, n - 1):
        assert a[v, v + 1]
    deg_expected = [h - 1] * (h - 1) + [h] + [2] * (h - 1) + [1]
    assert g.degrees.tolist() == deg_expected


def test_power_law_degrees_match_adjusted_sequence():
    # adjusted staircase: d_i = i, minus one on the upper half (i is 1-based)
    for n in (2, 6, 9, 14, 25, 64):
        g = make_topology("power_law", n)
        i = np.arange(1, n + 1)
        assert np.array_equal(g.degrees, i - (2 * i > n))
        assert g.degrees.min() == 1
        assert g.degrees.max() == n - 1


def test_power_law_is_the_havel_hakimi_realization():
    # the closed-form half graph against the greedy construction it replaced
    for n in range(2, 301):
        i = np.arange(1, n + 1)
        greedy = havel_hakimi(i - (2 * i > n))
        assert np.array_equal(make_topology("power_law", n).edges, greedy.edges)


def test_even_n_required():
    for fam in ("two_cliques", "clique_plus_path", "regular_bipartite"):
        with pytest.raises(ValueError):
            make_topology(fam, 9, alpha=0.5)


def test_erdos_renyi_seeded_and_validated():
    g1 = make_topology("erdos_renyi", 20, p=0.3, rng=np.random.default_rng(11))
    g2 = make_topology("erdos_renyi", 20, p=0.3, rng=np.random.default_rng(11))
    assert np.array_equal(g1.edges, g2.edges)
    with pytest.raises(ValueError):
        make_topology("erdos_renyi", 20, p=0.3)  # rng required
    with pytest.raises(ValueError):
        make_topology("erdos_renyi", 20, p=1.5, rng=np.random.default_rng(0))


def test_havel_hakimi_examples():
    assert havel_hakimi([1, 1]).edges.tolist() == [[0, 1]]
    tri = havel_hakimi([2, 2, 2])
    assert sorted(map(tuple, tri.edges)) == [(0, 1), (0, 2), (1, 2)]
    k4 = havel_hakimi([3, 3, 3, 3])
    assert k4.num_edges == 6  # unique simple realization: K_4


def test_havel_hakimi_rejects_bad_sequences():
    with pytest.raises(ValueError):
        havel_hakimi([3, 1, 1])  # odd sum
    with pytest.raises(ValueError):
        havel_hakimi([4, 1, 1, 1])  # degree > n-1
    with pytest.raises(InfeasibleDegreeSequenceError):
        havel_hakimi([3, 3, 1, 1])  # even sum but not graphical


@pytest.mark.parametrize("family,n,kwargs", ALL_FAMILIES)
def test_degree_sequences_round_trip_through_havel_hakimi(family, n, kwargs):
    g = make_topology(family, n, **kwargs)
    if g.degrees.min() == 0:
        pytest.skip("realization requires positive degrees")
    h = havel_hakimi(g.degrees)
    assert np.array_equal(h.degrees, g.degrees)


def test_degree_functional_examples():
    assert degree_functional(make_topology("two_cliques", 10)) == pytest.approx(0.5)
    assert degree_functional(make_topology("complete", 5)) == pytest.approx(0.5)
    assert degree_functional(make_topology("star", 5)) == pytest.approx(0.9)


@pytest.mark.parametrize("family,n,kwargs", ALL_FAMILIES)
def test_degree_functional_matches_edge_resummation(family, n, kwargs):
    g = make_topology(family, n, **kwargs)
    if g.degrees.min() == 0:
        pytest.skip("isolated vertex")
    recount = np.zeros(g.n)
    for u, v in g.edges:
        recount[u] += 1
        recount[v] += 1
    direct = np.sum(1.0 / np.sqrt(recount)) / g.n
    assert abs(degree_functional(g) - direct) < 1e-12


def test_degree_functional_rejects_isolated():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        degree_functional(g)


def test_make_graph_validation():
    with pytest.raises(ValueError, match="self-loops"):
        make_graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        make_graph(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(ValueError, match="duplicate"):
        make_graph(4, [(2, 3), (0, 1), (3, 2), (1, 2)])  # unsorted input
    with pytest.raises(ValueError, match="duplicate"):
        make_graph(4, [(0, 1), (1, 2), (1, 2), (2, 3)])  # sorted, equal adjacent rows
    with pytest.raises(ValueError, match="out of range"):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        make_graph(3, [(-1, 2)])
    for bad in ([(0.5, 1.7), (1, 2)], [(0, np.inf)], [(0, np.nan)]):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            make_graph(3, bad)
    with pytest.raises(ValueError, match="out of range"):
        make_graph(3, [(0, 1e20)])  # integral, but past int64
    assert make_graph(3, [(2.0, 0.0)]).edges.tolist() == [[0, 2]]
    # any orientation and order in, rows (u, v) with u < v in lexicographic order out
    rng = np.random.default_rng(4)
    iu = np.triu_indices(9, k=1)
    edges = np.column_stack(iu)[rng.permutation(len(iu[0]))[:20]]
    flip = rng.random(20) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    g = make_graph(9, edges)
    assert g.edges.tolist() == sorted(sorted(e) for e in edges.tolist())


def test_only_make_topology_tags_a_family():
    # diagnostics trust a tag's closed form, so an edge list cannot claim one
    path = [(0, 1), (1, 2), (2, 3)]
    assert make_graph(4, path).family is None
    with pytest.raises(TypeError):
        make_graph(4, path, family="complete")


def test_edges_are_immutable():
    g = make_topology("path", 5)
    with pytest.raises(ValueError):
        g.edges[0, 0] = 3


def test_edges_expand_afresh_from_the_rows():
    # the arrays a Graph kept as its edges field, before it held intervals
    g = make_topology("regular_bipartite", 8, alpha=0.5)
    assert g.edges.tolist() == [[0, 4], [0, 5], [1, 5], [1, 6], [2, 6], [2, 7], [3, 4], [3, 7]]
    g = make_graph(6, [(5, 0), (2, 1), (3, 1), (1, 4), (4, 5)])
    assert g.edges.tolist() == [[0, 5], [1, 2], [1, 3], [1, 4], [4, 5]]
    assert (g.first.tolist(), g.last.tolist()) == ([5, 2, 5], [6, 5, 6])  # 1's partners: one run
    for family, n, kwargs in ALL_FAMILIES:
        g = make_topology(family, n, **kwargs)
        e = g.edges
        assert e.dtype == np.int64 and e.flags.f_contiguous and not e.flags.writeable
        again = g.edges
        assert again is not e and not np.shares_memory(again, e)
        assert np.array_equal(again, e)
        # vertex u's slots indptr[u]:indptr[u + 1] hold its rows' runs, in order
        runs = iter(zip(g.first.tolist(), g.last.tolist()))
        rows = []
        for u in range(n):
            while len(rows) < g.indptr[u + 1]:
                first, last = next(runs)
                rows += [[u, v] for v in range(first, last)]
        assert rows == e.tolist() and g.num_edges == len(rows), family


@pytest.mark.parametrize("family,n,kwargs", ALL_FAMILIES)
def test_edges_are_column_major_int64(family, n, kwargs):
    # each endpoint column is one contiguous array, whatever layout came in
    g = make_topology(family, n, **kwargs)
    rows = np.ascontiguousarray(g.edges[::-1])
    for h in (g, make_graph(n, rows), make_graph(n, rows.tolist())):
        assert h.num_edges >= 2
        assert h.edges.dtype == np.int64 and h.edges.flags.f_contiguous
        assert np.array_equal(h.edges, g.edges)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_sort_pairs_matches_lexsort(dtype):
    rng = np.random.default_rng(8)
    iu = np.column_stack(np.triu_indices(40, k=1))
    drawn = rng.integers(0, 50, size=(300, 2))
    rows = np.sort(drawn, axis=1)
    _, once = np.unique(rows, axis=0, return_index=True)
    once = np.sort(once[rows[once, 0] < rows[once, 1]])  # each pair's first draw, in draw order
    cases = [
        (1, np.zeros((0, 2))),
        (2, [(1, 0)]),
        (3, [(2, 1), (1, 0), (2, 0)]),
        (50, drawn[once]),
        (40, iu),  # already sorted
        (40, iu[:, ::-1]),  # sorted, reversed orientation
        (40, iu[rng.permutation(len(iu))]),  # shuffled
        (40, iu[::-1]),  # reversed order
    ]
    for n, pairs in cases:
        pairs = np.asarray(pairs).astype(dtype).reshape(-1, 2)
        out = make_graph(n, pairs).edges
        assert out.dtype == np.int64 and out.shape == pairs.shape
        assert np.array_equal(out, lexsort_reference(pairs)), n
    # the drawn pairs repeat and loop: the key sees both, loops first
    for n, pairs, msg in (
        (50, drawn, "self-loops"),
        (3, [(2, 1), (1, 1)], "self-loops"),
        (2, [(0, 1), (1, 0), (0, 1)], "duplicate edges"),
        (50, np.vstack([drawn[once], drawn[once[-1:], ::-1]]), "duplicate edges"),
    ):
        with pytest.raises(ValueError, match=msg):
            make_graph(n, np.asarray(pairs).astype(dtype))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_sort_pairs_matches_lexsort_at_the_key_width_boundary(dtype):
    # n = 2**15 is the last size with an int32 key (b = 15); from 2**15 + 1 on,
    # b = 16 and the key is int64: at n = 2**16 an int32 key would overflow
    rng = np.random.default_rng(9)
    for n in (2**15, 2**15 + 1, 2**16):
        top = n - 1
        near_top = rng.integers(n - 300, n, size=(400, 2))
        rows = np.sort(np.vstack([[(top, top - 1), (0, top), (top - 2, 5), (top, 1)], near_top]))
        rows = np.unique(rows[rows[:, 0] < rows[:, 1]], axis=0)  # valid input for make_graph
        pairs = rows[rng.permutation(len(rows))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        pairs = pairs.astype(dtype)
        g = make_graph(n, pairs)
        assert np.array_equal(g.edges, lexsort_reference(pairs)), n
        # observe packs the relabelled pairs (sigma[i], sigma[j]) = (u, v) into the same key
        model = NoisySorting(identity_permutation(n), 0.3)
        for sigma in (identity_permutation(n), np.arange(n)[::-1], rng.permutation(n)):
            inv = np.argsort(sigma)
            got = observe(model, g, sigma, None).pairs
            assert got.dtype == np.int64 and got.flags.f_contiguous
            assert np.array_equal(got, lexsort_reference(inv[pairs])), n
        with pytest.raises(ValueError, match="out of range"):
            make_graph(n, np.array([(0, n)], dtype=dtype))


def test_make_graph_range_check_sees_64_bit_endpoints():
    # cast to int32 first, 2**32 + 1 would wrap to the valid edge (0, 1)
    for big in (2**32 + 1, 2**33):
        with pytest.raises(ValueError, match="out of range"):
            make_graph(3, [(0, big)])
        with pytest.raises(ValueError, match="out of range"):
            make_graph(3, np.array([(big, 1)], dtype=np.int64))


def test_make_graph_accepts_only_pairs():
    for bad, shape in (
        ([(0, 1, 2), (1, 2, 3)], (2, 3)),
        ([0, 1, 2, 3], (4,)),
        ([0, 1, 2], (3,)),
        ([[(0, 1)]], (1, 1, 2)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"edges must have shape (m, 2), got {shape}")):
            make_graph(4, bad)
    for empty in ([], np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64)):
        g = make_graph(4, empty)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert g.degrees.tolist() == [0, 0, 0, 0]


BIPARTITE_ALPHAS = (0.1, 0.3, 0.5, 0.7, 1.0)

# u ~ v in each family built from vertex intervals; regular_bipartite's left
# u meets the d right vertices h + (u + j) % h, j < d
INTERVAL_FAMILIES = {
    "complete": lambda u, v, n: True,
    "two_cliques": lambda u, v, n: (u < n // 2) == (v < n // 2),
    "clique_plus_path": lambda u, v, n: max(u, v) < n // 2
    or (abs(u - v) == 1 and max(u, v) >= n // 2),
    "power_law": lambda u, v, n: u + v >= n - 1,
    "star": lambda u, v, n: min(u, v) == 0,
    "path": lambda u, v, n: abs(u - v) == 1,
    "cycle": lambda u, v, n: abs(u - v) == 1 or {u, v} == {0, n - 1},
    "regular_bipartite": lambda u, v, n, alpha: u < n // 2 <= v
    and (v - n // 2 - u) % (n // 2) < max(1, math.floor((n // 2) ** alpha + 1e-9)),
}


def family_kwargs(family):
    """The make_topology keyword sets a family's tests build it with."""
    if family == "regular_bipartite":
        return [{"alpha": a} for a in BIPARTITE_ALPHAS]
    if family == "erdos_renyi":
        return [{"p": p, "rng": np.random.default_rng(s)} for p in (0.05, 0.5, 1.0) for s in (0, 1)]
    return [{}]


@pytest.mark.parametrize("family", sorted(INTERVAL_FAMILIES))
def test_interval_families_match_adjacency_rule(family):
    rule = INTERVAL_FAMILIES[family]
    even = family in ("two_cliques", "clique_plus_path", "regular_bipartite")
    for kwargs in family_kwargs(family):
        for n in range(0, 41):
            if n < 2 or (even and (n < 4 or n % 2)) or (family == "cycle" and n < 3):
                msg = "an even n >= 4" if even else "n >= 3" if n == 2 else "n >= 2"
                with pytest.raises(ValueError, match=f"{family} requires {msg}"):
                    make_topology(family, n, **kwargs)
                continue
            ref = [(u, v) for u in range(n) for v in range(u + 1, n) if rule(u, v, n, **kwargs)]
            deg = np.zeros(n, dtype=np.int64)
            for u, v in ref:
                deg[u] += 1
                deg[v] += 1
            g = make_topology(family, n, **kwargs)
            assert g.edges.dtype == np.int64 and g.edges.flags.f_contiguous
            assert g.edges.tolist() == [list(e) for e in ref], (n, kwargs)
            assert np.array_equal(g.degrees, deg), (n, kwargs)


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_interval_families_equal_their_validated_build(family):
    # every family is sorted by construction; make_graph re-sorts and checks it
    even = family in ("two_cliques", "clique_plus_path", "regular_bipartite")
    for kwargs in family_kwargs(family):
        for n in (1023, 1024, 2048):
            if even and n % 2:
                continue
            g = make_topology(family, n, **kwargs)
            ref = make_graph(n, g.edges)
            assert g.family == family
            assert g.edges.dtype == ref.edges.dtype == np.int64
            assert g.degrees.dtype == ref.degrees.dtype == np.int64
            assert g.edges.flags.f_contiguous and ref.edges.flags.f_contiguous
            assert not g.edges.flags.writeable and not g.degrees.flags.writeable
            assert np.array_equal(g.edges, ref.edges), (n, kwargs)
            assert np.array_equal(g.degrees, ref.degrees), (n, kwargs)


def held_bytes(build):
    """What build() returns, and the bytes it still holds once it has returned."""
    tracemalloc.start()
    try:
        result = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_graphs_hold_at_most_16_bytes_per_edge(family):
    # an interval family holds O(n) bytes whatever its edge count; Erdos-Renyi
    # and outside edge lists at most one first/last pair of int64 per edge
    n = 2048
    if family == "erdos_renyi":
        cases, per_edge = [{"p": p, "rng": np.random.default_rng(5)} for p in (0.05, 0.5)], 16
    else:
        cases, per_edge = family_kwargs(family)[:1], 0
    for kwargs in cases:
        g, held = held_bytes(lambda: make_topology(family, n, **kwargs))
        assert held < per_edge * g.num_edges + 40 * n, kwargs
        # the same edges from outside, shuffled and flipped: one row per run of partners
        rng = np.random.default_rng(6)
        e = np.array(g.edges[rng.permutation(g.num_edges)])
        flip = rng.random(len(e)) < 0.5
        e[flip] = e[flip][:, ::-1]
        h, held = held_bytes(lambda: make_graph(n, e))
        assert held < 16 * h.num_edges + 40 * n, kwargs
        assert np.array_equal(h.edges, g.edges) and np.array_equal(h.degrees, g.degrees)


def test_make_graph_peaks_below_two_int64_per_edge():
    # the sorted key (int32 here) and, for the loop check, its two unpacked
    # endpoints: never (m, 2) int64 rows nor an (m, 2) bool comparison
    n = 2048
    g = make_topology("two_cliques", n)
    rng = np.random.default_rng(6)
    e = np.array(g.edges[rng.permutation(g.num_edges)])
    flip = rng.random(len(e)) < 0.5
    e[flip] = e[flip][:, ::-1]
    tracemalloc.start()
    try:
        h = make_graph(n, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 8 * g.num_edges
    assert np.array_equal(h.indptr, g.indptr) and np.array_equal(h.first, g.first)


def test_interval_graph_rejects_bad_intervals():
    u = np.arange(4)
    assert _interval_graph(4, u, u + 1, 4, "complete").num_edges == 6
    # a vertex may own several rows: the 4-cycle's closing edge is 0's second row
    cycle = _interval_graph(4, np.array([0, 0, 1, 2, 3]), [1, 3, 2, 3, 4], [2, 4, 3, 4, 4], "c4")
    assert cycle.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert cycle.degrees.tolist() == [2, 2, 2, 2]
    for owner, first, last in (
        (u, u, 4),  # first[u] == u: a self-loop
        (u, np.array([1, 3, 3, 4]), np.array([4, 2, 4, 4])),  # first[1] > last[1]
        (u, u + 1, np.array([4, 5, 4, 4])),  # last[1] past n
        (u, np.array([2, 1, 3, 4]), 4),  # first[1] == u
        (np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([3, 4, 4])),  # 0's rows overlap at 2
        (np.array([0, 0, 1]), np.array([2, 1, 2]), np.array([3, 2, 4])),  # 0's rows out of order
        (np.array([1, 0, 2]), np.array([2, 1, 3]), np.array([3, 2, 4])),  # owner decreases
        (np.array([0, 2, 2]), np.array([1, 2, 3]), np.array([2, 3, 4])),  # owner[1] == first[1]
        (np.array([-1, 0]), np.array([0, 1]), np.array([1, 2])),  # owner below 0
    ):
        with pytest.raises(ValueError, match="vertex intervals need"):
            _interval_graph(4, owner, first, last, "bad")
