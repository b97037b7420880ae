"""The tests' reference implementations.

Small permutation, matrix and graph helpers the tests compare against or
build inputs with, none of which the package itself calls (among them the
paper's inversion tables, which only its proofs use), and the exact
biso projections from the duals of isotonic regression.  The projections
are independent of ``project_biso``'s Dykstra sweeps: scipy's NNLS and BVLS
solve the dual, and each oracle returns its KKT residual so a caller can
certify the answer before comparing against it.
"""

import numpy as np
from scipy.optimize import lsq_linear, nnls

from paircomp import Graph, ObservationSample, check_permutation, make_graph


def reverse_permutation(n: int) -> np.ndarray:
    return np.arange(n - 1, -1, -1, dtype=np.int64)


def inversion_table(p) -> np.ndarray:
    """b[i] = number of items j > i ranked better than item i, counted on
    the n x n later-is-smaller mask."""
    p = np.asarray(p)
    n = len(p)
    later_is_smaller = p[:, None] > p[None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    return (later_is_smaller & upper).sum(axis=1).astype(np.int64)


def table_to_permutation(b) -> np.ndarray:
    """Inverse of :func:`inversion_table`."""
    t = np.asarray(b, dtype=np.int64)
    n = len(t)
    if np.any(t < 0) or np.any(t > np.arange(n - 1, -1, -1)):
        raise ValueError("table entry out of range {0, ..., n-i-1}")
    avail = list(range(n))
    ranks = np.empty(n, dtype=np.int64)
    for i in range(n):
        ranks[i] = avail.pop(int(t[i]))
    return ranks


def permute_matrix(m: np.ndarray, ranks) -> np.ndarray:
    """Conjugate rows and columns: result[i, j] = m[ranks[i], ranks[j]].

    With this convention make_noisy_sorting(pi, lam) equals
    permute_matrix(make_noisy_sorting(identity, lam), pi).
    """
    p = check_permutation(ranks)
    return m[np.ix_(p, p)]


def scores(m: np.ndarray) -> np.ndarray:
    """Per-item win probability against a uniformly random opponent."""
    n = m.shape[0]
    if n < 2:
        raise ValueError("scores need at least two items")
    return (m.sum(axis=1) - 0.5) / (n - 1)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense boolean adjacency matrix (built on demand)."""
    a = np.zeros((g.n, g.n), dtype=bool)
    u, v = g.edges.T
    a[u, v] = True
    a[v, u] = True
    return a


def lexsort_reference(pairs) -> np.ndarray:
    """Rows (min, max) of an (m, 2) integer array in lexicographic order, by a
    row sort and a two-key lexsort: column-major int64."""
    rows = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    return np.asfortranarray(rows[np.lexsort((rows[:, 1], rows[:, 0]))])


def sample_of_pairs(n: int, pairs, values, counts) -> ObservationSample:
    """A sample of lexicographically sorted pairs (i, j), i < j, in its row
    layout: offsets over the first column, and the second as the partners."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    indptr = np.searchsorted(pairs[:, 0], np.arange(n + 1))
    return ObservationSample(n, indptr, np.ascontiguousarray(pairs[:, 1]), values, counts)


def observe_by_edge_list(m, g: Graph, sigma, rng) -> ObservationSample:
    """observe's sample drawn over a materialised edge array: each edge
    relabelled through the inverse assignment, then sorted by
    lexsort_reference, not by the package's edge key.  No input is checked."""
    sigma = check_permutation(sigma)
    inv = np.empty(g.n, dtype=np.int64)
    inv[sigma] = np.arange(g.n)
    pairs = lexsort_reference(inv[g.edges])
    values = m[pairs[:, 0], pairs[:, 1]].astype(np.float64, copy=False)
    if rng is not None:
        np.less(rng.random(len(values)), values, out=values)
    return sample_of_pairs(g.n, pairs, values, g.degrees[sigma])


class InfeasibleDegreeSequenceError(ValueError):
    """Raised when a degree sequence admits no simple-graph realization."""


def havel_hakimi(degseq) -> Graph:
    """Realize a degree sequence as a simple graph, or fail.

    Vertex i of the returned graph has degree exactly degseq[i].  Raises
    :class:`InfeasibleDegreeSequenceError` (naming the step at which the
    greedy construction got stuck) when the sequence is not graphical.
    """
    seq = np.asarray(degseq, dtype=np.int64)
    n = len(seq)
    if n < 1:
        raise ValueError("empty degree sequence")
    if seq.min() < 1 or seq.max() > n - 1:
        raise ValueError("degrees must lie in [1, n-1]")
    if seq.sum() % 2 != 0:
        raise ValueError("degree sum must be even")

    remaining = seq.copy()
    edges: list[tuple[int, int]] = []
    for step in range(n):
        # highest remaining degree first; ties broken by vertex index
        order = np.lexsort((np.arange(n), -remaining))
        v = int(order[0])
        d = int(remaining[v])
        if d == 0:
            break
        targets = order[1 : d + 1]
        if len(targets) < d or remaining[targets[-1]] <= 0:
            raise InfeasibleDegreeSequenceError(
                f"not graphical: step {step} needs {d} partners for vertex {v}"
            )
        remaining[v] = 0
        remaining[targets] -= 1
        for u in targets:
            edges.append((v, int(u)))
    g = make_graph(n, edges)
    assert np.array_equal(g.degrees, seq)
    return g


def block_partition_labels_at_stride_t(values, t, upper):
    """block_partition's labels with every interval low floor(k t) below
    ceil(upper) built, k = 0, 1, ...: about ceil(upper) / t lows, however small t."""
    v = np.asarray(values, dtype=np.float64)
    lows = np.floor(np.arange(int(np.ceil(upper) / t) + 2) * t)
    lows = lows[: max(1, np.searchsorted(lows, upper))]
    return np.unique(np.searchsorted(lows, v, side="right"), return_inverse=True)[1]


def triangle_differences(n):
    """Strict upper triangle indices of an n x n grid and the matrix D of its
    constraints: D u >= 0 says rows nondecrease and columns nonincrease."""
    iu = np.triu_indices(n, 1)
    i, j = iu
    pos = np.zeros((n, n), dtype=np.int64)
    pos[iu] = np.arange(len(i))
    row, col = j + 1 < n, i + 1 < j
    lo = np.concatenate([pos[i[row], j[row]], pos[i[col] + 1, j[col]]])
    hi = np.concatenate([pos[i[row], j[row] + 1], pos[i[col], j[col]]])
    d = np.zeros((len(lo), len(i)))
    d[np.arange(len(lo)), lo] = -1.0
    d[np.arange(len(lo)), hi] = 1.0
    return iu, d


def biso_projection_by_nnls(x):
    """Exact projection from the NNLS dual of isotonic regression.

    On the strict upper triangle the biso set is 2-D isotonic regression
    (rows nondecreasing, columns nonincreasing) bounded to [1/2, 1], and the
    bounded fit is the unbounded one clipped.  With constraints D u >= 0 and
    target s, the unbounded fit is u = s + D^T lam, lam = argmin_{lam >= 0}
    ||D^T lam + s||.  Returns u, its KKT residual (primal infeasibility and
    complementarity; stationarity holds by construction) and the projection.
    """
    n = x.shape[0]
    iu, d = triangle_differences(n)
    s = np.clip(0.5 * (x - x.T + 1.0), 0.0, 1.0)[iu]
    lam = nnls(d.T, -s)[0] if len(d) else np.zeros(0)
    u = s + d.T @ lam
    slack = d @ u
    kkt = max(0.0, -slack.min(initial=0.0), np.abs(lam * slack).max(initial=0.0))
    out = np.full((n, n), 0.5)
    out[iu] = np.clip(u, 0.5, 1.0)
    out.T[iu] = 1.0 - out[iu]
    return u, kkt, out


def weighted_grid_projection_by_bvls(target, sizes):
    """Exact projection with groups of the given sizes, from the BVLS dual.

    target is the g x g grid of block values of t.  On its strict upper
    triangle, with weights w = s_a s_b and v = sqrt(w) u, the weighted fit is
    min 1/2 ||v - sqrt(w) t||^2 s.t. A v >= 0, A = D diag(1/sqrt(w)); its
    dual gives v = sqrt(w) t + A^T lam, lam = argmin_{lam >= 0}
    ||A^T lam + sqrt(w) t||.  Returns the KKT residual (primal infeasibility
    and complementarity) and the n x n projection.
    """
    g = len(sizes)
    iu, d = triangle_differences(g)
    sw = np.sqrt(np.outer(sizes, sizes)[iu].astype(np.float64))
    a = d / sw
    b = -sw * target[iu]
    lam = lsq_linear(a.T, b, bounds=(0, np.inf), method="bvls").x if len(d) else np.zeros(0)
    u = (a.T @ lam - b) / sw
    slack = d @ u
    kkt = max(0.0, -slack.min(initial=0.0), np.abs(lam * slack).max(initial=0.0))
    grid = np.full((g, g), 0.5)
    grid[iu] = np.clip(u, 0.5, 1.0)
    grid.T[iu] = 1.0 - grid[iu]
    lab = np.repeat(np.arange(g), sizes)
    return kkt, grid[np.ix_(lab, lab)]
