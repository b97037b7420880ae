"""Comparison-topology construction, validation, and degree statistics.

Graphs are simple and undirected, with vertices labelled 0..n-1.  Families
cover the topologies used in the scaling experiments (two disjoint cliques,
clique-plus-path, power-law half graph, regular bipartite) plus the
usual small benchmark graphs (star, path, cycle, complete, Erdos-Renyi).
Every family is sorted by construction; make_graph validates outside edge lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "make_graph",
    "make_topology",
    "sort_pairs",
    "degree_functional",
    "GRAPH_FAMILIES",
]

GRAPH_FAMILIES = (
    "complete",
    "two_cliques",
    "clique_plus_path",
    "power_law",
    "regular_bipartite",
    "star",
    "path",
    "cycle",
    "erdos_renyi",
)

_EVEN_N_FAMILIES = ("two_cliques", "clique_plus_path", "regular_bipartite")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.

    Attributes
    ----------
    n : int
        Vertex count.
    edges : ndarray of shape (m, 2)
        Unordered edges stored as rows (u, v) with u < v, lexicographically
        sorted.  Column-major int64, so each endpoint column is contiguous.
        Read-only.
    degrees : ndarray of shape (n,)
        Per-vertex edge counts.  Read-only.
    family : str or None
        Construction-family tag, when built by :func:`make_topology`.
        Lets diagnostics substitute closed forms for exact search.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray
    family: str | None = field(default=None, compare=False)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])


def make_graph(n: int, edges) -> Graph:
    """Validate an edge list and build an immutable, untagged :class:`Graph`."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    e = np.asarray(edges)
    if e.size and (e.ndim != 2 or e.shape[1] != 2):
        raise ValueError(f"edges must have shape (m, 2), got {e.shape}")
    if e.dtype.kind == "f" and not np.all(np.isfinite(e) & (e == np.floor(e))):
        raise ValueError("edge endpoints must be integers")
    with np.errstate(invalid="ignore"):  # a float past int64 casts out of range
        e = e.astype(np.int64, copy=False).reshape(-1, 2)
    if len(e) and (e.min() < 0 or e.max() >= n):  # before sort_pairs' key narrows them
        raise ValueError("edge endpoint out of range")
    e = sort_pairs(e, n)
    if np.any(e[:, 0] == e[:, 1]):
        raise ValueError("self-loops are not allowed")
    if np.any(np.all(e[1:] == e[:-1], axis=1)):
        raise ValueError("duplicate edges are not allowed")
    return _frozen_graph(n, e, np.bincount(e.ravel("K"), minlength=n))


def _frozen_graph(n: int, edges: np.ndarray, degrees: np.ndarray, family=None) -> Graph:
    edges.setflags(write=False)
    degrees.setflags(write=False)
    return Graph(n=n, edges=edges, degrees=degrees, family=family)


def _key_dtype(n: int):
    """Narrowest integer type holding sort_pairs' key over 0..n-1: 2b bits."""
    return np.int32 if 2 * max(1, (n - 1).bit_length()) < 31 else np.int64


def sort_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """Rows (min, max) of an (m, 2) int array over 0..n-1, in lexicographic order.

    Each row becomes one integer key, min(u, v) << b | max(u, v), where
    b = max(1, (n - 1).bit_length()) bits hold any vertex of 0..n-1, so the
    key orders rows lexicographically and one 1-D sort replaces a row sort
    plus a two-key lexsort.  The key is int32 while 2b < 31 (n <= 32768),
    halving the sort's traffic, else int64; rows come back int64,
    column-major.  Nothing is validated: endpoints must lie in 0..n-1, and
    make_graph checks them for outside edge lists.
    """
    b = max(1, (n - 1).bit_length())
    dtype = _key_dtype(n)
    key = np.minimum(pairs[:, 0], pairs[:, 1], dtype=dtype)
    hi = np.maximum(pairs[:, 0], pairs[:, 1], dtype=dtype)
    key <<= b
    key |= hi
    del hi  # one m-long array fewer under the unpacked copy
    key.sort()
    out = np.empty((len(key), 2), dtype=np.int64, order="F")
    np.right_shift(key, b, out=out[:, 0])
    np.bitwise_and(key, (1 << b) - 1, out=out[:, 1])
    return out


def _interval_graph(n: int, owner, first, last, family: str) -> Graph:
    """Graph of the edges owner[r]-v for first[r] <= v < last[r], checked in O(rows).

    A nondecreasing owner >= 0 with owner[r] < first[r] <= last[r] <= n, whose
    rows of one owner do not overlap (last[r] <= first[r + 1]), makes the edges
    in range, loop-free and strictly increasing, all that make_graph checks:
    no key sort, no recount.
    """
    last = np.broadcast_to(last, owner.shape)
    ok = (0 <= owner) & (owner < first) & (first <= last) & (last <= n)
    same = owner[1:] == owner[:-1]
    if not (np.all(ok) and np.all(np.where(same, last[:-1] <= first[1:], owner[:-1] < owner[1:]))):
        raise ValueError(f"{family}: vertex intervals need sorted rows owner < first <= last <= n")
    count = last - first
    # v's degree: its own rows' lengths, plus the intervals open at v
    degrees = np.cumsum(np.bincount(first, minlength=n + 1) - np.bincount(last, minlength=n + 1))
    degrees = degrees[:n]
    degrees += np.bincount(owner, weights=count, minlength=n).astype(np.int64)
    # row r's slots end at cumsum(count)[r], where v reaches last[r]
    shift = last - np.cumsum(count)
    e = np.empty((int(count.sum()), 2), dtype=np.int64, order="F")
    e[:, 0] = np.repeat(owner, count)
    e[:, 1] = np.repeat(shift, count)
    e[:, 1] += np.arange(len(e))
    return _frozen_graph(n, e, degrees, family)


def make_topology(
    family: str,
    n: int,
    *,
    alpha: float | None = None,
    p: float | None = None,
    rng: np.random.Generator | None = None,
) -> Graph:
    """Construct one of the named comparison-topology families.

    Parameters
    ----------
    family : str
        One of :data:`GRAPH_FAMILIES`.
    n : int
        Vertex count.  Must be even and >= 4 for two_cliques,
        clique_plus_path, and regular_bipartite.
    alpha : float, optional
        Regular-bipartite exponent in (0, 1]; each left vertex connects to
        max(1, floor((n/2)**alpha)) right vertices cyclically.
    p : float, optional
        Erdos-Renyi edge probability in (0, 1].
    rng : numpy Generator, optional
        Required for erdos_renyi only.
    """
    if family not in GRAPH_FAMILIES:
        raise ValueError(f"unknown graph family {family!r}")
    if family in _EVEN_N_FAMILIES:
        if n < 4 or n % 2 != 0:
            raise ValueError(f"{family} requires an even n >= 4, got n={n}")
    elif n < 2:
        raise ValueError(f"{family} requires n >= 2, got n={n}")

    h = n // 2
    owner = u = np.arange(n)  # one row per vertex, unless a family adds rows
    if family == "complete":
        first, last = u + 1, n
    elif family == "two_cliques":
        first, last = u + 1, np.where(u < h, h, n)
    elif family == "clique_plus_path":
        # path hangs off the last clique vertex, h - 1
        first, last = u + 1, np.where(u < h - 1, h, np.minimum(u + 2, n))
    elif family == "power_law":
        # The literal staircase d_i = i is not graphical (d_n = n exceeds n-1,
        # and capping at n-1 leaves duplicate near-universal degrees that
        # clash with the degree-1 vertex).  Subtracting 1 on the upper half
        # gives d_i = i - 1{2i > n} (i 1-based), graphical for every n while
        # keeping the linear profile.  Its realization is the half graph:
        # u < v are adjacent iff u + v >= n - 1, the same edge set Havel-Hakimi
        # builds from that sequence.
        first, last = np.maximum(u + 1, n - 1 - u), n
    elif family == "star":
        first, last = u + 1, np.where(u == 0, n, u + 1)
    elif family == "path":
        first, last = u + 1, np.minimum(u + 2, n)
    elif family == "cycle":
        if n < 3:
            raise ValueError(f"cycle requires n >= 3, got n={n}")
        # path's rows, plus the closing edge 0-(n-1) as vertex 0's second row
        owner = np.insert(u, 1, 0)
        first = np.insert(u + 1, 1, n - 1)
        last = np.insert(np.minimum(u + 2, n), 1, n)
    elif family == "regular_bipartite":
        if alpha is None or not 0.0 < alpha <= 1.0:
            raise ValueError("regular_bipartite requires alpha in (0, 1]")
        d = max(1, int(math.floor(h**alpha + 1e-9)))
        # left u meets h + (u + j) % h for j < d: h + u .. h + min(u + d, h) - 1,
        # after the wrapped block h .. u + d - 1 when u + d > h
        u = np.arange(h)
        wrap = u[h - d + 1 :]
        owner = np.insert(u, wrap, wrap)
        first = np.insert(h + u, wrap, h)
        last = np.insert(h + np.minimum(u + d, h), wrap, wrap + d)
    else:  # erdos_renyi
        if p is None or not 0.0 < p <= 1.0:
            raise ValueError("erdos_renyi requires p in (0, 1]")
        if rng is None:
            raise ValueError("erdos_renyi requires a seeded generator")
        # triu_indices lists the pairs u < v in lexicographic order: no sort, no check
        iu = np.triu_indices(n, k=1)
        keep = rng.random(len(iu[0])) < p
        e = np.empty((int(np.count_nonzero(keep)), 2), dtype=np.int64, order="F")
        e[:, 0] = iu[0][keep]
        e[:, 1] = iu[1][keep]
        return _frozen_graph(n, e, np.bincount(e.ravel("K"), minlength=n), family)
    return _interval_graph(n, owner, first, last, family)


def degree_functional(g: Graph) -> float:
    """(1/n) * sum over vertices of 1/sqrt(degree); in (0, 1]."""
    if g.degrees.min() == 0:
        v = int(np.argmin(g.degrees))
        raise ValueError(f"vertex {v} is isolated; degree functional undefined")
    return float(np.sum(1.0 / np.sqrt(g.degrees)) / g.n)
