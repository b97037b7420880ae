"""Comparison-topology construction, validation, and degree statistics.

Graphs are simple and undirected, with vertices labelled 0..n-1.  Families
cover the topologies used in the scaling experiments (two disjoint cliques,
clique-plus-path, power-law half graph, regular bipartite) plus the
usual small benchmark graphs (star, path, cycle, complete, Erdos-Renyi).
Every family is sorted by construction; make_graph validates outside edge lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import _block_column, _invert, _spans

__all__ = [
    "Graph",
    "make_graph",
    "make_topology",
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph, held as neighbour intervals.

    Vertex u's edges to higher vertices are slots indptr[u]:indptr[u + 1] of
    the sorted edge list.  Their partners are stored as rows r, each a
    nonempty run first[r] <= v < last[r], listed in vertex order.  So a
    family built from intervals costs O(n) bytes, and an outside edge list
    at most 16 bytes per edge (each run of consecutive partners is one row).

    Attributes
    ----------
    n : int
        Vertex count.
    indptr : ndarray of shape (n + 1,)
        Per-vertex offsets into the sorted edge list.  Read-only.
    first, last : ndarray of shape (rows,)
        Each row's partner interval.  Read-only.
    degrees : ndarray of shape (n,)
        Per-vertex edge counts.  Read-only.
    family : str or None
        Construction-family tag, when built by :func:`make_topology`.
        Lets diagnostics substitute closed forms for exact search.
    """

    n: int
    indptr: np.ndarray
    first: np.ndarray
    last: np.ndarray
    degrees: np.ndarray
    family: str | None = None

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    @property
    def edges(self) -> np.ndarray:
        """Edges (u, v) with u < v as rows of an (m, 2) array, lexicographically
        sorted: column-major int64, read-only, expanded afresh on each access."""
        e = np.empty((self.num_edges, 2), dtype=np.int64, order="F")
        for at, u, v in self._blocks(np.arange(self.n)):
            e[at, 0], e[at, 1] = u, v
        e.setflags(write=False)
        return e

    def _blocks(self, label: np.ndarray):
        """Per block of the sorted edges u-v: its slice, and fresh columns label[u] and
        label[v] there, of label's dtype, so no caller builds an edge-sized column."""
        count = self.last - self.first
        rowptr = np.zeros(len(count) + 1, dtype=np.int64)
        np.cumsum(count, out=rowptr[1:])
        shift = rowptr[:-1] - self.first  # slot k of row r holds the partner k - shift[r]
        for lo, hi in _spans(self.num_edges):
            v = np.arange(lo, hi)
            v -= _block_column(rowptr, shift, lo, hi)
            yield slice(lo, hi), _block_column(self.indptr, label, lo, hi), label[v]

    def _rows(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Item rows under a checked permutation sigma: item i's partners j > i, those
        whose vertices sigma[i], sigma[j] share an edge, are partners[indptr[i]:indptr[i + 1]]
        in ascending order.  indptr (n + 1 offsets) and partners are int64."""
        # each block's item pairs inv[u], inv[v] pack into its keys and are dropped;
        # the keys fill the front of the partners' own int64 buffer
        inv = _invert(sigma, _key_dtype(self.n))
        partners = np.empty(self.num_edges, dtype=np.int64)
        key = partners.view(inv.dtype)[: self.num_edges]
        for at, a, b in self._blocks(inv):
            _pair_key(a, b, self.n, out=key[at])
        key.sort()
        bits = _key_bits(self.n)
        # item i's keys start at the first key >= i << b: no column of first items
        indptr = np.searchsorted(key, np.arange(self.n + 1, dtype=key.dtype) << bits)
        # unpacked in place, last block first: block k's int64 slots hold the int32 keys
        # of blocks 2k and 2k + 1, read by then for k > 0, and numpy copies block 0's
        # keys before it overwrites them
        for lo, hi in reversed(_spans(self.num_edges)):
            np.bitwise_and(key[lo:hi], (1 << bits) - 1, out=partners[lo:hi])
        return indptr, partners


def make_graph(n: int, edges) -> Graph:
    """Validate an edge list and build an immutable, untagged :class:`Graph`."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    e = np.asarray(edges)
    if e.size and (e.ndim != 2 or e.shape[1] != 2):
        raise ValueError(f"edges must have shape (m, 2), got {e.shape}")
    if e.dtype.kind == "f" and not np.all(np.isfinite(e) & (e == np.floor(e))):
        raise ValueError("edge endpoints must be integers")
    if not np.can_cast(e.dtype, np.int64):  # integers int64 holds go to the key uncopied
        with np.errstate(invalid="ignore"):  # a float past int64 casts out of range
            e = e.astype(np.int64)
    e = e.reshape(-1, 2)
    if len(e) and (e.min() < 0 or e.max() >= n):  # before the key narrows them
        raise ValueError("edge endpoint out of range")
    key = _pair_key(e[:, 0], e[:, 1].astype(_key_dtype(n)), n)
    key.sort()
    if np.any(np.equal(*_unpack(key, n))):
        raise ValueError("self-loops are not allowed")
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate edges are not allowed")
    return _key_graph(n, key)


def _key_bits(n: int) -> int:
    """Bits b per endpoint of the edge key min << b | max, one integer per pair
    over 0..n-1: a 1-D sort of the keys orders the pairs lexicographically."""
    return max(1, (n - 1).bit_length())


def _key_dtype(n: int):
    """int32 while the key's 2b bits fit (n <= 32768), halving a sort's traffic, else int64."""
    return np.int32 if 2 * _key_bits(n) < 31 else np.int64


def _pair_key(a: np.ndarray, b: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unsorted keys of the pairs a[k], b[k], into out if given; b, a fresh array in
    _key_dtype(n), is overwritten."""
    key = np.minimum(a, b, out=out, dtype=b.dtype)
    np.maximum(a, b, out=b)
    key <<= _key_bits(n)
    key |= b
    return key


def _unpack(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each key's endpoints min and max."""
    bits = _key_bits(n)
    return key >> bits, key & (1 << bits) - 1


def _key_graph(n: int, key: np.ndarray, family: str | None = None) -> Graph:
    """Graph of the valid edges whose sorted keys these are; each run of keys
    one apart, consecutive partners of one vertex, becomes one row."""
    # a key one above (u, v) is (u, v + 1): a carry would give (u + 1, 0), no edge as 0 < u + 1
    head = np.ones(len(key), dtype=bool)
    np.not_equal(np.diff(key), 1, out=head[1:])
    start = np.flatnonzero(head)
    owner, first = _unpack(key[start], n)
    return _interval_graph(n, owner, first, first + np.diff(start, append=len(key)), family)


def _interval_graph(n: int, owner, first, last, family: str | None) -> Graph:
    """Graph of the edges owner[r]-v for first[r] <= v < last[r], checked in O(rows).

    A nondecreasing owner >= 0 with owner[r] < first[r] <= last[r] <= n, whose
    rows of one owner do not overlap (last[r] <= first[r + 1]), makes the edges
    in range, loop-free and strictly increasing, all that make_graph checks:
    no key sort, no recount.
    """
    first = np.asarray(first, dtype=np.int64)
    last = np.broadcast_to(last, first.shape)
    ok = (0 <= owner) & (owner < first) & (first <= last) & (last <= n)
    same = owner[1:] == owner[:-1]
    if not (np.all(ok) and np.all(np.where(same, last[:-1] <= first[1:], owner[:-1] < owner[1:]))):
        raise ValueError(f"{family}: vertex intervals need sorted rows owner < first <= last <= n")
    # u's edges to higher vertices: its own rows' lengths
    ahead = np.bincount(owner, weights=last - first, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ahead, out=indptr[1:])
    # v's degree: those, plus the intervals open at v
    degrees = np.cumsum(np.bincount(first, minlength=n + 1) - np.bincount(last, minlength=n + 1))
    degrees = degrees[:n] + ahead
    run = first < last  # an empty row holds no edge
    first, last = first[run], last[run]
    for a in (indptr, first, last, degrees):
        a.setflags(write=False)
    return Graph(n, indptr, first, last, degrees, family)


def _check_topology(family: str, n: int, alpha: float | None, p: float | None) -> None:
    """make_topology's checks of all but the generator; ExperimentSpec runs
    them on each of its sizes, so a sweep with a bad size runs no trial."""
    if family not in GRAPH_FAMILIES:
        raise ValueError(f"unknown graph family {family!r}")
    if family in _EVEN_N_FAMILIES:
        if n < 4 or n % 2 != 0:
            raise ValueError(f"{family} requires an even n >= 4, got n={n}")
    elif n < 2:
        raise ValueError(f"{family} requires n >= 2, got n={n}")
    if family == "cycle" and n < 3:
        raise ValueError(f"cycle requires n >= 3, got n={n}")
    if family == "regular_bipartite" and (alpha is None or not 0.0 < alpha <= 1.0):
        raise ValueError("regular_bipartite requires alpha in (0, 1]")
    if family == "erdos_renyi" and (p is None or not 0.0 < p <= 1.0):
        raise ValueError("erdos_renyi requires p in (0, 1]")


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
    _check_topology(family, n, alpha, p)
    if family == "erdos_renyi" and rng is None:
        raise ValueError("erdos_renyi requires a seeded generator")

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
        # path's rows, plus the closing edge 0-(n-1) as vertex 0's second row
        owner = np.insert(u, 1, 0)
        first = np.insert(u + 1, 1, n - 1)
        last = np.insert(np.minimum(u + 2, n), 1, n)
    elif family == "regular_bipartite":
        d = max(1, int(math.floor(h**alpha + 1e-9)))
        # left u meets h + (u + j) % h for j < d: h + u .. h + min(u + d, h) - 1,
        # after the wrapped block h .. u + d - 1 when u + d > h
        u = np.arange(h)
        wrap = u[h - d + 1 :]
        owner = np.insert(u, wrap, wrap)
        first = np.insert(h + u, wrap, h)
        last = np.insert(h + np.minimum(u + d, h), wrap, wrap + d)
    else:  # erdos_renyi
        # row u of the upper triangle lists the pairs u-(u+1..n-1) from position u(2n - u - 1)/2
        v = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)  # the kept positions
        row = u * (2 * n - u - 1) // 2
        src = np.searchsorted(row, v, side="right") - 1
        v -= row[src] - src - 1  # each position becomes its pair's partner, in place
        src <<= _key_bits(n)
        src |= v  # the pairs' keys, sorted as drawn
        return _key_graph(n, src, family)
    return _interval_graph(n, owner, first, last, family)


def degree_functional(g: Graph) -> float:
    """(1/n) * sum over vertices of 1/sqrt(degree); in (0, 1]."""
    if g.degrees.min() == 0:
        v = int(np.argmin(g.degrees))
        raise ValueError(f"vertex {v} is isolated; degree functional undefined")
    return float(np.sum(1.0 / np.sqrt(g.degrees)) / g.n)
