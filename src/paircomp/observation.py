"""Observation sampling under worst-case and average-case designs.

The comparison graph fixes which vertex pairs are compared; a permutation
sigma assigns items to vertices (the identity for worst-case designs, a
uniform draw for average-case designs).  Item pair (i, j) with i < j is
observed exactly when (sigma(i), sigma(j)) is a graph edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .models import _BLOCK, NoisySorting, _block_column, _spans, check_permutation

__all__ = [
    "ObservationSample",
    "assign_random",
    "observe",
    "empirical_scores",
    "sample_matrix",
]


@dataclass(frozen=True, eq=False)
class ObservationSample:
    """Observed pairwise outcomes for one design draw.

    The observed pairs (i, j) with i < j are held as rows: item i's partners
    j are partners[indptr[i]:indptr[i + 1]], ascending, so the pairs run in
    lexicographic order; indptr holds n + 1 offsets.  values holds Y_ij in
    [0, 1] in that order (the reverse direction is implied via
    Y_ji = 1 - Y_ij and is never stored).  counts holds each item's number
    of observed comparisons; it is trusted as given.  The assignment sigma
    that produced the pair set stays with the caller.
    """

    n: int
    indptr: np.ndarray
    partners: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @property
    def num_pairs(self) -> int:
        return len(self.partners)

    @property
    def pairs(self) -> np.ndarray:
        """Pairs (i, j) as rows of an (m, 2) array: column-major int64, read-only,
        expanded afresh on each access."""
        p = np.empty((self.num_pairs, 2), dtype=np.int64, order="F")
        p[:, 1] = self.partners
        for at, first in self._blocks(np.arange(self.n)):
            p[at, 0] = first
        p.setflags(write=False)
        return p

    def _blocks(self, label: np.ndarray, spans=None):
        """Per span lo..hi-1 of the pairs, blocks of _BLOCK unless spans lists them:
        its slice, and label[i] for each pair's first item i there, in pair order.
        The column is fresh and of label's dtype, so no reader builds a pair-sized one."""
        for lo, hi in _spans(self.num_pairs) if spans is None else spans:
            yield slice(lo, hi), _block_column(self.indptr, label, lo, hi)


def _pairwise_sum(leaf, lo: int, hi: int) -> float:
    """np.add.reduce of the terms lo..hi-1, bit for bit, given leaf(a, b), the
    np.add.reduce of the terms a..b-1 for spans of at most _BLOCK terms.

    numpy sums a contiguous float array pairwise (Higham 1993, "The accuracy of
    floating point summation"): a span longer than 128 terms is halved, the half
    rounded down to a multiple of 8, and the two sums added.  This takes the same
    split down to spans of _BLOCK (at least 128), so no term array longer than that
    is needed.
    """
    if hi - lo <= _BLOCK:
        return leaf(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise_sum(leaf, lo, lo + half) + _pairwise_sum(leaf, lo + half, hi)


def assign_random(g: Graph, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random item-to-vertex assignment (Fisher-Yates)."""
    return rng.permutation(g.n).astype(np.int64, copy=False)


def observe(
    m: np.ndarray | NoisySorting,
    g: Graph,
    sigma,
    rng: np.random.Generator | None,
) -> ObservationSample:
    """Draw one observation sample of m on the graph under assignment sigma.

    m is a :class:`NoisySorting` model, valid by construction, or a square
    dense comparison matrix.  Either is read only at the observed pairs
    (i, j) with i < j, as Y_ji = 1 - Y_ij is implied; a dense matrix is
    checked there alone, its gathered entries to lie in [0, 1], and its
    diagonal, lower triangle and unobserved pairs are never read.
    A generator rng draws Y_ij ~ Ber(M_ij) independently per observed pair;
    rng=None sets Y_ij = M_ij exactly (expectation mode, the
    infinite-sample-per-pair test hook).  rng has no default.
    """
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator or None, got {type(rng).__name__}")
    dense = not isinstance(m, NoisySorting)
    if dense and (m.ndim != 2 or m.shape[0] != m.shape[1]):
        raise ValueError(f"comparison matrix must be square, got {m.shape}")
    size = m.shape[0] if dense else len(m.ranks)
    sigma = check_permutation(sigma)
    if size != g.n or len(sigma) != g.n:
        raise ValueError(f"size mismatch: matrix {size}, graph {g.n}, sigma {len(sigma)}")

    indptr, partners = g._rows(sigma)
    # item i is compared along exactly the edges at its vertex sigma(i)
    s = ObservationSample(g.n, indptr, partners, np.empty(len(partners)), g.degrees[sigma])
    for at, first in s._blocks(np.arange(g.n)):
        s.values[at] = m[first, partners[at]]
    # before any draw; NaN fails every comparison, so it fails this check too
    if dense and not (s.values.min(initial=0.5) >= 0.0 and s.values.max(initial=0.5) <= 1.0):
        raise ValueError("entries must lie in [0, 1]")
    if rng is not None:
        # rng.random(a) then rng.random(b) draws the doubles of rng.random(a + b)
        for lo, hi in _spans(s.num_pairs):
            np.less(rng.random(hi - lo), s.values[lo:hi], out=s.values[lo:hi])
    for a in (indptr, partners, s.values, s.counts):
        a.setflags(write=False)
    return s


def empirical_scores(s: ObservationSample) -> np.ndarray:
    """Fraction of observed comparisons won by each item."""
    if s.counts.min() == 0:
        raise ValueError(f"item {int(np.argmin(s.counts))} has no observed comparisons")
    # np.add.at sums in index order from zero, as bincount does, but reads the
    # sample's read-only arrays in place where bincount would copy them; block
    # by block in pair order, it adds in the same order
    wins, lost = np.zeros(s.n), np.zeros(s.n)
    for at, first in s._blocks(np.arange(s.n)):
        np.add.at(wins, first, s.values[at])
        np.add.at(lost, s.partners[at], 1.0 - s.values[at])
    wins += lost
    return wins / s.counts


def sample_matrix(s: ObservationSample) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric view: (Y, observed) with Y_ji = 1 - Y_ij filled in.

    Unobserved entries of Y are 1/2 (including the diagonal) and flagged
    False in the observed mask.
    """
    y = np.full((s.n, s.n), 0.5)
    observed = np.zeros((s.n, s.n), dtype=bool)
    i, j = s.pairs.T
    y[i, j] = s.values
    y[j, i] = 1.0 - s.values
    observed[i, j] = True
    observed[j, i] = True
    return y, observed
