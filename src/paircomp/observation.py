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
from .models import NoisySorting, check_permutation

__all__ = [
    "ObservationSample",
    "assign_random",
    "observe",
    "empirical_scores",
    "sample_matrix",
]

_BLOCK = 1 << 16  # pairs per block of observe's gathers and draws: 512 kB of float64


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
        p = np.vstack((self._first(np.arange(self.n)), self.partners)).T
        p.setflags(write=False)
        return p

    def _first(self, label: np.ndarray) -> np.ndarray:
        """label[i] for each pair's first item i, in pair order: a fresh array
        of label's dtype, so a reader expands the column at the width it gathers."""
        return np.repeat(label, np.diff(self.indptr))


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
    values = np.empty(len(partners))
    blocks = [(lo, min(lo + _BLOCK, len(values))) for lo in range(0, len(values), _BLOCK)]
    for lo, hi in blocks:
        # rows r0..r1 - 1 meet the block; each gives its pairs there one first item
        r0 = np.searchsorted(indptr, lo, side="right") - 1
        r1 = np.searchsorted(indptr, hi)
        first = np.repeat(np.arange(r0, r1), np.diff(indptr[r0 : r1 + 1].clip(lo, hi)))
        values[lo:hi] = m[first, partners[lo:hi]]
    # before any draw; NaN fails every comparison, so it fails this check too
    if dense and not (values.min(initial=0.5) >= 0.0 and values.max(initial=0.5) <= 1.0):
        raise ValueError("entries must lie in [0, 1]")
    if rng is not None:
        # rng.random(a) then rng.random(b) draws the doubles of rng.random(a + b)
        for lo, hi in blocks:
            np.less(rng.random(hi - lo), values[lo:hi], out=values[lo:hi])
    # item i is compared along exactly the edges at its vertex sigma(i)
    counts = g.degrees[sigma]
    for a in (indptr, partners, values, counts):
        a.setflags(write=False)
    return ObservationSample(g.n, indptr, partners, values, counts)


def empirical_scores(s: ObservationSample) -> np.ndarray:
    """Fraction of observed comparisons won by each item."""
    if s.counts.min() == 0:
        raise ValueError(f"item {int(np.argmin(s.counts))} has no observed comparisons")
    # np.add.at sums in index order from zero, as bincount does, but reads the
    # sample's read-only arrays in place where bincount would copy them
    wins = np.zeros(s.n)
    np.add.at(wins, s._first(np.arange(s.n)), s.values)
    lost = np.zeros(s.n)
    np.add.at(lost, s.partners, 1.0 - s.values)
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
