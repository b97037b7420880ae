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

@dataclass(frozen=True, eq=False)
class ObservationSample:
    """Observed pairwise outcomes for one design draw.

    pairs holds the observed (i, j) with i < j, lexicographically sorted;
    values holds Y_ij in [0, 1] (the reverse direction is implied via
    Y_ji = 1 - Y_ij and is never stored).  counts holds each item's number
    of observed comparisons; it is trusted as given.  The assignment sigma
    that produced the pair set stays with the caller.
    """

    n: int
    pairs: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @property
    def num_pairs(self) -> int:
        return int(self.pairs.shape[0])


def assign_random(g: Graph, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random item-to-vertex assignment (Fisher-Yates)."""
    return rng.permutation(g.n).astype(np.int64)


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

    pairs = g._pairs(sigma)
    # the gather is a fresh array, so a Bernoulli draw overwrites it with 1.0 or 0.0
    values = m[pairs[:, 0], pairs[:, 1]].astype(np.float64, copy=False)
    # before any draw; NaN fails every comparison, so it fails this check too
    if dense and not (values.min(initial=0.5) >= 0.0 and values.max(initial=0.5) <= 1.0):
        raise ValueError("entries must lie in [0, 1]")
    if rng is not None:
        np.less(rng.random(len(values)), values, out=values)
    # item i is compared along exactly the edges at its vertex sigma(i)
    counts = g.degrees[sigma]
    for a in (pairs, values, counts):
        a.setflags(write=False)
    return ObservationSample(n=g.n, pairs=pairs, values=values, counts=counts)


def empirical_scores(s: ObservationSample) -> np.ndarray:
    """Fraction of observed comparisons won by each item."""
    if s.counts.min() == 0:
        raise ValueError(f"item {int(np.argmin(s.counts))} has no observed comparisons")
    # np.add.at sums in index order from zero, as bincount does, but reads the
    # sample's read-only arrays in place where bincount would copy them
    wins = np.zeros(s.n)
    np.add.at(wins, s.pairs[:, 0], s.values)
    lost = np.zeros(s.n)
    np.add.at(lost, s.pairs[:, 1], 1.0 - s.values)
    wins += lost
    return wins / s.counts


def sample_matrix(s: ObservationSample) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric view: (Y, observed) with Y_ji = 1 - Y_ij filled in.

    Unobserved entries of Y are 1/2 (including the diagonal) and flagged
    False in the observed mask.
    """
    y = np.full((s.n, s.n), 0.5)
    observed = np.zeros((s.n, s.n), dtype=bool)
    i, j = s.pairs[:, 0], s.pairs[:, 1]
    y[i, j] = s.values
    y[j, i] = 1.0 - s.values
    observed[i, j] = True
    observed[j, i] = True
    return y, observed
