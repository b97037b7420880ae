"""Observation sampling under worst-case and average-case designs.

The comparison graph fixes which vertex pairs are compared; a permutation
sigma assigns items to vertices (the identity for worst-case designs, a
uniform draw for average-case designs).  Item pair (i, j) with i < j is
observed exactly when (sigma(i), sigma(j)) is a graph edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _key_dtype, sort_pairs
from .models import (
    NoisySorting,
    check_comparison_matrix,
    check_permutation,
    inverse_permutation,
)

__all__ = [
    "ObservationSample",
    "assign_random",
    "observe",
    "empirical_scores",
    "sample_matrix",
    "sample_to_text",
    "sample_from_text",
]


@dataclass(frozen=True)
class ObservationSample:
    """Observed pairwise outcomes for one design draw.

    pairs holds the observed (i, j) with i < j, lexicographically sorted;
    values holds Y_ij in [0, 1] (the reverse direction is implied via
    Y_ji = 1 - Y_ij and is never stored).  assignment is the item-to-vertex
    permutation sigma that produced the pair set.  counts holds each item's
    number of observed comparisons; it is trusted as given, and when omitted
    it is counted from pairs.
    """

    n: int
    pairs: np.ndarray
    values: np.ndarray
    assignment: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        if self.counts is None:
            counts = np.bincount(self.pairs.ravel("K"), minlength=self.n)
            counts.setflags(write=False)
            object.__setattr__(self, "counts", counts)

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
    mode: str,
    rng: np.random.Generator | None = None,
) -> ObservationSample:
    """Draw one observation sample of m on the graph under assignment sigma.

    m is a dense comparison matrix, checked here, or a :class:`NoisySorting`
    model, valid by construction and read at the observed pairs only.
    mode 'bernoulli' draws Y_ij ~ Ber(M_ij) independently per observed pair
    and requires rng; mode 'expectation' sets Y_ij = M_ij exactly (the
    infinite-sample-per-pair test hook).
    """
    if isinstance(m, NoisySorting):
        size = len(m.ranks)
    else:
        check_comparison_matrix(m)
        size = m.shape[0]
    sigma = check_permutation(sigma)
    if size != g.n or len(sigma) != g.n:
        raise ValueError(f"size mismatch: matrix {size}, graph {g.n}, sigma {len(sigma)}")
    if mode not in ("bernoulli", "expectation"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "bernoulli" and rng is None:
        raise ValueError("bernoulli mode requires a seeded generator")

    # gathered in the key's width: an int32 inverse halves the (m, 2) temporary
    inv = inverse_permutation(sigma).astype(_key_dtype(g.n), copy=False)
    pairs = sort_pairs(inv[g.edges], g.n)
    # the gather is a fresh array, so a Bernoulli draw overwrites it with 1.0 or 0.0
    values = m[pairs[:, 0], pairs[:, 1]].astype(np.float64, copy=False)
    if mode == "bernoulli":
        np.less(rng.random(len(values)), values, out=values)
    # item i is compared along exactly the edges at its vertex sigma(i)
    counts = g.degrees[sigma]
    for a in (pairs, values, counts):
        a.setflags(write=False)
    return ObservationSample(n=g.n, pairs=pairs, values=values, assignment=sigma, counts=counts)


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


def sample_to_text(s: ObservationSample) -> str:
    lines = [f"{s.n} {s.num_pairs}"]
    lines.extend(
        f"{i} {j} {format(v, '.17g')}"
        for (i, j), v in zip(s.pairs, s.values)
    )
    lines.append(",".join(str(int(r)) for r in s.assignment))
    return "\n".join(lines) + "\n"


def sample_from_text(text: str) -> ObservationSample:
    """Parse :func:`sample_to_text` output; malformed input raises ValueError
    naming its line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty sample text")
    no, ln = lines[0]
    try:
        n, k = (int(tok) for tok in ln.split())
        if not 0 <= k == len(lines) - 2:
            raise ValueError(f"header promises {k} pairs, found {len(lines) - 2}")
        pairs = np.empty((k, 2), dtype=np.int64, order="F")
        values = np.empty(k, dtype=np.float64)
        for r, (no, ln) in enumerate(lines[1 : k + 1]):
            i, j, v = ln.split()
            pairs[r] = (int(i), int(j))
            values[r] = float(v)
            if not 0 <= pairs[r, 0] < pairs[r, 1] < n:
                raise ValueError(f"pair ({i}, {j}) needs 0 <= i < j < {n}")
            if r > 0 and tuple(pairs[r]) <= tuple(pairs[r - 1]):
                raise ValueError("pairs must be strictly increasing")
            if not 0.0 <= values[r] <= 1.0:
                raise ValueError(f"value {v} outside [0, 1]")
        no, ln = lines[-1]
        sigma = np.array([int(tok) for tok in ln.split(",")], dtype=np.int64)
        if len(sigma) != n or not np.array_equal(np.sort(sigma), np.arange(n)):
            raise ValueError(f"assignment must be a permutation of 0..{n - 1}")
    except (ValueError, OverflowError) as e:
        raise ValueError(f"line {no}: {e}") from None
    pairs.setflags(write=False)
    values.setflags(write=False)
    return ObservationSample(n=n, pairs=pairs, values=values, assignment=sigma)
