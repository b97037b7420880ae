"""Average-sort-project and block-average-project matrix estimators.

ASP recovers a noisy-sorting matrix: average the observed outcomes into
empirical scores, sort, then fit the single noise parameter by maximum
likelihood given the sorted order.  BAP targets the larger SST class:
partition items by rescaled row sums, average a second sample block by
block, and project onto the permuted bivariate isotonic set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import NoisySorting, _invert, check_permutation
from .observation import ObservationSample, empirical_scores

__all__ = [
    "asp_sort",
    "asp_lambda_mle",
    "asp_estimate",
    "BisoProjection",
    "project_biso",
    "BlockPartition",
    "block_partition",
    "block_average",
    "bap_estimate",
]

BAP_TOL = 1e-8  # bap_estimate's projection tolerance


# ---------------------------------------------------------------------------
# ASP
# ---------------------------------------------------------------------------


def asp_sort(tau_hat) -> np.ndarray:
    """Ranking by descending score; ties give the smaller item the better rank."""
    tau = np.asarray(tau_hat, dtype=np.float64)
    if not np.all(np.isfinite(tau)):
        raise ValueError("scores must be finite")
    return _invert(np.argsort(-tau, kind="stable"))


def asp_lambda_mle(s: ObservationSample, pi) -> float:
    """MLE of the noise-gap parameter treating pi as the true ranking.

    Averages Y over concordant observed pairs and 1 - Y over inverted ones,
    subtracts 1/2, and clamps into [0, 1/2] so the output matrix stays a
    valid noisy-sorting model.
    """
    if s.num_pairs == 0:
        raise ValueError("cannot fit lambda from an empty sample")
    p = check_permutation(pi).astype(np.int32)  # every rank is < n: half-size gathers
    if len(p) != s.n:
        raise ValueError(f"ranking of {len(p)} items does not match a sample of size {s.n}")
    inverted = s._first(p) > p[s.partners]
    # |inverted - y| is 1 - y on inverted pairs and y elsewhere, in one array
    aligned = np.subtract(inverted, s.values)
    np.abs(aligned, out=aligned)
    lam = float(aligned.mean() - 0.5)
    return min(max(lam, 0.0), 0.5)


def asp_estimate(s: ObservationSample) -> NoisySorting:
    """Average, sort, then project: output M_NS(pi_hat, lambda_hat)."""
    pi_hat = asp_sort(empirical_scores(s))
    return NoisySorting(pi_hat, asp_lambda_mle(s, pi_hat))


# ---------------------------------------------------------------------------
# Isotonic projection
# ---------------------------------------------------------------------------


def _pav_chains(y: np.ndarray, w: np.ndarray, new: list) -> np.ndarray:
    """Weighted nondecreasing PAV of chains laid end to end.

    new has len(y) + 1 flags: new[i] marks the first entry of a chain, and
    new[0] and new[len(y)] are True.  Algorithm 1 of Busing (2022),
    "Monotone Regression: A Simple and Fast O(n) PAVA Implementation",
    J. Stat. Softw. 102(1), doi:10.18637/jss.v102.c01, as
    scipy.optimize.isotonic_regression runs it: blocks pool on >=, a pooled
    block's sum starts from the stored means times weights, and it absorbs
    forward, then backward.  A block never pools across a chain start, so
    each chain's fit is scipy's on that chain, bit for bit.  y and w are
    finite and w positive, unchecked.
    """
    x, wx = y.tolist(), w.tolist()
    n = len(x)
    # blocks 0..b: x[k] and wx[k] hold block k's mean and weight, r[k] its first entry
    r = list(range(n + 1))
    b, i = 0, 1
    while i < n:
        xb, wb = x[i], wx[i]
        if x[b] >= xb and not new[i]:  # pool with the last block
            sb = wx[b] * x[b] + wb * xb
            wb += wx[b]
            xb = sb / wb
            while not new[i + 1] and xb >= x[i + 1]:  # absorb forward
                i += 1
                sb += wx[i] * x[i]
                wb += wx[i]
                xb = sb / wb
            while not new[r[b]] and x[b - 1] >= xb:  # absorb backward
                b -= 1
                sb += wx[b] * x[b]
                wb += wx[b]
                xb = sb / wb
        else:
            b += 1
        x[b], wx[b], r[b + 1] = xb, wb, i + 1
        i += 1
    return np.repeat(x[: b + 1], np.diff(r[: b + 2]))


@dataclass(frozen=True, eq=False)
class BisoProjection:
    """Projection output plus convergence metadata."""

    matrix: np.ndarray
    converged: bool
    iterations: int


def project_biso(
    x: np.ndarray, tol: float = 1e-8, max_iter: int = 10000, sizes=None
) -> BisoProjection:
    """Euclidean projection onto the bivariate isotonic set.

    x is the k x k grid of a block-constant matrix whose block a has
    sizes[a] rows (default all ones: x itself); the result is the k x k grid
    of that matrix's projection, block-constant on the same blocks.

    By skew symmetry (M + M^T = ee^T) the problem lives on the strict upper
    triangle: fit t = clip((x - x^T + 1)/2, 0, 1) there with rows
    nondecreasing, columns nonincreasing and values in [1/2, 1].

    Maximal runs of identical consecutive rows of t form groups S_a (g = k
    on generic input) of |S_a| expanded rows; identical rows have identical
    columns too, so t is constant on each S_a x S_b and 1/2 on the diagonal
    blocks.  Reducing to the g x g grid is exact: averaging a feasible
    matrix over each off-diagonal rectangle keeps it feasible and, t being
    constant there, cannot raise the objective, while setting the diagonal
    blocks to 1/2 is feasible once values lie in [1/2, 1].  The unique
    projection is thus block-constant: weighted isotonic regression with
    weights |S_a||S_b|.

    One clip suffices: bounded isotonic regression is the unbounded fit
    clipped to the bounds.  The unbounded fit is Dykstra over the row and
    column cones, one correction array each, and each half-step is one PAV
    pass over all its chains (:func:`_pav_chains`, Busing's 2022 O(n) PAVA):
    each chain's fit is scipy's, bit for bit.  Column chains run right to
    left, each bottom-up, so both fits are nondecreasing, and the columns
    come out exactly monotone.  Stops when a sweep moves the expanded matrix
    less than tol in Frobenius norm and the row monotonicity residual is at
    most tol/2, so the expanded output passes ``is_biso(matrix, tol)``; at
    max_iter the last iterate is returned with converged=False.  A tol below
    about 1e-15 is under float64 rounding and may return converged=False.
    iterations counts sweeps.  x must be finite.
    """
    x0 = np.asarray(x, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[0] != x0.shape[1] or x0.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError("x must be finite")
    if not 0 < tol < np.inf:  # False for NaN too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    k = x0.shape[0]
    sizes = np.ones(k, dtype=np.int64) if sizes is None else np.asarray(sizes)
    if sizes.shape != (k,) or not np.issubdtype(sizes.dtype, np.integer) or np.any(sizes <= 0):
        raise ValueError(f"sizes must be {k} positive integers")
    t = np.clip(0.5 * (x0 - x0.T + 1.0), 0.0, 1.0)
    starts = np.flatnonzero(np.r_[True, np.any(t[1:] != t[:-1], axis=1)])
    merged = np.add.reduceat(sizes, starts)
    g = len(starts)
    a, b = np.triu_indices(g, 1)  # row-major: row chains are contiguous
    by_col = np.lexsort((-a, -b))  # the same entries, columns right to left, each bottom-up
    w = (merged[a] * merged[b]).astype(np.float64)
    w_col, col = w[by_col], b[by_col]
    same_row = a[1:] == a[:-1]
    new_row = np.r_[True, ~same_row, True].tolist()
    new_col = np.r_[True, col[1:] != col[:-1], True].tolist()
    u = t[starts[a], starts[b]]
    p = np.zeros_like(u)
    q = np.zeros_like(u)
    converged, it = False, 0
    while not converged and it < max_iter:
        it += 1
        z = u + p
        y = _pav_chains(z, w, new_row)
        p = z - y
        z = y + q
        u_new = np.empty_like(u)
        u_new[by_col] = _pav_chains(z[by_col], w_col, new_col)
        q = z - u_new
        move = np.sqrt(2.0 * np.sum(w * (u_new - u) ** 2))
        u = u_new
        row_viol = -np.diff(u)[same_row].min(initial=0.0)
        converged = bool(move < tol and row_viol <= 0.5 * tol)
    grid = np.full((g, g), 0.5)
    grid[a, b] = np.clip(u, 0.5, 1.0)
    grid[b, a] = 1.0 - grid[a, b]
    lab = np.repeat(np.arange(g), np.diff(np.r_[starts, k]))
    return BisoProjection(matrix=grid[lab[:, None], lab], converged=converged, iterations=it)


# ---------------------------------------------------------------------------
# Blocking
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Ordered partition of items 0..n-1 by value intervals.

    labels is a read-only int64 vector: labels[i] is the group of item i,
    groups numbered 0..k-1 in the order of their defining intervals, every
    group nonempty.
    """

    labels: np.ndarray

    @property
    def num_groups(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def groups(self) -> tuple[np.ndarray, ...]:
        """Ascending index arrays of groups 0..k-1."""
        order = np.argsort(self.labels, kind="stable")
        return tuple(np.split(order, np.cumsum(np.bincount(self.labels))[:-1]))


def block_partition(values, t: float, upper: float) -> BlockPartition:
    """Group indices whose values share an interval [floor((i-1)t), floor(it)).

    upper bounds the admissible values (row sums lie in [0, n]); values
    equal to it land in the last interval.  Empty groups are dropped.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("values must be a nonempty vector")
    lo, hi = float(v.min()), float(v.max())  # a NaN anywhere makes both NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("values must be finite")
    if not math.isfinite(upper):
        raise ValueError(f"upper must be finite, got {upper}")
    if lo < 0:
        raise ValueError("values must be nonnegative")
    if hi > upper:
        raise ValueError(f"values must not exceed {upper}")
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"threshold t must be positive and finite, got {t}")
    # interval lows floor(k t), k = 0, 1, ...: those below upper need k t < ceil(upper),
    # and keeping only them (at least [0.]) puts values equal to upper in the last
    t = max(t, 1.0)  # below 1, the lows are still every integer: the same labels
    lows = np.floor(np.arange(int(np.ceil(upper) / t) + 2) * t)
    lows = lows[: max(1, np.searchsorted(lows, upper))]
    labels = np.unique(np.searchsorted(lows, v, side="right"), return_inverse=True)[1]
    labels.flags.writeable = False
    return BlockPartition(labels=labels)


def block_average(s: ObservationSample, c: BlockPartition) -> np.ndarray:
    """k x k grid of s's mean outcomes over the block pairs of c, in c's group order.

    Each observed pair is taken in both orders: pair (i, j) adds y to block
    (a, b) and 1 - y to block (b, a), where a = c.labels[i] and
    b = c.labels[j].  A block pair with no observed pair is 1/2.  The n x n
    block-constant matrix is grid[c.labels[:, None], c.labels].
    """
    lab = c.labels
    if len(lab) != s.n:
        raise ValueError(f"partition of {len(lab)} items does not match a sample of size {s.n}")
    k, m = c.num_groups, s.num_pairs
    key = np.empty(2 * m, dtype=np.int64)
    fwd, rev = key[:m], key[m:]
    fwd[...] = s._first(lab)
    # a plain gather: np.take(out=) would buffer its output and copy the read-only column
    rev[...] = lab[s.partners]
    fwd *= k
    fwd += rev
    rev *= k
    rev += fwd // k
    values = np.empty(2 * m)
    values[:m] = s.values
    np.subtract(1.0, s.values, out=values[m:])
    counts = np.bincount(key, minlength=k * k)
    sums = np.bincount(key, weights=values, minlength=k * k)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.5).reshape(k, k)


# ---------------------------------------------------------------------------
# BAP
# ---------------------------------------------------------------------------


def bap_estimate(s1: ObservationSample, s2: ObservationSample) -> np.ndarray:
    """Block-average-project estimate of an SST comparison matrix.

    Blocks come from the first sample: its rescaled row sums
    (n/D_i) sum_j Y_ij equal n times the empirical scores, which are
    partitioned with gap t = sum_v 1/sqrt(d_v), summed over the first
    sample's counts (item i has its vertex's d_sigma(i)), into one label per
    item.  The groups are score intervals, so counted from the highest they
    follow the score ranking: :func:`block_average` of the second sample (the
    first again for single-sample BAP), its grid and group sizes reversed,
    goes to :func:`project_biso` at tolerance BAP_TOL.  Raises RuntimeError
    when the projection stops without converging, and
    :func:`empirical_scores`' ValueError when an item has no comparisons.
    """
    if s1.n != s2.n:
        raise ValueError(f"sample sizes differ: {s1.n} and {s2.n}")
    n = s1.n

    tau_hat = empirical_scores(s1)
    t = float(np.sum(1.0 / np.sqrt(s1.counts)))
    partition = block_partition(n * tau_hat, t, upper=n)
    lab = partition.labels

    grid = block_average(s2, partition)[::-1, ::-1]
    projected = project_biso(grid, tol=BAP_TOL, sizes=np.bincount(lab)[::-1])
    if not projected.converged:
        raise RuntimeError(
            f"biso projection did not converge in {projected.iterations} iterations"
            f" (tol {BAP_TOL:g})"
        )
    return projected.matrix[::-1, ::-1][lab[:, None], lab]
