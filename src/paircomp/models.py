"""Permutations, Kendall-tau machinery, and comparison-matrix models.

Conventions
-----------
A permutation is an int array ``ranks`` of length n where ``ranks[i]`` is
the 0-based rank of item i, smaller = better: item i is preferred to item
j iff ``ranks[i] < ranks[j]``.

A comparison matrix M is an (n, n) float array with M[i, i] = 1/2 and the
skew constraint M + M^T = ee^T; M[i, j] is the probability that item i
beats item j.  :func:`sample_sst_bands` draws an SST model from band 0, the
diagonal, outward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "check_permutation",
    "identity_permutation",
    "kt_distance",
    "NoisySorting",
    "make_noisy_sorting",
    "sample_sst_bands",
    "BisoCheck",
    "is_biso",
    "frobenius_error",
    "noisy_sorting_error",
]


def check_permutation(ranks) -> np.ndarray:
    p = np.asarray(ranks)
    if p.dtype.kind == "f" and not np.all(np.isfinite(p) & (p == np.floor(p))):
        raise ValueError("ranks must be integers")
    p = p.astype(np.int64, copy=False)
    if p.ndim != 1:
        raise ValueError("permutation must be one-dimensional")
    n = len(p)
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise ValueError("ranks must be a bijection onto 0..n-1")
    return p


def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def _invert(p: np.ndarray, dtype=np.int64) -> np.ndarray:
    """inv[r] = the item holding rank r, in dtype, for a p known to be a
    permutation: np.argsort(p) without the sort."""
    inv = np.empty(len(p), dtype=dtype)
    inv[p] = np.arange(len(p), dtype=dtype)
    return inv


def kt_distance(p, q) -> int:
    """Number of discordant item pairs between two rankings."""
    p = check_permutation(p)
    q = check_permutation(q)
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    # q-ranks listed in p-rank order; inversions of that sequence are
    # exactly the pairs ordered one way by p and the other way by q
    a = q[_invert(p)]
    n = len(a)
    pos = np.arange(n)
    total = 0
    width = 1
    # aligned blocks of `width` are each sorted.  With key = b * n + value for
    # block pair b, the left blocks' keys form one sorted array; a right key
    # b * n + v is inverted with the (b + 1) * width left keys of pairs <= b
    # minus those at or below it.  Sorting the keys merges every pair at once.
    while width < n:
        block = pos // (2 * width)
        key = block * n + a
        right = (pos // width) % 2 == 1
        above = (block[right] + 1) * width - np.searchsorted(key[~right], key[right], side="right")
        total += int(above.sum())
        a = np.sort(key) - block * n
        width *= 2
    return total


@dataclass(frozen=True, eq=False)
class NoisySorting:
    """Noisy-sorting model M_NS(ranks, lam), held without its n x n matrix.

    Construction validates lam in [0, 1/2] and ranks as a permutation.
    ``model[i, j]`` gives the entries at index arrays (or ints) i and j:
    1/2 + lam * sign(ranks[j] - ranks[i]), which is 1/2 + lam exactly when
    item i outranks item j.
    """

    ranks: np.ndarray
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 0.5:
            raise ValueError(f"lambda must lie in [0, 1/2], got {self.lam}")
        object.__setattr__(self, "ranks", check_permutation(self.ranks))

    def __getitem__(self, index) -> np.ndarray:
        i, j = index
        # entry k is 1/2 + lam * (k - 1), the same bits as that formula per pair
        table = 0.5 + self.lam * np.array([-1.0, 0.0, 1.0])
        # the operator form lets numpy reuse a gather's buffer for the difference
        step = np.asarray(self.ranks[j] - self.ranks[i])
        np.sign(step, out=step)
        step += 1
        return table.take(step)


def make_noisy_sorting(ranks, lam: float) -> np.ndarray:
    """Dense comparison matrix of :class:`NoisySorting` (ranks, lam)."""
    model = NoisySorting(ranks, lam)
    idx = np.arange(len(model.ranks))
    return model[idx[:, None], idx[None, :]]


def sample_sst_bands(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random bivariate isotonic matrix built band by band.

    Band 0 is the diagonal of 1/2s; each band k = 1..n-1 is drawn per entry
    uniformly from [max(left, below), 1], where left is entry (i, i+k-1)
    and below is entry (i+1, i+k), with increasing row index inside a band.
    Each band also fills its skew reflection below the diagonal.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    m = np.full((n, n), 0.5)
    flat = m.reshape(-1)
    band = m.diagonal()
    for k in range(1, n):
        lo = np.maximum(band[:-1], band[1:])
        band = lo + (1.0 - lo) * rng.random(n - k)
        # entry (i, i+k) sits at k + i(n+1), entry (i+k, i) at kn + i(n+1)
        flat[k : (n - k) * n : n + 1] = band
        flat[k * n :: n + 1] = 1.0 - band
    return m


@dataclass(frozen=True)
class BisoCheck:
    violation: str | None = None  # the first violation; None when m is biso

    def __bool__(self) -> bool:
        return self.violation is None


def is_biso(m: np.ndarray, tol: float) -> BisoCheck:
    """Check a finite square m for the bivariate isotonic set, reporting the first violation."""
    if not 0 <= tol < np.inf:  # False for NaN too
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isfinite(m).all():
        raise ValueError(f"expected a finite square matrix, got shape {m.shape}")
    n = m.shape[0]
    skew = np.abs(m + m.T - 1.0)
    if skew.max(initial=0.0) > tol:
        i, j = np.unravel_index(int(np.argmax(skew)), skew.shape)
        return BisoCheck(f"skew violated at ({i}, {j}) by {skew[i, j]:.3g}")
    if n > 1:
        rows = np.diff(m, axis=1)
        if rows.min(initial=0.0) < -tol:
            i, j = np.unravel_index(int(np.argmin(rows)), rows.shape)
            return BisoCheck(f"row {i} decreases at column {j} -> {j + 1} by {-rows[i, j]:.3g}")
        cols = np.diff(m, axis=0)
        if cols.max(initial=0.0) > tol:
            i, j = np.unravel_index(int(np.argmax(cols)), cols.shape)
            return BisoCheck(f"column {j} increases at row {i} -> {i + 1} by {cols[i, j]:.3g}")
    return BisoCheck()


def frobenius_error(a, b) -> float:
    """Squared Frobenius distance normalized by n^2; a :class:`NoisySorting`
    on either side is read as its dense :func:`make_noisy_sorting` matrix."""
    a, b = (
        make_noisy_sorting(m.ranks, m.lam) if isinstance(m, NoisySorting) else np.asarray(m, float)
        for m in (a, b)
    )
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected two nonempty square matrices, got {a.shape} and {b.shape}")
    d = a - b
    d *= d  # in place: one n x n temporary
    return float(d.sum() / a.shape[0] ** 2)


def noisy_sorting_error(n: int, kt: int, lam_a: float, lam_b: float) -> float:
    """:func:`frobenius_error` between two noisy-sorting models, in closed form.

    For rankings at Kendall tau distance kt = D, with C = n(n-1)/2 - D, this
    is 2[C(lam_a - lam_b)^2 + D(lam_a + lam_b)^2] / n^2 in real arithmetic.
    It is evaluated on the entries hi = 1/2 + lam and lo = 1/2 - lam as
    :func:`make_noisy_sorting` stores them: a pair both rankings order alike
    adds (hi_a - hi_b)^2 + (lo_a - lo_b)^2, a discordant pair (hi_a - lo_b)^2
    + (lo_a - hi_b)^2.  The sum is exact in rational arithmetic and rounded
    once, so it is the dense matrices' error without their n^2 rounded terms.
    """
    from fractions import Fraction

    hi_a, lo_a, hi_b, lo_b = (Fraction(0.5 + s * lam) for lam in (lam_a, lam_b) for s in (1, -1))
    pairs = n * (n - 1) // 2
    if n < 1 or not 0 <= kt <= pairs:
        raise ValueError(f"need n >= 1 and kt in [0, n(n-1)/2], got n={n}, kt={kt}")
    c = pairs - kt
    total = c * ((hi_a - hi_b) ** 2 + (lo_a - lo_b) ** 2) + kt * (
        (hi_a - lo_b) ** 2 + (lo_a - hi_b) ** 2
    )
    return float(total / n**2)
