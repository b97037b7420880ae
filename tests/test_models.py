import itertools
import math
import tracemalloc

import numpy as np
import pytest

from paircomp import (
    NoisySorting,
    check_permutation,
    frobenius_error,
    identity_permutation,
    is_biso,
    kt_distance,
    make_noisy_sorting,
    noisy_sorting_error,
    sample_sst_bands,
)

from paircomp.models import _invert

from oracles import (
    inversion_table,
    permute_matrix,
    reverse_permutation,
    scores,
    table_to_permutation,
)


def kt_bruteforce(p, q):
    """Independent oracle: O(n^2) discordant-pair enumeration."""
    p = np.asarray(p)
    q = np.asarray(q)
    disc = (p[:, None] - p[None, :]) * (q[:, None] - q[None, :]) < 0
    return int(disc.sum() // 2)


def random_perm(rng, n):
    ranks = np.empty(n, dtype=np.int64)
    ranks[rng.permutation(n)] = np.arange(n)
    return ranks


# ---------------------------------------------------------------------------
# permutations and Kendall tau
# ---------------------------------------------------------------------------


def test_kt_examples():
    assert kt_distance(identity_permutation(7), identity_permutation(7)) == 0
    assert kt_distance(identity_permutation(4), reverse_permutation(4)) == 6
    # ranks (2,1,4,3) written 1-based; brute-force over all 6 pairs gives 2
    other = np.array([1, 0, 3, 2])
    assert kt_bruteforce(identity_permutation(4), other) == 2
    assert kt_distance(identity_permutation(4), other) == 2


def test_kt_matches_bruteforce_on_random_pairs():
    rng = np.random.default_rng(0)
    sizes = [int(n) for n in rng.integers(1, 120, size=60)] + [0, 255, 256, 257, 1000]
    for n in sizes:
        p, q = random_perm(rng, n), random_perm(rng, n)
        assert kt_distance(p, q) == kt_bruteforce(p, q)


def test_kt_is_a_metric_on_spot_checks():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        p, q, r = (random_perm(rng, n) for _ in range(3))
        assert kt_distance(p, q) == kt_distance(q, p)
        assert (kt_distance(p, q) == 0) == bool(np.array_equal(p, q))
        assert kt_distance(p, r) <= kt_distance(p, q) + kt_distance(q, r)


def test_kt_dominates_half_l1():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 201))
        p, q = random_perm(rng, n), random_perm(rng, n)
        assert 2 * kt_distance(p, q) >= np.abs(p - q).sum()


def test_rearrangement_inequality_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        a = np.sort(rng.random(n)) + 0.01
        b = -np.sort(-(rng.random(n) + 0.01))
        assert a.sum() * b.sum() >= n * (a * b).sum() - 1e-9


def test_kt_length_mismatch():
    with pytest.raises(ValueError):
        kt_distance(identity_permutation(3), identity_permutation(4))


def test_check_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        check_permutation([0, 0, 2])
    with pytest.raises(ValueError):
        check_permutation([1, 2, 3])


def test_check_permutation_rejects_non_integral_ranks():
    for bad in ([1.9, 0.2], [0.5, 1.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="ranks must be integers"):
            check_permutation(bad)
    with pytest.raises(ValueError, match="ranks must be integers"):
        kt_distance([1.9, 0.2], [0, 1])
    ranks = check_permutation(np.array([2.0, 0.0, 1.0]))
    assert ranks.dtype == np.int64 and ranks.tolist() == [2, 0, 1]
    assert kt_distance([1.0, 0.0], [0, 1]) == 1


def test_kt_distance_memory_is_linear():
    n = 4096
    rng = np.random.default_rng(24)
    p, q = random_perm(rng, n), random_perm(rng, n)
    tracemalloc.start()
    try:
        kt_distance(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * n  # the dense discordance mask alone would take n * n bytes


def test_inverse_permutation():
    # the private inverse behind observe, asp_sort and kt_distance: np.argsort without the sort
    rng = np.random.default_rng(4)
    p = random_perm(rng, 17)
    for dtype in (np.int32, np.int64):
        inv = _invert(p, dtype)
        assert inv.dtype == dtype
        assert np.array_equal(p[inv], np.arange(17))
        assert np.array_equal(inv, np.argsort(p))


# ---------------------------------------------------------------------------
# inversion tables: the paper's proofs use them, the package does not; the
# oracles' O(n^2) tables check kt_distance by an independent count
# ---------------------------------------------------------------------------


def test_inversion_table_examples():
    assert inversion_table(identity_permutation(5)).tolist() == [0] * 5
    assert inversion_table(reverse_permutation(3)).tolist() == [2, 1, 0]


def test_inversion_table_sums_to_kt_from_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 80))
        p = random_perm(rng, n)
        assert inversion_table(p).sum() == kt_distance(p, identity_permutation(n))


def test_inversion_table_bijection_exhaustive_small_n():
    for n in range(1, 8):
        seen = set()
        for perm in itertools.permutations(range(n)):
            ranks = np.array(perm, dtype=np.int64)
            table = inversion_table(ranks)
            assert np.all(table <= np.arange(n - 1, -1, -1))
            assert np.array_equal(table_to_permutation(table), ranks)
            seen.add(tuple(table.tolist()))
        assert len(seen) == math.factorial(n)


def test_table_entry_out_of_range():
    with pytest.raises(ValueError):
        table_to_permutation([3, 0, 0])  # b_0 <= n-1 = 2


# ---------------------------------------------------------------------------
# noisy sorting matrices
# ---------------------------------------------------------------------------


def test_noisy_sorting_example_rows():
    m = make_noisy_sorting(identity_permutation(3), 0.4)
    expected = np.array([[0.5, 0.9, 0.9], [0.1, 0.5, 0.9], [0.1, 0.1, 0.5]])
    assert np.allclose(m, expected, atol=0)


def test_noisy_sorting_zero_lambda_and_validation():
    m = make_noisy_sorting(reverse_permutation(6), 0.0)
    assert np.all(m == 0.5)
    with pytest.raises(ValueError):
        make_noisy_sorting(identity_permutation(3), 0.6)
    with pytest.raises(ValueError):
        make_noisy_sorting(identity_permutation(3), -0.1)


def test_noisy_sorting_skew_and_entry_rule():
    rng = np.random.default_rng(6)
    p = random_perm(rng, 9)
    m = make_noisy_sorting(p, 0.3)
    assert np.abs(m + m.T - 1.0).max() < 1e-15
    for i in range(9):
        for j in range(9):
            if i != j:
                assert m[i, j] == (0.8 if p[i] < p[j] else 0.2)


def test_frobenius_kt_identity_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        lam = rng.uniform(0, 0.5)
        p, q = random_perm(rng, n), random_perm(rng, n)
        d = make_noisy_sorting(p, lam) - make_noisy_sorting(q, lam)
        assert abs((d * d).sum() - 8 * lam**2 * kt_distance(p, q)) < 1e-9


def test_noisy_sorting_model_entries_and_validation():
    rng = np.random.default_rng(10)
    p = random_perm(rng, 11)
    model = NoisySorting(p, 0.3)
    i, j = rng.integers(0, 11, size=(2, 50))
    assert np.array_equal(model[i, j], make_noisy_sorting(p, 0.3)[i, j])
    with pytest.raises(ValueError):
        NoisySorting(p, 0.6)
    with pytest.raises(ValueError):
        NoisySorting([0, 0, 1], 0.2)


def test_noisy_sorting_entries_are_bit_identical_to_the_closed_form():
    rng = np.random.default_rng(12)
    r = random_perm(rng, 40)
    r_before = r.copy()
    i, j = rng.integers(0, 40, size=(2, 500))
    idx = np.arange(40)
    for lam in (0.0, 0.1, 0.4, 0.5):
        model = NoisySorting(r, lam)
        pairs = ((i, j), (idx, idx), (idx[:, None], idx[None, :]), (i[:7, None], j[None, :9]))
        for a, b in pairs + ((slice(None), 3), (slice(5, 20), slice(10, 25))):
            got = model[a, b]
            ref = 0.5 + lam * np.sign(r[b] - r[a]).astype(np.float64)
            assert got.dtype == np.float64 and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), lam
        for a, b in ((3, 3), (int(i[0]), int(j[0])), (np.int64(5), np.int64(17))):
            got = model[a, b]
            ref = 0.5 + lam * np.sign(r[b] - r[a]).astype(np.float64)
            assert type(got) is np.float64 and got.tobytes() == ref.tobytes(), (lam, a, b)
        assert np.array_equal(model.ranks, r_before)  # no in-place step writes through a view


def test_noisy_sorting_error_matches_dense_frobenius():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 60))
        p, q = random_perm(rng, n), random_perm(rng, n)
        lam_a, lam_b = rng.choice([0.0, 0.5, *rng.uniform(0, 0.5, size=3)], size=2)
        dense = frobenius_error(make_noisy_sorting(p, lam_a), make_noisy_sorting(q, lam_b))
        closed = noisy_sorting_error(n, kt_distance(p, q), lam_a, lam_b)
        assert math.isclose(closed, dense, rel_tol=1e-12)


def test_permute_matrix_convention():
    rng = np.random.default_rng(8)
    p = random_perm(rng, 7)
    m0 = make_noisy_sorting(identity_permutation(7), 0.25)
    assert np.array_equal(permute_matrix(m0, p), make_noisy_sorting(p, 0.25))


# ---------------------------------------------------------------------------
# SST band sampling
# ---------------------------------------------------------------------------


def sst_bands_reference(n, rng):
    """The band sampler as first written: a special first band, per-band
    index arrays and a closing triu reflection."""
    m = np.full((n, n), 0.5)
    band = 0.5 + 0.5 * rng.random(n - 1)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = band
    prev = band
    for k in range(2, n):
        lo = np.maximum(prev[:-1], prev[1:])
        cur = lo + (1.0 - lo) * rng.random(n - k)
        i = np.arange(n - k)
        m[i, i + k] = cur
        prev = cur
    iu = np.triu_indices(n, k=1)
    m[(iu[1], iu[0])] = 1.0 - m[iu]
    return m


@pytest.mark.parametrize("n", [*range(2, 41), 64, 257, 1000])
def test_sst_bands_match_reference_and_generator_position(n):
    # the harness draws sigma straight after M*, so the generator's position
    # after the draw is part of the contract, not only the matrix bytes
    for seed in (0, 1, 2):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_sst_bands(n, rng).tobytes() == sst_bands_reference(n, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sst_bands_peak_memory_is_one_matrix():
    n = 1024
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        sample_sst_bands(n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * n * n


def test_sst_bands_are_biso():
    rng = np.random.default_rng(9)
    for n in (2, 3, 7, 40):
        m = sample_sst_bands(n, rng)
        assert is_biso(m, 1e-12)
        assert m.min() >= 0 and m.max() <= 1


def test_sst_bands_n2_single_band():
    m = sample_sst_bands(2, np.random.default_rng(10))
    assert 0.5 <= m[0, 1] <= 1.0
    assert m[1, 0] == 1.0 - m[0, 1]


def test_sst_bands_seed_determinism():
    a = sample_sst_bands(25, np.random.default_rng(303))
    b = sample_sst_bands(25, np.random.default_rng(303))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# scores, biso check, frobenius error
# ---------------------------------------------------------------------------


def test_scores_examples():
    m = make_noisy_sorting(identity_permutation(3), 0.4)
    assert np.allclose(scores(m), [0.9, 0.5, 0.1], atol=1e-15)
    assert np.allclose(scores(np.full((4, 4), 0.5)), 0.5)


def test_scores_sorting_recovers_permutation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        p = random_perm(rng, n)
        tau = scores(make_noisy_sorting(p, 0.3))
        recovered = np.empty(n, dtype=int)
        recovered[np.argsort(-tau, kind="stable")] = np.arange(n)
        assert np.array_equal(recovered, p)


def test_is_biso_cases():
    assert is_biso(make_noisy_sorting(identity_permutation(5), 0.2), 1e-12)
    bad = is_biso(make_noisy_sorting(reverse_permutation(4), 0.4), 1e-12)
    assert not bad
    assert bad.violation is not None
    skewed = make_noisy_sorting(identity_permutation(4), 0.2)
    skewed[0, 3] = 0.9
    assert is_biso(skewed, 1e-12).violation == "skew violated at (0, 3) by 0.2"
    # within tol of skew and of row order, yet column 0 rises by 0.21 > tol
    m = np.array([[0.5, 0.7, 0.65], [0.22, 0.5, 0.5], [0.43, 0.5, 0.5]])
    assert is_biso(m, 0.1).violation == "column 0 increases at row 1 -> 2 by 0.21"


def test_frobenius_error_examples():
    m = make_noisy_sorting(identity_permutation(3), 0.4)
    m2 = make_noisy_sorting(reverse_permutation(3), 0.4)
    assert frobenius_error(m, m) == 0.0
    # 8 lam^2 KT / n^2 with KT = 3
    assert frobenius_error(m, m2) == pytest.approx(8 * 0.16 * 3 / 9)
    assert frobenius_error(m, m2) == frobenius_error(m2, m)
    with pytest.raises(ValueError):
        frobenius_error(m, np.zeros((4, 4)))


def _traced_peak(f, *args):
    """What f(*args) returns, and the call's tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_frobenius_error_holds_one_matrix_and_matches_the_two_temporary_form():
    n = 512
    a = sample_sst_bands(n, np.random.default_rng(31))
    b = sample_sst_bands(n, np.random.default_rng(32))
    err, peak = _traced_peak(frobenius_error, a, b)
    assert peak <= 1.1 * 8 * n * n
    d = a - b
    assert err == float((d * d).sum() / n**2)
