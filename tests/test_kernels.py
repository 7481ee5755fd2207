import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import distance_oracle
import zslkit.kernels
from zslkit.kernels import (
    KernelSpec,
    chi2_distance,
    chi2_distance_matrix,
    distance_matrix,
    fit_kernel,
    gamma_from_distances,
    gram_matrix,
    heuristic_gamma,
    kernel_value,
    squared_euclidean,
)
from zslkit.svr import SvrConfig, predict_batch, train_semantic_regressor

histograms = hnp.arrays(
    np.float64,
    st.integers(2, 8).map(lambda n: (n,)),
    elements=st.floats(0, 10, allow_nan=False),
)

# histogram sets with many exactly-zero bins, rows and columns
histogram_sets = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 16)),
    elements=st.one_of(st.just(0.0), st.floats(0, 10, allow_nan=False)),
)


def brute_force_mean_pair_distance(vectors, include_self=False):
    """Enumeration oracle for the gamma heuristic's documented convention."""
    n = len(vectors)
    total, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            if i == j and not include_self:
                continue
            total += chi2_distance(vectors[i], vectors[j])
            count += 1
    return total / count


class TestChi2:
    def test_identical_histograms(self):
        assert chi2_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_mass(self):
        # 0.5 * (1/1 + 1/1)
        assert chi2_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_empty_mass_convention(self):
        assert chi2_distance([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_unhalved_variant(self):
        assert chi2_distance([1.0, 0.0], [0.0, 1.0], halved=False) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            chi2_distance([1.0], [1.0, 2.0])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            chi2_distance([1.0, -0.1], [1.0, 0.0])

    @given(histograms, histograms)
    def test_symmetric_nonnegative(self, a, b):
        if a.shape != b.shape:
            return
        d_ab = chi2_distance(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(chi2_distance(b, a), abs=1e-12)

    @given(histograms)
    def test_vanishes_only_on_equal(self, a):
        assert chi2_distance(a, a) == 0.0
        shifted = a.copy()
        shifted[0] += 1.0
        assert chi2_distance(a, shifted) > 0.0


class TestKernelValue:
    def test_zero_distance_gives_one(self):
        spec = KernelSpec("rbf_chi2", 3.0)
        assert kernel_value(spec, [0.2, 0.8], [0.2, 0.8]) == 1.0

    def test_analytic_half(self):
        # chi2 distance (c+d)/2 for disjoint single-bin mass c, d
        ln2 = math.log(2.0)
        spec = KernelSpec("rbf_chi2", 1.0)
        assert kernel_value(spec, [ln2, 0.0], [0.0, ln2]) == pytest.approx(0.5)

    def test_composed_example(self):
        spec = KernelSpec("rbf_chi2", 0.25)
        assert kernel_value(spec, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            math.exp(-0.25)
        )

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec("rbf_chi2", 0.0)
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec("rbf_chi2", float("nan"))
        with pytest.raises(ValueError, match="kernel kind"):
            KernelSpec("polynomial", 1.0)

    @given(histograms, histograms, st.floats(0.01, 10.0))
    def test_bounded_and_monotone(self, a, b, gamma):
        if a.shape != b.shape:
            return
        spec = KernelSpec("rbf_chi2", gamma)
        v = kernel_value(spec, a, b)
        assert 0.0 < v <= 1.0
        d = chi2_distance(a, b)
        if d == 0.0:
            assert v == 1.0
        elif gamma * d > 1e-9:  # above float rounding of exp near 1
            assert v < 1.0
            # strictly decreasing in the distance at fixed gamma
            assert kernel_value(KernelSpec("rbf_chi2", gamma * 2.0), a, b) < v


class TestHeuristicGamma:
    def test_single_pair(self):
        # D((2,0),(0,2)) = (2+2)/2 = 2 -> gamma 0.5
        assert heuristic_gamma([[2.0, 0.0], [0.0, 2.0]]) == pytest.approx(0.5)

    def test_three_vectors_mean_two(self):
        # pairwise chi2 distances {1, 2, 3}, mean 2 -> gamma 1/2
        vecs = [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]]
        assert chi2_distance(vecs[0], vecs[1]) == pytest.approx(1.0)
        assert chi2_distance(vecs[0], vecs[2]) == pytest.approx(2.0)
        assert chi2_distance(vecs[1], vecs[2]) == pytest.approx(3.0)
        assert heuristic_gamma(vecs) == pytest.approx(0.5)
        assert heuristic_gamma(vecs) == pytest.approx(
            1.0 / brute_force_mean_pair_distance(vecs)
        )

    def test_identical_vectors_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            heuristic_gamma([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            heuristic_gamma([[1.0, 2.0]])

    def test_matches_enumeration_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            vecs = rng.dirichlet(np.ones(5), size=6)
            expected = 1.0 / brute_force_mean_pair_distance(list(vecs))
            assert heuristic_gamma(vecs) == pytest.approx(expected, rel=1e-12)

    def test_self_pair_convention_is_explicit(self):
        rng = np.random.default_rng(12)
        vecs = rng.dirichlet(np.ones(4), size=5)
        with_self = heuristic_gamma(vecs, include_self_pairs=True)
        without = heuristic_gamma(vecs)
        # n zero self-distances shrink the mean by (n-1)/n
        assert with_self == pytest.approx(without * 5 / 4, rel=1e-12)
        expected = 1.0 / brute_force_mean_pair_distance(list(vecs), include_self=True)
        assert with_self == pytest.approx(expected, rel=1e-12)

    def test_duplicated_dataset_changes_gamma_per_convention(self):
        rng = np.random.default_rng(13)
        vecs = rng.dirichlet(np.ones(4), size=6)
        doubled = np.vstack([vecs, vecs])
        expected = 1.0 / brute_force_mean_pair_distance(list(doubled))
        assert heuristic_gamma(doubled) == pytest.approx(expected, rel=1e-12)

    def test_subsampling_is_seeded_and_close(self):
        rng = np.random.default_rng(14)
        vecs = rng.dirichlet(np.ones(6), size=40)
        exact = heuristic_gamma(vecs)
        sampled_a = heuristic_gamma(vecs, max_pairs=400, seed=7)
        sampled_b = heuristic_gamma(vecs, max_pairs=400, seed=7)
        assert sampled_a == sampled_b
        assert sampled_a == pytest.approx(exact, rel=0.25)

    def test_euclidean_variant_uses_squared_distance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        total = (
            squared_euclidean(pts[0], pts[1])
            + squared_euclidean(pts[0], pts[2])
            + squared_euclidean(pts[1], pts[2])
        )
        expected = 1.0 / (2 * total / 6)
        assert heuristic_gamma(pts, "rbf_euclidean") == pytest.approx(expected)


class TestGramMatrix:
    def test_self_kernel(self):
        spec = KernelSpec("rbf_chi2", 1.0)
        np.testing.assert_array_equal(gram_matrix(spec, [[0.3, 0.7]]), [[1.0]])

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(21)
        x = rng.dirichlet(np.ones(6), size=10)
        spec = KernelSpec("rbf_chi2", heuristic_gamma(x))
        g = gram_matrix(spec, x)
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_array_equal(np.diag(g), np.ones(10))

    def test_small_gram_psd_via_eigensolver(self):
        rng = np.random.default_rng(22)
        x = rng.dirichlet(np.ones(4), size=3)
        spec = KernelSpec("rbf_chi2", 1.3)
        g = gram_matrix(spec, x)
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_rectangular_shape(self):
        rng = np.random.default_rng(23)
        rows = rng.dirichlet(np.ones(5), size=4)
        cols = rng.dirichlet(np.ones(5), size=7)
        spec = KernelSpec("rbf_chi2", 2.0)
        g = gram_matrix(spec, rows, cols)
        assert g.shape == (4, 7)
        assert g[1, 2] == pytest.approx(kernel_value(spec, rows[1], cols[2]))

    def test_euclidean_gram_psd(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(12, 4))
        spec = KernelSpec("rbf_euclidean", 0.7)
        g = gram_matrix(spec, pts)
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_dimension_mismatch(self):
        spec = KernelSpec("rbf_chi2", 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            gram_matrix(spec, [[1.0, 0.0]], [[1.0, 0.0, 0.0]])


class TestFitKernel:
    def test_gram_is_built_in_place_from_the_distances(self):
        rng = np.random.default_rng(25)
        x = rng.dirichlet(np.ones(6), size=10)
        d = distance_matrix("rbf_chi2", x)
        gamma = gamma_from_distances(d)
        kernel, gram = fit_kernel("rbf_chi2", d)
        assert gram is d
        assert kernel == KernelSpec("rbf_chi2", gamma)
        np.testing.assert_array_equal(gram, gram_matrix(kernel, x))
        kernel, _ = fit_kernel("rbf_chi2", distance_matrix("rbf_chi2", x), gamma=2)
        assert kernel.gamma == 2.0

    # 40 rows take the exact mean; 1001 rows have more than the 1e6
    # ordered pairs of the default budget, so gamma is sampled
    @pytest.mark.parametrize("n", [40, 1001])
    def test_chi2_halving_is_absorbed_by_auto_gamma(self, n):
        rng = np.random.default_rng(26)
        x = rng.dirichlet(np.full(8, 0.5), size=n)
        probes = rng.dirichlet(np.full(8, 0.5), size=5)
        targets = rng.normal(size=(n, 2))
        fitted = {}
        for halved in (True, False):
            d = distance_matrix("rbf_chi2", x, chi2_halved=halved)
            kernel, gram = fit_kernel("rbf_chi2", d, chi2_halved=halved)
            regressor = train_semantic_regressor(x, targets, SvrConfig(), kernel, gram.copy())
            fitted[halved] = kernel, gram, predict_batch(regressor, probes)
        (half, half_gram, half_pred), (full, full_gram, full_pred) = fitted[True], fitted[False]
        assert half.gamma == 2.0 * full.gamma
        np.testing.assert_array_equal(bits(half_gram), bits(full_gram))
        np.testing.assert_array_equal(bits(half_pred), bits(full_pred))

    def test_chi2_halving_matters_with_a_numeric_gamma(self):
        x = np.random.default_rng(27).dirichlet(np.ones(6), size=10)
        half = fit_kernel("rbf_chi2", distance_matrix("rbf_chi2", x), gamma=1.0)[1]
        full = fit_kernel(
            "rbf_chi2", distance_matrix("rbf_chi2", x, chi2_halved=False), 1.0, False
        )[1]
        off = ~np.eye(10, dtype=bool)
        assert np.all(half[off] > full[off])


class TestRunWideDistances:
    """A run computes one distance matrix and slices every split's gamma,
    Gram matrix and kernel rows from it; the slices must be bit-identical
    to computing each subset on its own."""

    @given(histogram_sets, st.booleans())
    def test_symmetric_chi2_equals_rows_vs_cols(self, x, halved):
        d = distance_matrix("rbf_chi2", x, chi2_halved=halved)
        np.testing.assert_array_equal(d, distance_matrix("rbf_chi2", x, x.copy(), chi2_halved=halved))
        np.testing.assert_array_equal(d, distance_oracle.chi2_matrix(x, x, halved))
        np.testing.assert_array_equal(d, d.T)
        assert not np.any(np.diag(d))

    @given(histogram_sets, st.data())
    def test_sub_blocks_equal_per_subset_matrices(self, x, data):
        n = x.shape[0]
        s = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        t = [i for i in range(n) if i not in s]
        d = distance_matrix("rbf_chi2", x)
        np.testing.assert_array_equal(d[np.ix_(s, s)], distance_matrix("rbf_chi2", x[s]))
        if t:
            np.testing.assert_array_equal(
                d[np.ix_(t, s)], distance_matrix("rbf_chi2", x[t], x[s])
            )

    @given(histogram_sets, st.data(), st.booleans())
    def test_gamma_from_block_equals_heuristic(self, x, data, include_self):
        n = x.shape[0]
        s = data.draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
        block = distance_matrix("rbf_chi2", x)[np.ix_(s, s)]
        n_pairs = len(s) * (len(s) - 1 + include_self)
        # the default budget takes the exact mean; one pair fewer samples
        for max_pairs in (1_000_000, n_pairs - 1):
            kw = dict(include_self_pairs=include_self, max_pairs=max_pairs, seed=5)
            try:
                expected = heuristic_gamma(x[s], **kw)
            except ValueError:
                with pytest.raises(ValueError, match="identical"):
                    gamma_from_distances(block, **kw)
                continue
            assert gamma_from_distances(block, **kw) == expected
            if max_pairs < n_pairs:
                assert distance_oracle.sampled_gamma(x[s], **kw) == expected

    def test_sampled_gamma_matches_direct_pairs_across_chunks(self):
        rng = np.random.default_rng(31)
        x = rng.dirichlet(np.full(40, 0.3), size=500)
        kw = dict(max_pairs=240_000, seed=9)  # below n(n-1); chunks of 100k pairs
        assert heuristic_gamma(x, **kw) == distance_oracle.sampled_gamma(x, **kw)

    def test_sampled_self_pairs_match_direct_pairs_across_chunks(self):
        rng = np.random.default_rng(31)
        x = rng.dirichlet(np.full(40, 0.3), size=500)
        # the last of the 100k-pair chunks is partial
        kw = dict(max_pairs=240_000, seed=9, include_self_pairs=True)
        assert heuristic_gamma(x, **kw) == distance_oracle.sampled_gamma(x, **kw)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_sampled_gamma_holds_one_pair_index_array(self, include_self):
        # 1100 rows give 1.2M ordered pairs, so 1e6 are sampled: the row
        # indices take 8 MB, and the column indices only a chunk at a time
        n, max_pairs = 1100, 1_000_000
        d = np.ones((n, n))
        np.fill_diagonal(d, 0.0)
        tracemalloc.start()
        try:
            gamma = gamma_from_distances(d, include_self_pairs=include_self, max_pairs=max_pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gamma == pytest.approx(1.0, rel=0.01)
        assert peak < 2 * 8 * max_pairs

    def test_euclidean_blocks_agree_to_rounding(self):
        # squared Euclidean distances come from a matrix product whose
        # blocking depends on the operand shapes, so a block of the
        # run-wide matrix matches the per-subset one only to rounding
        rng = np.random.default_rng(32)
        x = rng.dirichlet(np.ones(1000), size=150)
        s = rng.permutation(150)[:90]
        d = distance_matrix("rbf_euclidean", x)
        np.testing.assert_allclose(
            d[np.ix_(s, s)], distance_matrix("rbf_euclidean", x[s]), rtol=0, atol=1e-12
        )
        assert gamma_from_distances(d[np.ix_(s, s)], max_pairs=500) == pytest.approx(
            distance_oracle.sampled_gamma(x[s], "rbf_euclidean", max_pairs=500), rel=1e-12
        )


def bits(a):
    return a.view(np.int64)


class TestTiledChi2:
    """The chi-square matrix is computed in tiles spread over worker
    threads; it must equal the former single-threaded kernel bit for bit
    for any worker count and shape."""

    # per-dimension size caps keep each example well under a second while
    # still spanning several tiles (2^16 // d_x columns per tile)
    SIZE_CAP = {1: 200, 32: 120, 1000: 100, 3000: 45}

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_former_kernel_bitwise(self, data):
        d = data.draw(st.sampled_from(sorted(self.SIZE_CAP)), label="d_x")
        cap = self.SIZE_CAP[d]
        n = data.draw(st.integers(0, cap), label="rows")
        m = data.draw(st.integers(0, cap), label="cols")
        zero_frac = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="zero_frac")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.random((n, d)) * (rng.random((n, d)) >= zero_frac)
        y = rng.random((m, d)) * (rng.random((m, d)) >= zero_frac)
        if n > 1:
            x[n // 2] = 0.0  # an all-zero row
        halved = data.draw(st.booleans(), label="halved")
        sym_ref = distance_oracle.chi2_distance_matrix(x, x, halved)
        cross_ref = distance_oracle.chi2_distance_matrix(x, y, halved)
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(zslkit.kernels, "_worker_count", lambda w=workers: w)
                sym = chi2_distance_matrix(x, x, halved)
                cross = chi2_distance_matrix(x, y, halved)
            np.testing.assert_array_equal(bits(sym), bits(sym_ref))
            np.testing.assert_array_equal(bits(cross), bits(cross_ref))

    def test_multi_row_tiles_and_fewer_rows_than_workers(self, monkeypatch):
        rng = np.random.default_rng(40)
        x = rng.random((70, 32)) * (rng.random((70, 32)) > 0.5)  # 29-row blocks
        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 3)
        for rows in (x, x[:2], x[:1]):
            np.testing.assert_array_equal(
                bits(chi2_distance_matrix(rows, rows)),
                bits(distance_oracle.chi2_distance_matrix(rows, rows)),
            )
            np.testing.assert_array_equal(
                bits(chi2_distance_matrix(rows, x)),
                bits(distance_oracle.chi2_distance_matrix(rows, x)),
            )

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        rng = np.random.default_rng(43)
        x = rng.random((120, 300)) * (rng.random((120, 300)) > 0.3)
        y = rng.random((50, 300))
        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sym, cross = chi2_distance_matrix(x, x), chi2_distance_matrix(x, y)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(bits(sym), bits(distance_oracle.chi2_distance_matrix(x, x)))
        np.testing.assert_array_equal(bits(cross), bits(distance_oracle.chi2_distance_matrix(x, y)))

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("thread started")

        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 1)
        monkeypatch.setattr(threading, "Thread", no_threads)
        x = np.random.default_rng(41).random((30, 1000))
        np.testing.assert_array_equal(
            bits(chi2_distance_matrix(x, x)), bits(distance_oracle.chi2_distance_matrix(x, x))
        )

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_failure_reaches_the_caller(self, monkeypatch, where):
        tile = zslkit.kernels._chi2_tile
        main = threading.main_thread()

        def failing(*args):
            if (threading.current_thread() is main) == (where == "caller"):
                raise RuntimeError(f"tile failed in {where}")
            tile(*args)

        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 2)
        monkeypatch.setattr(zslkit.kernels, "_chi2_tile", failing)
        before = threading.active_count()
        x = np.random.default_rng(42).random((40, 1000))
        with pytest.raises(RuntimeError, match=f"tile failed in {where}"):
            chi2_distance_matrix(x, x)
        assert threading.active_count() == before  # every worker was joined

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert zslkit.kernels._worker_count() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert zslkit.kernels._worker_count() == 1
