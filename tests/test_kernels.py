import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import distance_oracle
import memory_reference
import zslkit.evaluate
import zslkit.kernels
from zslkit.evaluate import _run_features
from zslkit.kernels import (
    PackedDistances,
    _as_matrix,
    chi2_distance_matrix,
    distance_matrix,
    fit_kernel,
    gamma_from_distances,
    gram_matrix,
    heuristic_gamma,
    squared_euclidean_distances,
)

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


def brute_force_mean_pair_distance(vectors):
    """Enumeration oracle for the gamma heuristic's documented convention."""
    v = np.asarray(vectors, dtype=np.float64)
    d = distance_oracle.chi2_matrix(v, v)
    n = len(v)
    return sum(d[i, j] for i in range(n) for j in range(n) if i != j) / (n * (n - 1))


def chi2(a, b) -> float:
    """The package's chi-square distance between two histograms."""
    return float(distance_matrix([a], [b])[0, 0])


def kernel_at(gamma, a, b) -> float:
    """The package's chi-square kernel value between two histograms."""
    return float(gram_matrix(gamma, distance_matrix([a], [b]))[0, 0])


class TestChi2:
    def test_identical_histograms(self):
        assert chi2([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_mass(self):
        # 0.5 * (1/1 + 1/1)
        assert chi2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_empty_mass_convention(self):
        assert chi2([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            chi2([1.0], [1.0, 2.0])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            chi2([1.0, -0.1], [1.0, 0.0])

    @given(histograms, histograms)
    def test_symmetric_nonnegative(self, a, b):
        if a.shape != b.shape:
            return
        d_ab = chi2(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(chi2(b, a), abs=1e-12)

    @given(histograms)
    def test_vanishes_only_on_equal(self, a):
        assert chi2(a, a) == 0.0
        shifted = a.copy()
        shifted[0] += 1.0
        assert chi2(a, shifted) > 0.0


class TestKernelValue:
    def test_zero_distance_gives_one(self):
        assert kernel_at(3.0, [0.2, 0.8], [0.2, 0.8]) == 1.0

    def test_analytic_half(self):
        # chi2 distance (c+d)/2 for disjoint single-bin mass c, d
        ln2 = math.log(2.0)
        assert kernel_at(1.0, [ln2, 0.0], [0.0, ln2]) == pytest.approx(0.5)

    def test_composed_example(self):
        assert kernel_at(0.25, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            math.exp(-0.25)
        )

    def test_invalid_gammas(self):
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            d = np.ones((2, 2))
            with pytest.raises(ValueError, match="gamma must be a positive finite real"):
                gram_matrix(gamma, d)
            np.testing.assert_array_equal(d, np.ones((2, 2)))  # rejected before any write

    @given(histograms, histograms, st.floats(0.01, 10.0))
    def test_bounded_and_monotone(self, a, b, gamma):
        if a.shape != b.shape:
            return
        v = kernel_at(gamma, a, b)
        assert 0.0 < v <= 1.0
        d = chi2(a, b)
        if d == 0.0:
            assert v == 1.0
        elif gamma * d > 1e-9:  # above float rounding of exp near 1
            assert v < 1.0
            # strictly decreasing in the distance at fixed gamma
            assert kernel_at(gamma * 2.0, a, b) < v


class TestHeuristicGamma:
    def test_single_pair(self):
        # D((2,0),(0,2)) = (2+2)/2 = 2 -> gamma 0.5
        assert heuristic_gamma([[2.0, 0.0], [0.0, 2.0]]) == pytest.approx(0.5)

    def test_three_vectors_mean_two(self):
        # pairwise chi2 distances {1, 2, 3}, mean 2 -> gamma 1/2
        vecs = [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]]
        d = distance_matrix(vecs)
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 2] == pytest.approx(2.0)
        assert d[1, 2] == pytest.approx(3.0)
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
        with pytest.raises(ValueError, match=r"data must be 2-D, got shape \(2,\)"):
            heuristic_gamma([0.2, 0.8])

    def test_matches_enumeration_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            vecs = rng.dirichlet(np.ones(5), size=6)
            expected = 1.0 / brute_force_mean_pair_distance(list(vecs))
            assert heuristic_gamma(vecs) == pytest.approx(expected, rel=1e-12)

    def test_duplicated_dataset_changes_gamma_per_convention(self):
        rng = np.random.default_rng(13)
        vecs = rng.dirichlet(np.ones(4), size=6)
        doubled = np.vstack([vecs, vecs])
        expected = 1.0 / brute_force_mean_pair_distance(list(doubled))
        assert heuristic_gamma(doubled) == pytest.approx(expected, rel=1e-12)

    def test_euclidean_variant_uses_squared_distance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        total = 1.0 + 4.0 + 5.0  # squared distances of the three pairs
        expected = 1.0 / (2 * total / 6)
        assert gamma_from_distances(squared_euclidean_distances(pts)) == pytest.approx(expected)


class TestGramMatrix:
    def test_self_kernel(self):
        d = distance_matrix([[0.3, 0.7]])
        g = gram_matrix(1.0, d)
        assert g is d  # exp is taken in place
        np.testing.assert_array_equal(g, [[1.0]])

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(21)
        x = rng.dirichlet(np.ones(6), size=10)
        g = gram_matrix(heuristic_gamma(x), distance_matrix(x))
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_array_equal(np.diag(g), np.ones(10))

    def test_small_gram_psd_via_eigensolver(self):
        rng = np.random.default_rng(22)
        x = rng.dirichlet(np.ones(4), size=3)
        g = gram_matrix(1.3, distance_matrix(x))
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_rectangular_shape(self):
        rng = np.random.default_rng(23)
        rows = rng.dirichlet(np.ones(5), size=4)
        cols = rng.dirichlet(np.ones(5), size=7)
        g = gram_matrix(2.0, distance_matrix(rows, cols))
        assert g.shape == (4, 7)
        d = distance_oracle.chi2_matrix(rows[1:2], cols[2:3])[0, 0]
        assert g[1, 2] == pytest.approx(math.exp(-2.0 * d))

    def test_euclidean_gram_psd(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(12, 4))
        g = gram_matrix(0.7, squared_euclidean_distances(pts))
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_euclidean_self_distances_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(26)
        pts = rng.normal(size=(9, 3))
        d = squared_euclidean_distances(pts)
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(9))
        np.testing.assert_allclose(d, squared_euclidean_distances(pts, pts.copy()), atol=1e-12)
        assert d[1, 4] == pytest.approx(((pts[1] - pts[4]) ** 2).sum())

    def test_dimension_mismatch(self):
        for distances in (distance_matrix, squared_euclidean_distances):
            with pytest.raises(ValueError, match="dimension mismatch"):
                distances([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
            with pytest.raises(ValueError, match=r"rows must be 2-D, got shape \(2,\)"):
                distances([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])
            with pytest.raises(ValueError, match=r"cols must be 2-D, got shape \(2,\)"):
                distances([[1.0, 2.0]], [1.0, 2.0])


class TestFitKernel:
    def test_gram_is_built_in_place_from_the_distances(self):
        rng = np.random.default_rng(25)
        x = rng.dirichlet(np.ones(6), size=10)
        d = distance_matrix(x)
        expected = gamma_from_distances(d)
        gamma, gram = fit_kernel(d)
        assert gram is d
        assert gamma == expected
        np.testing.assert_array_equal(gram, gram_matrix(expected, distance_matrix(x)))


class TestRunWideDistances:
    """A run computes one distance matrix and slices every split's gamma,
    Gram matrix and kernel rows from it; the slices must be bit-identical
    to computing each subset on its own."""

    @given(histogram_sets)
    def test_symmetric_chi2_equals_rows_vs_cols(self, x):
        d = distance_matrix(x)
        np.testing.assert_array_equal(d, distance_matrix(x, x.copy()))
        np.testing.assert_array_equal(d, distance_oracle.chi2_matrix(x, x))
        np.testing.assert_array_equal(d, d.T)
        assert not np.any(np.diag(d))

    @given(histogram_sets, st.data())
    def test_sub_blocks_equal_per_subset_matrices(self, x, data):
        n = x.shape[0]
        s = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        t = [i for i in range(n) if i not in s]
        d = distance_matrix(x)
        np.testing.assert_array_equal(d[np.ix_(s, s)], distance_matrix(x[s]))
        if t:
            np.testing.assert_array_equal(
                d[np.ix_(t, s)], distance_matrix(x[t], x[s])
            )

    @given(histogram_sets, st.data())
    def test_gamma_from_block_equals_heuristic(self, x, data):
        n = x.shape[0]
        s = data.draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
        block = distance_matrix(x)[np.ix_(s, s)]
        try:
            expected = heuristic_gamma(x[s])
        except ValueError:
            with pytest.raises(ValueError, match="identical"):
                gamma_from_distances(block)
            return
        assert gamma_from_distances(block) == expected

    def test_gamma_is_the_exact_mean_over_every_pair_of_a_large_block(self):
        # 1100 rows give 1,208,900 ordered pairs, and the mean takes them all
        rng = np.random.default_rng(34)
        x = rng.dirichlet(np.full(8, 0.5), size=1100)
        block = distance_matrix(x)
        n = block.shape[0]
        assert np.unique(block[np.triu_indices(n, 1)]).size == n * (n - 1) // 2
        expected = 1.0 / (block.sum() / (n * (n - 1)))
        tracemalloc.start()
        try:
            gamma = gamma_from_distances(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        assert gamma == expected
        assert fit_kernel(block)[0] == expected
        mean = brute_force_mean_pair_distance(x)
        assert heuristic_gamma(x) == pytest.approx(1.0 / mean, rel=1e-12, abs=0)


def bits(a):
    return a.view(np.int64)


def expand(dist):
    """The full (n, n) matrix of a packed run matrix."""
    every = np.arange(dist.n)
    return dist.block(every, every)


def unpack(cells, n):
    """The dense (n, n) matrix of ``n`` rows' packed chi-square cells, read
    by the documented layout: the pairs i < j in row-major order, then
    the diagonal's +0.0."""
    assert cells.shape == (n * (n - 1) // 2 + 1,)
    assert bits(cells[-1]) == 0  # +0.0, not -0.0
    dense = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    dense[upper] = cells[:-1]
    dense.T[upper] = cells[:-1]
    return dense


def run_matrix(target, auxiliary=None):
    """A run's packed matrix, from its target and auxiliary rows."""
    return PackedDistances(_run_features(target, auxiliary))


class TestBlockwiseRunMatrix:
    """A run stacks its target and auxiliary rows and fills its packed
    matrix with one symmetric chi-square call; expanded, it must equal the
    matrix of the stacked rows bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([1, 3, 32, 1000]),
        n_t=st.integers(1, 90),
        n_a=st.integers(1, 40),
        zero_frac=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1000, n_t=30, n_a=1, zero_frac=0.5, seed=0)  # one auxiliary row
    @example(d=1, n_t=25, n_a=7, zero_frac=0.5, seed=1)  # d_x=1 with empty bins
    @example(d=1, n_t=1, n_a=1, zero_frac=1.0, seed=2)  # all bins empty
    def test_equals_stacked_matrix_bitwise(self, d, n_t, n_a, zero_frac, seed):
        rng = np.random.default_rng(seed)
        t, a = (rng.random((n, d)) * (rng.random((n, d)) >= zero_frac) for n in (n_t, n_a))
        dist = expand(run_matrix(t, a))
        stacked = distance_oracle.chi2_distance_matrix(*[np.vstack([t, a])] * 2)
        np.testing.assert_array_equal(bits(dist), bits(stacked))
        np.testing.assert_array_equal(dist, dist.T)
        assert not np.any(np.diag(dist))

    @settings(max_examples=100, deadline=None)
    @given(
        n_t=st.integers(0, 40),
        n_a=st.integers(0, 40),
        d=st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_t=0, n_a=0, d=1, seed=0)  # no rows: the one diagonal cell
    @example(n_t=1, n_a=0, d=1, seed=0)
    @example(n_t=40, n_a=40, d=1, seed=0)  # n*d far below one tile
    def test_one_fill_equals_the_rectangular_matrix(self, n_t, n_a, d, seed):
        # about 40% zero bins; the rectangular call computes both cells of
        # each pair, with no packing and no symmetric mode
        rng = np.random.default_rng(seed)
        t, a = (rng.random((n, d)) * (rng.random((n, d)) >= 0.4) for n in (n_t, n_a))
        x = np.vstack([t, a])
        dist = run_matrix(t, a)
        np.testing.assert_array_equal(bits(expand(dist)), bits(distance_matrix(x, x.copy())))
        np.testing.assert_array_equal(bits(unpack(dist.cells, dist.n)), bits(expand(dist)))

    @settings(max_examples=100, deadline=None)
    @given(
        n_t=st.integers(1, 12),
        n_a=st.integers(0, 10),
        chunk=st.sampled_from([1, 3, 8, 1 << 14]),
        data=st.data(),
    )
    @example(n_t=1, n_a=0, chunk=1 << 14, data=None)  # N=1
    def test_block_gathers_the_stacked_cells(self, n_t, n_a, chunk, data):
        # gathers in chunks of ``chunk`` cells, of unsorted, repeated or
        # shared row indices
        rng = np.random.default_rng([n_t, n_a])
        t, a = rng.random((n_t, 5)) * (rng.random((n_t, 5)) < 0.6), rng.random((n_a, 5))
        n = n_t + n_a
        stacked = distance_oracle.chi2_distance_matrix(*[np.vstack([t, a])] * 2)
        dist = run_matrix(t, a)
        assert dist.cells.size == n * (n - 1) // 2 + 1
        np.testing.assert_array_equal(bits(expand(dist)), bits(stacked))
        if data is None:
            rows = cols = np.zeros(1, np.intp)
        else:
            index = st.lists(st.integers(0, n - 1), max_size=2 * n + 2)
            rows = np.array(data.draw(index), dtype=np.intp)
            # the same rows (a Gram block), a reordering, or others
            cols = data.draw(st.sampled_from([rows, rows[::-1], None]))
            if cols is None:
                cols = np.array(data.draw(index), dtype=np.intp)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(zslkit.kernels, "_GATHER_CELLS", chunk)
            block = dist.block(rows, cols)
        assert block.flags.c_contiguous and block.shape == (rows.size, cols.size)
        np.testing.assert_array_equal(bits(block), bits(stacked[np.ix_(rows, cols)]))

    def test_block_rejects_rows_outside_the_run(self):
        dist = PackedDistances(np.ones((3, 4)))
        for bad in ([3], [-1]):
            with pytest.raises(IndexError, match=r"row indices must lie in \[0, 3\)"):
                dist.block(np.array(bad), np.arange(3))

    def test_each_block_is_checked(self):
        good = np.ones((3, 4))
        for bad, message in ((-good, "negative"), (good * np.inf, "non-finite")):
            for pair in ((good, bad), (bad, good)):
                with pytest.raises(ValueError, match=message):
                    run_matrix(*pair)
        with pytest.raises(ValueError, match="feature dimension mismatch"):
            _run_features(good, np.ones((3, 5)))

    def test_out_must_fit_the_result(self):
        # packed cells when cols is rows, the rectangular shape otherwise
        x = np.ones((3, 4))
        for out in (np.empty((3, 3)), np.empty(4, dtype=np.float32), np.empty(5)):
            with pytest.raises(ValueError, match="out must be float64 of shape"):
                chi2_distance_matrix(x, x, out)
        with pytest.raises(ValueError, match="out must be float64 of shape"):
            chi2_distance_matrix(x, x.copy(), np.empty(4))

    def test_peak_holds_no_stacked_copy(self, monkeypatch):
        # the stacked rows are the caller's, 3 MB, and the dense matrix
        # would take 74 KB; the fill holds the packed cells and one
        # worker's chi-square scratch, two arrays of 2^16 floats (1 MiB),
        # with numpy's 64 KiB reduction buffer. The input checks' min and
        # max reductions allocate no array
        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 1)
        rng = np.random.default_rng(46)
        x = np.vstack([rng.random((64, 4000)), rng.random((32, 4000))])
        tracemalloc.start()
        try:
            dist = PackedDistances(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = 2 * 8 * zslkit.kernels._TILE_FLOATS
        assert peak < dist.cells.nbytes + scratch + 2**17

    def test_gather_holds_its_block_and_bounded_chunks(self):
        # the (2000, 2000) block of a 2100-row run, its rows unsorted as a
        # folds file may list them: 32 MB of output, plus chunk temporaries
        # of 2^14 cells, 3 x 128 KB of int64
        dist = PackedDistances(np.random.default_rng(48).random((2100, 2)))
        rows = np.random.default_rng(49).permutation(2100)[:2000]
        tracemalloc.start()
        try:
            block = dist.block(rows, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes + 2**20


class TestInputCheck:
    """``_as_matrix`` decides its checks with one min and one max; it must
    raise exactly when the whole-array mask form does, and hold no mask."""

    @staticmethod
    def _error(check, m, require_nonnegative):
        try:
            check(m, "x", require_nonnegative)
        except ValueError as exc:
            return str(exc)
        return None

    @settings(max_examples=300, deadline=None)
    @given(
        m=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            elements=st.floats(0, 10),
        ),
        specials=st.lists(
            st.tuples(
                st.integers(0, 35),
                st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1.0, -5e-324]),
            ),
            max_size=3,
        ),
        require_nonnegative=st.booleans(),
    )
    @example(m=np.empty((0, 4)), specials=[], require_nonnegative=True)
    @example(m=np.empty((4, 0)), specials=[], require_nonnegative=True)
    @example(m=np.ones((2, 2)), specials=[(3, -1.0), (0, math.nan)], require_nonnegative=True)
    def test_raises_as_the_mask_form_does(self, m, specials, require_nonnegative):
        for cell, value in specials:
            if m.size:
                m.flat[cell % m.size] = value
        expected = self._error(memory_reference.check_matrix, m, require_nonnegative)
        assert self._error(_as_matrix, m, require_nonnegative) == expected

    def test_holds_no_mask(self):
        m = np.random.default_rng(47).random((512, 512))
        tracemalloc.start()
        try:
            _as_matrix(m, "x", require_nonnegative=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one bool mask of this block would be 256 KB
        assert peak < 2**16


class TestTiledChi2:
    """The chi-square matrix is computed in tiles spread over worker
    threads; it must equal the former single-threaded kernel bit for bit
    for any worker count and shape, packed when ``cols is rows``."""

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
        sym_ref = distance_oracle.chi2_distance_matrix(x, x)
        cross_ref = distance_oracle.chi2_distance_matrix(x, y)
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(zslkit.kernels, "_worker_count", lambda w=workers: w)
                sym = unpack(chi2_distance_matrix(x, x), n)
                cross = chi2_distance_matrix(x, y)
            np.testing.assert_array_equal(bits(sym), bits(sym_ref))
            np.testing.assert_array_equal(bits(cross), bits(cross_ref))

    def test_fewer_rows_than_workers(self, monkeypatch):
        rng = np.random.default_rng(40)
        x = rng.random((70, 32)) * (rng.random((70, 32)) > 0.5)
        cols = x.copy()  # not ``x``, so that ``rows is x`` is a rectangular call
        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 3)
        for rows in (x, x[:2], x[:1], x[:0]):
            np.testing.assert_array_equal(
                bits(unpack(chi2_distance_matrix(rows, rows), len(rows))),
                bits(distance_oracle.chi2_distance_matrix(rows, rows)),
            )
            np.testing.assert_array_equal(
                bits(chi2_distance_matrix(rows, cols)),
                bits(distance_oracle.chi2_distance_matrix(rows, cols)),
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
        np.testing.assert_array_equal(
            bits(unpack(sym, 120)), bits(distance_oracle.chi2_distance_matrix(x, x))
        )
        np.testing.assert_array_equal(bits(cross), bits(distance_oracle.chi2_distance_matrix(x, y)))

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("thread started")

        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 1)
        monkeypatch.setattr(threading, "Thread", no_threads)
        x = np.random.default_rng(41).random((30, 1000))
        np.testing.assert_array_equal(
            bits(unpack(chi2_distance_matrix(x, x), 30)),
            bits(distance_oracle.chi2_distance_matrix(x, x)),
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
