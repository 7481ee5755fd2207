import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import memory_reference
from qp_oracle import svr_dual_oracle
from zslkit.embedding import l2_normalize
from zslkit.evaluate import ExperimentConfig, _fit_regressor, _run_features
from zslkit.kernels import (
    PackedDistances,
    distance_matrix,
    fit_kernel,
    gram_matrix,
    heuristic_gamma,
    squared_euclidean_distances,
)
from zslkit import smo
from zslkit.smo import ConvergenceError
from zslkit.svr import (
    _SYMMETRY_BLOCK_CELLS,
    _validate_gram,
    predict_batch,
    train_semantic_regressor,
    train_svr,
)


# histogram bins, many of them exactly zero
bins = st.one_of(st.just(0.0), st.floats(0, 10))


def dense_coefficients(reg, j, n):
    """Dimension j's coefficients over all ``n`` training samples."""
    beta = np.zeros(n)
    beta[reg.pool_indices] = reg.coefficients[j]
    return beta


def chi2_gram(gamma, rows, cols=None):
    """Chi-square RBF kernel values of ``rows`` against ``cols``."""
    return gram_matrix(gamma, distance_matrix(rows, cols))


def fit(x, emb, epsilon, gamma):
    """The regressor of training rows ``x`` and targets ``emb``, at C = 2."""
    return train_semantic_regressor(emb, chi2_gram(gamma, x), 2.0, epsilon)


def project(reg, gamma, x, probes):
    """Projections of ``probes`` by ``reg``, trained on rows ``x`` under
    bandwidth ``gamma``."""
    return predict_batch(reg, chi2_gram(gamma, probes, x[reg.pool_indices]))


def random_problem(rng, n, d, gamma=None):
    x = rng.dirichlet(np.ones(d), size=n)
    gamma = gamma or heuristic_gamma(x)
    return x, gamma, chi2_gram(gamma, x)


class TestTrainSvr:
    def test_two_samples_match_oracle(self, monkeypatch):
        monkeypatch.setattr(smo, "TOLERANCE", 1e-10)
        rng = np.random.default_rng(1)
        x, gamma, gram = random_problem(rng, 2, 4)
        y = np.array([-1.0, 1.0])
        res = train_svr(gram, y, 2.0, 0.0)
        beta_o, bias_o, _ = svr_dual_oracle(gram, y, 2.0, 0.0)
        np.testing.assert_allclose(
            gram @ res.coef[0] + res.bias[0], gram @ beta_o + bias_o, atol=1e-4
        )

    def test_constant_targets_fit_inside_tube(self):
        rng = np.random.default_rng(2)
        _, _, gram = random_problem(rng, 6, 4)
        res = train_svr(gram, np.full(6, 5.0), 2.0, 0.1)
        assert np.flatnonzero(res.coef[0]).size == 0
        assert res.bias[0] == pytest.approx(5.0, abs=1e-12)
        np.testing.assert_allclose(
            gram @ res.coef[0] + res.bias[0], np.full(6, 5.0), atol=1e-12
        )

    def test_dual_objective_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(smo, "TOLERANCE", 1e-10)
        rng = np.random.default_rng(3)
        x, gamma, gram = random_problem(rng, 10, 5)
        y = rng.normal(size=10)
        res = train_svr(gram, y, 2.0, 0.1)
        _, _, obj_o = svr_dual_oracle(gram, y, 2.0, 0.1)
        assert abs(-res.objective[0] - obj_o) <= 1e-6 * max(1.0, abs(obj_o))

    def test_box_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            _, _, gram = random_problem(rng, 12, 6)
            y = rng.normal(scale=2.0, size=12)
            res = train_svr(gram, y, 2.0, 0.05)
            support = np.flatnonzero(res.coef[0])
            assert np.all(np.abs(res.coef[0, support]) <= 2.0 + 1e-9)

    def test_kkt_residuals(self, monkeypatch):
        # non-bound support vectors sit on the tube; off-tube points are at the box
        monkeypatch.setattr(smo, "TOLERANCE", 1e-8)
        rng = np.random.default_rng(5)
        _, _, gram = random_problem(rng, 20, 6)
        y = rng.normal(size=20)
        res = train_svr(gram, y, 2.0, 0.1)
        preds = gram @ res.coef[0] + res.bias[0]
        beta = res.coef[0]
        resid = np.abs(preds - y)
        free = (np.abs(beta) > 1e-7) & (np.abs(beta) < 2.0 - 1e-7)
        assert np.all(np.abs(resid[free] - 0.1) < 1e-4)
        outside = resid > 0.1 + 1e-4
        assert np.all(np.abs(np.abs(beta[outside]) - 2.0) < 1e-7)

    def test_interpolates_with_tiny_epsilon_and_large_c(self, monkeypatch):
        monkeypatch.setattr(smo, "TOLERANCE", 1e-10)
        rng = np.random.default_rng(6)
        x = rng.dirichlet(np.ones(4), size=5)
        gram = chi2_gram(2.0, x)
        assert np.linalg.eigvalsh(gram).min() > 1e-10  # strictly PD
        y = rng.normal(size=5)
        res = train_svr(gram, y, 1e6, 0.0)
        np.testing.assert_allclose(gram @ res.coef[0] + res.bias[0], y, atol=1e-3)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="square"):
            train_svr(np.ones((2, 3)), np.zeros(2), 2.0, 0.1)
        with pytest.raises(ValueError, match="symmetric"):
            train_svr(np.array([[1.0, 0.5], [0.1, 1.0]]), np.zeros(2), 2.0, 0.1)
        # asymmetry within rounding is refused too
        with pytest.raises(ValueError, match="symmetric"):
            train_svr(np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]]), np.zeros(2), 2.0, 0.1)
        with pytest.raises(ValueError, match="targets length"):
            train_svr(np.eye(3), np.zeros(2), 2.0, 0.1)
        with pytest.raises(ValueError, match="at least 2"):
            train_svr(np.eye(1), np.zeros(1), 2.0, 0.1)

    def test_nonconvergence_carries_diagnostics(self, monkeypatch):
        monkeypatch.setattr(smo, "TOLERANCE", 1e-12)
        monkeypatch.setattr(smo, "MAX_ITER", 2)
        rng = np.random.default_rng(7)
        _, _, gram = random_problem(rng, 10, 5)
        y = rng.normal(size=10)
        with pytest.raises(ConvergenceError) as err:
            train_svr(gram, y, 2.0, 0.0)
        assert err.value.iterations == 2
        assert err.value.violation > 0
        assert err.value.result is not None

    def test_config_validation(self):
        gram = np.eye(2)
        for c, epsilon, message in [
            (0.0, 0.1, "c must be positive, got 0.0"),
            (float("inf"), 0.1, "c must be positive, got inf"),
            (2.0, -0.1, "epsilon must be non-negative, got -0.1"),
            (2.0, float("nan"), "epsilon must be non-negative, got nan"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                train_svr(gram, np.zeros(2), c, epsilon)


class TestGramSymmetryCheck:
    """The symmetry check compares row blocks with column blocks, so it
    holds no n^2 temporary and decides as the whole-matrix check does."""

    def test_symmetric_gram_peak_is_bounded(self):
        n = 3000
        v = np.random.default_rng(20).random(n)
        g = np.add.outer(v, v)  # exactly symmetric
        tracemalloc.start()
        try:
            out = _validate_gram(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is g
        # the whole-matrix check held an n^2 bool array, 8.6 MiB here
        assert peak < 2**20

    def _gram_and_last_block_cell(self):
        n = 600
        rows = _SYMMETRY_BLOCK_CELLS // n
        assert n > rows >= 2  # several blocks; the cell's pair shares the last
        x = np.random.default_rng(21).dirichlet(np.ones(5), size=n)
        return chi2_gram(1.0, x), (n - 1, n - 2)

    @pytest.mark.parametrize("first_block", [True, False], ids=["first", "last"])
    def test_one_ulp_asymmetry_raises(self, first_block):
        g, cell = self._gram_and_last_block_cell()
        if first_block:
            cell = (0, 1)
        g[cell] = np.nextafter(g[cell], np.inf)
        with pytest.raises(ValueError, match="gram matrix is not symmetric"):
            _validate_gram(g)
        with pytest.raises(ValueError, match="gram matrix is not symmetric"):
            memory_reference.validate_gram(g)
        with pytest.raises(ValueError, match="gram matrix is not symmetric"):
            train_svr(g, np.zeros(g.shape[0]), 2.0, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        t=hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 12)), elements=bins),
        n_a=st.integers(0, 8),
        data=st.data(),
    )
    def test_every_run_gram_is_exactly_symmetric(self, t, n_a, data):
        # a unit's Gram matrix is fit_kernel over a block of the run matrix
        # gathered by its rows, which a folds file may list unsorted or
        # repeated; the symmetry check must pass it through uncopied
        a = data.draw(hnp.arrays(np.float64, (n_a, t.shape[1]), elements=bins))
        dist = PackedDistances(_run_features(t, a))
        rows = np.array(data.draw(st.lists(st.integers(0, dist.n - 1), min_size=2,
                                           max_size=2 * dist.n + 2)), dtype=np.intp)
        block = dist.block(rows, rows)
        # gamma of an all-zero block is refused; any bandwidth keeps it symmetric
        gram = fit_kernel(block)[1] if block.any() else gram_matrix(1.0, block)
        assert np.array_equal(gram, gram.T)
        assert _validate_gram(gram) is gram

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 20), st.integers(1, 8)),
                      elements=st.floats(-10, 10))
           .filter(lambda x: np.linalg.norm(x, axis=1).min() > 1e-6))
    def test_svm_gram_is_exactly_symmetric(self, x):
        # the multi-shot SVM's Gram matrix, over L2-normalized projections
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        d = squared_euclidean_distances(x)
        gram = fit_kernel(d)[1] if d.any() else gram_matrix(1.0, d)
        assert np.array_equal(gram, gram.T)
        assert _validate_gram(gram) is gram

    def test_clear_asymmetry_in_last_block_raises(self):
        g, cell = self._gram_and_last_block_cell()
        g[cell] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            _validate_gram(g)
        with pytest.raises(ValueError, match="symmetric"):
            memory_reference.validate_gram(g)


class TestRunKernelRows:
    """Every set of kernel rows a unit projects, its own training rows
    included, is one C-ordered gather from the run matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        t=hnp.arrays(np.float64, st.tuples(st.integers(2, 20), st.integers(1, 12)), elements=bins),
        n_a=st.integers(0, 8),
        data=st.data(),
    )
    def test_unit_kernel_rows_are_gathered_from_the_run_matrix(self, t, n_a, data):
        # drawn row sets may be unsorted, repeated or empty; the training
        # rows' own set holds the pool columns of their Gram block
        a = data.draw(hnp.arrays(np.float64, (n_a, t.shape[1]), elements=bins))
        dist = PackedDistances(_run_features(t, a))
        every = np.arange(dist.n)
        dense = dist.block(every, every)
        index = st.integers(0, dist.n - 1)
        rows = np.array(data.draw(st.lists(index, min_size=2, max_size=2 * dist.n)), dtype=np.intp)
        row_sets = [np.array(data.draw(st.lists(index, max_size=2 * dist.n)), dtype=np.intp)
                    for _ in range(data.draw(st.integers(0, 2)))]
        block = dist.block(rows, rows)
        config = ExperimentConfig()
        targets = np.random.default_rng(rows.size).normal(size=(rows.size, 3))
        if not block.any():  # identical rows have no mean distance to set gamma
            with pytest.raises(ValueError, match="mean pairwise distance is zero"):
                _fit_regressor(config, dist, rows, targets, rows, *row_sets)
            return
        gamma, gram = fit_kernel(block)
        regressor, kernel_rows = _fit_regressor(config, dist, rows, targets, rows, *row_sets)
        pool = regressor.pool_indices
        assert len(kernel_rows) == 1 + len(row_sets)
        for r, k in zip([rows, *row_sets], kernel_rows):
            assert k.flags.c_contiguous
            expected = gram_matrix(gamma, dense[np.ix_(r, rows[pool])])
            assert k.tobytes() == expected.tobytes() and k.shape == expected.shape
        assert kernel_rows[0].tobytes() == np.ascontiguousarray(gram[:, pool]).tobytes()


class TestSemanticRegressor:
    def test_single_dimension_reduces_to_train_svr(self):
        rng = np.random.default_rng(8)
        x, gamma, gram = random_problem(rng, 8, 5)
        y = rng.normal(size=8)
        reg = train_semantic_regressor(y[:, None], gram, 2.0, 0.05)
        solo = train_svr(gram, y, 2.0, 0.05)
        support = np.flatnonzero(solo.coef[0])
        np.testing.assert_array_equal(reg.pool_indices, support)
        np.testing.assert_array_equal(reg.coefficients[0], solo.coef[0, support])
        assert reg.biases[0] == solo.bias[0]
        assert reg.iterations[0] == solo.row_iterations[0]

    def test_constant_unit_vector_targets(self):
        rng = np.random.default_rng(9)
        x = rng.dirichlet(np.ones(5), size=10)
        gamma = heuristic_gamma(x)
        target = l2_normalize(np.array([1.0, 2.0, 2.0]))
        emb = np.tile(target, (10, 1))
        reg = fit(x, emb, 0.05, gamma)
        probe = rng.dirichlet(np.ones(5), size=1)
        np.testing.assert_allclose(project(reg, gamma, x, probe)[0], target, atol=0.05 + 1e-9)

    def test_per_dimension_independence(self):
        rng = np.random.default_rng(10)
        _, gamma, gram = random_problem(rng, 8, 5)
        emb = rng.normal(size=(8, 3))
        scrambled = emb.copy()
        scrambled[:, 1] = rng.permutation(scrambled[:, 1])
        scrambled[:, 2] = -scrambled[:, 2]
        a = train_semantic_regressor(emb, gram, 2.0, 0.05)
        b = train_semantic_regressor(scrambled, gram, 2.0, 0.05)
        np.testing.assert_array_equal(dense_coefficients(a, 0, 8), dense_coefficients(b, 0, 8))
        assert a.biases[0] == b.biases[0]

    def test_no_support_vectors_predicts_bias(self):
        rng = np.random.default_rng(11)
        x = rng.dirichlet(np.ones(4), size=6)
        emb = np.tile([0.25, -0.5], (6, 1))
        reg = fit(x, emb, 0.1, 1.0)
        assert reg.pool_indices.size == 0
        np.testing.assert_allclose(
            project(reg, 1.0, x, rng.dirichlet(np.ones(4), size=1))[0], [0.25, -0.5], atol=1e-12
        )

    def test_support_storage_order_is_immaterial(self):
        rng = np.random.default_rng(12)
        x, gamma, _ = random_problem(rng, 10, 5)
        emb = rng.normal(size=(10, 2))
        reg = fit(x, emb, 0.01, gamma)
        perm = rng.permutation(reg.pool_indices.size)
        permuted = dataclasses.replace(
            reg,
            pool_indices=reg.pool_indices[perm],
            coefficients=reg.coefficients[:, perm],
        )
        probes = rng.dirichlet(np.ones(5), size=20)
        np.testing.assert_allclose(
            project(reg, gamma, x, probes), project(permuted, gamma, x, probes), atol=1e-10
        )

    def test_coefficient_memory_order_is_immaterial(self):
        rng = np.random.default_rng(21)
        x, gamma, _ = random_problem(rng, 60, 4)
        reg = fit(x, rng.normal(size=(60, 12)), 0.01, gamma)
        # trained coefficients are C-ordered, so predict_batch multiplies by
        # them without a copy
        assert reg.coefficients.flags.c_contiguous
        assert reg.coefficients.shape[1] >= 30  # the product's blocking depends on layout
        flipped = dataclasses.replace(reg, coefficients=np.asfortranarray(reg.coefficients))
        probes = rng.dirichlet(np.ones(4), size=200)
        np.testing.assert_array_equal(
            project(flipped, gamma, x, probes), project(reg, gamma, x, probes)
        )

    def test_kernel_row_memory_order_is_immaterial(self):
        rng = np.random.default_rng(21)
        x, gamma, _ = random_problem(rng, 60, 4)
        reg = fit(x, rng.normal(size=(60, 12)), 0.01, gamma)
        rows = chi2_gram(gamma, rng.dirichlet(np.ones(4), size=66), x[reg.pool_indices])
        assert rows.flags.c_contiguous and reg.coefficients.shape[1] >= 30
        # an F-ordered product rounds differently at this shape, so the
        # projection must take its rows in one order whatever it is given
        np.testing.assert_array_equal(
            predict_batch(reg, np.asfortranarray(rows)), predict_batch(reg, rows)
        )

    def test_beats_constant_mean_on_synthetic_linear_map(self):
        rng = np.random.default_rng(13)
        d_x, d_z, n_train, n_test = 8, 4, 50, 20
        mapping = rng.normal(size=(d_z, d_x))
        x = rng.dirichlet(np.ones(d_x), size=n_train + n_test)
        z = x @ mapping.T + 0.02 * rng.normal(size=(n_train + n_test, d_z))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        x_tr, x_te, z_tr, z_te = x[:n_train], x[n_train:], z[:n_train], z[n_train:]
        gamma = heuristic_gamma(x_tr)
        reg = fit(x_tr, z_tr, 0.05, gamma)
        proj = project(reg, gamma, x_tr, x_te)

        def mean_cosdist(pred):
            pn = pred / np.linalg.norm(pred, axis=1, keepdims=True)
            return float(np.mean(1.0 - np.sum(pn * z_te, axis=1)))

        baseline = np.tile(z_tr.mean(axis=0), (n_test, 1))
        assert mean_cosdist(proj) < mean_cosdist(baseline)

    def test_shape_validation(self):
        gram = chi2_gram(1.0, np.ones((3, 2)) / 2)
        for embeddings, message in [
            (np.ones((2, 2)), "targets length 2 does not match gram size 3"),
            (np.ones(3), r"embeddings must be 2-D .*, got shape \(3,\)"),
            (np.ones((3, 0)), r"at least one column, got shape \(3, 0\)"),
        ]:
            with pytest.raises(ValueError, match=message):
                train_semantic_regressor(embeddings, gram, 2.0, 0.1)
        rng = np.random.default_rng(15)
        x = rng.dirichlet(np.ones(3), size=4)
        reg = fit(x, rng.normal(size=(4, 2)), 0.0, 1.0)
        pool = reg.coefficients.shape[1]
        expected = rf"kernel rows have shape .*, expected \(n, {pool}\)"
        for rows in (np.ones((3, pool + 1)), np.ones(pool)):
            with pytest.raises(ValueError, match=expected):
                predict_batch(reg, rows)
