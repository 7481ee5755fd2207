import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import memory_reference
from zslkit.embedding import Label, l2_normalize
from zslkit.kernels import distance_matrix, gram_matrix, heuristic_gamma
from zslkit.svr import train_semantic_regressor
from zslkit.zsl import (
    Prediction,
    augment_training,
    label_targets,
    _match_rows,
    nearest_prototype,
    self_train,
    write_predictions_csv,
    zsl_predict,
)


class TestLabelTargets:
    def test_single_word_is_normalized_vector(self, toy_store):
        vectors = label_targets([Label.of("walk")], toy_store)
        np.testing.assert_allclose(vectors[0], l2_normalize([2.0, 2.0, 0.0]))

    def test_multi_word_composition(self, toy_store):
        vectors = label_targets([Label.of("ride horse")], toy_store)
        expected = l2_normalize(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(vectors[0], expected)


# a few repeated values make exact distance ties common
coordinates = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-10, 10))


class TestNnClassify:
    def _protos(self):
        return np.array([[1.0, 0.0], [0.0, 1.0]])

    def test_exact_match(self):
        idx, dist = nearest_prototype(self._protos(), np.array([[1.0, 0.0]]))
        assert idx.tolist() == [0] and dist.tolist() == [0.0]

    def test_nearer_prototype_wins(self):
        # distances: to (1,0) 0.1996..., to (0,1) 1.3428... (hand-computed)
        proj = l2_normalize(np.array([0.9, 0.1]))
        protos = self._protos()
        assert np.linalg.norm(proj - protos[0]) < np.linalg.norm(proj - protos[1])
        assert nearest_prototype(protos, proj[None])[0].tolist() == [0]

    def test_tie_takes_list_order(self):
        proj = l2_normalize(np.array([1.0, 1.0]))
        assert nearest_prototype(self._protos(), proj[None])[0].tolist() == [0]

    def test_empty_prototypes(self):
        with pytest.raises(ValueError, match="no prototypes"):
            nearest_prototype(np.empty((0, 1)), np.array([[1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="do not match prototypes"):
            nearest_prototype(self._protos(), np.array([1.0, 0.0]))

    def test_uniform_scaling_preserves_argmin(self):
        rng = np.random.default_rng(0)
        protos = rng.normal(size=(5, 4))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        proj = rng.normal(size=(20, 4))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        base_idx, _ = nearest_prototype(protos, proj)
        # on unit-norm rows the Euclidean-nearest prototype is the cosine-nearest
        np.testing.assert_array_equal(
            base_idx, np.argmax(proj @ protos.T, axis=1)
        )
        for scale in (0.1, 3.0, 42.0):
            idx, _ = nearest_prototype(scale * protos, scale * proj)
            assert idx.tolist() == base_idx.tolist()

    @given(st.data())
    def test_matrix_equals_per_row_reference_bitwise(self, data):
        n_proto = data.draw(st.integers(1, 6))
        n_proj = data.draw(st.integers(1, 8))
        d_z = data.draw(st.integers(1, 5))
        mat = data.draw(hnp.arrays(np.float64, (n_proto, d_z), elements=coordinates))
        proj = data.draw(hnp.arrays(np.float64, (n_proj, d_z), elements=coordinates))
        idx, dist = nearest_prototype(mat, proj)
        for i, v in enumerate(proj):
            d = np.linalg.norm(mat - v, axis=1)
            j = int(np.argmin(d))
            assert idx[i] == j
            assert dist[i].tobytes() == d[j].tobytes()


class TestChunkedMatching:
    """Matching runs over row chunks; it must equal the one-tensor form
    bit for bit and hold only a chunk's difference tensor."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_one_tensor_form_bitwise(self, data):
        n_proto = data.draw(st.integers(1, 30), label="prototypes")
        d_z = data.draw(st.sampled_from([1, 2, 7, 50, 300]), label="d_z")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        mat = rng.normal(size=(n_proto, d_z))
        if n_proto > 1 and data.draw(st.booleans(), label="tied"):
            mat[-1] = mat[0]  # an exact tie, which the first prototype wins
        step = _match_rows(mat)
        n_proj = data.draw(
            st.sampled_from([1, step, step + 1, 3 * step + 2]), label="projections"
        )
        proj = rng.normal(size=(n_proj, d_z))
        idx, dist = nearest_prototype(mat, proj)
        ref_idx, ref_dist = memory_reference.nearest_prototype(mat, proj)
        assert idx.dtype == ref_idx.dtype
        np.testing.assert_array_equal(idx, ref_idx)
        assert dist.tobytes() == ref_dist.tobytes()

    def test_no_projections(self):
        idx, dist = nearest_prototype(np.array([[1.0, 0.0]]), np.empty((0, 2)))
        assert idx.shape == dist.shape == (0,)

    def test_half_split_peak_is_bounded(self):
        # one HMDB51 half-split at d_z=300: the one-tensor form traced
        # 404 MiB here
        rng = np.random.default_rng(40)
        mat = rng.normal(size=(26, 300))
        proj = rng.normal(size=(3383, 300))
        tracemalloc.start()
        try:
            nearest_prototype(mat, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSelfTrain:
    def test_k1_snaps_to_nearest_projection(self):
        protos = np.array([[1.0, 0.0]])
        proj = np.array([[0.8, 0.6], [0.0, 1.0]])
        adapted = self_train(protos, proj, 1)
        np.testing.assert_array_equal(adapted[0], l2_normalize(proj[0]))

    def test_identical_projections_collapse(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = l2_normalize(np.array([0.6, 0.8]))
        proj = np.tile(v, (4, 1))
        for row in self_train(protos, proj, 2):
            np.testing.assert_allclose(row, v, atol=1e-12)

    def test_hand_computed_two_neighbour_mean(self):
        protos = np.array([[1.0, 0.0]])
        proj = np.array([[0.8, 0.6], [0.6, 0.8], [0.0, 1.0]])
        adapted = self_train(protos, proj, 2)
        np.testing.assert_allclose(adapted[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_inputs_unmodified(self):
        protos = np.array([[1.0, 0.0]])
        proj = np.array([[0.0, 1.0]])
        self_train(protos, proj, 1)
        np.testing.assert_array_equal(protos, [[1.0, 0.0]])
        np.testing.assert_array_equal(proj, [[0.0, 1.0]])

    def test_k_out_of_range(self):
        protos = np.array([[1.0, 0.0]])
        for k, n in ((0, 1), (2, 1), (1, 0)):
            message = f"k={k} is not between 1 and the number of test projections ({n})"
            with pytest.raises(ValueError, match=re.escape(message)):
                self_train(protos, np.ones((n, 2)), k)

    def test_k_equals_all_collapses_to_global_mean_and_is_idempotent(self):
        rng = np.random.default_rng(1)
        proj = rng.normal(size=(6, 3))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        protos = rng.normal(size=(2, 3))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        once = self_train(protos, proj, 6)
        global_mean = l2_normalize(proj.mean(axis=0))
        for row in once:
            np.testing.assert_allclose(row, global_mean, atol=1e-12)
        np.testing.assert_allclose(self_train(once, proj, 6), once, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_prototype_reference_bitwise(self, data):
        n_proto = data.draw(st.integers(1, 6), label="prototypes")
        n_proj = data.draw(st.integers(1, 9), label="projections")
        d_z = data.draw(st.integers(1, 5), label="d_z")
        mat = data.draw(hnp.arrays(np.float64, (n_proto, d_z), elements=coordinates))
        proj = data.draw(hnp.arrays(np.float64, (n_proj, d_z), elements=coordinates))
        norms = np.linalg.norm(proj, axis=1, keepdims=True)
        assume((norms > 0).all())
        proj /= norms  # projections reach self-training L2-normalized
        if n_proj > 1 and data.draw(st.booleans(), label="tied"):
            proj[-1] = proj[0]  # an exact distance tie for every prototype
        k = data.draw(st.sampled_from(sorted({1, n_proj, (n_proj + 1) // 2})), label="k")
        try:
            reference = memory_reference.self_train(mat, proj, k)
        except ValueError:  # opposite neighbours average to the zero vector
            with pytest.raises(ValueError, match="zero vector"):
                self_train(mat, proj, k)
            return
        adapted = self_train(mat, proj, k)
        assert adapted.shape == reference.shape == (n_proto, d_z)
        assert adapted.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("d_z", [10, 50, 300])
    def test_equals_per_prototype_reference_at_run_shapes(self, d_z):
        rng = np.random.default_rng(d_z)
        mat = rng.normal(size=(26, d_z))
        proj = rng.normal(size=(700, d_z))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        got = self_train(mat, proj, 10)
        assert got.tobytes() == memory_reference.self_train(mat, proj, 10).tobytes()

    def test_half_split_peak_is_bounded(self):
        # one HMDB51 half-split at d_z=300: a full (n, d_z) pass per
        # prototype traced 7.9 MiB here
        rng = np.random.default_rng(40)
        mat = rng.normal(size=(26, 300))
        proj = rng.normal(size=(3383, 300))
        tracemalloc.start()
        try:
            self_train(mat, proj, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestZslPredict:
    def _fitted(self, rng, toy_store):
        labels = [Label.of("run" if i % 2 == 0 else "jump") for i in range(12)]
        x = np.array(
            [rng.dirichlet([3, 1, 1]) if i % 2 == 0 else rng.dirichlet([1, 1, 3]) for i in range(12)]
        )
        gamma = heuristic_gamma(x)
        reg = train_semantic_regressor(
            label_targets(labels, toy_store), gram_matrix(gamma, distance_matrix(x)), 2.0, 0.05
        )
        return x, gamma, reg

    @staticmethod
    def _predict(x, gamma, reg, toy_store, unseen, test_x):
        kernel_rows = gram_matrix(gamma, distance_matrix(test_x, x[reg.pool_indices]))
        ids = [f"te{i}" for i in range(len(test_x))]
        return zsl_predict(reg, label_targets([unseen], toy_store), [unseen], kernel_rows, ids)

    def test_zero_test_instances(self, toy_store):
        rng = np.random.default_rng(2)
        x, gamma, reg = self._fitted(rng, toy_store)
        assert self._predict(x, gamma, reg, toy_store, Label.of("walk"), np.empty((0, 3))) == []

    def test_kernel_rows_must_match_the_test_instances(self, toy_store):
        rng = np.random.default_rng(5)
        _, _, reg = self._fitted(rng, toy_store)
        unseen = [Label.of("walk")]
        rows = np.ones((2, reg.pool_indices.size))
        with pytest.raises(ValueError, match="2 kernel rows for 1 test instances"):
            zsl_predict(reg, label_targets(unseen, toy_store), unseen, rows, ["te0"])

    def test_single_unseen_class_is_forced(self, toy_store):
        rng = np.random.default_rng(3)
        x, gamma, reg = self._fitted(rng, toy_store)
        test_x = rng.dirichlet([1, 1, 1], size=5)
        preds = self._predict(x, gamma, reg, toy_store, Label.of("walk"), test_x)
        assert len(preds) == 5
        assert all(p.label == Label.of("walk") for p in preds)

    def test_self_training_fixed_point_leaves_predictions_unchanged(self):
        # projections arranged symmetrically so each prototype's 2-NN mean
        # renormalizes back onto the prototype itself
        protos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        delta = np.array([0.0, 0.0, 0.1])
        proj = np.vstack(
            [protos[0] + delta, protos[0] - delta, protos[1] + delta, protos[1] - delta]
        )
        adapted = self_train(protos, proj, 2)
        np.testing.assert_allclose(adapted, protos, atol=1e-12)
        np.testing.assert_array_equal(
            nearest_prototype(protos, proj)[0], nearest_prototype(adapted, proj)[0]
        )

    def test_predictions_csv_format(self, tmp_path, toy_store):
        rng = np.random.default_rng(4)
        x, gamma, reg = self._fitted(rng, toy_store)
        test_x = rng.dirichlet([1, 1, 1], size=3)
        preds = self._predict(x, gamma, reg, toy_store, Label.of("brush hair"), test_x)
        out = tmp_path / "preds.csv"
        write_predictions_csv(preds, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,predicted_label,distance"
        assert lines[1].startswith("te0,brush_hair,")

    def test_predictions_csv_quotes_ids(self, tmp_path):
        # load_dataset reads a quoted id with a comma, a quote or a newline;
        # the prediction file must give it back as one cell
        preds = [
            Prediction("clip,1", Label.of("run"), 0.25),
            Prediction('say "hi"', Label.of("jump"), float("nan")),
            Prediction("two\nlines", Label.of("run"), 1.5),
            Prediction("a\rb", Label.of("jump"), 1.0),
            Prediction("plain", Label.of("run"), 0.5),
        ]
        out = tmp_path / "preds.csv"
        write_predictions_csv(preds, out)
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            ["clip,1", "run", "0.25"], ['say "hi"', "jump", "nan"], ["two\nlines", "run", "1.5"],
            ["a\rb", "jump", "1.0"], ["plain", "run", "0.5"],
        ]
        # an id without special characters is written bare
        assert out.read_bytes().endswith(b"\nplain,run,0.5\n")


class TestAugmentTraining:
    # the run's classes and the class index of each training row: 10
    # target rows of "run", then 15 auxiliary rows of "jump"
    CLASSES = [Label.of("run"), Label.of("jump")]
    CLASS_OF = np.repeat(np.arange(2), [10, 15])

    def test_empty_auxiliary_is_identity(self, toy_store):
        vectors = label_targets(self.CLASSES, toy_store)
        merged = augment_training(vectors, self.CLASS_OF[:10], self.CLASSES, np.array([1]))
        np.testing.assert_array_equal(merged, np.tile(vectors[0], (10, 1)))
        assert merged.shape == (10, 3)

    def test_concatenation_order_and_counts(self, toy_store):
        vectors = label_targets(self.CLASSES, toy_store)
        merged = augment_training(vectors, self.CLASS_OF, self.CLASSES, np.array([], np.intp))
        assert merged.shape == (25, 3)
        for rows, c in ((slice(0, 10), 0), (slice(10, 25), 1)):
            np.testing.assert_array_equal(merged[rows], vectors[[c] * (rows.stop - rows.start)])

    def test_targets_are_normalized_label_embeddings(self, toy_store):
        vectors = label_targets(self.CLASSES, toy_store)
        merged = augment_training(vectors, self.CLASS_OF, self.CLASSES, np.array([], np.intp))
        np.testing.assert_allclose(merged[0], l2_normalize([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(merged[10], l2_normalize([0.0, 1.0, 0.0]))

    def test_unseen_collision_is_named(self, toy_store):
        vectors = label_targets(self.CLASSES, toy_store)
        with pytest.raises(ValueError, match="auxiliary class 'jump' collides"):
            augment_training(vectors, self.CLASS_OF, self.CLASSES, np.array([1]))
