import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import memory_reference
from zslkit.data import Dataset
from zslkit.embedding import Label, l2_normalize
from zslkit.kernels import KernelSpec, gram_matrix, heuristic_gamma
from zslkit.svr import SvrConfig, train_semantic_regressor
from zslkit.zsl import (
    Prototype,
    SelfTrainConfig,
    augment_training,
    build_prototypes,
    label_targets,
    _match_rows,
    nearest_prototype,
    prototype_matrix,
    self_train,
    write_predictions_csv,
    zsl_predict,
)


def make_dataset(name, entries, d_x):
    """entries: list of (id, label string, feature list)."""
    labels = [Label.of(lab) for _, lab, _ in entries]
    return Dataset(
        name=name,
        d_x=d_x,
        ids=[e[0] for e in entries],
        labels=labels,
        features=np.array([e[2] for e in entries], dtype=float).reshape(-1, d_x),
        class_vocabulary=list(dict.fromkeys(labels)),
    )


class TestBuildPrototypes:
    def test_single_word_is_normalized_vector(self, toy_store):
        protos = build_prototypes(toy_store, [Label.of("walk")])
        np.testing.assert_allclose(protos[0].vector, l2_normalize([2.0, 2.0, 0.0]))

    def test_multi_word_composition(self, toy_store):
        protos = build_prototypes(toy_store, [Label.of("ride horse")])
        expected = l2_normalize(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(protos[0].vector, expected)

    def test_duplicate_labels_rejected(self, toy_store):
        with pytest.raises(ValueError, match="duplicate label"):
            build_prototypes(toy_store, [Label.of("run"), Label.of("run")])



# a few repeated values make exact distance ties common
coordinates = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-10, 10))


class TestNnClassify:
    def _protos(self):
        return [
            Prototype(Label.of("x"), np.array([1.0, 0.0])),
            Prototype(Label.of("y"), np.array([0.0, 1.0])),
        ]

    def test_exact_match(self):
        idx, dist = nearest_prototype(self._protos(), np.array([[1.0, 0.0]]))
        assert idx.tolist() == [0] and dist.tolist() == [0.0]

    def test_nearer_prototype_wins(self):
        # distances: to (1,0) 0.1996..., to (0,1) 1.3428... (hand-computed)
        proj = l2_normalize(np.array([0.9, 0.1]))
        protos = self._protos()
        assert np.linalg.norm(proj - protos[0].vector) < np.linalg.norm(
            proj - protos[1].vector
        )
        assert nearest_prototype(protos, proj[None])[0].tolist() == [0]

    def test_tie_takes_list_order(self):
        proj = l2_normalize(np.array([1.0, 1.0]))
        assert nearest_prototype(self._protos(), proj[None])[0].tolist() == [0]

    def test_empty_prototypes(self):
        with pytest.raises(ValueError, match="no prototypes"):
            nearest_prototype([], np.array([[1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="do not match prototypes"):
            nearest_prototype(self._protos(), np.array([1.0, 0.0]))

    def test_uniform_scaling_preserves_argmin(self):
        rng = np.random.default_rng(0)
        protos = [
            Prototype(Label.of(f"c{i}"), l2_normalize(rng.normal(size=4)))
            for i in range(5)
        ]
        proj = rng.normal(size=(20, 4))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        base_idx, _ = nearest_prototype(protos, proj)
        # on unit-norm rows the Euclidean-nearest prototype is the cosine-nearest
        np.testing.assert_array_equal(
            base_idx, np.argmax(proj @ prototype_matrix(protos).T, axis=1)
        )
        for scale in (0.1, 3.0, 42.0):
            scaled = [Prototype(p.label, scale * p.vector) for p in protos]
            idx, _ = nearest_prototype(scaled, scale * proj)
            assert idx.tolist() == base_idx.tolist()

    @given(st.data())
    def test_matrix_equals_per_row_reference_bitwise(self, data):
        n_proto = data.draw(st.integers(1, 6))
        n_proj = data.draw(st.integers(1, 8))
        d_z = data.draw(st.integers(1, 5))
        mat = data.draw(hnp.arrays(np.float64, (n_proto, d_z), elements=coordinates))
        proj = data.draw(hnp.arrays(np.float64, (n_proj, d_z), elements=coordinates))
        protos = [Prototype(Label.of(f"c{i}"), row) for i, row in enumerate(mat)]
        idx, dist = nearest_prototype(protos, proj)
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
        protos = [Prototype(Label.of(f"c{i}"), row) for i, row in enumerate(mat)]
        idx, dist = nearest_prototype(protos, proj)
        ref_idx, ref_dist = memory_reference.nearest_prototype(prototype_matrix(protos), proj)
        assert idx.dtype == ref_idx.dtype
        np.testing.assert_array_equal(idx, ref_idx)
        assert dist.tobytes() == ref_dist.tobytes()

    def test_no_projections(self):
        protos = [Prototype(Label.of("a"), np.array([1.0, 0.0]))]
        idx, dist = nearest_prototype(protos, np.empty((0, 2)))
        assert idx.shape == dist.shape == (0,)

    def test_half_split_peak_is_bounded(self):
        # one HMDB51 half-split at d_z=300: the one-tensor form traced
        # 404 MiB here
        rng = np.random.default_rng(40)
        mat = rng.normal(size=(26, 300))
        protos = [Prototype(Label.of(f"c{i}"), row) for i, row in enumerate(mat)]
        proj = rng.normal(size=(3383, 300))
        tracemalloc.start()
        try:
            nearest_prototype(protos, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSelfTrain:
    def test_k1_snaps_to_nearest_projection(self):
        protos = [Prototype(Label.of("a"), np.array([1.0, 0.0]))]
        proj = np.array([[0.8, 0.6], [0.0, 1.0]])
        adapted = self_train(protos, proj, SelfTrainConfig(k=1))
        np.testing.assert_array_equal(adapted[0].vector, l2_normalize(proj[0]))

    def test_identical_projections_collapse(self):
        protos = [
            Prototype(Label.of("a"), np.array([1.0, 0.0])),
            Prototype(Label.of("b"), np.array([0.0, 1.0])),
        ]
        v = l2_normalize(np.array([0.6, 0.8]))
        proj = np.tile(v, (4, 1))
        for p in self_train(protos, proj, SelfTrainConfig(k=2)):
            np.testing.assert_allclose(p.vector, v, atol=1e-12)

    def test_hand_computed_two_neighbour_mean(self):
        protos = [Prototype(Label.of("a"), np.array([1.0, 0.0]))]
        proj = np.array([[0.8, 0.6], [0.6, 0.8], [0.0, 1.0]])
        adapted = self_train(protos, proj, SelfTrainConfig(k=2))
        np.testing.assert_allclose(
            adapted[0].vector, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12
        )

    def test_inputs_unmodified(self):
        protos = [Prototype(Label.of("a"), np.array([1.0, 0.0]))]
        before = protos[0].vector.copy()
        self_train(protos, np.array([[0.0, 1.0]]), SelfTrainConfig(k=1))
        np.testing.assert_array_equal(protos[0].vector, before)

    def test_k_out_of_range(self):
        protos = [Prototype(Label.of("a"), np.array([1.0, 0.0]))]
        with pytest.raises(ValueError, match="exceeds the number of test projections"):
            self_train(protos, np.array([[1.0, 0.0]]), SelfTrainConfig(k=2))
        with pytest.raises(ValueError, match="non-empty"):
            self_train(protos, np.empty((0, 2)), SelfTrainConfig(k=1))
        with pytest.raises(ValueError, match="k must be at least 1"):
            SelfTrainConfig(k=0)

    def test_k_equals_all_collapses_to_global_mean_and_is_idempotent(self):
        rng = np.random.default_rng(1)
        proj = rng.normal(size=(6, 3))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        protos = [
            Prototype(Label.of("a"), l2_normalize(rng.normal(size=3))),
            Prototype(Label.of("b"), l2_normalize(rng.normal(size=3))),
        ]
        config = SelfTrainConfig(k=6)
        once = self_train(protos, proj, config)
        global_mean = l2_normalize(proj.mean(axis=0))
        for p in once:
            np.testing.assert_allclose(p.vector, global_mean, atol=1e-12)
        twice = self_train(once, proj, config)
        for a, b in zip(once, twice):
            np.testing.assert_allclose(a.vector, b.vector, atol=1e-12)


class TestZslPredict:
    def _fitted(self, rng, toy_store):
        labels = [Label.of("run" if i % 2 == 0 else "jump") for i in range(12)]
        x = np.array(
            [rng.dirichlet([3, 1, 1]) if i % 2 == 0 else rng.dirichlet([1, 1, 3]) for i in range(12)]
        )
        kern = KernelSpec("rbf_chi2", heuristic_gamma(x))
        reg = train_semantic_regressor(
            label_targets(labels, toy_store), SvrConfig(epsilon=0.05), kern, gram_matrix(kern, x)
        )
        return x, reg

    @staticmethod
    def _predict(x, reg, toy_store, unseen, test_x):
        kernel_rows = gram_matrix(reg.kernel, test_x, x[reg.pool_indices])
        ids = [f"te{i}" for i in range(len(test_x))]
        return zsl_predict(reg, build_prototypes(toy_store, [unseen]), kernel_rows, ids)

    def test_zero_test_instances(self, toy_store):
        rng = np.random.default_rng(2)
        x, reg = self._fitted(rng, toy_store)
        assert self._predict(x, reg, toy_store, Label.of("walk"), np.empty((0, 3))) == []

    def test_kernel_rows_must_match_the_test_instances(self, toy_store):
        rng = np.random.default_rng(5)
        _, reg = self._fitted(rng, toy_store)
        prototypes = build_prototypes(toy_store, [Label.of("walk")])
        rows = np.ones((2, reg.pool_indices.size))
        with pytest.raises(ValueError, match="2 kernel rows for 1 test instances"):
            zsl_predict(reg, prototypes, rows, ["te0"])

    def test_single_unseen_class_is_forced(self, toy_store):
        rng = np.random.default_rng(3)
        x, reg = self._fitted(rng, toy_store)
        test_x = rng.dirichlet([1, 1, 1], size=5)
        preds = self._predict(x, reg, toy_store, Label.of("walk"), test_x)
        assert len(preds) == 5
        assert all(p.label == Label.of("walk") for p in preds)

    def test_self_training_fixed_point_leaves_predictions_unchanged(self):
        # projections arranged symmetrically so each prototype's 2-NN mean
        # renormalizes back onto the prototype itself
        protos = [
            Prototype(Label.of("a"), np.array([1.0, 0.0, 0.0])),
            Prototype(Label.of("b"), np.array([0.0, 1.0, 0.0])),
        ]
        delta = np.array([0.0, 0.0, 0.1])
        proj = np.vstack(
            [protos[0].vector + delta, protos[0].vector - delta,
             protos[1].vector + delta, protos[1].vector - delta]
        )
        adapted = self_train(protos, proj, SelfTrainConfig(k=2))
        for orig, new in zip(protos, adapted):
            np.testing.assert_allclose(orig.vector, new.vector, atol=1e-12)
        np.testing.assert_array_equal(
            nearest_prototype(protos, proj)[0], nearest_prototype(adapted, proj)[0]
        )

    def test_predictions_csv_format(self, tmp_path, toy_store):
        rng = np.random.default_rng(4)
        x, reg = self._fitted(rng, toy_store)
        test_x = rng.dirichlet([1, 1, 1], size=3)
        preds = self._predict(x, reg, toy_store, Label.of("brush hair"), test_x)
        out = tmp_path / "preds.csv"
        write_predictions_csv(preds, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,predicted_label,distance"
        assert lines[1].startswith("te0,brush_hair,")


class TestAugmentTraining:
    TARGET = [Label.of("run")] * 10
    AUX = make_dataset("aux", [(f"a{i}", "jump", [1.0, 0.0, 0.0]) for i in range(15)], 3)

    def test_empty_auxiliary_is_identity(self, toy_store):
        merged = augment_training(self.TARGET, None, toy_store)
        np.testing.assert_array_equal(merged, label_targets(self.TARGET, toy_store))
        assert merged.shape == (10, 3)

    def test_concatenation_order_and_counts(self, toy_store):
        merged = augment_training(self.TARGET, self.AUX, toy_store)
        assert merged.shape == (25, 3)
        for rows, labels in ((slice(0, 10), self.TARGET), (slice(10, 25), self.AUX.labels)):
            np.testing.assert_array_equal(merged[rows], label_targets(labels, toy_store))

    def test_targets_are_normalized_label_embeddings(self, toy_store):
        merged = augment_training(self.TARGET, self.AUX, toy_store)
        np.testing.assert_allclose(merged[0], l2_normalize([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(merged[10], l2_normalize([0.0, 1.0, 0.0]))

    def test_unseen_collision_is_named(self, toy_store):
        with pytest.raises(ValueError, match="auxiliary class 'jump' collides"):
            augment_training(self.TARGET, self.AUX, toy_store, unseen=[Label.of("jump")])
