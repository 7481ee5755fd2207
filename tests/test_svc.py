import dataclasses
import json

import numpy as np
import pytest

from conftest import assert_same_fields
from qp_oracle import svc_dual_oracle
from zslkit.embedding import Label
import zslkit.kernels
from zslkit.kernels import (
    RBF_EUCLIDEAN,
    KernelSpec,
    distance_matrix,
    gamma_from_distances,
    gram_matrix,
)
from zslkit.model_io import load_model, save_model
from zslkit.svc import SvcConfig, SvcModel, classify, classify_batch, decision_values, train_svc


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def two_clusters(rng, per_side=20, dim=4, spread=0.05):
    a = np.zeros(dim)
    a[0] = 1.0
    b = np.zeros(dim)
    b[1] = 1.0
    pts = np.vstack(
        [a + spread * rng.normal(size=(per_side, dim)), b + spread * rng.normal(size=(per_side, dim))]
    )
    labels = [Label.of("alpha")] * per_side + [Label.of("beta")] * per_side
    return unit_rows(pts), labels


class TestTrainSvc:
    def test_separable_clusters_train_accuracy(self):
        rng = np.random.default_rng(0)
        pts, labels = two_clusters(rng)
        model = train_svc(pts, labels, SvcConfig())
        preds = classify_batch(model, pts)
        assert all(p == t for p, t in zip(preds, labels))

    def test_binary_dual_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            n = int(rng.integers(6, 13))
            pts = unit_rows(rng.normal(size=(n, 3)))
            keys = ["a" if i % 2 == 0 else "b" for i in range(n)]
            labels = [Label.of(k) for k in keys]
            model = train_svc(pts, labels, SvcConfig(c=2.0, tolerance=1e-10))
            gram = gram_matrix(model.kernel, pts)
            signs = np.where(np.array(keys) == "a", 1.0, -1.0)
            _, _, obj_o = svc_dual_oracle(gram, signs, 2.0)
            assert abs(model.dual_objectives[0] - obj_o) <= 1e-6 * max(1.0, abs(obj_o))

    def test_duplicating_points_keeps_sign_pattern(self):
        rng = np.random.default_rng(2)
        pts, labels = two_clusters(rng, per_side=10)
        kernel = KernelSpec("rbf_euclidean", 1.5)
        base = train_svc(pts, labels, SvcConfig(), kernel)
        doubled = train_svc(
            np.vstack([pts, pts]), labels + labels, SvcConfig(), kernel
        )
        probes = unit_rows(rng.normal(size=(100, 4)))
        np.testing.assert_array_equal(
            np.sign(decision_values(base, probes)),
            np.sign(decision_values(doubled, probes)),
        )

    def test_box_constraints(self):
        rng = np.random.default_rng(3)
        pts, labels = two_clusters(rng, per_side=15, spread=0.4)
        model = train_svc(pts, labels, SvcConfig(c=2.0))
        assert np.all(np.abs(model.coefficients) <= 2.0 + 1e-9)

    def test_training_order_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pts, labels = two_clusters(rng)
        model = train_svc(pts, labels, SvcConfig(tolerance=1e-8))
        perm = rng.permutation(len(labels))
        permuted = train_svc(
            pts[perm], [labels[i] for i in perm], SvcConfig(tolerance=1e-8),
            kernel=model.kernel,
        )
        probes = unit_rows(rng.normal(size=(50, 4)))
        assert classify_batch(model, probes) == classify_batch(permuted, probes)

    def test_single_class_rejected(self):
        pts = unit_rows(np.random.default_rng(5).normal(size=(4, 3)))
        with pytest.raises(ValueError, match="at least 2 classes"):
            train_svc(pts, [Label.of("only")] * 4, SvcConfig())

    def test_unnormalized_points_rejected(self):
        pts = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="L2-normalized"):
            train_svc(pts, [Label.of("a"), Label.of("b")], SvcConfig())

    def test_default_kernel_takes_one_distance_pass(self, monkeypatch):
        rng = np.random.default_rng(6)
        pts, labels = two_clusters(rng, per_side=6)
        calls = []
        real = zslkit.kernels.squared_euclidean_matrix

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(zslkit.kernels, "squared_euclidean_matrix", counted)
        model = train_svc(pts, labels, SvcConfig())
        assert len(calls) == 1
        # the same as training with the kernel fitted to the same distances
        kernel = KernelSpec(
            RBF_EUCLIDEAN, gamma_from_distances(distance_matrix(RBF_EUCLIDEAN, pts))
        )
        assert model.kernel == kernel
        assert_same_fields(model, train_svc(pts, labels, SvcConfig(), kernel))


class TestClassify:
    def _three_class_model(self, rng):
        centers = np.eye(3)
        pts, labels = [], []
        for c, name in enumerate(["left", "mid", "right"]):
            pts.append(centers[c] + 0.05 * rng.normal(size=(12, 3)))
            labels += [Label.of(name)] * 12
        return train_svc(unit_rows(np.vstack(pts)), labels, SvcConfig())

    def test_interior_training_point_gets_its_class(self):
        rng = np.random.default_rng(6)
        model = self._three_class_model(rng)
        assert classify(model, model.train_points[0]) == Label.of("left")
        assert classify(model, model.train_points[20]) == Label.of("mid")

    def test_argmax_over_decision_values(self):
        rng = np.random.default_rng(7)
        model = self._three_class_model(rng)
        probe = model.train_points[30]
        vals = decision_values(model, probe)
        assert classify(model, probe) == model.classes[int(np.argmax(vals))]

    def test_exact_tie_takes_first_declared_class(self):
        rng = np.random.default_rng(8)
        model = self._three_class_model(rng)
        tied = SvcModel(
            classes=model.classes,
            kernel=model.kernel,
            train_points=model.train_points,
            coefficients=np.zeros_like(model.coefficients),
            biases=np.zeros_like(model.biases),
            iterations=np.zeros(3, dtype=np.int64),
            dual_objectives=np.zeros(3),
        )
        assert classify(tied, model.train_points[0]) == model.classes[0]

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model = self._three_class_model(rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            classify(model, np.ones(5) / np.sqrt(5))

    def test_added_remote_class_changes_values_not_argmax(self):
        rng = np.random.default_rng(10)
        pts, labels = two_clusters(rng, per_side=12)
        kernel = KernelSpec("rbf_euclidean", 1.5)
        base = train_svc(pts, labels, SvcConfig(), kernel)
        remote = np.zeros((6, 4))
        remote[:, 3] = 1.0
        remote = unit_rows(remote + 0.02 * rng.normal(size=(6, 4)))
        extended = train_svc(
            np.vstack([pts, remote]),
            labels + [Label.of("remote")] * 6,
            SvcConfig(),
            kernel,
        )
        vals_base = decision_values(base, pts)
        vals_ext = decision_values(extended, pts)[:, :2]
        # value-level invariance does NOT hold...
        assert not np.allclose(vals_base, vals_ext, atol=1e-6)
        # ...but the argmax over the original classes does
        assert classify_batch(base, pts) == [
            extended.classes[i] for i in np.argmax(vals_ext, axis=1)
        ]


class TestSvcSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        pts, labels = two_clusters(rng)
        model = train_svc(pts, labels, SvcConfig())
        path = tmp_path / "svc.json"
        save_model(model, path)
        loaded = load_model(path)
        probes = unit_rows(rng.normal(size=(30, 4)))
        np.testing.assert_allclose(
            decision_values(model, probes), decision_values(loaded, probes), atol=1e-12
        )
        assert classify_batch(model, probes) == classify_batch(loaded, probes)

    def test_coefficient_memory_order_is_immaterial(self):
        rng = np.random.default_rng(15)
        # enough classes and support vectors that the product's blocking
        # depends on the operand layout
        classes = [Label.of(f"class {c}") for c in "abcdefghijkl"]
        pts = unit_rows(np.repeat(np.eye(12), 10, axis=0) + rng.normal(size=(120, 12)))
        model = train_svc(pts, [c for c in classes for _ in range(10)], SvcConfig())
        flipped = dataclasses.replace(model, coefficients=np.asfortranarray(model.coefficients))
        probes = unit_rows(rng.normal(size=(200, 12)))
        np.testing.assert_array_equal(
            decision_values(flipped, probes), decision_values(model, probes)
        )

    def test_round_trip_equals_model(self, tmp_path):
        rng = np.random.default_rng(13)
        pts, labels = two_clusters(rng)
        model = train_svc(pts, labels, SvcConfig())
        assert model.iterations.min() > 0
        path = tmp_path / "svc.json"
        save_model(model, path)
        assert_same_fields(load_model(path), model)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(train_points=doc["train_points"][1:]),
             "coefficients have shape .* match train_points"),
            (lambda doc: doc["coefficients"][0].pop(), "coefficients is not a numeric array"),
            (lambda doc: doc.pop("biases"), "missing field 'biases'"),
            (lambda doc: doc.update(classes=[doc["classes"][0]] * 2), "classes repeats"),
        ],
        ids=["train_points", "ragged", "missing", "repeated_class"],
    )
    def test_malformed_arrays_rejected(self, tmp_path, edit, message):
        rng = np.random.default_rng(14)
        pts, labels = two_clusters(rng)
        path = tmp_path / "svc.json"
        save_model(train_svc(pts, labels, SvcConfig()), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_model_types_share_container_but_not_tags(self, tmp_path):
        rng = np.random.default_rng(12)
        pts, labels = two_clusters(rng)
        model = train_svc(pts, labels, SvcConfig())
        path = tmp_path / "svc.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "zslkit-model"
        assert doc["type"] == "svc_one_vs_rest"
        doc["type"] = "something_else"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown model type"):
            load_model(path)
