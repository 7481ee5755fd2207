import dataclasses

import numpy as np
import pytest

from qp_oracle import svc_dual_oracle
from zslkit import smo
from zslkit.embedding import Label
import zslkit.kernels
from zslkit.kernels import gamma_from_distances, gram_matrix, squared_euclidean_distances
from zslkit.svc import SvcModel, classify_batch, decision_values, train_svc


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
        model = train_svc(pts, labels, 2.0)
        preds = classify_batch(model, pts)
        assert all(p == t for p, t in zip(preds, labels))

    def test_binary_dual_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(smo, "TOLERANCE", 1e-10)
        rng = np.random.default_rng(1)
        for _ in range(3):
            n = int(rng.integers(6, 13))
            pts = unit_rows(rng.normal(size=(n, 3)))
            keys = ["a" if i % 2 == 0 else "b" for i in range(n)]
            labels = [Label.of(k) for k in keys]
            model = train_svc(pts, labels, 2.0)
            # the model's own duals, solved again on the same Gram matrix
            gram = gram_matrix(model.gamma, squared_euclidean_distances(pts))
            signs = np.where(np.array(keys) == "a", 1.0, -1.0)
            z = np.array([signs, -signs])
            res = smo.solve(gram, z, -np.ones(z.shape), 2.0, 1e-10, smo.MAX_ITER)
            np.testing.assert_array_equal(res.coef, model.coefficients)
            _, _, obj_o = svc_dual_oracle(gram, signs, 2.0)
            assert abs(-res.objective[0] - obj_o) <= 1e-6 * max(1.0, abs(obj_o))

    def test_duplicating_points_keeps_sign_pattern(self):
        rng = np.random.default_rng(2)
        pts, labels = two_clusters(rng, per_side=10)
        base = train_svc(pts, labels, 2.0)
        doubled = train_svc(np.vstack([pts, pts]), labels + labels, 2.0)
        probes = unit_rows(rng.normal(size=(100, 4)))
        np.testing.assert_array_equal(
            np.sign(decision_values(base, probes)),
            np.sign(decision_values(doubled, probes)),
        )

    def test_box_constraints(self):
        rng = np.random.default_rng(3)
        pts, labels = two_clusters(rng, per_side=15, spread=0.4)
        model = train_svc(pts, labels, 2.0)
        assert np.all(np.abs(model.coefficients) <= 2.0 + 1e-9)

    def test_training_order_permutation_invariance(self, monkeypatch):
        monkeypatch.setattr(smo, "TOLERANCE", 1e-8)
        rng = np.random.default_rng(4)
        pts, labels = two_clusters(rng)
        model = train_svc(pts, labels, 2.0)
        perm = rng.permutation(len(labels))
        permuted = train_svc(pts[perm], [labels[i] for i in perm], 2.0)
        probes = unit_rows(rng.normal(size=(50, 4)))
        assert classify_batch(model, probes) == classify_batch(permuted, probes)

    def test_single_class_rejected(self):
        pts = unit_rows(np.random.default_rng(5).normal(size=(4, 3)))
        with pytest.raises(ValueError, match="at least 2 classes"):
            train_svc(pts, [Label.of("only")] * 4, 2.0)

    def test_unnormalized_points_rejected(self):
        pts = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="L2-normalized"):
            train_svc(pts, [Label.of("a"), Label.of("b")], 2.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, float("inf"), float("nan")])
    def test_c_must_be_positive(self, c):
        pts, labels = two_clusters(np.random.default_rng(11), per_side=3)
        with pytest.raises(ValueError, match=f"^c must be positive, got {c}$"):
            train_svc(pts, labels, c)

    def test_default_kernel_takes_one_distance_pass(self, monkeypatch):
        rng = np.random.default_rng(6)
        pts, labels = two_clusters(rng, per_side=6)
        calls = []
        real = zslkit.kernels.squared_euclidean_matrix

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(zslkit.kernels, "squared_euclidean_matrix", counted)
        model = train_svc(pts, labels, 2.0)
        assert len(calls) == 1
        # the kernel is the one fitted to those distances
        assert model.gamma == gamma_from_distances(squared_euclidean_distances(pts))


class TestClassify:
    def _three_class_model(self, rng):
        centers = np.eye(3)
        pts, labels = [], []
        for c, name in enumerate(["left", "mid", "right"]):
            pts.append(centers[c] + 0.05 * rng.normal(size=(12, 3)))
            labels += [Label.of(name)] * 12
        return train_svc(unit_rows(np.vstack(pts)), labels, 2.0)

    def test_interior_training_point_gets_its_class(self):
        rng = np.random.default_rng(6)
        model = self._three_class_model(rng)
        assert classify_batch(model, model.train_points[[0, 20]]) == [
            Label.of("left"), Label.of("mid")
        ]

    def test_argmax_over_decision_values(self):
        rng = np.random.default_rng(7)
        model = self._three_class_model(rng)
        probe = model.train_points[30:31]
        vals = decision_values(model, probe)
        assert classify_batch(model, probe) == [model.classes[int(np.argmax(vals))]]

    def test_exact_tie_takes_first_declared_class(self):
        rng = np.random.default_rng(8)
        model = self._three_class_model(rng)
        tied = SvcModel(
            classes=model.classes,
            gamma=model.gamma,
            train_points=model.train_points,
            coefficients=np.zeros_like(model.coefficients),
            biases=np.zeros_like(model.biases),
            iterations=np.zeros(3, dtype=np.int64),
        )
        assert classify_batch(tied, model.train_points[:1]) == [model.classes[0]]

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model = self._three_class_model(rng)
        for points, message in [
            (np.ones((2, 5)) / np.sqrt(5), "dimension mismatch"),
            (model.train_points[0], r"points must be 2-D, got shape \(3,\)"),
        ]:
            with pytest.raises(ValueError, match=message):
                classify_batch(model, points)
            with pytest.raises(ValueError, match=message):
                decision_values(model, points)

    def test_added_remote_class_changes_values_not_argmax(self):
        rng = np.random.default_rng(10)
        pts, labels = two_clusters(rng, per_side=12)
        base = train_svc(pts, labels, 2.0)
        remote = np.zeros((6, 4))
        remote[:, 3] = 1.0
        remote = unit_rows(remote + 0.02 * rng.normal(size=(6, 4)))
        extended = train_svc(
            np.vstack([pts, remote]),
            labels + [Label.of("remote")] * 6,
            2.0,
        )
        vals_base = decision_values(base, pts)
        vals_ext = decision_values(extended, pts)[:, :2]
        # value-level invariance does NOT hold...
        assert not np.allclose(vals_base, vals_ext, atol=1e-6)
        # ...but the argmax over the original classes does
        assert classify_batch(base, pts) == [
            extended.classes[i] for i in np.argmax(vals_ext, axis=1)
        ]

    def test_coefficient_memory_order_is_immaterial(self):
        rng = np.random.default_rng(15)
        # enough classes and support vectors that the product's blocking
        # depends on the operand layout
        classes = [Label.of(f"class {c}") for c in "abcdefghijkl"]
        pts = unit_rows(np.repeat(np.eye(12), 10, axis=0) + rng.normal(size=(120, 12)))
        model = train_svc(pts, [c for c in classes for _ in range(10)], 2.0)
        flipped = dataclasses.replace(model, coefficients=np.asfortranarray(model.coefficients))
        probes = unit_rows(rng.normal(size=(200, 12)))
        np.testing.assert_array_equal(
            decision_values(flipped, probes), decision_values(model, probes)
        )
