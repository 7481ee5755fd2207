"""Kernel soft-margin SVM, one-vs-rest, for classifying L2-normalized
embedding-space points in the multi-shot path."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smo
from .embedding import Label
from .kernels import RBF_EUCLIDEAN, KernelSpec, distance_matrix, fit_kernel, gram_matrix


@dataclass(frozen=True)
class SvcConfig:
    c: float = 2.0
    tolerance: float = 1e-3
    max_passes: int = 1_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive, got {self.c}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass
class SvcModel:
    """One-vs-rest multiclass SVM.

    ``coefficients[c]`` holds y_i * alpha_i for class c over all training
    points, so class c's support vectors are its nonzero entries; the
    per-class decision value is sum_i coef K(x_i, .) + bias and the
    predicted label is the argmax over classes (ties go to the first class
    in declared order). ``iterations`` and ``dual_objectives`` hold each
    class's solver statistics.
    """

    classes: list[Label]
    kernel: KernelSpec
    train_points: np.ndarray
    coefficients: np.ndarray
    biases: np.ndarray
    iterations: np.ndarray
    dual_objectives: np.ndarray


def train_svc(
    points: np.ndarray,
    labels: list[Label],
    config: SvcConfig,
    kernel: KernelSpec | None = None,
) -> SvcModel:
    """Train one binary soft-margin SVM per class (one-vs-rest), all
    classes' duals solved in one batched call.

    ``points`` must be L2-normalized. With ``kernel=None`` an RBF kernel
    over Euclidean distance is used, with gamma set to the reciprocal mean
    pairwise squared distance; both come from one distance matrix.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {x.shape}")
    if len(labels) != x.shape[0]:
        raise ValueError(f"{len(labels)} labels for {x.shape[0]} points")
    norms = np.linalg.norm(x, axis=1)
    if not np.allclose(norms, 1.0, atol=1e-6):
        raise ValueError("points must be L2-normalized")
    classes: list[Label] = list(dict.fromkeys(labels))
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    if kernel is None:
        kernel, gram = fit_kernel(RBF_EUCLIDEAN, distance_matrix(RBF_EUCLIDEAN, x))
    else:
        gram = gram_matrix(kernel, x)

    label_keys = np.array([lab.key for lab in labels])
    z = np.array([np.where(label_keys == cls.key, 1.0, -1.0) for cls in classes])
    res = smo.solve(gram, z, -np.ones(z.shape), config.c, config.tolerance, config.max_passes)
    smo.require_converged(
        res, config.max_passes, lambda k: f"SVC dual for class {classes[k].key!r}"
    )
    return SvcModel(
        classes=classes,
        kernel=kernel,
        train_points=x.copy(),
        coefficients=res.coef,
        biases=res.bias,
        iterations=res.row_iterations,
        dual_objectives=-res.objective,
    )


def decision_values(model: SvcModel, points: np.ndarray) -> np.ndarray:
    """Per-class decision values, shape (n_points, n_classes) or (n_classes,)."""
    x = np.asarray(points, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.train_points.shape[1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[1]} vs {model.train_points.shape[1]}"
        )
    kv = gram_matrix(model.kernel, x, model.train_points)
    vals = kv @ np.ascontiguousarray(model.coefficients).T + model.biases
    return vals[0] if single else vals


def classify(model: SvcModel, point: np.ndarray) -> Label:
    """Argmax class of the decision values; ties go to the first class."""
    vals = decision_values(model, point)
    return model.classes[int(np.argmax(vals))]


def classify_batch(model: SvcModel, points: np.ndarray) -> list[Label]:
    vals = decision_values(model, points)
    return [model.classes[int(i)] for i in np.argmax(vals, axis=1)]
