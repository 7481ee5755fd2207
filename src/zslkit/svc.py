"""Kernel soft-margin SVM, one-vs-rest, for classifying L2-normalized
embedding-space points in the multi-shot path."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smo
from .embedding import Label
from .kernels import fit_kernel, gram_matrix, squared_euclidean_distances


@dataclass
class SvcModel:
    """One-vs-rest multiclass SVM.

    ``coefficients[c]`` holds y_i * alpha_i for class c over all training
    points, so class c's support vectors are its nonzero entries; the
    per-class decision value is sum_i coef K(x_i, .) + bias and the
    predicted label is the argmax over classes (ties go to the first class
    in declared order). ``gamma`` is the bandwidth of the RBF kernel over
    squared Euclidean distance, and ``iterations`` holds each class's
    solver iteration count.
    """

    classes: list[Label]
    gamma: float
    train_points: np.ndarray
    coefficients: np.ndarray
    biases: np.ndarray
    iterations: np.ndarray


def train_svc(points: np.ndarray, labels: list[Label], c: float) -> SvcModel:
    """Train one binary soft-margin SVM per class (one-vs-rest) with slack
    penalty ``c``, all classes' duals solved in one batched call.

    ``points`` must be L2-normalized. The kernel is an RBF over Euclidean
    distance with gamma set to the reciprocal mean pairwise squared
    distance; both come from one distance matrix.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be positive, got {c}")
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
    gamma, gram = fit_kernel(squared_euclidean_distances(x))

    label_keys = np.array([lab.key for lab in labels])
    z = np.array([np.where(label_keys == cls.key, 1.0, -1.0) for cls in classes])
    res = smo.solve(gram, z, -np.ones(z.shape), c, smo.TOLERANCE, smo.MAX_ITER)
    smo.require_converged(res, lambda k: f"SVC dual for class {classes[k].key!r}")
    return SvcModel(
        classes=classes,
        gamma=gamma,
        train_points=x.copy(),
        coefficients=res.coef,
        biases=res.bias,
        iterations=res.row_iterations,
    )


def decision_values(model: SvcModel, points: np.ndarray) -> np.ndarray:
    """Per-class decision values of (n_points, d) points, shape
    (n_points, n_classes)."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.train_points.shape[1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[1]} vs {model.train_points.shape[1]}"
        )
    kv = gram_matrix(model.gamma, squared_euclidean_distances(x, model.train_points))
    return kv @ np.ascontiguousarray(model.coefficients).T + model.biases


def classify_batch(model: SvcModel, points: np.ndarray) -> list[Label]:
    """Argmax class of each point's decision values; ties go to the first
    class."""
    vals = decision_values(model, points)
    return [model.classes[int(i)] for i in np.argmax(vals, axis=1)]
