"""Kernel epsilon-insensitive support vector regression, trained in the
dual and bundled per output dimension into a feature-to-embedding map."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smo
from .kernels import KernelSpec, gram_matrix


@dataclass(frozen=True)
class SvrConfig:
    """Slack penalty, tube width, KKT stopping tolerance, iteration budget."""

    c: float = 2.0
    epsilon: float = 0.1
    tolerance: float = 1e-3
    max_passes: int = 1_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive, got {self.c}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass
class SvrModel:
    """One trained single-output regressor.

    ``dual_coefficients`` holds alpha - alpha* at the support indices;
    prediction is sum_i coef_i K(x_i, x) + bias. ``dual_objective`` is the
    value of the maximized dual at the solution.
    """

    support_indices: np.ndarray
    dual_coefficients: np.ndarray
    bias: float
    kernel: KernelSpec | None
    n_train: int
    iterations: int
    dual_objective: float

    def coefficient_vector(self) -> np.ndarray:
        """Dense coefficients over all n_train training samples."""
        beta = np.zeros(self.n_train, dtype=np.float64)
        beta[self.support_indices] = self.dual_coefficients
        return beta


def _validate_gram(gram: np.ndarray) -> np.ndarray:
    g = np.asarray(gram, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gram matrix must be square, got shape {g.shape}")
    # exact equality settles the usual exactly symmetric Gram cheaply; the
    # solver reads rows as columns, so rounding-level asymmetry is averaged
    if np.array_equal(g, g.T):
        return g
    if not np.allclose(g, g.T, atol=1e-8):
        raise ValueError("gram matrix is not symmetric")
    return 0.5 * (g + g.T)


def train_svr(
    gram: np.ndarray,
    targets: np.ndarray,
    config: SvrConfig,
    kernel: KernelSpec | None = None,
) -> SvrModel | list[SvrModel]:
    """Solve epsilon-SVR duals over a precomputed Gram matrix.

    Targets of shape (n,) give one model; an (n, r) matrix gives a list of
    r models, one per column, whose duals are solved in one batched call.
    Each 2n-variable dual (one alpha and one alpha* per sample) runs
    through the decomposition solver; raises
    :class:`~zslkit.smo.ConvergenceError` if a budget is exhausted, naming
    the first (0-based) output dimension that did not converge.
    """
    g = _validate_gram(gram)
    y = np.asarray(targets, dtype=np.float64)
    n = g.shape[0]
    if y.ndim not in (1, 2):
        raise ValueError(f"targets must be 1-D or 2-D, got shape {y.shape}")
    if y.shape[0] != n:
        raise ValueError(f"targets length {y.shape[0]} does not match gram size {n}")
    if n < 2:
        raise ValueError("need at least 2 training samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets contain non-finite values")

    yt = y.reshape(n, -1).T  # one row per output dimension
    z = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([config.epsilon - yt, config.epsilon + yt], axis=1)
    res = smo.solve(g, z, p, config.c, config.tolerance, config.max_passes)
    if not res.converged.all():
        d = int(np.argmin(res.converged))
        where = f" for output dimension {d}" if y.ndim == 2 else ""
        raise smo.ConvergenceError(
            f"SVR dual{where} did not converge within {config.max_passes} passes "
            f"(remaining KKT violation {res.violation[d]:.3e})",
            iterations=int(res.row_iterations[d]),
            violation=float(res.violation[d]),
            result=res,
        )
    beta = res.a[:, :n] - res.a[:, n:]
    beta[np.abs(beta) < smo._COEF_ZERO * max(1.0, config.c)] = 0.0
    models = [
        SvrModel(
            support_indices=np.flatnonzero(b),
            dual_coefficients=b[b != 0.0],
            bias=float(res.bias[d]),
            kernel=kernel,
            n_train=n,
            iterations=int(res.row_iterations[d]),
            dual_objective=-float(res.objective[d]),
        )
        for d, b in enumerate(beta)
    ]
    return models[0] if y.ndim == 1 else models


def predict_with_kernel_values(model: SvrModel, kernel_values: np.ndarray) -> np.ndarray:
    """Evaluate the regressor given precomputed kernel rows against the full
    training set (shape (..., n_train))."""
    kv = np.asarray(kernel_values, dtype=np.float64)
    if kv.shape[-1] != model.n_train:
        raise ValueError(
            f"kernel rows have {kv.shape[-1]} columns, model trained on {model.n_train}"
        )
    return kv[..., model.support_indices] @ model.dual_coefficients + model.bias


@dataclass
class SemanticRegressor:
    """Per-dimension SVRs sharing one support-vector pool.

    ``pool_features`` are the training samples used by at least one output
    dimension; ``coefficients`` is dense (dimension x pool size), and
    ``iterations`` and ``dual_objectives`` hold each dimension's solver
    statistics.
    """

    kernel: KernelSpec
    n_train: int
    pool_indices: np.ndarray
    pool_features: np.ndarray
    coefficients: np.ndarray
    biases: np.ndarray
    iterations: np.ndarray
    dual_objectives: np.ndarray


def train_semantic_regressor(
    features: np.ndarray,
    embeddings: np.ndarray,
    config: SvrConfig,
    kernel: KernelSpec,
    gram: np.ndarray | None = None,
) -> SemanticRegressor:
    """Train one SVR per embedding coordinate over a shared Gram matrix,
    all solved in one batched call.

    Dimension j regresses coordinate j of the instance's label embedding.
    ``gram`` is the features' Gram matrix under ``kernel`` when the caller
    already has it; otherwise it is computed here.
    """
    x = np.asarray(features, dtype=np.float64)
    zt = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or zt.ndim != 2:
        raise ValueError("features and embeddings must be 2-D arrays")
    if x.shape[0] != zt.shape[0]:
        raise ValueError(
            f"sample count mismatch: {x.shape[0]} features vs {zt.shape[0]} embeddings"
        )
    if not np.all(np.isfinite(zt)):
        raise ValueError("embeddings contain non-finite values")
    n, d_z = zt.shape[0], zt.shape[1]
    if d_z < 1:
        raise ValueError("embeddings must have at least one dimension")
    if gram is None:
        gram = gram_matrix(kernel, x)
    models = train_svr(gram, zt, config, kernel)

    beta = np.array([m.coefficient_vector() for m in models])
    pool_idx = np.flatnonzero(beta.any(axis=0))
    return SemanticRegressor(
        kernel=kernel,
        n_train=n,
        pool_indices=pool_idx,
        pool_features=x[pool_idx].copy(),
        # C order, so that predict_batch multiplies by it without a copy
        coefficients=np.ascontiguousarray(beta[:, pool_idx]),
        biases=np.array([m.bias for m in models]),
        iterations=np.array([m.iterations for m in models], dtype=np.int64),
        dual_objectives=np.array([m.dual_objective for m in models]),
    )


def predict_batch(
    regressor: SemanticRegressor,
    features: np.ndarray,
    kernel_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Project feature rows into the embedding space, (n, d_z); a single
    1-D feature vector gives a d_z vector.

    ``kernel_rows`` are the rows' kernel values against the regressor's
    support pool, (n, pool size), when the caller already has them;
    otherwise they are computed here.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    feature_dim = regressor.pool_features.shape[1]
    if x.shape[1] != feature_dim:
        raise ValueError(f"feature dimension mismatch: {x.shape[1]} vs {feature_dim}")
    if kernel_rows is None:
        kernel_rows = gram_matrix(regressor.kernel, x, regressor.pool_features)
    elif kernel_rows.shape != (x.shape[0], regressor.coefficients.shape[1]):
        raise ValueError(
            f"kernel rows have shape {kernel_rows.shape}, expected "
            f"({x.shape[0]}, {regressor.coefficients.shape[1]})"
        )
    out = kernel_rows @ np.ascontiguousarray(regressor.coefficients).T + regressor.biases
    return out[0] if single else out
