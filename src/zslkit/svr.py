"""Kernel epsilon-insensitive support vector regression, trained in the
dual and bundled per output dimension into a feature-to-embedding map."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smo
from .kernels import gram_matrix  # noqa: F401  (perfbench/spans.py wraps svr.gram_matrix)


# Cells of the Gram matrix compared per block in the symmetry check; each
# block's comparison holds a bool array of this many entries.
_SYMMETRY_BLOCK_CELLS = 1 << 17


def _validate_gram(gram: np.ndarray) -> np.ndarray:
    g = np.asarray(gram, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gram matrix must be square, got shape {g.shape}")
    # rows lo:hi against columns lo:hi, so no temporary grows as n^2;
    # both tests are elementwise, so the blocks decide as the whole would
    n = g.shape[0]
    step = max(1, _SYMMETRY_BLOCK_CELLS // max(n, 1))
    blocks = [(g[lo : lo + step], g[:, lo : lo + step].T) for lo in range(0, n, step)]
    # the solver reads rows as columns, so it needs exact symmetry, which
    # every Gram matrix built from a distance matrix has
    if not all(np.array_equal(rows, cols) for rows, cols in blocks):
        raise ValueError("gram matrix is not symmetric")
    return g


def train_svr(gram: np.ndarray, targets: np.ndarray, c: float, epsilon: float) -> smo.SmoResult:
    """Solve epsilon-SVR duals with slack penalty ``c`` and tube width
    ``epsilon`` over a precomputed Gram matrix, one row per column of
    ``targets``, shape (n,) or (n, r), in one batched call.

    ``gram`` must be exactly symmetric; any asymmetry raises. Each
    2n-variable dual (one alpha and one alpha* per sample) runs through
    the decomposition solver, and row d's ``coef`` is its alpha - alpha*.
    Raises :class:`~zslkit.smo.ConvergenceError` if a budget is exhausted,
    naming the first (0-based) output dimension that did not converge.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be positive, got {c}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
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
    p = np.concatenate([epsilon - yt, epsilon + yt], axis=1)
    z = np.broadcast_to(np.concatenate([np.ones(n), -np.ones(n)]), p.shape)
    res = smo.solve(g, z, p, c, smo.TOLERANCE, smo.MAX_ITER)
    return smo.require_converged(res, lambda d: f"SVR dual for output dimension {d}")


@dataclass
class SemanticRegressor:
    """Per-dimension SVRs sharing one support-vector pool, as a kernel
    expansion over the training rows.

    ``pool_indices`` are the training rows used by at least one output
    dimension; ``coefficients`` is dense (dimension x pool size), and
    ``iterations`` holds each dimension's solver iteration count. The
    model holds no feature rows: a projection takes the kernel values of
    its rows against the pool's training rows.
    """

    pool_indices: np.ndarray
    coefficients: np.ndarray
    biases: np.ndarray
    iterations: np.ndarray


def train_semantic_regressor(
    embeddings: np.ndarray, gram: np.ndarray, c: float, epsilon: float
) -> SemanticRegressor:
    """Train one SVR per embedding coordinate over a shared Gram matrix,
    all solved in one batched call.

    Row i of ``embeddings`` is training row i's label embedding, and
    dimension j regresses its coordinate j. ``gram`` is the training
    rows' chi-square RBF Gram matrix; ``c`` and ``epsilon`` are every
    SVR's, as in :func:`train_svr`.
    """
    zt = np.asarray(embeddings, dtype=np.float64)
    if zt.ndim != 2 or zt.shape[1] < 1:
        raise ValueError(
            f"embeddings must be 2-D with at least one column, got shape {zt.shape}"
        )
    res = train_svr(gram, zt, c, epsilon)

    pool_idx = np.flatnonzero(res.coef.any(axis=0))
    return SemanticRegressor(
        pool_indices=pool_idx,
        # C order, so that predict_batch multiplies by it without a copy
        coefficients=np.ascontiguousarray(res.coef[:, pool_idx]),
        biases=res.bias,
        iterations=res.row_iterations,
    )


def predict_batch(regressor: SemanticRegressor, kernel_rows: np.ndarray) -> np.ndarray:
    """Project n rows into the embedding space, (n, d_z), from their kernel
    values against the regressor's support pool, (n, pool size). A matrix
    product's last bits depend on its operands' memory order, so both are
    taken in C order: a projection depends only on values."""
    pool = regressor.coefficients.shape[1]
    if kernel_rows.ndim != 2 or kernel_rows.shape[1] != pool:
        raise ValueError(f"kernel rows have shape {kernel_rows.shape}, expected (n, {pool})")
    k, coef = (np.ascontiguousarray(a) for a in (kernel_rows, regressor.coefficients))
    return k @ coef.T + regressor.biases
