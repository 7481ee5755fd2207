"""Histogram kernels: chi-square distance, RBF kernels, the mean-distance
gamma heuristic, and Gram-matrix construction shared by the regressor and
the classifier.

Each model fixes its kernel family: the regressor's is an RBF over
chi-square distance, the classifier's an RBF over squared Euclidean
distance. A kernel is therefore its bandwidth gamma, a plain float.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np


def _as_matrix(x, name: str, require_nonnegative: bool) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size:
        # NaN propagates through min and max, and an infinity is an extreme,
        # so two reductions decide both checks without a bool temporary
        lo, hi = m.min(), m.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} contains non-finite entries")
        if require_nonnegative and lo < 0:
            raise ValueError(f"{name} contains negative entries")
    return m


# Floats in one tile's scratch array: two such arrays per worker, 1 MB.
_TILE_FLOATS = 1 << 16
# For non-negative bins a+b is 0 or at least this, so max(a+b, _TINY) changes
# only empty bins, whose term becomes 0/_TINY = +0.0.
_TINY = np.finfo(np.float64).smallest_subnormal


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chi2_tile(rows, cols, out, num, den) -> None:
    """out[i, j] = sum over bins of (rows[i]-cols[j])^2/(rows[i]+cols[j]),
    with (len(rows), len(cols), d_x) scratch ``num`` and ``den``."""
    r, c = rows[:, None, :], cols[None, :, :]
    np.subtract(r, c, out=num)
    np.square(num, out=num)
    np.add(r, c, out=den)
    np.maximum(den, _TINY, out=den)
    np.divide(num, den, out=num)
    num.sum(axis=2, out=out)


def _chi2_share(rows, cols, out, starts, height, width, scratch) -> None:
    """Fill the row blocks beginning at ``starts``, one tile at a time.

    When ``cols is rows`` a block's tiles start at its first row, and each
    tile's columns beyond the block are mirrored into the lower triangle.
    """
    symmetric = cols is rows
    n_rows, n_cols, d = rows.shape[0], cols.shape[0], rows.shape[1]
    num, den = scratch
    for r0 in starts:
        r1 = min(r0 + height, n_rows)
        for c0 in range(r0 if symmetric else 0, n_cols, width):
            c1 = min(c0 + width, n_cols)
            tile = out[r0:r1, c0:c1]
            size, shape = tile.size * d, (*tile.shape, d)
            _chi2_tile(
                rows[r0:r1], cols[c0:c1], tile,
                num[:size].reshape(shape), den[:size].reshape(shape),
            )
            if symmetric and c1 > r1:
                lo = max(c0, r1)
                out[lo:c1, r0:r1] = tile[:, lo - c0 :].T


def chi2_distance_matrix(
    rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Chi-square distances between every row and every column vector,
    1/2 * sum over bins of (a-b)^2/(a+b); bins with a+b == 0 contribute 0.
    They are written into ``out`` when it is given, a float64 array or
    view of shape (len(rows), len(cols)), and it is returned.

    The matrix is computed in tiles whose scratch holds about 2^16 floats,
    and row blocks are dealt round-robin to one thread per usable CPU; the
    calling thread takes the first share. Every cell is one contiguous
    sum over its d_x terms, so the result does not depend on the tiling
    or the thread count. When ``cols is rows`` only the upper triangle is
    computed and then mirrored: (a-b)^2 and a+b are exactly symmetric, so
    the result equals the rows-vs-cols computation bit for bit.
    """
    n_rows, n_cols = rows.shape[0], cols.shape[0]
    d = max(rows.shape[1], 1)
    if out is None:
        out = np.empty((n_rows, n_cols), dtype=np.float64)
    elif out.shape != (n_rows, n_cols) or out.dtype != np.float64:
        raise ValueError(
            f"out must be float64 of shape {(n_rows, n_cols)}, got {out.dtype} {out.shape}"
        )
    width = max(1, min(n_cols, _TILE_FLOATS // d))
    height = max(1, _TILE_FLOATS // (width * d))
    starts = range(0, n_rows, height)
    workers = max(1, min(_worker_count(), len(starts)))
    # worker threads allocate nothing: each gets its scratch from here
    cells = min(height, n_rows) * width * d
    scratch = [(np.empty(cells), np.empty(cells)) for _ in range(workers)]
    errors: list[BaseException] = []

    def share(k: int) -> None:
        try:
            _chi2_share(rows, cols, out, starts[k::workers], height, width, scratch[k])
        except BaseException as exc:  # re-raised by the caller after join
            errors.append(exc)

    threads = []
    try:
        for k in range(1, workers):
            t = threading.Thread(target=share, args=(k,), daemon=True)
            t.start()
            threads.append(t)
        share(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    out *= 0.5
    return out


def squared_euclidean_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    rn = (rows * rows).sum(axis=1)
    cn = (cols * cols).sum(axis=1)
    d = rn[:, None] + cn[None, :] - 2.0 * (rows @ cols.T)
    return np.maximum(d, 0.0)


def _validated_pair(rows, cols, require_nonnegative: bool) -> tuple[np.ndarray, np.ndarray]:
    r = _as_matrix(rows, "rows", require_nonnegative)
    c = r if cols is None else _as_matrix(cols, "cols", require_nonnegative)
    if r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    return r, c


def distance_matrix(rows, cols=None, out: np.ndarray | None = None) -> np.ndarray:
    """Chi-square distances between two histogram collections, written
    into ``out`` when it is given (see :func:`chi2_distance_matrix`).

    With ``cols=None`` the matrix is computed against ``rows`` itself; it
    is exactly symmetric with an exactly-zero diagonal.
    """
    return chi2_distance_matrix(*_validated_pair(rows, cols, True), out)


def squared_euclidean_distances(rows, cols=None) -> np.ndarray:
    """Squared Euclidean distances between two vector collections. With
    ``cols=None`` the matrix is made exactly symmetric with a zero
    diagonal."""
    r, c = _validated_pair(rows, cols, False)
    d = squared_euclidean_matrix(r, c)
    if cols is None:
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
    return d


def gram_matrix(gamma: float, d: np.ndarray) -> np.ndarray:
    """Kernel matrix exp(-gamma * d) of a base-distance matrix, computed in
    place over ``d`` and returned."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be a positive finite real, got {gamma}")
    d *= -gamma
    return np.exp(d, out=d)


def fit_kernel(distances: np.ndarray, gamma: float | str = "auto") -> tuple[float, np.ndarray]:
    """Gamma of a training set and its Gram matrix, from the set's
    symmetric base-distance matrix. Gamma is the reciprocal mean distance
    when ``gamma`` is "auto"; ``distances`` becomes the Gram matrix in
    place."""
    gamma = gamma_from_distances(distances) if gamma == "auto" else float(gamma)
    return gamma, gram_matrix(gamma, distances)


def heuristic_gamma(data) -> float:
    """Reciprocal of the mean pairwise chi-square distance of ``data``; see
    :func:`gamma_from_distances`."""
    x = _as_matrix(data, "data", require_nonnegative=True)
    return gamma_from_distances(distance_matrix(x))


def gamma_from_distances(d: np.ndarray) -> float:
    """Reciprocal of the mean off-diagonal entry of a symmetric distance
    matrix with a zero diagonal, such as a block of a run-wide matrix.

    The mean is over all n(n-1) ordered pairs i != j.
    """
    n = d.shape[0]
    if n < 2:
        raise ValueError("gamma heuristic needs at least 2 vectors")
    mean = float(d.sum()) / (n * (n - 1))  # diagonal is exactly zero
    if mean <= 0.0:
        raise ValueError("mean pairwise distance is zero (all vectors identical)")
    return 1.0 / mean
