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
# Output cells per gather chunk; each chunk holds three int64 index
# temporaries of this size.
_GATHER_CELLS = 1 << 14


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chi2_tile(row, cols, out, num, den) -> None:
    """out[j] = sum over bins of (row-cols[j])^2/(row+cols[j]), with
    (len(cols), d_x) scratch ``num`` and ``den``."""
    np.subtract(row, cols, out=num)
    np.square(num, out=num)
    np.add(row, cols, out=den)
    np.maximum(den, _TINY, out=den)
    np.divide(num, den, out=num)
    num.sum(axis=1, out=out)


def _chi2_share(rows, cols, out, mine, width, scratch) -> None:
    """Fill the output of the rows ``mine``, one tile of ``width`` columns
    at a time.

    When ``cols is rows``, ``out`` is packed: row i's cells for columns
    i+1 .. n-1 follow the cells of the rows before it.
    """
    symmetric = cols is rows
    n, d = cols.shape
    num, den = scratch
    for i in mine:
        if symmetric:
            first = i + 1
            start = i * (2 * n - 1 - i) // 2  # cells of rows 0 .. i-1
            line = out[start : start + n - first]
        else:
            first, line = 0, out[i]
        for c0 in range(first, n, width):
            c1 = min(c0 + width, n)
            size = (c1 - c0) * d
            _chi2_tile(
                rows[i], cols[c0:c1], line[c0 - first : c1 - first],
                num[:size].reshape(c1 - c0, d), den[:size].reshape(c1 - c0, d),
            )


def chi2_distance_matrix(
    rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Chi-square distances between every row and every column vector,
    1/2 * sum over bins of (a-b)^2/(a+b); bins with a+b == 0 contribute 0.
    They are written into ``out`` when it is given, and it is returned.

    ``out`` is a float64 array of shape (len(rows), len(cols)), except
    when ``cols is rows``: the matrix is then exactly symmetric with an
    exactly-zero diagonal, and ``out`` holds it packed (see
    :class:`PackedDistances`), n(n-1)/2 + 1 floats. Each row's distances
    to the later rows are computed once, straight into their cells, and
    the last cell is the +0.0 of every diagonal cell.

    Each row is computed in tiles whose scratch holds about 2^16 floats,
    and the rows are dealt round-robin to one thread per usable CPU; the
    calling thread takes the first share. Every cell is one contiguous
    sum over its d_x terms, and (a-b)^2 and a+b are exactly symmetric, so
    the result does not depend on the tiling, the thread count or the
    mode: a packed cell equals the rows-vs-cols one bit for bit.
    """
    symmetric = cols is rows
    n_rows, n_cols = rows.shape[0], cols.shape[0]
    shape = (n_rows * (n_rows - 1) // 2 + 1,) if symmetric else (n_rows, n_cols)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {shape}, got {out.dtype} {out.shape}")
    width = max(1, min(n_cols, _TILE_FLOATS // max(rows.shape[1], 1)))
    filled = n_rows - 1 if symmetric else n_rows  # rows with a cell to fill
    workers = max(1, min(_worker_count(), filled))
    # worker threads allocate nothing: each gets its scratch from here
    cells = width * rows.shape[1]
    scratch = [(np.empty(cells), np.empty(cells)) for _ in range(workers)]
    errors: list[BaseException] = []

    def share(k: int) -> None:
        try:
            _chi2_share(rows, cols, out, range(k, filled, workers), width, scratch[k])
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
    if symmetric:
        out[-1] = 0.0
    out *= 0.5
    return out


class PackedDistances:
    """The (n, n) chi-square matrix of n histograms with each pair stored
    once.

    The matrix is exactly symmetric with an exactly-zero diagonal, so row
    i keeps only its distances to rows i+1 .. n-1, one row after another,
    and one trailing 0.0 serves every diagonal cell: n(n-1)/2 + 1 floats
    instead of n^2. The cells are filled by one symmetric
    :func:`chi2_distance_matrix` call; :meth:`block` gives any block of
    the full matrix.
    """

    def __init__(self, rows) -> None:
        x = _as_matrix(rows, "rows", require_nonnegative=True)
        n = self.n = x.shape[0]
        self.cells = np.empty(n * (n - 1) // 2 + 1)
        chi2_distance_matrix(x, x, self.cells)
        i = np.arange(n, dtype=np.intp)
        # cell (i, j), i < j, is at base[i] + j
        self._base = i * (2 * n - 3 - i) // 2 - 1

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The C-ordered (len(rows), len(cols)) block ``dense[np.ix_(rows,
        cols)]`` of the full matrix, for any row indices in [0, n), sorted
        or not, repeated or shared between ``rows`` and ``cols``. It is
        gathered a bounded chunk of cells at a time."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        for side in (rows, cols):
            if side.size and (side.min() < 0 or side.max() >= self.n):
                raise IndexError(f"row indices must lie in [0, {self.n})")
        out = np.empty((rows.size, cols.size))
        width = max(1, min(cols.size, _GATHER_CELLS))
        height = max(1, _GATHER_CELLS // width)
        for r0 in range(0, rows.size, height):
            i = rows[r0 : r0 + height, None]
            for c0 in range(0, cols.size, width):
                j = cols[None, c0 : c0 + width]
                lo, hi = np.minimum(i, j), np.maximum(i, j)
                at = self._base[lo]
                at += hi
                np.putmask(at, lo == hi, self.cells.size - 1)
                # a chunk of out is contiguous (full rows, or part of one
                # row), and with the indices checked above "clip" mode
                # writes it without a buffer
                np.take(self.cells, at, out=out[r0 : r0 + height, c0 : c0 + width], mode="clip")
                del lo, hi, at  # free before the next chunk's are made
        return out


def squared_euclidean_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of 2-D arrays, clipped at zero. Not
    folded into :func:`squared_euclidean_distances`, as perfbench/spans.py
    wraps it by name for its ``kernels.sqeuclid_matrix`` span."""
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


def distance_matrix(rows, cols=None) -> np.ndarray:
    """Chi-square distances between two histogram collections (see
    :func:`chi2_distance_matrix`).

    With ``cols=None``, or ``cols`` the very array ``rows``, the matrix is
    of ``rows`` against itself: it is gathered from their
    :class:`PackedDistances`, exactly symmetric with an exactly-zero
    diagonal.
    """
    if cols is None or cols is rows:
        dist = PackedDistances(rows)
        every = np.arange(dist.n)
        return dist.block(every, every)
    return chi2_distance_matrix(*_validated_pair(rows, cols, True))


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


def fit_kernel(distances: np.ndarray) -> tuple[float, np.ndarray]:
    """Gamma of a training set and its Gram matrix, from the set's
    symmetric base-distance matrix. Gamma is always the reciprocal mean
    distance (:func:`gamma_from_distances`), for the regressor and the
    classifier alike; ``distances`` becomes the Gram matrix in place."""
    gamma = gamma_from_distances(distances)
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
