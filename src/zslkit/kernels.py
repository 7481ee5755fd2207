"""Histogram kernels: chi-square distance, RBF kernels, the mean-distance
gamma heuristic, and Gram-matrix construction shared by the regressor and
the classifier."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

RBF_CHI2 = "rbf_chi2"
RBF_EUCLIDEAN = "rbf_euclidean"
KERNEL_KINDS = (RBF_CHI2, RBF_EUCLIDEAN)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth. ``chi2_halved`` selects the 1/2-factor
    chi-square convention (the unhalved variant is exposed for ablation)."""

    kind: str
    gamma: float
    chi2_halved: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be a positive finite real, got {self.gamma}")


def _as_histogram(x, name: str = "histogram") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(v < 0):
        raise ValueError(f"{name} contains negative entries")
    return v


def _as_matrix(x, name: str, require_nonnegative: bool) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    if require_nonnegative and np.any(m < 0):
        raise ValueError(f"{name} contains negative entries")
    return m


def chi2_distance(a, b, halved: bool = True) -> float:
    """Chi-square histogram distance, sum over bins of (a-b)^2/(a+b).

    Bins with a+b == 0 contribute 0. ``halved`` applies the conventional
    1/2 factor.
    """
    a = _as_histogram(a, "a")
    b = _as_histogram(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    num = (a - b) ** 2
    den = a + b
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    total = float(terms.sum())
    return 0.5 * total if halved else total


def squared_euclidean(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(d @ d)


def pair_distance(spec: KernelSpec, a, b) -> float:
    if spec.kind == RBF_CHI2:
        return chi2_distance(a, b, halved=spec.chi2_halved)
    return squared_euclidean(a, b)


def kernel_value(spec: KernelSpec, a, b) -> float:
    """exp(-gamma * D(a, b)); lies in (0, 1], equal to 1 iff D == 0."""
    return math.exp(-spec.gamma * pair_distance(spec, a, b))


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


def chi2_distance_matrix(rows: np.ndarray, cols: np.ndarray, halved: bool = True) -> np.ndarray:
    """Chi-square distances between every row and every column vector.

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
    out = np.empty((n_rows, n_cols), dtype=np.float64)
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
    if halved:
        out *= 0.5
    return out


def squared_euclidean_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    rn = (rows * rows).sum(axis=1)
    cn = (cols * cols).sum(axis=1)
    d = rn[:, None] + cn[None, :] - 2.0 * (rows @ cols.T)
    return np.maximum(d, 0.0)


def distance_matrix(
    kind: str, rows, cols=None, chi2_halved: bool = True
) -> np.ndarray:
    """Pairwise base distances between two vector collections.

    With ``cols=None`` the matrix is computed against ``rows`` itself; it
    is exactly symmetric with an exactly-zero diagonal.
    """
    require_nonneg = kind == RBF_CHI2
    r = _as_matrix(rows, "rows", require_nonneg)
    symmetric = cols is None
    c = r if symmetric else _as_matrix(cols, "cols", require_nonneg)
    if r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    if kind == RBF_CHI2:
        return chi2_distance_matrix(r, c, halved=chi2_halved)
    if kind != RBF_EUCLIDEAN:
        raise ValueError(f"unknown kernel kind {kind!r}")
    d = squared_euclidean_matrix(r, c)
    if symmetric:
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
    return d


def rbf_from_distances(gamma: float, d: np.ndarray) -> np.ndarray:
    """exp(-gamma * d), computed in place over ``d`` and returned."""
    d *= -gamma
    return np.exp(d, out=d)


def gram_matrix(spec: KernelSpec, rows, cols=None) -> np.ndarray:
    """Kernel matrix M[i][j] = kernel_value(rows[i], cols[j]).

    When ``cols`` is omitted the result is symmetric with unit diagonal.
    """
    d = distance_matrix(spec.kind, rows, cols, chi2_halved=spec.chi2_halved)
    return rbf_from_distances(spec.gamma, d)


def fit_kernel(
    kind: str, distances: np.ndarray, gamma: float | str = "auto", chi2_halved: bool = True
) -> tuple[KernelSpec, np.ndarray]:
    """Kernel of a training set and its Gram matrix, from the set's
    symmetric base-distance matrix. Gamma is the reciprocal mean distance
    when ``gamma`` is "auto"; ``distances`` becomes the Gram matrix in
    place."""
    if gamma == "auto":
        gamma = gamma_from_distances(distances)
    kernel = KernelSpec(kind, float(gamma), chi2_halved=chi2_halved)
    return kernel, rbf_from_distances(kernel.gamma, distances)


def heuristic_gamma(
    data,
    kind: str = RBF_CHI2,
    *,
    chi2_halved: bool = True,
    include_self_pairs: bool = False,
    max_pairs: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Reciprocal of the mean pairwise base distance of ``data``; see
    :func:`gamma_from_distances`."""
    x = _as_matrix(data, "data", require_nonnegative=kind == RBF_CHI2)
    return gamma_from_distances(
        distance_matrix(kind, x, chi2_halved=chi2_halved),
        include_self_pairs=include_self_pairs,
        max_pairs=max_pairs,
        seed=seed,
    )


def gamma_from_distances(
    d: np.ndarray,
    *,
    include_self_pairs: bool = False,
    max_pairs: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Reciprocal of the mean off-diagonal entry of a symmetric distance
    matrix with a zero diagonal, such as a block of a run-wide matrix.

    The mean is over ordered pairs i != j by default; including self pairs
    shrinks it by (n-1)/n and is exposed for comparison. When the ordered
    pair count exceeds ``max_pairs``, pairs are subsampled uniformly with
    a PCG64 generator seeded by ``seed``.
    """
    n = d.shape[0]
    if n < 2:
        raise ValueError("gamma heuristic needs at least 2 vectors")
    n_pairs = n * n if include_self_pairs else n * (n - 1)
    if n_pairs <= max_pairs:
        mean = float(d.sum()) / n_pairs  # diagonal is exactly zero
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        # chunked partial sums fix the summation order of reported gammas;
        # j is drawn a chunk at a time, which continues the generator's
        # stream exactly as one draw of max_pairs would
        total = 0.0
        chunk = 100_000
        for lo in range(0, max_pairs, chunk):
            rows = i[lo : lo + chunk]
            if include_self_pairs:
                cols = rng.integers(0, n, size=rows.size)
            else:
                cols = (rows + rng.integers(1, n, size=rows.size)) % n
            total += float(d[rows, cols].sum())
        mean = total / max_pairs
    if mean <= 0.0:
        raise ValueError("mean pairwise distance is zero (all vectors identical)")
    return 1.0 / mean
