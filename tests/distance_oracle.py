"""Reference computations for the run-wide distance matrix.

These are the straightforward forms that the package's distance code
replaced: a full rows-vs-cols chi-square loop and the single-threaded
row-at-a-time kernel that preceded the tiled one. Tests require the
package to agree with them bit for bit.
"""

from __future__ import annotations

import numpy as np


def chi2_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Chi-square distance of every row to every column, one row at a time."""
    out = np.empty((rows.shape[0], cols.shape[0]), dtype=np.float64)
    for i in range(rows.shape[0]):
        num = (rows[i] - cols) ** 2
        den = rows[i] + cols
        terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        out[i] = terms.sum(axis=1)
    return 0.5 * out


def chi2_distance_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Chi-square distances between every row and every column vector.

    When ``cols is rows`` only the upper triangle is computed and then
    mirrored: (a-b)^2 and a+b are exactly symmetric, so the result equals
    the rows-vs-cols computation bit for bit. Scratch buffers of shape
    ``cols.shape`` are reused across rows.
    """
    symmetric = cols is rows
    n_cols = cols.shape[0]
    out = np.empty((rows.shape[0], n_cols), dtype=np.float64)
    num = np.empty(cols.shape, dtype=np.float64)
    den = np.empty(cols.shape, dtype=np.float64)
    positive = np.empty(cols.shape, dtype=bool)
    for i, r in enumerate(rows):
        lo = i if symmetric else 0
        c = cols[lo:]
        m = n_cols - lo
        nu, de, pos = num[:m], den[:m], positive[:m]
        np.subtract(r, c, out=nu)
        np.square(nu, out=nu)
        np.add(r, c, out=de)
        np.greater(de, 0.0, out=pos)
        # where a+b == 0 both bins are 0, so nu already holds the 0 term
        np.divide(nu, de, out=nu, where=pos)
        nu.sum(axis=1, out=out[i, lo:])
        if symmetric:
            out[lo:, i] = out[i, lo:]
    out *= 0.5
    return out

