"""Whole-array forms of the steps that now run in bounded chunks or
allocation-free reductions.

Each function is the expression the bounded code replaced, kept
verbatim: one (n, P, d_z) difference tensor for prototype matching, one
full (n, d_z) pass per prototype for self-training, one n^2 bool array
for the Gram symmetry check, one stacked copy of the target and
auxiliary rows for the dense run-wide distance matrix (whose ``np.ix_``
blocks a unit's gathers from the packed matrix must equal), and two
whole-array bool masks for the input check. Tests require the bounded
code to reproduce them bit for bit, and the input check to raise exactly
as its mask form does; ``scripts/bench_memory.py`` times and traces the
chunked steps' two forms.
"""

from __future__ import annotations

import numpy as np

import distance_oracle
from zslkit.embedding import l2_normalize


def nearest_prototype(mat: np.ndarray, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and distance of each projection row's closest row of ``mat``."""
    d = np.linalg.norm(proj[:, None, :] - mat[None], axis=2)
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(idx.size), idx]


def self_train(mat: np.ndarray, proj: np.ndarray, k: int) -> np.ndarray:
    """Each row of ``mat`` moved to the L2-normalized mean of its ``k``
    nearest rows of ``proj``, ties toward lower rows."""
    adapted = []
    for vector in mat:
        d2 = ((proj - vector) ** 2).sum(axis=1)
        neighbours = np.argsort(d2, kind="stable")[:k]
        adapted.append(l2_normalize(proj[neighbours].mean(axis=0)))
    return np.vstack(adapted)


def validate_gram(g: np.ndarray) -> np.ndarray:
    """``g`` if exactly symmetric; raises otherwise."""
    if not np.array_equal(g, g.T):
        raise ValueError("gram matrix is not symmetric")
    return g


def run_distances(target: np.ndarray, auxiliary: np.ndarray) -> np.ndarray:
    """Dense chi-square distances of the target rows stacked on the
    auxiliary rows, each row's upper triangle mirrored into the lower."""
    x = np.vstack([target, auxiliary])
    return distance_oracle.chi2_distance_matrix(x, x)


def check_matrix(m: np.ndarray, name: str, require_nonnegative: bool) -> None:
    """Raise as ``kernels._as_matrix`` does for a non-finite entry, then for
    a negative one when ``require_nonnegative``."""
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    if require_nonnegative and np.any(m < 0):
        raise ValueError(f"{name} contains negative entries")
