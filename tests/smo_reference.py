"""Reference per-row dual solver.

This is the one-problem-at-a-time form of ``zslkit.smo.solve`` that the
row-batched solver replaced, kept verbatim: the Gram matrix arrives as
column, diagonal and matrix-vector callables, and each call solves one
dual. Tests require the batched solver to reproduce its iterates bit for
bit, row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class SmoResult:
    a: np.ndarray
    bias: float
    iterations: int
    violation: float
    objective: float  # minimized value 0.5 a'Qa + p'a
    converged: bool


def solve(
    kcol: Callable[[int], np.ndarray],
    kdiag: np.ndarray,
    z: np.ndarray,
    p: np.ndarray,
    c: float,
    tolerance: float,
    max_iter: int,
    kmatvec: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SmoResult:
    """Run the decomposition. ``kcol(t)`` returns column t of Kt, ``kdiag``
    its diagonal, ``kmatvec(v)`` (optional) the product Kt v used to refresh
    the gradient exactly once the loop stops."""
    m = p.size
    a = np.zeros(m, dtype=np.float64)
    g = p.astype(np.float64).copy()
    pos = z > 0
    iterations = 0

    def refresh_gradient() -> None:
        if kmatvec is not None:
            g[:] = p + z * kmatvec(z * a)

    for _round in range(3):
        while iterations < max_iter:
            crit = -z * g
            up = (pos & (a < c)) | (~pos & (a > 0.0))
            low = (~pos & (a < c)) | (pos & (a > 0.0))
            if not up.any() or not low.any():
                break
            i = int(np.argmax(np.where(up, crit, -np.inf)))
            j = int(np.argmin(np.where(low, crit, np.inf)))
            violation = crit[i] - crit[j]
            if violation <= tolerance:
                break
            ki = kcol(i)
            kj = kcol(j)
            quad = kdiag[i] + kdiag[j] - 2.0 * z[i] * z[j] * ki[j]
            step = violation / max(quad, 1e-12)
            gap_i = (c - a[i]) if z[i] > 0 else a[i]
            gap_j = a[j] if z[j] > 0 else (c - a[j])
            step = min(step, gap_i, gap_j)
            old_i, old_j = a[i], a[j]
            conserved = z[i] * old_i + z[j] * old_j
            if step == gap_i:
                # i lands exactly on its bound; j absorbs the exact remainder
                a[i] = c if z[i] > 0 else 0.0
                a[j] = z[j] * (conserved - z[i] * a[i])
            elif step == gap_j:
                a[j] = 0.0 if z[j] > 0 else c
                a[i] = z[i] * (conserved - z[j] * a[j])
            else:
                a[i] = old_i + z[i] * step
                a[j] = old_j - z[j] * step
            a[i] = min(max(a[i], 0.0), c)
            a[j] = min(max(a[j], 0.0), c)
            di = a[i] - old_i
            dj = a[j] - old_j
            g += z * (z[i] * di * ki + z[j] * dj * kj)
            iterations += 1
        refresh_gradient()
        crit = -z * g
        up = (pos & (a < c)) | (~pos & (a > 0.0))
        low = (~pos & (a < c)) | (pos & (a > 0.0))
        m_val = float(np.max(crit[up])) if up.any() else -np.inf
        big_m_val = float(np.min(crit[low])) if low.any() else np.inf
        violation = m_val - big_m_val if np.isfinite(m_val) and np.isfinite(big_m_val) else 0.0
        if violation <= tolerance or iterations >= max_iter:
            break
        # incremental-gradient drift uncovered residual violation: keep going

    free = (a > 0.0) & (a < c)
    if free.any():
        bias = float(np.mean(crit[free]))
    elif np.isfinite(m_val) and np.isfinite(big_m_val):
        bias = 0.5 * (m_val + big_m_val)
    elif np.isfinite(m_val):
        bias = m_val
    elif np.isfinite(big_m_val):
        bias = big_m_val
    else:
        bias = 0.0
    objective = 0.5 * float(a @ (g + p))
    return SmoResult(
        a=a,
        bias=bias,
        iterations=iterations,
        violation=max(violation, 0.0),
        objective=objective,
        converged=violation <= tolerance,
    )


def solve_svr_row(gram, y, c, epsilon, tolerance, max_iter) -> tuple[SmoResult, int]:
    """One epsilon-SVR dual as ``train_svr`` set it up per output
    dimension: 2n variables over the Gram matrix tiled twice. Also returns
    the number of exact gradient refresh rounds the solve took."""
    n = gram.shape[0]
    z = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    diag = np.diag(gram)
    kdiag = np.concatenate([diag, diag])
    rounds = []

    def kcol(t: int) -> np.ndarray:
        col = gram[:, t % n]
        return np.concatenate([col, col])

    def kmatvec(v: np.ndarray) -> np.ndarray:
        rounds.append(1)
        w = gram @ (v[:n] + v[n:])
        return np.concatenate([w, w])

    res = solve(kcol, kdiag, z, p, c, tolerance, max_iter, kmatvec)
    return res, len(rounds)


def solve_svc_row(gram, z, c, tolerance, max_iter) -> tuple[SmoResult, int]:
    """One binary SVC dual as ``train_svc`` set it up per class: n
    variables with labels ``z``. Also returns the refresh round count."""
    rounds = []

    def kmatvec(v: np.ndarray) -> np.ndarray:
        rounds.append(1)
        return gram @ v

    res = solve(
        lambda t: gram[:, t], np.diag(gram), z, -np.ones(z.size), c, tolerance, max_iter,
        kmatvec=kmatvec,
    )
    return res, len(rounds)
