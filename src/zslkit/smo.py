"""Two-variable decomposition solver for box-constrained QPs with a single
equality constraint.

Solves

    min_a  0.5 a'Qa + p'a    s.t.  z'a = 0,  0 <= a <= c

where z is a +-1 sign vector and Q = (z z') * Kt for a positive
semidefinite base matrix Kt supplied column by column. Both the
epsilon-SVR dual (Kt tiled from the training Gram matrix, 2n variables)
and the soft-margin SVC dual (Kt = Gram, n variables) have this shape.

Each step picks the maximally violating pair: i maximizing -z_t g_t over
the "up" set, j minimizing it over the "low" set (ties broken by lowest
index, so runs are reproducible), then moves along z_i e_i - z_j e_j with
the exact single-variable minimizer clipped to the box. Convergence is
declared when the violation max - min drops to ``tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Coefficients below this fraction of max(1, c) are solver round-off and
# are stored as exact zeros, which fixes the support set.
_COEF_ZERO = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the dual solver exhausts its iteration budget.

    Carries best-so-far diagnostics: iteration count, remaining KKT
    violation and the partial result.
    """

    def __init__(self, message: str, *, iterations: int, violation: float, result=None):
        super().__init__(message)
        self.iterations = iterations
        self.violation = violation
        self.result = result


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
