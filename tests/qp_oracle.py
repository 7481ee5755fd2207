"""Independent QP oracle for checking the dual solvers.

Solves  min_a 0.5 a'Qa + p'a  s.t. z'a = 0, 0 <= a <= c  by accelerated
projected gradient descent (projection onto the box-hyperplane
intersection by an exact breakpoint solve for the shift multiplier), then
polishes the guessed active set by solving the equality-constrained KKT
system exactly. Deliberately shares no code with the package's
decomposition solver.
"""

from __future__ import annotations

import numpy as np


def project_box_hyperplane(v: np.ndarray, z: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto {a : z'a = 0, 0 <= a <= c} for z in {-1,+1}.

    The projection has the closed form a(lam) = clip(v - lam*z, 0, c) where
    lam solves z'a(lam) = 0. z'a(lam) is continuous, non-increasing and
    linear between its breakpoints lam = z*v and lam = z*(v - c), positive
    or zero before the first and negative or zero after the last, so lam
    is interpolated between the last breakpoint where it is positive and
    the first where it is not.
    """
    breaks = np.sort(np.concatenate([z * v, z * (v - c)]))
    f = np.clip(v[None, :] - breaks[:, None] * z[None, :], 0.0, c) @ z
    j = int(np.argmax(f <= 0.0))
    lam = float(breaks[j])
    if f[j] < 0.0:
        lo, f_lo = float(breaks[j - 1]), float(f[j - 1])
        lam = lo + f_lo * (lam - lo) / (f_lo - float(f[j]))
    a = np.clip(v - lam * z, 0.0, c)
    # exact feasibility: absorb the rounding residue into a free coordinate
    resid = float(z @ a)
    free = np.flatnonzero((a > 1e-12) & (a < c - 1e-12))
    for idx in free:
        move = resid * z[idx]
        if 0.0 <= a[idx] - move <= c:
            a[idx] -= move
            break
    return a


def accelerated_projected_gradient(
    q: np.ndarray, p: np.ndarray, z: np.ndarray, c: float, iters: int = 1500
) -> np.ndarray:
    lips = float(np.max(np.linalg.eigvalsh(q)))
    step = 1.0 / max(lips, 1e-12)
    a = project_box_hyperplane(np.zeros_like(p), z, c)
    yk = a.copy()
    t_k = 1.0
    best = a.copy()
    best_obj = _objective(q, p, a)
    for _ in range(iters):
        grad = q @ yk + p
        a_next = project_box_hyperplane(yk - step * grad, z, c)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        yk = a_next + ((t_k - 1.0) / t_next) * (a_next - a)
        a, t_k = a_next, t_next
        obj = _objective(q, p, a)
        if obj < best_obj:
            best, best_obj = a.copy(), obj
    return best


def _objective(q: np.ndarray, p: np.ndarray, a: np.ndarray) -> float:
    return float(0.5 * a @ (q @ a) + p @ a)


def _polish_active_set(
    q: np.ndarray,
    p: np.ndarray,
    z: np.ndarray,
    c: float,
    a0: np.ndarray,
    rounds: int = 60,
) -> np.ndarray | None:
    """Refine an approximate solution by exactly solving the KKT system on
    the guessed free set, moving misclassified variables between sets."""
    m = a0.size
    edge = 1e-7 * max(c, 1.0)
    at_zero = a0 <= edge
    at_cap = a0 >= c - edge
    for _ in range(rounds):
        free = ~(at_zero | at_cap)
        a = np.where(at_cap, c, 0.0)
        nf = int(free.sum())
        if nf > 0:
            rhs_target = -float(z[at_cap] @ a[at_cap]) if at_cap.any() else 0.0
            qff = q[np.ix_(free, free)]
            lin = p[free] + (q[np.ix_(free, at_cap)] @ a[at_cap] if at_cap.any() else 0.0)
            kkt = np.zeros((nf + 1, nf + 1))
            kkt[:nf, :nf] = qff
            kkt[:nf, nf] = z[free]
            kkt[nf, :nf] = z[free]
            rhs = np.concatenate([-lin, [rhs_target]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            a_free, nu = sol[:nf], float(sol[nf])
            a[free] = a_free
        else:
            nu = 0.0
        tol_box = 1e-9 * max(c, 1.0)
        if nf > 0 and (np.any(a[free] < -tol_box) or np.any(a[free] > c + tol_box)):
            # worst offender leaves the free set
            idx_free = np.flatnonzero(free)
            below = a[free] < -tol_box
            above = a[free] > c + tol_box
            viol = np.where(below, -a[free], 0.0) + np.where(above, a[free] - c, 0.0)
            worst = idx_free[int(np.argmax(viol))]
            if a[worst] < 0:
                at_zero[worst] = True
            else:
                at_cap[worst] = True
            continue
        a = np.clip(a, 0.0, c)
        grad = q @ a + p
        lam = grad - nu * z
        kkt_tol = 1e-8 * max(1.0, float(np.abs(grad).max()))
        zero_bad = at_zero & (lam < -kkt_tol)
        cap_bad = at_cap & (lam > kkt_tol)
        if zero_bad.any() or cap_bad.any():
            scores = np.where(zero_bad, -lam, 0.0) + np.where(cap_bad, lam, 0.0)
            worst = int(np.argmax(scores))
            at_zero[worst] = False
            at_cap[worst] = False
            continue
        return a
    return None


def solve_qp(
    q: np.ndarray,
    p: np.ndarray,
    z: np.ndarray,
    c: float,
    iters: int = 1500,
) -> tuple[np.ndarray, float]:
    """Return (a, minimized objective). The polished active-set solution is
    used when it is feasible and at least as good as the iterate."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    a = accelerated_projected_gradient(q, p, z, c, iters)
    polished = _polish_active_set(q, p, z, c, a)
    if polished is not None:
        polished = project_box_hyperplane(polished, z, c)
        if _objective(q, p, polished) <= _objective(q, p, a):
            a = polished
    return a, _objective(q, p, a)


def _kkt_bias(grad: np.ndarray, z: np.ndarray, a: np.ndarray, c: float) -> float:
    """Decision-function bias from stationarity: b = -z_t grad_t on free
    variables, else the midpoint of the feasible interval."""
    crit = -z * grad
    free = (a > 1e-9 * c) & (a < c - 1e-9 * c)
    if free.any():
        return float(np.mean(crit[free]))
    pos = z > 0
    up = (pos & (a < c)) | (~pos & (a > 0.0))
    low = (~pos & (a < c)) | (pos & (a > 0.0))
    lo = float(np.max(crit[up])) if up.any() else 0.0
    hi = float(np.min(crit[low])) if low.any() else 0.0
    return 0.5 * (lo + hi)


def svr_dual_oracle(
    gram: np.ndarray, targets: np.ndarray, c: float, epsilon: float, iters: int = 1500
) -> tuple[np.ndarray, float, float]:
    """Solve the epsilon-SVR dual; returns (beta, bias, maximized dual)."""
    k = np.asarray(gram, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = k.shape[0]
    q = np.block([[k, -k], [-k, k]])
    p = np.concatenate([epsilon - y, epsilon + y])
    z = np.concatenate([np.ones(n), -np.ones(n)])
    a, obj = solve_qp(q, p, z, c, iters)
    beta = a[:n] - a[n:]
    bias = _kkt_bias(q @ a + p, z, a, c)
    return beta, bias, -obj


def svc_dual_oracle(
    gram: np.ndarray, signs: np.ndarray, c: float, iters: int = 1500
) -> tuple[np.ndarray, float, float]:
    """Solve the binary C-SVC dual; returns (alpha, bias, maximized dual)."""
    k = np.asarray(gram, dtype=np.float64)
    z = np.asarray(signs, dtype=np.float64)
    q = (z[:, None] * z[None, :]) * k
    p = -np.ones(k.shape[0])
    a, obj = solve_qp(q, p, z, c, iters)
    bias = _kkt_bias(q @ a + p, z, a, c)
    return a, bias, -obj
