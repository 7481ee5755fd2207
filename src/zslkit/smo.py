"""Two-variable decomposition solver for a batch of box-constrained QPs
that share one kernel matrix.

Solves, for each row k of the batch,

    min_a  0.5 a'Q_k a + p_k'a    s.t.  z_k'a = 0,  0 <= a <= c

where z_k is a +-1 sign vector and Q_k = (z_k z_k') * Kt. The base matrix
Kt is positive semidefinite and its entry (s, t) is gram[s % n, t % n]
for the (n, n) Gram matrix, with m = n or m = 2n, so Kt is the Gram matrix
or the Gram matrix tiled two by two. The one-vs-rest SVC duals (n
variables, one sign vector per class) and the epsilon-SVR duals of all
output dimensions (2n variables, one row per dimension, all with the same
signs) have these shapes; any other m is refused.

Each row follows the maximal-violating-pair scheme of LIBSVM on its own:
a step picks i maximizing -z_t g_t over the "up" set and j minimizing it
over the "low" set (ties broken by lowest index, so runs are
reproducible), then moves along z_i e_i - z_j e_j with the exact
single-variable minimizer clipped to the box. When a row's violation
max - min drops to ``tolerance`` (or its budget runs out), its gradient
is recomputed exactly and checked again, up to three rounds.

Rows are stepped together: one batched step moves every live row with a
few numpy calls over (2, live) arrays. That step costs about the same for
one live row as for a dozen, and most rows stop long before the slowest,
so once at most ``_TAIL_ROWS`` rows are live each of them finishes on its
own with a scalar step: Python floats for the pair and the row's ``a``,
and six numpy calls per update (the two selections, two Gram-row
scalings, their sum and one subtraction over the row's tiles). The two
steps do the same floating-point operations in the same order, including
the -0.0 a clip can keep and the priority of i when both variables reach
a bound, so every row's iterates are bit-identical on either path, and
are those of solving it alone.

A row's solution is returned both as its dual ``a`` and as the weights
``coef`` of the kernel expansion sum_i coef_i K(x_i, .) + bias it defines:
z * a summed over the m / n tiles of Kt, which is alpha - alpha* for an
SVR dual and y * alpha for an SVC dual.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# Coefficients below this fraction of max(1, c) are solver round-off and
# are stored as exact zeros, which fixes the support set.
_COEF_ZERO = 1e-12

# a row gets at most this many exact gradient refreshes
_ROUNDS = 3

# once at most this many rows are live, each finishes with scalar steps;
# below about a dozen rows a batched step costs more than one scalar step
# per row
_TAIL_ROWS = 12

_INF, _NEG_INF = float("inf"), float("-inf")

# The stopping tolerance, LIBSVM's default (Chang & Lin, ACM TIST 2011),
# and the per-row budget of pair updates that train_svr and train_svc pass
# to solve. Both are read at each call, so a test can patch them.
TOLERANCE = 1e-3
MAX_ITER = 1_000_000


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
    """Solutions of r duals; entry k of each array belongs to row k."""

    a: np.ndarray  # (r, m)
    coef: np.ndarray  # (r, n) expansion weights, round-off stored as 0.0
    bias: np.ndarray  # (r,)
    iterations: int  # pair updates summed over all rows
    row_iterations: np.ndarray  # (r,) pair updates of each row
    violation: np.ndarray  # (r,)
    objective: np.ndarray  # (r,) minimized value 0.5 a'Qa + p'a
    converged: np.ndarray  # (r,) bool


def solve(
    gram: np.ndarray,
    z: np.ndarray,
    p: np.ndarray,
    c: float,
    tolerance: float,
    max_iter: int,
) -> SmoResult:
    """Run the decomposition on every row of ``p``, shape (r, m).

    ``gram`` is the exactly symmetric (n, n) Gram matrix, and m is n (SVC)
    or 2n (SVR). ``z``, (r, m) like ``p``, holds each row's sign vector;
    duals that share one pass it as ``np.broadcast_to(z, p.shape)``.
    ``max_iter`` is each row's budget of pair updates.
    """
    p = np.asarray(p, dtype=np.float64)
    if z.shape != p.shape:
        raise ValueError(f"z has shape {z.shape}, but p has shape {p.shape}")
    c = float(c)
    r, m = p.shape
    n = gram.shape[0]
    if m not in (n, 2 * n):
        raise ValueError(f"p has {m} columns, but a dual over {n} samples needs {n} or {2 * n}")
    diag = np.diag(gram)
    pos = z > 0
    a = np.zeros((r, m))
    iters = np.zeros(r, dtype=np.int64)
    rounds = np.zeros(r, dtype=np.int64)
    bias, violation, objective = np.zeros(r), np.zeros(r), np.zeros(r)
    converged = np.zeros(r, dtype=bool)

    # Every variable lies in the up set or the low set (c > 0), so the two
    # masked copies of crit = -z * g hold all of crit: ``cu`` is crit on
    # the up set and -inf elsewhere, ``cl`` crit on the low set and +inf
    # elsewhere. At a = 0 the up set is z > 0 and the low set z < 0.
    cl = np.empty((r, m))
    np.multiply(-z, p, out=cl)
    cu = np.empty((r, m))
    np.copyto(cu, cl)
    np.copyto(cu, -np.inf, where=~pos)
    np.copyto(cl, np.inf, where=pos)
    live = np.arange(r)  # row of each line of cu and cl
    lines = np.arange(r)
    # a_i moves by +z_i * step and a_j by -z_j * step
    sign = np.array([[1.0], [-1.0]])

    def settle(k: int, cuk: np.ndarray, clk: np.ndarray) -> bool:
        """Recompute row k's gradient exactly. Either record its result and
        return True, or reset its ``cu`` and ``cl`` lines to go on."""
        crit, up, low, viol, m_val, big_m_val, g = _refresh(gram, z[k], p[k], a[k], c)
        rounds[k] += 1
        if viol <= tolerance or iters[k] >= max_iter or rounds[k] == _ROUNDS:
            bias[k] = _bias(crit, a[k], c, m_val, big_m_val)
            objective[k] = 0.5 * float(a[k] @ (g + p[k]))
            violation[k] = max(viol, 0.0)
            converged[k] = viol <= tolerance
            return True
        # incremental-gradient drift uncovered residual violation
        cuk[:] = np.where(up, crit, -np.inf)
        clk[:] = np.where(low, crit, np.inf)
        return False

    while live.size > _TAIL_ROWS:
        ij = np.stack([cu.argmax(axis=1), cl.argmin(axis=1)])  # (2, lines)
        gap = cu[lines, ij[0]] - cl[lines, ij[1]]  # -inf if a set is empty
        stop = (gap <= tolerance) | (iters[live] >= max_iter)
        if stop.any():
            # a stopped row's gradient is recomputed exactly; the other rows
            # take this same step after the next selection
            done = np.zeros(live.size, dtype=bool)
            for line in np.flatnonzero(stop):
                done[line] = settle(live[line], cu[line], cl[line])
            if done.any():
                # compact in place, so no second copy of the state is made
                keep = np.flatnonzero(~done)
                for dst, src in enumerate(keep):
                    cu[dst] = cu[src]
                    cl[dst] = cl[src]
                live, cu, cl = live[keep], cu[: keep.size], cl[: keep.size]
                lines = np.arange(live.size)
            continue

        zp = z[live, ij]
        ap = a[live, ij]
        ijn = ij % n
        dg = diag[ijn]
        quad = dg[0] + dg[1] - 2.0 * zp[0] * zp[1] * gram[ijn[0], ijn[1]]
        step = gap / np.maximum(quad, 1e-12)
        direction = zp * sign
        rising = direction > 0
        room = np.where(rising, c - ap, ap)
        step = np.minimum(step, room.min(axis=0))
        at = step == room
        at[1] &= ~at[0]
        # the variable landing exactly on its bound leaves the exact
        # remainder of the equality constraint to the other one
        bound = np.where(rising, c, 0.0)
        za = zp * ap
        rest = zp * ((za[0] + za[1]) - (zp * bound)[::-1])
        new = np.where(at, bound, np.where(at[::-1], rest, ap + direction * step))
        new = np.where(new < 0.0, 0.0, new)  # keeps -0.0, as max(x, 0.0) does
        new = np.where(new > c, c, new)
        a[live, ij] = new
        iters[live] += 1

        # crit drops by coef_i K[i] + coef_j K[j]
        kk = gram[ijn]
        kk *= (zp * (new - ap))[:, :, None]
        u = np.add(kk[0], kk[1], out=kk[0])[:, None, :]
        shape = (live.size, m // n, n)
        np.subtract(cu.reshape(shape), u, out=cu.reshape(shape))
        np.subtract(cl.reshape(shape), u, out=cl.reshape(shape))

        # only the two moved variables of a line can change sets
        crit = cu[lines, ij]
        crit = np.where(crit > -np.inf, crit, cl[lines, ij])
        below, above, plus = new < c, new > 0.0, zp > 0
        cu[lines, ij] = np.where(np.where(plus, below, above), crit, -np.inf)
        cl[lines, ij] = np.where(np.where(plus, above, below), crit, np.inf)

    # The few rows left finish one at a time with the same step in Python
    # floats, on one (2, m) copy of the row's cu and cl lines and a list
    # copy of its a, with six numpy calls an update.
    dg = diag.tolist()
    rows = list(gram)  # row views, taken once per solve
    ku, kv = np.empty(n), np.empty(n)
    pair = np.empty((2, m))
    cuk, clk = pair
    tiles = pair.reshape(2 * (m // n), n)
    top, bottom, cu_at, cl_at, gram_at = cuk.argmax, clk.argmin, cuk.item, clk.item, gram.item
    mul, add, sub = np.multiply, np.add, np.subtract
    for line, k in enumerate(live.tolist()):
        pair[0], pair[1] = cu[line], cl[line]
        ak = a[k].tolist()
        zk = z[k].tolist()
        it = int(iters[k])
        while True:
            i, j = int(top()), int(bottom())
            gap = cu_at(i) - cl_at(j)
            if gap <= tolerance or it >= max_iter:
                iters[k] = it
                a[k] = ak
                if settle(k, cuk, clk):
                    break
                continue
            zi, zj, ai, aj = zk[i], zk[j], ak[i], ak[j]
            ni, nj = (i - n if i >= n else i), (j - n if j >= n else j)
            quad = dg[ni] + dg[nj] - 2.0 * zi * zj * gram_at(ni, nj)
            # min and max written out return the operand the builtins
            # would (-0.0 and NaN included), without a call
            step = gap / (1e-12 if 1e-12 > quad else quad)
            # a_i moves by +z_i * step and a_j by -z_j * step; i is in the
            # up set and j in the low set
            room_i, bound_i, was_low_i = (c - ai, c, ai > 0.0) if zi > 0 else (ai, 0.0, ai < c)
            room_j, bound_j, was_up_j = (aj, 0.0, aj < c) if zj > 0 else (c - aj, c, aj > 0.0)
            room = room_j if room_j < room_i else room_i
            step = room if room < step else step
            at_i = step == room_i
            at_j = step == room_j and not at_i
            za = zi * ai + zj * aj
            new_i = bound_i if at_i else zi * (za - zj * bound_j) if at_j else ai + zi * step
            new_j = bound_j if at_j else zj * (za - zi * bound_i) if at_i else aj - zj * step
            # the clip to [0, c] keeps -0.0, as the batched clip does
            new_i = 0.0 if 0.0 > new_i else c if c < new_i else new_i
            new_j = 0.0 if 0.0 > new_j else c if c < new_j else new_j
            ak[i], ak[j] = new_i, new_j
            it += 1

            mul(rows[ni], zi * (new_i - ai), ku)
            mul(rows[nj], zj * (new_j - aj), kv)
            add(ku, kv, ku)
            sub(tiles, ku, tiles)

            # a member's entry already holds its new crit and a non-member's
            # its infinity, so only a change of set membership is written
            up_i, low_i = (new_i < c, new_i > 0.0) if zi > 0 else (new_i > 0.0, new_i < c)
            up_j, low_j = (new_j < c, new_j > 0.0) if zj > 0 else (new_j > 0.0, new_j < c)
            if not up_i or low_i != was_low_i:
                crit = cu_at(i)
                cuk[i], clk[i] = crit if up_i else _NEG_INF, crit if low_i else _INF
            if not low_j or up_j != was_up_j:
                crit = cl_at(j)
                cuk[j], clk[j] = crit if up_j else _NEG_INF, crit if low_j else _INF

    # the compacted views still hold both (r, m) buffers
    del cu, cl
    coef = z * a
    if m > n:
        coef = coef.reshape(r, m // n, n).sum(axis=1)
    coef[np.abs(coef) < _COEF_ZERO * max(1.0, c)] = 0.0
    return SmoResult(
        a=a,
        coef=coef,
        bias=bias,
        iterations=int(iters.sum()),
        row_iterations=iters,
        violation=violation,
        objective=objective,
        converged=converged,
    )


def require_converged(res: SmoResult, name: Callable[[int], str]) -> SmoResult:
    """Return ``res``, solved under the ``MAX_ITER`` budget, if every row
    converged; otherwise raise :class:`ConvergenceError` for the first row
    k that did not, naming it ``name(k)`` and carrying that row's
    diagnostics and the whole result."""
    if res.converged.all():
        return res
    k = int(np.argmin(res.converged))
    raise ConvergenceError(
        f"{name(k)} did not converge within {MAX_ITER} passes "
        f"(remaining KKT violation {res.violation[k]:.3e})",
        iterations=int(res.row_iterations[k]),
        violation=float(res.violation[k]),
        result=res,
    )


def _refresh(gram: np.ndarray, z: np.ndarray, p: np.ndarray, a: np.ndarray, c: float):
    """One row's exact gradient g = p + z * (Kt (z * a)), its crit, up and
    low sets and the violation they leave."""
    n = gram.shape[0]
    v = z * a
    if a.size > n:
        w = gram @ (v[:n] + v[n:])
        w = np.concatenate([w, w])
    else:
        w = gram @ v
    g = p + z * w
    crit = -z * g
    pos = z > 0
    up = (pos & (a < c)) | (~pos & (a > 0.0))
    low = (~pos & (a < c)) | (pos & (a > 0.0))
    m_val = float(np.max(crit[up])) if up.any() else -np.inf
    big_m_val = float(np.min(crit[low])) if low.any() else np.inf
    finite = np.isfinite(m_val) and np.isfinite(big_m_val)
    violation = m_val - big_m_val if finite else 0.0
    return crit, up, low, violation, m_val, big_m_val, g


def _bias(crit: np.ndarray, a: np.ndarray, c: float, m_val: float, big_m_val: float) -> float:
    """Mean crit over free variables, else the midpoint of the KKT bounds."""
    free = (a > 0.0) & (a < c)
    if free.any():
        return float(np.mean(crit[free]))
    if np.isfinite(m_val) and np.isfinite(big_m_val):
        return 0.5 * (m_val + big_m_val)
    if np.isfinite(m_val):
        return m_val
    if np.isfinite(big_m_val):
        return big_m_val
    return 0.0
