"""The row-batched dual solver against the per-row reference solver in
``smo_reference.py``: every row must reproduce the reference's iterates
bit for bit, in both the SVR form (one sign vector broadcast over the
rows, Gram tiled twice) and the SVC form (one sign vector per row),
whether the solver steps it in a batch or, once few rows are left, on its
own."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smo_reference as ref
from zslkit import smo
from zslkit.kernels import distance_matrix, gram_matrix


def chi2_gram(rng, n, d=4, gamma=2.0, duplicate=False):
    x = rng.dirichlet(np.ones(d), size=n)
    if duplicate:
        x[-1] = x[0]
    return gram_matrix(gamma, distance_matrix(x))


def svr_batch(gram, targets, c, epsilon, tolerance, max_iter):
    """All columns of ``targets`` (n, r) as one batched SVR solve."""
    n = gram.shape[0]
    z = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - targets.T, epsilon + targets.T], axis=1)
    return smo.solve(gram, np.broadcast_to(z, p.shape), p, c, tolerance, max_iter)


def svc_batch(gram, signs, c, tolerance, max_iter):
    """All rows of ``signs`` (r, n) as one batched SVC solve."""
    return smo.solve(gram, signs, -np.ones(signs.shape), c, tolerance, max_iter)


def switch_points(r):
    """Values of ``smo._TAIL_ROWS`` for a solve of r rows: every step
    batched (0), per-row steps once half the rows are done, and every step
    per row (r)."""
    return sorted({0, max(1, r // 2), r})


def on_each_path(solve, r):
    """``solve()`` at each switch point."""
    results = []
    for switch in switch_points(r):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smo, "_TAIL_ROWS", switch)
            results.append(solve())
    return results


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def expected_coef(z, a, n, c):
    """z * a summed over the tiles of the Gram matrix, round-off zeroed."""
    coef = (z * a).reshape(-1, n).sum(axis=0)
    coef[np.abs(coef) < 1e-12 * max(1.0, c)] = 0.0
    return coef


def assert_row_matches(batch, k, row, z, c):
    assert same_bits(batch.a[k], row.a), "a"
    assert same_bits(batch.coef[k], expected_coef(z, row.a, batch.coef.shape[1], c)), "coef"
    assert same_bits(batch.bias[k], row.bias), "bias"
    assert batch.row_iterations[k] == row.iterations
    assert same_bits(batch.violation[k], row.violation), "violation"
    assert same_bits(batch.objective[k], row.objective), "objective"
    assert batch.converged[k] == row.converged


def check_svr(gram, targets, c, epsilon, tolerance, max_iter):
    """Compare every row with the reference on every path; return the
    batched result and the per-row reference refresh round counts."""
    n, r = targets.shape
    z = np.concatenate([np.ones(n), -np.ones(n)])
    rows = [
        ref.solve_svr_row(gram, targets[:, k], c, epsilon, tolerance, max_iter) for k in range(r)
    ]
    batches = on_each_path(lambda: svr_batch(gram, targets, c, epsilon, tolerance, max_iter), r)
    for batch in batches:
        for k, (row, _) in enumerate(rows):
            assert_row_matches(batch, k, row, z, c)
        assert batch.iterations == int(batch.row_iterations.sum())
    return batches[0], [n_rounds for _, n_rounds in rows]


def check_svc(gram, signs, c, tolerance, max_iter):
    r = signs.shape[0]
    rows = [ref.solve_svc_row(gram, signs[k], c, tolerance, max_iter) for k in range(r)]
    batches = on_each_path(lambda: svc_batch(gram, signs, c, tolerance, max_iter), r)
    for batch in batches:
        for k, (row, _) in enumerate(rows):
            assert_row_matches(batch, k, row, signs[k], c)
        assert batch.iterations == int(batch.row_iterations.sum())
    return batches[0], [n_rounds for _, n_rounds in rows]


problems = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(2, 9),
        "r": st.integers(1, 4),
        "gamma": st.sampled_from([0.5, 2.0, 8.0]),
        "c": st.sampled_from([1e-6, 0.05, 2.0, 100.0]),
        "tolerance": st.sampled_from([1e-3, 1e-9]),
        "max_iter": st.sampled_from([1, 7, 60, 5_000]),
        "duplicate": st.booleans(),
    }
)


class TestMatchesPerRowReference:
    @settings(max_examples=60, deadline=None)
    @given(problems, st.sampled_from([0.0, 0.05, 0.5, 5.0]))
    def test_svr_form(self, prob, epsilon):
        rng = np.random.default_rng(prob["seed"])
        gram = chi2_gram(rng, prob["n"], gamma=prob["gamma"], duplicate=prob["duplicate"])
        targets = rng.normal(size=(prob["n"], prob["r"]))
        check_svr(gram, targets, prob["c"], epsilon, prob["tolerance"], prob["max_iter"])

    @settings(max_examples=60, deadline=None)
    @given(problems)
    def test_svc_form(self, prob):
        rng = np.random.default_rng(prob["seed"])
        n = prob["n"]
        gram = chi2_gram(rng, n, gamma=prob["gamma"], duplicate=prob["duplicate"])
        labels = rng.integers(0, prob["r"] + 1, size=n)
        signs = np.array([np.where(labels == k, 1.0, -1.0) for k in range(prob["r"] + 1)])
        check_svc(gram, signs, prob["c"], prob["tolerance"], prob["max_iter"])


class TestEdgeCases:
    def test_epsilon_above_target_range_takes_no_step(self):
        rng = np.random.default_rng(1)
        gram = chi2_gram(rng, 6)
        targets = rng.uniform(-1.0, 1.0, size=(6, 3))
        batch, _ = check_svr(gram, targets, 2.0, 5.0, 1e-3, 1000)
        assert batch.iterations == 0
        assert not batch.a.any()
        assert batch.converged.all()

    def test_two_samples(self):
        rng = np.random.default_rng(2)
        gram = chi2_gram(rng, 2)
        batch, _ = check_svr(gram, rng.normal(size=(2, 3)), 2.0, 0.0, 1e-10, 1000)
        assert batch.converged.all()
        check_svc(gram, np.array([[1.0, -1.0], [-1.0, 1.0]]), 2.0, 1e-10, 1000)

    def test_duplicate_rows(self):
        rng = np.random.default_rng(3)
        gram = chi2_gram(rng, 7, duplicate=True)
        assert np.array_equal(gram[0], gram[-1])
        targets = rng.normal(size=(7, 3))
        targets[-1] = targets[0] + 0.5  # same features, conflicting targets
        check_svr(gram, targets, 2.0, 0.05, 1e-6, 10_000)
        signs = np.array([[1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0]])
        check_svc(gram, np.vstack([signs, -signs]), 2.0, 1e-6, 10_000)

    def test_tiny_c_saturates_the_box(self):
        rng = np.random.default_rng(4)
        gram = chi2_gram(rng, 8)
        batch, _ = check_svr(gram, rng.normal(size=(8, 3)), 1e-9, 0.0, 1e-6, 10_000)
        assert batch.a.max() <= 1e-9

    def test_round_off_coefficients_are_stored_as_zero(self):
        # with C = 1e-6 and a duplicated sample, one class's y * alpha keeps
        # a round-off entry between 1e-12 * C and 1e-12 * max(1, C)
        rng = np.random.default_rng(4)
        gram = chi2_gram(rng, 5, duplicate=True)
        labels = rng.integers(0, 5, size=5)
        signs = np.array([np.where(labels == k, 1.0, -1.0) for k in range(5)])
        batch, _ = check_svc(gram, signs, 1e-6, 1e-12, 3000)
        raw = signs * batch.a
        tiny = (raw != 0.0) & (np.abs(raw) < 1e-12)
        assert tiny.any() and np.all(np.abs(raw[tiny]) > 1e-18)
        assert not batch.coef[tiny].any()

    def test_budget_exhausted_by_one_row_only(self):
        rng = np.random.default_rng(5)
        gram = chi2_gram(rng, 9)
        targets = rng.normal(size=(9, 4))
        free = svr_batch(gram, targets, 2.0, 0.0, 1e-8, 100_000)
        assert free.converged.all()
        counts = np.sort(free.row_iterations)
        assert counts[-1] > counts[-2] + 1
        budget = int(counts[-2]) + 1
        batch, _ = check_svr(gram, targets, 2.0, 0.0, 1e-8, budget)
        assert batch.converged.sum() == 3
        stuck = int(np.argmax(free.row_iterations))
        assert not batch.converged[stuck]
        assert batch.row_iterations[stuck] == budget

    def test_drift_takes_further_refresh_rounds(self):
        # large targets and a tight tolerance: the incrementally updated
        # gradient drifts, and the exact refresh sends rows back to work
        rng = np.random.default_rng(121)
        gram = chi2_gram(rng, 5, gamma=32.0)
        targets = rng.normal(scale=1e4, size=(5, 3))
        _, rounds = check_svr(gram, targets, 1e9, 0.0, 1e-12, 3000)
        assert rounds == [2, 1, 3]

    def test_signs_must_have_the_shape_of_p(self):
        gram = chi2_gram(np.random.default_rng(6), 4)
        p = np.zeros((3, 8))
        for z in (np.ones(8), np.ones((1, 8)), np.ones((3, 4))):
            message = f"z has shape {z.shape}, but p has shape (3, 8)"
            with pytest.raises(ValueError, match=re.escape(message)):
                smo.solve(gram, z, p, 1.0, 1e-3, 10)

    @pytest.mark.parametrize("m", [2, 5, 12, 16])
    def test_only_svc_and_svr_widths_are_solved(self, m):
        # the exact refresh and the coefficient fold know only the SVC
        # (m = n) and SVR (m = 2n) tilings of the Gram matrix
        gram = chi2_gram(np.random.default_rng(7), 4)
        p = np.zeros((2, m))
        message = f"p has {m} columns, but a dual over 4 samples needs 4 or 8"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            smo.solve(gram, np.ones(p.shape), p, 1.0, 1e-3, 10)


class TestTieRules:
    """The step's two tie rules on a fixed problem. When both variables
    reach their bounds in one step, i takes its bound and j the exact
    remainder of the equality constraint; the remainder differs from j's
    bound only after a rounding-level near-tie, which random problems
    almost never reach. The clip keeps a remainder of -0.0 as -0.0."""

    # a rank-4 Gram matrix of four random points, and two SVC-form rows
    gram = np.array([
        [4.252032332177325, -3.2209879768116396, -1.4851991261263475, -4.6292290323417395],
        [-3.2209879768116396, 8.27333215168101, 1.6317375937221743, 5.47926254600873],
        [-1.4851991261263475, 1.6317375937221743, 0.5975658892773276, 1.4451365974288426],
        [-4.6292290323417395, 5.47926254600873, 1.4451365974288426, 9.318895125886076],
    ])
    signs = np.array([[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, -1.0]])
    p = np.array([
        [-0.2841988313528484, 0.8053461398673587, -0.33272522339462285, 0.6797359600738702],
        [-0.68, -2.36, -0.24, 1.34],
    ])
    c = 0.24279925781866474

    def test_matches_reference_on_every_path(self):
        # Row 0, step 9: both variables reach c; j takes the remainder, one
        # ulp below c. It runs out of its 40-step budget. Row 1, step 1:
        # both reach c exactly; step 6: j reaches c and i's remainder is
        # -0.0, which it keeps to the end.
        tolerance, max_iter = 1e-14, 40
        rows = [
            ref.solve(lambda t: self.gram[:, t], np.diag(self.gram), self.signs[k], self.p[k],
                      self.c, tolerance, max_iter, kmatvec=lambda v: self.gram @ v)
            for k in range(2)
        ]
        batches = on_each_path(
            lambda: smo.solve(self.gram, self.signs, self.p, self.c, tolerance, max_iter), 2
        )
        for batch in batches:
            for k, row in enumerate(rows):
                assert_row_matches(batch, k, row, self.signs[k], self.c)
        assert list(batches[0].converged) == [False, True]
        assert same_bits(batches[0].a[1, 0], -0.0)
