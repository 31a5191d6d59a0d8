import tracemalloc

import numpy as np
import pytest

import rbls.linalg
from rbls.datagen import gen_corrupted
from rbls.diagnostics import exact_leverage
from rbls.errors import InvalidInputError, RankDeficientError
from rbls.linalg import _cgls, solve_ls


def normal_equations_oracle(Z, y):
    # independent route: explicit Gram inverse
    return np.linalg.solve(Z.T @ Z, Z.T @ y)


class TestSolveLs:
    def test_identity_design(self):
        sol = solve_ls(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(sol.coefficients, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(sol.residuals, 0.0, atol=1e-14)

    def test_column_of_ones_fits_mean(self):
        sol = solve_ls(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(sol.coefficients, [2.0])
        np.testing.assert_allclose(sol.residuals, [-1.0, 0.0, 1.0], atol=1e-14)

    def test_noiseless_recovery_matches_normal_equations(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((50, 5))
        beta = np.ones(5)
        y = Z @ beta
        sol = solve_ls(Z, y)
        np.testing.assert_allclose(sol.coefficients, beta, atol=1e-10)
        np.testing.assert_allclose(
            sol.coefficients, normal_equations_oracle(Z, y), atol=1e-10
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_normal_equations_on_noisy_data(self, seed):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((80, 6))
        y = rng.standard_normal(80)
        sol = solve_ls(Z, y)
        oracle = normal_equations_oracle(Z, y)
        assert np.linalg.norm(sol.coefficients - oracle) <= 1e-8 * (
            1 + np.linalg.norm(oracle)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_normal_equations_residual_invariant(self, seed):
        rng = np.random.default_rng(100 + seed)
        Z = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        sol = solve_ls(Z, y)
        assert np.linalg.norm(Z.T @ sol.residuals) <= 1e-8 * (
            1 + np.linalg.norm(Z.T @ y)
        )

    def test_layout_of_z_does_not_change_the_factor(self):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((500, 7))
        y = rng.standard_normal(500)
        Z_f = np.asfortranarray(Z)
        Z_before, y_before = Z.copy(), y.copy()
        sol_c, sol_f = solve_ls(Z, y), solve_ls(Z_f, y)
        assert np.array_equal(sol_c.coefficients, sol_f.coefficients)
        assert np.array_equal(sol_c.r_factor, sol_f.r_factor)
        assert np.array_equal(Z, Z_before) and np.array_equal(Z_f, Z_before)
        assert np.array_equal(y, y_before)

    def test_residuals_recomputable(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        sol = solve_ls(Z, y)
        np.testing.assert_allclose(
            sol.residuals, y - Z @ sol.coefficients, rtol=1e-10, atol=1e-12
        )

    def test_collinear_design_raises(self):
        Z = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(RankDeficientError):
            solve_ls(Z, np.zeros(10))

    def test_nan_input_rejected(self):
        Z = np.ones((4, 2))
        Z[1, 0] = np.nan
        with pytest.raises(InvalidInputError):
            solve_ls(Z, np.zeros(4))
        with pytest.raises(InvalidInputError):
            solve_ls(np.ones((4, 2)), np.array([0.0, np.inf, 0.0, 0.0]))

    def test_underdetermined_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_ls(np.ones((2, 3)), np.zeros(2))


def no_householder(Z, y):
    raise AssertionError("fell back to Householder QR")


def graded_design(cond, seed):
    """2000 x 20 design with singular values log-spaced from 1 to 1/cond.

    y = U c + noise excites every singular direction alike, so b grows as
    1/s and a backward-stable solve fixes it to near machine precision;
    with an O(1) b instead, cond 1e8 leaves about cond eps = 1e-8 between
    any two backward-stable solvers.  Returns Z, y and the true hat
    diagonal (squared row norms of U).
    """
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((2000, 20)))[0]
    V = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    Z = (U * np.logspace(0, -np.log10(cond), 20)) @ V.T
    y = U @ rng.standard_normal(20) + 0.01 * rng.standard_normal(2000)
    return Z, y, np.einsum("ij,ij->i", U, U)


class TestCholeskySolve:
    def test_householder_fallback_returns_the_cholesky_factor(self):
        # QR's R is Z'Z's Cholesky factor up to the signs of its rows; the
        # fallback sets them so that both paths give one R
        prob = gen_corrupted(2000, 20, 0.3, 1.0, 0.4, 0.1, seed=3)
        Z = np.ascontiguousarray(prob.Z)
        R = rbls.linalg._householder_ls(Z, prob.y).r_factor
        chol, _ = rbls.linalg._gram_factor(Z)
        assert np.all(np.diag(R) > 0)
        assert np.max(np.abs(R - chol)) <= 1e-12 * np.max(np.abs(chol))

    def test_exactly_rank_deficient_designs_raise(self):
        # Cholesky of an exactly singular Gram matrix often succeeds with a
        # tiny pivot; those designs must still reach the Householder check
        for seed in range(200):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((15, 16))
            Z = np.vstack([X, X[rng.integers(15)]])
            with pytest.raises(RankDeficientError):
                solve_ls(Z, rng.standard_normal(16))

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
    def test_graded_designs_match_lstsq(self, cond):
        for seed in range(5):
            Z, y, hat = graded_design(cond, seed)
            sol = solve_ls(Z, y)
            oracle = np.linalg.lstsq(Z, y, rcond=None)[0]
            rel = np.linalg.norm(sol.coefficients - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8
            np.testing.assert_allclose(exact_leverage(Z, sol), hat, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("cond", [1e2, 1e4])
    def test_well_conditioned_designs_take_the_cholesky_path(self, cond, monkeypatch):
        monkeypatch.setattr(rbls.linalg, "_householder_ls", no_householder)
        for seed in range(5):
            Z, y, _ = graded_design(cond, seed)
            sol = solve_ls(Z, y)
            oracle = np.linalg.lstsq(Z, y, rcond=None)[0]
            assert np.linalg.norm(sol.coefficients - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("case", ["graded", "desk"])
    def test_a_start_that_meets_the_tolerance_takes_no_step(self, case):
        if case == "graded":
            problems = [graded_design(1e2, seed)[:2] for seed in range(5)]
        else:
            prob = gen_corrupted(20000, 50, pi=0.3, sigma_x=1.0, sigma_w=0.4,
                                 sigma_eps=0.1, seed=100)
            problems = [(prob.Z, prob.y)]
        for Z, y in problems:
            sol = solve_ls(Z, y)
            assert sol.iterations == 0
            assert np.array_equal(sol.residuals, y - Z @ sol.coefficients)
            oracle = np.linalg.lstsq(Z, y, rcond=None)[0]
            assert np.linalg.norm(sol.coefficients - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_a_start_that_misses_the_tolerance_is_refined(self, monkeypatch):
        # at cond 1e4 the start's ||A'r|| / (||A|| ||r||) is above REFINE_TOL,
        # so the exit is the stop rule after a step, not the start test
        monkeypatch.setattr(rbls.linalg, "_householder_ls", no_householder)
        for seed in range(5):
            Z, y, _ = graded_design(1e4, seed)
            R, _ = rbls.linalg._gram_factor(Z)
            start = np.linalg.solve(R, np.linalg.solve(R.T, Z.T @ y))
            r = y - Z @ start
            A = Z @ np.linalg.inv(R)
            ratio = np.linalg.norm(A.T @ r) / (np.linalg.norm(A, 2) * np.linalg.norm(r))
            assert ratio > rbls.linalg.REFINE_TOL
            assert 1 <= solve_ls(Z, y).iterations < rbls.linalg.REFINE_MAX_ITER

    @pytest.mark.parametrize("p, c", [(50, 0.4), (40, 0.4), (50, 0.3)])
    def test_kahan_designs_match_lstsq_and_the_hat_diagonal(self, p, c):
        # Z = Q K with K the Kahan matrix: cond 3.5e9, 4.4e7 and 1.2e7, yet
        # the Cholesky of Z'Z (when it succeeds) has pivots within 0.01 of
        # each other, so only a condition estimate sends them to Householder
        rng = np.random.default_rng(25)
        Q = np.linalg.qr(rng.standard_normal((2000, p)))[0]
        s = np.sqrt(1 - c * c)
        K = s ** np.arange(p)[:, None] * (np.eye(p) - c * np.triu(np.ones((p, p)), 1))
        Z = Q @ K
        y = Q @ rng.standard_normal(p) + 0.01 * rng.standard_normal(2000)
        sol = solve_ls(Z, y)
        oracle = np.linalg.lstsq(Z, y, rcond=None)[0]
        rel = np.linalg.norm(sol.coefficients - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-8
        hat = np.einsum("ij,ij->i", Q, Q)
        np.testing.assert_allclose(exact_leverage(Z, sol), hat, rtol=0, atol=1e-8)

    def test_refinement_that_does_not_stop_falls_back(self, monkeypatch):
        # with the condition test off, the Cholesky R of most cond 1e8
        # designs is too poor a preconditioner for CGLS to stop, and the
        # coefficients it reaches at the cap are off by up to 1e66
        monkeypatch.setattr(rbls.linalg, "CHOLESKY_MAX_COND", np.inf)
        for seed in range(10):
            Z, y, _ = graded_design(1e8, seed)
            sol = solve_ls(Z, y)
            assert sol.iterations < rbls.linalg.REFINE_MAX_ITER
            oracle = np.linalg.lstsq(Z, y, rcond=None)[0]
            rel = np.linalg.norm(sol.coefficients - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8

    def test_peak_memory_is_a_fraction_of_the_data(self):
        # the Householder QR of [Z | y] held three n x (p + 1) copies (2.0x)
        rng = np.random.default_rng(24)
        Z = rng.standard_normal((20000, 50))
        y = rng.standard_normal(20000)
        solve_ls(Z, y)
        tracemalloc.start()
        try:
            solve_ls(Z, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * (Z.nbytes + y.nbytes)


class TestRefineLs:
    # CGLS refinement of a subset's solution, preconditioned by its R
    def test_converges_from_a_poor_preconditioner(self):
        # R from a 12-row subset is a weak preconditioner for all 400 rows
        rng = np.random.default_rng(21)
        Z = rng.standard_normal((400, 6))
        y = Z @ rng.standard_normal(6) + rng.standard_normal(400)
        start = solve_ls(Z[:12], y[:12])
        sol = _cgls(Z, y, start.coefficients, start.r_factor, 0.0)
        exact = solve_ls(Z, y)
        np.testing.assert_allclose(sol.coefficients, exact.coefficients, atol=1e-8)
        np.testing.assert_allclose(sol.residuals, y - Z @ sol.coefficients, atol=1e-12)
        assert 0 < sol.iterations

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_budget_computes_no_gradient_after_its_last_step(self, monkeypatch, budget):
        # the start's gradient and one after each step but the last: a
        # gradient after the last step would go unread (6 steps converge)
        rng = np.random.default_rng(21)
        Z = rng.standard_normal((400, 6))
        y = Z @ rng.standard_normal(6) + rng.standard_normal(400)
        start = solve_ls(Z[:12], y[:12])
        calls, gradient = [], rbls.linalg._gradient
        monkeypatch.setattr(rbls.linalg, "_gradient", lambda *a: calls.append(a) or gradient(*a))
        sol = _cgls(Z, y, start.coefficients, start.r_factor, 0.0, budget)
        assert sol.iterations == budget and len(calls) == budget
        np.testing.assert_allclose(sol.residuals, y - Z @ sol.coefficients, atol=1e-12)

    def test_consistent_system_stops_at_once(self):
        rng = np.random.default_rng(22)
        Z = rng.standard_normal((400, 6))
        y = Z @ rng.standard_normal(6)
        start = solve_ls(Z[:12], y[:12])
        sol = _cgls(Z, y, start.coefficients, start.r_factor, 0.0)
        assert sol.iterations <= 1
        np.testing.assert_allclose(sol.residuals, 0.0, atol=1e-10)


class TestFiniteScan:
    def test_peak_memory_is_a_sliver_of_the_data(self):
        # np.isfinite(Z) held an n x p boolean array, an eighth of Z
        Z = np.random.default_rng(25).standard_normal((20000, 50))
        tracemalloc.start()
        try:
            rbls.linalg.as_matrix(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * Z.nbytes

    def test_overflowing_sum_of_finite_entries_accepted(self):
        A = np.full((4, 2), 1e308)
        np.testing.assert_array_equal(rbls.linalg.as_matrix(A), A)
        np.testing.assert_array_equal(rbls.linalg.as_vector(A[:, 0]), A[:, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        A = np.ones((6, 3))
        A[4, 1] = bad
        with pytest.raises(InvalidInputError):
            rbls.linalg.as_matrix(A)
        with pytest.raises(InvalidInputError):
            rbls.linalg.as_vector(A[:, 1])
