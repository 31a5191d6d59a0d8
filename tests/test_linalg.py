import numpy as np
import pytest

from rbls.errors import InvalidInputError, RankDeficientError
from rbls.linalg import apply_gram_inverse, refine_ls, solve_ls


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


class TestRefineLs:
    def test_converges_from_a_poor_preconditioner(self):
        # R from a 12-row subset is a weak preconditioner for all 400 rows
        rng = np.random.default_rng(21)
        Z = rng.standard_normal((400, 6))
        y = Z @ rng.standard_normal(6) + rng.standard_normal(400)
        sol = refine_ls(Z, y, solve_ls(Z[:12], y[:12]))
        exact = solve_ls(Z, y)
        np.testing.assert_allclose(sol.coefficients, exact.coefficients, atol=1e-8)
        np.testing.assert_allclose(sol.residuals, y - Z @ sol.coefficients, atol=1e-12)
        assert 0 < sol.iterations

    def test_consistent_system_stops_at_once(self):
        rng = np.random.default_rng(22)
        Z = rng.standard_normal((400, 6))
        y = Z @ rng.standard_normal(6)
        sol = refine_ls(Z, y, solve_ls(Z[:12], y[:12]))
        assert sol.iterations <= 1
        np.testing.assert_allclose(sol.residuals, 0.0, atol=1e-10)

    def test_nan_input_rejected(self):
        Z = np.random.default_rng(23).standard_normal((40, 3))
        sol = solve_ls(Z, np.zeros(40))
        Z[5, 1] = np.nan
        with pytest.raises(InvalidInputError):
            refine_ls(Z, np.zeros(40), sol)
        with pytest.raises(InvalidInputError):
            refine_ls(np.ones((40, 3)), np.full(40, np.inf), sol)


class TestApplyGramInverse:
    def test_scaled_identity(self):
        sol = solve_ls(2.0 * np.eye(2), np.zeros(2))
        np.testing.assert_allclose(
            apply_gram_inverse(sol, np.array([1.0, 0.0])), [0.25, 0.0], atol=1e-14
        )

    def test_identity_design_is_noop(self):
        sol = solve_ls(np.eye(3), np.zeros(3))
        v = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(apply_gram_inverse(sol, v), v, atol=1e-14)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((30, 4))
        sol = solve_ls(Z, rng.standard_normal(30))
        e1 = np.zeros(4)
        e1[0] = 1.0
        oracle = np.linalg.inv(Z.T @ Z) @ e1
        np.testing.assert_allclose(apply_gram_inverse(sol, e1), oracle, atol=1e-10)
