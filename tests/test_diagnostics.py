import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from rbls.datagen import RegressionProblem, gen_corrupted
from rbls.diagnostics import (
    _leverage,
    _sign_projection,
    compute_diagnostics,
    exact_leverage,
    histogram_l1_distance,
    influence,
    loo_coefficients,
)
from rbls.errors import (
    DegenerateRangeError,
    InvalidInputError,
    LeverageOneError,
    RankDeficientError,
)
from rbls.estimators import AIWS_LS, EstimatorConfig, fit
from rbls.linalg import solve_ls
from rbls.seeding import ROLE_SKETCH, spawn_seed
from rbls.srht import apply_sketch, build_sketch


def hat_diagonal_oracle(Z):
    return np.diag(Z @ np.linalg.inv(Z.T @ Z) @ Z.T)


def refit_without_row(Z, y, i):
    keep = np.arange(Z.shape[0]) != i
    return np.linalg.lstsq(Z[keep], y[keep], rcond=None)[0]


class TestExactLeverage:
    def test_identity_design(self):
        Z = np.eye(3)
        lev = exact_leverage(Z, solve_ls(Z, np.zeros(3)))
        np.testing.assert_allclose(lev, 1.0, atol=1e-12)

    def test_trace_identity_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        lev = exact_leverage(Q, solve_ls(Q, rng.standard_normal(4)))
        assert lev.sum() == pytest.approx(2.0, abs=1e-10)

    def test_matches_explicit_hat_matrix(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((40, 6))
        lev = exact_leverage(Z, solve_ls(Z, rng.standard_normal(40)))
        np.testing.assert_allclose(lev, hat_diagonal_oracle(Z), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_and_range_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(20, 80), rng.integers(2, 8)
        Z = rng.standard_normal((n, p))
        lev = exact_leverage(Z, solve_ls(Z, rng.standard_normal(n)))
        assert lev.sum() == pytest.approx(p, abs=1e-8 * p)
        assert np.all(lev >= -1e-12) and np.all(lev <= 1 + 1e-12)

    def test_invariant_under_right_multiplication(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((30, 4))
        B = rng.standard_normal((4, 4)) + 4 * np.eye(4)  # comfortably invertible
        y = rng.standard_normal(30)
        lev = exact_leverage(Z, solve_ls(Z, y))
        lev_b = exact_leverage(Z @ B, solve_ls(Z @ B, y))
        np.testing.assert_allclose(lev, lev_b, atol=1e-10)

    def test_badly_scaled_columns(self):
        # Z R^{-1}, with R^{-1} from one LAPACK solve against the identity,
        # stays exact when the column scales span six decades
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((60, 5)) * np.logspace(0, 6, 5)
        lev = exact_leverage(Z, solve_ls(Z, rng.standard_normal(60)))
        np.testing.assert_allclose(lev, hat_diagonal_oracle(Z), atol=1e-10)
        assert lev.sum() == pytest.approx(5.0, abs=1e-10)

    def test_peak_memory_is_a_fraction_of_the_data(self):
        # Z R^{-1} is formed in row tiles, never as a whole n x p array
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((20000, 50))
        sol = solve_ls(Z, rng.standard_normal(20000))
        tracemalloc.start()
        try:
            lev = exact_leverage(Z, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two 1 MB tiles and the result read 0.29; the whole product read 1.02
        assert peak <= 0.5 * Z.nbytes
        assert lev.sum() == pytest.approx(50.0, abs=1e-8)


class TestInfluence:
    def test_zero_residual_gives_zero(self):
        d, _ = influence(np.array([0.0]), np.array([0.5]))
        assert d[0] == 0.0

    def test_direct_arithmetic(self):
        d, _ = influence(np.array([2.0]), np.array([0.5]))
        assert d[0] == pytest.approx(8.0)

    @pytest.mark.parametrize("arg, name", [(0, "residuals"), (1, "leverages")])
    def test_non_finite_input_named(self, arg, name):
        args = [np.array([1.0, 2.0]), np.array([0.3, 0.4])]
        args[arg][1] = np.inf
        with pytest.raises(InvalidInputError, match=f"^{name} contains NaN or Inf entries$"):
            influence(*args)

    def test_clamp_counted(self):
        d, n_clamped = influence(np.array([1.0, 1.0]), np.array([1.0, 0.3]))
        assert n_clamped == 1
        assert np.isfinite(d).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_quadratic_form_definition(self, seed):
        rng = np.random.default_rng(10 + seed)
        Z = rng.standard_normal((35, 4))
        y = rng.standard_normal(35)
        sol = solve_ls(Z, y)
        lev = exact_leverage(Z, sol)
        d, _ = influence(sol.residuals, lev)
        gram = Z.T @ Z
        for i in range(Z.shape[0]):
            delta = sol.coefficients - refit_without_row(Z, y, i)
            oracle = delta @ gram @ delta
            assert d[i] == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        d, _ = influence(rng.standard_normal(50), rng.random(50) * 0.9)
        assert np.all(d >= 0)


class TestLooCoefficients:
    def test_consistent_system_row_removal_is_noop(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((5, 4))
        beta = rng.standard_normal(4)
        y = Z @ beta  # zero residual everywhere
        sol = solve_ls(Z, y)
        np.testing.assert_allclose(
            loo_coefficients(Z, y, sol, 2), sol.coefficients, atol=1e-10
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_refit_oracle_every_row(self, seed):
        rng = np.random.default_rng(20 + seed)
        Z = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        sol = solve_ls(Z, y)
        for i in range(30):
            got = loo_coefficients(Z, y, sol, i)
            oracle = refit_without_row(Z, y, i)
            assert np.linalg.norm(got - oracle) <= 1e-9 * (1 + np.linalg.norm(oracle))

    def test_duplicated_row_matches_refit(self):
        # with a twin present the removed row's leverage stays below 1 and
        # the rank-one downdate matches the true refit
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((12, 3))
        Z[11] = Z[0]
        y = rng.standard_normal(12)
        y[11] = y[0]
        sol = solve_ls(Z, y)
        for i in (0, 11):
            np.testing.assert_allclose(
                loo_coefficients(Z, y, sol, i), refit_without_row(Z, y, i), atol=1e-9
            )

    def test_non_finite_factor_rejected(self):
        # the downdate's triangular solves (dtrsv) check nothing themselves
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        sol = solve_ls(Z, y)
        R = sol.r_factor.copy()
        R[1, 1] = np.nan
        with pytest.raises(InvalidInputError, match="r_factor contains NaN or Inf"):
            loo_coefficients(Z, y, replace(sol, r_factor=R), 4)

    def test_self_determining_row_raises(self):
        # row 0 alone carries the first coordinate, so its leverage is 1
        Z = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        sol = solve_ls(Z, y)
        with pytest.raises(LeverageOneError):
            loo_coefficients(Z, y, sol, 0)


class TestApproxLeverage:
    def test_exact_when_both_projections_hooked(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((24, 4)))
        sol = solve_ls(Q, rng.standard_normal(24))
        lev = exact_leverage(Q, sol)
        # exact and approximate leverage share one kernel: with the identity
        # as its projection it reads exact leverage
        np.testing.assert_array_equal(_leverage(Q, sol.r_factor, np.eye(4)), lev)

    def test_r_basis_matches_sketched_svd_basis(self):
        # Z R^{-1} equals Z V Sigma^{-1} up to a p x p rotation, so the row
        # norms agree
        rng = np.random.default_rng(9)
        n, p, rows, seed = 512, 6, 64, 4
        Z = rng.standard_normal((n, p)) * np.array([1.0, 10.0, 0.1, 3.0, 1.0, 100.0])
        sketch = apply_sketch(build_sketch(n, rows, spawn_seed(seed, ROLE_SKETCH)), Z)
        _, sigma, vt = np.linalg.svd(sketch, full_matrices=False)
        svd_basis = Z @ (vt.T / sigma)
        r_factor = np.linalg.qr(sketch, mode="r")
        approx = _leverage(Z, r_factor, np.eye(p))
        np.testing.assert_allclose(
            approx, np.einsum("ij,ij->i", svd_basis, svd_basis), atol=1e-10
        )

    def test_identity_design_sum_preserved_on_average(self):
        # Z R^{-1} is orthonormal here, so the sum is ||Pi2||_F^2: this
        # checks the scale of the sign projection
        Z = np.eye(4)
        R = solve_ls(Z, np.zeros(4)).r_factor
        total = sum(_leverage(Z, R, _sign_projection(4, 2, seed)).sum() for seed in range(300))
        assert abs(total / 300 - 4.0) <= 1.0  # within 25%

    def test_rank_correlation_with_exact(self):
        cors = []
        for seed in range(20):
            rng = np.random.default_rng(600 + seed)
            Z = rng.standard_normal((1024, 16))
            y = rng.standard_normal(1024)
            lev = exact_leverage(Z, solve_ls(Z, y))
            cfg = EstimatorConfig(method=AIWS_LS, n_subs=256, seed=seed)
            approx = fit(RegressionProblem(Z, y), cfg).diagnostics.leverages
            cors.append(spearmanr(lev, approx).statistic)
        assert np.mean(cors) >= 0.5

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        Z, y = rng.standard_normal((128, 8)), rng.standard_normal(128)
        cfg = EstimatorConfig(method=AIWS_LS, n_subs=64, seed=1)
        assert np.all(fit(RegressionProblem(Z, y), cfg).diagnostics.leverages >= 0)

    def test_rank_deficient_sketch_detected(self):
        # duplicated column makes every sketch of Z singular, the anchor's too
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((64, 4))
        Z[:, 3] = Z[:, 0]
        cfg = EstimatorConfig(method=AIWS_LS, n_subs=32, seed=3)
        with pytest.raises(RankDeficientError):
            fit(RegressionProblem(Z, rng.standard_normal(64)), cfg)


class TestApproxInfluence:
    # the influence formula and clamp applied to sketched residuals and
    # leverages, which may exceed 1
    def test_zero_residual(self):
        d, _ = influence(np.array([0.0]), np.array([0.4]))
        assert d[0] == 0.0

    def test_arithmetic(self):
        d, _ = influence(np.array([1.0]), np.array([0.1]))
        assert d[0] == pytest.approx(0.1 / 0.81)
        assert d[0] == pytest.approx(0.12346, abs=5e-6)

    def test_leverage_above_one_clamped(self):
        d, n_clamped = influence(np.array([1.0]), np.array([1.3]))
        assert n_clamped == 1
        assert np.isfinite(d[0])

    def test_corrupted_rows_carry_more_influence(self):
        # ordering agrees with the exact diagnostics on a corrupted draw
        prob = gen_corrupted(4096, 16, pi=0.3, sigma_x=1.0, sigma_w=0.4,
                             sigma_eps=0.1, seed=123)
        mask = prob.truth.corruption_mask
        sol = solve_ls(prob.Z, prob.y)
        exact_d, _ = influence(sol.residuals, exact_leverage(prob.Z, sol))
        assert exact_d[mask].mean() > exact_d[~mask].mean()

        cfg = EstimatorConfig(method=AIWS_LS, n_subs=256, seed=9)
        approx_d = fit(prob, cfg).diagnostics.influences
        assert approx_d[mask].mean() > approx_d[~mask].mean()


class TestHistogramL1Distance:
    def test_identical_samples(self):
        v = np.arange(10.0)
        assert histogram_l1_distance(v, v) == 0.0

    def test_disjoint_supports(self):
        a = np.linspace(0, 1, 50)
        b = np.linspace(5, 6, 50)
        assert histogram_l1_distance(a, b) == pytest.approx(2.0)

    def test_separated_gaussians(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000) + 3.0
        # analytic L1 between the densities is 2(1 - 2 Phi(-1.5)) ~= 1.73
        assert 1.7 <= histogram_l1_distance(a, b, bins=50) <= 2.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 60))
    def test_symmetric_and_bounded(self, seed, bins):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(rng.integers(2, 40))
        b = rng.standard_normal(rng.integers(2, 40)) * rng.uniform(0.1, 3.0)
        if min(a.min(), b.min()) == max(a.max(), b.max()):
            return
        d_ab = histogram_l1_distance(a, b, bins)
        d_ba = histogram_l1_distance(b, a, bins)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert 0.0 <= d_ab <= 2.0

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRangeError):
            histogram_l1_distance(np.ones(5), np.ones(3))


class TestInputChecks:
    # the fits check Z through their first Gram matrix; these public
    # functions keep their own checks
    def test_nan_design_rejected(self):
        Z = np.random.default_rng(30).standard_normal((40, 3))
        sol = solve_ls(Z, np.zeros(40))
        Z[7, 2] = np.nan
        with pytest.raises(InvalidInputError):
            exact_leverage(Z, sol)
        with pytest.raises(InvalidInputError):
            compute_diagnostics(Z, np.zeros(40))

    @pytest.mark.parametrize("cols", [3, 5])
    def test_r_factor_of_another_width_rejected(self, cols):
        # a solution of a narrower or wider design: exact_leverage and
        # loo_coefficients reject its R by the same shape check
        rng = np.random.default_rng(31)
        sol = solve_ls(rng.standard_normal((40, cols)), rng.standard_normal(40))
        Z = rng.standard_normal((40, 4))
        with pytest.raises(InvalidInputError, match="r_factor has shape"):
            exact_leverage(Z, sol)
        with pytest.raises(InvalidInputError, match="r_factor has shape"):
            loo_coefficients(Z, np.zeros(40), sol, 0)

    def test_zero_diagonal_r_factor_rejected(self):
        rng = np.random.default_rng(33)
        Z, y = rng.standard_normal((40, 4)), rng.standard_normal(40)
        sol = solve_ls(Z, y)
        R = sol.r_factor.copy()
        R[2, 2] = 0.0
        with pytest.raises(RankDeficientError):
            exact_leverage(Z, replace(sol, r_factor=R))
        with pytest.raises(RankDeficientError):
            loo_coefficients(Z, y, replace(sol, r_factor=R), 0)

    def test_compute_diagnostics_checks_shapes(self):
        with pytest.raises(InvalidInputError):
            compute_diagnostics(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(InvalidInputError):
            compute_diagnostics(np.ones((5, 2)), np.zeros(4))


class TestComputeDiagnostics:
    def test_exact_mode_invariants(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((60, 5))
        y = rng.standard_normal(60)
        report = compute_diagnostics(Z, y)
        assert report.mode == "exact"
        assert report.leverages.sum() == pytest.approx(5, abs=1e-8 * 5)
        assert np.all(report.leverages >= -1e-12)
        assert np.all(report.leverages <= 1 + 1e-12)
        assert np.all(report.influences >= 0)
        assert report.leverage_clamp_count == 0
