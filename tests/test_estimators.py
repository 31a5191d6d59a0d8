from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

import rbls.estimators
import rbls.linalg
import rbls.srht
from rbls.datagen import gen_corrupted
from rbls.diagnostics import exact_leverage, influence
from rbls.errors import InvalidInputError, InvalidParamsError
from rbls.estimators import (
    AIWS_LS,
    ANCHOR_ROWS_PER_COLUMN,
    ANCHOR_STEPS,
    ARWS_LS,
    IWS_LS,
    LEV_LS,
    METHOD_NAMES,
    OLS,
    SRHT_LS,
    ULURU,
    EstimatorConfig,
    _anchor,
    draw,
    fit,
    score,
)
from rbls.linalg import REFINE_MAX_ITER, _cgls, solve_ls
from rbls.sampling import WEIGHT_FLOOR_RATIO, inverse_score_probabilities
from rbls.seeding import ROLE_SAMPLING, ROLE_SKETCH, spawn_rng
from rbls.datagen import RegressionProblem

# Corrupted benchmark shared across the ordering tests: 30% of rows carry
# additive covariate noise, which biases the full least-squares fit.
BENCH = dict(n=20_000, p=50, pi=0.3, sigma_x=1.0, sigma_w=0.4, sigma_eps=0.1)
BENCH_N_SUBS = 8 * BENCH["p"]
BENCH_REPS = 20


@pytest.fixture(scope="module")
def corrupted_benchmark():
    """Median estimation errors of each method over 20 paired replications."""
    errors = {m: [] for m in (OLS, IWS_LS, AIWS_LS, ARWS_LS, ULURU)}
    arws_corrupted_mass = []
    for rep in range(BENCH_REPS):
        prob = gen_corrupted(seed=1000 + rep, **BENCH)
        beta = prob.truth.beta
        mask = prob.truth.corruption_mask
        errors[OLS].append(np.linalg.norm(fit(prob, EstimatorConfig(OLS)).coefficients - beta))
        for method in (IWS_LS, AIWS_LS, ARWS_LS, ULURU):
            cfg = EstimatorConfig(method=method, n_subs=BENCH_N_SUBS, seed=rep)
            result = fit(prob, cfg)
            errors[method].append(np.linalg.norm(result.coefficients - beta))
            if method == ARWS_LS:
                arws_corrupted_mass.append(result.sampling_probabilities[mask].sum())
    medians = {m: float(np.median(v)) for m, v in errors.items()}
    return medians, arws_corrupted_mass


def gaussian_problem(n, p, seed, sigma_eps=0.1):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    Z = rng.standard_normal((n, p))
    y = Z @ beta + rng.standard_normal(n) * sigma_eps
    return Z, y, beta


class TestNonFiniteInputs:
    # y is checked through its sum before anything else; Z through the
    # first product each fit forms from it
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["Z", "y"])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_non_finite_entry_rejected(self, method, array, bad):
        prob = gen_corrupted(512, 8, 0.3, 1.0, 0.4, 0.1, seed=4)
        Z, y = prob.Z.copy(), prob.y.copy()
        (Z if array == "Z" else y).flat[77] = bad
        with pytest.raises(InvalidInputError, match=f"^{array} contains NaN or Inf entries$"):
            fit(RegressionProblem(Z, y), EstimatorConfig(method, n_subs=64, seed=7))

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_finite_entries_whose_gram_overflows_accepted(self, method):
        # entries near 1e160 square past the largest double, so the Gram's
        # diagonal is Inf; the scan then finds Z finite and the solve falls
        # back to Householder QR
        prob = gen_corrupted(512, 8, 0.3, 1.0, 0.4, 0.1, seed=4)
        Z = prob.Z * 1e160
        assert np.abs(Z).max() > np.sqrt(np.finfo(np.float64).max)
        result = fit(RegressionProblem(Z, prob.y), EstimatorConfig(method, n_subs=64, seed=7))
        assert np.all(np.isfinite(result.coefficients))

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_finite_data_whose_gradient_overflows(self, method):
        # Z'r overflows at this scale, in ULURU's correction and in every
        # CGLS step; the fit must still match the unscaled problem's, whose
        # coefficients are 1e306 times larger, and AIWS_LS's anchor must
        # take the same CGLS steps
        prob = gen_corrupted(4096, 8, 0.3, 1.0, 0.4, 0.1, seed=4)
        Z = prob.Z * 1e306
        with np.errstate(over="ignore"):
            assert not np.isfinite(Z.T @ (prob.y - Z @ np.zeros(8))).all()
        cfg = EstimatorConfig(method, n_subs=64, seed=7)
        scaled = fit(RegressionProblem(Z, prob.y), cfg)
        unscaled = fit(prob, cfg)
        np.testing.assert_allclose(
            scaled.coefficients * 1e306, unscaled.coefficients, rtol=1e-12
        )
        if method == AIWS_LS:
            assert scaled.diagnostics.anchor_iterations == unscaled.diagnostics.anchor_iterations

    @pytest.mark.parametrize("method", [IWS_LS, AIWS_LS])
    def test_scores_whose_inverses_overflow_rejected(self, method):
        # at Z and y x 2^-500 the influences underflow and their inverses
        # overflow; a sweep records library errors only, so a bare
        # ValueError from the draw would end it
        prob = gen_corrupted(4096, 8, 0.3, 1.0, 0.4, 0.1, seed=4)
        tiny = RegressionProblem(prob.Z * 2.0**-500, prob.y * 2.0**-500)
        with pytest.raises(InvalidInputError, match="too small to invert"):
            fit(tiny, EstimatorConfig(method, n_subs=64, seed=7))


class TestDispatcher:
    def test_ols_identity_design(self):
        prob = RegressionProblem(np.eye(4), np.array([1.0, -2.0, 0.5, 3.0]))
        result = fit(prob, EstimatorConfig(method=OLS))
        np.testing.assert_allclose(result.coefficients, prob.y, atol=1e-12)
        assert result.wall_time_s is not None and result.wall_time_s >= 0

    @pytest.mark.parametrize("method", [SRHT_LS, LEV_LS, ULURU, IWS_LS, AIWS_LS, ARWS_LS])
    def test_fixed_seed_is_bit_reproducible(self, method):
        Z, y, _ = gaussian_problem(256, 6, seed=0)
        prob = RegressionProblem(Z, y)
        cfg = EstimatorConfig(method=method, n_subs=64, seed=17)
        a, b = fit(prob, cfg), fit(prob, cfg)
        assert np.array_equal(a.coefficients, b.coefficients)
        if a.sampled_row_indices is not None:
            assert np.array_equal(a.sampled_row_indices, b.sampled_row_indices)

    @pytest.mark.parametrize(
        "method, stage", [(AIWS_LS, "_anchor"), (IWS_LS, "compute_diagnostics")]
    )
    def test_fit_shares_no_stage_across_calls(self, monkeypatch, method, stage):
        # a sweep shares a sampler's score stage across the configs of one
        # problem; repeated fit calls on one problem object must each score
        # from scratch, or timing them would time a different program
        calls = []
        original = getattr(rbls.estimators, stage)

        def counted(*args, **kwargs):
            calls.append(stage)
            return original(*args, **kwargs)

        monkeypatch.setattr(rbls.estimators, stage, counted)
        Z, y, _ = gaussian_problem(256, 6, seed=0)
        prob = RegressionProblem(Z, y)
        cfg = EstimatorConfig(method=method, n_subs=64, seed=17)
        first, second = fit(prob, cfg), fit(prob, cfg)
        assert calls == [stage, stage]
        assert np.array_equal(first.coefficients, second.coefficients)

    @pytest.mark.parametrize("method", [LEV_LS, IWS_LS, AIWS_LS, ARWS_LS])
    def test_iws_equals_manual_pipeline(self, method):
        # every sampler draws n_subs rows i.i.d. from its probabilities on
        # the ROLE_SAMPLING stream and refits them by plain least squares
        Z, y, _ = gaussian_problem(100, 5, seed=1)
        cfg = EstimatorConfig(method=method, n_subs=40, seed=11)
        result = fit(RegressionProblem(Z, y), cfg)

        probs = result.sampling_probabilities
        idx = spawn_rng(11, ROLE_SAMPLING).choice(100, 40, p=probs)
        oracle = np.linalg.lstsq(Z[idx], y[idx], rcond=None)[0]
        assert np.array_equal(result.sampled_row_indices, idx)
        np.testing.assert_allclose(result.coefficients, oracle, atol=1e-8)
        if method == IWS_LS:
            sol = solve_ls(Z, y)
            d, _ = influence(sol.residuals, exact_leverage(Z, sol))
            w = 1.0 / np.maximum(d, WEIGHT_FLOOR_RATIO * d.max())
            np.testing.assert_allclose(probs, w / w.sum(), atol=1e-15)

    def test_scipy_gets_only_vector_right_hand_sides(self, monkeypatch):
        # scipy bundles its own OpenBLAS; a 2-d right-hand side wakes that
        # library's thread pool, which then slows numpy's BLAS in later
        # calls.  dtrsv takes vectors only, so every solve with R goes
        # through it and no module binds scipy's solve_triangular.
        import importlib
        import pkgutil

        import scipy.linalg

        import rbls

        modules = [importlib.import_module(f"rbls.{m.name}") for m in pkgutil.iter_modules(rbls.__path__)]
        for module in modules:
            bound = [name for name, v in vars(module).items() if v is scipy.linalg.solve_triangular]
            assert not bound, f"{module.__name__} binds solve_triangular as {bound}"
        modules = [module for module in modules if hasattr(module, "dtrsv")]
        assert rbls.linalg in modules

        def vector_only(solve):
            def shim(a, b, *args, **kwargs):
                assert np.ndim(b) == 1, f"dtrsv got a {np.shape(b)} right-hand side"
                return solve(a, b, *args, **kwargs)

            return shim

        for module in modules:
            monkeypatch.setattr(module, "dtrsv", vector_only(module.dtrsv))
        prob = gen_corrupted(512, 8, 0.3, 1.0, 0.4, 0.1, seed=4)
        for method in METHOD_NAMES:
            result = fit(prob, EstimatorConfig(method=method, n_subs=64, seed=3))
            assert np.all(np.isfinite(result.coefficients))

    def test_full_design_never_scanned_by_a_fit(self, monkeypatch):
        # each fit checks Z's entries through the first product it forms
        # from Z (a Gram diagonal or a sketch), so a fit on finite data makes
        # no elementwise pass over Z: neither as_matrix nor np.isfinite sees
        # an array of Z's size
        import sys

        import rbls.linalg

        passes = []
        check, isfinite = rbls.linalg.as_matrix, np.isfinite

        def recording(scan):
            def shim(A, *args, **kwargs):
                if np.size(A) >= 512 * 8:
                    passes.append((scan.__name__, np.shape(A)))
                return scan(A, *args, **kwargs)

            return shim

        for name, module in list(sys.modules.items()):
            if name.startswith("rbls") and getattr(module, "as_matrix", None) is check:
                monkeypatch.setattr(module, "as_matrix", recording(check))
        monkeypatch.setattr(np, "isfinite", recording(isfinite))
        prob = gen_corrupted(512, 8, 0.3, 1.0, 0.4, 0.1, seed=4)
        for method in METHOD_NAMES:
            passes.clear()
            fit(prob, EstimatorConfig(method=method, n_subs=64, seed=3))
            assert passes == [], (method, passes)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParamsError):
            EstimatorConfig(method="SGD")

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": -2}, {"seed": 2.5}, {"seed": True}, {"seed": None},
         {"n_subs": 400.7}, {"n_subs": 0}, {"n_subs": True}],
        ids=["seed-negative", "seed-float", "seed-bool", "seed-none",
             "n_subs-float", "n_subs-zero", "n_subs-bool"],
    )
    def test_bad_seed_or_n_subs_rejected_when_built(self, kwargs):
        # a float seed or n_subs used to be fit as its integer part
        with pytest.raises(InvalidParamsError):
            EstimatorConfig(**{"method": IWS_LS, "n_subs": 40, **kwargs})

    @pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), 2**64, np.int32(5)])
    def test_integer_seeds_accepted(self, seed):
        assert EstimatorConfig(IWS_LS, np.int64(40), seed).seed == seed

    @pytest.mark.parametrize("method", [SRHT_LS, ULURU])
    def test_n_subs_above_padded_domain_rejected_for_sketches(self, method):
        # a sketch keeps at most next_pow2(n) = 512 rows of n = 500; the
        # bound is an InvalidParamsError like every other n_subs bound
        Z, y, _ = gaussian_problem(500, 4, seed=2)
        with pytest.raises(InvalidParamsError, match="512"):
            fit(RegressionProblem(Z, y), EstimatorConfig(method, n_subs=600))
        fit(RegressionProblem(Z, y), EstimatorConfig(method, n_subs=512))

    def test_missing_n_subs_rejected(self):
        Z, y, _ = gaussian_problem(64, 4, seed=2)
        with pytest.raises(InvalidParamsError):
            fit(RegressionProblem(Z, y), EstimatorConfig(method=SRHT_LS))

    def test_n_subs_below_p_rejected(self):
        Z, y, _ = gaussian_problem(64, 4, seed=2)
        with pytest.raises(InvalidParamsError):
            fit(RegressionProblem(Z, y), EstimatorConfig(method=IWS_LS, n_subs=2))

    def test_n_subs_above_n_rejected_for_row_samplers(self):
        Z, y, _ = gaussian_problem(64, 4, seed=2)
        with pytest.raises(InvalidParamsError):
            fit(RegressionProblem(Z, y), EstimatorConfig(method=LEV_LS, n_subs=100))

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_mismatched_y_length_rejected(self, method):
        Z, y, _ = gaussian_problem(256, 4, seed=2)
        with pytest.raises(InvalidInputError):
            fit(RegressionProblem(Z, y[:-1]), EstimatorConfig(method=method, n_subs=64))


class TestSrhtLs:
    def test_full_sample_operator_recovers_ols(self):
        # keeping all 32 rows of the padded Hadamard domain makes the sketch
        # orthonormal, so the fit equals OLS
        Z, y, _ = gaussian_problem(24, 3, seed=3)
        ols = fit(RegressionProblem(Z, y), EstimatorConfig(OLS)).coefficients
        cfg = EstimatorConfig(method=SRHT_LS, n_subs=32, seed=0)
        sketched = fit(RegressionProblem(Z, y), cfg).coefficients
        np.testing.assert_allclose(sketched, ols, atol=1e-8)

    def test_noiseless_consistent_system_recovered(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((64, 4))
        beta = rng.standard_normal(4)
        y = Z @ beta
        cfg = EstimatorConfig(method=SRHT_LS, n_subs=32, seed=2)
        np.testing.assert_allclose(fit(RegressionProblem(Z, y), cfg).coefficients, beta, atol=1e-8)

    def test_residual_norm_within_bound_of_ols(self):
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            Z = rng.standard_normal((1024, 8))
            beta = rng.standard_normal(8)
            y = Z @ beta + rng.standard_normal(1024) * 0.1
            ols_coef = fit(RegressionProblem(Z, y), EstimatorConfig(OLS)).coefficients
            ols_residual = np.linalg.norm(y - Z @ ols_coef)
            cfg = EstimatorConfig(method=SRHT_LS, n_subs=256, seed=seed)
            sketched = fit(RegressionProblem(Z, y), cfg).coefficients
            ratios.append(np.linalg.norm(y - Z @ sketched) / ols_residual)
        assert max(ratios) <= 1.5


class TestLevLs:
    def test_flat_leverage_design_gives_uniform_probabilities(self):
        from scipy.linalg import hadamard

        # 16 x 8 slice of a Hadamard matrix: orthogonal columns, equal row
        # norms, hence equal leverages
        Z = hadamard(16)[:, :8] / 4.0
        y = np.arange(16.0)
        cfg = EstimatorConfig(method=LEV_LS, n_subs=16, seed=0)
        result = fit(RegressionProblem(Z, y), cfg)
        np.testing.assert_allclose(result.sampling_probabilities, 1 / 16, atol=1e-12)
        draws = np.random.default_rng(0).choice(16, 10_000, p=result.sampling_probabilities)
        assert chisquare(np.bincount(draws, minlength=16)).pvalue > 1e-3

    def test_probabilities_sum_to_one(self):
        Z, y, _ = gaussian_problem(128, 6, seed=5)
        result = fit(RegressionProblem(Z, y), EstimatorConfig(method=LEV_LS, n_subs=32, seed=1))
        assert result.sampling_probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(result.sampling_probabilities >= 0)

    @pytest.mark.parametrize("path", ["cholesky", "householder"])
    def test_probabilities_are_the_normalized_exact_leverages(self, path):
        # the scorer reads R alone; it must be the R that solve_ls returns
        if path == "cholesky":
            Z, y, _ = gaussian_problem(2000, 20, seed=31)
        else:  # singular values log-spaced down to 1e-6: Cholesky is refused
            rng = np.random.default_rng(32)
            U = np.linalg.qr(rng.standard_normal((2000, 20)))[0]
            V = np.linalg.qr(rng.standard_normal((20, 20)))[0]
            Z = (U * np.logspace(0, -6, 20)) @ V.T
            y = U @ rng.standard_normal(20) + 0.01 * rng.standard_normal(2000)
        assert (rbls.linalg._gram_factor(Z)[0] is None) == (path == "householder")
        lev = exact_leverage(Z, solve_ls(Z, y))
        result = fit(RegressionProblem(Z, y), EstimatorConfig(method=LEV_LS, n_subs=100, seed=2))
        assert np.array_equal(result.sampling_probabilities, lev / lev.sum())

    def test_full_draw_tracks_ols(self):
        ratios = []
        for seed in range(20):
            Z, y, beta = gaussian_problem(256, 8, seed=800 + seed)
            prob = RegressionProblem(Z, y)
            ols_err = np.linalg.norm(fit(prob, EstimatorConfig(OLS)).coefficients - beta)
            cfg = EstimatorConfig(method=LEV_LS, n_subs=256, seed=seed)
            lev_err = np.linalg.norm(fit(prob, cfg).coefficients - beta)
            ratios.append(lev_err / ols_err)
        assert np.median(ratios) < 2.0


class TestUluru:
    def test_noiseless_correction_vanishes(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((128, 5))
        beta = rng.standard_normal(5)
        y = Z @ beta
        cfg = EstimatorConfig(method=ULURU, n_subs=32, seed=3)
        np.testing.assert_allclose(fit(RegressionProblem(Z, y), cfg).coefficients, beta, atol=1e-8)

    def test_beats_plain_sketching_at_small_subsamples(self):
        uluru_errs, srht_errs = [], []
        for seed in range(20):
            Z, y, beta = gaussian_problem(8192, 4, seed=900 + seed)
            prob = RegressionProblem(Z, y)
            cfg_u = EstimatorConfig(method=ULURU, n_subs=16, seed=seed)
            cfg_s = EstimatorConfig(method=SRHT_LS, n_subs=16, seed=seed)
            uluru_errs.append(np.linalg.norm(fit(prob, cfg_u).coefficients - beta))
            srht_errs.append(np.linalg.norm(fit(prob, cfg_s).coefficients - beta))
        assert np.median(uluru_errs) <= np.median(srht_errs)

    def test_corrupted_bias_keeps_uluru_at_ols_level(self, corrupted_benchmark):
        medians, _ = corrupted_benchmark
        assert medians[ULURU] >= 0.9 * medians[OLS]


class TestIwsLs:
    def test_equal_influences_give_uniform_sampling(self):
        Z, y, _ = gaussian_problem(60, 4, seed=7)
        cfg = EstimatorConfig(method=IWS_LS, n_subs=20, seed=5)
        probs, fallback = inverse_score_probabilities(np.full(60, 3.14))
        result = draw(Z, y, cfg, probs, fallback, None)
        np.testing.assert_allclose(result.sampling_probabilities, 1 / 60, atol=1e-15)

    def test_gross_outlier_rarely_sampled(self):
        rng = np.random.default_rng(8)
        n, p = 400, 5
        Z = rng.standard_normal((n, p))
        y = Z @ np.ones(p) + rng.standard_normal(n) * 0.1
        y[13] += 50.0
        result = fit(RegressionProblem(Z, y), EstimatorConfig(method=IWS_LS, n_subs=40, seed=0))
        assert result.sampling_probabilities[13] < 1 / (10 * n)

    def test_monotone_harm_ordering(self):
        rng = np.random.default_rng(9)
        n, p = 300, 4
        Z = rng.standard_normal((n, p))
        y = Z @ np.ones(p) + rng.standard_normal(n) * 0.1
        y[7] += 40.0
        sol = solve_ls(Z, y)
        d, _ = influence(sol.residuals, exact_leverage(Z, sol))
        result = fit(RegressionProblem(Z, y), EstimatorConfig(method=IWS_LS, n_subs=30, seed=1))
        p_inverse = result.sampling_probabilities[7]
        p_uniform = 1.0 / n
        p_proportional = (d / d.sum())[7]
        assert p_inverse < p_uniform < p_proportional

    def test_reduction_to_uniform_subsampling(self):
        Z, y, _ = gaussian_problem(80, 4, seed=10)
        cfg = EstimatorConfig(method=IWS_LS, n_subs=25, seed=21)
        probs, fallback = inverse_score_probabilities(np.ones(80))
        result = draw(Z, y, cfg, probs, fallback, None)
        uniform_idx = spawn_rng(21, ROLE_SAMPLING).choice(80, 25, p=np.full(80, 1 / 80))
        assert np.array_equal(result.sampled_row_indices, uniform_idx)

    def test_all_zero_influence_falls_back_to_uniform(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((50, 3))
        cfg = EstimatorConfig(method=IWS_LS, n_subs=10, seed=2)
        result = fit(RegressionProblem(Z, np.zeros(50)), cfg)
        assert result.uniform_fallback
        np.testing.assert_allclose(result.sampling_probabilities, 1 / 50, atol=1e-15)

    def test_beats_ols_under_corruption(self, corrupted_benchmark):
        medians, _ = corrupted_benchmark
        assert medians[IWS_LS] < medians[OLS]


class TestAiwsLs:
    def test_exact_hooks_reduce_to_iws(self):
        Z, y, _ = gaussian_problem(200, 5, seed=12)
        cfg_iws = EstimatorConfig(method=IWS_LS, n_subs=50, seed=33)
        cfg_aiws = EstimatorConfig(method=AIWS_LS, n_subs=50, seed=33)
        iws = fit(RegressionProblem(Z, y), cfg_iws)
        sol = solve_ls(Z, y)
        d, _ = influence(sol.residuals, exact_leverage(Z, sol))
        aiws = draw(Z, y, cfg_aiws, *inverse_score_probabilities(d), None)
        assert np.array_equal(aiws.sampled_row_indices, iws.sampled_row_indices)
        np.testing.assert_allclose(aiws.coefficients, iws.coefficients, atol=1e-10)

    def test_beats_ols_under_corruption(self, corrupted_benchmark):
        medians, _ = corrupted_benchmark
        assert medians[AIWS_LS] < medians[OLS]

    def test_error_tracks_exact_sampler(self, corrupted_benchmark):
        medians, _ = corrupted_benchmark
        assert abs(medians[AIWS_LS] - medians[IWS_LS]) <= 0.25 * medians[IWS_LS]

    @pytest.mark.parametrize("rows", [16, 17, 32, 128])
    def test_refined_anchor_matches_exact_residuals(self, rows):
        # AIWS_LS's residuals: CGLS from the anchor.  p = 16, so a 16-row
        # anchor is the smallest sketch that can hold rank; each CountSketch
        # row sums ~128 gaussian rows, so any seed can
        Z, y, _ = gaussian_problem(2048, 16, seed=1200)
        anchor = _anchor(Z, y, rows, seed=0)
        refined = _cgls(Z, y, anchor.coefficients, anchor.r_factor, 0.0)
        exact = solve_ls(Z, y).residuals
        rel_err = np.linalg.norm(refined.residuals - exact) / np.linalg.norm(exact)
        assert rel_err <= 1e-5
        assert 0 < refined.iterations < REFINE_MAX_ITER

    def test_anchor_preconditions_cgls_in_few_steps(self):
        # refined to REFINE_TOL, a 32p-row CountSketch anchor takes 11-12
        # steps here, an SRHT of n_subs = 128 rows 22-23
        for seed in range(5):
            Z, y, _ = gaussian_problem(8192, 32, seed=seed)
            anchor = _anchor(Z, y, ANCHOR_ROWS_PER_COLUMN * 32, seed)
            assert _cgls(Z, y, anchor.coefficients, anchor.r_factor, 0.0).iterations <= 14

    def test_anchor_refined_by_the_step_budget(self):
        prob = gen_corrupted(seed=1300, **BENCH)
        cfg = EstimatorConfig(method=AIWS_LS, n_subs=BENCH_N_SUBS, seed=5)
        assert fit(prob, cfg).diagnostics.anchor_iterations == ANCHOR_STEPS

    def test_budget_error_tracks_exact_sampler_over_draws(self):
        # the band of test_error_tracks_exact_sampler on other desk problems,
        # 12 problems x 3 draws
        errors = {IWS_LS: [], AIWS_LS: []}
        for k in range(12):
            prob = gen_corrupted(seed=1400 + k, **BENCH)
            for draw_seed in range(10 * k, 10 * k + 3):
                for method in errors:
                    cfg = EstimatorConfig(method=method, n_subs=BENCH_N_SUBS, seed=draw_seed)
                    coef = fit(prob, cfg).coefficients
                    errors[method].append(np.linalg.norm(coef - prob.truth.beta))
        iws, aiws = np.median(errors[IWS_LS]), np.median(errors[AIWS_LS])
        assert abs(aiws - iws) <= 0.25 * iws

    def test_no_harm_on_clean_gaussian_data(self):
        aiws_errs, srht_errs = [], []
        for seed in range(20):
            Z, y, beta = gaussian_problem(2048, 16, seed=1100 + seed)
            prob = RegressionProblem(Z, y)
            cfg_a = EstimatorConfig(method=AIWS_LS, n_subs=128, seed=seed)
            cfg_s = EstimatorConfig(method=SRHT_LS, n_subs=128, seed=seed)
            aiws_errs.append(np.linalg.norm(fit(prob, cfg_a).coefficients - beta))
            srht_errs.append(np.linalg.norm(fit(prob, cfg_s).coefficients - beta))
        assert np.median(aiws_errs) <= 2.0 * np.median(srht_errs)

    def test_diagnostics_report_is_approximate_mode(self):
        Z, y, _ = gaussian_problem(256, 6, seed=13)
        result = fit(RegressionProblem(Z, y), EstimatorConfig(method=AIWS_LS, n_subs=64, seed=4))
        assert result.diagnostics.mode == "approximate"
        assert np.all(result.diagnostics.influences >= 0)


class TestArwsLs:
    def test_equal_scores_give_uniform_probabilities(self):
        probs, fallback = inverse_score_probabilities(np.full(30, 2.5))
        assert not fallback
        np.testing.assert_allclose(probs, 1 / 30, atol=1e-15)

    def test_corrupted_rows_get_less_than_half_pi_mass(self, corrupted_benchmark):
        _, masses = corrupted_benchmark
        assert np.median(masses) < BENCH["pi"] / 2

    def test_beats_ols_under_corruption(self, corrupted_benchmark):
        medians, _ = corrupted_benchmark
        assert medians[ARWS_LS] < medians[OLS]

    def test_probabilities_are_a_distribution(self):
        Z, y, _ = gaussian_problem(512, 8, seed=14)
        result = fit(RegressionProblem(Z, y), EstimatorConfig(method=ARWS_LS, n_subs=64, seed=6))
        probs = result.sampling_probabilities
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(probs >= 0)


def count_sketch_oracle(n, rows, seed):
    """Dense CountSketch from the documented draw: bucket h_i for every
    row, then sign s_i for every row, from the ROLE_SKETCH stream."""
    rng = spawn_rng(seed, ROLE_SKETCH)
    buckets = rng.integers(0, rows, n)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    S = np.zeros((rows, n))
    S[buckets, np.arange(n)] = signs
    return S


ANCHORED = (ARWS_LS, AIWS_LS)


def recorded_systems(monkeypatch, run):
    """The (Z, y) of every solve_ls call in ``estimators`` while run()
    runs, and run()'s result."""
    systems = []

    def recording(Zs, ys):
        systems.append((Zs, ys))
        return solve_ls(Zs, ys)

    monkeypatch.setattr(rbls.estimators, "solve_ls", recording)
    return systems, run()


def anchor_system(monkeypatch, Z, y, cfg):
    """The sketched system the anchor of ARWS_LS or AIWS_LS solved, and the
    probabilities scored from it.  Only the score stage runs, so a draw
    that loses rank cannot hide the anchor."""
    systems, (probs, _, _) = recorded_systems(monkeypatch, lambda: score(Z, y, cfg))
    (anchor,) = systems
    return anchor, probs


class TestArwsPilot:
    """ARWS_LS's pilot is the CountSketch anchor it shares with AIWS_LS."""

    # with p = 8 the anchor's rows come from 32p, n_subs and n in turn
    @pytest.mark.parametrize("method", [ARWS_LS, AIWS_LS])
    @pytest.mark.parametrize("n, n_subs", [(512, 16), (512, 300), (40, 16)])
    def test_pilot_is_a_count_sketch_of_the_data(self, monkeypatch, n, n_subs, method):
        rows = min(n, max(n_subs, ANCHOR_ROWS_PER_COLUMN * 8))
        Z, y, _ = gaussian_problem(n, 8, seed=15)
        cfg = EstimatorConfig(method=method, n_subs=n_subs, seed=7)
        (Zs, ys), _ = anchor_system(monkeypatch, Z, y, cfg)
        oracle = count_sketch_oracle(n, rows, cfg.seed) @ np.column_stack([Z, y])
        assert Zs.shape == (rows, 8)
        np.testing.assert_allclose(Zs, oracle[:, :8], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ys, oracle[:, 8], rtol=0, atol=1e-12)

    def test_pilot_is_deterministic_in_the_seed(self, monkeypatch):
        Z, y, _ = gaussian_problem(512, 8, seed=17)
        cfg = EstimatorConfig(method=ARWS_LS, n_subs=32, seed=9)
        (Zs1, _), probs1 = anchor_system(monkeypatch, Z, y, cfg)
        (Zs2, _), probs2 = anchor_system(monkeypatch, Z, y, cfg)
        (Zs3, _), _ = anchor_system(monkeypatch, Z, y, replace(cfg, seed=10))
        first, second = fit(RegressionProblem(Z, y), cfg), fit(RegressionProblem(Z, y), cfg)
        assert np.array_equal(Zs1, Zs2)
        assert np.array_equal(probs1, probs2)
        assert np.array_equal(first.coefficients, second.coefficients)
        assert np.array_equal(first.sampled_row_indices, second.sampled_row_indices)
        assert not np.array_equal(Zs1, Zs3)

    @pytest.mark.parametrize("method", [ARWS_LS, AIWS_LS])
    def test_fit_solves_the_anchor_then_the_subsample(self, monkeypatch, method):
        Z, y, _ = gaussian_problem(512, 8, seed=16)
        cfg = EstimatorConfig(method=method, n_subs=64, seed=7)
        systems, _ = recorded_systems(monkeypatch, lambda: fit(RegressionProblem(Z, y), cfg))
        assert [Zs.shape for Zs, _ in systems] == [(ANCHOR_ROWS_PER_COLUMN * 8, 8), (64, 8)]

    def test_both_samplers_solve_one_anchor(self, monkeypatch):
        Z, y, _ = gaussian_problem(2048, 8, seed=18)
        systems = [
            anchor_system(monkeypatch, Z, y, EstimatorConfig(method=method, n_subs=64, seed=3))[0]
            for method in ANCHORED
        ]
        (Zs_arws, ys_arws), (Zs_aiws, ys_aiws) = systems
        assert Zs_arws.shape[0] == ANCHOR_ROWS_PER_COLUMN * 8
        assert np.array_equal(Zs_arws, Zs_aiws)
        assert np.array_equal(ys_arws, ys_aiws)

    @pytest.mark.parametrize("method", [ARWS_LS, AIWS_LS])
    def test_anchor_runs_no_srht(self, monkeypatch, method):
        def no_srht(*args):
            raise AssertionError("the anchor must not run an SRHT")

        monkeypatch.setattr(rbls.srht, "apply_sketch_pair", no_srht)
        monkeypatch.setattr(rbls.estimators, "apply_sketch_pair", no_srht)
        Z, y, _ = gaussian_problem(512, 8, seed=19)
        fit(RegressionProblem(Z, y), EstimatorConfig(method=method, n_subs=64, seed=2))
