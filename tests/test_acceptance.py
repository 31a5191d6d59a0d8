"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a PASS/FAIL line (visible under ``pytest -s``) and then
asserts, so a red criterion is localized to its own test.
"""

import time

import numpy as np
import pytest
from scipy.linalg import hadamard

from rbls.datagen import RegressionProblem, gen_corrupted, load_airline_csv
from rbls.diagnostics import (
    compute_diagnostics,
    exact_leverage,
    histogram_l1_distance,
    influence,
    loo_coefficients,
)
from rbls.estimators import (
    AIWS_LS,
    ARWS_LS,
    IWS_LS,
    LEV_LS,
    OLS,
    SRHT_LS,
    ULURU,
    EstimatorConfig,
    fit,
)
from rbls.harness import ExperimentConfig, run_experiment, write_results_csv
from rbls.linalg import solve_ls
from rbls.srht import apply_sketch, build_sketch, fwht_inplace


def report(number, description, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    return ok


def median_errors(results, methods):
    return {
        m: float(np.median([r.est_error for r in results if r.method == m and not r.error]))
        for m in methods
    }


def test_criterion_1_diagnostics_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(30, 201))
        p = int(rng.integers(2, 11))
        Z = rng.standard_normal((n, p))
        y = Z @ rng.standard_normal(p) + rng.standard_normal(n) * rng.uniform(0.05, 1.0)
        sol = solve_ls(Z, y)
        lev = exact_leverage(Z, sol)
        assert abs(lev.sum() - p) <= 1e-8 * p
        d, _ = influence(sol.residuals, lev)
        gram = Z.T @ Z
        for i in range(n):
            if lev[i] >= 0.999:
                continue
            refit = np.linalg.lstsq(np.delete(Z, i, 0), np.delete(y, i), rcond=None)[0]
            loo = loo_coefficients(Z, y, sol, i)
            assert np.linalg.norm(loo - refit) <= 1e-8 * (1 + np.linalg.norm(refit))
            delta = sol.coefficients - refit
            quad = delta @ gram @ delta
            assert abs(d[i] - quad) <= 1e-8 * (1 + quad)
    elapsed = time.perf_counter() - t0
    assert report(1, f"leverage/LOO/influence oracles on 50 instances ({elapsed:.1f}s)",
                  elapsed < 10.0)


def test_criterion_2_srht_correctness():
    rng = np.random.default_rng(7)
    for log_n in range(1, 11):  # n' in {2, ..., 1024}
        n = 2**log_n
        v = rng.standard_normal(n)
        oracle = hadamard(n) @ v / np.sqrt(n)
        assert np.max(np.abs(fwht_inplace(v.copy()) - oracle)) <= 1e-12
        twice = fwht_inplace(fwht_inplace(v.copy()))
        assert np.max(np.abs(twice - v)) <= 1e-12
    x = rng.standard_normal(128)
    norm2 = np.linalg.norm(x) ** 2
    ratios = [
        np.linalg.norm(apply_sketch(build_sketch(128, 32, seed=s), x)) ** 2 / norm2
        for s in range(1000)
    ]
    mean_ratio = float(np.mean(ratios))
    assert report(2, f"FWHT oracle + involution + isometry (E ratio {mean_ratio:.4f})",
                  0.95 <= mean_ratio <= 1.05)


def test_criterion_3_sketched_residual_bound():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        Z = rng.standard_normal((4096, 16))
        y = Z @ rng.standard_normal(16) + rng.standard_normal(4096) * 0.1
        ols_coef = fit(RegressionProblem(Z, y), EstimatorConfig(OLS)).coefficients
        cfg = EstimatorConfig(method=SRHT_LS, n_subs=1024, seed=seed)
        sketched = fit(RegressionProblem(Z, y), cfg).coefficients
        ratio = np.linalg.norm(y - Z @ sketched) / np.linalg.norm(y - Z @ ols_coef)
        hits += ratio <= 1.5
    elapsed = time.perf_counter() - t0
    assert report(3, f"||e_sketch|| <= 1.5 ||e_ols|| in {hits}/20 seeds ({elapsed:.1f}s)",
                  hits >= 18 and elapsed < 30.0)


def test_criterion_4_influence_separates_corruption_by_factor_three():
    wins, ratios = 0, []
    for seed in range(20):
        prob = gen_corrupted(20_000, 50, pi=0.3, sigma_x=1.0, sigma_w=0.4,
                             sigma_eps=0.1, seed=4000 + seed)
        mask = prob.truth.corruption_mask
        rep = compute_diagnostics(prob.Z, prob.y)
        d_inf = histogram_l1_distance(rep.influences[mask], rep.influences[~mask])
        d_lev = histogram_l1_distance(rep.leverages[mask], rep.leverages[~mask])
        ratios.append(d_inf / d_lev)
        wins += d_inf >= 3.0 * d_lev
    # the data model caps this ratio near 2.6, and the equal-width bins
    # bring it to about 1.9.  The corrupted and clean classes are 1.51 apart
    # in influence and 0.57-0.60 apart in leverage (L1 distance measured as
    # 2 * KS, or with 50-200 quantile bins), and 1.51 / 0.59 is about 2.6.
    # The influence overlap is inherent: residual sd is 2.55 on corrupted
    # rows and 0.33 on clean rows, and two centred normals with those
    # spreads are at L1 distance 1.50.  The leverage separation is real:
    # corrupted rows carry 1.16x the squared row norm, and chi^2_50 spreads
    # about 20%.  Equal-width bins then lose 0.4 of the influence distance
    # (1.51 -> 1.11): the largest influence is about 1200x the median, so
    # every clean row and 41-45% of corrupted rows land in bin 0
    assert report(
        4,
        f"influence/leverage distance ratio >= 3 in {wins}/20 seeds "
        f"(median ratio {np.median(ratios):.2f})",
        wins >= 18,
    )


CORRUPTED_BENCH = dict(
    scenario="corrupted", n=20_000, p=50, n_test=1000,
    pi=0.3, sigma_x=1.0, sigma_w=0.4, sigma_eps=0.1, base_seed=42,
)


def test_criterion_5_robustness_ordering():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        methods=(OLS, ULURU, IWS_LS, AIWS_LS, ARWS_LS),
        n_subs_grid=(8 * 50,),
        replications=20,
        **CORRUPTED_BENCH,
    )
    med = median_errors(run_experiment(cfg), cfg.methods)
    elapsed = time.perf_counter() - t0
    ok = (
        med[IWS_LS] < med[OLS]
        and med[AIWS_LS] < med[OLS]
        and med[ARWS_LS] < med[OLS]
        and med[ULURU] >= 0.9 * med[OLS]
        and elapsed < 300.0
    )
    detail = ", ".join(f"{m}={med[m]:.3f}" for m in cfg.methods)
    assert report(5, f"median errors at 8p [{detail}] ({elapsed:.0f}s)", ok)


GAUSSIAN_GRID_CFG = dict(
    scenario="gaussian", n=256, p=16, n_test=200, base_seed=6,
    methods=(OLS, SRHT_LS, LEV_LS, ULURU, IWS_LS, AIWS_LS, ARWS_LS),
    n_subs_grid=(32, 64, 128, 256),
    replications=20,
)


@pytest.fixture(scope="module")
def gaussian_grid_results():
    return run_experiment(ExperimentConfig(**GAUSSIAN_GRID_CFG))


def test_criterion_6_no_corruption_monotonicity(gaussian_grid_results):
    grid = GAUSSIAN_GRID_CFG["n_subs_grid"]
    worst = {}
    for m in GAUSSIAN_GRID_CFG["methods"]:
        if m == OLS:
            continue
        med = [
            np.median([r.est_error for r in gaussian_grid_results
                       if r.method == m and r.n_subs == g and not r.error])
            for g in grid
        ]
        worst[m] = sum(1 for a, b in zip(med, med[1:]) if b > a)
    ok = all(v <= 1 for v in worst.values())
    assert report(6, f"median error non-increasing in n_subs (inversions {worst})", ok)


def test_criterion_6_uluru_tracks_ols_at_4p(gaussian_grid_results):
    med_ols = np.median(
        [r.est_error for r in gaussian_grid_results if r.method == OLS and not r.error]
    )
    med_uluru = np.median(
        [r.est_error for r in gaussian_grid_results
         if r.method == ULURU and r.n_subs == 64 and not r.error]
    )
    # the published ULURU promises O(sqrt(p/n)) error with no constant, and
    # neither this form nor the published one reaches 2x here (measured
    # variants in the fit_uluru docstring).  At fixed n_subs = 64 the ratio
    # grows with n: 2.55 at n = 256, 8.05 at n = 4096
    assert report(
        6,
        f"ULURU error at 4p within 2x of OLS (ratio {med_uluru / med_ols:.2f})",
        med_uluru <= 2.0 * med_ols,
    )


def test_criterion_7_fast_path_beats_exact_path():
    prob = gen_corrupted(2**17, 64, pi=0.3, sigma_x=1.0, sigma_w=0.4,
                         sigma_eps=0.1, seed=77)
    n_subs = 16 * 64
    # one untimed fit of each at full size first, so that neither timed fit
    # carries a one-off cost of the first fit at this size (fresh pages for
    # its large buffers, BLAS start-up)
    for method in (ARWS_LS, IWS_LS):
        fit(prob, EstimatorConfig(method=method, n_subs=n_subs, seed=0))
    fast = fit(prob, EstimatorConfig(method=ARWS_LS, n_subs=n_subs, seed=5))
    exact = fit(prob, EstimatorConfig(method=IWS_LS, n_subs=n_subs, seed=5))
    ratio = fast.wall_time_s / exact.wall_time_s
    assert report(
        7,
        f"ARWS {fast.wall_time_s:.2f}s vs IWS {exact.wall_time_s:.2f}s (ratio {ratio:.2f})",
        ratio < 0.5,
    )


def test_criterion_8_deterministic_csv_bytes(tmp_path):
    cfg = ExperimentConfig(
        scenario="corrupted", methods=(OLS, SRHT_LS, ARWS_LS), n_subs_grid=(30,),
        replications=3, n=400, p=6, n_test=80, base_seed=9,
    )
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        write_results_csv(run_experiment(cfg), out, deterministic=True)
        paths.append(out.read_bytes())
    assert report(8, "repeated deterministic runs are byte-identical", paths[0] == paths[1])


AIRLINE_HEADER = "Year,Month,DayofMonth,UniqueCarrier,Origin,Dest,Distance,ArrDelay"


def test_criterion_9_airline_pipeline(tmp_path):
    fixture = tmp_path / "three_rows.csv"
    fixture.write_text(
        AIRLINE_HEADER + "\n"
        "2000,1,1,US,JFK,LAX,2475,10\n"
        "2000,1,2,US,SFO,ORD,1846,-3\n"
        "2000,1,3,US,JFK,LAX,2475,25\n"
    )
    split = load_airline_csv(fixture, n_train=2, n_test=1)
    assert split.train.p == 3  # 2 one-hot pairs + distance

    rng = np.random.default_rng(99)
    pairs = [("JFK", "LAX"), ("SFO", "ORD"), ("BOS", "DCA"), ("PHL", "CLT")]
    lines = [AIRLINE_HEADER]
    for i in range(500):
        o, d = pairs[rng.integers(0, len(pairs))]
        lines.append(
            f"2000,1,{1 + i % 28},US,{o},{d},{rng.integers(100, 2600)},{rng.normal(8, 20):.1f}"
        )
    big = tmp_path / "synthetic.csv"
    big.write_text("\n".join(lines) + "\n")
    split = load_airline_csv(big, n_train=400, n_test=100)
    ols = fit(split.train, EstimatorConfig(OLS))
    rmse = float(np.sqrt(np.mean((split.test.y - split.test.Z @ ols.coefficients) ** 2)))
    assert report(9, f"airline load -> OLS -> RMSE {rmse:.2f}", np.isfinite(rmse) and rmse > 0)
