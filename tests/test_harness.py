import numpy as np
import pytest

import rbls.estimators

from rbls.datagen import gen_corrupted, RegressionProblem
from rbls.diagnostics import DiagnosticsReport
from rbls.errors import (
    ConfigError,
    DegenerateRangeError,
    InvalidInputError,
    MissingCorruptedError,
    MissingTruthError,
)
from rbls.estimators import (
    AIWS_LS,
    ARWS_LS,
    IWS_LS,
    LEV_LS,
    METHOD_CODES,
    METHOD_NAMES,
    OLS,
    SRHT_LS,
    ULURU,
    EstimatorConfig,
)
from rbls.harness import (
    AGGREGATE_HEADER,
    RESULTS_HEADER,
    ExperimentConfig,
    ExperimentResult,
    aggregate,
    config_from_dict,
    emit_fig1_data,
    run_experiment,
    write_aggregates_csv,
    write_results_csv,
)
from rbls.seeding import ROLE_DATA, ROLE_FIT, spawn_seed

AIRLINE_HEADER = "Year,Month,DayofMonth,UniqueCarrier,Origin,Dest,Distance,ArrDelay"


def tiny_config(**overrides):
    base = dict(
        scenario="corrupted",
        methods=(OLS, SRHT_LS),
        n_subs_grid=(20,),
        replications=2,
        n=300,
        p=5,
        n_test=50,
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def write_flights(path, rows=60, seed=0):
    """A flight CSV of ``rows`` rows over three routes, for airline sweeps."""
    rng = np.random.default_rng(seed)
    pairs = [("A", "B"), ("C", "D"), ("E", "F")]
    lines = []
    for _ in range(rows):
        o, d = pairs[rng.integers(0, 3)]
        lines.append(f"2000,1,1,US,{o},{d},{rng.integers(100, 2000)},{rng.normal():.2f}")
    path.write_text(AIRLINE_HEADER + "\n" + "\n".join(lines) + "\n")
    return str(path)


class TestRunExperiment:
    def test_single_cell_yields_one_row(self):
        cfg = tiny_config(methods=(OLS,), replications=1)
        results = run_experiment(cfg)
        assert len(results) == 1
        row = results[0]
        assert row.method == OLS and row.replication == 0 and not row.error
        assert row.est_error >= 0 and row.rmse >= 0

    def test_row_count_is_methods_times_grid_times_reps(self):
        cfg = tiny_config(n_subs_grid=(20, 40), replications=3)
        results = run_experiment(cfg)
        assert len(results) == 2 * 2 * 3

    def test_deterministic_result_set(self):
        cfg = tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [(r.method, r.n_subs, r.seed, r.est_error) for r in a] == [
            (r.method, r.n_subs, r.seed, r.est_error) for r in b
        ]

    @pytest.mark.parametrize("threads", [2, 3, 5])  # 5: more workers than replications
    @pytest.mark.parametrize("scenario", ["corrupted", "t3", "airline"])
    def test_threads_do_not_change_results(self, tmp_path, scenario, threads):
        overrides = dict(scenario=scenario, replications=4)
        if scenario == "airline":  # one split, loaded once, shared by every worker
            overrides.update(n=40, n_test=10, airline_path=write_flights(tmp_path / "f.csv"))
        cfg = tiny_config(**overrides)

        def rows(results):  # every field but the wall time
            return [(r.method, r.n_subs, r.replication, r.seed, r.est_error, r.rmse, r.error)
                    for r in results]

        assert rows(run_experiment(cfg, threads=threads)) == rows(run_experiment(cfg, threads=1))

    def test_splits_generated_lazily_per_replication(self, monkeypatch):
        # a sweep holds one split per worker: replication k + 1 is generated
        # only after every fit of replication k
        import rbls.estimators
        import rbls.harness as harness

        log = []
        generate, problem_fits = harness._generate_split, rbls.estimators._problem_fits

        def logged_generate(cfg, rep):
            log.append(("generate", rep))
            return generate(cfg, rep)

        def logged_problem_fits(problem):
            fit_one = problem_fits(problem)

            def logged_fit(est_cfg):
                log.append(("fit", est_cfg.method))
                return fit_one(est_cfg)

            return logged_fit

        monkeypatch.setattr(harness, "_generate_split", logged_generate)
        monkeypatch.setattr(rbls.estimators, "_problem_fits", logged_problem_fits)
        run_experiment(tiny_config(replications=3), threads=1)
        fits_per_rep = [("fit", OLS), ("fit", SRHT_LS)]
        assert log == [("generate", 0), *fits_per_rep,
                       ("generate", 1), *fits_per_rep,
                       ("generate", 2), *fits_per_rep]

    def test_each_worker_generates_the_split_it_fits(self, monkeypatch):
        # threads = N is the calling thread plus a pool of N - 1: the caller
        # runs replications 0, N, 2N, ..., each worker fits the split it
        # generated, and it drops that split before generating its next, so
        # at most N splits are alive
        import threading
        import weakref

        import rbls.harness as harness

        generate, run_one = harness._generate_split, harness._run_replication
        for threads in (2, 3):
            lock = threading.Lock()
            generated_on, fitted_on, alive, peak = {}, {}, [0], [0]

            def dropped():
                with lock:
                    alive[0] -= 1

            def logged_generate(cfg, rep):
                split = generate(cfg, rep)
                with lock:
                    generated_on[rep] = threading.get_ident()
                    alive[0] += 1
                    peak[0] = max(peak[0], alive[0])
                weakref.finalize(split, dropped)
                return split

            def logged_run(cfg, rep, split):
                fitted_on[rep] = threading.get_ident()
                return run_one(cfg, rep, split)

            monkeypatch.setattr(harness, "_generate_split", logged_generate)
            monkeypatch.setattr(harness, "_run_replication", logged_run)
            run_experiment(tiny_config(replications=7), threads=threads)
            monkeypatch.undo()
            assert generated_on == fitted_on and sorted(fitted_on) == list(range(7))
            caller = threading.get_ident()
            assert [rep for rep, t in sorted(fitted_on.items()) if t == caller] == list(
                range(0, 7, threads)
            )
            assert 1 <= peak[0] <= threads and alive[0] == 0

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            run_experiment(tiny_config(), threads=threads)

    @pytest.mark.parametrize(
        "method, grid, stage_runs",
        [
            pytest.param(OLS, (20, 40, 80), 1, id=OLS),
            pytest.param(LEV_LS, (20, 40, 80), 1, id=LEV_LS),
            pytest.param(IWS_LS, (20, 40, 80), 1, id=IWS_LS),
            pytest.param(AIWS_LS, (20, 40, 160), 1, id=AIWS_LS),
            pytest.param(ARWS_LS, (20, 40, 160), 1, id=ARWS_LS),
            pytest.param(AIWS_LS, (20, 160, 200), 2, id=f"{AIWS_LS}-above-32p"),
            pytest.param(ARWS_LS, (20, 160, 200), 2, id=f"{ARWS_LS}-above-32p"),
        ],
    )
    def test_seed_free_stages_run_once_per_replication(self, monkeypatch, method, grid, stage_runs):
        # Every grid point of a method shares one fit seed per replication.
        # OLS's fit and the scores of LEV_LS and IWS_LS read neither n_subs
        # nor the seed: one factor of the full Gram matrix per replication
        # serves the grid.  The scores of AIWS_LS and ARWS_LS read the seed
        # and the anchor's max(32p, n_subs) rows (32p = 160 here): one
        # anchor serves the grid points up to 32p, and a point above it
        # solves its own.  Each row keeps its own draw and refits
        # bit-identically in isolation.
        import rbls.harness as harness
        import rbls.linalg

        cfg = tiny_config(methods=(method,), n_subs_grid=grid, replications=2)
        factor, anchor = rbls.linalg._gram_factor, rbls.estimators._anchor
        for threads in (1, 2):
            stages = []

            def counted_factor(Z):
                if Z.shape[0] == cfg.n:
                    stages.append("factor")
                return factor(Z)

            def counted_anchor(*args):
                stages.append("anchor")
                return anchor(*args)

            for module in (rbls.linalg, rbls.estimators):
                monkeypatch.setattr(module, "_gram_factor", counted_factor)
            monkeypatch.setattr(rbls.estimators, "_anchor", counted_anchor)
            results = run_experiment(cfg, threads=threads)
            monkeypatch.undo()
            stage = "anchor" if method in (AIWS_LS, ARWS_LS) else "factor"
            assert stages == [stage] * (stage_runs * cfg.replications)
            for rep in range(cfg.replications):
                split = harness._generate_split(cfg, rep)
                rows = [r for r in results if r.replication == rep]
                assert [r.n_subs for r in rows] == list(grid)
                for row, g in zip(rows, grid):
                    code = METHOD_CODES[method]
                    assert row.seed == spawn_seed(cfg.base_seed, ROLE_FIT, code, rep)
                    coef = rbls.fit(split.train, EstimatorConfig(method, g, row.seed)).coefficients
                    assert row.est_error == float(np.linalg.norm(coef - split.train.truth.beta))
                    rmse = float(np.sqrt(np.mean((split.test.y - split.test.Z @ coef) ** 2)))
                    assert row.rmse == rmse
                    assert row.wall_time_ms > 0

    @pytest.mark.parametrize("method", [LEV_LS, IWS_LS, AIWS_LS, ARWS_LS])
    def test_shared_seed_makes_smaller_draws_prefixes(self, method):
        # common random numbers: configs that differ only in n_subs share
        # the scores and draw from one stream, so the smaller draw is a
        # prefix of the larger; the anchor of AIWS_LS and ARWS_LS reads the
        # seed, so another seed gets its own scores
        problem = gen_corrupted(300, 5, 0.3, 1.0, 0.4, 0.1, seed=3)
        fit = rbls.estimators._problem_fits(problem)
        small, large, other = (
            fit(EstimatorConfig(method, g, seed)) for g, seed in ((20, 11), (80, 11), (20, 12))
        )
        assert small.sampling_probabilities is large.sampling_probabilities
        np.testing.assert_array_equal(small.sampled_row_indices, large.sampled_row_indices[:20])
        seed_free = method in (LEV_LS, IWS_LS)
        assert (other.sampling_probabilities is small.sampling_probabilities) == seed_free
        alone = rbls.estimators.fit(problem, EstimatorConfig(method, 20, 12))
        np.testing.assert_array_equal(other.sampling_probabilities, alone.sampling_probabilities)

    def test_n_subs_checked_at_every_grid_point(self):
        # the scores serve the whole grid; the bound n_subs <= n is still
        # checked at each grid point
        cfg = tiny_config(methods=(LEV_LS, IWS_LS), n_subs_grid=(20, 400), replications=1)
        results = run_experiment(cfg)
        assert [(r.n_subs, r.error.split(":")[0]) for r in results] == [
            (20, ""), (400, "InvalidParamsError"), (20, ""), (400, "InvalidParamsError")
        ]

    def test_one_fit_seed_per_method_and_replication(self):
        results = run_experiment(tiny_config(n_subs_grid=(20, 40), replications=3))
        seeds = {}
        for r in results:
            seeds.setdefault((r.method, r.replication), set()).add(r.seed)
        assert all(len(s) == 1 for s in seeds.values())
        assert len(set.union(*seeds.values())) == len(seeds)

    @pytest.mark.parametrize("base_seed", [0, 1, 7, 2**32 + 5])
    def test_fit_seeds_differ_from_data_seeds(self, base_seed):
        # the fit key carries ROLE_FIT: the bare key (base_seed, code,
        # replication) would give IWS_LS (code ROLE_DATA = 4) each
        # replication's data seed
        cfg = tiny_config(methods=METHOD_NAMES, n_subs_grid=(20,), replications=3,
                          base_seed=base_seed)
        for r in run_experiment(cfg):
            assert r.seed != spawn_seed(base_seed, ROLE_DATA, r.replication)

    def test_failed_fit_recorded_and_run_continues(self, tmp_path):
        # constant distance standardizes to an all-zero column: OLS cannot
        # solve it, and every row must carry the failure instead of raising
        f = tmp_path / "flights.csv"
        rows = [f"2000,1,{i},US,A,B,100,{i}" for i in range(1, 9)]
        f.write_text(AIRLINE_HEADER + "\n" + "\n".join(rows) + "\n")
        cfg = ExperimentConfig(
            scenario="airline",
            methods=(OLS,),
            n_subs_grid=(4,),
            replications=2,
            n=4,
            n_test=2,
            airline_path=str(f),
        )
        results = run_experiment(cfg)
        assert len(results) == 2
        assert all("RankDeficient" in r.error for r in results)
        agg = aggregate(results)
        assert agg[0].n_failed == 2 and agg[0].n_ok == 0

    def test_airline_scenario_has_no_est_error(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="airline",
            methods=(OLS,),
            n_subs_grid=(40,),
            replications=1,
            n=40,
            n_test=10,
            airline_path=write_flights(tmp_path / "flights.csv"),
        )
        results = run_experiment(cfg)
        assert results[0].est_error is None
        assert results[0].rmse is not None

    def test_corrupted_benchmark_ordering(self):
        # influence methods < OLS < plain sketching, medians at 8p
        p = 50
        cfg = ExperimentConfig(
            scenario="corrupted",
            methods=(OLS, SRHT_LS, ULURU, AIWS_LS, ARWS_LS),
            n_subs_grid=(8 * p,),
            replications=20,
            n=20_000,
            p=p,
            n_test=500,
            base_seed=1,
        )
        results = run_experiment(cfg)
        med = {
            m: np.median([r.est_error for r in results if r.method == m and not r.error])
            for m in cfg.methods
        }
        assert med[AIWS_LS] < med[OLS] < med[SRHT_LS]
        assert med[ARWS_LS] < med[OLS]


class TestAggregate:
    def test_single_row(self):
        rows = [ExperimentResult(OLS, 10, 0, 1, 2.5, 0.3, 12.0)]
        agg = aggregate(rows)[0]
        assert agg.est_error_mean == 2.5 and agg.est_error_sd == 0.0
        assert agg.n_ok == 1 and agg.n_failed == 0

    def test_sample_standard_deviation(self):
        rows = [
            ExperimentResult(OLS, 10, 0, 1, 1.0, 0.1, 5.0),
            ExperimentResult(OLS, 10, 1, 2, 3.0, 0.2, 6.0),
        ]
        agg = aggregate(rows)[0]
        assert agg.est_error_mean == pytest.approx(2.0)
        assert agg.est_error_sd == pytest.approx(np.sqrt(2.0))

    def test_group_count(self):
        cfg = tiny_config(n_subs_grid=(20, 40), replications=5)
        agg = aggregate(run_experiment(cfg))
        assert len(agg) == len(cfg.methods) * len(cfg.n_subs_grid)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([])


class TestCsvOutput:
    def test_schema_header(self, tmp_path):
        results = run_experiment(tiny_config(methods=(OLS,), replications=1))
        out = tmp_path / "results.csv"
        write_results_csv(results, out, deterministic=True)
        lines = out.read_text().splitlines()
        assert lines[0] == RESULTS_HEADER
        assert RESULTS_HEADER == "method,n_subs,replication,seed,est_error,rmse,wall_time_ms,error"

    def test_deterministic_mode_is_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(run_experiment(cfg), a, deterministic=True)
        write_results_csv(run_experiment(cfg), b, deterministic=True)
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_header_present_unless_deterministic(self, tmp_path):
        results = run_experiment(tiny_config(methods=(OLS,), replications=1))
        stamped = tmp_path / "stamped.csv"
        write_results_csv(results, stamped, deterministic=False)
        assert stamped.read_text().startswith("# generated ")

    def test_aggregate_csv_header(self, tmp_path):
        results = run_experiment(tiny_config(methods=(OLS,), replications=2))
        out = tmp_path / "agg.csv"
        write_aggregates_csv(aggregate(results), out, deterministic=True)
        assert out.read_text().splitlines()[0] == AGGREGATE_HEADER


class TestConfigFromDict:
    def test_round_trip(self):
        cfg = config_from_dict(
            {
                "scenario": "corrupted",
                "methods": [OLS],
                "n_subs_grid": [20],
                "replications": 1,
                "n": 100,
                "p": 4,
            }
        )
        assert cfg.methods == (OLS,)

    @pytest.mark.parametrize(
        "patch",
        [
            {"scenario": "martian"},
            {"methods": ["OLS", "SGD"]},
            {"n_subs_grid": [40, 20]},
            {"n_subs_grid": [2]},
            {"replications": 0},
            {"n_test": 0},
            {"bogus_key": 1},
            {"n": 4, "p": 10},
            {"n_subs_grid": ["20"]},
            {"n_subs_grid": [40.7]},
            {"n_subs_grid": [True]},
            {"methods": ["OLS", "OLS"]},
            {"n_subs_grid": [20, 20]},
            {"base_seed": -3},
            {"p": 0},
            {"scenario": "airline", "airline_path": "flights.csv", "n": 0},
            {"scenario": "airline", "airline_path": "flights.csv", "n": -5},
            {"scenario": "airline", "airline_path": "flights.csv", "n_subs_grid": [0, 20]},
            {"methods": "OLS"},
            {"n_subs_grid": "20"},
        ],
    )
    def test_invalid_configs_rejected(self, patch):
        raw = {
            "scenario": "corrupted",
            "methods": [OLS],
            "n_subs_grid": [20],
            "replications": 1,
            "n": 100,
            "p": 4,
        }
        raw.update(patch)
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        # the config's own ConfigError passes through unwrapped
        assert not str(err.value).startswith("bad config value")

    @pytest.mark.parametrize("key, value", [("methods", "OLS"), ("n_subs_grid", "20")])
    def test_string_where_list_expected_names_field(self, key, value):
        raw = {"scenario": "corrupted", "methods": [OLS], "n_subs_grid": [20], "replications": 1,
               "n": 100, "p": 4, key: value}
        with pytest.raises(ConfigError, match=f"{key} must be a list"):
            config_from_dict(raw)

    def test_exact_influence_budget_guard(self):
        # exact IWS_LS has no size budget: like LEV_LS and OLS it costs one
        # O(n p^2) solve per replication
        raw = {
            "scenario": "corrupted",
            "methods": [IWS_LS],
            "n_subs_grid": [600],
            "replications": 1,
            "n": 200_000,
            "p": 500,
        }
        assert config_from_dict(raw).methods == (IWS_LS,)


class TestValidate:
    # configs built in code pass the same checks as configs read from JSON
    @pytest.mark.parametrize(
        "patch",
        [{"replications": 2.5}, {"replications": True}, {"pi": "0.3"}, {"n": "2000"},
         {"sigma_w": None}, {"base_seed": np.float64(3.0)}],
        ids=["replications-float", "replications-bool", "pi-str", "n-str", "sigma_w-none",
             "base_seed-float"],
    )
    def test_wrong_number_types_rejected(self, patch):
        key = next(iter(patch))
        with pytest.raises(ConfigError, match=key):
            run_experiment(tiny_config(**patch))

    def test_numpy_numbers_accepted(self):
        cfg = tiny_config(
            methods=(OLS,), n=np.int64(100), pi=np.float32(0.3), replications=np.int32(1)
        )
        row, = run_experiment(cfg)
        assert not row.error and row.est_error >= 0

    def test_json_integer_accepted_as_float(self):
        assert config_from_dict(
            {"scenario": "corrupted", "methods": [OLS], "n_subs_grid": [20], "replications": 1,
             "n": 100, "p": 4, "pi": 0, "sigma_x": 2}
        ).pi == 0


class TestFig1:
    def test_distances_and_files(self, tmp_path):
        prob = gen_corrupted(5000, 30, 0.3, 1.0, 0.4, 0.1, seed=0)
        distances = emit_fig1_data(prob, tmp_path)
        assert set(distances) == {"leverage", "influence"}
        assert all(0.0 <= v <= 2.0 for v in distances.values())
        assert distances["influence"] > distances["leverage"]
        hist = (tmp_path / "fig1_histograms.csv").read_text().splitlines()
        assert hist[0] == "metric,group,bin_left,bin_right,mass"
        assert len(hist) == 1 + 2 * 2 * 50
        dist_lines = (tmp_path / "fig1_distances.csv").read_text().splitlines()
        assert dist_lines[0] == "metric,l1_distance"

    def test_every_numeric_cell_parses_as_a_float(self, tmp_path):
        # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
        emit_fig1_data(gen_corrupted(2000, 10, 0.3, 1.0, 0.4, 0.1, seed=1), tmp_path, bins=7)
        for name, first_numeric in (("fig1_histograms.csv", 2), ("fig1_distances.csv", 1)):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert rows
            for row in rows:
                for cell in row.split(",")[first_numeric:]:
                    float(cell)

    def test_uncorrupted_problem_rejected(self, tmp_path):
        prob = gen_corrupted(500, 5, 0.0, 1.0, 0.4, 0.1, seed=0)
        with pytest.raises(MissingCorruptedError):
            emit_fig1_data(prob, tmp_path)

    def test_bins_checked_before_diagnostics(self, tmp_path, monkeypatch):
        import rbls.harness as harness

        def no_diagnostics(*args):
            raise AssertionError("emit_fig1_data solved before checking bins")

        monkeypatch.setattr(harness, "compute_diagnostics", no_diagnostics)
        prob = gen_corrupted(200, 5, 0.3, 1.0, 0.4, 0.1, seed=0)
        with pytest.raises(InvalidInputError):
            emit_fig1_data(prob, tmp_path, bins=1)
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_made_before_diagnostics(self, tmp_path, monkeypatch):
        # an out_dir that names a file fails before the O(n p^2) solve
        import rbls.harness as harness

        def no_diagnostics(*args):
            raise AssertionError("emit_fig1_data solved before making out_dir")

        monkeypatch.setattr(harness, "compute_diagnostics", no_diagnostics)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        prob = gen_corrupted(200, 5, 0.3, 1.0, 0.4, 0.1, seed=0)
        with pytest.raises(FileExistsError):
            emit_fig1_data(prob, taken)
        assert taken.read_text() == "not a directory"

    def test_existing_out_dir_kept_when_the_solve_fails(self, tmp_path, monkeypatch):
        import rbls.harness as harness

        def failing_diagnostics(*args):
            raise DegenerateRangeError("solve failed")

        monkeypatch.setattr(harness, "compute_diagnostics", failing_diagnostics)
        prob = gen_corrupted(200, 5, 0.3, 1.0, 0.4, 0.1, seed=0)
        with pytest.raises(DegenerateRangeError):
            emit_fig1_data(prob, tmp_path)
        assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []

    def test_no_file_written_when_a_histogram_fails(self, tmp_path, monkeypatch):
        # constant leverages collapse the pooled range; the influence
        # histogram is fine, and still nothing may be written
        import rbls.harness as harness

        prob = gen_corrupted(200, 5, 0.3, 1.0, 0.4, 0.1, seed=0)
        report = harness.compute_diagnostics(prob.Z, prob.y)
        flat = DiagnosticsReport(
            report.residuals, np.full(200, 0.025), report.influences, "exact", 0
        )
        monkeypatch.setattr(harness, "compute_diagnostics", lambda Z, y: flat)
        out = tmp_path / "fig1"
        with pytest.raises(DegenerateRangeError):
            emit_fig1_data(prob, out)
        assert not out.exists()

    def test_problem_without_truth_rejected(self, tmp_path):
        prob = gen_corrupted(500, 5, 0.3, 1.0, 0.4, 0.1, seed=0)
        with pytest.raises(MissingTruthError):
            emit_fig1_data(RegressionProblem(prob.Z, prob.y), tmp_path)
