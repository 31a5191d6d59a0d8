import json

import numpy as np
import pytest

from rbls.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

AIRLINE_HEADER = "Year,Month,DayofMonth,UniqueCarrier,Origin,Dest,Distance,ArrDelay"


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "scenario": "corrupted",
        "methods": ["OLS", "SRHT_LS", "ARWS_LS"],
        "n_subs_grid": [20],
        "replications": 2,
        "n": 300,
        "p": 5,
        "n_test": 50,
        "base_seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def airline_file(tmp_path, n_rows=500, seed=0, delay=lambda d: f"{d:.1f}"):
    rng = np.random.default_rng(seed)
    pairs = [("JFK", "LAX"), ("SFO", "ORD"), ("BOS", "DCA"), ("PHL", "CLT"), ("PIT", "MSP")]
    rows = []
    for i in range(n_rows):
        o, d = pairs[rng.integers(0, len(pairs))]
        rows.append(
            f"2000,1,{1 + i % 28},US,{o},{d},{rng.integers(100, 2600)},{delay(rng.normal(8, 20))}"
        )
    path = tmp_path / "flights.csv"
    path.write_text(AIRLINE_HEADER + "\n" + "\n".join(rows) + "\n")
    return path


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, config_file):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "results.csv").exists()
        assert (out / "aggregates.csv").exists()

    def test_deterministic_runs_byte_identical(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = main(
                ["run", "--config", str(config_file), "--out", str(out), "--deterministic"]
            )
            assert code == EXIT_OK
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "aggregates.csv").read_bytes() == (out_b / "aggregates.csv").read_bytes()

    def test_gnuplot_flag(self, tmp_path, config_file):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out", str(out), "--gnuplot"])
        assert code == EXIT_OK
        assert (out / "plot.gp").exists()

    def test_seed_override_changes_results(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--out", str(out_a),
              "--deterministic", "--seed", "1"])
        main(["run", "--config", str(config_file), "--out", str(out_b),
              "--deterministic", "--seed", "2"])
        assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()

    def test_threads_flag(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--threads", "2"]) == EXIT_OK

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_config_error(self, tmp_path, config_file, threads):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--threads", threads]) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_method_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "corrupted",
                    "methods": ["NEWTON"],
                    "n_subs_grid": [20],
                    "replications": 1,
                    "n": 100,
                    "p": 4,
                }
            )
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_config_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["scenario", "methods", "n_subs_grid"]))
        assert main(["run", "--config", str(cfg), "--seed", "1"]) == EXIT_CONFIG
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("replications", "3"), ("n", "2000"), ("pi", "0.3")])
    def test_number_as_string_is_config_error(self, tmp_path, config_file, capsys, key, value):
        raw = json.loads(config_file.read_text())
        raw[key] = value
        config_file.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestFig1Command:
    def test_writes_histograms(self, tmp_path):
        out = tmp_path / "fig1"
        code = main(
            ["fig1", "--n", "2000", "--p", "10", "--pi", "0.3", "--sigma-w", "0.4",
             "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert (out / "fig1_histograms.csv").exists()
        assert (out / "fig1_distances.csv").exists()

    def test_pi_zero_is_data_error(self, tmp_path):
        code = main(["fig1", "--n", "500", "--p", "5", "--pi", "0.0", "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_bad_pi_is_config_error(self, tmp_path):
        code = main(["fig1", "--pi", "1.5", "--n", "100", "--p", "4", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags", [["--bins", "1", "--n", "200", "--p", "5"], ["--n", "10", "--p", "50"]]
    )
    def test_invalid_input_is_config_error(self, tmp_path, flags):
        assert main(["fig1", *flags, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_rank_deficient_design_is_data_error(self, tmp_path, capsys):
        # sigma_x = sigma_w = 0 gives an all-zero design
        out = tmp_path / "fig1"
        flags = ["--n", "50", "--p", "5", "--sigma-x", "0", "--sigma-w", "0"]
        assert main(["fig1", *flags, "--out", str(out)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--deterministic"], ["--gnuplot"]])
    def test_sweep_flags_rejected(self, tmp_path, flag):
        # fig1 writes no sweep: argparse refuses the flags it would ignore
        with pytest.raises(SystemExit) as exit_info:
            main(["fig1", "--n", "200", "--p", "5", "--out", str(tmp_path), *flag])
        assert exit_info.value.code == EXIT_CONFIG

    def test_bins_checked_before_generating(self, tmp_path, monkeypatch):
        import rbls.cli

        def no_generation(*args):
            raise AssertionError("fig1 generated a problem before checking --bins")

        monkeypatch.setattr(rbls.cli, "gen_corrupted", no_generation)
        out = tmp_path / "fig1"
        assert main(["fig1", "--bins", "1", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestAirlineCommand:
    def test_ols_round_trip(self, tmp_path):
        csv_path = airline_file(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["airline", "--train", str(csv_path), "--n-train", "400", "--n-test", "100",
             "--out", str(out), "--deterministic"]
        )
        assert code == EXIT_OK
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "OLS"
        assert fields[4] == ""  # no ground truth, no estimation error
        assert float(fields[5]) > 0  # test RMSE present

    def test_subsampling_methods(self, tmp_path):
        csv_path = airline_file(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["airline", "--train", str(csv_path), "--n-train", "400", "--n-test", "100",
             "--methods", "OLS", "SRHT_LS", "ARWS_LS", "--n-subs", "64",
             "--out", str(out), "--deterministic"]
        )
        assert code == EXIT_OK
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_delays_keep_every_row(self, tmp_path):
        # delays near 1e306 make Z'r overflow in ULURU's correction; the
        # sweep must still exit 0 with one row per method, and print no
        # numpy warning.  LEV_LS fits finite coefficients whose test
        # residuals are finite but square past the largest double, so its
        # rmse must be finite.  OLS, SRHT_LS and ULURU return NaN
        # coefficients, which are failed rows, not NaN metrics
        csv_path = airline_file(tmp_path, delay=lambda d: repr(float(d) * 1e306))
        methods = ["OLS", "SRHT_LS", "LEV_LS", "ULURU", "IWS_LS", "AIWS_LS", "ARWS_LS"]
        out = tmp_path / "out"
        code = main(
            ["airline", "--train", str(csv_path), "--n-train", "400", "--n-test", "100",
             "--methods", *methods, "--n-subs", "64", "--out", str(out), "--deterministic"]
        )
        assert code == EXIT_OK
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == methods
        rmse = {row.split(",")[0]: row.split(",")[5] for row in rows}
        assert np.isfinite(float(rmse["LEV_LS"]))
        error = {row.split(",")[0]: row.split(",")[7] for row in rows}
        for method in ("OLS", "SRHT_LS", "ULURU"):
            assert error[method] == "fit returned NaN or Inf coefficients"
            assert rmse[method] == ""

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["airline", "--train", str(tmp_path / "gone.csv")]) == EXIT_DATA

    def test_unparseable_file_is_data_error(self, tmp_path):
        bad = tmp_path / "flights.csv"
        bad.write_text(AIRLINE_HEADER + "\n2000,1,1,US,A,B,xyz,3\n")
        code = main(["airline", "--train", str(bad), "--n-train", "1", "--n-test", "1"])
        assert code == EXIT_DATA

    def test_non_finite_distance_is_data_error(self, tmp_path):
        # float() reads "nan": such a row made every fit fail while the
        # command still exited 0
        csv_path = airline_file(tmp_path, n_rows=60)
        lines = csv_path.read_text().splitlines()
        fields = lines[10].split(",")
        fields[6] = "nan"
        lines[10] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["airline", "--train", str(csv_path), "--n-train", "40", "--n-test", "20",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_same_sweep_as_run(self, tmp_path):
        # airline builds the config dict that rbls run would read from JSON;
        # its grid is sorted before validation
        csv_path = airline_file(tmp_path)
        methods = ["OLS", "LEV_LS", "ARWS_LS"]
        cfg = tmp_path / "airline.json"
        cfg.write_text(json.dumps({
            "scenario": "airline", "methods": methods, "n_subs_grid": [48, 96],
            "replications": 2, "n": 400, "n_test": 100, "airline_path": str(csv_path),
            "base_seed": 9,
        }))
        out_run, out_air = tmp_path / "run", tmp_path / "air"
        assert main(["run", "--config", str(cfg), "--out", str(out_run),
                     "--deterministic", "--gnuplot"]) == EXIT_OK
        assert main(["airline", "--train", str(csv_path), "--n-train", "400", "--n-test", "100",
                     "--methods", *methods, "--n-subs", "96", "48", "--replications", "2",
                     "--seed", "9", "--out", str(out_air), "--deterministic",
                     "--gnuplot"]) == EXIT_OK
        for name in ("results.csv", "aggregates.csv", "plot.gp"):
            assert (out_run / name).read_bytes() == (out_air / name).read_bytes()
        assert len((out_air / "results.csv").read_text().splitlines()) == 1 + 3 * 2 * 2
