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

    @pytest.mark.parametrize("key, value", [("sigma_w", "NaN"), ("sigma_eps", "Infinity")])
    def test_non_finite_scale_is_config_error(self, tmp_path, config_file, capsys, key, value):
        # json.dumps writes, and json.load reads, NaN and Infinity; the
        # config rejects them before the sweep makes its output directory
        raw = json.loads(config_file.read_text())
        raw[key] = float(value)
        config_file.write_text(json.dumps(raw))
        assert value in config_file.read_text()
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == EXIT_CONFIG
        assert f"need a finite {key} >= 0" in capsys.readouterr().err
        assert not out.exists()

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


def airline_config(directory, train, **fields):
    """Path of ``airline.json``, written to ``directory``: a sweep of OLS on
    13000 training and 5000 test rows of the flight CSV ``train``, one
    replication, with ``fields`` in place of these; n_subs_grid defaults to
    [n]."""
    raw = {"scenario": "airline", "airline_path": str(train), "n": 13000, "n_test": 5000,
           "methods": ["OLS"], "replications": 1, **fields}
    raw.setdefault("n_subs_grid", [raw["n"]])
    path = directory / "airline.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestAirlineCommand:
    """Airline sweeps: ``rbls run`` on a config with scenario airline."""

    def test_ols_round_trip(self, tmp_path):
        csv_path = airline_file(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["run", "--config", airline_config(tmp_path, csv_path, n=400, n_test=100),
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
        config = airline_config(tmp_path, csv_path, n=400, n_test=100,
                                methods=["OLS", "SRHT_LS", "ARWS_LS"], n_subs_grid=[64])
        code = main(["run", "--config", config, "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_delays_keep_every_row(self, tmp_path):
        # delays near 1e306 make Z'r overflow in ULURU's correction; the
        # sweep must still exit 0 with one row per method, and print no
        # numpy warning.  LEV_LS and SRHT_LS fit finite coefficients whose
        # test residuals are finite but square past the largest double, so
        # their rmse must be finite.  OLS and ULURU return NaN
        # coefficients, which are failed rows, not NaN metrics
        csv_path = airline_file(tmp_path, delay=lambda d: repr(float(d) * 1e306))
        methods = ["OLS", "SRHT_LS", "LEV_LS", "ULURU", "IWS_LS", "AIWS_LS", "ARWS_LS"]
        out = tmp_path / "out"
        config = airline_config(tmp_path, csv_path, n=400, n_test=100,
                                methods=methods, n_subs_grid=[64])
        code = main(["run", "--config", config, "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == methods
        rmse = {row.split(",")[0]: row.split(",")[5] for row in rows}
        assert np.isfinite(float(rmse["LEV_LS"]))
        assert np.isfinite(float(rmse["SRHT_LS"]))
        error = {row.split(",")[0]: row.split(",")[7] for row in rows}
        for method in ("OLS", "ULURU"):
            assert error[method] == "fit returned NaN or Inf coefficients"
            assert rmse[method] == ""

    def test_missing_file_is_data_error(self, tmp_path):
        config = airline_config(tmp_path, tmp_path / "gone.csv")
        assert main(["run", "--config", config]) == EXIT_DATA

    def test_unparseable_file_is_data_error(self, tmp_path):
        bad = tmp_path / "flights.csv"
        bad.write_text(AIRLINE_HEADER + "\n2000,1,1,US,A,B,xyz,3\n")
        code = main(["run", "--config", airline_config(tmp_path, bad, n=1, n_test=1)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("out", ["new1/new2", "new1/new2/", "new1/../new2"])
    def test_failed_sweep_removes_every_directory_level_it_made(
        self, tmp_path, tmp_path_factory, out
    ):
        bad = tmp_path / "flights.csv"
        bad.write_text(AIRLINE_HEADER + "\n2000,1,1,US,A,B,xyz,3\n")
        # the config lives outside tmp_path, which must hold the CSV alone
        config = airline_config(tmp_path_factory.mktemp("config"), bad, n=1, n_test=1)
        code = main(["run", "--config", config, "--out", f"{tmp_path}/{out}"])
        assert code == EXIT_DATA
        assert [path.name for path in tmp_path.iterdir()] == ["flights.csv"]

    def test_non_finite_distance_is_data_error(self, tmp_path):
        # float() reads "nan": such a row made every fit fail while the
        # command still exited 0
        csv_path = airline_file(tmp_path, n_rows=60)
        lines = csv_path.read_text().splitlines()
        fields = lines[10].split(",")
        fields[6] = "nan"
        lines[10] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["run", "--config", airline_config(tmp_path, csv_path, n=40, n_test=20),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA


def test_airline_is_not_a_command(capsys):
    # an airline sweep is a run config: argparse refuses the command name
    with pytest.raises(SystemExit) as exit_info:
        main(["airline", "--train", "flights.csv"])
    assert exit_info.value.code == EXIT_CONFIG
    assert "invalid choice: 'airline' (choose from 'run', 'fig1')" in capsys.readouterr().err


def _run_argv(tmp_path, *flags, **patch):
    raw = {"scenario": "corrupted", "methods": ["OLS", "IWS_LS"], "n_subs_grid": [20, 40],
           "replications": 2, "n": 300, "p": 5, "n_test": 50, "base_seed": 3, **patch}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return ["run", "--config", str(path), "--out", str(tmp_path / "out"), *flags]


def _airline_argv(tmp_path, n_train):
    config = airline_config(tmp_path, airline_file(tmp_path), n=n_train, n_test=100)
    return ["run", "--config", config, "--out", str(tmp_path / "out")]


def _taken(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    return str(taken)


# Each input fails with one line before any replication runs, and leaves no
# file or directory behind
BAD_INPUTS = {
    "repeated-method": (lambda t: _run_argv(t, methods=["OLS", "OLS"]), EXIT_CONFIG),
    "repeated-n_subs": (lambda t: _run_argv(t, n_subs_grid=[40, 40]), EXIT_CONFIG),
    "negative-base_seed": (lambda t: _run_argv(t, base_seed=-3), EXIT_CONFIG),
    "negative-seed-flag": (lambda t: _run_argv(t, "--seed", "-1"), EXIT_CONFIG),
    "airline-n-train-zero": (lambda t: _airline_argv(t, 0), EXIT_CONFIG),
    "airline-n-train-negative": (lambda t: _airline_argv(t, -5), EXIT_CONFIG),
    "out-names-a-file": (lambda t: _run_argv(t, "--out", _taken(t)), EXIT_DATA),
    "fig1-negative-seed": (
        lambda t: ["fig1", "--n", "200", "--p", "5", "--seed", "-1", "--out", str(t / "out")],
        EXIT_CONFIG,
    ),
    "airline-missing-file": (
        lambda t: ["run", "--config", airline_config(t, t / "gone.csv"), "--out", str(t / "out")],
        EXIT_DATA,
    ),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_fails_before_any_fit(tmp_path, capsys, monkeypatch, case):
    # one line on stderr, no traceback, no replication run and no file written
    import rbls.harness

    def no_replication(*args):
        raise AssertionError("a replication ran before the input was rejected")

    monkeypatch.setattr(rbls.harness, "_run_replication", no_replication)
    make_argv, expected = BAD_INPUTS[case]
    argv = make_argv(tmp_path)
    before = _tree(tmp_path)
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith(("config error:", "data error:")) and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert _tree(tmp_path) == before


def _tree(root):
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}
