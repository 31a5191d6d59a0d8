"""The compare loop of tools/fit_fingerprint.py on small synthetic records,
and the tool's --save and --compare run end to end."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "fit_fingerprint.py"
spec = importlib.util.spec_from_file_location("fit_fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def records():
    rng = np.random.default_rng(0)
    return {
        **{f"OLS/{k}": rng.standard_normal(5) for k in range(3)},
        "draws/LEV_LS/0": rng.integers(0, 1000, 400),
        "anchor_iterations/0": np.array(2),
        "errors/OLS/Z_nan": np.array("InvalidInputError: Z contains NaN or Inf entries"),
        "sweep/results.csv": np.array("method,rmse\nOLS,0.5\nLEV_LS,0.25\n"),
    }


def compared(capsys, saved, now):
    """(compare's verdict, its per-record lines, keyed by record)."""
    same = fingerprint.compare(saved, now)
    lines = capsys.readouterr().out.splitlines()
    moved = dict(line.strip().split(": ", 1) for line in lines if line.startswith("  "))
    return same, moved


def test_identical_records_print_only_family_summaries(capsys):
    assert fingerprint.compare(records(), records())
    assert capsys.readouterr().out.splitlines() == [
        "OLS: 3/3 identical",
        "draws/LEV_LS: 1/1 identical",
        "anchor_iterations: 1/1 identical",
        "errors/OLS: 1/1 identical",
        "sweep: 1/1 identical",
    ]


def test_a_one_ulp_move_names_its_record(capsys):
    saved, now = records(), records()
    now["OLS/1"][3] = np.nextafter(saved["OLS/1"][3], np.inf)
    same, moved = compared(capsys, saved, now)
    rel = abs(now["OLS/1"][3] - saved["OLS/1"][3]) / np.max(np.abs(saved["OLS/1"]))
    assert not same
    assert moved.keys() == {"OLS/1"}
    assert f"max rel diff {rel:.3g}" in moved["OLS/1"]


def test_a_moved_draw_counts_its_indices(capsys):
    now = records()
    now["draws/LEV_LS/0"][[5, 50, 150]] += 1
    same, moved = compared(capsys, records(), now)
    assert not same
    assert moved == {"draws/LEV_LS/0": "3/400 indices differ"}


def test_a_missing_record_is_named(capsys):
    saved = records()
    del saved["errors/OLS/Z_nan"]
    same, moved = compared(capsys, saved, records())
    assert not same
    assert moved == {"errors/OLS/Z_nan": "missing from the saved file"}


def test_a_record_only_the_saved_file_holds_is_named(capsys):
    saved, now = records(), records()
    del now["OLS/1"]
    assert not fingerprint.compare(saved, now)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["OLS: 2/3 identical", "  OLS/1: not made by this run"]


@pytest.mark.parametrize(
    "key, value, says",
    [
        ("anchor_iterations/0", np.array(3), "2 -> 3"),
        ("errors/OLS/Z_nan", np.array("no error"),
         "InvalidInputError: Z contains NaN or Inf entries -> no error"),
        ("sweep/results.csv", np.array("method,rmse\nOLS,0.5\n"),
         "3 rows of 6 cells -> 2 rows of 4 cells"),
        ("sweep/results.csv", np.array("method,rmse\nOLS,0.5\nLEV_LS,0.2\n"),
         "max rel diff 0.2 over numeric cells, other cells identical, rows differ for LEV_LS"),
    ],
)
def test_a_moved_scalar_or_text_says_what_moved(capsys, key, value, says):
    now = records()
    now[key] = value
    same, moved = compared(capsys, records(), now)
    assert not same
    assert moved == {key: says}


def test_identical_counts_nan_equal_and_dtype_or_shape_different():
    a = np.array([np.nan, 1.0, -0.0])
    assert fingerprint.identical(a, a.copy())
    assert not fingerprint.identical(a, a.astype(np.float32))
    assert not fingerprint.identical(a, a[None, :])
    assert not fingerprint.identical(np.arange(4), np.arange(4, dtype=np.int32))


def test_save_then_compare_exits_0(tmp_path):
    # the tool drives the public API and the CLI: a change to either that
    # breaks a run of it fails here
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}
    saved = tmp_path / "fingerprint.npz"
    for mode in ("--save", "--compare"):
        run = subprocess.run([sys.executable, str(TOOL), mode, str(saved)], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr
