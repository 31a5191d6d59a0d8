"""Save or compare the fits of all seven estimators on six desk problems.

A refactor that should not change the numbers is checked by saving the
fits of the code before it and comparing the code after it:

    PYTHONPATH=src python3 tools/fit_fingerprint.py --save before.npz
    (change the code)
    PYTHONPATH=src python3 tools/fit_fingerprint.py --compare before.npz

Problem k = 0..5 is gen_corrupted(20000, 50, pi=0.3, sigma_x=1.0,
sigma_w=0.4, sigma_eps=0.1, seed=100 + k), fitted with
EstimatorConfig(method, n_subs=400, seed=1000 k + 7).  The SHA-256 of each
problem's Z and y bytes is saved beside the fits, so a change to data
generation is shown to keep the data, not only inferred from the fits.
So are the sampling probabilities of the four row samplers (LEV_LS,
IWS_LS, AIWS_LS, ARWS_LS), so a change to the leverage and score layer is
checked where it acts, not only through the refit coefficients, their
drawn row indices, so a change that should keep the draws shows it, and
AIWS_LS's anchor_iterations per problem (the CGLS steps of its anchor), so
a change to the anchor shows its step count beside the fits.  So is the
SHA-256 of the deterministic results.csv and aggregates.csv of one small
all-method sweep (SWEEP: configs/gaussian_desk.json's shape at 3
replications), so a harness change is shown to keep every row byte for
byte.  The same sweep also runs at SWEEP_THREADS worker threads, and every
run (--save too) prints whether its CSVs are byte-identical to the
single-thread ones and exits 1 if they are not, so the worker threads are
shown to change no row.  So are the SHA-256 of the files the front end writes, each run
through ``rbls.cli.main`` only (FRONT_END): the fig1 CSVs of two small
problems, one with --bins 17, and one ``rbls airline --deterministic
--gnuplot`` run (4 methods, 2 grid points, 2 replications) over a flight
CSV generated from a fixed seed, so a CLI or harness refactor is shown to
keep every output byte for byte.  Each sweep and front-end file is also
saved as text, so a change that moves their numbers shows by how much.  So
is, per method, the type and message of the error a fit raises on one
small problem (BAD_INPUTS: Z with a NaN, Z with +Inf, y with a NaN), so a
change to the input checks is shown to keep what each fit reports.
--compare prints, per method, how many of the six fits are bit-identical,
the largest absolute coefficient difference and the largest relative one
(max |diff| over max |saved coefficient|, per fit), then per sampler how
many of the six probability vectors and of the six draws are
bit-identical, then how many of the six problems have bit-identical data,
then the six anchor step counts saved -> now, then whether each sweep CSV
and each front-end file is byte-identical (for a CSV that differs, the
largest relative difference over its numeric cells and whether every other
cell is identical, and the first cells of the rows that differ), then per
method how many of its error records are identical (with saved -> now for
each that is not), then per method the largest relative difference
between its fit on one problem with Z scaled by 1e306, times 1e306, and
its fit on the unscaled problem (saved -> now) beside AIWS_LS's anchor
steps on both, then per method what its fit does on the same problem with
Z and y both scaled by 2^-500 (saved -> now): the type and message of the
error it raises, or its largest relative difference from the unscaled
fit, and exits 1 if anything is missing.  That problem (OVERFLOW_PROBLEM)
is gen_corrupted(4096, 8, 0.3, 1.0, 0.4, 0.1, seed=4) fitted with n_subs
64 and seed 7: its Z'r overflows, so the record shows that extreme but
finite data still fits.  Scaled down by 2^-500, its influence scores
underflow, so the record shows how the samplers report scores they cannot
invert.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import os
import sys
import tempfile

import numpy as np

from rbls import (
    AIWS_LS,
    ARWS_LS,
    IWS_LS,
    LEV_LS,
    METHOD_NAMES,
    OLS,
    EstimatorConfig,
    RegressionProblem,
    fit,
    gen_corrupted,
)
from rbls.cli import main as rbls_main
from rbls.harness import (
    aggregate,
    config_from_dict,
    run_experiment,
    write_aggregates_csv,
    write_results_csv,
)

PROBLEMS = 6
SAMPLERS = (LEV_LS, IWS_LS, AIWS_LS, ARWS_LS)
SWEEP = {
    "scenario": "gaussian",
    "n": 4096,
    "p": 16,
    "n_test": 500,
    "methods": list(METHOD_NAMES),
    "n_subs_grid": [32, 64, 128, 256],
    "replications": 3,
    "base_seed": 1,
}
SWEEP_FILES = ("results.csv", "aggregates.csv")
# one worker per replication of SWEEP: the calling thread and two pool threads
SWEEP_THREADS = 3
FIG1_FILES = ("fig1_histograms.csv", "fig1_distances.csv")
AIRLINE_FILES = SWEEP_FILES + ("plot.gp",)
# (name, rbls arguments without --out, files written); "{flights}" is the
# generated flight CSV
FRONT_END = (
    ("fig1", ["fig1", "--n", "2000", "--p", "10", "--seed", "1"], FIG1_FILES),
    ("fig1-bins17", ["fig1", "--n", "3000", "--p", "8", "--pi", "0.2", "--sigma-w", "0.6",
                     "--seed", "5", "--bins", "17"], FIG1_FILES),
    ("airline", ["airline", "--train", "{flights}", "--n-train", "400", "--n-test", "100",
                 "--methods", OLS, LEV_LS, AIWS_LS, ARWS_LS, "--n-subs", "128", "64",
                 "--replications", "2", "--seed", "4", "--deterministic", "--gnuplot"],
     AIRLINE_FILES),
)
# (case, array, value): one entry of the problem's Z or y set to value
BAD_INPUTS = (("Z_nan", "Z", np.nan), ("Z_inf", "Z", np.inf), ("y_nan", "y", np.nan))
# the overflow record: gen_corrupted's arguments, then the fits' n_subs and
# seed and the scale of Z
OVERFLOW_PROBLEM = (4096, 8, 0.3, 1.0, 0.4, 0.1, 4)
OVERFLOW_N_SUBS, OVERFLOW_SEED, OVERFLOW_SCALE = 64, 7, 1e306
# the underflow record: the scale of both Z and y of OVERFLOW_PROBLEM
UNDERFLOW_SCALE = 2.0**-500
FLIGHTS_HEADER = "Year,Month,DayofMonth,UniqueCarrier,Origin,Dest,Distance,ArrDelay"


def fingerprint():
    """{"<method>/<k>": coefficients, "probabilities/<sampler>/<k>":
    sampling probabilities, "draws/<sampler>/<k>": drawn row indices,
    "data/<k>": SHA-256 of Z and y,
    "anchor_iterations/<k>": AIWS_LS's CGLS steps} for every method and
    desk problem."""
    fits = {}
    for k in range(PROBLEMS):
        problem = gen_corrupted(20000, 50, pi=0.3, sigma_x=1.0, sigma_w=0.4, sigma_eps=0.1, seed=100 + k)
        digest = hashlib.sha256(problem.Z.tobytes() + problem.y.tobytes()).digest()
        fits[f"data/{k}"] = np.frombuffer(digest, dtype=np.uint8)
        for method in METHOD_NAMES:
            cfg = EstimatorConfig(method, n_subs=400, seed=1000 * k + 7)
            result = fit(problem, cfg)
            fits[f"{method}/{k}"] = result.coefficients
            if method in SAMPLERS:
                fits[f"probabilities/{method}/{k}"] = result.sampling_probabilities
                fits[f"draws/{method}/{k}"] = result.sampled_row_indices
            if method == AIWS_LS:
                fits[f"anchor_iterations/{k}"] = np.array(result.diagnostics.anchor_iterations)
    return fits


def error_records():
    """{"errors/<method>/<case>": "<type>: <message>" of the error the fit
    raises, or "no error"} for every method and BAD_INPUTS case, on
    gen_corrupted(512, 8, ...) with entry 77 of Z or y set."""
    problem = gen_corrupted(512, 8, pi=0.3, sigma_x=1.0, sigma_w=0.4, sigma_eps=0.1, seed=4)
    records = {}
    for case, array, value in BAD_INPUTS:
        Z, y = problem.Z.copy(), problem.y.copy()
        (Z if array == "Z" else y).flat[77] = value
        for method in METHOD_NAMES:
            try:
                fit(RegressionProblem(Z, y), EstimatorConfig(method, n_subs=64, seed=7))
                text = "no error"
            except Exception as err:
                text = f"{type(err).__name__}: {err}"
            records[f"errors/{method}/{case}"] = np.array(text)
    return records


def overflow_fits():
    """{"overflow/<scaled|unscaled>/<method>": coefficients,
    "overflow/<scaled|unscaled>/anchor_iterations": AIWS_LS's CGLS steps}
    on OVERFLOW_PROBLEM with Z scaled by OVERFLOW_SCALE and unscaled."""
    problem = gen_corrupted(*OVERFLOW_PROBLEM)
    fits = {}
    for case, Z in (("scaled", problem.Z * OVERFLOW_SCALE), ("unscaled", problem.Z)):
        for method in METHOD_NAMES:
            cfg = EstimatorConfig(method, OVERFLOW_N_SUBS, OVERFLOW_SEED)
            result = fit(RegressionProblem(Z, problem.y), cfg)
            fits[f"overflow/{case}/{method}"] = result.coefficients
            if method == AIWS_LS:
                fits[f"overflow/{case}/anchor_iterations"] = np.array(
                    result.diagnostics.anchor_iterations
                )
    return fits


def underflow_records(fits):
    """{"underflow/<method>": "<type>: <message>" of the error the fit raises
    on OVERFLOW_PROBLEM with Z and y scaled by UNDERFLOW_SCALE, or its
    largest relative difference from the unscaled fit in ``fits``} for every
    method; the scale leaves the coefficients unchanged."""
    problem = gen_corrupted(*OVERFLOW_PROBLEM)
    tiny = RegressionProblem(problem.Z * UNDERFLOW_SCALE, problem.y * UNDERFLOW_SCALE)
    records = {}
    for method in METHOD_NAMES:
        cfg = EstimatorConfig(method, OVERFLOW_N_SUBS, OVERFLOW_SEED)
        try:
            with np.errstate(all="ignore"):
                coef = fit(tiny, cfg).coefficients
        except Exception as err:
            text = f"{type(err).__name__}: {err}"
        else:
            unscaled = fits[f"overflow/unscaled/{method}"]
            rel = np.max(np.abs(coef - unscaled)) / np.max(np.abs(unscaled))
            text = f"fit, max rel diff from the unscaled fit {rel:.3g}"
        records[f"underflow/{method}"] = np.array(text)
    return records


def overflow_rel_diff(fits, method):
    """max |scaled fit * OVERFLOW_SCALE - unscaled fit| / max |unscaled fit|."""
    unscaled = fits[f"overflow/unscaled/{method}"]
    scaled = fits[f"overflow/scaled/{method}"] * OVERFLOW_SCALE
    return np.max(np.abs(scaled - unscaled)) / np.max(np.abs(unscaled))


def sweep_digests(threads=1):
    """{"sweep/<file>": SHA-256 of the file, "text/sweep/<file>": its text}
    for the deterministic CSVs of SWEEP run on ``threads`` workers."""
    results = run_experiment(config_from_dict(SWEEP), threads=threads)
    digests = {}
    with tempfile.TemporaryDirectory() as out:
        paths = [os.path.join(out, name) for name in SWEEP_FILES]
        write_results_csv(results, paths[0], deterministic=True)
        write_aggregates_csv(aggregate(results), paths[1], deterministic=True)
        for name, path in zip(SWEEP_FILES, paths):
            digests.update(_file_record(f"sweep/{name}", path))
    return digests


def threads_keep_the_sweep(fits):
    """Print whether SWEEP's CSVs at SWEEP_THREADS workers are byte-identical
    to the single-thread ones in ``fits``; return whether all are."""
    threaded = sweep_digests(SWEEP_THREADS)
    same = True
    for name in SWEEP_FILES:
        key = f"sweep/{name}"
        identical = np.array_equal(threaded[key], fits[key])
        verdict = "byte-identical to" if identical else "differs from"
        print(f"threads  {key} at threads={SWEEP_THREADS} {verdict} threads=1")
        same &= identical
    return same


def _file_record(key, path):
    """{key: SHA-256 of the file, "text/<key>": its text}."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = np.frombuffer(hashlib.sha256(data).digest(), dtype=np.uint8)
    return {key: digest, f"text/{key}": np.array(data.decode("utf-8"))}


def csv_cell_diff(saved_text, text):
    """(largest relative difference over the cells that parse as numbers in
    both texts, whether every other cell is identical, the sorted first
    cells of the rows that differ) of two CSV texts; the relative
    difference of a and b is |a - b| / max(|a|, |b|), 0 for two zeros or
    two NaNs.  Texts with different row or cell counts have (nan, False,
    [])."""
    rows_a = list(csv.reader(io.StringIO(saved_text)))
    rows_b = list(csv.reader(io.StringIO(text)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return float("nan"), False, []
    worst, others_same = 0.0, True
    for cell_a, cell_b in zip(itertools.chain(*rows_a), itertools.chain(*rows_b)):
        try:
            a, b = float(cell_a), float(cell_b)
        except ValueError:
            others_same &= cell_a == cell_b
            continue
        if a != b and not (np.isnan(a) and np.isnan(b)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    changed = sorted({a[0] for a, b in zip(rows_a, rows_b) if a != b and a})
    return worst, others_same, changed


def _write_flights(path, rows=600, seed=0):
    """A Data Expo-shaped flight CSV: 6 routes, random distances and delays."""
    rng = np.random.default_rng(seed)
    routes = [("JFK", "LAX"), ("SFO", "ORD"), ("BOS", "DCA"),
              ("PHL", "CLT"), ("PIT", "MSP"), ("SEA", "DEN")]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FLIGHTS_HEADER + "\n")
        for i in range(rows):
            origin, dest = routes[rng.integers(0, len(routes))]
            distance, delay = rng.integers(100, 2600), rng.normal(8, 20)
            fh.write(f"2000,1,{1 + i % 28},US,{origin},{dest},{distance},{delay:.1f}\n")


def front_end_digests():
    """{"front_end/<name>/<file>": SHA-256 of the file, "text/front_end/<name>/<file>":
    its text} for every FRONT_END run."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        flights = os.path.join(tmp, "flights.csv")
        _write_flights(flights)
        for name, argv, files in FRONT_END:
            out = os.path.join(tmp, name)
            args = [flights if a == "{flights}" else a for a in argv] + ["--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                code = rbls_main(args)
            if code != 0:
                raise SystemExit(f"rbls {' '.join(args)} exited {code}")
            for file in files:
                digests.update(_file_record(f"front_end/{name}/{file}", os.path.join(out, file)))
    return digests


def compare(saved, fits):
    """Print one line per method; return False if a saved fit is missing."""
    complete = True
    for method in METHOD_NAMES:
        keys = [f"{method}/{k}" for k in range(PROBLEMS)]
        if any(key not in saved for key in keys):
            print(f"{method:8s} missing from the saved file")
            complete = False
            continue
        same = sum(np.array_equal(saved[key], fits[key]) for key in keys)
        diffs = [np.max(np.abs(saved[key] - fits[key])) for key in keys]
        rel = max(d / np.max(np.abs(saved[key])) for d, key in zip(diffs, keys))
        print(
            f"{method:8s} {same}/{PROBLEMS} bit-identical, "
            f"max |diff| {max(diffs):.3g}, max rel diff {rel:.3g}"
        )
    for method in SAMPLERS:
        keys = [f"probabilities/{method}/{k}" for k in range(PROBLEMS)]
        if any(key not in saved for key in keys):
            print(f"probs    {method} missing from the saved file")
            complete = False
            continue
        same = sum(np.array_equal(saved[key], fits[key]) for key in keys)
        print(f"probs    {method:8s} {same}/{PROBLEMS} bit-identical")
    for method in SAMPLERS:
        keys = [f"draws/{method}/{k}" for k in range(PROBLEMS)]
        if any(key not in saved for key in keys):
            print(f"draws    {method} missing from the saved file")
            complete = False
            continue
        same = sum(np.array_equal(saved[key], fits[key]) for key in keys)
        print(f"draws    {method:8s} {same}/{PROBLEMS} identical")
    keys = [f"data/{k}" for k in range(PROBLEMS)]
    if any(key not in saved for key in keys):
        print("data     missing from the saved file")
        return False
    same = sum(np.array_equal(saved[key], fits[key]) for key in keys)
    print(f"data     {same}/{PROBLEMS} bit-identical")
    keys = [f"anchor_iterations/{k}" for k in range(PROBLEMS)]
    if any(key not in saved for key in keys):
        print("anchor   iterations missing from the saved file")
        return False
    before = " ".join(str(int(saved[key])) for key in keys)
    after = " ".join(str(int(fits[key])) for key in keys)
    print(f"anchor   {AIWS_LS} CGLS steps {before} -> {after}")
    for key in sorted(k for k in fits if k.startswith(("sweep/", "front_end/"))):
        if key not in saved:
            print(f"file     {key} missing from the saved file")
            complete = False
            continue
        same = np.array_equal(saved[key], fits[key])
        print(f"file     {key} {'byte-identical' if same else 'differs'}")
        text_key = f"text/{key}"
        if same or not key.endswith(".csv"):
            continue
        if text_key not in saved:
            print(f"         {text_key} missing from the saved file")
            complete = False
            continue
        worst, others_same, changed = csv_cell_diff(str(saved[text_key]), str(fits[text_key]))
        print(
            f"         max rel diff {worst:.3g} over numeric cells, other cells "
            f"{'identical' if others_same else 'differ'}, rows differ for {' '.join(changed)}"
        )
    for method in METHOD_NAMES:
        keys = [f"errors/{method}/{case}" for case, _, _ in BAD_INPUTS]
        if any(key not in saved for key in keys):
            print(f"errors   {method} missing from the saved file")
            complete = False
            continue
        changed = [key for key in keys if str(saved[key]) != str(fits[key])]
        print(f"errors   {method:8s} {len(keys) - len(changed)}/{len(keys)} identical")
        for key in changed:
            print(f"         {key}: {saved[key]} -> {fits[key]}")
    if any(key not in saved for key in fits if key.startswith("overflow/")):
        print("overflow fits missing from the saved file")
        return False
    for method in METHOD_NAMES:
        print(
            f"overflow {method:8s} max rel diff from the unscaled fit "
            f"{overflow_rel_diff(saved, method):.3g} -> {overflow_rel_diff(fits, method):.3g}"
        )
    steps = [
        f"{int(saved[key])} -> {int(fits[key])}"
        for key in ("overflow/scaled/anchor_iterations", "overflow/unscaled/anchor_iterations")
    ]
    print(f"overflow {AIWS_LS} CGLS steps scaled {steps[0]}, unscaled {steps[1]}")
    for method in METHOD_NAMES:
        key = f"underflow/{method}"
        if key not in saved:
            print(f"underflow {method} missing from the saved file")
            complete = False
            continue
        print(f"underflow {method:8s} {saved[key]} -> {fits[key]}")
    return complete


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="FILE.npz", help="fit and save the fingerprint")
    mode.add_argument("--compare", metavar="FILE.npz", help="fit and compare with a saved file")
    args = parser.parse_args(argv)
    fits = {
        **fingerprint(), **sweep_digests(), **front_end_digests(), **error_records(),
        **overflow_fits(),
    }
    fits.update(underflow_records(fits))
    if args.save:
        np.savez(args.save, **fits)
        fit_count = PROBLEMS * len(METHOD_NAMES)
        print(
            f"saved {fit_count} fits, {PROBLEMS * len(SAMPLERS)} probability vectors "
            f"and draws, "
            f"{PROBLEMS} data digests, {PROBLEMS} anchor step counts and "
            f"{len(SWEEP_FILES)} sweep CSV and "
            f"{sum(len(files) for _, _, files in FRONT_END)} front-end file digests and "
            f"{len(BAD_INPUTS) * len(METHOD_NAMES)} error records and "
            f"{2 * len(METHOD_NAMES)} overflow fits and "
            f"{len(METHOD_NAMES)} underflow records to {args.save}"
        )
        complete = True
    else:
        with np.load(args.compare) as saved:
            complete = compare(dict(saved), fits)
    return 0 if threads_keep_the_sweep(fits) and complete else 1


if __name__ == "__main__":
    sys.exit(main())
