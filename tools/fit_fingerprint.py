"""Save or compare the fits of all seven estimators on six desk problems.

A refactor that should not change the numbers is checked by saving the
records of the code before it and comparing the code after it, both under
OPENBLAS_NUM_THREADS=1:

    PYTHONPATH=src python3 tools/fit_fingerprint.py --save before.npz
    (change the code)
    PYTHONPATH=src python3 tools/fit_fingerprint.py --compare before.npz

The records, by key, and why each is kept:

- "<method>/<k>": each method's coefficients on desk problem k = 0..5,
  gen_corrupted(20000, 50, pi=0.3, sigma_x=1.0, sigma_w=0.4,
  sigma_eps=0.1, seed=100 + k) fitted with EstimatorConfig(method,
  n_subs=400, seed=1000 k + 7): the numbers a refactor must keep.
- "probabilities/<sampler>/<k>", "draws/<sampler>/<k>": the sampling
  probabilities and drawn rows of the four row samplers, so a change to
  the leverage and score layer shows where it acts, not only in the refit.
- "data/<k>": the SHA-256 of each desk problem's Z and y, so a change to
  data generation is shown to keep the data, not inferred from the fits.
- "regime/<regime>": the same for gen_leverage_regime(*REGIME_PROBLEM) in
  t3 and t1, since neither the desk problems nor the sweep scale rows.
- "anchor_iterations/<k>": AIWS_LS's anchor CGLS steps, so a change to
  the anchor shows its step count beside the fits.
- "sweep/<file>": the text of the deterministic CSVs of SWEEP, a small
  all-method sweep, so a harness change is shown to keep every row, and
  one that moves their numbers shows by how much.
- "front_end/<run>/<file>": the text of the files that each FRONT_END run
  of ``rbls.cli.main`` writes (two fig1 runs, and a deterministic run of
  AIRLINE_SWEEP over a flight CSV from a fixed seed), so a CLI change is
  shown to keep every output byte.
- "errors/<method>/<case>": the error each fit raises on a BAD_INPUTS
  problem, so a change to the input checks keeps what each fit reports.
- "overflow/<scaled|unscaled>/<method>" and ".../anchor_iterations":
  fits of OVERFLOW_PROBLEM with Z scaled by OVERFLOW_SCALE, whose Z'r
  overflows, and unscaled, so extreme but finite data is shown to fit.
- "<case>/<method>" for each of SCALED_CASES: the error a fit raises, or
  its largest relative difference from the unscaled fit once scaled back.
  At 2^-500 the influence scores underflow, and on the other cases some
  fits return wrong or non-finite coefficients with no error, so these
  records show any change to either.
- "warnings/<case>/<method>": the RuntimeWarning messages of each of
  those fits, so a warning that leaks out of a fit shows even where every
  number stays the same.

--compare groups the records of both runs by family, the key without its
last part, and prints "k/n identical" for each family and one line for
each record that only one run made or that is not bit-identical, saying
what moved; then, per method, how far the overflow fit is from the
unscaled one, saved -> now.  It exits 1 if any record is missing or moved.
Every run (--save too) also fits each method on a Fortran-ordered and a
column-strided copy of desk problem 0's Z (LAYOUTS) and runs SWEEP at
SWEEP_THREADS workers, prints how many of those fits and CSVs are
bit-identical to the C-ordered and single-thread ones, with a line for
each that is not, and exits 1 if one is not.
The tool uses only the public API, so it can save a fingerprint with the
tool of a later commit against the ``src`` of an earlier one.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings

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
    gen_leverage_regime,
)
from rbls.cli import main as rbls_main
from rbls.datagen import T1, T3
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
# gen_leverage_regime's n, p and seed for each regime in SCALED_REGIMES
REGIME_PROBLEM = (20000, 50, 300)
SCALED_REGIMES = (T3, T1)
SWEEP_FILES = ("results.csv", "aggregates.csv")
# one worker per replication of SWEEP: the calling thread and two pool threads
SWEEP_THREADS = 3
# copies of a row-major Z with the same entries in other memory layouts
LAYOUTS = (
    ("fortran", np.asfortranarray),
    ("strided", lambda Z: np.repeat(Z, 2, axis=1)[:, ::2]),
)
FIG1_FILES = ("fig1_histograms.csv", "fig1_distances.csv")
AIRLINE_FILES = SWEEP_FILES + ("plot.gp",)
# the config of the airline FRONT_END run, less the generated flight CSV's path
AIRLINE_SWEEP = {"scenario": "airline", "n": 400, "n_test": 100, "replications": 2,
                 "methods": [OLS, LEV_LS, AIWS_LS, ARWS_LS], "n_subs_grid": [64, 128]}
# (name, rbls arguments without --out, files written); "{airline}" is the
# path of AIRLINE_SWEEP's config file
FRONT_END = (
    ("fig1", ["fig1", "--n", "2000", "--p", "10", "--seed", "1"], FIG1_FILES),
    ("fig1-bins17", ["fig1", "--n", "3000", "--p", "8", "--pi", "0.2", "--sigma-w", "0.6",
                     "--seed", "5", "--bins", "17"], FIG1_FILES),
    ("airline", ["run", "--config", "{airline}", "--seed", "4", "--deterministic", "--gnuplot"],
     AIRLINE_FILES),
)
# (case, array, value): one entry of the problem's Z or y set to value
BAD_INPUTS = (("Z_nan", "Z", np.nan), ("Z_inf", "Z", np.inf), ("y_nan", "y", np.nan))
# the overflow record: gen_corrupted's arguments, then the fits' n_subs and
# seed and the scale of Z
OVERFLOW_PROBLEM = (4096, 8, 0.3, 1.0, 0.4, 0.1, 4)
OVERFLOW_N_SUBS, OVERFLOW_SEED, OVERFLOW_SCALE = 64, 7, 1e306
# the scaled records: (case, scale of Z, scale of y) of OVERFLOW_PROBLEM
SCALED_CASES = (
    ("underflow", 2.0**-500, 2.0**-500),
    ("overflow_y", 1.0, 1e306),
    ("underflow_540", 2.0**-540, 2.0**-540),
)
FLIGHTS_HEADER = "Year,Month,DayofMonth,UniqueCarrier,Origin,Dest,Distance,ArrDelay"


def fingerprint():
    """{"<method>/<k>": coefficients, "probabilities/<sampler>/<k>":
    sampling probabilities, "draws/<sampler>/<k>": drawn row indices,
    "data/<k>": SHA-256 of Z and y,
    "anchor_iterations/<k>": AIWS_LS's CGLS steps} for every method and
    desk problem, and {"regime/<regime>": SHA-256 of Z and y} for every
    regime in SCALED_REGIMES."""
    fits = {}
    for k in range(PROBLEMS):
        problem = desk_problem(k)
        fits[f"data/{k}"] = _data_digest(problem)
        for method in METHOD_NAMES:
            cfg = EstimatorConfig(method, n_subs=400, seed=1000 * k + 7)
            result = fit(problem, cfg)
            fits[f"{method}/{k}"] = result.coefficients
            if method in SAMPLERS:
                fits[f"probabilities/{method}/{k}"] = result.sampling_probabilities
                fits[f"draws/{method}/{k}"] = result.sampled_row_indices
            if method == AIWS_LS:
                fits[f"anchor_iterations/{k}"] = np.array(result.diagnostics.anchor_iterations)
    n, p, seed = REGIME_PROBLEM
    for regime in SCALED_REGIMES:
        fits[f"regime/{regime}"] = _data_digest(gen_leverage_regime(n, p, regime, seed))
    return fits


def desk_problem(k):
    """Desk problem k of the fingerprint."""
    return gen_corrupted(20000, 50, pi=0.3, sigma_x=1.0, sigma_w=0.4, sigma_eps=0.1, seed=100 + k)


def layouts_keep_the_fits(fits):
    """Print how many of the fits of desk problem 0 with Z in each of
    LAYOUTS are bit-identical (coefficients and sampling probabilities) to
    the C-ordered fits in ``fits``, and a line for each that is not; return
    whether all are."""
    problem = desk_problem(0)
    differ = []
    for name, layout in LAYOUTS:
        relaid = RegressionProblem(layout(problem.Z), problem.y)
        for method in METHOD_NAMES:
            result = fit(relaid, EstimatorConfig(method, n_subs=400, seed=7))
            if not np.array_equal(result.coefficients, fits[f"{method}/0"]) or (
                method in SAMPLERS
                and not np.array_equal(result.sampling_probabilities, fits[f"probabilities/{method}/0"])
            ):
                differ.append(f"{method} on a {name} Z")
    total = len(LAYOUTS) * len(METHOD_NAMES)
    print(f"layouts: {total - len(differ)}/{total} fits bit-identical to the C-ordered fits")
    for what in differ:
        print(f"  {what} differs from the C-ordered fit")
    return not differ


def _data_digest(problem):
    """SHA-256 of the problem's Z and y bytes."""
    digest = hashlib.sha256(problem.Z.tobytes() + problem.y.tobytes()).digest()
    return np.frombuffer(digest, dtype=np.uint8)


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


@contextlib.contextmanager
def runtime_warnings():
    """Yield a list that holds, on exit, the message of every RuntimeWarning
    raised inside the block, in order, also when the block raises."""
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield messages
        finally:
            warned = (w for w in caught if issubclass(w.category, RuntimeWarning))
            messages.extend(str(w.message) for w in warned)


def _warnings_record(messages):
    """The messages "; "-joined, or "none"."""
    return np.array("; ".join(messages) or "none")


def overflow_fits():
    """{"overflow/<scaled|unscaled>/<method>": coefficients,
    "overflow/<scaled|unscaled>/anchor_iterations": AIWS_LS's CGLS steps,
    "warnings/overflow/<scaled|unscaled>/<method>": the fit's RuntimeWarning
    messages} on OVERFLOW_PROBLEM with Z scaled by OVERFLOW_SCALE and
    unscaled."""
    problem = gen_corrupted(*OVERFLOW_PROBLEM)
    fits = {}
    for case, Z in (("scaled", problem.Z * OVERFLOW_SCALE), ("unscaled", problem.Z)):
        for method in METHOD_NAMES:
            cfg = EstimatorConfig(method, OVERFLOW_N_SUBS, OVERFLOW_SEED)
            with runtime_warnings() as messages:
                result = fit(RegressionProblem(Z, problem.y), cfg)
            fits[f"overflow/{case}/{method}"] = result.coefficients
            fits[f"warnings/overflow/{case}/{method}"] = _warnings_record(messages)
            if method == AIWS_LS:
                fits[f"overflow/{case}/anchor_iterations"] = np.array(
                    result.diagnostics.anchor_iterations
                )
    return fits


def scaled_records(fits):
    """{"<case>/<method>": "<type>: <message>" of the error the fit raises
    on OVERFLOW_PROBLEM with Z and y scaled as SCALED_CASES says, or its
    largest relative difference from the unscaled fit in ``fits`` (its
    coefficients scaled back first), "warnings/<case>/<method>": the fit's
    RuntimeWarning messages} for every case and method."""
    problem = gen_corrupted(*OVERFLOW_PROBLEM)
    records = {}
    for case, z_scale, y_scale in SCALED_CASES:
        scaled = RegressionProblem(problem.Z * z_scale, problem.y * y_scale)
        for method in METHOD_NAMES:
            cfg = EstimatorConfig(method, OVERFLOW_N_SUBS, OVERFLOW_SEED)
            try:
                with runtime_warnings() as messages:
                    coef = fit(scaled, cfg).coefficients * (z_scale / y_scale)
            except Exception as err:
                text = f"{type(err).__name__}: {err}"
            else:
                unscaled = fits[f"overflow/unscaled/{method}"]
                rel = np.max(np.abs(coef - unscaled)) / np.max(np.abs(unscaled))
                text = f"fit, max rel diff from the unscaled fit {rel:.3g}"
            records[f"{case}/{method}"] = np.array(text)
            records[f"warnings/{case}/{method}"] = _warnings_record(messages)
    return records


def overflow_rel_diff(fits, method):
    """max |scaled fit * OVERFLOW_SCALE - unscaled fit| / max |unscaled fit|."""
    unscaled = fits[f"overflow/unscaled/{method}"]
    scaled = fits[f"overflow/scaled/{method}"] * OVERFLOW_SCALE
    return np.max(np.abs(scaled - unscaled)) / np.max(np.abs(unscaled))


def sweep_texts(threads=1):
    """{"sweep/<file>": its text} for the deterministic CSVs of SWEEP run on
    ``threads`` workers."""
    results = run_experiment(config_from_dict(SWEEP), threads=threads)
    with tempfile.TemporaryDirectory() as out:
        paths = [os.path.join(out, name) for name in SWEEP_FILES]
        write_results_csv(results, paths[0], deterministic=True)
        write_aggregates_csv(aggregate(results), paths[1], deterministic=True)
        return {f"sweep/{name}": _text(path) for name, path in zip(SWEEP_FILES, paths)}


def threads_keep_the_sweep(fits):
    """Print how many of SWEEP's CSVs at SWEEP_THREADS workers are
    byte-identical to the single-thread ones in ``fits``, and a line for
    each that is not; return whether all are."""
    threaded = sweep_texts(SWEEP_THREADS)
    keys = [f"sweep/{name}" for name in SWEEP_FILES]
    differ = [key for key in keys if not identical(threaded[key], fits[key])]
    print(f"threads: {len(keys) - len(differ)}/{len(keys)} sweep CSVs at threads={SWEEP_THREADS} "
          "byte-identical to threads=1")
    for key in differ:
        print(f"  {key} at threads={SWEEP_THREADS} differs from threads=1")
    return not differ


def _text(path):
    """The file's UTF-8 text as a record."""
    with open(path, encoding="utf-8", newline="") as fh:
        return np.array(fh.read())


def csv_cell_diff(saved_text, text):
    """What moved between two CSV texts: the largest relative difference
    over the cells that parse as numbers in both, whether every other cell
    is identical, and the sorted first cells of the rows that differ, or
    the row and cell counts where those differ.  The relative difference
    of a and b is |a - b| / max(|a|, |b|), 0 for two zeros or two NaNs."""
    rows_a = list(csv.reader(io.StringIO(saved_text)))
    rows_b = list(csv.reader(io.StringIO(text)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return (f"{len(rows_a)} rows of {sum(map(len, rows_a))} cells -> "
                f"{len(rows_b)} rows of {sum(map(len, rows_b))} cells")
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
    return (f"max rel diff {worst:.3g} over numeric cells, other cells "
            f"{'identical' if others_same else 'differ'}, rows differ for {' '.join(changed)}")


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


def front_end_texts():
    """{"front_end/<name>/<file>": its text} for every FRONT_END run."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        flights, config = os.path.join(tmp, "flights.csv"), os.path.join(tmp, "airline.json")
        _write_flights(flights)
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({**AIRLINE_SWEEP, "airline_path": flights}, fh)
        for name, argv, files in FRONT_END:
            out = os.path.join(tmp, name)
            args = [config if a == "{airline}" else a for a in argv] + ["--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                code = rbls_main(args)
            if code != 0:
                raise SystemExit(f"rbls {' '.join(args)} exited {code}")
            for file in files:
                texts[f"front_end/{name}/{file}"] = _text(os.path.join(out, file))
    return texts


def compare(saved, fits):
    """Print "<family>: k/n identical" for each family of the records of
    ``fits`` and then of ``saved``, the keys without their last part, in
    order, and under it one line for each of its records that only one of
    them holds or that is not identical in both; then overflow_rel_diff
    saved -> now for each method whose overflow fits both hold.  Return
    whether both hold the same records, each identical."""
    families = {}
    for key in {**fits, **saved}:
        families.setdefault(key.rpartition("/")[0], []).append(key)
    complete = True
    for family, keys in families.items():
        moved = [key for key in keys if key not in saved or key not in fits
                 or not identical(saved[key], fits[key])]
        print(f"{family}: {len(keys) - len(moved)}/{len(keys)} identical")
        for key in moved:
            print(f"  {key}: {what_moved(key, saved.get(key), fits.get(key))}")
        complete &= not moved
    for method in METHOD_NAMES:
        pair = (f"overflow/scaled/{method}", f"overflow/unscaled/{method}")
        if all(key in saved and key in fits for key in pair):
            print(
                f"overflow {method:8s} max rel diff from the unscaled fit "
                f"{overflow_rel_diff(saved, method):.3g} -> {overflow_rel_diff(fits, method):.3g}"
            )
    return complete


def what_moved(key, saved, value):
    """How the saved record of ``key`` differs from this run's ``value``
    (None where one of them has none): by how much for floats, in how many
    entries for a draw, cell by cell for a CSV's text, saved -> now for a
    scalar or text."""
    if saved is None:
        return "missing from the saved file"
    if value is None:
        return "not made by this run"
    if saved.dtype.kind == value.dtype.kind == "U":
        if key.endswith(".csv"):
            return csv_cell_diff(str(saved), str(value))
        return f"{saved} -> {value}"
    if saved.dtype != value.dtype or saved.shape != value.shape:
        return f"{saved.dtype} {saved.shape} -> {value.dtype} {value.shape}"
    if saved.dtype.kind == "f":
        diff = np.max(np.abs(saved - value))
        return f"max |diff| {diff:.3g}, max rel diff {diff / np.max(np.abs(saved)):.3g}"
    if saved.ndim == 0:
        return f"{saved} -> {value}"
    if saved.dtype == np.uint8:
        return "SHA-256 differs"
    return f"{np.count_nonzero(saved != value)}/{saved.size} indices differ"


def identical(saved, value):
    """Whether two records have the same dtype, shape and bytes (so a NaN
    equals itself)."""
    return saved.dtype == value.dtype and saved.shape == value.shape and (
        saved.tobytes() == value.tobytes()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="FILE.npz", help="fit and save the fingerprint")
    mode.add_argument("--compare", metavar="FILE.npz", help="fit and compare with a saved file")
    args = parser.parse_args(argv)
    fits = {
        **fingerprint(), **sweep_texts(), **front_end_texts(), **error_records(),
        **overflow_fits(),
    }
    fits.update(scaled_records(fits))
    if args.save:
        np.savez(args.save, **fits)
        print(f"saved {len(fits)} records to {args.save}")
        complete = True
    else:
        with np.load(args.compare) as npz:
            complete = compare(dict(npz), fits)
    layouts_same = layouts_keep_the_fits(fits)
    return 0 if threads_keep_the_sweep(fits) and layouts_same and complete else 1


if __name__ == "__main__":
    sys.exit(main())
