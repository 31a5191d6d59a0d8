#!/usr/bin/env python3
"""Benchmark of rbls: whole fits, a CLI sweep and a traced per-layer breakdown.

    python3 bench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Runs one workload in this process from the sources under ``src/`` of the
checkout, checks every output, prints one line per metric and, last, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs the same work untraced and then
traced and reports the per-layer metrics.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the program is not found.
See ``bench/README.md`` for the metrics and why each workload exists.
"""

import argparse
import csv
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MODEL = {"pi": 0.3, "sigma_x": 1.0, "sigma_w": 0.4, "sigma_eps": 0.1}


@dataclass(frozen=True)
class FitWorkload:
    """Every method fit on each of ``problems`` seeded problems of one size.

    ``problems`` is the fixed problem set: an untraced run fits all of it
    once, so ``rel_err.*`` depends only on the seed, then keeps cycling
    through it until ``--seconds`` have passed.  Each method in
    ``REL_ERR_METHODS`` is fit ``draws`` times per problem, with distinct
    seeds, because its error varies from draw to draw as much as from
    problem to problem; every other method is fit once.
    """

    n: int
    p: int
    n_subs: int
    problems: int
    draws: int = 1


FIT_WORKLOADS = {
    "desk": FitWorkload(n=20_000, p=50, n_subs=400, problems=40),
    "tall": FitWorkload(n=1 << 17, p=64, n_subs=1024, problems=3, draws=3),
}

# The sweep set: for each of SWEEP_SET base seeds, one sweep of this config
# per method.  Sweeps of one base seed fit the same data splits with the same
# fit seeds as a single all-method sweep would.  An untraced run makes each
# sweep once, so rel_err.* depends only on the seed, then keeps cycling
# through them until --seconds have passed.
SWEEP_CONFIG = {
    "scenario": "corrupted",
    "n": 5000,
    "p": 20,
    "n_test": 1000,
    **MODEL,
    "n_subs_grid": [40, 80, 160, 320],
    "replications": 4,
}
SWEEP_SET = 16
SWEEP_THREADS = 2

WORKLOADS = tuple(FIT_WORKLOADS) + ("sweep",)

# A set-up repeat starts Python and imports the program in a child process,
# then generates one workload problem and fits every method once on this
# small problem (desk, tall) or writes the sweep config (sweep).  setup_s is
# the median repeat.
WARMUP = FitWorkload(n=2048, p=16, n_subs=64, problems=1)
SETUP_REPEATS = 3
IMPORT_PROBE = "import numpy, scipy.linalg, rbls, rbls.cli"

REL_ERR_METHODS = ("IWS_LS", "AIWS_LS", "ARWS_LS", "ULURU")
CORRUPTION_METHODS = ("LEV_LS", "IWS_LS", "AIWS_LS", "ARWS_LS")
# methods that floor their scores before inverting them into probabilities
FLOORED_METHODS = ("IWS_LS", "AIWS_LS", "ARWS_LS")

TRACED_MODULES = (
    "linalg", "srht", "diagnostics", "sampling", "seeding",
    "datagen", "estimators", "harness", "cli",
)

OLS_RTOL = 1e-8
AGGREGATE_RTOL = 1e-12


class ProgramMissing(Exception):
    """The checkout holds no rbls sources to benchmark."""


def load_program():
    """Import rbls from ``src/`` of the checkout."""
    if not (SRC / "rbls" / "__init__.py").is_file():
        raise ProgramMissing(f"no rbls package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rbls
    import rbls.cli

    if Path(rbls.__file__).resolve().parent != SRC / "rbls":
        raise ProgramMissing(f"rbls imported from {rbls.__file__}, not from {SRC}")
    return rbls


def measure_import():
    """Seconds to start Python and import the program in a child process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


# -- environment --------------------------------------------------------------

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RBLS_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Thread count the bundled OpenBLAS reports, or 'unknown'."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return str(fn())
    return "unknown"


def environment(seed, blas_env):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    env = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
    }
    env.update({k: blas_env.get(k) or "unset" for k in BLAS_ENV})
    env["seed"] = seed
    return env


# -- host speed -----------------------------------------------------------------
#
# The host shares its cores, and its speed drifts by up to half over minutes
# (see bench/README.md, *Noise*).  Between rounds of fits and of sweeps, the
# benchmark times four fixed kernels of its own that never call rbls.  A
# kernel's median time over the run, divided by its nominal time, is how
# much slower the host ran for that kind of work; the median over the
# kernels is the run's slowdown, so one kernel that misbehaves does not set
# it.  Every end-to-end timing is divided by it, so it reads as if measured
# at the nominal speed.  The nominal times are the kernels' typical times on
# the baseline host; they are constants, so they cancel when two versions of
# the program are compared.

_REF_RNG = np.random.default_rng(20140612)
_REF_PAIR = _REF_RNG.standard_normal((2, 400))
_REF_TALL = _REF_RNG.standard_normal((2000, 50))
_REF_WIDE = _REF_RNG.standard_normal((10_000, 50))
_REF_BATCH = _REF_RNG.standard_normal((4096, 256))
_REF_H16 = np.array([[1.0]])
for _ in range(4):
    _REF_H16 = np.block([[_REF_H16, _REF_H16], [_REF_H16, -_REF_H16]])


def _ref_interp():
    """Interpreter-bound: plane rotations of two short vectors, as in a Jacobi sweep."""
    u, v = _REF_PAIR[0].copy(), _REF_PAIR[1].copy()
    for _ in range(500):
        t = float(u @ v) / (float(u @ u) + float(v @ v) + 1.0)
        cs = 1.0 / math.hypot(1.0, t)
        sn = cs * t
        u, v = cs * u - sn * v, sn * u + cs * v


def _ref_blas():
    """LAPACK-bound: a thin QR of a tall matrix, on the default BLAS threads."""
    np.linalg.qr(_REF_TALL)


def _ref_memory():
    """Memory-bound: elementwise passes over a 4 MB array."""
    x = _REF_WIDE * 1.5
    x += _REF_WIDE
    np.sqrt(np.abs(x, out=x), out=x)


def _ref_batched():
    """BLAS-bound in small batched products, as in the fast Hadamard transform."""
    x = _REF_BATCH
    prefix, suffix = 1, x.size
    for _ in range(3):
        suffix //= 16
        x = np.matmul(_REF_H16, x.reshape(prefix, 16, suffix))
        prefix *= 16


REF_KERNELS = {"interp": _ref_interp, "blas": _ref_blas, "memory": _ref_memory, "batched": _ref_batched}
REF_NOMINAL_MS = {"interp": 7.5, "blas": 9.0, "memory": 2.0, "batched": 5.7}


class HostClock:
    """Samples the reference kernels; ``slowdown()`` is the run's host slowdown."""

    def __init__(self):
        self.samples = {name: [] for name in REF_KERNELS}

    def sample(self):
        for name, kernel in REF_KERNELS.items():
            # the faster of two calls: the first may find caches cold after a fit
            best = math.inf
            for _ in range(2):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            self.samples[name].append(1000.0 * best)

    def ratios(self):
        return {name: statistics.median(ms) / REF_NOMINAL_MS[name] for name, ms in self.samples.items()}

    def slowdown(self):
        return statistics.median(self.ratios().values())

    def note(self):
        n = len(self.samples["interp"])
        parts = " ".join(f"{name}={r:.4g}" for name, r in self.ratios().items())
        return f"median kernel time / nominal over {n} samples each: {parts}"


# -- seeds and problems -------------------------------------------------------


def derive_seed(seed, *key):
    return int(np.random.SeedSequence((seed, *key)).generate_state(1, np.uint64)[0])


def make_problem(rbls, spec, problem_seed):
    return rbls.gen_corrupted(spec.n, spec.p, seed=problem_seed, **MODEL)


def fit_config(rbls, spec, problem_seed, method, draw=0):
    code = rbls.METHOD_NAMES.index(method)
    return rbls.EstimatorConfig(
        method=method, n_subs=spec.n_subs, seed=derive_seed(problem_seed, code, draw)
    )


def fit_plan(rbls, spec):
    """(method, draw) pairs fit on each problem, in order."""
    return [
        (method, draw)
        for method in rbls.METHOD_NAMES
        for draw in range(spec.draws if method in REL_ERR_METHODS else 1)
    ]


def measure_setup(rbls, spec, seed, clock):
    """Seconds of each set-up repeat: import, one problem, one warm-up fit per method."""
    reps = []
    for r in range(SETUP_REPEATS):
        clock.sample()
        import_s = measure_import()
        t0 = time.perf_counter()
        make_problem(rbls, spec, derive_seed(seed, 1, 0))
        warm_seed = derive_seed(seed, 2, r)
        warm = make_problem(rbls, WARMUP, warm_seed)
        for method in rbls.METHOD_NAMES:
            rbls.fit(warm, fit_config(rbls, WARMUP, warm_seed, method))
        reps.append(import_s + time.perf_counter() - t0)
    return reps


# -- desk and tall: closed loop over rbls.fit ---------------------------------


@dataclass
class RunLog:
    """What a run observed, across its untraced and traced passes."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    # (pass, method) -> fit wall times in ms; on sweep, sweep wall / fits per sweep
    fit_ms: dict = field(default_factory=lambda: defaultdict(list))
    # pass -> sweep wall times in s
    walls: dict = field(default_factory=lambda: defaultdict(list))
    # first result of each (problem, method, draw) or sweep config, for the bit-for-bit check
    reference: dict = field(default_factory=dict)
    # method -> (problem, draw) -> ||b - beta||
    est_error: dict = field(default_factory=lambda: defaultdict(dict))
    # problem -> numpy.linalg.lstsq solution
    lstsq: dict = field(default_factory=dict)

    def fail(self, keys, message):
        """Count the fits named by ``keys`` as failed."""
        keys = set(keys)
        if keys - self.failed and len(self.messages) < 20:
            self.messages.append(message)
        self.failed |= keys


def check_fit(log, key, k, method, draw, problem, coef):
    """Apply the correctness gate to one fit; True when it passed."""
    if coef.shape != (problem.p,) or not np.all(np.isfinite(coef)):
        log.fail([key], f"{method} on problem {k}: non-finite or misshapen coefficients")
        return False
    if method == "OLS":
        if k not in log.lstsq:
            log.lstsq[k] = np.linalg.lstsq(problem.Z, problem.y, rcond=None)[0]
        ref = log.lstsq[k]
        rel = np.linalg.norm(coef - ref) / np.linalg.norm(ref)
        if not rel <= OLS_RTOL:
            log.fail([key], f"OLS on problem {k} differs from numpy.linalg.lstsq by {rel:.3g}")
            return False
    first = log.reference.setdefault((k, method, draw), coef)
    if first is not coef and not np.array_equal(first, coef):
        log.fail([key], f"{method} on problem {k}: coefficients differ from the first fit")
        return False
    return True


def fit_rounds(rbls, spec, seed, log, tag, min_rounds, seconds, clock):
    """Fit the plan on problem ``round % spec.problems``, one call at a time.

    Runs at least ``min_rounds`` rounds and until ``seconds`` have passed,
    sampling ``clock`` before each round.  Returns (rounds, fit wall
    seconds, CPU seconds, loop wall seconds).
    """
    start = time.perf_counter()
    cpu0 = time.process_time()
    rounds = 0
    fit_wall = 0.0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        clock.sample()
        k = rounds % spec.problems
        problem_seed = derive_seed(seed, 1, k)
        problem = make_problem(rbls, spec, problem_seed)
        beta = problem.truth.beta
        for method, draw in fit_plan(rbls, spec):
            cfg = fit_config(rbls, spec, problem_seed, method, draw)
            key = (tag, rounds, method, draw)
            log.attempted += 1
            t0 = time.perf_counter()
            try:
                result = rbls.fit(problem, cfg)
            except rbls.errors.RblsError as err:
                log.fail([key], f"{method} on problem {k}: {type(err).__name__}: {err}")
                continue
            dt = time.perf_counter() - t0
            fit_wall += dt
            if check_fit(log, key, k, method, draw, problem, result.coefficients):
                log.fit_ms[(tag, method)].append(dt * 1000.0)
                error = float(np.linalg.norm(result.coefficients - beta))
                log.est_error[method].setdefault((k, draw), error)
        del problem
        rounds += 1
    return rounds, fit_wall, time.process_time() - cpu0, time.perf_counter() - start


# -- sweep: rbls.cli.main run --------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    path: Path
    data: int  # base seed index; configs with the same index fit the same data
    method: str


@dataclass(frozen=True)
class Sweep:
    """The sweep set: one config file per (base seed, method), one output directory.

    ``configs`` is ordered by base seed, then method, so one round of
    ``len(methods)`` consecutive sweeps covers every method once.
    """

    configs: list
    out_dir: Path
    methods: tuple
    grid: tuple
    reps: int

    def cells(self, method):
        return [(method, g, r) for g in self.grid for r in range(self.reps)]

    @property
    def fits(self):
        """Fits in one sweep."""
        return len(self.grid) * self.reps


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_sweep(log, tag, j, sweep, method):
    """Check the results.csv and aggregates.csv of one sweep of ``method``.

    Returns its good rows, mapping (method, n_subs, replication) to
    (est_error, rmse) as written.
    """
    expected = set(sweep.cells(method))
    reps = sweep.reps

    def keys(cells):
        return [(tag, j, c) for c in cells]

    try:
        results = _read_csv(sweep.out_dir / "results.csv")
        aggregates = _read_csv(sweep.out_dir / "aggregates.csv")
    except (OSError, csv.Error) as err:
        log.fail(keys(expected), f"sweep {tag}/{j}: cannot read outputs: {err}")
        return {}
    rows = {}
    seen = set()
    for row in results:
        try:
            cell = (row["method"], int(row["n_subs"]), int(row["replication"]))
            error = row["error"]
            values = None if error else [float(row[c]) for c in ("est_error", "rmse", "wall_time_ms")]
        except (KeyError, TypeError, ValueError):
            log.fail(keys(expected), f"sweep {tag}/{j}: malformed results row {row}")
            return {}
        if cell not in expected or cell in seen:
            log.fail(keys(expected), f"sweep {tag}/{j}: unexpected or repeated row {cell}")
            return {}
        seen.add(cell)
        if error or not all(math.isfinite(v) for v in values):
            log.fail(keys([cell]), f"sweep {tag}/{j}: fit {cell} failed: {error or 'non-finite'}")
            continue
        rows[cell] = (row["est_error"], row["rmse"])
    if expected - seen:
        log.fail(keys(expected - seen), f"sweep {tag}/{j}: {len(expected - seen)} results rows missing")
    if len(aggregates) != len(sweep.grid):
        log.fail(keys(expected), f"sweep {tag}/{j}: {len(aggregates)} aggregate rows")
    for agg in aggregates:
        try:
            cells = [(agg["method"], int(agg["n_subs"]), r) for r in range(reps)]
            agreed = (
                int(agg["n_ok"]) == reps
                and int(agg["n_failed"]) == 0
                and all(c in rows for c in cells)
                and math.isclose(
                    float(agg["est_error_mean"]),
                    statistics.fmean(float(rows[c][0]) for c in cells),
                    rel_tol=AGGREGATE_RTOL,
                )
                and math.isclose(
                    float(agg["rmse_mean"]),
                    statistics.fmean(float(rows[c][1]) for c in cells),
                    rel_tol=AGGREGATE_RTOL,
                )
            )
        except (KeyError, TypeError, ValueError):
            cells, agreed = sorted(expected), False
        if not agreed:
            log.fail(keys(cells), f"sweep {tag}/{j}: aggregates.csv disagrees with results.csv")
    return rows


def sweep_runs(rbls, sweep, log, tag, min_sweeps, seconds, clock):
    """Run ``rbls run`` over the sweep set, one sweep at a time.

    Sweep ``j`` uses config ``j % len(sweep.configs)``.  Runs at least
    ``min_sweeps`` sweeps and until ``seconds`` have passed, sampling
    ``clock`` before each round of methods.  Returns (sweeps, summed sweep
    wall seconds, CPU seconds, loop wall seconds).
    """
    start = time.perf_counter()
    cpu0 = time.process_time()
    sweeps = 0
    while sweeps < min_sweeps or time.perf_counter() - start < seconds:
        c = sweeps % len(sweep.configs)
        if c % len(sweep.methods) == 0:
            clock.sample()
        config = sweep.configs[c]
        argv = ["run", "--config", str(config.path), "--out", str(sweep.out_dir),
                "--threads", str(SWEEP_THREADS)]
        log.attempted += sweep.fits
        shutil.rmtree(sweep.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        code = rbls.cli.main(argv)
        dt = time.perf_counter() - t0
        if code != 0:
            log.fail([(tag, sweeps, cell) for cell in sweep.cells(config.method)], f"sweep {tag}/{sweeps}: rbls run exited {code}")
        else:
            rows = check_sweep(log, tag, sweeps, sweep, config.method)
            first = log.reference.setdefault(c, rows)
            if any(first.get(cell) != v for cell, v in rows.items()):
                log.fail([(tag, sweeps, cell) for cell in rows], f"sweep {tag}/{sweeps}: results differ from the first sweep of its config")
            log.fit_ms[(tag, config.method)].append(1000.0 * dt / sweep.fits)
            log.walls[tag].append(dt)
        sweeps += 1
    return sweeps, sum(log.walls[tag]), time.process_time() - cpu0, time.perf_counter() - start


# -- metrics ------------------------------------------------------------------


def tail_note(samples):
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
            return f"n={n} p{q}={cut:.4g}"
    return f"n={n} (too few samples for a tail percentile)"


def median_or_nan(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def probe_build_sketch(args, kwargs, op):
    return {"padded": op.padded_rows, "rows": op.original_rows}


def probe_fwht(args, kwargs, a):
    return {"bytes": a.size * 8}


def probe_fit(args, kwargs, result):
    problem, cfg = args[:2]
    info = {"method": cfg.method, "fallback": int(result.uniform_fallback)}
    if result.diagnostics is not None:
        info["clamped"] = result.diagnostics.leverage_clamp_count
    idx = result.sampled_row_indices
    if idx is not None:
        info["distinct_frac"] = np.unique(idx).size / idx.size
        if problem.truth is not None:
            info["corrupted_frac"] = float(problem.truth.corruption_mask[idx].mean())
    probs = result.sampling_probabilities
    if probs is not None and cfg.method in FLOORED_METHODS:
        info["floored_frac"] = float(np.mean(probs == probs.max()))
    return info


PROBES = {
    "srht.build_sketch": probe_build_sketch,
    "srht.fwht_inplace": probe_fwht,
    "estimators.fit": probe_fit,
}


def layer_metrics(spans, fits, timed_span, traced_wall, untraced_wall, cpu_per_wall):
    """Counters and ratios from the traced pass, normalised per fit call."""
    calls, self_s, total_s = summarize(spans)
    m = {}

    def infos(name):
        return [s.info for s in spans if s.name == name and s.info]

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    sketches = infos("srht.build_sketch")
    rows = sum(i["rows"] for i in sketches)
    m["srht.pad_ratio"] = (sum(i["padded"] for i in sketches) / rows if rows else 0.0, "ratio")
    m["srht.bytes_transformed"] = (sum(i["bytes"] for i in infos("srht.fwht_inplace")) / fits, "B/fit")
    fit_infos = infos("estimators.fit")
    m["diagnostics.leverage_clamped"] = (sum(i.get("clamped", 0) for i in fit_infos) / fits, "rows/fit")
    m["sampling.distinct_frac"] = (mean(i["distinct_frac"] for i in fit_infos if "distinct_frac" in i), "ratio")
    m["sampling.floored_frac"] = (mean(i["floored_frac"] for i in fit_infos if "floored_frac" in i), "ratio")
    m["sampling.uniform_fallbacks"] = (sum(i["fallback"] for i in fit_infos) / fits, "count/fit")
    for method in CORRUPTION_METHODS:
        m[f"sampling.corrupted_draw_frac.{method}"] = (
            mean(i["corrupted_frac"] for i in fit_infos if i["method"] == method and "corrupted_frac" in i),
            "ratio",
        )
    m["harness.cpu_per_wall"] = (cpu_per_wall, "ratio")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    roots = sum(s.end - s.start for s in spans if s.name == timed_span and s.parent is None)
    m["trace.span_share"] = (roots / traced_wall, "ratio")
    glue = sum(v for name, v in self_s.items() if name.startswith("estimators."))
    notes = {
        "trace.span_share": f"{timed_span} spans {1000 * roots / fits:.5g} of {1000 * traced_wall / fits:.5g} "
        f"ms/fit timed outside; estimators.* self {1000 * glue / fits:.4g} ms/fit",
    }
    return m, notes, (calls, self_s, total_s, fits)


def span_metrics(table, names):
    """``<span>.self_ms`` and ``<span>.calls`` per fit for each such name.

    A function that was never called, or no longer exists, reads 0.
    """
    calls, self_s, _, fits = table
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind == "self_ms":
            out[name] = (1000.0 * self_s.get(span, 0.0) / fits, "ms/fit")
        elif kind == "calls":
            out[name] = (calls.get(span, 0) / fits, "calls/fit")
    return out


def host_metric(clock, timings, stat, unit):
    """``stat`` of the timings divided by the run's host slowdown.

    Returns ``((value, unit), note)``; the note starts with ``stat`` of the
    timings as measured.
    """
    if not timings:
        return (float("nan"), unit), "no samples; "
    slowdown = clock.slowdown()
    value = stat([t / slowdown for t in timings])
    return (value, unit), f"{stat(timings):.6g} {unit} as measured; "


# -- workloads ------------------------------------------------------------------


def run_fit_workload(rbls, name, seed, seconds, trace):
    spec = FIT_WORKLOADS[name]
    # a traced run discards these numbers; the set-ups still warm up the fits
    clock = HostClock()
    setup = measure_setup(rbls, spec, seed, clock)
    log = RunLog()
    metrics = {}
    notes = {}
    nproc = os.cpu_count() or 1
    if not trace:
        rounds, fit_wall, cpu, wall = fit_rounds(rbls, spec, seed, log, "untraced", spec.problems, seconds, clock)
        fits = [t for method in rbls.METHOD_NAMES for t in log.fit_ms[("untraced", method)]]
        metrics["setup_s"], notes["setup_s"] = host_metric(clock, setup, statistics.median, "s")
        notes["setup_s"] += f"median of set-ups {[round(s, 4) for s in setup]}"
        metrics["fits_per_s"], notes["fits_per_s"] = host_metric(clock, fits, lambda v: 1000.0 * len(v) / sum(v), "1/s")
        notes["fits_per_s"] += f"{len(fits)} fits in {fit_wall:.4g} s of fit wall, {rounds} rounds of {len(fit_plan(rbls, spec))} fits"
        for method in rbls.METHOD_NAMES:
            samples = log.fit_ms[("untraced", method)]
            metrics[f"fit_ms.{method}"], notes[f"fit_ms.{method}"] = host_metric(clock, samples, median_or_nan, "ms")
            notes[f"fit_ms.{method}"] += "scaled " + tail_note([t / clock.slowdown() for t in samples])
        ols = log.est_error["OLS"]
        for method in REL_ERR_METHODS:
            ratios = [e / ols[(k, 0)] for (k, _), e in log.est_error[method].items() if (k, 0) in ols]
            metrics[f"rel_err.{method}"] = (median_or_nan(ratios), "ratio")
            notes[f"rel_err.{method}"] = f"median over {len(log.est_error[method])} problem x draw fits"
        metrics["host_slowdown"], notes["host_slowdown"] = (clock.slowdown(), "ratio"), clock.note()
        return metrics, notes, log, None

    rounds, untraced_wall, cpu, wall = fit_rounds(rbls, spec, seed, log, "untraced", 1, seconds / 2, clock)
    tracer = Tracer(PROBES)
    tracer.patch("rbls", TRACED_MODULES)
    try:
        _, traced_wall, _, _ = fit_rounds(rbls, spec, seed, log, "traced", rounds, 0, clock)
    finally:
        tracer.unpatch()
    fits = rounds * len(fit_plan(rbls, spec))
    metrics, notes, table = layer_metrics(
        tracer.spans, fits, "estimators.fit", traced_wall, untraced_wall, cpu / (wall * nproc)
    )
    notes["fits"] = f"{fits} traced fits over {rounds} rounds; traced fit wall {traced_wall:.4g} s"
    return metrics, notes, log, table


def run_sweep_workload(rbls, seed, seconds, trace):
    methods = tuple(rbls.METHOD_NAMES)
    work_dir = BENCH_DIR / ".out" / f"sweep-{os.getpid()}"
    sweep = Sweep(
        configs=[
            SweepConfig(work_dir / f"config-{b}-{method}.json", b, method)
            for b in range(SWEEP_SET)
            for method in methods
        ],
        out_dir=work_dir / "out",
        methods=methods,
        grid=tuple(SWEEP_CONFIG["n_subs_grid"]),
        reps=SWEEP_CONFIG["replications"],
    )
    clock = HostClock()
    setup = []
    try:
        for _ in range(SETUP_REPEATS):
            clock.sample()
            import_s = measure_import()
            t0 = time.perf_counter()
            work_dir.mkdir(parents=True, exist_ok=True)
            for config in sweep.configs:
                raw = {**SWEEP_CONFIG, "methods": [config.method],
                       "base_seed": derive_seed(seed, 3, config.data) % (1 << 31)}
                with open(config.path, "w", encoding="utf-8") as fh:
                    json.dump(raw, fh)
            setup.append(import_s + time.perf_counter() - t0)
        log = RunLog()
        nproc = os.cpu_count() or 1
        if not trace:
            sweeps, _, _, _ = sweep_runs(rbls, sweep, log, "untraced", len(sweep.configs), seconds, clock)
            metrics, notes = {}, {}
            metrics["setup_s"], notes["setup_s"] = host_metric(clock, setup, statistics.median, "s")
            notes["setup_s"] += f"median of set-ups {[round(s, 4) for s in setup]}"
            walls = log.walls["untraced"]
            metrics["fits_per_s"], notes["fits_per_s"] = host_metric(
                clock, walls, lambda v: sweep.fits * len(v) / sum(v), "1/s"
            )
            notes["fits_per_s"] += f"{len(walls)} sweeps of {sweep.fits} fits in {sum(walls):.4g} s"
            for method in methods:
                samples = log.fit_ms[("untraced", method)]
                metrics[f"fit_ms.{method}"], notes[f"fit_ms.{method}"] = host_metric(clock, samples, median_or_nan, "ms")
                notes[f"fit_ms.{method}"] += f"median over {len(samples)} sweeps of sweep wall / {sweep.fits} fits, two at a time"
            errors = defaultdict(dict)
            for c, rows in log.reference.items():
                for (method, g, r), (est_error, _) in rows.items():
                    errors[method][(sweep.configs[c].data, g, r)] = float(est_error)
            for method in REL_ERR_METHODS:
                ratios = [e / errors["OLS"][cell] for cell, e in errors[method].items() if cell in errors["OLS"]]
                metrics[f"rel_err.{method}"] = (median_or_nan(ratios), "ratio")
                notes[f"rel_err.{method}"] = f"median over {len(errors[method])} base seed x n_subs x replication cells"
            metrics["host_slowdown"], notes["host_slowdown"] = (clock.slowdown(), "ratio"), clock.note()
            return metrics, notes, log, None

        sweeps, untraced_wall, cpu, wall = sweep_runs(rbls, sweep, log, "untraced", 1, seconds / 2, clock)
        tracer = Tracer(PROBES)
        tracer.patch("rbls", TRACED_MODULES)
        try:
            _, traced_wall, _, _ = sweep_runs(rbls, sweep, log, "traced", sweeps, 0, clock)
        finally:
            tracer.unpatch()
        metrics, notes, table = layer_metrics(
            tracer.spans, sweeps * sweep.fits, "cli.main", traced_wall, untraced_wall,
            cpu / (wall * nproc),
        )
        notes["fits"] = f"{sweeps * sweep.fits} traced fits over {sweeps} sweeps; traced sweep wall {traced_wall:.4g} s"
        return metrics, notes, log, table
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


# -- output ---------------------------------------------------------------------


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def print_span_table(table):
    calls, self_s, total_s, fits = table
    print(f"spans per fit ({fits} fits): name calls self_ms total_ms")
    for name in sorted(calls, key=lambda n: -self_s[n]):
        print(f"  {name:36s} {calls[name] / fits:10.4g} {1000 * self_s[name] / fits:12.5g} {1000 * total_s[name] / fits:12.5g}")


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_env = {k: os.environ.get(k) for k in BLAS_ENV}
    # the sweep workload fixes its own thread count; RBLS_THREADS would override it
    os.environ.pop("RBLS_THREADS", None)
    try:
        rbls = load_program()
        declared = declared_metrics(args.trace)
    except (ProgramMissing, ImportError, OSError, KeyError, ValueError) as err:
        print(f"bench: cannot run: {err}", file=sys.stderr)
        return 2

    env = environment(args.seed, blas_env)
    print(f"rbls benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={json.dumps(v) if isinstance(v, str) and ' ' in v else v}" for k, v in env.items()))

    if args.workload == "sweep":
        metrics, notes, log, table = run_sweep_workload(rbls, args.seed, args.seconds, args.trace)
    else:
        metrics, notes, log, table = run_fit_workload(rbls, args.workload, args.seed, args.seconds, args.trace)

    if table is not None:
        metrics.update(span_metrics(table, [name for name, _ in declared]))
    failed = len(log.failed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.setdefault("peak_rss_mb", (rss_mb, "MB"))
    notes.setdefault("peak_rss_mb", "ru_maxrss of this process")
    fail_ratio = failed / log.attempted if log.attempted else 1.0
    print(f"{'fit_fail_ratio':40s} {fail_ratio:<14.6g} ratio  {failed}/{log.attempted} fits failed")
    for message in log.messages:
        print(f"  failure: {message}")
    if "fits" in notes:
        print(notes.pop("fits"))

    out = {}
    correct = failed == 0 and log.attempted > 0
    for name, unit in declared:
        if name not in metrics:
            print(f"bench: metric {name} is declared but not computed", file=sys.stderr)
            correct = False
            continue
        value, have_unit = metrics[name]
        if have_unit != unit or not math.isfinite(value):
            print(f"bench: metric {name} reads {value} {have_unit}, declared in {unit}", file=sys.stderr)
            correct = False
            value = None
        out[name] = {"value": value if value is None else float(value), "unit": unit}
    names = [name for name, _ in declared if name in metrics]
    for name in names + sorted(set(metrics) - set(names)):
        value, unit = metrics[name]
        print(f"{name:40s} {value:<14.6g} {unit:9s} {notes.get(name, '')}")
    if table is not None:
        print_span_table(table)
    print(json.dumps({"correct": correct, "attempted": log.attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
