"""Experiment runner: sweeps over methods x n_subs x replications.

Within a replication every method and grid point sees the same generated
problem (paired comparison); data are regenerated per replication.  Each fit
draws its seed from hash(base_seed, ROLE_FIT, method, replication), recorded
in the output, so any single row can be reproduced in isolation.  A method's
grid points share that seed, and so its random streams (common random
numbers): a sampler's draw at a smaller n_subs is a prefix of its draw at a
larger one.  What a method computes without reading n_subs runs once per
replication (``estimators._problem_fits``).

``run_experiment(cfg, threads=N)`` runs whole replications on N workers:
the calling thread and N - 1 pool threads.  Each worker generates the
split it fits, so at most N splits are in memory at once, and the rows do
not depend on N.
"""

import csv
import datetime
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import estimators
from .datagen import (
    REGIMES,
    gen_corrupted_split,
    gen_regime_split,
    load_airline_csv,
)
from .diagnostics import DEFAULT_HISTOGRAM_BINS, _check_bins, _histogram_pair, compute_diagnostics
from .errors import ConfigError, MissingCorruptedError, MissingTruthError, RblsError
from .estimators import EstimatorConfig, METHOD_CODES
from .seeding import ROLE_DATA, ROLE_FIT, _is_integer, spawn_seed

CORRUPTED = "corrupted"
AIRLINE = "airline"
SCENARIOS = (CORRUPTED,) + REGIMES + (AIRLINE,)

RESULTS_HEADER = "method,n_subs,replication,seed,est_error,rmse,wall_time_ms,error"


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: scenario x methods x n_subs_grid x replications.

    For simulated scenarios ``n``/``p`` size the training problem and
    ``pi``/``sigma_*`` parameterize the corruption; for the airline
    scenario ``n`` is the number of training rows taken from
    ``airline_path`` and the generator fields are ignored.  A config is
    checked when built: every int field is >= 1 but ``base_seed`` >= 0,
    ``methods`` names known methods once each, and ``n_subs_grid`` is
    strictly increasing, from p up (from 1 up for the airline scenario).
    """

    scenario: str
    methods: tuple
    n_subs_grid: tuple
    replications: int
    n: int = 20000
    p: int = 50
    n_test: int = 1000
    pi: float = 0.3
    sigma_x: float = 1.0
    sigma_w: float = 0.4
    sigma_eps: float = 0.1
    base_seed: int = 0
    output_dir: str = "."
    airline_path: str | None = None

    def __post_init__(self):
        """Raise ConfigError for the first invalid field."""
        for field in fields(self):
            # a float field takes an integer too; numpy scalars pass, so
            # configs built in code keep working
            value = getattr(self, field.name)
            number = _is_integer(value) or (
                field.type is float and isinstance(value, (float, np.floating))
            )
            if field.type in (int, float) and not number:
                raise ConfigError(
                    f"{field.name} must be a number of type {field.type.__name__}, got {value!r}"
                )
            low = 0 if field.name == "base_seed" else 1
            if field.type is int and value < low:
                raise ConfigError(f"need {field.name} >= {low}, got {value}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if not self.methods:
            raise ConfigError("methods list is empty")
        for m in self.methods:
            if m not in METHOD_CODES:
                raise ConfigError(f"unknown method {m!r}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods must not repeat, got {list(self.methods)!r}")
        grid = self.n_subs_grid
        if not all(_is_integer(g) for g in grid):
            raise ConfigError(f"n_subs_grid entries must be integers, got {list(grid)!r}")
        if not grid:
            raise ConfigError("n_subs_grid is empty")
        if grid[0] < 1 or any(a >= b for a, b in zip(grid, grid[1:])):
            raise ConfigError(
                f"n_subs_grid must be positive and strictly increasing, got {list(grid)!r}"
            )
        if self.scenario != AIRLINE:
            if self.n <= self.p:
                raise ConfigError(f"need n > p, got n={self.n}, p={self.p}")
            if grid[0] < self.p:
                raise ConfigError(f"every n_subs grid value must be >= p = {self.p}")
        if self.scenario == AIRLINE and not self.airline_path:
            raise ConfigError("airline scenario requires airline_path")


@dataclass(frozen=True)
class ExperimentResult:
    method: str
    n_subs: int
    replication: int
    seed: int
    est_error: float | None
    rmse: float | None
    wall_time_ms: float | None
    error: str = ""


def config_from_dict(raw):
    """Build an ExperimentConfig from a parsed JSON object."""
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "methods" not in raw or "n_subs_grid" not in raw or "scenario" not in raw:
        raise ConfigError("config requires scenario, methods and n_subs_grid")
    for key in ("methods", "n_subs_grid"):
        if isinstance(raw[key], str):  # tuple() would split it into characters
            raise ConfigError(f"{key} must be a list, got the string {raw[key]!r}")
    try:
        return ExperimentConfig(
            **{
                **raw,
                "methods": tuple(raw["methods"]),
                "n_subs_grid": tuple(raw["n_subs_grid"]),
            }
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad config value: {err}") from err


def _generate_split(cfg, replication):
    seed = spawn_seed(cfg.base_seed, ROLE_DATA, replication)
    if cfg.scenario == CORRUPTED:
        return gen_corrupted_split(
            cfg.n,
            cfg.n_test,
            cfg.p,
            cfg.pi,
            cfg.sigma_x,
            cfg.sigma_w,
            cfg.sigma_eps,
            seed,
        )
    return gen_regime_split(cfg.n, cfg.n_test, cfg.p, cfg.scenario, seed)


def _run_replication(cfg, replication, split):
    train, test = split.train, split.test
    beta = train.truth.beta if train.truth is not None else None
    out = []
    fit = estimators._problem_fits(train)
    for method in cfg.methods:
        fit_seed = spawn_seed(cfg.base_seed, ROLE_FIT, METHOD_CODES[method], replication)
        for n_subs in cfg.n_subs_grid:
            try:
                result = fit(EstimatorConfig(method=method, n_subs=int(n_subs), seed=fit_seed))
            except RblsError as err:
                metrics = (None, None, None, f"{type(err).__name__}: {err}")
            else:
                coef = result.coefficients
                if np.isfinite(coef).all():
                    metrics = (
                        float(np.linalg.norm(coef - beta)) if beta is not None else None,
                        _rms(test.y - test.Z @ coef),
                        result.wall_time_s * 1000.0,
                        "",
                    )
                else:  # no metric of such a fit means anything; aggregate skips failed rows
                    metrics = (None, None, None, "fit returned NaN or Inf coefficients")
            out.append(ExperimentResult(method, int(n_subs), replication, fit_seed, *metrics))
    return out


def _rms(r):
    """Root mean square of r.  Finite entries whose squares overflow are
    scaled by s = max|r| first, s sqrt(mean((r / s)^2)); otherwise the
    plain formula, bit for bit."""
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(r**2)))
    if math.isinf(rms) and np.isfinite(r).all():
        s = np.abs(r).max()
        rms = float(s * np.sqrt(np.mean((r / s) ** 2)))
    return rms


def _check_threads(threads):
    if threads < 1:
        raise ConfigError(f"need threads >= 1, got {threads}")


def run_experiment(cfg, threads=1):
    """Run the full sweep; deterministic result set given cfg.

    Fit failures, and fits whose coefficients are not all finite, are
    recorded in the row's ``error`` field and the run continues.  Rows come
    back sorted by (method, n_subs, replication) whatever the execution
    order.  ``threads`` counts the workers, this thread among them; below
    1 it is a ConfigError.
    """
    _check_threads(threads)
    shared = None
    if cfg.scenario == AIRLINE:
        shared = load_airline_csv(cfg.airline_path, cfg.n, cfg.n_test)

    def replication(rep):
        split = _generate_split(cfg, rep) if shared is None else shared
        return _run_replication(cfg, rep, split)

    reps = range(cfg.replications)
    # ``threads`` workers: this thread runs replications 0, threads,
    # 2 threads, ... and a pool of threads - 1 runs the rest.  Each worker
    # generates the split it then fits (numpy's Generator releases the GIL
    # while it fills arrays, so two splits are drawn at once) and drops it
    # before its next one, so at most ``threads`` splits are alive.  The
    # caller is a worker because a pool of all ``threads`` adds one more
    # malloc arena: on the benchmark's 5000 x 20 sweep at two threads
    # (2-core host) its peak RSS read 2.2% more in the median of 10 runs,
    # up to 5.8%, and 3.2-3.6% more in 3 later runs, at the same speed.
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            rest = [pool.submit(replication, rep) for rep in reps if rep % threads]
            try:
                chunks = [replication(rep) for rep in reps[::threads]]
                chunks.extend(f.result() for f in rest)
            except BaseException:  # an error or interrupt ends the sweep without the queued rest
                pool.shutdown(cancel_futures=True)
                raise
    else:
        chunks = [replication(rep) for rep in reps]
    results = [row for chunk in chunks for row in chunk]
    order = {m: i for i, m in enumerate(cfg.methods)}
    results.sort(key=lambda r: (order[r.method], r.n_subs, r.replication))
    return results


def _fmt(value):
    return "" if value is None else repr(float(value))


def write_results_csv(results, path, deterministic=False):
    """Write result rows; under deterministic mode the timestamp line is
    suppressed and wall times are zeroed so repeated runs are byte-identical."""
    buf = io.StringIO()
    if not deterministic:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        buf.write(f"# generated {stamp}\n")
    buf.write(RESULTS_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for r in results:
        wall = 0.0 if deterministic else r.wall_time_ms
        if r.error:
            wall = None
        writer.writerow(
            [r.method, r.n_subs, r.replication, r.seed,
             _fmt(r.est_error), _fmt(r.rmse), _fmt(wall), r.error]
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


@dataclass(frozen=True)
class AggregateRow:
    method: str
    n_subs: int
    n_ok: int
    n_failed: int
    est_error_mean: float | None
    est_error_sd: float | None
    rmse_mean: float | None
    rmse_sd: float | None
    wall_time_ms_mean: float | None
    wall_time_ms_sd: float | None


def _mean_sd(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    arr = np.asarray(vals, dtype=np.float64)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def aggregate(results):
    """Group results by (method, n_subs) and report mean/sd per metric.

    Errored rows are excluded from the statistics and counted in n_failed.
    """
    if not results:
        raise ConfigError("no results to aggregate")
    groups = {}
    for r in results:
        groups.setdefault((r.method, r.n_subs), []).append(r)
    rows = []
    for (method, n_subs), rs in groups.items():
        ok = [r for r in rs if not r.error]
        est_mean, est_sd = _mean_sd([r.est_error for r in ok])
        rmse_mean, rmse_sd = _mean_sd([r.rmse for r in ok])
        wall_mean, wall_sd = _mean_sd([r.wall_time_ms for r in ok])
        rows.append(
            AggregateRow(
                method, n_subs, len(ok), len(rs) - len(ok),
                est_mean, est_sd, rmse_mean, rmse_sd, wall_mean, wall_sd,
            )
        )
    return rows


AGGREGATE_HEADER = (
    "method,n_subs,n_ok,n_failed,est_error_mean,est_error_sd,"
    "rmse_mean,rmse_sd,wall_time_ms_mean,wall_time_ms_sd"
)


def write_aggregates_csv(rows, path, deterministic=False):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(AGGREGATE_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in rows:
            wall_mean = 0.0 if deterministic and r.wall_time_ms_mean is not None else r.wall_time_ms_mean
            wall_sd = 0.0 if deterministic and r.wall_time_ms_sd is not None else r.wall_time_ms_sd
            writer.writerow(
                [r.method, r.n_subs, r.n_ok, r.n_failed,
                 _fmt(r.est_error_mean), _fmt(r.est_error_sd),
                 _fmt(r.rmse_mean), _fmt(r.rmse_sd), _fmt(wall_mean), _fmt(wall_sd)]
            )


GNUPLOT_SCRIPT = """set datafile separator ','
set datafile missing ''
set key outside
set logscale y
set xlabel 'subsampled rows'
set ylabel 'estimation error (mean)'
plot for [i=1:words(methods)] 'aggregates.csv' \\
    using 2:(strcol(1) eq word(methods, i) ? $5 : NaN) \\
    with linespoints title word(methods, i)
"""


def write_gnuplot_script(methods, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("methods = '" + " ".join(methods) + "'\n")
        fh.write(GNUPLOT_SCRIPT)


@contextmanager
def _output_dir(path):
    """Make directory ``path`` before the work whose files go there, so a
    path that cannot be a directory fails first; if the work raises, remove
    the directory again unless it was there before."""
    existed = os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        if not existed:
            os.rmdir(path)
        raise


def emit_fig1_data(problem, out_dir, bins=DEFAULT_HISTOGRAM_BINS):
    """Histograms of leverage/influence split by corruption status.

    Writes ``fig1_histograms.csv`` (metric, group, bin edges, mass) and
    ``fig1_distances.csv`` (the two pooled-bin L1 distances) under
    ``out_dir`` and returns the distances as a dict.  ``out_dir`` is made
    before the O(n p^2) solve, so a path that cannot be a directory fails
    first.  Nothing is written unless every histogram could be made.
    """
    _check_bins(bins)
    if problem.truth is None:
        raise MissingTruthError("fig1 needs a simulated problem with stored truth")
    mask = problem.truth.corruption_mask
    if not mask.any():
        raise MissingCorruptedError("no corrupted rows; distances are undefined")
    if mask.all():
        raise MissingCorruptedError("no clean rows; distances are undefined")
    with _output_dir(out_dir):
        report = compute_diagnostics(problem.Z, problem.y)
        metrics = (("leverage", report.leverages), ("influence", report.influences))
        tables = {
            name: _histogram_pair(values[mask], values[~mask], bins) for name, values in metrics
        }
    with open(
        os.path.join(out_dir, "fig1_histograms.csv"), "w", encoding="utf-8", newline=""
    ) as fh:
        fh.write("metric,group,bin_left,bin_right,mass\n")
        writer = csv.writer(fh, lineterminator="\n")
        for name, (edges, corrupted, clean, _) in tables.items():
            for group, masses in (("corrupted", corrupted), ("clean", clean)):
                for k in range(bins):
                    writer.writerow(
                        [name, group, _fmt(edges[k]), _fmt(edges[k + 1]), _fmt(masses[k])]
                    )
    distances = {name: table[3] for name, table in tables.items()}
    with open(
        os.path.join(out_dir, "fig1_distances.csv"), "w", encoding="utf-8", newline=""
    ) as fh:
        fh.write("metric,l1_distance\n")
        for name, dist in distances.items():
            fh.write(f"{name},{dist!r}\n")
    return distances
