"""Command-line entry points.

rbls run --config <json>   sweep methods x n_subs x replications, write CSVs
rbls fig1 ...              leverage/influence histograms on a corrupted draw
rbls airline --train <csv> fit methods to an airline-delay file

Exit codes: 0 success; 2 configuration error (a bad config, flag or input
array); 3 data error: an unreadable or malformed file, or data no fit can
use, such as a rank-deficient design or a draw with no corrupted rows.
"""

import argparse
import json
import os
import sys

from .datagen import gen_corrupted
from .errors import ConfigError, InvalidInputError, InvalidParamsError, RblsError
from .estimators import OLS
from .harness import (
    AIRLINE,
    _check_threads,
    _output_dir,
    aggregate,
    config_from_dict,
    emit_fig1_data,
    run_experiment,
    write_aggregates_csv,
    write_gnuplot_script,
    write_results_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _build_parser():
    parser = argparse.ArgumentParser(prog="rbls", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    run.add_argument("--config", required=True, help="path to a JSON config file")
    _sweep_flags(run)

    fig1 = sub.add_parser("fig1", help="emit leverage/influence histogram data")
    fig1.add_argument("--n", type=int, default=20000)
    fig1.add_argument("--p", type=int, default=50)
    fig1.add_argument("--pi", type=float, default=0.3)
    fig1.add_argument("--sigma-x", type=float, default=1.0)
    fig1.add_argument("--sigma-w", type=float, default=0.4)
    fig1.add_argument("--sigma-eps", type=float, default=0.1)
    fig1.add_argument("--bins", type=int, default=50)
    _seed_out_flags(fig1)

    air = sub.add_parser("airline", help="fit estimators to an airline-delay CSV")
    air.add_argument("--train", required=True, help="path to the CSV file")
    air.add_argument("--n-train", type=int, default=13000)
    air.add_argument("--n-test", type=int, default=5000)
    air.add_argument("--methods", nargs="+", default=[OLS])
    air.add_argument("--n-subs", type=int, nargs="+", default=None)
    air.add_argument("--replications", type=int, default=1)
    _sweep_flags(air)
    return parser


def _seed_out_flags(sub):
    sub.add_argument("--seed", type=int, default=None, help="override the base seed")
    sub.add_argument("--out", default=None, help="output directory")


def _sweep_flags(sub):
    _seed_out_flags(sub)
    sub.add_argument("--deterministic", action="store_true",
                     help="byte-stable outputs: no timestamp, zeroed wall times")
    sub.add_argument("--threads", type=int, default=1,
                     help="replication workers, this thread among them")
    sub.add_argument("--gnuplot", action="store_true", help="also write plot.gp")


def _sweep(raw, args):
    """Run the sweep of a raw config dict with --seed and --out applied, and
    write results.csv, aggregates.csv and, under --gnuplot, plot.gp."""
    if args.seed is not None:
        raw["base_seed"] = args.seed
    if args.out is not None:
        raw["output_dir"] = args.out
    cfg = config_from_dict(raw)
    _check_threads(args.threads)
    out = cfg.output_dir
    with _output_dir(out):
        results = run_experiment(cfg, threads=args.threads)
    write_results_csv(results, os.path.join(out, "results.csv"), args.deterministic)
    write_aggregates_csv(aggregate(results), os.path.join(out, "aggregates.csv"), args.deterministic)
    if args.gnuplot:
        write_gnuplot_script(cfg.methods, os.path.join(out, "plot.gp"))
    return EXIT_OK


def _cmd_run(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return _sweep(raw, args)


def _cmd_fig1(args):
    if args.bins < 2:
        raise ConfigError(f"need --bins >= 2, got {args.bins}")
    out_dir = args.out or "."
    problem = gen_corrupted(
        args.n, args.p, args.pi, args.sigma_x, args.sigma_w, args.sigma_eps,
        args.seed if args.seed is not None else 0,
    )
    distances = emit_fig1_data(problem, out_dir, bins=args.bins)
    for name, value in distances.items():
        print(f"{name} l1 distance: {value:.4f}")
    return EXIT_OK


def _cmd_airline(args):
    raw = {
        "scenario": AIRLINE,
        "methods": args.methods,
        # the OLS-only default needs no subsample size
        "n_subs_grid": sorted(args.n_subs or [args.n_train]),
        "replications": args.replications,
        "n": args.n_train,
        "n_test": args.n_test,
        "airline_path": args.train,
    }
    return _sweep(raw, args)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "fig1": _cmd_fig1, "airline": _cmd_airline}
    try:
        return handlers[args.command](args)
    except (ConfigError, InvalidParamsError, InvalidInputError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (RblsError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
