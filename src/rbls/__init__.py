"""Randomized least squares with influence-weighted subsampling.

Fast approximate solvers for large overdetermined linear regressions whose
observed covariates may carry row-wise additive corruption, plus the exact
and sketched regression diagnostics (leverage, influence) the samplers are
built on, and a seeded benchmark harness with a CLI.
"""

from .datagen import (
    RegressionProblem,
    SplitProblem,
    Truth,
    gen_corrupted,
    gen_corrupted_split,
    gen_leverage_regime,
    gen_regime_split,
    load_airline_csv,
)
from .diagnostics import (
    DiagnosticsReport,
    compute_diagnostics,
    exact_leverage,
    histogram_l1_distance,
    influence,
    loo_coefficients,
)
from .estimators import (
    AIWS_LS,
    ARWS_LS,
    IWS_LS,
    LEV_LS,
    METHOD_NAMES,
    OLS,
    SRHT_LS,
    ULURU,
    EstimatorConfig,
    FitResult,
    fit,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    aggregate,
    emit_fig1_data,
    run_experiment,
)
from .linalg import LeastSquaresSolution, solve_ls
from .srht import (
    SketchOperator,
    apply_sketch,
    build_sketch,
    fwht_inplace,
    next_pow2,
)

__version__ = "0.1.0"

__all__ = [
    "AIWS_LS",
    "ARWS_LS",
    "DiagnosticsReport",
    "EstimatorConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "FitResult",
    "IWS_LS",
    "LEV_LS",
    "LeastSquaresSolution",
    "METHOD_NAMES",
    "OLS",
    "RegressionProblem",
    "SRHT_LS",
    "SketchOperator",
    "SplitProblem",
    "Truth",
    "ULURU",
    "aggregate",
    "apply_sketch",
    "build_sketch",
    "compute_diagnostics",
    "emit_fig1_data",
    "exact_leverage",
    "fit",
    "fwht_inplace",
    "gen_corrupted",
    "gen_corrupted_split",
    "gen_leverage_regime",
    "gen_regime_split",
    "histogram_l1_distance",
    "influence",
    "load_airline_csv",
    "loo_coefficients",
    "next_pow2",
    "run_experiment",
    "solve_ls",
]
