"""The seven regression estimators behind one ``fit`` interface.

OLS            exact Householder-QR least squares on all rows.
SRHT_LS        least squares on a randomized Hadamard sketch of (Z, y).
LEV_LS         rows sampled proportional to exact leverage, then LS.
ULURU          sketched solve plus a bias correction that regresses the
               full residual through the sketched Gram factor.
IWS_LS         rows sampled proportional to 1/d_i (exact influence), then LS.
AIWS_LS        IWS_LS with sketch-preconditioned CGLS residuals (exact to a
               tolerance) and randomized leverages.
ARWS_LS        rows sampled proportional to 1/e_i^2 (sketched residuals).

Sampling estimators draw rows with replacement and solve unweighted least
squares on the subsample; set ``importance_reweight`` to scale sampled rows
by 1/sqrt(n_subs p_i) instead.  All estimators are deterministic given
(data, config): each randomized ingredient draws from a role-tagged child
stream of ``config.seed``, so e.g. AIWS_LS and IWS_LS share the row-sampling
stream but not the sketch stream.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    DiagnosticsReport,
    approx_influence,
    approx_leverage,
    exact_leverage,
    influence,
)
from .errors import InvalidParamsError, RankDeficientError
from .linalg import apply_gram_inverse, as_matrix, as_vector, refine_ls, solve_ls
from .sampling import normalize_probabilities, sample_with_replacement
from .seeding import ROLE_SAMPLING, ROLE_SKETCH, spawn_rng, spawn_seed
from .srht import apply_sketch_pair, build_sketch

OLS = "OLS"
SRHT_LS = "SRHT_LS"
LEV_LS = "LEV_LS"
ULURU = "ULURU"
IWS_LS = "IWS_LS"
AIWS_LS = "AIWS_LS"
ARWS_LS = "ARWS_LS"

#: Canonical method order; the index doubles as the seeding code.
METHOD_NAMES = (OLS, SRHT_LS, LEV_LS, ULURU, IWS_LS, AIWS_LS, ARWS_LS)
METHOD_CODES = {name: code for code, name in enumerate(METHOD_NAMES)}

# Relative floor applied to influence (or squared-residual) scores before
# inverting them into sampling weights.  Inverse weights of a continuously
# distributed score have infinite mean, so without a meaningful floor the
# draw collapses onto the few smallest-score rows and the subsample loses
# rank; 1e-3 keeps the draw spread while still suppressing high-influence
# rows by three orders of magnitude.
DEFAULT_WEIGHT_FLOOR_RATIO = 1e-3


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration shared by all estimators.

    n_subs is the number of drawn rows (duplicates possible).  sketch_rows
    and projection_cols control the randomized leverage pipeline and default
    to max(2p, ceil(p ln p), n_subs) and ceil(p/2).
    """

    method: str
    n_subs: int | None = None
    sketch_rows: int | None = None
    projection_cols: int | None = None
    seed: int = 0
    weight_floor_ratio: float = DEFAULT_WEIGHT_FLOOR_RATIO
    importance_reweight: bool = False

    def __post_init__(self):
        if self.method not in METHOD_CODES:
            raise InvalidParamsError(
                f"unknown method {self.method!r}; expected one of {METHOD_NAMES}"
            )
        if self.weight_floor_ratio <= 0 or self.weight_floor_ratio >= 1:
            raise InvalidParamsError("weight_floor_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus the sampling record of the draw (if any)."""

    method: str
    coefficients: np.ndarray
    sampled_row_indices: np.ndarray | None = None
    sampling_probabilities: np.ndarray | None = None
    wall_time_s: float | None = None
    diagnostics: DiagnosticsReport | None = None
    uniform_fallback: bool = False


def _require_n_subs(cfg, n, p, bounded_by_n=True):
    if cfg.n_subs is None:
        raise InvalidParamsError(f"{cfg.method} requires n_subs")
    if cfg.n_subs < p:
        raise InvalidParamsError(f"need n_subs >= p, got {cfg.n_subs} < {p}")
    if bounded_by_n and cfg.n_subs > n:
        raise InvalidParamsError(f"need n_subs <= n, got {cfg.n_subs} > {n}")
    return int(cfg.n_subs)


def _resolve_sketch_rows(cfg, n, p):
    if cfg.sketch_rows is not None:
        return int(cfg.sketch_rows)
    rows = max(2 * p, math.ceil(p * math.log(p)) if p > 1 else 2)
    if cfg.n_subs is not None:
        rows = max(rows, int(cfg.n_subs))
    return min(rows, n)


def _resolve_projection_cols(cfg, p):
    return int(cfg.projection_cols) if cfg.projection_cols is not None else max(1, math.ceil(p / 2))


def _inverse_score_probs(scores, floor_ratio):
    """Sampling distribution proportional to 1/max(score, floor).

    Returns (probabilities, uniform_fallback).  Falls back to uniform when
    every score is zero (nothing to discriminate on).
    """
    scores = np.asarray(scores, dtype=np.float64)
    top = scores.max()
    if top <= 0.0:
        n = scores.size
        return np.full(n, 1.0 / n), True
    weights = 1.0 / np.maximum(scores, floor_ratio * top)
    return normalize_probabilities(weights), False


def _subsample_solve(Z, y, probs, n_subs, rng, reweight):
    idx = sample_with_replacement(probs, n_subs, rng)
    Zs, ys = Z[idx], y[idx]
    if reweight:
        scale = 1.0 / np.sqrt(n_subs * probs[idx])
        Zs = Zs * scale[:, None]
        ys = ys * scale
    try:
        sol = solve_ls(Zs, ys)
    except RankDeficientError as err:
        raise RankDeficientError(
            f"subsample of {n_subs} rows lost rank ({err}); increase n_subs"
        ) from err
    return sol, idx


def _sketched_solve(Z, y, rows, seed, op=None):
    """Sketch [Z | y] with one operator and solve the sketched system."""
    n = Z.shape[0]
    if op is None:
        op = build_sketch(n, rows, spawn_seed(seed, ROLE_SKETCH))
    Zs, ys = apply_sketch_pair(op, Z, y)
    try:
        sol = solve_ls(Zs, ys)
    except RankDeficientError as err:
        raise RankDeficientError(
            f"sketch with {rows} rows lost rank ({err}); increase n_subs"
        ) from err
    return sol


def fit_ols(Z, y):
    """Exact least squares on the full data."""
    sol = solve_ls(Z, y)
    return FitResult(OLS, sol.coefficients)


def fit_srht_ls(Z, y, cfg, *, sketch_op=None):
    """Least squares on an SRHT sketch with cfg.n_subs rows.

    ``sketch_op`` substitutes a prebuilt operator (test hook; a full-sample
    operator makes the sketch orthonormal and the fit equal to OLS).
    """
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n_subs = _require_n_subs(cfg, Z.shape[0], Z.shape[1], bounded_by_n=False)
    sol = _sketched_solve(Z, y, n_subs, cfg.seed, op=sketch_op)
    return FitResult(SRHT_LS, sol.coefficients)


def fit_lev_ls(Z, y, cfg):
    """Sample rows proportional to exact leverage, then unweighted LS."""
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n, p = Z.shape
    n_subs = _require_n_subs(cfg, n, p)
    sol = solve_ls(Z, y)
    probs = normalize_probabilities(exact_leverage(Z, sol))
    sub, idx = _subsample_solve(
        Z, y, probs, n_subs, spawn_rng(cfg.seed, ROLE_SAMPLING), cfg.importance_reweight
    )
    return FitResult(LEV_LS, sub.coefficients, idx, probs)


def fit_uluru(Z, y, cfg):
    """Two-step sketched estimator: sketched solve plus bias correction.

    Step two regresses the full residual r = y - Z b1 onto Z through the
    step-one sketched Gram factor, i.e. solves (Pi Z)'(Pi Z) c = Z'r, and
    returns b1 + c.  On a consistent system r = 0 and the correction
    vanishes.

    Relation to ULURU as published (Dhillon, Lu, Foster and Ungar, NIPS
    2013).  There, n_subs rows of the Hadamard-domain data H D Z are drawn
    without replacement, and the correction regresses the residual of the
    n' - n_subs held-out rows, scaled by n_subs / (n' - n_subs).  Here
    Z'r = (H D Z)'(H D r), the sampled rows' part of it vanishes at b1, and
    the Gram factor carries the sketch's scale n' / n_subs.  Apart from the
    with-replacement draw, c is therefore the published correction times
    (n' - n_subs) / n'.  The paper promises an O(sqrt(p / n)) error above a
    subsample threshold and no constant.  Measured ratios of the median
    error to OLS on the acceptance grid (gaussian, n = 256, p = 16,
    n_subs = 64, 20 replications, base seeds 6 / 7 / 8):

        this function                                      2.84 / 3.24 / 3.13
        published form, without-replacement draw           3.81 / 2.76 / 3.37
        this step on the same without-replacement draw     2.55 / 1.78 / 2.16
        this function with c scaled by n' / (n' - n_subs)  4.13 / 4.75 / 4.74

    The without-replacement rows depend on how the draw is made (these take
    rng.choice on the sketch's index stream).  At fixed n_subs = 64 the
    ratio grows with n: this function gives 9.44 at n = 4096.
    """
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n_subs = _require_n_subs(cfg, Z.shape[0], Z.shape[1], bounded_by_n=False)
    sol1 = _sketched_solve(Z, y, n_subs, cfg.seed)
    residual = y - Z @ sol1.coefficients
    correction = apply_gram_inverse(sol1, Z.T @ residual)
    return FitResult(ULURU, sol1.coefficients + correction)


def fit_iws_ls(Z, y, cfg, *, influences=None):
    """Influence-weighted subsampling with exact diagnostics.

    Full OLS gives residuals and leverages; rows are then drawn with
    probability proportional to 1/d_i (floored, see
    ``weight_floor_ratio``) and the subsample is refit.  ``influences``
    overrides the computed influence vector (test hook).
    """
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n, p = Z.shape
    n_subs = _require_n_subs(cfg, n, p)
    sol = solve_ls(Z, y)
    lev = exact_leverage(Z, sol)
    d, n_clamped = influence(sol.residuals, lev)
    report = DiagnosticsReport(sol.residuals, lev, d, "exact", n_clamped)
    scores = d if influences is None else as_vector(influences, "influences")
    probs, fallback = _inverse_score_probs(scores, cfg.weight_floor_ratio)
    sub, idx = _subsample_solve(
        Z, y, probs, n_subs, spawn_rng(cfg.seed, ROLE_SAMPLING), cfg.importance_reweight
    )
    return FitResult(IWS_LS, sub.coefficients, idx, probs, None, report, fallback)


def fit_aiws_ls(Z, y, cfg, *, residuals=None, leverages=None):
    """Influence-weighted subsampling with sketched diagnostics.

    One row sketch (sketch_rows rows) and its QR factor R are reused twice.
    Residuals: the sketched solution starts a CGLS solve of the full problem,
    right-preconditioned by R (``linalg.refine_ls``), which runs until the
    residuals are exact to ``linalg.REFINE_TOL`` at O(n p) per iteration.
    Leverages: Z R^{-1} is the basis for randomized leverage scores
    (``diagnostics.approx_leverage``), which stay approximate.  Sampling
    then mirrors IWS_LS with the approximate influence.  ``residuals`` /
    ``leverages`` override the sketched estimates (test hooks).
    """
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n, p = Z.shape
    n_subs = _require_n_subs(cfg, n, p)
    rows = _resolve_sketch_rows(cfg, n, p)
    proj_cols = _resolve_projection_cols(cfg, p)
    anchor_iterations = 0
    if residuals is None or leverages is None:
        sol1 = _sketched_solve(Z, y, rows, cfg.seed)
    if residuals is None:
        anchor = refine_ls(Z, y, sol1)
        e_approx, anchor_iterations = anchor.residuals, anchor.iterations
    else:
        e_approx = as_vector(residuals, "residuals")
    if leverages is None:
        l_approx = approx_leverage(
            Z, rows, proj_cols, cfg.seed, r_factor=sol1.r_factor
        )
    else:
        l_approx = as_vector(leverages, "leverages")
    d_approx, n_clamped = approx_influence(e_approx, l_approx)
    report = DiagnosticsReport(
        e_approx, l_approx, d_approx, "approximate", n_clamped, anchor_iterations
    )
    probs, fallback = _inverse_score_probs(d_approx, cfg.weight_floor_ratio)
    sub, idx = _subsample_solve(
        Z, y, probs, n_subs, spawn_rng(cfg.seed, ROLE_SAMPLING), cfg.importance_reweight
    )
    return FitResult(AIWS_LS, sub.coefficients, idx, probs, None, report, fallback)


def fit_arws_ls(Z, y, cfg):
    """Residual-weighted subsampling: draw rows proportional to 1/e_i^2.

    Residuals come from one SRHT solve; the floor keeps exactly-fit rows
    from receiving unbounded weight.
    """
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n, p = Z.shape
    n_subs = _require_n_subs(cfg, n, p)
    sol1 = _sketched_solve(Z, y, n_subs, cfg.seed)
    e_approx = y - Z @ sol1.coefficients
    probs, fallback = _inverse_score_probs(e_approx**2, cfg.weight_floor_ratio)
    sub, idx = _subsample_solve(
        Z, y, probs, n_subs, spawn_rng(cfg.seed, ROLE_SAMPLING), cfg.importance_reweight
    )
    return FitResult(ARWS_LS, sub.coefficients, idx, probs, None, None, fallback)


_DISPATCH = {
    OLS: lambda Z, y, cfg: fit_ols(Z, y),
    SRHT_LS: fit_srht_ls,
    LEV_LS: fit_lev_ls,
    ULURU: fit_uluru,
    IWS_LS: fit_iws_ls,
    AIWS_LS: fit_aiws_ls,
    ARWS_LS: fit_arws_ls,
}


def fit(problem, cfg):
    """Fit one estimator to a problem and record wall time."""
    t0 = time.perf_counter()
    result = _DISPATCH[cfg.method](problem.Z, problem.y, cfg)
    return replace(result, wall_time_s=time.perf_counter() - t0)
