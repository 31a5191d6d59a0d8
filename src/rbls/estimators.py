"""The seven regression estimators behind one ``fit`` interface.

OLS            exact least squares on all rows: Cholesky of Z'Z, refined by
               CGLS only while its stop test fails, Householder QR when
               Z'Z is ill-conditioned.
SRHT_LS        least squares on a randomized Hadamard sketch of (Z, y).
LEV_LS         rows sampled proportional to exact leverage, then LS.
ULURU          sketched solve plus a bias correction that regresses the
               full residual through the sketched Gram factor.
IWS_LS         rows sampled proportional to 1/d_i (exact influence), then LS.
AIWS_LS        IWS_LS with the residuals of a CountSketch anchor refined by
               ANCHOR_STEPS preconditioned CGLS steps, and randomized
               leverages.
ARWS_LS        rows sampled proportional to 1/e_i^2 (one-shot residuals of
               a CountSketch anchor built as AIWS_LS's).

SRHT_LS and ULURU, the paper's baselines, solve an SRHT sketch.  AIWS_LS
and ARWS_LS each solve a CountSketch anchor built the same way; it is not a
stage, so they share no solve (ROADMAP item 8).  ``fit`` and a sweep run
the same closure (``_problem_fits``): input checks, the method's stages,
each made once per problem and keyed by what it computes and reads
(``_Stages``), then the finish.  OLS, LEV_LS and IWS_LS share one Gram
factor, one exact solve and one exact leverage pass.  The samplers' score
stages turn rows into probabilities for ``draw``, which draws n_subs rows
with replacement and solves unweighted LS on them.
All estimators are deterministic given (data, config): each randomized
ingredient draws from a role-tagged child stream of ``config.seed``, so e.g.
AIWS_LS and IWS_LS share the row-sampling stream but not the sketch stream.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.sparse import csc_array

from .diagnostics import (
    DiagnosticsReport,
    _influence_report,
    _leverage,
    _sign_projection,
)
from .errors import InvalidParamsError, RankDeficientError
from .linalg import _cgls, _factored_ls, _gradient, _gram_factor, _ls_inputs, solve_ls
from .sampling import inverse_score_probabilities
from .seeding import ROLE_SAMPLING, ROLE_SKETCH, _is_integer, check_seed, spawn_rng, spawn_seed
from .srht import _sketch_columns, build_sketch, next_pow2

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

# Rows per column of Z in the CountSketch anchor that AIWS_LS and ARWS_LS
# share.  A CountSketch costs O(nnz(Z)) whatever its row count, and a
# bigger one is a better-conditioned preconditioner: each of AIWS_LS's CGLS
# steps gains more and ARWS_LS's one-shot residuals come closer to exact.
# Median ARWS_LS error / OLS error on gen_corrupted(n, p, pi=0.3,
# sigma_x=1, sigma_w=0.4, sigma_eps=0.1), 40 problems x 3 draws at
# 5000 x 20 and 24 problems x 2 draws on desk (20000 x 50, n_subs 400), and
# the CGLS steps that took AIWS_LS's anchor to REFINE_TOL on those desk fits:
#
#                                   ARWS_LS, 5000 x 20     ARWS_LS  AIWS_LS
#     anchor                        n_subs 40  n_subs 80     desk     steps
#     CountSketch, max(n_subs, 8p)     1.15       0.91       0.77    19-20
#     CountSketch, max(n_subs, 16p)    0.98       0.69       0.57    14-16
#     CountSketch, max(n_subs, 32p)    0.80       0.56       0.46    12-13
#
# An SRHT of max(2p, p ln p, n_subs) rows takes 19 steps on desk.  Past 32p
# the steps fall slowly: 10-11 at 64p and 9 at 128p, for desk AIWS_LS fits
# of 11.5 and 11.8 ms against 12.5 ms at 32p (a loop on a 2-core host).
# The anchor's Gram product costs rows p^2, though: a sixth of the exact
# n p^2 at 32p on 100000 x 500, and a third at 64p.  The table was measured
# on gen_corrupted draws made before W was drawn for the masked rows only,
# which changed every corrupted problem; it is kept as measured.
ANCHOR_ROWS_PER_COLUMN = 32

# CGLS steps that refine AIWS_LS's anchor residuals before they are scored.
# The draw needs scores good to a few digits only (the floor sits at
# WEIGHT_FLOOR_RATIO of the top score), and refining to REFINE_TOL took 12
# steps on desk.  Median AIWS_LS error / OLS error, refining by k steps
# (12 problems x 2 draws on desk, 40 x 2 at 5000 x 20 with n_subs 80,
# 3 x 2 at 2^17 x 64 with n_subs 1024):
#
#                       k = 0     1      2      3    to REFINE_TOL   IWS_LS
#     20000 x 50        0.448  0.395  0.391  0.382      0.409        0.336
#     5000 x 20         0.657  0.530  0.580  0.513      0.530        0.514
#     2^17 x 64         0.382  0.324  0.285  0.259      0.302        0.271
#
# Two steps keep the accuracy of a full refinement: the paired difference
# of error / OLS error, 2 steps minus REFINE_TOL, had a mean of +0.016
# (95% bootstrap CI over problems -0.009 to +0.040) on 40 desk problems x
# 3 draws, and -0.020 (-0.048 to +0.005) on 10 x 3 at 2^17 x 64.  They
# halve the fit: desk AIWS_LS fits took 20.7 ms to REFINE_TOL and 10.2 ms
# at 2 steps (medians of 10 benchmark runs each on a 2-core host).  Like
# the table above ANCHOR_ROWS_PER_COLUMN, these figures were measured on
# corrupted problems drawn before W was drawn for the masked rows only.
ANCHOR_STEPS = 2


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration shared by all estimators.

    n_subs is the number of drawn rows (duplicates possible).  A config is
    valid when built: a known method, n_subs None or an integer >= 1, and
    an integer seed >= 0.  The bounds that depend on the data are checked
    by each fit (``_inputs``).
    """

    method: str
    n_subs: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHOD_CODES:
            raise InvalidParamsError(
                f"unknown method {self.method!r}; expected one of {METHOD_NAMES}"
            )
        if self.n_subs is not None and not _is_integer(self.n_subs, 1):
            raise InvalidParamsError(f"need n_subs None or an integer >= 1, got {self.n_subs!r}")
        check_seed(self.seed)


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


def _inputs(Z, y, cfg):
    """float64 (Z, y), Z C-contiguous, for a fit that keeps cfg.n_subs rows.

    Row samplers draw from the n rows, so their n_subs is bounded by n;
    sketches draw from the padded Hadamard domain of next_pow2(n) rows, and
    OLS reads no n_subs.
    Only Z's shape and y's entries (through their sum) are checked here:
    ``linalg._gram_factor`` checks Z's entries through the diagonal of the
    first Gram matrix a fit forms, of Z or of a sketch in which every row of Z has a
    +-1 or +-scale coefficient.  So no fit passes over Z for the check, and
    a bad n_subs is reported before a NaN in Z.
    """
    Z, y = _ls_inputs(Z, y)
    if cfg.method == OLS:
        return Z, y
    n, p = Z.shape
    if cfg.n_subs is None:
        raise InvalidParamsError(f"{cfg.method} requires n_subs")
    if cfg.n_subs < p:
        raise InvalidParamsError(f"need n_subs >= p, got {cfg.n_subs} < {p}")
    bound = next_pow2(n) if cfg.method in _SKETCHES else n
    if cfg.n_subs > bound:
        raise InvalidParamsError(f"need n_subs <= {bound}, got {cfg.n_subs}")
    return Z, y


def draw(Z, y, cfg, probs, fallback, report):
    """Finish of the row samplers, after their score stage: draw
    cfg.n_subs rows i.i.d. from ``probs`` on the ROLE_SAMPLING child stream
    of cfg.seed and refit them by plain LS."""
    idx = spawn_rng(cfg.seed, ROLE_SAMPLING).choice(Z.shape[0], int(cfg.n_subs), p=probs)
    sol = _solve_small(Z[idx], y[idx], f"subsample of {cfg.n_subs} rows")
    return FitResult(
        cfg.method, sol.coefficients, idx, probs, diagnostics=report, uniform_fallback=fallback
    )


def _solve_small(Zs, ys, what):
    """solve_ls on a sketch or subsample; a rank loss names ``what``."""
    try:
        return solve_ls(Zs, ys)
    except RankDeficientError as err:
        raise RankDeficientError(f"{what} lost rank ({err}); increase n_subs") from err


def _anchor(Z, y, rows, seed):
    """Solve the CountSketch anchor system (S Z, S y), S of ``rows`` x n.

    Column i of S holds one sign: row i of the data lands in bucket h_i with
    sign s_i, drawn in that order from the ROLE_SKETCH child stream of
    ``seed`` (Clarkson and Woodruff, STOC 2013).  S @ Z is a sparse
    product, O(n p) with no BLAS call.
    """
    n = Z.shape[0]
    rng = spawn_rng(seed, ROLE_SKETCH)
    buckets = rng.integers(0, rows, n)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    S = csc_array((signs, buckets, np.arange(n + 1)), shape=(rows, n))
    return _solve_small(S @ Z, S @ y, f"sketch with {rows} rows")


def _anchor_rows(Z, cfg):
    """Rows of the CountSketch anchor of AIWS_LS and of ARWS_LS."""
    return min(Z.shape[0], max(ANCHOR_ROWS_PER_COLUMN * Z.shape[1], cfg.n_subs))


def _exact_factor(stages, Z, y):
    """The factor stage of solve_ls: ``_gram_factor(Z)``, R or None."""
    return _gram_factor(Z)


def _exact_solve(stages, Z, y):
    """solve_ls(Z, y), from the shared factor stage."""
    return _factored_ls(Z, y, stages(_exact_factor))


def _exact_leverage(stages, Z, y):
    """Exact leverages from the factor stage's R, or from the Householder
    solve's where the factor is refused: those of compute_diagnostics(Z, y)
    unless solve_ls falls back as its refinement reached REFINE_MAX_ITER."""
    R = stages(_exact_factor)
    if R is None:
        R = stages(_exact_solve).r_factor
    return _leverage(Z, R, np.eye(Z.shape[1]))


def _lev_scores(stages, Z, y):
    """LEV_LS: sample rows proportional to exact leverage, then unweighted LS."""
    lev = stages(_exact_leverage)
    return lev / lev.sum(), False, None


def _iws_scores(stages, Z, y):
    """IWS_LS: rows drawn proportional to 1/d_i (floored, see
    ``sampling.WEIGHT_FLOOR_RATIO``), d_i the influence read from the exact
    solve's residuals and the exact leverages, then unweighted LS."""
    report = _influence_report(stages(_exact_solve), stages(_exact_leverage), "exact")
    return (*inverse_score_probabilities(report.influences), report)


def _aiws_scores(stages, Z, y, seed, rows):
    """AIWS_LS: influence-weighted subsampling with sketched diagnostics.

    Its own CountSketch anchor (``_anchor``) and that anchor's triangular
    factor R are reused twice.  Residuals: the anchor's solution
    starts a CGLS solve of the full problem, right-preconditioned by R
    (``linalg._cgls``), which takes ``ANCHOR_STEPS`` steps at O(n p) each
    rather than running to ``linalg.REFINE_TOL``: the draw needs the scores
    to a few digits only.  Leverages: Z R^{-1} is the basis for randomized
    leverage scores with ceil(p / 2) sign columns
    (``diagnostics._sign_projection``), which stay approximate.  Sampling
    then mirrors IWS_LS with the approximate influence, and the result's
    ``diagnostics`` is that report, in mode "approximate".
    """
    p = Z.shape[1]
    anchor = _anchor(Z, y, rows, seed)
    # _cgls updates the anchor's coefficients in place: solve_ls made that
    # array for this anchor alone, and its R passed solve_ls's checks
    with np.errstate(over="ignore", invalid="ignore"):  # _gradient handles an overflow
        refined = _cgls(Z, y, anchor.coefficients, anchor.r_factor, 0.0, ANCHOR_STEPS)
    pi2 = _sign_projection(p, math.ceil(p / 2), seed)
    report = _influence_report(refined, _leverage(Z, refined.r_factor, pi2), "approximate")
    return (*inverse_score_probabilities(report.influences), report)


def _arws_scores(stages, Z, y, seed, rows):
    """ARWS_LS: residual-weighted subsampling, rows drawn proportional to 1/e_i^2.

    Residuals are the one-shot residuals y - Z b of its own CountSketch
    anchor (``_anchor``), without AIWS_LS's refinement; the floor keeps
    exactly-fit rows from receiving unbounded weight.
    """
    sol1 = _anchor(Z, y, rows, seed)
    e_approx = y - Z @ sol1.coefficients
    with np.errstate(over="ignore"):  # inverse_score_probabilities rejects an inf
        scores = e_approx**2
    return (*inverse_score_probabilities(scores), None)


def _sketch(stages, Z, y, seed, rows):
    """The stage of SRHT_LS and ULURU: the ``rows`` kept rows of the SRHT
    sketch of [Z | y] before their scale (``srht._sketch_columns``), drawn
    from the ROLE_SKETCH child stream of ``seed``.  Its first k rows are
    the rows of the same seed's k-row sketch, bit for bit."""
    op = build_sketch(Z.shape[0], rows, spawn_seed(seed, ROLE_SKETCH))
    return _sketch_columns(op, [Z, y])


def _sketch_solution(Z, cfg, rows):
    """solve_ls on the first cfg.n_subs of the kept ``rows``, scaled by
    sqrt(n' / n_subs) as ``srht.apply_sketch`` scales its output."""
    k = cfg.n_subs
    sketch = rows[:k] * np.sqrt(next_pow2(Z.shape[0]) / k)
    return _solve_small(sketch[:, :-1], sketch[:, -1], f"sketch with {k} rows")


def _fit_uluru(Z, y, sol1):
    """Two-step sketched estimator: the sketched solve ``sol1`` (SRHT_LS's
    fit) plus a bias correction.

    Step two is one gradient step from the sketched b1, preconditioned by
    the sketch's Gram factor R: b1 + c with c = R^{-1} R^{-T} Z'r, r = y - Z b1,
    which solves (Pi Z)'(Pi Z) c = Z'r (``linalg._gradient``, as in CGLS).
    On a consistent system r = 0 and the correction vanishes.

    Relation to ULURU as published (Dhillon, Lu, Foster and Ungar, NIPS
    2013).  There, n_subs rows of the Hadamard-domain data H D Z are drawn
    without replacement, and the correction regresses the residual of the
    n' - n_subs held-out rows, scaled by n_subs / (n' - n_subs).  Here
    Z'r = (H D Z)'(H D r), the sampled rows' part of it vanishes at b1, and
    the Gram factor carries the sketch's scale n' / n_subs.  The sketch
    draws its rows without replacement too, so c is the published correction
    times (n' - n_subs) / n'.  The paper promises an O(sqrt(p / n)) error
    above a subsample threshold and no constant.  Measured ratios of the
    median error to OLS on the acceptance grid (gaussian, n = 256, p = 16,
    n_subs = 64, 20 replications, base seeds 6 / 7 / 8), re-measured on
    the nested draw of ``srht.build_sketch``:

        this function                                      1.87 / 1.86 / 1.75
        published form (c scaled by n' / (n' - n_subs))    2.75 / 2.72 / 2.64
        this function on a with-replacement sketch         3.26 / 2.55 / 2.80

    The with-replacement sketch keeps the first n_subs indices of the same
    stream, repeats included.  The draw before the nested one read 2.62 /
    1.57 / 1.87, 3.94 / 2.36 / 2.76 and 2.99 / 2.89 / 2.82: the spread
    between draws is as large as the bound of 2 it is checked against.  At
    fixed n_subs = 64 the ratio grows with n: this function gives 9.64 at
    n = 4096 (base seed 6; 10.70 on the earlier draw).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _gradient handles an overflow
        gradient, _ = _gradient(sol1.r_factor, Z, y - Z @ sol1.coefficients)
    return sol1.coefficients + dtrsv(sol1.r_factor, gradient)


# Each sampler's score stage, to the (probabilities, fallback, report) of draw
_SCORES = {LEV_LS: _lev_scores, IWS_LS: _iws_scores, AIWS_LS: _aiws_scores, ARWS_LS: _arws_scores}
_SKETCHES = (SRHT_LS, ULURU)


class _Stages:
    """The stages of one fit over ``shared``, the stored stages of its
    problem (Z, y).  ``stages(stage, *reads)`` is stage(stages, Z, y,
    *reads), made once per problem under (stage, *reads), what it computes
    and reads; a stage fetches the stages it needs by the same call.  One
    given ``rows`` reads them last, not in its key, and serves calls for at
    most those rows.  ``reused_s`` charges the fit the seconds of each stage
    it reused, nested ones included, each once: wall_time_s is from scratch."""

    def __init__(self, shared, Z, y):
        self.shared, self.Z, self.y = shared, Z, y
        self.reached, self.charged, self.made_s, self.reused_s = {}, set(), 0.0, 0.0

    def __call__(self, stage, *reads, rows=None):
        key = (stage, *reads)
        out, costs, made = self.shared.get(key, (None, None, -1))  # -1: not made; out may be None
        if made < (rows or 0):  # the fit's own clock times it
            outer, self.reached = self.reached, {}
            t0, made_s = time.perf_counter(), self.made_s
            out = stage(self, self.Z, self.y, *reads, *(() if rows is None else (rows,)))
            own_s = time.perf_counter() - t0 - (self.made_s - made_s)
            costs, self.reached = self.reached, outer
            costs[key], self.made_s = own_s, self.made_s + own_s
            self.shared[key] = out, costs, rows or 0
            self.charged.add(key)
        else:
            self.reused_s += sum(costs[k] for k in costs.keys() - self.charged)
            self.charged.update(costs)
        self.reached.update(costs)
        return out


def fit(problem, cfg):
    """Fit one estimator to a problem and record wall time.  A sweep runs
    the same closure (``_problem_fits``), so both get the same fit; a fresh
    one per call shares nothing with another call."""
    return _problem_fits(problem)(cfg)


def _problem_fits(problem):
    """Fits of many configs of one problem by one closure, which ``fit``
    runs for one config: input checks, the stages (``_Stages``), then OLS's
    exact solve, the solve of the seed's sketch (ULURU's corrected), or
    ``draw`` on the scores in ``_SCORES``.  Configs that differ only in
    n_subs share the scores of LEV_LS and IWS_LS, of AIWS_LS and ARWS_LS up
    to ANCHOR_ROWS_PER_COLUMN p, and a sketch up to its kept rows."""
    shared = {}

    def fit_config(cfg):
        t0 = time.perf_counter()
        Z, y = _inputs(problem.Z, problem.y, cfg)
        stages = _Stages(shared, Z, y)
        if cfg.method == OLS:
            result = FitResult(OLS, stages(_exact_solve).coefficients)
        elif cfg.method in _SKETCHES:
            sol = _sketch_solution(Z, cfg, stages(_sketch, cfg.seed, rows=cfg.n_subs))
            coef = _fit_uluru(Z, y, sol) if cfg.method == ULURU else sol.coefficients
            result = FitResult(cfg.method, coef)
        else:
            reads = () if cfg.method in (LEV_LS, IWS_LS) else (cfg.seed, _anchor_rows(Z, cfg))
            result = draw(Z, y, cfg, *stages(_SCORES[cfg.method], *reads))
        return replace(result, wall_time_s=time.perf_counter() - t0 + stages.reused_s)

    return fit_config
