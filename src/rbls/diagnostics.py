"""Regression diagnostics: residuals, leverage, influence, and their
sketched approximations.

Exact leverage is the hat-matrix diagonal l_i = z_i (Z'Z)^{-1} z_i',
read off as squared row norms of Z R^{-1} with R the stored triangular
factor (R'R = Z'Z).  Influence is the leave-one-out change in fit
d_i = e_i^2 l_i / (1 - l_i)^2, equal to (b - b_{-i})' Z'Z (b - b_{-i}).  The randomized approximation
replaces R with the triangular factor of a row-sketched copy of Z and
right-multiplies Z R^{-1} by a narrow sign projection Pi2 (Drineas,
Magdon-Ismail, Mahoney and Woodruff, JMLR 2012).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DegenerateRangeError,
    InvalidInputError,
    LeverageOneError,
    SketchRankDeficientError,
)
from .linalg import RANK_TOL, _ls_inputs, _solve_ls, as_matrix, as_vector
from .seeding import ROLE_PROJECTION, ROLE_SKETCH, spawn_rng, spawn_seed
from .srht import build_sketch, apply_sketch

# l_i -> 1 makes the influence denominator explode; clamp and count.
LEVERAGE_CLAMP = 1.0 - 1e-6
LOO_LEVERAGE_LIMIT = 1.0 - 1e-10

DEFAULT_HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-row residuals, leverages, influences, and provenance.

    mode is "exact" or "approximate"; leverage_clamp_count is the number of
    rows whose leverage was clamped to [0, 1 - 1e-6] before the influence
    formula was applied; anchor_iterations is the number of CGLS iterations
    that refined the residuals (0 when a direct solve or a caller gave them).
    """

    residuals: np.ndarray
    leverages: np.ndarray
    influences: np.ndarray
    mode: str
    leverage_clamp_count: int
    anchor_iterations: int = 0


def exact_leverage(Z, sol):
    """Hat-matrix diagonal for the design Z, given its least-squares solution.

    Forms W = Z R^{-1} and reads l_i as squared row norms of W, O(n p^2)
    total.  For a full-rank design 0 <= l_i <= 1 and sum(l) = p.
    """
    return _exact_leverage(as_matrix(Z, "Z"), sol)


def _exact_leverage(Z, sol):
    """exact_leverage of a Z the caller has already validated."""
    W = Z @ np.linalg.inv(sol.r_factor)
    return np.einsum("ij,ij->i", W, W)


def influence(e, l):
    """Cook-style influence d_i = e_i^2 l_i / (1 - l_i)^2, elementwise.

    Leverages are clamped into [0, 1 - 1e-6] first so exact-interpolation
    rows yield a large but finite score.  Returns (influences, clamp_count).
    """
    e = as_vector(e, "e")
    l = as_vector(l, "l")
    if e.shape != l.shape:
        raise InvalidInputError("residual and leverage vectors differ in length")
    clamped = np.clip(l, 0.0, LEVERAGE_CLAMP)
    n_clamped = int(np.count_nonzero(clamped != l))
    d = e**2 * clamped / (1.0 - clamped) ** 2
    return d, n_clamped


def compute_diagnostics(Z, y):
    """Full exact diagnostics for (Z, y): one OLS solve plus leverages."""
    return _exact_diagnostics(*_ls_inputs(Z, y))


def _exact_diagnostics(Z, y):
    """compute_diagnostics of a (Z, y) the caller has already validated."""
    sol = _solve_ls(Z, y)
    lev = _exact_leverage(Z, sol)
    d, n_clamped = influence(sol.residuals, lev)
    return DiagnosticsReport(sol.residuals, lev, d, "exact", n_clamped)


def loo_coefficients(Z, y, sol, i):
    """Coefficients after deleting row i, without refitting.

    Rank-one downdate of the normal equations:
    b_{-i} = b - (Z'Z)^{-1} z_i e_i / (1 - l_i).
    """
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    i = int(i)
    if not 0 <= i < Z.shape[0]:
        raise InvalidInputError(f"row index {i} out of range for n={Z.shape[0]}")
    R = sol.r_factor
    w = solve_triangular(R, Z[i], trans="T")
    l_i = float(w @ w)
    if l_i >= LOO_LEVERAGE_LIMIT:
        raise LeverageOneError(
            f"row {i} has leverage {l_i:.12f}; it fully determines its own fit"
        )
    gram_inv_zi = solve_triangular(R, w)
    e_i = float(sol.residuals[i])
    return sol.coefficients - gram_inv_zi * e_i / (1.0 - l_i)


def approx_leverage(
    Z,
    sketch_rows,
    projection_cols,
    seed,
    *,
    r_factor=None,
    right_projection=None,
):
    """Randomized leverage scores via two projections.

    R is the triangular factor of a row sketch of Z (``sketch_rows`` rows,
    >= p); leverage is read off as squared row norms of Z @ R^{-1} @ Pi2
    where Pi2 is a p x ``projection_cols`` matrix of i.i.d.
    +-1/sqrt(projection_cols) signs.  Z R^{-1} equals Z V Sigma^{-1} from
    the sketch's SVD times an orthogonal p x p matrix, so the two bases
    have the same row norms.  Cost after the sketch is
    O(n p projection_cols).

    Parameters
    ----------
    r_factor : ndarray, shape (p, p), optional
        Upper-triangular factor of a row sketch of Z.  Callers that already
        factored a sketch pass its R here and no factorization runs; the
        R of Z itself makes the basis step exact.
    right_projection : ndarray, optional
        Explicit Pi2, overriding the sign draw (identity recovers plain
        squared row norms of Z R^{-1}).

    Raises
    ------
    SketchRankDeficientError
        If min |r_jj| < 1e-12 max |r_jj|; increase sketch_rows.
    """
    Z = as_matrix(Z, "Z")
    n, p = Z.shape
    sketch_rows = int(sketch_rows)
    projection_cols = int(projection_cols)
    if sketch_rows < p:
        raise InvalidInputError(f"need sketch_rows >= p, got {sketch_rows} < {p}")
    if right_projection is None and not 1 <= projection_cols <= p:
        raise InvalidInputError(f"need 1 <= projection_cols <= {p}, got {projection_cols}")
    if r_factor is None:
        op = build_sketch(n, sketch_rows, spawn_seed(seed, ROLE_SKETCH))
        r_factor = np.linalg.qr(apply_sketch(op, Z), mode="r")
    R = np.asarray(r_factor, dtype=np.float64)
    if R.shape != (p, p):
        raise InvalidInputError(f"r_factor has shape {R.shape}, expected {(p, p)}")
    d = np.abs(np.diag(R))
    if d.max() == 0.0 or d.min() < RANK_TOL * d.max():
        raise SketchRankDeficientError(
            "row sketch of Z is rank deficient; increase sketch_rows"
        )
    return _approx_leverage(Z, R, projection_cols, seed, right_projection)


def _approx_leverage(Z, R, projection_cols, seed, right_projection=None):
    """approx_leverage's basis step for a validated Z and full-rank R."""
    if right_projection is None:
        p = R.shape[0]
        rng = spawn_rng(seed, ROLE_PROJECTION)
        pi2 = (rng.integers(0, 2, (p, projection_cols)) * 2 - 1) / np.sqrt(projection_cols)
    else:
        pi2 = np.asarray(right_projection, dtype=np.float64)
    basis = Z @ np.linalg.solve(R, pi2)
    return np.einsum("ij,ij->i", basis, basis)


def histogram_l1_distance(a, b, bins=DEFAULT_HISTOGRAM_BINS):
    """L1 distance between the normalized histograms of two samples.

    Both samples are binned with ``bins`` equal-width bins spanning their
    pooled min/max; each histogram is normalized to total mass 1, so the
    distance lies in [0, 2] (2 = disjoint supports).
    """
    a = as_vector(a, "a")
    b = as_vector(b, "b")
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("histogram inputs must be non-empty")
    if bins < 2:
        raise InvalidInputError(f"need bins >= 2, got {bins}")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        raise DegenerateRangeError("pooled sample range is a single point")
    ha, _ = np.histogram(a, bins=bins, range=(lo, hi))
    hb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    # rounding in the normalized sums can spill a few ulp past the bound
    return float(min(2.0, np.abs(ha / ha.sum() - hb / hb.sum()).sum()))
