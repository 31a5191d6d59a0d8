"""Regression diagnostics: residuals, leverage, influence, and their
sketched approximations.

Exact leverage is the hat-matrix diagonal l_i = z_i (Z'Z)^{-1} z_i',
read off as squared row norms of Z R^{-1} with R the stored triangular
factor (R'R = Z'Z).  Influence is the leave-one-out change in fit
d_i = e_i^2 l_i / (1 - l_i)^2, equal to (b - b_{-i})' Z'Z (b - b_{-i}).  The randomized approximation
replaces R with the triangular factor of a row sketch of Z, which the
caller's sketched solve already made, and right-multiplies Z R^{-1} by a
narrow sign projection Pi2 (``_sign_projection``; Drineas, Magdon-Ismail,
Mahoney and Woodruff, JMLR 2012); Z R^{-1} is Z V Sigma^{-1} of the
sketch's SVD up to a rotation, so their row norms agree.  Both read their
row norms through one kernel, ``_leverage``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv

from .errors import DegenerateRangeError, InvalidInputError, LeverageOneError
from .linalg import _check_r_factor, as_matrix, as_vector, solve_ls
from .seeding import ROLE_PROJECTION, spawn_rng

# l_i -> 1 makes the influence denominator explode; clamp and count.
LEVERAGE_CLAMP = 1.0 - 1e-6
LOO_LEVERAGE_LIMIT = 1.0 - 1e-10

DEFAULT_HISTOGRAM_BINS = 50

# Byte cap of the row tile of Z R^{-1} Pi2 that _leverage forms at a time.
# The whole n x k product (8 MB at 20000 x 50) made the allocator fault in
# fresh pages, 420-930 per desk LEV_LS or IWS_LS fit (about 2 ms); 1 MB tiles
# take none, and cost 2.8 against 2.6 ms at 20000 x 50 and 32 against 43 ms
# at 2^17 x 64 (2-core x86 host).  256 KB tiles changed the product's last bits.
_TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-row residuals, leverages, influences, and provenance.

    mode is "exact" or "approximate"; leverage_clamp_count is the number of
    rows whose leverage was clamped to [0, 1 - 1e-6] before the influence
    formula was applied; anchor_iterations is the number of CGLS iterations
    that refined the residuals: the exact solve's steps to REFINE_TOL (0 when
    its Cholesky start met it), or AIWS_LS's ANCHOR_STEPS budget.
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
    Z = as_matrix(Z, "Z")
    p = Z.shape[1]
    return _leverage(Z, _check_r_factor(sol.r_factor, p), np.eye(p))


def _leverage(Z, R, projection):
    """Squared row norms of Z R^{-1} Pi2, Pi2 = ``projection``, for a Z and
    R the caller has validated: exact leverage with Pi2 = I, else approximate.
    Z R^{-1} Pi2 is formed one tile of rows at a time."""
    X = np.linalg.solve(R, projection)
    lev = np.empty(Z.shape[0])
    step = max(1, _TILE_BYTES // (8 * max(1, X.shape[1])))
    for i in range(0, Z.shape[0], step):
        W = Z[i : i + step] @ X
        np.einsum("ij,ij->i", W, W, out=lev[i : i + step])
    return lev


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
    sol = solve_ls(Z, y)
    Z = np.asarray(Z, dtype=np.float64)
    return _influence_report(Z, sol, np.eye(Z.shape[1]), "exact")


def _influence_report(Z, sol, projection, mode):
    """DiagnosticsReport of sol's residuals and CGLS steps, and of leverages
    read from its R through ``projection`` (``_leverage``), for a checked Z."""
    lev = _leverage(Z, sol.r_factor, projection)
    d, n_clamped = influence(sol.residuals, lev)
    return DiagnosticsReport(sol.residuals, lev, d, mode, n_clamped, sol.iterations)


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
    R = _check_r_factor(sol.r_factor, Z.shape[1])
    w = dtrsv(R, Z[i], trans=1)
    l_i = float(w @ w)
    if l_i >= LOO_LEVERAGE_LIMIT:
        raise LeverageOneError(
            f"row {i} has leverage {l_i:.12f}; it fully determines its own fit"
        )
    return sol.coefficients - dtrsv(R, w) * float(sol.residuals[i]) / (1.0 - l_i)


def _sign_projection(p, cols, seed):
    """p x cols i.i.d. +-1/sqrt(cols) signs from seed's ROLE_PROJECTION stream."""
    rng = spawn_rng(seed, ROLE_PROJECTION)
    return (rng.integers(0, 2, (p, cols)) * 2 - 1) / np.sqrt(cols)


def histogram_l1_distance(a, b, bins=DEFAULT_HISTOGRAM_BINS):
    """L1 distance between the normalized histograms of two samples.

    Both samples are binned with ``bins`` equal-width bins spanning their
    pooled min/max; each histogram is normalized to total mass 1, so the
    distance lies in [0, 2] (2 = disjoint supports).
    """
    return _histogram_pair(a, b, bins)[3]


def _check_bins(bins):
    """InvalidInputError unless ``bins`` >= 2."""
    if bins < 2:
        raise InvalidInputError(f"need bins >= 2, got {bins}")


def _histogram_pair(a, b, bins):
    """(edges, mass of a, mass of b, L1 distance) of histogram_l1_distance."""
    a = as_vector(a, "a")
    b = as_vector(b, "b")
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("histogram inputs must be non-empty")
    _check_bins(bins)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        raise DegenerateRangeError("pooled sample range is a single point")
    ha, edges = np.histogram(a, bins=bins, range=(lo, hi))
    hb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    ma, mb = ha / ha.sum(), hb / hb.sum()
    # rounding in the normalized sums can spill a few ulp past the bound
    return edges, ma, mb, float(min(2.0, np.abs(ma - mb).sum()))
