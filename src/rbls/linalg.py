"""Dense least-squares kernels: Cholesky solve with CGLS refinement and a
Householder fallback.

All matrices are plain row-major ``numpy.ndarray`` of float64.  The exact
solver factors the Gram matrix Z'Z = R'R (``_gram_factor``: one level-3
product and a p x p Cholesky, no n x p copy), then puts its first solution
to the stop test of CGLS right-preconditioned by that R, and takes CGLS
steps only while the test fails.  The result meets ``REFINE_TOL``: on
well-conditioned designs it is the first solution itself, accurate to
about 1e-13 relative at cond(Z) 1e2 and 1e-11 at 1e3.  Designs whose Gram
matrix is too ill-conditioned for Cholesky fall back to Householder QR of
[Z | y], with rows signed so that its R is the same Cholesky factor.
Callers that also need the factor (exact leverages) take it from
``_gram_factor`` and solve from it with ``_factored_ls``.  ``_gradient``
forms R^{-T} Z'r for the solve's start, each CGLS step and ULURU's
correction, and survives an overflow of Z'r.

Dense level-3 work (Gram products, Cholesky, QR, the leverages' R^{-1} Pi2)
runs in numpy.  scipy ships a second OpenBLAS with its own thread pool, so
its only solver here is the level-2 ``dtrsv`` (1-d right-hand sides, no
wrapper checks): a 2-d one wakes that pool, whose spinning threads then
slow numpy's BLAS on a small host.

NaN and Inf are caught by ``_check_through``.  :func:`solve_ls` checks Z
through the diagonal of the Gram matrix it forms anyway, and y, like
:func:`as_matrix` and :func:`as_vector`, through its own sum.  The first
products of the public diagnostics (Z R^{-1}) can give an entry an exact
zero coefficient, which a BLAS may skip, so they scan Z with
:func:`as_matrix`.  A stored R is checked by ``_check_r_factor``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dtrcon

from .errors import InvalidInputError, RankDeficientError

RANK_TOL = 1e-12
# Stop test of _cgls: ||A'r|| <= REFINE_TOL ||A|| ||r|| with A = Z R^{-1}
# (LSQR's atol test).  The residual error is then at most REFINE_TOL cond(A)
# relative to ||r||, which stays below 1e-6 even for the cond(A) ~ 1e3 that a
# sketch with only p rows can leave.
REFINE_TOL = 1e-10
# With a sketch of 2p or more rows cond(A) is below ~10 and CGLS meets
# REFINE_TOL in 15-20 iterations; the cap bounds the cost when it is not.
REFINE_MAX_ITER = 100
# solve_ls keeps the Cholesky factor R of Z'Z only while LAPACK's estimate
# of its 1-norm condition number (dtrcon, O(p^2)) is at most
# CHOLESKY_MAX_COND, and uses Householder QR otherwise.  R'R carries an
# error of about eps cond(Z)^2 that CGLS removes from the coefficients but
# not from R, so the leverages read from R lose accuracy as cond^2: on
# 2000 x 20 designs with log-spaced singular values (10 seeds each) their
# largest error was 3.6e-11 at cond 1e4, 1.2e-9 at 1e5 and 1.5e-7 at 1e6,
# while the estimate read 1.3-4.2e4, 1.2-3.7e5 and 2.1-3.6e6.  The ratio
# min|r_jj| / max|r_jj| does not bound cond: Z = Q K with K the 40 x 40
# Kahan matrix (c = 0.4) has ratio 3.3e-2, cond 4.4e7 and leverage errors
# near 1e-4 through Cholesky; its estimate reads 7.0e7.  Exactly singular
# Gram matrices need not fail the Cholesky: of 200 rank-15 16 x 16 designs
# (15 gaussian rows, one of them repeated) it succeeded on 89, whose
# estimates read 7.5e8 and above, so all 200 reach Householder, which
# rejects them at RANK_TOL.
CHOLESKY_MAX_COND = 1e5


def _check_through(product, A, name):
    """InvalidInputError if an entry of A is NaN or Inf, decided through the
    sum of ``product``, in which every entry of A has a nonzero coefficient
    (A itself, the diagonal of A'A): a NaN or Inf entry makes it NaN or Inf,
    so a finite sum proves A finite with no pass over A.  Only a sum that is
    not finite, which finite entries can also give by overflow, pays for the
    elementwise scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = product.sum()
    if not np.isfinite(total) and not np.isfinite(A).all():
        raise InvalidInputError(f"{name} contains NaN or Inf entries")


def _as_array(A, ndim, name, check_entries=True):
    """A as float64 with ``ndim`` axes, and by default with finite entries."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-d, got ndim={A.ndim}")
    if check_entries:
        _check_through(A, A, name)
    return A


def as_matrix(A, name="matrix"):
    """Validate and return a 2-d float64 array with finite entries."""
    return _as_array(A, 2, name)


def as_vector(v, name="vector"):
    """Validate and return a 1-d float64 array with finite entries."""
    return _as_array(v, 1, name)


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Result of a least-squares solve.

    Attributes
    ----------
    coefficients : ndarray, shape (p,)
        Minimizer of ||y - Z b||_2.
    residuals : ndarray, shape (n,)
        y - Z @ coefficients.
    r_factor : ndarray, shape (p, p)
        Upper-triangular R with R'R = Z'Z and a positive diagonal, so that
        (Z'Z)^{-1} = R^{-1} R^{-T}: the Cholesky factor of Z'Z, on either of
        :func:`solve_ls`'s paths.
    iterations : int
        CGLS refinement steps taken: 0 for the Householder fallback, and
        when the starting point already meets the stop test, as the
        Cholesky start of :func:`solve_ls` does on well-conditioned designs.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    r_factor: np.ndarray
    iterations: int = 0


def _check_r_factor(r_factor, p):
    """r_factor as a float p x p array; InvalidInputError for another shape or
    a NaN or Inf entry (dtrsv checks none), RankDeficientError for a
    (near-)zero diagonal entry."""
    R = np.asarray(r_factor, dtype=np.float64)
    if R.shape != (p, p):
        raise InvalidInputError(f"r_factor has shape {R.shape}, expected {(p, p)}")
    if not np.isfinite(R).all():
        raise InvalidInputError("r_factor contains NaN or Inf entries")
    d = np.abs(np.diag(R))
    dmax = d.max() if d.size else 0.0
    if dmax == 0.0 or d.min() < RANK_TOL * dmax:
        raise RankDeficientError(
            "triangular factor has a (near-)zero diagonal entry; "
            "the design is collinear or the subsample lost rank"
        )
    return R


def solve_ls(Z, y):
    """Solve min_b ||y - Z b||_2 by Cholesky of Z'Z plus CGLS refinement.

    R is the Cholesky factor of Z'Z (``_gram_factor``), and the first
    solution R^{-1} R^{-T} Z'y comes from two triangular solves.  CGLS
    right-preconditioned by R (``_cgls``) then starts from it, with
    the same stop test applied to the start: a start that already meets
    ``REFINE_TOL`` is returned with ``iterations == 0`` and the residual the
    test computed, so a well-conditioned design costs the Gram product and
    three passes over Z (Z'y, Z b and Z'r).  ||A|| for the start's test is
    1: R'R = Z'Z makes the columns of A = Z R^{-1} orthonormal, up to the
    rounding of R'R (||A|| - 1 read 1e-9 at cond 1e4).  Z is made C-contiguous
    first, so the result does not depend on its layout.  The solve falls
    back to Householder QR of [Z | y] if the Cholesky fails, if the
    estimated condition number of R exceeds CHOLESKY_MAX_COND, or if the
    refinement does not stop within REFINE_MAX_ITER steps.  The fallback
    forms only the triangular factor of the augmented matrix: its leading
    p x p block is Z's R and its last column above row p is Q'y.

    Accuracy: the result meets the stop test, so its residual is exact to
    about REFINE_TOL cond(A) relative to ||r||, not to the eps cond(Z) of
    a QR solve.  On 2000 x 20 designs with log-spaced singular values the
    coefficients match ``numpy.linalg.lstsq`` to 2.5e-13 at cond 1e2 and
    2.3e-11 at cond 1e3 with no step taken.

    Parameters
    ----------
    Z : ndarray, shape (n, p) with n >= p
    y : ndarray, shape (n,)

    Returns
    -------
    LeastSquaresSolution

    Raises
    ------
    RankDeficientError
        If the fallback's Householder R has |r_jj| < 1e-12 * max_k |r_kk|
        for some diagonal entry.
    InvalidInputError
        On NaN/Inf entries (Z's checked through its Gram matrix before
        anything acts on it) or inconsistent shapes.
    """
    Z, y = _ls_inputs(Z, y)
    return _factored_ls(Z, y, _gram_factor(Z))


def _factored_ls(Z, y, R):
    """The solve of solve_ls on its checked, C-contiguous (Z, y), from the
    R of ``_gram_factor(Z)``."""
    if R is None:
        return _householder_ls(Z, y)
    with np.errstate(over="ignore", invalid="ignore"):  # _gradient handles an overflow
        sol = _cgls(Z, y, dtrsv(R, _gradient(R, Z, y)[0]), R, 1.0)
    # 0 or 1 step on the graded designs that _gram_factor accepts; hitting
    # the cap means R is not the factor of Z'Z it should be
    if sol.iterations >= REFINE_MAX_ITER:
        return _householder_ls(Z, y)
    return sol


def _gram_factor(Z):
    """The factor stage of solve_ls on a C-contiguous Z: R, the Cholesky
    factor of Z'Z, or None when the Householder fallback must run: the
    Cholesky failed, or LAPACK's estimate of cond(R) exceeds
    CHOLESKY_MAX_COND.  Z's entries are checked through the Gram diagonal."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is checked next
        gram = Z.T @ Z
    _check_through(np.diagonal(gram), Z, "Z")
    try:
        R = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        return None
    # rcond = 1 / (estimated cond); written so that an empty R or a NaN
    # estimate also falls back
    rcond = dtrcon(R, norm="1", uplo="U")[0] if R.size else 0.0
    if not rcond >= 1.0 / CHOLESKY_MAX_COND:
        return None
    return R


def _ls_inputs(Z, y):
    """float64 (Z, y) of a least-squares problem with n >= p, y's entries
    checked through their sum; Z's are left to the kernel's first product.
    Z is C-contiguous, one layout, so that no result depends on Z's."""
    Z = _as_array(Z, 2, "Z", check_entries=False)
    y = as_vector(y, "y")
    n, p = Z.shape
    if n < p:
        raise InvalidInputError(f"need n >= p, got n={n}, p={p}")
    if y.shape[0] != n:
        raise InvalidInputError(f"y has length {y.shape[0]}, expected {n}")
    return np.ascontiguousarray(Z), y


def _householder_ls(Z, y):
    """Householder QR of [Z | y]: the fallback of solve_ls."""
    n, p = Z.shape
    # LAPACK factors column-major arrays: numpy's qr copies a Fortran-ordered
    # [Z | y] contiguously, where a row-major one costs a transposing copy.
    # Same bytes reach LAPACK, so R does not depend on Z's layout.
    aug = np.empty((n, p + 1), order="F")
    aug[:, :p] = Z
    aug[:, p] = y
    r_aug = np.linalg.qr(aug, mode="r")
    # rows signed to a positive diagonal: the Cholesky factor _gram_factor gives
    r_aug[:p] *= np.copysign(1.0, np.diagonal(r_aug)[:p])[:, None]
    R = _check_r_factor(r_aug[:p, :p], p)
    coef = dtrsv(R, r_aug[:p, p])
    return LeastSquaresSolution(coef, y - Z @ coef, R)


def _cgls(Z, y, coef, R, a_norm, max_iter=REFINE_MAX_ITER):
    """CGLS right-preconditioned by a checked R from ``coef`` (updated in
    place), under the caller's errstate for ``_gradient``, until ``_stops``
    passes or after ``max_iter`` steps, the last of which computes no
    gradient: min_u ||y - A u||, A = Z R^{-1}, b = R^{-1} u.  With R the
    factor of Z or of a row sketch of Z, A is well conditioned and each
    step costs two O(n p) products (Blendenpik; Avron, Maymounkov and
    Toledo 2010).  ||A|| in the test is the largest of
    ``a_norm`` (1 when R'R = Z'Z) and ||A d|| / ||d|| over the search
    directions d.  A positive ``a_norm`` also puts the start to the test; a
    start that passes comes back with 0 steps and the test's
    residual, any other result with y - Z b recomputed."""
    r_fortran = np.asfortranarray(R)
    r = y - Z @ coef
    y_norm = np.linalg.norm(y)
    s, gamma = _gradient(r_fortran, Z, r)
    if a_norm > 0.0 and _stops(r, gamma, y_norm, a_norm):
        return LeastSquaresSolution(coef, r, R, 0)
    d = s
    it = 0
    while gamma > 0.0 and it < max_iter:
        t = dtrsv(r_fortran, d)
        q = Z @ t
        qq = q @ q
        a_norm = max(a_norm, np.sqrt(qq / (d @ d)))
        alpha = gamma / qq
        coef += alpha * t
        r -= alpha * q
        it += 1
        if it == max_iter:  # the budget is spent: a gradient now would go unread
            break
        s, gamma_next = _gradient(r_fortran, Z, r)
        if _stops(r, gamma_next, y_norm, a_norm):
            break
        d = s + (gamma_next / gamma) * d
        gamma = gamma_next
    return LeastSquaresSolution(coef, y - Z @ coef, R, it)


def _gradient(R, Z, r):
    """(g, g'g), g = R^{-T} Z'r the preconditioned gradient of CGLS and ULURU,
    for a checked Z, under np.errstate(over="ignore", invalid="ignore").  If
    g'g is not finite, Z'r overflowed: g is then s R^{-T} Z'(r / s), s the
    power of two >= max|Z| (at most 2^1023), whose steps all stay in range
    unless r alone makes Z'r overflow."""
    g = dtrsv(R, Z.T @ r, trans=1)
    gamma = g @ g
    if not math.isfinite(gamma):
        scale = 2.0 ** min(1023, math.ceil(math.log2(np.abs(Z).max())))
        g = scale * dtrsv(R, Z.T @ (r / scale), trans=1)
        gamma = g @ g
    return g, gamma


def _stops(r, gamma, y_norm, a_norm):
    """The CGLS stop test at residual r with gamma = ||A'r||^2: a consistent
    system (||r|| <= REFINE_TOL ||y||) or ||A'r|| <= REFINE_TOL ||A|| ||r||."""
    r_norm = np.linalg.norm(r)
    return r_norm <= REFINE_TOL * y_norm or np.sqrt(gamma) <= REFINE_TOL * a_norm * r_norm
