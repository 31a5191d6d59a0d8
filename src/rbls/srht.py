"""Subsampled randomized Hadamard transform.

The operator is scale * S @ H @ D where D is a random sign diagonal, H the
normalized Walsh-Hadamard matrix on the zero-padded row count n' (next power
of two), S a uniform row sampler without replacement, and
scale = sqrt(n' / n_subs).  Each padded row is kept with probability
n_subs / n', so E||Pi x||^2 = ||x||^2 for any fixed padded x.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCountsError, NotPowerOfTwoError, ShapeMismatchError

# Transform blocks of this many levels per pass; each pass is a batched
# matmul against a cached 2^k x 2^k Hadamard block, which is much faster in
# numpy than 2-point butterflies while costing the same O(n' log n') overall.
_BLOCK_LEVELS = 6

_HADAMARD_BLOCKS = {}


def _hadamard_block(d):
    if d not in _HADAMARD_BLOCKS:
        H = np.array([[1.0]])
        while H.shape[0] < d:
            H = np.block([[H, H], [H, -H]])
        _HADAMARD_BLOCKS[d] = H
    return _HADAMARD_BLOCKS[d]


def next_pow2(n):
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise InvalidCountsError(f"need n >= 1, got {n}")
    return 1 << (int(n) - 1).bit_length()


def fwht_inplace(a):
    """Normalized fast Walsh-Hadamard transform along axis 0, in place.

    Overwrites ``a`` with (1/sqrt(n)) H_n a and returns it.  ``a`` may be a
    vector or a matrix whose columns are transformed together.  The length
    of axis 0 must be a power of two.  Applying the transform twice returns
    the original array (H is symmetric orthogonal).
    """
    a = np.asarray(a)
    n = a.shape[0]
    if n & (n - 1) or n == 0:
        raise NotPowerOfTwoError(f"axis-0 length {n} is not a power of two")
    x = a.reshape(n, -1).astype(np.float64, copy=False)
    levels = n.bit_length() - 1
    # ascending chunk sizes keep the last (most-batched) pass cheap; any
    # split gives the same operator since H_2^L factors over bit blocks
    chunks = []
    rem = levels
    while rem > 0:
        k = min(_BLOCK_LEVELS, rem)
        chunks.append(k)
        rem -= k
    prefix, suffix = 1, x.size
    for k in sorted(chunks):
        d = 1 << k
        suffix //= d
        x = np.matmul(_hadamard_block(d), x.reshape(prefix, d, suffix))
        prefix *= d
    np.multiply(x.reshape(a.shape), 1.0 / np.sqrt(n), out=a)
    return a


@dataclass(frozen=True)
class SketchOperator:
    """Frozen realization of one SRHT draw.

    Attributes
    ----------
    seed : int
        Seed the draw was derived from.
    original_rows : int
        Row count n of the matrices this operator applies to.
    padded_rows : int
        n' = next power of two >= n.
    n_subs : int
        Number of distinct rows sampled from the padded space.
    sign_flips : ndarray of +-1, length n'
    sampled_indices : ndarray of int, length n_subs, distinct values in [0, n')
    scale : float
        sqrt(n' / n_subs).
    """

    seed: int
    original_rows: int
    padded_rows: int
    n_subs: int
    sign_flips: np.ndarray
    sampled_indices: np.ndarray
    scale: float


def build_sketch(n, n_subs, seed):
    """Draw a SketchOperator for n-row inputs, deterministic in ``seed``.

    Sign flips and row indices come from independent child streams of the
    seed, so changing n_subs never perturbs the sign pattern.  The rows are
    drawn without replacement: a repeated row would add no information and
    can leave a sketch of p rows rank deficient.
    """
    n = int(n)
    n_subs = int(n_subs)
    if n < 1:
        raise InvalidCountsError(f"need n >= 1, got {n}")
    padded = next_pow2(n)
    if not 1 <= n_subs <= padded:
        raise InvalidCountsError(f"need 1 <= n_subs <= {padded}, got {n_subs}")
    sign_ss, index_ss = np.random.SeedSequence(int(seed)).spawn(2)
    signs = np.random.default_rng(sign_ss).integers(0, 2, padded) * 2 - 1
    indices = np.random.default_rng(index_ss).choice(padded, n_subs, replace=False)
    return SketchOperator(
        seed=int(seed),
        original_rows=n,
        padded_rows=padded,
        n_subs=n_subs,
        sign_flips=signs.astype(np.int64),
        sampled_indices=indices.astype(np.int64),
        scale=float(np.sqrt(padded / n_subs)),
    )


def apply_sketch(op, A):
    """Apply the operator to a matrix or vector with op.original_rows rows.

    Zero-pads to n' rows, multiplies by the sign diagonal, runs the FWHT on
    every column, gathers the sampled rows and rescales.  Output has n_subs
    rows.  Cost O(n' log n' * cols).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape[0] != op.original_rows:
        raise ShapeMismatchError(
            f"operand has {A.shape[0]} rows, operator expects {op.original_rows}"
        )
    vec = A.ndim == 1
    padded = np.zeros((op.padded_rows,) + A.shape[1:])
    signs = op.sign_flips[: op.original_rows]
    np.multiply(A, signs if vec else signs[:, None], out=padded[: op.original_rows])
    fwht_inplace(padded)
    return op.scale * padded[op.sampled_indices]


def apply_sketch_pair(op, Z, y):
    """Sketch a design matrix and its response with one transform pass.

    Equivalent to splitting apply_sketch(op, [Z | y]) but avoids the
    intermediate stacked copy.  Returns (sketched_Z, sketched_y).
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z.shape[0] != op.original_rows or y.shape[0] != op.original_rows:
        raise ShapeMismatchError(
            f"operands have {Z.shape[0]}/{y.shape[0]} rows, "
            f"operator expects {op.original_rows}"
        )
    n, p = Z.shape
    padded = np.zeros((op.padded_rows, p + 1))
    signs = op.sign_flips[:n]
    np.multiply(Z, signs[:, None], out=padded[:n, :p])
    np.multiply(y, signs, out=padded[:n, p])
    fwht_inplace(padded)
    taken = op.scale * padded[op.sampled_indices]
    return taken[:, :p], taken[:, p]
