"""Subsampled randomized Hadamard transform.

The operator is scale * S @ H @ D where D is a random sign diagonal, H the
normalized Walsh-Hadamard matrix on the zero-padded row count n' (next power
of two), S a uniform row sampler without replacement, and
scale = sqrt(n' / n_subs).  Each padded row is kept with probability
n_subs / n', so E||Pi x||^2 = ||x||^2 for any fixed padded x.

Applying it never builds the n'-row padded copy.  H on n' = b * (n'/b) rows
factors as H_{n'/b} (x) H_b over the high and low bits of the row index, so
the kernel runs the length-b transform on the ceil(n/b) blocks that hold
data and finishes the high-bit levels for the n_subs kept rows only (a
pruned transform; Woolfe, Liberty, Rokhlin and Tygert, ACHA 2008).  Cost
O(n * cols * log b + n_subs * ceil(n/b) * cols).  The blocks stream through
one cache-sized tile, each tile adding its share to the kept rows, so the
working memory is one tile plus the n_subs-row output, not a copy of the
data.

The sketches are nested.  The kept rows are the first n_subs distinct
values of one stream of uniform indices, and the block length b is chosen
from n' and the column count, never from n_subs.  So the unscaled rows
of an n_subs-row sketch are the first n_subs rows of any larger sketch of
the same seed, bit for bit, and one transform at the largest n_subs serves
every smaller one once its rows are scaled by sqrt(n' / n_subs).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

from .errors import InvalidCountsError, NotPowerOfTwoError, ShapeMismatchError

# Transform at most this many levels per pass; each pass is a batched
# matmul against a cached 2^k x 2^k Hadamard block, which is much faster in
# numpy than 2-point butterflies.  A pass of k levels costs 2^(k+1) flops per
# entry, so once the sketch's tiles sit in cache the flops, not the memory
# passes, decide: one sketch of [Z | y] with at most 4 levels per pass
# against 6 took 8.4 / 9.4 ms at 20000 x 50 (n_subs 400), 79 / 85 ms at
# 2^17 x 64 (1024), 43 / 48 ms at 20000 x 200 (1600) and 0.68 / 0.81 s at
# 100000 x 500 (4000); 3 levels took 0.84 s at the last size (medians of
# interleaved calls, 2-core x86 host, OpenBLAS 0.3.31).
_BLOCK_LEVELS = 4
# Block length b of the pruned sketch: next_pow2(_BLOCK_ROWS_PER_COLUMN *
# cols), at least _MIN_SKETCH_BLOCK and at most n'.  b must not read
# n_subs, or a smaller sketch would not be the first rows of a larger one.
# The kept-row finish costs n_subs * ceil(n/b) * cols against the
# transform's n * cols * log b, so the best b grows with n_subs, and the
# grids of n_subs run from a few p to about 16p.  One _sketch_columns call
# [Z | y] (cols = p + 1), ms, at b = 512 / 1024 / 2048 / 4096 / 8192 /
# 16384 (medians of interleaved calls, 2-core x86 host, OpenBLAS 0.3.31 on
# one thread; * marks the rule's b):
#
#     5000 x 20, n_subs 40                0.43 / 0.44* / 0.67 / 0.74 / 1.21
#               n_subs 320                1.21 / 0.54* / 0.65 / 0.76 / 1.17
#     20000 x 50, n_subs 400              5.81 / 4.59* / 4.52 / 5.88 / 7.99 / 10.7
#                 n_subs 1600             12.2 / 7.59* / 5.97 / 6.88 / 7.21 / 10.5
#     20000 x 200, n_subs 1600            37.1 / 31.9 / 26.2 / 23.8* / 27.5
#     2^17 x 64, n_subs 256               36.7 / 32.8 / 38.9* / 44.5 / 45.7 / 51.2
#                n_subs 1024              66.0 / 45.9 / 44.3* / 50.4 / 45.5 / 49.9
#     100000 x 500, n_subs 1000            458 / 367 / 360 / 354 / 406* / 657
#                   n_subs 8000           2035 / 1145 / 779 / 635 / 583* / 689
#
# Below 1024 rows the Python loop over the ceil(n/b) blocks of the finish
# dominates, hence the floor.
_BLOCK_ROWS_PER_COLUMN = 16
_MIN_SKETCH_BLOCK = 1024
# Byte cap of the tile the sketch streams its row blocks through (a tile
# holds at least one block).  A tile and its transform scratch then stay in
# cache through every pass, and the sketch's working memory stays a small
# fraction of the data; a loop of calls still faults 456 pages per call at
# 20000 x 50 (n_subs 400), 1818 in one whole tile.  One sketch of [Z | y]
# with the allocator told to keep freed memory (so only the compute
# differs) took 8.4 ms at 20000 x 50 (n_subs 400) with this cap, 8.7-9.0
# ms at 256-512 KB, 10.0 ms at 2-4 MB and 10.2 ms with the whole data in
# one tile; at 2^17 x 64 (n_subs 1024) caps of 256 KB-2 MB took 79-82 ms,
# 4 MB 91 ms and the whole data 116 ms (medians of interleaved calls,
# 2-core x86 host, 2 MB L2 per core).
_TILE_BYTES = 1 << 20

_HADAMARD_BLOCKS = {}


def _hadamard_block(d):
    """H_d / sqrt(d), cached: one pass of the transform is one product."""
    if d not in _HADAMARD_BLOCKS:
        _HADAMARD_BLOCKS[d] = hadamard(d) / np.sqrt(d)
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

    The log2(n) levels run in passes of at most 4 levels, each one product
    with a cached Hadamard block already scaled by 1/sqrt(block), so no
    separate normalization pass runs.  Passes alternate between ``a`` and
    one scratch array; a non-contiguous or non-float64 ``a`` is transformed
    in a float64 copy and written back.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if n & (n - 1) or n == 0:
        raise NotPowerOfTwoError(f"axis-0 length {n} is not a power of two")
    levels = n.bit_length() - 1
    # equal chunks (10 levels -> 3 + 3 + 4, not 4 + 4 + 2); any split gives
    # the same operator since H_2^L factors over bit blocks
    passes = -(-levels // _BLOCK_LEVELS)
    chunks = [levels // passes + (i >= passes - levels % passes) for i in range(passes)]
    if a.dtype == np.float64 and a.flags.c_contiguous:
        src = a
    else:
        src = np.ascontiguousarray(a, dtype=np.float64)
    dst = np.empty_like(src)
    prefix, suffix = 1, src.size
    for k in chunks:
        d = 1 << k
        suffix //= d
        shape = (prefix, d, suffix)
        np.matmul(_hadamard_block(d), src.reshape(shape), out=dst.reshape(shape))
        prefix *= d
        src, dst = dst, src
    if src is not a:
        np.copyto(a, src.reshape(a.shape))
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
    sign_flips : float64 ndarray of +-1.0, length n'
        The signs of D, in the type the kernel multiplies by.
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
    can leave a sketch of p rows rank deficient.  They are the first n_subs
    distinct values of a stream of uniform indices (``_first_distinct``),
    so a smaller n_subs keeps a prefix of a larger one's rows.
    """
    n = int(n)
    n_subs = int(n_subs)
    padded = next_pow2(n)
    if not 1 <= n_subs <= padded:
        raise InvalidCountsError(f"need 1 <= n_subs <= {padded}, got {n_subs}")
    sign_ss, index_ss = np.random.SeedSequence(int(seed)).spawn(2)
    signs = np.random.default_rng(sign_ss).integers(0, 2, padded) * 2.0 - 1.0
    indices = _first_distinct(np.random.default_rng(index_ss), padded, n_subs)
    return SketchOperator(
        seed=int(seed),
        original_rows=n,
        padded_rows=padded,
        n_subs=n_subs,
        sign_flips=signs,
        sampled_indices=indices,
        scale=float(np.sqrt(padded / n_subs)),
    )


def _first_distinct(rng, padded, count):
    """The first ``count`` distinct values, in order, of the stream
    floor(u * padded) over rng's uniform doubles u.

    The values are a uniformly ordered sample without replacement (Tropp's
    analysis of the SRHT draws its rows this way), and a smaller count
    reads a prefix of a larger one's.  For a power of two ``padded`` each
    value is exact, and rng.random yields the same doubles in any chunking,
    so the result does not depend on how many values each round draws.
    """
    seen = np.zeros(padded, dtype=bool)
    kept, found = [], 0
    while found < count:
        # about the expected draws from ``found`` distinct values to count
        # (coupon collector), with a tenth more so one round usually does
        more = int(1.1 * padded * math.log((padded - found + 0.5) / (padded - count + 0.5))) + 16
        values = (rng.random(more) * padded).astype(np.int64)
        distinct, first = np.unique(values, return_index=True)
        new = values[np.sort(first[~seen[distinct]])][: count - found]
        seen[new] = True
        kept.append(new)
        found += new.size
    return np.concatenate(kept)


def _parity(x):
    """popcount(x) mod 2 of non-negative int64 entries."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def _block_length(padded, cols):
    """Rows b of one block of the pruned transform, for n' = ``padded``
    rows and ``cols`` columns; it does not read n_subs."""
    return min(padded, max(_MIN_SKETCH_BLOCK, next_pow2(_BLOCK_ROWS_PER_COLUMN * cols)))


def _sketch_columns(op, operands):
    """S H D [a_1 | a_2 | ...] for operands of op.original_rows rows,
    before op.scale: row i is row sampled_indices[i] of the orthonormal
    transform of the signed, zero-padded data.

    Row j = j1 * b + j2 of the signed data belongs to block j1, and kept row
    i = i1 * b + i2 is sqrt(b / n') * sum_{j1} (-1)^popcount(i1 & j1)
    * (H_b D block j1)[i2]; blocks past the data are zero and drop out of
    the sum.  The blocks stream through one tile buffer of at most
    _TILE_BYTES (one block if a block is larger): block j1 of a tile goes
    to tile[j2, j1 - g0, :], one length-b transform along axis 0 covers the
    tile, and the tile's share of every kept row is added to the output.
    Working memory is one tile, its transform scratch and its gathered kept
    rows, plus the n_subs-row output.  Each output row reads only its own
    sampled index, and b does not depend on n_subs, so the rows of a
    smaller draw equal the first rows of a larger one bit for bit.
    """
    n, padded = op.original_rows, op.padded_rows
    widths = [1 if a.ndim == 1 else a.shape[1] for a in operands]
    cols = sum(widths)
    b = _block_length(padded, cols)
    blocks = -(-n // b)
    per_tile = min(blocks, max(1, _TILE_BYTES // (8 * b * cols)))
    high, low = np.divmod(op.sampled_indices, b)
    block_signs = 1.0 - 2.0 * _parity(high[:, None] & np.arange(blocks))
    # flat buffers, so a short last tile is still one contiguous array
    tile_buf = np.empty(b * per_tile * cols)
    kept_buf = np.empty(op.n_subs * per_tile * cols)
    out = np.zeros((op.n_subs, cols))
    for g0 in range(0, blocks, per_tile):
        g1 = min(g0 + per_tile, blocks)
        tile = tile_buf[: b * (g1 - g0) * cols].reshape(b, g1 - g0, cols)
        r0, r1 = g0 * b, min(g1 * b, n)
        full, tail = divmod(r1 - r0, b)
        signs = op.sign_flips[r0:r1]
        head_signs = signs[: full * b].reshape(full, b).T
        c = 0
        for a, w in zip(operands, widths):
            a = a.reshape(n, w)[r0:r1]
            # einsum's row-scaling loop runs ~1.7x faster than np.multiply's
            # broadcast over rows of ~50 entries
            np.einsum(
                "jkc,jk->jkc",
                a[: full * b].reshape(full, b, w).transpose(1, 0, 2),
                head_signs,
                out=tile[:, :full, c : c + w],
            )
            if tail:
                np.multiply(a[full * b :], signs[full * b :, None], out=tile[:tail, full, c : c + w])
            c += w
        if tail:
            tile[tail:, full, :] = 0.0
        fwht_inplace(tile.reshape(b, -1))
        kept = kept_buf[: op.n_subs * (g1 - g0) * cols].reshape(op.n_subs, g1 - g0, cols)
        # mode="wrap" skips the buffered copy np.take makes for out= under
        # its default mode="raise"; every index is in range
        np.take(tile, low, axis=0, out=kept, mode="wrap")
        kept *= block_signs[:, g0:g1, None]
        for k in range(g1 - g0):
            out += kept[:, k]
    out *= np.sqrt(b / padded)
    return out


def apply_sketch(op, A):
    """Apply the operator to a matrix or vector with op.original_rows rows.

    Multiplies by the sign diagonal, transforms only the row blocks that hold
    data and finishes the transform for the sampled rows (see the module
    docstring).  Output has n_subs rows, and a vector maps to a vector.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape[0] != op.original_rows:
        raise ShapeMismatchError(f"operand has {A.shape[0]} rows, expected {op.original_rows}")
    out = _sketch_columns(op, [A])
    out *= op.scale
    return out[:, 0] if A.ndim == 1 else out
