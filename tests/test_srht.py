import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from rbls import srht
from rbls.errors import InvalidCountsError, NotPowerOfTwoError, ShapeMismatchError
from rbls.srht import (
    SketchOperator,
    apply_sketch,
    build_sketch,
    fwht_inplace,
    next_pow2,
)


def estimator_sketch(op, Z, y):
    """[S Z | S y] as SRHT_LS and ULURU solve it: the kept rows of their
    sketch stage (``_sketch_columns``), scaled as ``_sketch_solution`` scales them."""
    return srht._sketch_columns(op, [Z, y]) * np.sqrt(op.padded_rows / op.n_subs)


def dense_fwht_oracle(v):
    n = len(v)
    return hadamard(n) @ np.asarray(v) / np.sqrt(n)


class TestFwht:
    def test_first_hadamard_column(self):
        out = fwht_inplace(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1 / np.sqrt(2)] * 2)

    def test_constant_vector_maps_to_first_coordinate(self):
        # (1/sqrt(4)) H_4 (1,1,1,1) = (2,0,0,0)
        out = fwht_inplace(np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_matches_dense_oracle_length_16(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16)
        np.testing.assert_allclose(
            fwht_inplace(v.copy()), dense_fwht_oracle(v), atol=1e-12
        )

    @pytest.mark.parametrize("n", [2, 4, 8, 32, 64, 128, 256, 512])
    def test_matches_dense_oracle_all_sizes(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(
            fwht_inplace(v.copy()), dense_fwht_oracle(v), atol=1e-12
        )

    def test_matrix_columns_transformed_together(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((32, 3))
        out = fwht_inplace(A.copy())
        for j in range(3):
            np.testing.assert_allclose(out[:, j], dense_fwht_oracle(A[:, j]), atol=1e-12)

    @pytest.mark.parametrize("n", [2**10, 2**11, 2**13, 2**14])
    def test_three_pass_lengths_match_explicit_rows(self, n):
        # 10 and 11 levels run in three passes, so the result lands in the
        # scratch array and must be copied back into the input; 13 and 14
        # levels run in four
        v = np.random.default_rng(n).standard_normal(n)
        out = fwht_inplace(v.copy())
        j = np.arange(n)
        for i in np.random.default_rng(1).choice(n, 8, replace=False):
            parity = np.array([bin(k).count("1") & 1 for k in i & j])
            row = (1.0 - 2.0 * parity) / np.sqrt(n)
            assert out[i] == pytest.approx(row @ v, abs=1e-12)
        np.testing.assert_allclose(fwht_inplace(out), v, atol=1e-12)

    @pytest.mark.parametrize("n", [512, 2**13])
    def test_strided_column_transformed_in_place(self, n):
        M = np.random.default_rng(2).standard_normal((n, 3))
        before = M.copy()
        column = M[:, 1]
        assert fwht_inplace(column) is column
        if n <= 512:
            expected = dense_fwht_oracle(before[:, 1])
        else:
            # the dense H_8192 is 512 MB; the contiguous transform is checked
            # against explicit rows at this length in
            # test_three_pass_lengths_match_explicit_rows
            expected = fwht_inplace(before[:, 1].copy())
        np.testing.assert_allclose(M[:, 1], expected, atol=1e-12)
        np.testing.assert_array_equal(M[:, [0, 2]], before[:, [0, 2]])

    def test_mutates_in_place(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        out = fwht_inplace(v)
        assert out is v

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_involution(self, log_n, seed):
        v = np.random.default_rng(seed).standard_normal(2**log_n)
        twice = fwht_inplace(fwht_inplace(v.copy()))
        np.testing.assert_allclose(twice, v, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(NotPowerOfTwoError):
            fwht_inplace(np.zeros(12))


class TestNextPow2:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (5, 8), (8, 8), (1000, 1024)])
    def test_values(self, n, expected):
        assert next_pow2(n) == expected

    def test_invalid(self):
        with pytest.raises(InvalidCountsError):
            next_pow2(0)


class TestBuildSketch:
    def test_power_of_two_full_sampling(self):
        op = build_sketch(8, 8, seed=0)
        assert op.padded_rows == 8
        assert op.scale == 1.0
        assert op.sampled_indices.shape == (8,)
        assert np.all((op.sampled_indices >= 0) & (op.sampled_indices < 8))

    def test_padding_to_next_power_of_two(self):
        assert build_sketch(5, 3, seed=0).padded_rows == 8

    def test_scale_arithmetic(self):
        op = build_sketch(1000, 200, seed=0)
        assert op.scale == pytest.approx(np.sqrt(1024 / 200))
        assert op.scale == pytest.approx(2.2627, abs=5e-4)

    def test_sign_flips_are_plus_minus_one(self):
        op = build_sketch(100, 50, seed=7)
        assert op.sign_flips.dtype == np.float64
        assert set(np.unique(op.sign_flips)) <= {-1.0, 1.0}

    def test_deterministic_given_seed(self):
        a = build_sketch(300, 64, seed=42)
        b = build_sketch(300, 64, seed=42)
        assert np.array_equal(a.sign_flips, b.sign_flips)
        assert np.array_equal(a.sampled_indices, b.sampled_indices)

    def test_rows_drawn_without_replacement(self):
        # a repeated row would leave a sketch of p rows rank deficient
        for seed in range(100):
            op = build_sketch(2048, 16, seed)
            assert np.unique(op.sampled_indices).size == 16

    def test_sign_stream_independent_of_n_subs(self):
        a = build_sketch(300, 64, seed=42)
        b = build_sketch(300, 128, seed=42)
        assert np.array_equal(a.sign_flips, b.sign_flips)

    def test_invalid_counts(self):
        with pytest.raises(InvalidCountsError):
            build_sketch(16, 0, seed=0)
        with pytest.raises(InvalidCountsError):
            build_sketch(16, 17, seed=0)


class TestNestedSketches:
    """A sketch with fewer rows is the first rows of one with more rows of
    the same seed, so one transform serves every smaller n_subs."""

    # n' = 32768 and 16384 above 10000, 8192 and 512 below; K = n' keeps
    # every padded row
    @pytest.mark.parametrize(
        "n, k, K",
        [(20000, 400, 4000), (9000, 1000, 16384), (5000, 40, 320), (5000, 320, 8192),
         (300, 64, 512)],
    )
    def test_kept_rows_are_a_prefix(self, n, k, K):
        for seed in range(3):
            small = build_sketch(n, k, seed).sampled_indices
            large = build_sketch(n, K, seed).sampled_indices
            np.testing.assert_array_equal(small, large[:k])
            assert np.unique(large).size == K

    def test_block_length_does_not_read_n_subs(self, monkeypatch):
        shapes = []

        def recorded(a):
            shapes.append(a.shape)
            return fwht_inplace(a)

        monkeypatch.setattr(srht, "fwht_inplace", recorded)
        A = np.random.default_rng(4).standard_normal((5000, 21))
        by_n_subs = {}
        for n_subs in (40, 320, 1600, 8192):
            shapes.clear()
            apply_sketch(build_sketch(5000, n_subs, seed=4), A)
            by_n_subs[n_subs] = list(shapes)
        assert len({tuple(v) for v in by_n_subs.values()}) == 1

    @pytest.mark.parametrize("n, cols, k, K", [(20000, 51, 400, 1600), (5000, 21, 40, 320)])
    def test_smaller_sketch_is_a_scaled_prefix(self, n, cols, k, K):
        A = np.random.default_rng(n).standard_normal((n, cols))
        small, large = build_sketch(n, k, seed=9), build_sketch(n, K, seed=9)
        rows = srht._sketch_columns(large, [A])
        np.testing.assert_array_equal(srht._sketch_columns(small, [A]), rows[:k])
        np.testing.assert_array_equal(apply_sketch(small, A), rows[:k] * small.scale)
        pair = estimator_sketch(small, A[:, :-1], A[:, -1])
        np.testing.assert_array_equal(pair, rows[:k] * small.scale)


def full_sample_operator(n, seed=0):
    """Every padded row sampled exactly once: the operator is orthonormal."""
    padded = next_pow2(n)
    signs = np.random.default_rng(seed).integers(0, 2, padded) * 2.0 - 1.0
    return SketchOperator(
        seed=seed,
        original_rows=n,
        padded_rows=padded,
        n_subs=padded,
        sign_flips=signs,
        sampled_indices=np.arange(padded),
        scale=1.0,
    )


def transform_oracle(op, A):
    """op.scale * (H D A)[sampled rows] by one full transform of the padded A."""
    padded = np.zeros((op.padded_rows,) + A.shape[1:])
    padded[: op.original_rows] = (A.T * op.sign_flips[: op.original_rows]).T
    return op.scale * fwht_inplace(padded)[op.sampled_indices]


def tiled_shape(cols, tiles, extra_rows):
    """Rows that fill ``tiles`` sketch tiles of ``cols`` columns, plus
    extra_rows; the data span many blocks, so n' does not cap b."""
    b = srht._block_length(1 << 40, cols)
    per_tile = max(1, srht._TILE_BYTES // (8 * b * cols))
    return tiles * per_tile * b + extra_rows, per_tile, b


class TestStreamedSketch:
    """The tiled kernel against a transform of the whole padded matrix;
    the estimators' sketch of Z and y must equal apply_sketch of the
    stacked [Z | y]."""

    @pytest.mark.parametrize(
        "cols,tiles,extra_blocks,extra_rows",
        [
            (4, 2, 3, 100),  # a partial last tile whose last block is ragged
            (4, 3, 0, 0),  # whole tiles only
            (4, 2, 0, 77),  # a ragged block alone in the last tile
            (4, 2, 0, -435),  # a full last tile whose last block is ragged
        ],
    )
    def test_several_tiles(self, cols, tiles, extra_blocks, extra_rows):
        n_subs = 64
        n, per_tile, b = tiled_shape(cols, tiles, extra_rows)
        n += extra_blocks * b
        assert per_tile > 1 and n > per_tile * b
        op = build_sketch(n, n_subs, seed=n)
        A = np.random.default_rng(n).standard_normal((n, cols))
        out = apply_sketch(op, A)
        np.testing.assert_allclose(out, transform_oracle(op, A), atol=1e-12)
        np.testing.assert_array_equal(estimator_sketch(op, A[:, :-1], A[:, -1]), out)

    def test_block_wider_than_the_tile(self):
        n_subs, cols = 100, 70
        b = srht._block_length(1 << 40, cols)
        assert 8 * b * cols > srht._TILE_BYTES
        n = 3 * b + 7
        op = build_sketch(n, n_subs, seed=5)
        A = np.random.default_rng(5).standard_normal((n, cols))
        np.testing.assert_allclose(apply_sketch(op, A), transform_oracle(op, A), atol=1e-12)

    def test_vector_over_several_tiles(self):
        n, per_tile, b = tiled_shape(1, 1, 5)
        assert per_tile > 1
        op = build_sketch(n, 32, seed=6)
        v = np.random.default_rng(6).standard_normal(n)
        out = apply_sketch(op, v)
        assert out.shape == (32,)
        np.testing.assert_allclose(out, transform_oracle(op, v), atol=1e-12)


class TestApplySketch:
    def test_zero_matrix_maps_to_zero(self):
        op = build_sketch(20, 8, seed=1)
        np.testing.assert_array_equal(apply_sketch(op, np.zeros((20, 3))), 0.0)

    def test_full_sample_preserves_column_norms(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((16, 4))
        out = apply_sketch(full_sample_operator(16), A)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=0), np.linalg.norm(A, axis=0), atol=1e-10
        )

    def test_linearity(self):
        rng = np.random.default_rng(4)
        op = build_sketch(50, 16, seed=9)
        A = rng.standard_normal((50, 3))
        B = rng.standard_normal((50, 3))
        np.testing.assert_allclose(
            apply_sketch(op, A + B),
            apply_sketch(op, A) + apply_sketch(op, B),
            atol=1e-12,
        )

    def test_monte_carlo_isometry(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((128, 4))
        fro2 = np.linalg.norm(A) ** 2
        ratios = [
            np.linalg.norm(apply_sketch(build_sketch(128, 64, seed=s), A)) ** 2 / fro2
            for s in range(200)
        ]
        assert 0.9 <= np.mean(ratios) <= 1.1

    def test_vector_input(self):
        rng = np.random.default_rng(6)
        op = build_sketch(40, 16, seed=2)
        v = rng.standard_normal(40)
        np.testing.assert_allclose(
            apply_sketch(op, v), apply_sketch(op, v.reshape(-1, 1)).ravel(), atol=1e-12
        )

    @pytest.mark.parametrize(
        "n,n_subs",
        [(1, 1), (3, 2), (300, 17), (2048, 64), (2049, 64), (1000, 1024), (4096, 4096)],
    )
    def test_matches_dense_operator(self, n, n_subs):
        # (2048, 64): several blocks; (2049, 64): a ragged last block;
        # (1000, 1024) and (4096, 4096): full sample, one block
        op = build_sketch(n, n_subs, seed=n + n_subs)
        padded = op.padded_rows
        dense = op.scale * (hadamard(padded) / np.sqrt(padded))[op.sampled_indices]
        dense = (dense * op.sign_flips)[:, :n]
        rng = np.random.default_rng(n)
        Z = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        np.testing.assert_allclose(apply_sketch(op, Z), dense @ Z, atol=1e-12)
        np.testing.assert_allclose(apply_sketch(op, y), dense @ y, atol=1e-12)
        stacked = apply_sketch(op, np.column_stack([Z, y]))
        np.testing.assert_array_equal(estimator_sketch(op, Z, y), stacked)

    def test_pair_peak_memory_near_data_size(self):
        # the transform buffer plus one scratch, both the size of the data
        # blocks (2x the data); transforming a zero-padded n' = 32768-row
        # copy with a new array per pass takes 4.9x
        n, p = 20000, 50
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        op = build_sketch(n, 400, seed=8)
        estimator_sketch(op, Z, y)
        tracemalloc.start()
        try:
            estimator_sketch(op, Z, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * n * (p + 1) * 8

    def test_pair_peak_memory_is_a_fraction_of_the_data(self):
        # the sketch streams the data through one cache-sized tile; its
        # working memory is that tile, the tile's transform scratch, the
        # gathered kept rows and the n_subs-row output
        n, p = 20000, 50
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        op = build_sketch(n, 400, seed=8)
        estimator_sketch(op, Z, y)
        tracemalloc.start()
        try:
            estimator_sketch(op, Z, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * (p + 1) * 8

    def test_concurrent_calls_match_sequential_calls(self):
        # run_experiment(threads=2) sketches on two threads at once; no
        # buffer may be shared between calls
        rng = np.random.default_rng(9)
        jobs = []
        for k, (n, n_subs) in enumerate([(12000, 200), (9000, 600)] * 3):
            Z = rng.standard_normal((n, 12))
            y = rng.standard_normal(n)
            jobs.append((build_sketch(n, n_subs, seed=k), Z, y))
        sequential = [estimator_sketch(*job) for job in jobs]
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=2) as pool:
                concurrent = list(pool.map(lambda job: estimator_sketch(*job), jobs))
            for seq, con in zip(sequential, concurrent):
                np.testing.assert_array_equal(seq, con)

    def test_shape_mismatch_rejected(self):
        op = build_sketch(20, 8, seed=1)
        with pytest.raises(ShapeMismatchError):
            apply_sketch(op, np.zeros((21, 2)))
