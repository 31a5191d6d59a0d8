import mmap
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from rbls.datagen import (
    _MAPPED_BYTES,
    _TILE_BYTES,
    GAUSSIAN,
    REGIME_SIGMA_EPS,
    T1,
    T3,
    gen_corrupted,
    gen_corrupted_split,
    gen_leverage_regime,
    gen_regime_split,
    load_airline_csv,
)
from rbls.diagnostics import compute_diagnostics, histogram_l1_distance
from rbls.errors import InvalidParamsError, ParseError, SchemaError


def replay_rows(rng, n, p, pi, sigma_x, sigma_w, sigma_eps):
    """Redraw one block of corrupted rows in the documented order: X, the
    mask, W for the masked rows only (one k x p block), then eps."""
    X = rng.standard_normal((n, p)) * sigma_x
    mask = rng.random(n) < pi
    W = rng.standard_normal((np.count_nonzero(mask), p)) * sigma_w
    eps = rng.standard_normal(n) * sigma_eps
    return SimpleNamespace(X=X, mask=mask, W=W, eps=eps)


def replay_corrupted(n, p, pi, sigma_x, sigma_w, sigma_eps, seed):
    """Redraw the latent parts of gen_corrupted: beta, then its rows."""
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    return SimpleNamespace(beta=beta, **vars(replay_rows(rng, n, p, pi, sigma_x, sigma_w,
                                                         sigma_eps)))


def assert_replays(prob, d):
    """prob is what the redrawn beta, X, mask, W and eps make: Z = X with W
    added to the masked rows, and y = X beta + eps, formed before W."""
    Z = d.X.copy()
    Z[d.mask] += d.W
    np.testing.assert_array_equal(prob.truth.beta, d.beta)
    np.testing.assert_array_equal(prob.truth.corruption_mask, d.mask)
    np.testing.assert_array_equal(prob.Z, Z)
    np.testing.assert_allclose(prob.y, d.X @ d.beta + d.eps, rtol=0, atol=1e-12)


def assert_holds_only_what_is_read(generate):
    """The problem ``generate`` returns holds little beyond its Z, y, beta
    and mask, and generating it peaks at no more than 1.4 times Z's bytes.
    Z is in its own mapping, which tracemalloc does not see, so its bytes
    are added to both: the mapping lives from the first draw to the end."""
    tracemalloc.start()
    try:
        prob = generate()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(prob.Z.base, mmap.mmap)
    t = prob.truth
    kept = prob.Z.nbytes + prob.y.nbytes + t.beta.nbytes + t.corruption_mask.nbytes
    assert held + prob.Z.nbytes <= 1.1 * kept
    assert peak + prob.Z.nbytes <= 1.4 * prob.Z.nbytes


def replay_regime(n, p, df, seed):
    """Redraw the latent parts of gen_leverage_regime (df None: Gaussian rows)."""
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    X = rng.standard_normal((n, p))
    if df is not None:
        X = X / np.sqrt(rng.chisquare(df, n) / df)[:, None]
    eps = rng.standard_normal(n) * REGIME_SIGMA_EPS
    return SimpleNamespace(beta=beta, X=X, eps=eps)


class TestGenCorrupted:
    def test_pi_zero_means_clean_design(self):
        args = (100, 4, 0.0, 1.0, 0.4, 0.1, 0)
        prob = gen_corrupted(*args)
        np.testing.assert_array_equal(prob.Z, replay_corrupted(*args).X)
        assert not prob.truth.corruption_mask.any()

    def test_sigma_w_zero_means_clean_design(self):
        args = (100, 4, 0.5, 1.0, 0.0, 0.1, 0)
        prob = gen_corrupted(*args)
        np.testing.assert_array_equal(prob.Z, replay_corrupted(*args).X)

    def test_corrupted_row_count_concentrates(self):
        prob = gen_corrupted(10_000, 20, pi=0.3, sigma_x=1.0, sigma_w=0.4, sigma_eps=0.1, seed=5)
        count = prob.truth.corruption_mask.sum()
        assert 2800 <= count <= 3200

    def test_mask_mean_within_binomial_band(self):
        for seed in range(5):
            prob = gen_corrupted(5000, 5, 0.3, 1.0, 0.4, 0.1, seed=seed)
            dev = abs(prob.truth.corruption_mask.mean() - 0.3)
            assert dev <= 3 * np.sqrt(0.3 * 0.7 / 5000)

    def test_reconstruction_from_truth(self):
        args = (200, 6, 0.3, 1.0, 0.4, 0.1, 3)
        assert_replays(gen_corrupted(*args), replay_corrupted(*args))

    def test_reconstruction_across_tiles(self):
        # W is drawn in tiles of rows but replayed as one block: the
        # Generator's stream does not depend on how it is split
        args = (20_000, 50, 0.3, 1.0, 0.4, 0.1, 8)
        d = replay_corrupted(*args)
        assert d.mask.sum() > 2 * (_TILE_BYTES // (8 * 50))  # 3 tiles or more
        assert_replays(gen_corrupted(*args), d)

    def test_reconstruction_with_every_row_corrupted(self):
        args = (300, 5, 1.0, 1.0, 0.4, 0.1, 2)
        d = replay_corrupted(*args)
        assert d.mask.all()
        assert_replays(gen_corrupted(*args), d)

    def test_deterministic(self):
        a = gen_corrupted(50, 3, 0.2, 1.0, 0.4, 0.1, seed=9)
        b = gen_corrupted(50, 3, 0.2, 1.0, 0.4, 0.1, seed=9)
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.y, b.y)

    def test_entry_second_moment(self):
        # n * p = 2e5 entries: the mean square is within 5% of sigma_x^2
        args = (20_000, 10, 0.0, 1.5, 0.4, 0.1, 2)
        prob = gen_corrupted(*args)
        np.testing.assert_array_equal(prob.Z, replay_corrupted(*args).X)
        assert np.mean(prob.Z**2) == pytest.approx(1.5**2, rel=0.05)

    def test_holds_only_what_is_read(self):
        # a problem keeps Z, y, beta and the mask; the latent X, W and eps
        # are dropped, and W exists only as one tile of masked rows at a time
        assert_holds_only_what_is_read(lambda: gen_corrupted(20_000, 50, 0.3, 1.0, 0.4, 0.1, 0))

    def test_holds_only_what_is_read_with_every_row_corrupted(self):
        assert_holds_only_what_is_read(lambda: gen_corrupted(20_000, 50, 1.0, 1.0, 0.4, 0.1, 0))

    @pytest.mark.parametrize("extra_row, mapped", [(0, False), (1, True)])
    def test_large_design_in_own_mapping(self, extra_row, mapped):
        # from _MAPPED_BYTES on, Z is drawn into an anonymous mapping, with
        # the same entries, and the mapping goes when the problem does
        n = (_MAPPED_BYTES - 1) // (8 * 50) + extra_row
        args = (n, 50, 0.3, 1.0, 0.4, 0.1, 6)
        prob = gen_corrupted(*args)
        assert_replays(prob, replay_corrupted(*args))
        assert isinstance(prob.Z.base, mmap.mmap) == mapped
        if mapped:
            mapping = weakref.ref(prob.Z.base)
            del prob
            assert mapping() is None

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            gen_corrupted(10, 2, pi=1.5, sigma_x=1.0, sigma_w=0.4, sigma_eps=0.1, seed=0)
        with pytest.raises(InvalidParamsError):
            gen_corrupted(10, 2, pi=0.1, sigma_x=-1.0, sigma_w=0.4, sigma_eps=0.1, seed=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_influence_separates_where_leverage_does_not(self, seed):
        prob = gen_corrupted(5000, 30, 0.3, 1.0, 0.4, 0.1, seed=seed)
        mask = prob.truth.corruption_mask
        report = compute_diagnostics(prob.Z, prob.y)
        d_influence = histogram_l1_distance(report.influences[mask], report.influences[~mask])
        d_leverage = histogram_l1_distance(report.leverages[mask], report.leverages[~mask])
        assert d_influence > d_leverage


class TestGenCorruptedSplit:
    def test_shared_beta_and_clean_test(self):
        split = gen_corrupted_split(300, 100, 5, 0.3, 1.0, 0.4, 0.1, seed=1)
        assert np.array_equal(split.train.truth.beta, split.test.truth.beta)
        assert not split.test.truth.corruption_mask.any()
        assert split.train.truth.corruption_mask.any()

    def test_test_rows_replay_with_no_noise_draw(self):
        # the test rows follow the training rows in the same stream: X, the
        # mask's uniforms and eps, with no W drawn for them
        split = gen_corrupted_split(400, 150, 6, 0.3, 1.0, 0.4, 0.1, seed=11)
        rng = np.random.default_rng(11)
        beta = rng.standard_normal(6)
        train = replay_rows(rng, 400, 6, 0.3, 1.0, 0.4, 0.1)
        assert_replays(split.train, SimpleNamespace(beta=beta, **vars(train)))
        X = rng.standard_normal((150, 6))
        rng.random(150)
        eps = rng.standard_normal(150) * 0.1
        np.testing.assert_array_equal(split.test.truth.beta, beta)
        np.testing.assert_array_equal(split.test.Z, X)
        np.testing.assert_allclose(split.test.y, X @ beta + eps, rtol=0, atol=1e-12)


class TestLeverageRegimes:
    def test_gaussian_rows_have_uniform_leverage(self):
        hits = 0
        for seed in range(10):
            prob = gen_leverage_regime(2048, 8, GAUSSIAN, seed=seed)
            report = compute_diagnostics(prob.Z, prob.y)
            hits += report.leverages.max() < 10 * 8 / 2048
        assert hits >= 9

    def test_t1_rows_have_dominant_leverage(self):
        hits = 0
        for seed in range(10):
            prob = gen_leverage_regime(2048, 8, T1, seed=seed)
            report = compute_diagnostics(prob.Z, prob.y)
            hits += report.leverages.max() > 50 * 8 / 2048
        assert hits >= 9

    def test_t3_between_the_extremes(self):
        prob = gen_leverage_regime(2048, 8, T3, seed=0)
        assert prob.Z.shape == (2048, 8)

    def test_response_regenerable(self):
        for regime, df in ((GAUSSIAN, None), (T3, 3), (T1, 1)):
            prob = gen_leverage_regime(500, 6, regime, seed=4)
            d = replay_regime(500, 6, df, seed=4)
            np.testing.assert_array_equal(prob.Z, d.X)
            np.testing.assert_allclose(prob.y, d.X @ d.beta + d.eps, atol=1e-12)

    def test_t1_holds_only_what_is_read(self):
        # the rows are scaled in place: no second n x p array is made
        assert_holds_only_what_is_read(lambda: gen_leverage_regime(20_000, 50, T1, seed=0))

    def test_split_shares_beta(self):
        split = gen_regime_split(400, 100, 6, T3, seed=2)
        assert np.array_equal(split.train.truth.beta, split.test.truth.beta)
        assert split.train.n == 400 and split.test.n == 100

    def test_unknown_regime(self):
        with pytest.raises(InvalidParamsError):
            gen_leverage_regime(100, 4, "cauchy", seed=0)


GENERATORS = {
    "gen_corrupted": lambda seed: gen_corrupted(50, 3, 0.3, 1.0, 0.4, 0.1, seed),
    "gen_corrupted_split": lambda seed: gen_corrupted_split(50, 10, 3, 0.3, 1.0, 0.4, 0.1, seed),
    "gen_leverage_regime": lambda seed: gen_leverage_regime(50, 3, T3, seed),
    "gen_regime_split": lambda seed: gen_regime_split(50, 10, 3, T3, seed),
}


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("seed", [-1, 2.5, True, None])
def test_bad_seed_rejected(generator, seed):
    with pytest.raises(InvalidParamsError, match="seed"):
        GENERATORS[generator](seed)


@pytest.mark.parametrize("generator", GENERATORS)
def test_numpy_integer_seed_accepted(generator):
    # np.uint64(7) draws what 7 draws
    a, b = GENERATORS[generator](np.uint64(7)), GENERATORS[generator](7)
    np.testing.assert_array_equal(getattr(a, "train", a).Z, getattr(b, "train", b).Z)


# (generator, size argument): each call puts the value under test in that
# argument and a valid size in every other
SIZED_CALLS = {
    ("gen_corrupted", "n"): lambda v: gen_corrupted(v, 3, 0.3, 1.0, 0.4, 0.1, 0),
    ("gen_corrupted", "p"): lambda v: gen_corrupted(50, v, 0.3, 1.0, 0.4, 0.1, 0),
    ("gen_corrupted_split", "n_train"): lambda v: gen_corrupted_split(v, 10, 3, 0.3, 1.0, 0.4,
                                                                      0.1, 0),
    ("gen_corrupted_split", "n_test"): lambda v: gen_corrupted_split(50, v, 3, 0.3, 1.0, 0.4,
                                                                     0.1, 0),
    ("gen_corrupted_split", "p"): lambda v: gen_corrupted_split(50, 10, v, 0.3, 1.0, 0.4, 0.1, 0),
    ("gen_leverage_regime", "n"): lambda v: gen_leverage_regime(v, 3, T3, 0),
    ("gen_leverage_regime", "p"): lambda v: gen_leverage_regime(50, v, T3, 0),
    ("gen_regime_split", "n_train"): lambda v: gen_regime_split(v, 10, 3, T3, 0),
    ("gen_regime_split", "n_test"): lambda v: gen_regime_split(50, v, 3, T3, 0),
    ("gen_regime_split", "p"): lambda v: gen_regime_split(50, 10, v, T3, 0),
}


@pytest.mark.parametrize("call", SIZED_CALLS, ids="-".join)
@pytest.mark.parametrize("size", [2.5, np.float64(3.0), True, "40", None, 0])
def test_bad_size_rejected(call, size):
    with pytest.raises(InvalidParamsError, match=f"integer {call[1]} >= 1"):
        SIZED_CALLS[call](size)


@pytest.mark.parametrize("call", SIZED_CALLS, ids="-".join)
def test_numpy_integer_size_accepted(call):
    # np.int32(size) draws what size draws
    size = 3 if call[1] == "p" else 40
    a, b = SIZED_CALLS[call](np.int32(size)), SIZED_CALLS[call](size)
    np.testing.assert_array_equal(getattr(a, "train", a).Z, getattr(b, "train", b).Z)


AIRLINE_HEADER = "Year,Month,DayofMonth,UniqueCarrier,Origin,Dest,Distance,ArrDelay"


def write_airline_csv(path, rows):
    path.write_text(AIRLINE_HEADER + "\n" + "\n".join(rows) + "\n")


class TestAirlineLoader:
    def test_three_row_fixture_dimension(self, tmp_path):
        f = tmp_path / "flights.csv"
        write_airline_csv(
            f,
            [
                "2000,1,1,US,JFK,LAX,2475,10",
                "2000,1,2,US,SFO,ORD,1846,-3",
                "2000,1,3,US,JFK,LAX,2475,25",
            ],
        )
        split = load_airline_csv(f, n_train=2, n_test=1)
        # 2 distinct origin-destination pairs seen in training + distance
        assert split.train.p == 3
        assert split.train.n == 2 and split.test.n == 1

    def test_one_hot_columns_in_order_of_first_appearance(self, tmp_path):
        # C-D is seen first, so it takes column 0 although A-B sorts first
        f = tmp_path / "flights.csv"
        write_airline_csv(
            f,
            [
                "2000,1,1,US,C,D,100,1",
                "2000,1,2,US,A,B,300,2",
                "2000,1,3,US,C,D,200,3",
                "2000,1,4,US,A,B,250,4",
                "2000,1,5,US,E,F,150,5",
            ],
        )
        split = load_airline_csv(f, n_train=3, n_test=2)
        np.testing.assert_array_equal(split.train.Z[:, :-1], [[1, 0], [0, 1], [1, 0]])
        np.testing.assert_array_equal(split.test.Z[:, :-1], [[0, 1], [0, 0]])

    def test_unseen_pair_maps_to_zero_block(self, tmp_path):
        f = tmp_path / "flights.csv"
        write_airline_csv(
            f,
            [
                "2000,1,1,US,JFK,LAX,2475,10",
                "2000,1,2,US,JFK,LAX,2400,-3",
                "2000,1,3,US,SFO,ORD,1846,25",
            ],
        )
        split = load_airline_csv(f, n_train=2, n_test=1)
        np.testing.assert_array_equal(split.test.Z[0, :-1], 0.0)

    def test_distance_standardized_by_train_stats(self, tmp_path):
        f = tmp_path / "flights.csv"
        write_airline_csv(
            f,
            [
                "2000,1,1,US,A,B,100,1",
                "2000,1,2,US,A,B,300,2",
                "2000,1,3,US,A,B,200,3",
            ],
        )
        split = load_airline_csv(f, n_train=2, n_test=1)
        np.testing.assert_allclose(split.train.Z[:, -1], [-1.0, 1.0])
        np.testing.assert_allclose(split.test.Z[0, -1], 0.0)

    def test_missing_delay_rows_dropped(self, tmp_path):
        f = tmp_path / "flights.csv"
        write_airline_csv(
            f,
            [
                "2000,1,1,US,A,B,100,NA",
                "2000,1,2,US,A,B,300,2",
                "2000,1,3,US,A,B,200,3",
                "2000,1,4,US,A,B,250,4",
            ],
        )
        split = load_airline_csv(f, n_train=2, n_test=1)
        np.testing.assert_array_equal(split.train.y, [2.0, 3.0])

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "flights.csv"
        write_airline_csv(f, ["2000,1,1,US,A,B,oops,3"])
        with pytest.raises(ParseError) as exc:
            load_airline_csv(f, 1, 0)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "row", ["2000,1,2,US,A,B,nan,3", "2000,1,2,US,A,B,100,inf", "2000,1,2,US,A,B,-Infinity,3"]
    )
    def test_non_finite_value_is_parse_error(self, tmp_path, row):
        # float() reads these; no fit could use the row
        f = tmp_path / "flights.csv"
        write_airline_csv(f, ["2000,1,1,US,A,B,100,1", row])
        with pytest.raises(ParseError) as exc:
            load_airline_csv(f, 1, 0)
        assert exc.value.line_number == 3

    def test_schema_error_lists_missing_columns(self, tmp_path):
        f = tmp_path / "flights.csv"
        f.write_text("Year,Origin,Dest\n2000,A,B\n")
        with pytest.raises(SchemaError) as exc:
            load_airline_csv(f, 1, 0)
        assert set(exc.value.missing_columns) == {"Distance", "ArrDelay"}

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "flights.csv"
        write_airline_csv(f, ["2000,1,1,US,A,B,100,1"])
        with pytest.raises(InvalidParamsError):
            load_airline_csv(f, 5, 5)
