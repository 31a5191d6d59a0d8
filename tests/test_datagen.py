import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rbls.datagen import (
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


def replay_corrupted(n, p, pi, sigma_x, sigma_w, sigma_eps, seed):
    """Redraw the latent parts of gen_corrupted in its documented order."""
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    X = rng.standard_normal((n, p)) * sigma_x
    W = rng.standard_normal((n, p)) * sigma_w
    mask = rng.random(n) < pi
    eps = rng.standard_normal(n) * sigma_eps
    return SimpleNamespace(beta=beta, X=X, W=W, mask=mask, eps=eps)


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
        prob = gen_corrupted(*args)
        d = replay_corrupted(*args)
        np.testing.assert_array_equal(prob.truth.beta, d.beta)
        np.testing.assert_array_equal(prob.truth.corruption_mask, d.mask)
        np.testing.assert_array_equal(prob.Z, d.X + d.mask[:, None] * d.W)
        np.testing.assert_allclose(prob.y, d.X @ d.beta + d.eps, atol=1e-12)

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
        # are dropped, and W is the only n x p array made beside Z
        tracemalloc.start()
        try:
            prob = gen_corrupted(20_000, 50, 0.3, 1.0, 0.4, 0.1, seed=0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        t = prob.truth
        kept = prob.Z.nbytes + prob.y.nbytes + t.beta.nbytes + t.corruption_mask.nbytes
        assert held <= 1.1 * kept
        assert peak <= 2.1 * prob.Z.nbytes

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

    def test_split_shares_beta(self):
        split = gen_regime_split(400, 100, 6, T3, seed=2)
        assert np.array_equal(split.train.truth.beta, split.test.truth.beta)
        assert split.train.n == 400 and split.test.n == 100

    def test_unknown_regime(self):
        with pytest.raises(InvalidParamsError):
            gen_leverage_regime(100, 4, "cauchy", seed=0)


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
