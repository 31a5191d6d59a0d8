"""Simulated regression problems and airline-delay CSV ingestion.

The corrupted observation model draws a latent design X and responses
y = X beta + eps, but exposes Z = X + diag(u) W where u is a Bernoulli(pi)
row mask and W an independent noise matrix: a row is either observed clean
or with additive corruption.  Entries of X and W are i.i.d. N(0, sigma^2)
with the stated per-entry standard deviations.  A generated problem keeps
only Z, y, beta and u; X, W and eps are not stored.  They can be redrawn
from the seed: beta, X, the mask (uniforms below pi), W and eps are drawn
in that order from ``np.random.default_rng(seed)``.  W exists only for the
masked rows: it is a k x p draw, k the number of masked rows, whose i-th
row corrupts the i-th masked row of X.
"""

import csv
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, ParseError, SchemaError
from .seeding import _is_integer, check_seed


@dataclass(frozen=True)
class Truth:
    """What a simulated problem is scored against.

    ``beta`` is the coefficient vector behind y, and ``corruption_mask``
    marks the rows of Z that carry additive corruption (all False for the
    leverage regimes and for clean test rows).
    """

    beta: np.ndarray
    corruption_mask: np.ndarray


@dataclass(frozen=True)
class RegressionProblem:
    """Observed design and response, plus the generating truth if simulated."""

    Z: np.ndarray
    y: np.ndarray
    truth: Truth | None = None

    @property
    def n(self):
        return self.Z.shape[0]

    @property
    def p(self):
        return self.Z.shape[1]


@dataclass(frozen=True)
class SplitProblem:
    """Train/test pair with disjoint rows sharing one coefficient vector."""

    train: RegressionProblem
    test: RegressionProblem


# Rows of W are drawn and added in tiles of at most this many bytes, the cap
# of the tiled products in diagnostics and srht.  numpy's Generator draws the
# same normals in tiles as in one call, so the tile size changes memory only.
_TILE_BYTES = 1 << 20

# A design of at least this many bytes is drawn into its own anonymous
# mapping, which is unmapped when the problem is freed.  From the malloc heap,
# a freed n x p block stays resident as a hole, and whether later
# allocations can reuse it depends on the small blocks the heap holds around
# it, which differ from process to process, so the peak RSS of a loop over
# problems would vary from run to run.  Smaller designs stay in the heap,
# where reusing freed pages costs less than faulting in fresh ones.
_MAPPED_BYTES = 1 << 20


def _normal_design(rng, n, p):
    """``rng.standard_normal((n, p))``, in its own mapping from _MAPPED_BYTES on."""
    if 8 * n * p < _MAPPED_BYTES:
        return rng.standard_normal((n, p))
    return rng.standard_normal(out=np.ndarray((n, p), buffer=mmap.mmap(-1, 8 * n * p)))


def _check_sizes(**sizes):
    """Raise InvalidParamsError unless every size is an integer >= 1."""
    for name, size in sizes.items():
        if not _is_integer(size, 1):
            raise InvalidParamsError(f"need an integer {name} >= 1, got {size!r}")


def _check_scales(pi, sigma_x, sigma_w, sigma_eps):
    if not 0.0 <= pi <= 1.0:
        raise InvalidParamsError(f"need 0 <= pi <= 1, got {pi}")
    for name, val in (("sigma_x", sigma_x), ("sigma_w", sigma_w), ("sigma_eps", sigma_eps)):
        if val < 0:
            raise InvalidParamsError(f"need {name} >= 0, got {val}")


def _assemble_corrupted(rng, n, p, pi, sigma_x, sigma_w, sigma_eps, beta):
    # X is drawn straight into Z, and y is formed from it before any W is
    # added.  W is drawn only for the masked rows, one tile of at most
    # _TILE_BYTES at a time, each added in place to its rows of Z, so a
    # problem holds one n x p array and no other is made beside it.
    Z = _normal_design(rng, n, p)
    Z *= sigma_x
    mask = rng.random(n) < pi
    y = Z @ beta
    rows = np.flatnonzero(mask)
    step = max(1, _TILE_BYTES // (8 * p))
    for i in range(0, rows.size, step):
        tile = rows[i : i + step]
        W = rng.standard_normal((tile.size, p))
        W *= sigma_w
        Z[tile] += W
    y += rng.standard_normal(n) * sigma_eps
    return RegressionProblem(Z, y, Truth(beta, mask))


def gen_corrupted(n, p, pi, sigma_x, sigma_w, sigma_eps, seed):
    """Corrupted-observation problem with i.i.d. Gaussian components.

    beta is standard normal, Z = X + diag(u) W and y = X beta + eps.
    Deterministic in ``seed``: beta, X, the mask, W for the masked rows only
    (none when pi is 0) and eps are drawn in that order, as the module
    docstring details.
    """
    check_seed(seed)
    _check_sizes(n=n, p=p)
    _check_scales(pi, sigma_x, sigma_w, sigma_eps)
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    return _assemble_corrupted(rng, n, p, pi, sigma_x, sigma_w, sigma_eps, beta)


def gen_corrupted_split(n_train, n_test, p, pi, sigma_x, sigma_w, sigma_eps, seed):
    """Train/test corrupted problems sharing one beta.

    The training rows are corrupted as in ``gen_corrupted``.  The test rows
    are always clean (their corruption mask is all False), so test RMSE
    measures the fit against the true signal.  The test rows are drawn
    after the training rows in the same order: X, the mask's uniforms and
    eps, with no W, since no test row is masked.
    """
    check_seed(seed)
    _check_sizes(n_train=n_train, n_test=n_test, p=p)
    _check_scales(pi, sigma_x, sigma_w, sigma_eps)
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    train = _assemble_corrupted(rng, n_train, p, pi, sigma_x, sigma_w, sigma_eps, beta)
    test = _assemble_corrupted(rng, n_test, p, 0.0, sigma_x, sigma_w, sigma_eps, beta)
    return SplitProblem(train, test)


GAUSSIAN = "gaussian"
T3 = "t3"
T1 = "t1"
REGIMES = (GAUSSIAN, T3, T1)

_REGIME_DF = {GAUSSIAN: None, T3: 3, T1: 1}

REGIME_SIGMA_EPS = 0.1


def _regime_problem(rng, n, p, regime, beta):
    X = _normal_design(rng, n, p)
    df = _REGIME_DF[regime]
    if df is not None:
        # multivariate-t rows: Gaussian over sqrt(chi2/df), per row, in place
        X /= np.sqrt(rng.chisquare(df, n) / df)[:, None]
    eps = rng.standard_normal(n) * REGIME_SIGMA_EPS
    return RegressionProblem(X, X @ beta + eps, Truth(beta, np.zeros(n, dtype=bool)))


def gen_leverage_regime(n, p, regime, seed):
    """Uncorrupted problem whose leverage profile is set by the row law.

    gaussian gives near-uniform leverages, t3 mildly heavy tails, t1
    Cauchy-like rows with a few dominant leverage scores.  The response is
    y = X beta + eps with sigma_eps = 0.1 and standard-normal beta.
    """
    check_seed(seed)
    if regime not in REGIMES:
        raise InvalidParamsError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    _check_sizes(n=n, p=p)
    if n <= p:
        raise InvalidParamsError(f"need n > p, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    return _regime_problem(rng, n, p, regime, beta)


def gen_regime_split(n_train, n_test, p, regime, seed):
    """Train/test pair from one leverage regime, shared beta."""
    check_seed(seed)
    if regime not in REGIMES:
        raise InvalidParamsError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    _check_sizes(n_train=n_train, n_test=n_test, p=p)
    if n_train <= p:
        raise InvalidParamsError(f"need n_train > p, got n_train={n_train}, p={p}")
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    train = _regime_problem(rng, n_train, p, regime, beta)
    test = _regime_problem(rng, n_test, p, regime, beta)
    return SplitProblem(train, test)


AIRLINE_REQUIRED_COLUMNS = ("Origin", "Dest", "Distance", "ArrDelay")


def _parse_airline_rows(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("file is empty; expected a header row", AIRLINE_REQUIRED_COLUMNS)
        missing = [c for c in AIRLINE_REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"missing required columns: {missing}", missing)
        for record in reader:
            line_no = reader.line_num
            distance = (record["Distance"] or "").strip()
            delay = (record["ArrDelay"] or "").strip()
            if delay in ("", "NA") or distance in ("", "NA"):
                continue  # rows without a usable response or distance are dropped
            try:
                values = float(distance), float(delay)
                if not np.isfinite(values).all():  # float() reads "nan" and "inf"
                    raise ValueError(f"non-finite Distance {distance!r} or ArrDelay {delay!r}")
            except ValueError as err:
                raise ParseError(f"line {line_no}: {err}", line_no) from err
            rows.append((record["Origin"], record["Dest"], *values))
    return rows


def load_airline_csv(path, n_train, n_test):
    """Load a flight-delay CSV into a train/test regression split.

    Features are a one-hot code over origin-destination pairs (learned from
    the training rows only; unseen pairs in test map to all zeros) plus the
    flight distance standardized by the training mean/sd.  Rows keep file
    order, so the split is temporal: first n_train rows train, next n_test
    test.  The response is the arrival delay in minutes.
    """
    rows = _parse_airline_rows(path)
    if len(rows) < n_train + n_test:
        raise InvalidParamsError(
            f"file has {len(rows)} usable rows, need n_train + n_test = {n_train + n_test}"
        )
    train_rows = rows[:n_train]
    test_rows = rows[n_train : n_train + n_test]
    # one-hot column of each origin-destination pair, in order of first
    # appearance in the training rows
    columns = {}
    for r in train_rows:
        columns.setdefault((r[0], r[1]), len(columns))

    def build(split_rows, mean, sd):
        one_hot = np.zeros((len(split_rows), len(columns)))
        for row, r in enumerate(split_rows):
            col = columns.get((r[0], r[1]))
            if col is not None:
                one_hot[row, col] = 1.0
        distance = np.array([r[2] for r in split_rows])
        delay = np.array([r[3] for r in split_rows])
        return RegressionProblem(np.column_stack([one_hot, (distance - mean) / sd]), delay)

    train_distance = np.array([r[2] for r in train_rows])
    mean = float(train_distance.mean())
    sd = float(train_distance.std())
    if sd == 0.0:
        sd = 1.0
    return SplitProblem(build(train_rows, mean, sd), build(test_rows, mean, sd))
