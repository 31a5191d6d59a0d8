import numpy as np
import pytest

from rbls.errors import InvalidInputError
from rbls.sampling import WEIGHT_FLOOR_RATIO, inverse_score_probabilities


def test_normalization():
    probs, fallback = inverse_score_probabilities(np.array([1.0, 3.0]))
    assert not fallback
    np.testing.assert_allclose(probs, [0.75, 0.25])
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_floor_ratio():
    # scores below WEIGHT_FLOOR_RATIO * max share the floor's weight, so no
    # row outweighs the top-score row by more than 1 / WEIGHT_FLOOR_RATIO
    scores = np.array([0.0, 1e-9, 0.5 * WEIGHT_FLOOR_RATIO, 0.1, 1.0])
    probs, fallback = inverse_score_probabilities(scores)
    assert not fallback
    assert probs[0] == probs[1] == probs[2]
    assert probs[0] / probs[-1] == pytest.approx(1.0 / WEIGHT_FLOOR_RATIO)
    assert probs[3] / probs[-1] == pytest.approx(10.0)


def test_uniform_fallback():
    probs, fallback = inverse_score_probabilities(np.zeros(8))
    assert fallback
    np.testing.assert_array_equal(probs, np.full(8, 1 / 8))


def test_rejects_bad_weights():
    for bad in ([], [-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0], [[1.0, 2.0]]):
        with pytest.raises(InvalidInputError):
            inverse_score_probabilities(np.array(bad, dtype=float))


def test_single_category():
    probs, fallback = inverse_score_probabilities(np.array([3.0]))
    assert not fallback
    np.testing.assert_array_equal(probs, [1.0])


def test_rejects_scores_whose_inverses_overflow():
    # the floor 1e-3 * 5e-324 underflows to 0, so the zero score's weight is
    # inf; numpy's choice would raise a bare ValueError on the NaN quotient
    with pytest.raises(InvalidInputError, match="too small to invert"):
        inverse_score_probabilities(np.array([5e-324, 0.0]))
