"""Inverse-score sampling probabilities with a relative floor."""

import numpy as np

from .errors import InvalidInputError

# Relative floor applied to influence (or squared-residual) scores before
# inverting them into sampling weights.  Inverse weights of a continuously
# distributed score have infinite mean, so without a meaningful floor the
# draw collapses onto the few smallest-score rows and the subsample loses
# rank; 1e-3 keeps the draw spread while still suppressing high-influence
# rows by three orders of magnitude.
WEIGHT_FLOOR_RATIO = 1e-3


def inverse_score_probabilities(scores):
    """Sampling distribution proportional to 1/max(score, floor).

    The floor is ``WEIGHT_FLOOR_RATIO`` times the largest score.  Returns
    (probabilities, uniform_fallback); falls back to uniform when every
    score is zero (nothing to discriminate on).  Raises InvalidInputError
    when the weights do not sum to a finite number: scores so small that
    the floor underflows to zero or their inverses overflow.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise InvalidInputError("scores must be a non-empty 1-d array")
    if not np.all(np.isfinite(scores)) or np.any(scores < 0):
        raise InvalidInputError("scores must be finite and nonnegative")
    top = scores.max()
    if top == 0.0:
        return np.full(scores.size, 1.0 / scores.size), True
    with np.errstate(divide="ignore", over="ignore"):
        weights = 1.0 / np.maximum(scores, WEIGHT_FLOOR_RATIO * top)
        total = weights.sum()
    if not np.isfinite(total):
        raise InvalidInputError(f"scores up to {top:.3g} are too small to invert into weights")
    return weights / total, False
