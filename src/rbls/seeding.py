"""Deterministic derivation of independent RNG streams from one seed.

Every randomized component draws from a role-tagged child of the caller's
seed, so two estimators given the same seed share exactly the streams they
are meant to share (e.g. the row-sampling stream) and nothing else.
"""

import numpy as np

from .errors import InvalidParamsError

ROLE_SKETCH = 1
ROLE_PROJECTION = 2
ROLE_SAMPLING = 3
ROLE_DATA = 4
ROLE_FIT = 5  # a sweep's fit seeds, keyed (ROLE_FIT, method code, replication)


def check_seed(seed):
    """Raise InvalidParamsError unless ``seed`` is an integer >= 0: numpy
    integers too, but never bool, although bool subclasses int."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParamsError(f"need an integer seed >= 0, got {seed!r}")


def spawn_seed(seed, *key):
    """Collision-free 64-bit child seed for (seed, *key)."""
    ss = np.random.SeedSequence(tuple(int(k) for k in (seed, *key)))
    return int(ss.generate_state(1, np.uint64)[0])


def spawn_rng(seed, *key):
    """Generator seeded from the (seed, *key) child stream."""
    ss = np.random.SeedSequence(tuple(int(k) for k in (seed, *key)))
    return np.random.default_rng(ss)
