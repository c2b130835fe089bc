"""Shared generators for randomized tests.

All randomness flows through explicitly seeded numpy generators so every
test run is reproducible.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qmajor.bipartite import BipartiteState

# The one profile of the property tests: derandomized, so the suite runs the
# same examples every time.
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def mix_down(y, rng, rounds=None):
    """Apply random two-coordinate averagings to y; the result is majorized by y."""
    x = np.asarray(y, dtype=np.float64).copy()
    n = x.size
    if rounds is None:
        rounds = 2 * n
    for _ in range(rounds):
        i, k = rng.choice(n, size=2, replace=False)
        t = rng.random()
        xi, xk = x[i], x[k]
        x[i] = t * xi + (1.0 - t) * xk
        x[k] = (1.0 - t) * xi + t * xk
    return x


def random_bipartite(dim_a, dim_b, rng):
    """Gaussian-amplitude unit bipartite state."""
    m = rng.normal(size=(dim_a, dim_b)) + 1j * rng.normal(size=(dim_a, dim_b))
    return BipartiteState(amplitudes=m / np.linalg.norm(m))


def rank_deficient_bipartite(dim_a, dim_b, rank, rng):
    """Unit state of the given Schmidt rank; its tail coefficients are ~1e-33."""
    left = rng.normal(size=(dim_a, rank)) + 1j * rng.normal(size=(dim_a, rank))
    right = rng.normal(size=(rank, dim_b)) + 1j * rng.normal(size=(rank, dim_b))
    m = left @ right
    return BipartiteState(amplitudes=m / np.linalg.norm(m))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
