"""Shared generators for randomized tests.

All randomness flows through explicitly seeded numpy generators so every
test run is reproducible.
"""

import bisect
import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qmajor.bipartite import BipartiteState
from qmajor.majorize import TChain, TTransform, _neg_entropy, _nonneg_vector
from qmajor.numkernel import TOL_PROB

# The one profile of the property tests: derandomized, so the suite runs the
# same examples every time.
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.cache
def identity_tool():
    """``tools/identity.py``, the identity harness, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


# Test oracles: conventions the tests compare the library against, which no library path calls.

def rank_of(rho):
    """Number of eigenvalues above 1e-9."""
    return int(np.sum(rho.eigenvalues() > 1e-9))


def shannon_entropy(weights):
    """Shannon entropy in nats of a 1-D vector, 0 log 0 := 0; entries in [-1e-9, 0) count as 0."""
    return -_neg_entropy(_nonneg_vector(weights, TOL_PROB, "weights"))


def von_neumann_entropy(rho):
    """Entropy of the spectrum, in nats."""
    return -_neg_entropy(rho.eigenvalues())


def fix_global_phase(v):
    """Multiply by a unit phase so the largest-magnitude entry is real positive.

    Returns a copy of the input when every entry is at most 1e-12.  Works on
    arrays of any shape; the convention picks the first entry attaining the
    maximum magnitude in C-order, which makes equality assertions well-defined.
    """
    m = np.asarray(v, dtype=np.complex128)
    flat = m.reshape(-1)
    pivot = flat[np.abs(flat).argmax()]
    if abs(pivot) <= 1e-12:
        return m.copy(order="K")
    return m * (pivot.conjugate() / abs(pivot))


def chain_oracle(xv, yv, perm_x, perm_y):
    """The T-chain walk in its plain form: ``min``/``max`` clamps and one validated TTransform
    per step.  Takes what ``majorize._majorized_pair`` returns; ``majorize._chain`` must give
    the same chain, down to the sign of a zero t."""
    d = xv.size
    xs = xv[perm_x].tolist()
    order = list(range(d))
    neg = (-yv[perm_y]).tolist()
    transforms = []
    for h in range(d - 1):
        target = xs[h]
        ib = min(bisect.bisect_right(neg, -target, h), d - 1)
        a, b = order[h], order[ib]
        wa, wb = -neg[h], -neg[ib]
        if wa > wb:
            t = min(1.0, max(0.0, (target - wb) / (wa - wb)))
        else:
            t = 1.0
        if t < 1.0:
            transforms.append(TTransform(i=a, k=b, t=t))
            vb = (1.0 - t) * wa + t * wb
            del order[ib], neg[ib]
            at = bisect.bisect_left(neg, -vb, h + 1)
            order.insert(at, b)
            neg.insert(at, -vb)
    target_permutation = np.empty(d, dtype=np.intp)
    target_permutation[perm_x] = order
    return TChain(transforms=transforms, source_permutation=perm_y, target_permutation=target_permutation)


def witness_oracle(chain):
    """The Horn witness of a chain in its plain form: a copy of row i is taken before each
    Givens rotation, and rows are found through numpy integers."""
    d = chain.dim
    w = np.zeros((d, d))
    home = np.argsort(chain.source_permutation[chain.target_permutation])
    w[home, np.arange(d)] = 1.0
    at = home[chain.source_permutation]
    for tr in chain.transforms:
        ri, rk = w[at[tr.i]], w[at[tr.k]]
        c, s = math.sqrt(tr.t), math.sqrt(1.0 - tr.t)
        old_i = ri.copy()
        ri *= c
        ri -= s * rk
        rk *= c
        rk += s * old_i
    return w
