"""Within one build, every public path returns the same bytes for the same input.

Each path runs on three seeded small fixtures, twice in one process.  Its
inputs are built afresh from the seed on each run, so no value computed on
the first run is reused on the second.  Arrays are compared by their bytes
and floats by ``float.hex``.
"""

import dataclasses

import numpy as np
import pytest

from qmajor import (
    BipartiteState,
    build_measurement,
    check_schur_inequalities,
    corollary4_decompose,
    entropy_report,
    enumerate_protocol,
    hermitian_eig,
    horn_orthogonal,
    outcome_distribution,
    random_unitary,
    relate_purifications,
    run_protocol,
    schmidt,
    synthesize_ensemble,
    t_transform_chain,
    uniform_ensemble,
    validate_density,
)

from conftest import mix_down, random_bipartite

SEEDS = (0, 1, 2)


def _fingerprint(value):
    """A hashable image of a result that two runs share only if their bits agree."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.generic):
        return value.dtype.str, value.tobytes()
    if isinstance(value, (bool, int, str, type(None))):
        return type(value).__name__, value
    if isinstance(value, (tuple, list)):
        return tuple(_fingerprint(v) for v in value)
    if dataclasses.is_dataclass(value):
        # vars() takes in what a constructor stores besides its fields, such as a density's spectrum.
        return type(value).__name__, tuple((k, _fingerprint(v)) for k, v in sorted(vars(value).items()))
    raise TypeError(f"no fingerprint for {type(value).__name__}")


def _density(rng):
    n = int(rng.integers(2, 5))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _synthesized(rng):
    rho = validate_density(_density(rng))
    return synthesize_ensemble(rho, mix_down(np.concatenate([rho.eigenvalues(), [0.0]]), rng))


def _pair(rng):
    y = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
    return mix_down(y, rng), y


def _target(rng):
    d = int(rng.integers(2, 4))
    return random_bipartite(d, d, rng), d


def _cor4(rng):
    psi, d = _target(rng)
    return corollary4_decompose(psi, mix_down(schmidt(psi).coefficients, rng))


def _measured(rng):
    dec = _cor4(rng)
    d = dec.states_b.shape[0]
    meas = build_measurement(dec.states_b, d)
    return meas, outcome_distribution(meas, BipartiteState(amplitudes=np.eye(d, dtype=complex) / np.sqrt(d)))


def _purifications(rng):
    phi = random_bipartite(3, 2, rng)
    u = random_unitary(3, seed=int(rng.integers(1000)))
    return relate_purifications(phi, BipartiteState(amplitudes=u @ phi.amplitudes))


PATHS = {
    "hermitian_eig": lambda rng: hermitian_eig(_density(rng)),
    "validate_density": lambda rng: validate_density(_density(rng)),
    "synthesize_ensemble": _synthesized,
    "uniform_ensemble": lambda rng: uniform_ensemble(validate_density(_density(rng)), int(rng.integers(4, 9))),
    "t_transform_chain": lambda rng: t_transform_chain(*_pair(rng)),
    "horn_orthogonal": lambda rng: horn_orthogonal(*_pair(rng)),
    "check_schur_inequalities": lambda rng: check_schur_inequalities(*_pair(rng)),
    "entropy_report": lambda rng: entropy_report(_synthesized(rng)),
    "schmidt": lambda rng: schmidt(_target(rng)[0]),
    "corollary4_decompose": _cor4,
    "run_protocol": lambda rng: run_protocol(*_target(rng), seed=int(rng.integers(1000))),
    "enumerate_protocol": lambda rng: enumerate_protocol(*_target(rng)),
    "relate_purifications": _purifications,
    "build_measurement+outcome_distribution": _measured,
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_same_input_gives_the_same_bytes(name):
    for seed in SEEDS:
        first, second = (_fingerprint(PATHS[name](np.random.default_rng(seed))) for _ in range(2))
        assert first == second, (name, seed)
