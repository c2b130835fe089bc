"""Property tests of the one mixing core behind synthesis and Corollary 4.

Weight vectors of up to 3 dim entries mix exact zeros, tiny values from
1e-323 to 1e-9 (on both sides of the 1e-12 rank floor, subnormal ones
included) and values of order one, against a density matrix or a bipartite
state of dimension at most 6 and any rank.  Half the time the order-one
part is mixed down from the spectrum, so that compatible and incompatible
vectors both occur.  A compatible vector must be realized at the pinned
1e-8, every positive weight with a real state; an incompatible one must
raise MajorizationError.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from qmajor.bipartite import BipartiteState, corollary4_decompose, embed_state, schmidt
from qmajor.ensembles import is_compatible, synthesize_ensemble, verify_ensemble
from qmajor.majorize import MajorizationError, is_majorized_by
from qmajor.numkernel import random_density

from conftest import FUZZ, mix_down

PROPERTY = settings(FUZZ, max_examples=300)

weight = st.just(0.0) | st.floats(-323.0, -9.0).map(lambda e: 10.0**e) | st.floats(0.01, 1.0)


def _weights(draw, spectrum, dim, rng):
    w = np.array(draw(st.lists(weight, min_size=1, max_size=3 * dim)))
    big = np.flatnonzero(w >= 0.01)
    if draw(st.booleans()) and big.size >= max(spectrum.size, 2):
        # mixed down from the spectrum: majorized by it
        w[big] = mix_down(np.concatenate([spectrum, np.zeros(big.size - spectrum.size)]), rng)
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


@st.composite
def densities_and_weights(draw):
    dim = draw(st.integers(1, 6))
    rank = draw(st.integers(1, dim))
    seed = draw(st.integers(0, 2**31 - 1))
    rho = random_density(dim, rank, seed=seed)
    return rho, _weights(draw, rho.eigenvalues(), dim, np.random.default_rng(seed))


@st.composite
def states_and_weights(draw):
    dim_a, dim_b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(1, min(dim_a, dim_b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    left = rng.normal(size=(dim_a, rank)) + 1j * rng.normal(size=(dim_a, rank))
    right = rng.normal(size=(rank, dim_b)) + 1j * rng.normal(size=(rank, dim_b))
    m = left @ right
    psi = BipartiteState(amplitudes=m / np.linalg.norm(m))
    return psi, _weights(draw, schmidt(psi).coefficients, max(dim_a, dim_b), rng)


@PROPERTY
@given(densities_and_weights())
def test_synthesis_realizes_exactly_the_compatible_weights(case):
    rho, p = case
    if not is_compatible(p, rho):
        event("rejected")
        with pytest.raises(MajorizationError):
            synthesize_ensemble(rho, p)
        return
    event("realized")
    ens = synthesize_ensemble(rho, p)
    assert verify_ensemble(ens, rho).passed
    assert np.array_equal(ens.synthetic, p == 0)


@PROPERTY
@given(states_and_weights())
def test_corollary4_realizes_exactly_the_majorized_weights(case):
    psi, q = case
    if not is_majorized_by(q, schmidt(psi).coefficients):
        event("rejected")
        with pytest.raises(MajorizationError):
            corollary4_decompose(psi, q)
        return
    event("realized")
    dec = corollary4_decompose(psi, q)
    target = embed_state(psi, max(psi.dim_a, q.size), psi.dim_b).amplitudes
    assert np.linalg.norm(dec.reconstruct() - target) <= 1e-8
    assert np.linalg.norm(dec.basis_a.conj().T @ dec.basis_a - np.eye(q.size)) <= 1e-10
    assert np.max(np.abs(np.linalg.norm(dec.states_b, axis=1) - 1.0)) <= 1e-9
