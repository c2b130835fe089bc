"""The Horn witness of synthesis and Corollary 4 is applied, never built.

The mixing core rotates only the r witness columns its states use, and in
Corollary 4 the columns of U as well; no m x m frame exists for m members.
The dense frame is kept here as the oracle: the n x n witness of the scaled
pair from ``horn_orthogonal``, embedded in an identity, with the Givens
splits of the weights at or below the rank floor.  States must match it byte
for byte, and the A-side basis must match U F^T to roundoff.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from qmajor import bipartite
from qmajor.bipartite import (
    BipartiteState,
    corollary4_decompose,
    embed_state,
    purify,
    reduced_density,
    relate_purifications,
    schmidt,
)
from qmajor.ensembles import synthesize_ensemble, uniform_ensemble
from qmajor.majorize import TTransform, horn_orthogonal
from qmajor.numkernel import DensityMatrix, random_density, random_unitary
from qmajor.protocol import build_measurement, enumerate_protocol, outcome_distribution, run_protocol

from conftest import mix_down, random_bipartite, rank_deficient_bipartite

FLOOR = 1e-12  # the library's one rank floor
FIXTURES = 240


def _oracle_frame(lam, weights):
    """(frame, order, rank, n_pos): the dense frame F, whose row k belongs to member order[k]."""
    rank = int(np.sum(lam > FLOOR))
    live = weights > FLOOR
    order = np.argsort(np.where(live, 0, np.where(weights > 0.0, 1, 2)), kind="stable")
    n_live, n_pos = int(np.count_nonzero(live)), int(np.count_nonzero(weights))
    x = weights[order[:n_live]]
    heavy = int(np.argmax(x))
    x[heavy] += weights[order[n_live:n_pos]].sum()
    w = horn_orthogonal(x, lam[:rank] * (x.sum() / lam[:rank].sum())).orthogonal
    frame = np.eye(max(w.shape[0], n_pos))
    frame[: w.shape[0], : w.shape[0]] = w
    carry = x[heavy]
    for row in range(n_live, n_pos):
        c, s = np.sqrt([1.0 - weights[order[row]] / carry, weights[order[row]] / carry])
        fh, fr = frame[heavy].copy(), frame[row].copy()
        frame[heavy], frame[row] = c * fh - s * fr, s * fh + c * fr
        carry -= weights[order[row]]
    return frame, order, rank, n_pos


def _oracle_states(frame, order, rank, n_pos, sigma, rows, members):
    mixed = (frame[:n_pos, :rank] * sigma[:rank]) @ rows[:rank]
    states = np.zeros((members, rows.shape[1]), dtype=np.complex128)
    states[order[:n_pos]] = mixed / np.linalg.norm(mixed, axis=1)[:, None]
    states[order[n_pos:], 0] = 1.0
    return states


def _mixed(y, rng):
    return mix_down(y, rng) if y.size > 1 else y.copy()


def _weights(lam, rng, case):
    """A weight vector majorized by the spectrum lam, of the named kind."""
    lam = np.where(lam > 0.0, lam, 0.0)
    if case == "mixed":
        return _mixed(np.concatenate([lam, np.zeros(rng.integers(0, 3))]), rng)
    if case == "eigenvalues":
        return np.concatenate([lam, [0.0]])
    if case == "below-floor":
        w = _mixed(lam, rng)
        k = int(rng.integers(1, 3))
        w[np.argmax(w)] -= k * 1e-13
        return rng.permutation(np.concatenate([w, np.full(k, 1e-13), [0.0]]))
    if case == "many":
        m = int(rng.integers(lam.size, 6 * lam.size + 8))
        return np.full(m, 1.0 / m)
    return np.concatenate([[0.0], rng.permutation(lam)])


CASES = ("mixed", "eigenvalues", "below-floor", "many", "zero-first")


def test_synthesis_states_equal_the_dense_frame_oracle():
    rng = np.random.default_rng(424242)
    for i in range(FIXTURES):
        n = int(rng.integers(1, 11))
        rho = random_density(n, int(rng.integers(1, n + 1)), seed=i)
        p = _weights(rho.eigenvalues(), rng, CASES[i % len(CASES)])
        spect = rho.spectrum()
        lam = spect.eigenvalues
        oracle = _oracle_states(*_oracle_frame(lam, p), np.sqrt(lam), spect.eigenvectors.T, p.size)
        assert synthesize_ensemble(rho, p).states.tobytes() == oracle.tobytes(), i


def test_corollary4_equals_the_dense_frame_oracle():
    rng = np.random.default_rng(515151)
    for i in range(FIXTURES):
        dim_a, dim_b = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        if i % 2:
            psi = random_bipartite(dim_a, dim_b, rng)
        else:
            psi = rank_deficient_bipartite(dim_a, dim_b, int(rng.integers(1, min(dim_a, dim_b) + 1)), rng)
        q = _weights(schmidt(psi).coefficients, rng, CASES[(i // 2) % len(CASES)])
        # The SVD of psi's own rows, with the U columns the library asks for, and the identity
        # on the padding coordinates.
        u_a, sigma, vh, _ = bipartite._canonical_svd(psi.amplitudes)
        u_a = bipartite._completed(u_a, min(psi.dim_a, q.size))
        u = np.eye(max(psi.dim_a, q.size), dtype=np.complex128)
        u[: psi.dim_a, : u_a.shape[1]] = u_a
        frame, order, rank, n_pos = _oracle_frame(sigma**2, q)
        states_b = _oracle_states(frame, order, rank, n_pos, sigma, vh, q.size)
        n = frame.shape[0]
        rotated = u.copy()
        rotated[:, :n] = u[:, :n] @ frame.T
        basis_a = np.empty((u.shape[0], q.size), dtype=np.complex128)
        basis_a[:, order] = rotated[:, : q.size]

        decomp = corollary4_decompose(psi, q)
        assert decomp.states_b.tobytes() == states_b.tobytes(), i
        assert np.max(np.abs(decomp.basis_a - basis_a)) <= 1e-14, i
        gram = decomp.basis_a.conj().T @ decomp.basis_a
        assert np.linalg.norm(gram - np.eye(q.size)) <= 1e-10, i


def test_mixing_paths_build_no_identity_and_no_dense_lift(monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense matrix built on a mixing path")

    monkeypatch.setattr(TTransform, "orthogonal_lift", forbidden)
    rho = random_density(5, 4, seed=3)
    p = mix_down(np.concatenate([rho.eigenvalues(), [0.0]]), rng)
    state = random_bipartite(4, 5, rng)
    q = mix_down(schmidt(state).coefficients, rng)
    monkeypatch.setattr(np, "eye", forbidden)
    synthesize_ensemble(rho, p)
    corollary4_decompose(state, q)


def test_padding_rows_are_never_factored(monkeypatch, rng):
    # Corollary 4 with len(q) > dim_a, and the protocol with d > dim_a, zero-pad A; the
    # padding's basis is the identity, so every SVD is of the state's own dim_a rows.
    svd, shapes = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for dim_a, dim_b in ((1, 3), (2, 2), (2, 5), (3, 2)):
        psi = random_bipartite(dim_a, dim_b, rng)
        coeffs = np.linalg.svd(psi.amplitudes, compute_uv=False) ** 2
        q = mix_down(np.concatenate([coeffs, np.zeros(3)]), rng)
        d = max(dim_a, dim_b) + 2
        shapes.clear()
        dec = corollary4_decompose(psi, q)
        run_protocol(psi, d, seed=5)
        branches = enumerate_protocol(psi, d)
        assert shapes and all(rows == dim_a for rows, _ in shapes), (dim_a, dim_b, shapes)
        assert dec.basis_a.shape == (q.size, q.size)
        assert len(branches) == d * d


def test_uniform_ensemble_memory_grows_with_members_not_their_square():
    # An m x m frame of float64 alone would be 32 MB at m=2000.
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    tracemalloc.start()
    try:
        ens = uniform_ensemble(rho, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak
    assert np.linalg.norm((ens.states.T * ens.weights) @ ens.states.conj() - rho.matrix) <= 1e-8


def test_corollary4_holds_one_m_by_m_array():
    # Padding a Bell state to m=2000 holds only the rotated stack that becomes basis_a,
    # 61 MiB: the SVD is of the 2 x 2 amplitudes, and the reconstruction check adds none.
    bell = BipartiteState(amplitudes=np.eye(2, dtype=complex) / np.sqrt(2))
    tracemalloc.start()
    try:
        dec = corollary4_decompose(bell, np.full(2000, 1 / 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 90 * 2**20, peak
    assert np.linalg.norm(dec.reconstruct() - embed_state(bell, 2000, 2).amplitudes) <= 1e-8


def test_tall_and_wide_states_take_thin_factors(monkeypatch, rng):
    # A rank-2 state's Schmidt decomposition, its Corollary 4 and its protocol read a few
    # singular vectors a side; a full SVD of a 4000 x 2 or 2 x 4000 state forms a 4000 x 4000
    # factor, 244-489 MiB.  Corollary 4 with len(q) > dim_b on the tall state and the protocol
    # at d > dim_a on the wide one read more columns than a thin factor holds, and complete it.
    svd, full = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        full.append(kwargs.get("full_matrices", args[0] if args else True))
        return svd(a, *args, **kwargs)

    tall, wide = (random_bipartite(*shape, rng) for shape in ((4000, 2), (2, 4000)))
    coeffs = [np.linalg.svd(psi.amplitudes, compute_uv=False) ** 2 for psi in (tall, wide)]
    calls = []
    for psi, lam in zip((tall, wide), coeffs):
        q = mix_down(lam, rng)
        calls += [(psi, "schmidt", lambda psi=psi: schmidt(psi)),
                  (psi, "corollary4_decompose", lambda psi=psi, q=q: corollary4_decompose(psi, q)),
                  (psi, "run_protocol", lambda psi=psi: run_protocol(psi, 2, seed=5))]
    for m in (3, 40):
        q = mix_down(np.concatenate([coeffs[0], np.zeros(m - 2)]), rng)
        calls.append((tall, f"corollary4_decompose, len(q) = {m}", lambda q=q: corollary4_decompose(tall, q)))
    calls += [(wide, "run_protocol, d = 3", lambda: run_protocol(wide, 3, seed=5)),
              (wide, "enumerate_protocol, d = 3", lambda: enumerate_protocol(wide, 3))]
    monkeypatch.setattr(np.linalg, "svd", spy)
    for psi, name, call in calls:
        full.clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full == [False], (psi.amplitudes.shape, name, full)
        assert peak < 10 * 2**20, (psi.amplitudes.shape, name, peak)


@pytest.mark.parametrize("case", ["random", "product", "one column", "square"])
def test_completion_is_orthonormal_and_keeps_u(case):
    rng = np.random.default_rng(808)
    n, k, cols = {"random": (9, 3, 7), "product": (6, 2, 5), "one column": (5, 1, 5),
                  "square": (8, 3, 8)}[case]
    if case == "product":
        # The columns of a product state's U are standard basis vectors: every reflector is the
        # identity, tau = 0.
        u = np.eye(n, k, dtype=np.complex128)
        assert not np.linalg.qr(u, mode="raw")[1].any()
    else:
        u = np.linalg.svd(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)), full_matrices=False)[0]
    c = bipartite._completed(u, cols)
    assert c.shape == (n, cols)
    assert c[:, :k].tobytes() == u.tobytes()
    assert np.max(np.abs(c.conj().T @ c - np.eye(cols))) <= 1e-13
    assert np.max(np.abs(u.conj().T @ c[:, k:])) <= 1e-13
    assert bipartite._completed(u, k) is u


def test_only_a_density_from_a_tall_factor_asks_for_a_full_svd(monkeypatch, rng):
    # Every SVD on the bipartite and protocol paths is thin, but the one whose n x n left
    # factor becomes the public eigenbasis of reduced_density on a tall side.
    svd, askers = np.linalg.svd, set()

    def spy(a, full_matrices=True, compute_uv=True, **kwargs):
        if compute_uv and full_matrices:
            askers.add(sys._getframe(1).f_code.co_name)
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    states = [random_bipartite(*shape, rng) for shape in ((5, 2), (2, 5), (3, 3))]
    states.append(BipartiteState(amplitudes=np.outer([0.6, 0.8j, 0.0], [1.0, 0.0])))
    others = [BipartiteState(amplitudes=random_unitary(psi.dim_a, seed=4) @ psi.amplitudes)
              for psi in states]
    monkeypatch.setattr(np.linalg, "svd", spy)
    for psi, other in zip(states, others):
        r, n = min(psi.amplitudes.shape), max(psi.amplitudes.shape) + 2
        schmidt(psi)
        rho = reduced_density(psi, "B")
        reduced_density(psi, "A")
        ens = uniform_ensemble(rho, 3)
        purify(rho, ens.weights, ens.states)
        relate_purifications(psi, other)
        embed_state(psi, n, n)
        for m in (r, psi.dim_b + 1, n):
            corollary4_decompose(psi, np.full(m, 1.0 / m))
        for d in (r, psi.dim_a + 1, n):
            run_protocol(psi, d, seed=5)
            enumerate_protocol(psi, d)
    meas = build_measurement(np.eye(3, 4, dtype=complex), 3)
    outcome_distribution(meas, BipartiteState(amplitudes=np.eye(3, 4) / np.sqrt(3)))
    assert askers == {"_density_from_factor"}
