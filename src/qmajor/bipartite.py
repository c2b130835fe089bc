"""Schmidt decomposition, purifications, and rewriting bipartite states.

A bipartite pure state can be rewritten as sum_i sqrt(q_i) |i_A'> |psi_i>
with an orthonormal A-side basis exactly when q is majorized by its Schmidt
coefficients.  The constructive path takes one SVD of the amplitude matrix and
mixes its singular vectors through a Horn witness.  Purifications and the
unitary relating two of them are provided as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    TOL_NORM,
    TOL_PROB,
    DensityMatrix,
    DomainError,
    ValidationError,
    _RANK_FLOOR,
    _as_dim,
    _as_tol,
    _below_floor,
    _canonical_phases,
    _check_defect,
    _check_unit,
    _density_from_factor,
    _gram_defect,
    _norm,
    _trusted,
    as_complex_matrix,
    frobenius_distance,
)
from .majorize import _majorized_pair, as_prob_vector
from .ensembles import Ensemble, _mix, mixture_matrix

@dataclass(frozen=True)
class BipartiteState:
    """Unit pure state of a composite system, amplitudes indexed (a, b).

    The constructor rejects a norm farther than TOL_NORM from 1, so every
    consumer takes the state as it is.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.amplitudes, "bipartite amplitudes")
        _check_unit(_norm(m), TOL_NORM, "state norm")
        object.__setattr__(self, "amplitudes", m)

    @property
    def dim_a(self) -> int:
        return int(self.amplitudes.shape[0])

    @property
    def dim_b(self) -> int:
        return int(self.amplitudes.shape[1])

    def norm(self) -> float:
        return _norm(self.amplitudes)


def embed_state(psi: BipartiteState, dim_a: int, dim_b: int) -> BipartiteState:
    """Zero-pad a bipartite state into a larger composite space."""
    m = np.zeros((_as_dim(dim_a, "non-shrinking A dimension", psi.dim_a),
                  _as_dim(dim_b, "non-shrinking B dimension", psi.dim_b)), dtype=np.complex128)
    m[: psi.dim_a, : psi.dim_b] = psi.amplitudes
    return _trusted(BipartiteState, amplitudes=m)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Coefficients sorted decreasing with matching orthonormal bases.

    ``basis_a`` and ``basis_b`` hold one vector per column; only coefficients
    above the rank cutoff are kept, so the column count equals the Schmidt
    rank.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.coefficients.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Amplitude matrix sum_i sqrt(p_i) |i_A><i_B|^T."""
        return (self.basis_a * np.sqrt(self.coefficients)) @ self.basis_b.T


def _canonical_svd(m: np.ndarray):
    """Thin SVD m = u diag(sigma) vh with canonical column phases, and the rank.

    Each column of ``u`` is multiplied by the unit phase that makes its first
    component above 1e-12 real positive (the eigenvector convention of
    ``hermitian_eig``); the matching rows of ``vh`` take the conjugate phase,
    so the product is unchanged.  The rank counts sigma**2 above the cutoff.
    """
    u, sigma, vh = np.linalg.svd(m, full_matrices=False)
    phases = _canonical_phases(u)
    u, vh = u * phases, vh * phases[:, None].conj()
    return u, sigma, vh, int(np.sum(sigma**2 > _RANK_FLOOR))


def _completed(u: np.ndarray, cols: int) -> np.ndarray:
    """u's k orthonormal columns, then columns k..cols-1 of the Q of u's Householder QR: H_1 ... H_k
    applied to e_k... in compact WY blocks I - V T V^H (LAPACK's zlarft, zlarfb), O(n k cols)."""
    n, k = u.shape
    if cols <= k:
        return u
    h, tau = np.linalg.qr(u, mode="raw")
    v, out = np.tril(h.T, -1) + np.eye(n, k), np.concatenate([u, np.eye(n, cols - k, -k)], axis=1)
    for j in reversed(range(0, k, 64)):  # reflectors j..j+63, which act on rows j...
        b, t = v[j:, j : j + 64], np.diag(tau[j : j + 64])
        gram = b.conj().T @ b
        for i in range(1, len(t)):
            t[:i, i] = -t[i, i] * (t[:i, :i] @ gram[:i, i])
        out[j:, k:] -= b @ (t @ (b.conj().T @ out[j:, k:]))
    return out


def schmidt(psi: BipartiteState) -> SchmidtDecomposition:
    """Schmidt decomposition from one SVD of the amplitude matrix.

    Coefficients are the squared singular values; ``basis_a`` columns are the
    left singular vectors with canonical phases and ``basis_b`` columns the
    matching right singular vectors.  Taking the SVD of the amplitudes rather
    than an eigensolve of the reduced density matrix resolves small
    coefficients to relative accuracy.
    """
    m = psi.amplitudes
    u, sigma, vh, rank = _canonical_svd(m)
    lam = sigma**2
    decomp = SchmidtDecomposition(
        coefficients=lam[:rank], basis_a=u[:, :rank], basis_b=vh[:rank].T
    )
    # Weight below the rank cutoff is honestly unreconstructable; budget for it.
    _check_defect(float(np.linalg.norm(decomp.reconstruct() - m)), 1e-9 + _below_floor(lam),
                  "Schmidt reconstruction defect")
    return decomp


def reduced_density(psi: BipartiteState, side: str) -> DensityMatrix:
    """Partial trace onto subsystem ``side`` ("A" or "B"), from one SVD of its factor: the
    amplitudes over their norm, so any norm the state accepted has trace 1, transposed for B."""
    m = psi.amplitudes / psi.norm()
    if str(side).upper() == "A":
        return _density_from_factor(m)
    if str(side).upper() == "B":
        return _density_from_factor(m.T)
    raise ValidationError(f"side must be 'A' or 'B', got {side!r}")


def purify(rho: DensityMatrix, weights, states, tol: float = 1e-8) -> BipartiteState:
    """Purification sum_i sqrt(w_i) |i_A> |psi_i> of an ensemble for rho.

    The reference system A has one dimension per ensemble member; tracing it
    out returns rho.  The ensemble must actually realize rho within ``tol``,
    and the result is a unit state like any other: weights and states that
    each pass their own check can still multiply to a norm more than 1e-9
    from 1, which raises.
    """
    w = as_prob_vector(weights, name="weights")
    ens = Ensemble(weights=w, states=states, synthetic=np.zeros(w.shape[0], dtype=bool))
    mismatch = frobenius_distance(mixture_matrix(ens), rho.matrix)
    if mismatch > _as_tol(tol):
        raise DomainError(
            f"ensemble does not realize the density matrix: Frobenius mismatch {mismatch:.3e}"
        )
    return BipartiteState(amplitudes=np.sqrt(w)[:, None] * ens.states)


def relate_purifications(phi: BipartiteState, psi: BipartiteState, tol: float = 1e-8) -> np.ndarray:
    """Unitary U on system A with (U x I) phi = psi.

    Exists exactly when the two states share a B-side reduced density matrix.
    Then psi = V phi for some unitary V, so psi phi^dagger = V (phi phi^dagger)
    is V times a positive semidefinite matrix, and its polar factor is V on
    the support of phi.  One SVD, psi phi^dagger = W diag(lam) Z^dagger, gives
    that factor as U = W Z^dagger; degenerate Schmidt coefficients need no
    special handling, and U is unitary on the whole A space.
    """
    if phi.dim_a != psi.dim_a or phi.dim_b != psi.dim_b:
        raise ValidationError(
            f"dimension mismatch: {phi.dim_a}x{phi.dim_b} vs {psi.dim_a}x{psi.dim_b}"
        )
    f, g = phi.amplitudes, psi.amplitudes
    gap = float(np.linalg.norm(f.T @ f.conj() - g.T @ g.conj()))
    if gap > _as_tol(tol):
        raise DomainError(
            f"not co-purifications: B-side reduced densities differ by {gap:.3e} (Frobenius)"
        )

    w, lam, zh = np.linalg.svd(g @ f.conj().T, full_matrices=False)  # square: thin is full
    u = w @ zh

    _check_defect(_gram_defect(u.conj().T), 1e-9, "constructed map unitarity defect")
    # lam holds the Schmidt coefficients; below the rank cutoff the polar
    # factor is not determined, and that weight of each state rides through
    # unmatched.
    _check_defect(float(np.linalg.norm(u @ f - g)), tol + 2.0 * _below_floor(lam),
                  "purification map residual")
    return u


@dataclass(frozen=True)
class Cor4Decomposition:
    """Rewriting of a bipartite state with a prescribed weight vector.

    ``basis_a`` columns are orthonormal; ``states_b`` rows are unit states,
    not necessarily orthogonal.  The state equals
    sum_i sqrt(q_i) |basis_a_i> |states_b_i>.
    """

    weights: np.ndarray
    basis_a: np.ndarray
    states_b: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """sum_i sqrt(q_i) |basis_a_i> |states_b_i>, scaling states_b: no m x m temporary."""
        return self.basis_a @ (np.sqrt(self.weights)[:, None] * self.states_b)


def _cor4_from_svd(u, sigma, vh, weights, target) -> Cor4Decomposition:
    """Corollary 4 from the factors u diag(sigma) vh of the unpadded rows of ``target``.

    The mixing core _mix gives the B-side states, the normalized rows of
    W diag(sigma) vh for a real orthogonal frame W, and u diag(sigma) vh =
    (u W^T) (W diag(sigma) vh) puts the orthonormal A-side basis, W's
    rotations applied to the columns of u, widened by the identity on the
    zero rows, on the left.  So a weight at or below the rank cutoff shares
    the heaviest weight's B-side state, its A-side column Givens-rotated
    against that weight's, and only a weight of exactly 0 gets an unused
    column and the placeholder e_0.  The witness runs against the spectrum
    scaled to sum(q), so a target whose norm is off 1 by e is rebuilt with
    an error of about e; the check calls reconstruct() and allows the pinned
    1e-8 plus the amplitude of coefficients below the cutoff.
    """
    lam = sigma**2
    states_b, basis_a = _mix(vh, lam, sigma, weights, u)
    decomp = Cor4Decomposition(weights=weights, basis_a=basis_a, states_b=states_b)
    _check_defect(float(np.linalg.norm(decomp.reconstruct() - target)),
                  1e-8 + _below_floor(lam), "decomposition reconstruction defect")
    return decomp


def corollary4_decompose(psi: BipartiteState, q) -> Cor4Decomposition:
    """Rewrite psi as sum_i sqrt(q_i) |i_A'> |psi_i> for prescribed weights q.

    Possible exactly when q is majorized by the Schmidt coefficients of psi;
    a violation raises with the failing partial sum.  When q has more entries
    than psi's A dimension, the A space is enlarged to len(q) and the returned
    basis vectors live in the enlarged space.  Only psi's own rows are factored, thin, with U
    completed to the min(dim_a, len(q)) columns the mixing core reads: one len(q)^2 array formed.
    """
    weights = as_prob_vector(q, name="weights")
    u, sigma, vh, rank = _canonical_svd(psi.amplitudes)
    live = sigma[:rank] ** 2
    # The coefficients sum to the squared norm, within about 2e-9 of 1, so
    # they are compared at the total of q, as the mixing core mixes them.
    _majorized_pair(weights, live * (weights.sum() / live.sum()), TOL_PROB)
    u = _completed(u, min(psi.dim_a, weights.size))
    target = embed_state(psi, max(psi.dim_a, weights.size), psi.dim_b).amplitudes
    return _cor4_from_svd(u, sigma, vh, weights, target)


__all__ = [
    "BipartiteState",
    "Cor4Decomposition",
    "SchmidtDecomposition",
    "corollary4_decompose",
    "embed_state",
    "purify",
    "reduced_density",
    "relate_purifications",
    "schmidt",
]
