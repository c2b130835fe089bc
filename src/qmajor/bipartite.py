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
    _canonical_phases,
    as_complex_matrix,
    validate_density,
)
from .majorize import _majorized_pair, as_prob_vector
from .ensembles import Ensemble, _mix, mixture_matrix

# Schmidt coefficients at or below this are treated as zero when deciding rank.
SCHMIDT_RANK_CUTOFF = _RANK_FLOOR


@dataclass(frozen=True)
class BipartiteState:
    """Pure state of a composite system, amplitudes indexed (a, b)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.amplitudes, "bipartite amplitudes")
        object.__setattr__(self, "amplitudes", m)

    @property
    def dim_a(self) -> int:
        return int(self.amplitudes.shape[0])

    @property
    def dim_b(self) -> int:
        return int(self.amplitudes.shape[1])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _require_unit(psi: BipartiteState) -> None:
    norm = psi.norm()
    if abs(norm - 1.0) > TOL_NORM:
        raise ValidationError(f"state norm {norm!r} deviates from 1 by more than {TOL_NORM}")


def embed_state(psi: BipartiteState, dim_a: int, dim_b: int) -> BipartiteState:
    """Zero-pad a bipartite state into a larger composite space."""
    if dim_a < psi.dim_a or dim_b < psi.dim_b:
        raise ValidationError("embedding dimensions must not shrink the state")
    m = np.zeros((dim_a, dim_b), dtype=np.complex128)
    m[: psi.dim_a, : psi.dim_b] = psi.amplitudes
    return BipartiteState(amplitudes=m)


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
    """Full SVD m = u diag(sigma) vh with canonical column phases.

    Each column of ``u`` is multiplied by the unit phase that makes its first
    component above 1e-12 real positive (the eigenvector convention of
    ``hermitian_eig``); the matching rows of ``vh`` take the conjugate phase,
    so the product is unchanged.
    """
    u, sigma, vh = np.linalg.svd(m)
    phases = _canonical_phases(u)
    u = u * phases
    vh[: sigma.size] *= phases[: sigma.size, None].conj()
    return u, sigma, vh


def schmidt(psi: BipartiteState) -> SchmidtDecomposition:
    """Schmidt decomposition from one SVD of the amplitude matrix.

    Coefficients are the squared singular values; ``basis_a`` columns are the
    left singular vectors with canonical phases and ``basis_b`` columns the
    matching right singular vectors.  Taking the SVD of the amplitudes rather
    than an eigensolve of the reduced density matrix resolves small
    coefficients to relative accuracy.
    """
    _require_unit(psi)
    m = psi.amplitudes
    u, sigma, vh = _canonical_svd(m)
    lam = sigma**2
    rank = int(np.sum(lam > SCHMIDT_RANK_CUTOFF))
    decomp = SchmidtDecomposition(
        coefficients=lam[:rank], basis_a=u[:, :rank], basis_b=vh[:rank].T
    )
    err = float(np.linalg.norm(decomp.reconstruct() - m))
    # Weight below the rank cutoff is honestly unreconstructable; budget for it.
    if err > 1e-9 + float(np.sqrt(np.sum(lam[rank:]))):
        raise ValidationError(f"Schmidt reconstruction defect {err:.3e}")
    return decomp


def reduced_density(psi: BipartiteState, side: str) -> DensityMatrix:
    """Partial trace onto subsystem ``side`` ("A" or "B")."""
    _require_unit(psi)
    m = psi.amplitudes
    if side.upper() == "A":
        raw = m @ m.conj().T
    elif side.upper() == "B":
        raw = m.T @ m.conj()
    else:
        raise ValidationError(f"side must be 'A' or 'B', got {side!r}")
    return validate_density((raw + raw.conj().T) / 2.0)


def purify(rho: DensityMatrix, weights, states, tol: float = 1e-8) -> BipartiteState:
    """Purification sum_i sqrt(w_i) |i_A> |psi_i> of an ensemble for rho.

    The reference system A has one dimension per ensemble member; tracing it
    out returns rho.  The ensemble must actually realize rho within ``tol``.
    """
    w = as_prob_vector(weights, name="weights")
    ens = Ensemble(weights=w, states=states, synthetic=np.zeros(w.shape[0], dtype=bool))
    mismatch = float(np.linalg.norm(mixture_matrix(ens) - rho.matrix))
    if mismatch > tol:
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
    _require_unit(phi)
    _require_unit(psi)
    if phi.dim_a != psi.dim_a or phi.dim_b != psi.dim_b:
        raise ValidationError(
            f"dimension mismatch: {phi.dim_a}x{phi.dim_b} vs {psi.dim_a}x{psi.dim_b}"
        )
    f, g = phi.amplitudes, psi.amplitudes
    gap = float(np.linalg.norm(f.T @ f.conj() - g.T @ g.conj()))
    if gap > tol:
        raise DomainError(
            f"not co-purifications: B-side reduced densities differ by {gap:.3e} (Frobenius)"
        )

    w, lam, zh = np.linalg.svd(g @ f.conj().T)
    u = w @ zh

    unitarity = float(np.linalg.norm(u @ u.conj().T - np.eye(phi.dim_a)))
    if unitarity > 1e-9:
        raise ValidationError(f"constructed map has unitarity defect {unitarity:.3e}")
    # lam holds the Schmidt coefficients; below the rank cutoff the polar
    # factor is not determined, and that weight of each state rides through
    # unmatched.
    slack = 2.0 * float(np.sqrt(np.sum(lam[lam <= SCHMIDT_RANK_CUTOFF])))
    residual = float(np.linalg.norm(u @ f - g))
    if residual > tol + slack:
        raise ValidationError(f"purification map residual {residual:.3e} exceeds {tol}")
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
        return (self.basis_a * np.sqrt(self.weights)) @ self.states_b


def _cor4_from_svd(u, sigma, vh, weights, target) -> Cor4Decomposition:
    """Corollary 4 from the factors of target = u diag(sigma) vh.

    The mixing core _mix gives the B-side states, the normalized rows of
    W diag(sigma) vh for a real orthogonal frame W, and u diag(sigma) vh =
    (u W^T) (W diag(sigma) vh) puts the orthonormal A-side basis on the left.
    So a weight at or below the rank cutoff shares the heaviest weight's
    B-side state, its A-side column Givens-rotated against that weight's, and
    only a weight of exactly 0 gets an unused column and the placeholder e_0.
    The witness runs against the spectrum scaled to sum(q), so a target whose
    norm is off 1 by e is rebuilt with an error of about e, and the check
    allows the pinned 1e-8 plus the amplitude of coefficients below the cutoff.
    """
    states_b, frame, order = _mix(vh, sigma, weights)
    n = frame.shape[0]
    rotated = u.copy()
    rotated[:, :n] = u[:, :n] @ frame.T
    basis_a = np.empty((u.shape[0], weights.size), dtype=np.complex128)
    basis_a[:, order] = rotated[:, : weights.size]
    decomp = Cor4Decomposition(weights=weights, basis_a=basis_a, states_b=states_b)

    err = float(np.linalg.norm(decomp.reconstruct() - target))
    lam = sigma**2
    if err > 1e-8 + float(np.sqrt(np.sum(lam[lam <= SCHMIDT_RANK_CUTOFF]))):
        raise ValidationError(f"decomposition reconstruction defect {err:.3e}")
    return decomp


def corollary4_decompose(psi: BipartiteState, q) -> Cor4Decomposition:
    """Rewrite psi as sum_i sqrt(q_i) |i_A'> |psi_i> for prescribed weights q.

    Possible exactly when q is majorized by the Schmidt coefficients of psi;
    a violation raises with the failing partial sum.  When q has more entries
    than psi's A dimension, the A space is enlarged to len(q) and the returned
    basis vectors live in the enlarged space.
    """
    _require_unit(psi)
    weights = as_prob_vector(q, name="weights")
    m = embed_state(psi, max(psi.dim_a, weights.size), psi.dim_b).amplitudes
    u, sigma, vh = _canonical_svd(m)
    lam = sigma**2
    live = lam[lam > SCHMIDT_RANK_CUTOFF]
    # The coefficients sum to the squared norm, within about 2e-9 of 1, so
    # they are compared at the total of q, as the mixing core mixes them.
    _majorized_pair(weights, live * (weights.sum() / live.sum()), TOL_PROB)
    return _cor4_from_svd(u, sigma, vh, weights, m)


__all__ = [
    "BipartiteState",
    "Cor4Decomposition",
    "SchmidtDecomposition",
    "SCHMIDT_RANK_CUTOFF",
    "corollary4_decompose",
    "embed_state",
    "purify",
    "reduced_density",
    "relate_purifications",
    "schmidt",
]
