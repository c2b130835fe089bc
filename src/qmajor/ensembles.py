"""Pure-state ensemble decompositions of density matrices.

A weight vector p can appear in a mixture rho = sum_i p_i |psi_i><psi_i| iff
p is majorized by the spectrum of rho.  Both directions are implemented: the
compatibility test, and an explicit synthesis that mixes the scaled
eigenvectors of rho through an ortho-stochastic witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    TOL_NORM,
    TOL_PROB,
    TOL_TRACE,
    DensityMatrix,
    ValidationError,
    _RANK_FLOOR,
    as_complex_matrix,
    validate_density,
)
from .majorize import (
    SchurReport,
    _majorized_pair,
    _neg_entropy,
    _rotate_rows,
    as_prob_vector,
    check_schur_inequalities,
    horn_orthogonal,
    is_majorized_by,
    majorization_violation,
)


@dataclass(frozen=True)
class Ensemble:
    """Weighted collection of pure states realizing a density matrix.

    ``states`` holds one state per row, aligned with ``weights``.  Members
    flagged in ``synthetic`` carry weight exactly zero and the placeholder
    basis state e_0; they exist only to keep the member count equal to the
    requested weight vector's length.
    """

    weights: np.ndarray
    states: np.ndarray
    synthetic: np.ndarray

    def __post_init__(self):
        w = as_prob_vector(self.weights, name="ensemble weights")
        s = as_complex_matrix(self.states, "ensemble states")
        if s.shape[0] != w.shape[0]:
            raise ValidationError(
                f"{w.shape[0]} weights but {s.shape[0]} states"
            )
        flags = np.array(self.synthetic, dtype=bool)
        if flags.shape != w.shape:
            raise ValidationError("synthetic flags must align with weights")
        flagged = np.nonzero(flags & (w > 0.0))[0]
        if flagged.size:
            i = int(flagged[0])
            raise ValidationError(f"synthetic member {i} has weight {w[i]!r}, not 0")
        norms = np.linalg.norm(s, axis=1)
        bad = np.nonzero((w > TOL_PROB) & (np.abs(norms - 1.0) > TOL_NORM))[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"ensemble member {i} with weight {w[i]!r} has norm {norms[i]!r}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "synthetic", flags)

    @classmethod
    def from_members(cls, members) -> "Ensemble":
        """Build from an iterable of (weight, state) pairs."""
        weights = [m[0] for m in members]
        states = [np.asarray(m[1], dtype=np.complex128) for m in members]
        return cls(
            weights=np.array(weights, dtype=np.float64),
            states=np.array(states, dtype=np.complex128),
            synthetic=np.zeros(len(weights), dtype=bool),
        )

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])

    def __len__(self) -> int:
        return int(self.weights.shape[0])

    def members(self):
        for i in range(len(self)):
            yield float(self.weights[i]), self.states[i]


def mixture_matrix(ensemble: Ensemble) -> np.ndarray:
    """Raw weighted sum of projectors, without density validation."""
    return (ensemble.states.T * ensemble.weights) @ ensemble.states.conj()


def density_from_ensemble(ensemble: Ensemble, tol: float = 1e-9) -> DensityMatrix:
    """Assemble and validate sum_i w_i |psi_i><psi_i|."""
    return validate_density(mixture_matrix(ensemble), tol=tol)


def is_compatible(p, rho: DensityMatrix, tol: float = TOL_PROB) -> bool:
    """Can p appear as the weights of a pure-state mixture of rho?

    Equivalent to p being majorized by the spectrum of rho, with the shorter
    vector zero-padded.
    """
    weights = as_prob_vector(p, name="weights")
    return is_majorized_by(weights, rho.eigenvalues(), tol)


def _mix(rows: np.ndarray, sigma: np.ndarray, weights: np.ndarray):
    """The one mixing core of synthesis (rows V^T) and Corollary 4 (rows V^H).

    States are the normalized rows of F diag(sigma) rows, F a real orthogonal
    frame, sigma decreasing.  Spectrum and weights at or below the rank floor
    skip the Horn witness (W o W) sigma^2 = weights, so none absorbs its
    roundoff: the heaviest weight carries the positive ones among them, and
    each is split off it by a Givens rotation of its frame row against the
    heaviest one's, sharing its state.  Only a weight of exactly 0 gets the
    placeholder e_0.  Returns (states, frame, order): member order[k] owns
    frame row k.
    """
    lam = sigma**2
    rank = int(np.sum(lam > _RANK_FLOOR))
    live = weights > _RANK_FLOOR
    # Members above the floor first, then those at or below it, then the zeros.
    order = np.argsort(np.where(live, 0, np.where(weights > 0.0, 1, 2)), kind="stable")
    n_live, n_pos = int(np.count_nonzero(live)), int(np.count_nonzero(weights))
    x = weights[order[:n_live]]
    heavy = int(np.argmax(x))
    x[heavy] += weights[order[n_live:n_pos]].sum()
    # The spectrum sums to the trace or squared norm, which may be off 1 by
    # the input tolerance; the witness runs on it scaled to the weights'
    # total, and normalizing the mixed rows below removes the scale again.
    witness = horn_orthogonal(x, lam[:rank] * (x.sum() / lam[:rank].sum())).orthogonal
    frame = np.eye(max(witness.shape[0], n_pos))
    frame[: witness.shape[0], : witness.shape[0]] = witness
    carry = x[heavy]
    for row in range(n_live, n_pos):
        c, s = np.sqrt([1.0 - weights[order[row]] / carry, weights[order[row]] / carry])
        _rotate_rows(frame[heavy], frame[row], c, s)
        carry -= weights[order[row]]

    mixed = (frame[:n_pos, :rank] * sigma[:rank]) @ rows[:rank]
    norms = np.linalg.norm(mixed, axis=1)
    if np.any(norms <= 0.0):
        i = int(order[np.argmin(norms)])
        raise ValidationError(f"degenerate mix for member {i} with weight {weights[i]!r}")
    states = np.zeros((weights.size, rows.shape[1]), dtype=np.complex128)
    # The mix has norm sqrt(p_i) by construction; normalizing by the actual
    # norm is the same state with the roundoff scrubbed.
    states[order[:n_pos]] = mixed / norms[:, None]
    states[order[n_pos:], 0] = 1.0
    return states, frame, order


def synthesize_ensemble(rho: DensityMatrix, p) -> Ensemble:
    """Construct an ensemble for rho with the exact weight vector p.

    The eigenvectors of rho, scaled so each has squared norm equal to its
    eigenvalue, are mixed through a Horn witness by the mixing core _mix:
    every positive weight gets a real state, and only a weight of exactly 0
    gets a flagged placeholder, so the output length equals len(p).
    """
    weights = as_prob_vector(p, name="weights")
    spect = rho.spectrum()
    _majorized_pair(weights, spect.eigenvalues, TOL_PROB)
    sigma = np.sqrt(np.clip(spect.eigenvalues, 0.0, None))
    states, _, _ = _mix(spect.eigenvectors.T, sigma, weights)
    return Ensemble(weights=weights, states=states, synthetic=weights == 0.0)


def rank_of(rho: DensityMatrix) -> int:
    """Number of eigenvalues above 1e-9."""
    return int(np.sum(rho.eigenvalues() > 1e-9))


def uniform_ensemble(rho: DensityMatrix, m: int) -> Ensemble:
    """Equal-weight ensemble of m pure states realizing rho.

    Exists exactly when m >= rank(rho); smaller m fails the majorization
    precondition of synthesize_ensemble, which raises MajorizationError at
    the first failing partial sum.
    """
    if m < 1:
        raise ValidationError(f"ensemble size must be positive, got {m}")
    return synthesize_ensemble(rho, np.full(m, 1.0 / m))


@dataclass(frozen=True)
class EnsembleAudit:
    """Round-trip audit of an ensemble against a target density matrix."""

    frobenius_error: float
    majorization_ok: bool
    majorization_violation: tuple | None
    norm_deviations: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        max_norm = float(self.norm_deviations.max()) if self.norm_deviations.size else 0.0
        return self.majorization_ok and self.frobenius_error <= self.tol and max_norm <= self.tol


def verify_ensemble(ensemble: Ensemble, rho: DensityMatrix, tol: float = 1e-8) -> EnsembleAudit:
    """Report reconstruction error, weight majorization, and member norms.

    Never raises for a failing ensemble; the audit carries the failures.
    An ensemble whose dimension differs from rho's raises ValidationError.
    """
    if ensemble.dim != rho.dim:
        raise ValidationError(f"ensemble states have dimension {ensemble.dim} but rho has {rho.dim}")
    err = float(np.linalg.norm(mixture_matrix(ensemble) - rho.matrix))
    violation = majorization_violation(ensemble.weights, rho.eigenvalues(), max(tol, TOL_PROB))
    live = ensemble.weights > TOL_PROB
    deviations = np.abs(np.linalg.norm(ensemble.states[live], axis=1) - 1.0)
    return EnsembleAudit(
        frobenius_error=err,
        majorization_ok=violation is None,
        majorization_violation=violation,
        norm_deviations=deviations,
        tol=tol,
    )


def shannon_entropy(weights) -> float:
    """Shannon entropy in nats, with 0 log 0 := 0."""
    return -_neg_entropy(np.asarray(weights, dtype=np.float64))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum, in nats."""
    return shannon_entropy(rho.eigenvalues())


@dataclass(frozen=True)
class EntropyReport:
    """Mixing entropy of the weights against the entropy of the realized state."""

    shannon: float
    von_neumann: float
    schur: SchurReport

    @property
    def gap(self) -> float:
        return self.shannon - self.von_neumann


def entropy_report(ensemble: Ensemble, tol: float = 1e-9) -> EntropyReport:
    """Shannon vs von Neumann entropy for an ensemble, plus the full
    Schur-convex comparison of weights against the spectrum.

    The mixing entropy can never fall below the state entropy; a violation
    beyond tol raises.  Eigenvalues at or below the rank floor are compared
    as exact zeros: roundoff of ~1e-17 would otherwise shift non-Lipschitz
    functions such as sum(-sqrt(x)) by more than tol.

    The spectrum comes from the singular values of the amplitude matrix
    A = [sqrt(w_i) psi_i] (columns), since rho = A A^dagger: no density
    matrix is formed and no eigensolve runs.  Their squares sum to
    ||A||_F^2 = tr rho, which must be 1 within TOL_TRACE, the trace check
    of density_from_ensemble.
    """
    amps = ensemble.states.T * np.sqrt(ensemble.weights)
    lam = np.zeros(ensemble.dim)
    lam[: min(amps.shape)] = np.linalg.svd(amps, compute_uv=False) ** 2
    trace = float(lam.sum())
    if abs(trace - 1.0) > TOL_TRACE:
        raise ValidationError(f"trace {trace!r} deviates from 1 by more than {TOL_TRACE}")
    lam = lam / trace
    h = shannon_entropy(ensemble.weights)
    s = shannon_entropy(lam)
    if h < s - tol:
        raise ValidationError(f"mixing entropy {h!r} fell below state entropy {s!r}")
    lam = np.where(lam > _RANK_FLOOR, lam, 0.0)
    schur = check_schur_inequalities(ensemble.weights, lam, tol=tol)
    return EntropyReport(shannon=h, von_neumann=s, schur=schur)
