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
    TOL_PROB,
    TOL_TRACE,
    DensityMatrix,
    ValidationError,
    _RANK_FLOOR,
    _as_array,
    _as_dim,
    _as_tol,
    _check_unit,
    _check_unit_rows,
    _density_from_factor,
    _norm,
    _trusted,
    as_complex_matrix,
)
from .majorize import (
    SchurReport,
    _chain,
    _lift,
    _majorized_pair,
    _neg_entropy,
    _rotate_rows,
    _schur,
    _sorted_pair,
    as_prob_vector,
)


@dataclass(frozen=True)
class Ensemble:
    """Weighted collection of pure states realizing a density matrix.

    ``states`` holds one unit state per row, aligned with ``weights``, at
    every weight.  Members flagged in ``synthetic`` carry weight exactly zero
    and the placeholder basis state e_0; they exist only to keep the member
    count equal to the requested weight vector's length.
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
        flags = _as_array(self.synthetic, "synthetic flags", np.bool_, 1)
        if flags.shape != w.shape:
            raise ValidationError("synthetic flags must align with weights")
        flagged = np.nonzero(flags & (w > 0.0))[0]
        if flagged.size:
            i = int(flagged[0])
            raise ValidationError(f"synthetic member {i} has weight {float(w[i])!r}, not 0")
        _check_unit_rows(s, "ensemble member")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "synthetic", flags)

    @classmethod
    def from_members(cls, members) -> "Ensemble":
        """Build from an iterable of (weight, state) pairs, the states of one dimension."""
        try:
            pairs = [(w, s) for w, s in members]
        except (TypeError, ValueError):
            raise ValidationError("ensemble members must be (weight, state) pairs") from None
        states = [
            _as_array(s, f"ensemble member {i} state", np.complex128, 1)
            for i, (_, s) in enumerate(pairs)
        ]
        for i, s in enumerate(states):
            if s.size != states[0].size:
                raise ValidationError(
                    f"ensemble member {i} has dimension {s.size}, member 0 has {states[0].size}"
                )
        return cls(
            weights=[w for w, _ in pairs],
            states=np.array(states),
            synthetic=np.zeros(len(pairs), dtype=bool),
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
    """sum_i w_i |psi_i><psi_i|, trace 1 within ``tol``, from one SVD of its factor, the columns
    sqrt(w_i) psi_i, as entropy_report takes its spectrum."""
    return _density_from_factor(ensemble.states.T * np.sqrt(ensemble.weights), tol)


def is_compatible(p, rho: DensityMatrix, tol: float = TOL_PROB) -> bool:
    """Can p appear as the weights of a pure-state mixture of rho?

    Equivalent to p being majorized by the spectrum of rho, with the shorter
    vector zero-padded.
    """
    weights = as_prob_vector(p, name="weights")
    return _sorted_pair(weights, rho.eigenvalues(), _as_tol(tol))[4] is None


def _mix(rows: np.ndarray, lam: np.ndarray, sigma: np.ndarray, weights: np.ndarray, basis=None):
    """The one mixing core of synthesis (rows V^T) and Corollary 4 (rows V^H, basis U).

    States are the rows of F diag(sigma) rows, F a real orthogonal frame,
    sigma = sqrt(lam) decreasing, each divided by its ``_norm``, so unit even
    at a subnormal weight.  The Horn witness (W o W) lam = weights is built
    against lam as given: synthesis passes the eigenvalues themselves, so a
    weight equal to one meets it exactly, not through the roundoff of
    sigma**2.  Spectrum and weights at or below the rank floor skip the
    witness, so none absorbs its roundoff: the heaviest weight carries the
    positive ones among them, and each is split off it by a Givens rotation of
    its frame row against the heaviest one's, sharing its state.  Only a weight
    of exactly 0 gets the placeholder e_0.  F is never formed: its rotations
    act on the r columns the states use and on the columns of U, which is
    ``basis`` widened to len(weights) coordinates when it is narrower, the
    identity on the new ones.  Returns (states, U F^T), empty without a basis.
    """
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
    chain = _chain(*_majorized_pair(x, lam[:rank] * (x.sum() / lam[:rank].sum()), TOL_PROB))
    # Member order[k] owns frame row k, kept in stack row order[k], so U F^T comes out in member
    # order; a basis rides along as pairs of real columns, and extra rows pad a wider witness.
    slots = np.concatenate([order, np.arange(weights.size, max(chain.dim, weights.size))])
    home = slots.copy()
    home[chain.source_permutation[chain.target_permutation]] = slots[: chain.dim]
    width = 0 if basis is None else max(basis.shape[0], weights.size)
    stack = np.zeros((slots.size, rank + 2 * width))
    if basis is not None:
        n, wide = min(basis.shape[1], slots.size), stack[:, rank:].view(np.complex128)
        wide[home[:n], : basis.shape[0]] = basis[:, :n].T
        wide[home[n:], np.arange(n, slots.size)] = 1.0  # the padding's basis, as _lift writes the frame
    _lift(chain, stack, home, rank)
    carry = x[heavy]
    for row in range(n_live, n_pos):
        c, s = np.sqrt([1.0 - weights[order[row]] / carry, weights[order[row]] / carry])
        _rotate_rows(stack[order[heavy]], stack[order[row]], c, s)
        carry -= weights[order[row]]

    mixed = (stack[order[:n_pos], :rank] * sigma[:rank]) @ rows[:rank]
    norms = _norm(mixed, axis=1)
    if np.any(norms <= 0.0):
        i = int(order[np.argmin(norms)])
        raise ValidationError(f"degenerate mix for member {i} with weight {float(weights[i])!r}")
    states = np.zeros((weights.size, rows.shape[1]), dtype=np.complex128)
    # Normalizing by the actual norm, not sqrt(p_i), scrubs the roundoff of the mix.
    states[order[:n_pos]] = mixed / norms[:, None]
    states[order[n_pos:], 0] = 1.0
    return states, stack[: weights.size, rank:].view(np.complex128).T


def synthesize_ensemble(rho: DensityMatrix, p) -> Ensemble:
    """Construct an ensemble for rho with the exact weight vector p.

    The eigenvectors of rho, scaled so each has squared norm equal to its
    eigenvalue, are mixed through a Horn witness by the mixing core _mix:
    every positive weight gets a real state, and only a weight of exactly 0
    gets a flagged placeholder, so the output length equals len(p).
    """
    weights = as_prob_vector(p, name="weights")
    spect = rho.spectrum()
    lam = spect.eigenvalues
    _majorized_pair(weights, lam, TOL_PROB)
    states = _mix(spect.eigenvectors.T, lam, np.sqrt(lam), weights)[0]
    _check_unit_rows(states, "ensemble member")
    return _trusted(Ensemble, weights=weights, states=states, synthetic=weights == 0.0)


def uniform_ensemble(rho: DensityMatrix, m: int) -> Ensemble:
    """Equal-weight ensemble of m pure states realizing rho.

    Exists exactly when m >= rank(rho); smaller m fails the majorization
    precondition of synthesize_ensemble, which raises MajorizationError at
    the first failing partial sum.
    """
    m = _as_dim(m, "ensemble size", 1)
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
    violation = _sorted_pair(ensemble.weights, rho.eigenvalues(), max(_as_tol(tol), TOL_PROB))[4]
    live = ensemble.weights > TOL_PROB
    deviations = np.abs(np.linalg.norm(ensemble.states[live], axis=1) - 1.0)
    return EnsembleAudit(
        frobenius_error=err,
        majorization_ok=violation is None,
        majorization_violation=violation,
        norm_deviations=deviations,
        tol=tol,
    )


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
    _check_unit(trace, TOL_TRACE, "trace")
    lam = lam / trace
    h = -_neg_entropy(ensemble.weights)
    s = -_neg_entropy(lam)
    if h < s - _as_tol(tol):
        raise ValidationError(f"mixing entropy {h!r} fell below state entropy {s!r}")
    lam = np.where(lam > _RANK_FLOOR, lam, 0.0)
    schur = _schur(ensemble.weights, lam, tol)
    return EntropyReport(shannon=h, von_neumann=s, schur=schur)
