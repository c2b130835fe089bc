"""Dense complex linear algebra primitives and validated domain values.

Everything downstream (majorization witnesses, ensemble synthesis, Schmidt
machinery, the conversion protocol) is built on the validators and the
deterministic Hermitian eigensolver defined here.  All functions are pure;
returned arrays are fresh and never alias their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default tolerances.  A check that takes a per-call ``tol`` defaults to one
# of these; the state norm checks, entropy_report's trace check, the
# eigensolver's Gram and reconstruction checks and the majorization
# precondition of synthesis and Corollary 4 always apply them.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_ORTH = 1e-9
TOL_RECON = 1e-8
TOL_NORM = 1e-9
TOL_PROB = 1e-9

# Jacobi sweep termination: off-diagonal Frobenius norm target and sweep cap.
_JACOBI_OFF_TARGET = 1e-12
_JACOBI_MAX_SWEEPS = 100

# Components smaller than this are ignored when fixing eigenvector phases.
_PHASE_FLOOR = 1e-12

# The one rank floor: spectra and weights at or below it are not resolved,
# since a square root turns their ~1e-16 roundoff into ~1e-8 of amplitude.
_RANK_FLOOR = 1e-12


class ValidationError(ValueError):
    """An input value violates a structural invariant (shape, norm, bound)."""


class DomainError(Exception):
    """A well-formed input is rejected by an operation's mathematical precondition."""


def as_complex_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Coerce to a fresh 2-D complex128 array, rejecting non-finite entries."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference of two equal-shape matrices."""
    am = as_complex_matrix(a, "first operand")
    bm = as_complex_matrix(b, "second operand")
    if am.shape != bm.shape:
        raise ValidationError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am - bm))


def fix_global_phase(v: np.ndarray) -> np.ndarray:
    """Multiply by a unit phase so the largest-magnitude entry is real positive.

    Returns the input unchanged when every entry is at most 1e-12.  Works on
    arrays of any shape; the convention picks the first entry attaining the
    maximum magnitude in C-order, which makes equality assertions well-defined.
    """
    flat = np.asarray(v, dtype=np.complex128).reshape(-1)
    idx = int(np.argmax(np.abs(flat)))
    pivot = flat[idx]
    if abs(pivot) <= _PHASE_FLOOR:
        return np.array(v, dtype=np.complex128)
    return np.asarray(v, dtype=np.complex128) * (pivot.conjugate() / abs(pivot))


def _canonical_phases(v: np.ndarray) -> np.ndarray:
    """Per-column unit phases making each column's first component above 1e-12 real positive.

    A column with no such component gets phase 1.  This is the one phase
    convention for eigenvectors and singular vectors.
    """
    above = np.abs(v) > _PHASE_FLOOR
    pivots = v[np.argmax(above, axis=0), np.arange(v.shape[1])]
    pivots = np.where(above.any(axis=0), pivots, 1.0)
    return pivots.conj() / np.abs(pivots)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted decreasing with matching orthonormal eigenvectors.

    ``eigenvectors`` holds one eigenvector per column, aligned with
    ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Assemble sum(lambda_j v_j v_j^dagger)."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero a[p, q] with a complex plane rotation, updating a and v in place.

    Accumulates the rotation into the eigenvector matrix v (as columns).
    """
    apq = a[p, q]
    mag = abs(apq)
    phase = apq / mag
    tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    # Smaller-magnitude root of t^2 + 2*tau*t - 1 = 0, stable for large |tau|.
    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    sp = s * phase
    spc = s * phase.conjugate()

    # Column update: A <- A J with J acting on columns (p, q).
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - spc * col_q
    a[:, q] = sp * col_p + c * col_q
    # Row update: A <- J^dagger A.
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - sp * row_q
    a[q, :] = spc * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vcol_p = v[:, p].copy()
    vcol_q = v[:, q].copy()
    v[:, p] = c * vcol_p - spc * vcol_q
    v[:, q] = sp * vcol_p + c * vcol_q


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def hermitian_eig(h, tol: float = TOL_HERM) -> Spectrum:
    """Deterministic eigendecomposition of a Hermitian matrix.

    Uses cyclic Jacobi rotations in a fixed (row-major) sweep order until the
    off-diagonal Frobenius norm drops below 1e-12 or 100 sweeps elapse, so the
    output is a pure function of the input.  Eigenvectors carry a canonical
    phase (first component above 1e-12 made real positive) and exact eigenvalue
    ties are ordered by decreasing lexicographic order of the phase-fixed
    eigenvectors.
    """
    m = as_complex_matrix(h, "Hermitian input")
    n, cols = m.shape
    if n != cols:
        raise ValidationError(f"Hermitian input must be square, got shape {m.shape}")
    defect = _hermiticity_defect(m)
    if defect > tol:
        raise ValidationError(
            f"Hermiticity violated: max |M_ij - conj(M_ji)| = {defect:.3e} exceeds {tol}"
        )

    a = (m + m.conj().T) / 2.0
    v = np.eye(n, dtype=np.complex128)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _off_norm(a) <= _JACOBI_OFF_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > 0.0:
                    _jacobi_rotate(a, v, p, q)

    eigvals = np.diag(a).real.copy()

    # Canonical phases before tie-breaking so the sort key is well-defined.
    v = v * _canonical_phases(v)

    # Primary key (last for np.lexsort): -eigenvalue; then -re, -im per component.
    keys = np.empty((2 * n + 1, n))
    keys[0:-1:2] = -v.imag[::-1]
    keys[1:-1:2] = -v.real[::-1]
    keys[-1] = -eigvals
    order = np.lexsort(keys)
    eigvals = eigvals[order]
    vecs = v[:, order]
    spect = Spectrum(eigenvalues=eigvals, eigenvectors=vecs)

    gram_defect = float(np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)))
    if gram_defect > TOL_ORTH * max(1.0, float(np.linalg.norm(m))):
        raise ValidationError(f"eigenvector orthonormality defect {gram_defect:.3e}")
    recon = float(np.linalg.norm(spect.reconstruct() - m))
    if recon > TOL_RECON * max(1.0, float(np.linalg.norm(m))):
        raise ValidationError(f"eigendecomposition reconstruction defect {recon:.3e}")
    return spect


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 matrix.

    Construct through :func:`validate_density` (or the generators in this
    module); the constructor itself only checks shape.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def spectrum(self) -> Spectrum:
        """Eigendecomposition, cached after the first call."""
        cached = self.__dict__.get("_spectrum")
        if cached is None:
            cached = hermitian_eig(self.matrix)
            object.__setattr__(self, "_spectrum", cached)
        return cached

    def eigenvalues(self) -> np.ndarray:
        return self.spectrum().eigenvalues


def validate_density(m, tol: float = TOL_HERM) -> DensityMatrix:
    """Validate and canonicalize a candidate density matrix.

    Hermiticity, unit trace and positivity are each enforced within ``tol``;
    eigenvalues in [-tol, 0) are clipped to zero and the trace is renormalized
    to exactly 1.  Violations beyond ``tol`` raise a descriptive
    :class:`ValidationError`.  The trace is checked before the eigensolve,
    which checks squareness and Hermiticity at the same ``tol``.
    """
    mat = as_complex_matrix(m, "density matrix")
    trace = complex(np.trace(mat))
    if abs(trace - 1.0) > tol:
        raise ValidationError(f"trace {trace.real!r} deviates from 1 by more than {tol}")

    spect = hermitian_eig(mat, tol=tol)
    lam = spect.eigenvalues
    if lam[-1] < -tol:
        raise ValidationError(f"eigenvalue {lam[-1]!r} < -{tol}: matrix is not positive semidefinite")
    lam = np.where(lam < 0.0, 0.0, lam)
    spect = Spectrum(eigenvalues=lam / lam.sum(), eigenvectors=spect.eigenvectors)
    clean = spect.reconstruct()
    rho = DensityMatrix(matrix=(clean + clean.conj().T) / 2.0)
    object.__setattr__(rho, "_spectrum", spect)
    return rho


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random density matrix of the requested dimension and rank.

    Draws a complex Gaussian G of shape (dim, rank) and returns
    G G^dagger / trace(G G^dagger), so exactly ``rank`` eigenvalues are
    positive (almost surely) and identical seeds give identical matrices.
    """
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must satisfy 1 <= rank <= dim, got rank={rank}, dim={dim}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return validate_density(m)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))

