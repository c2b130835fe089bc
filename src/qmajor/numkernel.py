"""Dense complex linear algebra primitives and validated domain values.

Everything downstream is built on the validators defined here.  The deterministic Hermitian
eigensolver serves ``validate_density`` alone, so the ``DensityMatrix`` constructor and every
density the CLI reads; a density built from a factor, the Schmidt machinery and the protocol take
one SVD instead.  All functions are pure; returned arrays are fresh and never alias their inputs.
"""

from __future__ import annotations

import math
import sys
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

# Bound and message of each pinned check, declared once and read as
# ``_check_defect(defect, *_CHECKS[name])``.
_CHECKS = {
    "witness": (1e-10, "orthogonality defect of constructed witness"),
}

# Jacobi sweep termination: off-diagonal Frobenius norm target and sweep cap.
_JACOBI_OFF_TARGET = 1e-12
_JACOBI_MAX_SWEEPS = 100

# Components smaller than this are ignored when fixing eigenvector phases.
_PHASE_FLOOR = 1e-12

# The one rank floor: spectra and weights at or below it are not resolved,
# since a square root turns their ~1e-16 roundoff into ~1e-8 of amplitude.
_RANK_FLOOR = 1e-12

_MAX_DIM = 2**24  # dimension ceiling: past it a d x d complex matrix exceeds 2**52 bytes


class ValidationError(ValueError):
    """An input value violates a structural invariant (shape, norm, bound)."""


class DomainError(Exception):
    """A well-formed input is rejected by an operation's mathematical precondition."""


def _as_array(values, name: str, dtype, ndim: int) -> np.ndarray:
    """A fresh finite ``ndim``-dimensional ``dtype`` array; ragged input and entries that
    ``dtype`` does not hold (strings, objects, complex ones for a real dtype, anything but
    bools for bool) raise."""
    try:
        a = np.asarray(values)
    except ValueError as exc:
        raise ValidationError(f"{name} is not an array: {exc}") from None
    if a.dtype.kind not in {np.complex128: "biufc", np.bool_: "b"}.get(dtype, "biuf"):
        raise ValidationError(f"{name}: could not convert {a.dtype} entries to {np.dtype(dtype)}")
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got ndim={a.ndim}")
    a = a.astype(dtype)
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def as_complex_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Coerce to a fresh 2-D complex128 array, rejecting non-finite entries."""
    return _as_array(entries, name, np.complex128, 2)


def _check_defect(defect: float, bound: float, what: str) -> None:
    """The one rule of every numerical check: a NaN, inf or negative defect, or one above
    ``bound``, raises."""
    if not (math.isfinite(defect) and 0.0 <= defect <= bound):
        raise ValidationError(f"{what} {defect:.3e} exceeds {bound:.3g}")


def _norm(a: np.ndarray, axis: int | None = None):
    """Frobenius norm of ``a``, or of each slice along ``axis``, of a copy that ``np.ldexp`` scales
    exactly (real and imaginary parts apart, one exponent per slice) to a largest modulus in
    [1, 2): no square over- or underflows, so in range this is ``np.linalg.norm`` bit for bit."""
    with np.errstate(over="ignore"):  # a modulus or a norm past float64 is inf
        exp = np.frexp(np.abs(a).max(axis=axis, keepdims=True, initial=0.0))[1] - 1
        scaled = np.empty_like(a)
        np.ldexp(a.real, -exp, out=scaled.real)
        if np.iscomplexobj(a):
            np.ldexp(a.imag, -exp, out=scaled.imag)
        norm = np.ldexp(np.linalg.norm(scaled, axis=axis), np.squeeze(exp, axis))
    return float(norm) if axis is None else norm


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built without ``__post_init__``, for a value
    the library built: the caller guarantees each field is what validation would store."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_unit(value, tol: float, what: str) -> None:
    """The one rule of every quantity that must be 1: NaN, inf or a farther value raises."""
    if not abs(value - 1.0) <= tol:  # a complex trace is judged by its modulus, shown by its real part
        raise ValidationError(f"{what} {float(value.real)!r} deviates from 1 by more than {tol}")


def _check_unit_rows(rows: np.ndarray, what: str) -> None:
    """``_check_unit`` at TOL_NORM on the row ``_norm`` farthest from 1, as ``"{what} {i} norm"``."""
    norms = _norm(rows, axis=-1)
    i = int(np.argmax(np.abs(norms - 1.0)))
    _check_unit(float(norms[i]), TOL_NORM, f"{what} {i} norm")


def _gram_defect(a: np.ndarray) -> float:
    """Frobenius norm of a^H a - I, with 1 subtracted from the diagonal in place.  Far from
    orthonormal columns it may be inf or NaN, with no warning, and the rule rejects both."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.conj().T @ a
        gram.flat[:: gram.shape[0] + 1] -= 1.0
        return float(np.linalg.norm(gram))


def _below_floor(lam: np.ndarray) -> float:
    """sqrt(sum lam_i) over lam_i at or below the rank floor: the unresolved amplitude."""
    return float(np.sqrt(np.sum(lam[lam <= _RANK_FLOOR])))


def _as_dim(value, name: str, minimum: int, maximum: int | None = _MAX_DIM) -> int:
    """A Python int or numpy integer, not a bool, in minimum..maximum (None: no ceiling), as an int."""
    integer = type(value) is int or isinstance(value, np.integer)
    if not integer or maximum is not None and value > maximum:
        ceiling = "" if maximum is None else f" at most {maximum}"
        raise ValidationError(f"{name} must be an integer{ceiling}, got {value!r}")
    if value < minimum:
        bound = {0: "non-negative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValidationError(f"{name} must be {bound}, got {value}")
    return int(value)


def _as_tol(tol, name: str = "tolerance") -> float:
    """A Python or numpy real, not a bool, finite and non-negative, as a float."""
    real = isinstance(tol, (int, float, np.integer, np.floating)) and type(tol) is not bool
    # A numpy scalar becomes a Python number (a long double stays one), so the bound is
    # never cast down to float16 or float32.
    value = tol.item() if isinstance(tol, np.generic) else tol
    if not (real and 0.0 <= value <= sys.float_info.max):
        raise ValidationError(f"{name} must be finite and non-negative, got {tol!r}")
    return float(tol)


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference of two equal-shape matrices; one past float64 raises."""
    am = as_complex_matrix(a, "first operand")
    bm = as_complex_matrix(b, "second operand")
    if am.shape != bm.shape:
        raise ValidationError(f"shape mismatch: {am.shape} vs {bm.shape}")
    # Halving is exact above the subnormal range, and a difference of halves cannot overflow.
    distance = 2.0 * _norm(am / 2.0 - bm / 2.0)
    if not math.isfinite(distance):
        raise ValidationError("Frobenius distance overflows float64")
    return distance


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


def _canonical_spectrum(eigvals: np.ndarray, v: np.ndarray) -> Spectrum:
    """The one canonical form of a spectrum, whichever route found it: ``_canonical_phases``,
    eigenvalues in decreasing order with exact ties in the solver's order, and eigenvectors
    that must be orthonormal within TOL_ORTH."""
    order = np.argsort(-eigvals, kind="stable")
    vecs = (v * _canonical_phases(v))[:, order]
    _check_defect(_gram_defect(vecs), TOL_ORTH, "eigenvector orthonormality defect")
    return Spectrum(eigenvalues=eigvals[order], eigenvectors=vecs)


def _hermiticity_defect(m: np.ndarray) -> float:
    return 2.0 * float(np.max(np.abs(m / 2.0 - m.conj().T / 2.0)))


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero a[p, q] with a complex plane rotation J, updating a <- J^H a J and v <- v J."""
    apq = complex(a[p, q])
    mag = abs(apq)
    delta = a[q, q].real - a[p, p].real
    # Smaller-magnitude root t of t^2 + 2*tau*t - 1 = 0, tau = delta / (2|a_pq|), with
    # numerator and denominator scaled by 2|a_pq| so a subnormal entry cannot overflow.
    # delta == 0 takes t = 1; copysign would turn delta = -0.0 into t = -1.
    t = math.copysign(2.0 * mag, delta) / (abs(delta) + math.hypot(delta, 2.0 * mag)) if delta else 1.0
    c = 1.0 / math.hypot(1.0, t)
    # Python's complex division divides by |a_pq| itself, not by a product with its
    # reciprocal, which is inf for a subnormal entry.
    s = t * c * (apq / mag)
    j = np.array([[c, s], [-s.conjugate(), c]])
    pq = [p, q]
    a[:, pq] = a[:, pq] @ j
    a[pq] = j.conj().T @ a[pq]
    a[p, q] = a[q, p] = 0.0
    a[p, p], a[q, q] = a[p, p].real, a[q, q].real
    v[:, pq] = v[:, pq] @ j


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    # Unscaled, as the sweep target is absolute: an overflowing norm reads inf and sweeps on.
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(off))


def hermitian_eig(h, tol: float = TOL_HERM) -> Spectrum:
    """Deterministic eigendecomposition of a Hermitian matrix.

    Uses cyclic Jacobi rotations in a fixed (row-major) sweep order until the
    off-diagonal Frobenius norm drops below 1e-12 or 100 sweeps elapse, so the
    output is a pure function of the input, in the form of ``_canonical_spectrum``.
    """
    m = as_complex_matrix(h, "Hermitian input")
    n, cols = m.shape
    if n != cols:
        raise ValidationError(f"Hermitian input must be square, got shape {m.shape}")
    if not n:
        raise ValidationError("Hermitian input is empty")
    defect = _hermiticity_defect(m)
    if defect > _as_tol(tol):
        raise ValidationError(
            f"Hermiticity violated: max |M_ij - conj(M_ji)| = {defect:.3e} exceeds {tol}"
        )

    # The Hermitian part from halves, which cannot overflow; it is what is decomposed, so
    # the reconstruction is measured against it, not against m.
    herm = m / 2.0 + m.conj().T / 2.0
    size = _norm(herm)
    # Rotations keep the Frobenius norm, so it bounds every entry of the sweep.  Past 2^1000,
    # or past float64, the sweep solves herm scaled by an exact power of two to a largest
    # modulus in [1, 2), and the eigenvalues scale back.
    scale = 1.0
    if size > 2.0**1000:
        scale = math.ldexp(1.0, math.frexp(np.abs(herm).max())[1] - 1)
        herm = herm / scale
        size = _norm(herm)
    a = herm.copy()
    v = np.eye(n, dtype=np.complex128)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _off_norm(a) <= _JACOBI_OFF_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > 0.0:
                    _jacobi_rotate(a, v, p, q)

    spect = _canonical_spectrum(np.diag(a).real.copy(), v)
    # The reconstruction bound is relative to the scale; orthonormality does not depend on it.
    _check_defect(_norm(spect.reconstruct() - herm), TOL_RECON * size,
                  "eigendecomposition reconstruction defect")
    with np.errstate(over="ignore"):
        eigvals = spect.eigenvalues * scale
    if not np.isfinite(eigvals).all():
        raise ValidationError("eigenvalue overflows float64")
    return Spectrum(eigenvalues=eigvals, eigenvectors=spect.eigenvectors)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 matrix, with its spectrum.

    The constructor is :func:`validate_density` at the default tolerance: it stores the
    canonical matrix and the spectrum of that one eigensolve, so every instance is a validated
    density.  One the library builds from a factor F stores F F^dagger over its trace and the
    spectrum of one SVD of F instead (``_density_from_factor``).
    """

    matrix: np.ndarray

    def __post_init__(self):
        self.__dict__.update(validate_density(self.matrix).__dict__)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def spectrum(self) -> Spectrum:
        """Eigendecomposition of the canonical matrix, computed at construction."""
        return self._spectrum

    def eigenvalues(self) -> np.ndarray:
        return self._spectrum.eigenvalues


def validate_density(m, tol: float = TOL_HERM) -> DensityMatrix:
    """Validate and canonicalize a candidate density matrix.

    Hermiticity, unit trace and positivity are each enforced within ``tol``;
    eigenvalues in [-tol, 0) are clipped to zero and the trace is renormalized
    to exactly 1.  Violations beyond ``tol`` raise a descriptive
    :class:`ValidationError`.  Squareness and the trace are checked before
    the eigensolve, which checks Hermiticity at the same ``tol``.
    """
    mat = as_complex_matrix(m, "density matrix")
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"density matrix must be square, got {mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a diagonal past float64 sums to inf or NaN
        _check_unit(complex(np.trace(mat)), _as_tol(tol), "trace")

    spect = hermitian_eig(mat, tol=tol)
    lam = spect.eigenvalues
    if lam[-1] < -tol:
        raise ValidationError(f"eigenvalue {float(lam[-1])!r} < -{tol}: matrix is not positive semidefinite")
    lam = np.where(lam < 0.0, 0.0, lam)
    spect = Spectrum(eigenvalues=lam / lam.sum(), eigenvectors=spect.eigenvectors)
    clean = spect.reconstruct()
    matrix = (clean + clean.conj().T) / 2.0
    if not np.isfinite(matrix).all():  # a spectrum clipped to all zeros renormalizes to NaN
        raise ValidationError("density matrix contains non-finite entries")
    return _trusted(DensityMatrix, matrix=matrix, _spectrum=spect)


def _density_from_factor(f: np.ndarray, tol: float = TOL_HERM) -> DensityMatrix:
    """G = F F^dagger for a factor F the library holds: the Hermitian part of G over its trace,
    with the spectrum of one SVD of F and no eigensolve, so small eigenvalues keep the relative
    accuracy that eigensolving G would square away.  The trace ||F||_F^2 must be 1 within ``tol``;
    the eigenvalues are sigma**2 padded with exact zeros, and their first sigma.size pairs must
    rebuild G, which the matrix is made from, within TOL_RECON relative to its norm."""
    _check_unit(_norm(f) ** 2, _as_tol(tol), "trace")
    u, sigma, _ = np.linalg.svd(f, full_matrices=f.shape[1] < f.shape[0])  # u square, vh never wider
    lam = np.zeros(f.shape[0])
    lam[: sigma.size] = sigma**2
    spect = _canonical_spectrum(lam, u)
    gram, live = f @ f.conj().T, spect.eigenvectors[:, : sigma.size]
    _check_defect(_norm((live * spect.eigenvalues[: sigma.size]) @ live.conj().T - gram),
                  TOL_RECON * _norm(gram), "eigendecomposition reconstruction defect")
    total = spect.eigenvalues.sum()
    return _trusted(DensityMatrix, matrix=(gram + gram.conj().T) / (2.0 * total),
                    _spectrum=Spectrum(spect.eigenvalues / total, spect.eigenvectors))


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random density matrix of the requested dimension and rank.

    Draws a complex Gaussian G of shape (dim, rank) and returns
    G G^dagger / trace(G G^dagger), so exactly ``rank`` eigenvalues are
    positive (almost surely), the others exactly 0 (one SVD of G / ||G||_F),
    and identical seeds give identical matrices.
    """
    rank = _as_dim(rank, "rank", 1, _as_dim(dim, "dimension", 1))
    rng = np.random.default_rng(_as_dim(seed, "seed", 0, None))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return _density_from_factor(g / _norm(g))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary via QR of a complex Gaussian matrix."""
    dim = _as_dim(dim, "dimension", 1)
    rng = np.random.default_rng(_as_dim(seed, "seed", 0, None))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))

