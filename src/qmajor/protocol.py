"""Exact simulation of entanglement transformation by measure-and-correct.

Starting from a maximally entangled state of Schmidt rank d, a single
generalized measurement on Bob's side followed by a 2*ceil(log2 d)-bit
message and a shift/clock correction on Alice's side produces any target
pure state of Schmidt rank at most d, deterministically on every outcome
branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    TOL_NORM,
    DomainError,
    ValidationError,
    fix_global_phase,
)
from .bipartite import (
    SCHMIDT_RANK_CUTOFF,
    BipartiteState,
    _canonical_svd,
    _cor4_from_svd,
    _require_unit,
    embed_state,
)


def shift_op(d: int) -> np.ndarray:
    """Cyclic shift X with X|j> = |j+1 mod d>."""
    return weyl_op(WeylPair(d=d, s=min(1, d - 1), t=0))


def clock_op(d: int) -> np.ndarray:
    """Phase gradient Z = diag(omega^j) with omega = exp(2 pi i / d)."""
    return weyl_op(WeylPair(d=d, s=0, t=min(1, d - 1)))


@dataclass(frozen=True)
class WeylPair:
    """Outcome label (s, t) indexing the shift/clock monomial X^s Z^t."""

    d: int
    s: int
    t: int

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"dimension must be positive, got {self.d}")
        if not (0 <= self.s < self.d and 0 <= self.t < self.d):
            raise ValidationError(
                f"indices must lie in 0..{self.d - 1}, got s={self.s}, t={self.t}"
            )


def weyl_op(pair: WeylPair) -> np.ndarray:
    """Unitary X^s Z^t, the twirl of the identity: column j is omega^(j t) |j+s mod d>."""
    return _twirled(np.eye(pair.d, dtype=np.complex128), pair.d, pair.s, pair.t)


@dataclass(frozen=True)
class MeasurementSet:
    """d^2 measurement operators on Bob's space, indexed by (s, t).

    ``operators[s, t]`` acts on a dim_b >= d dimensional system; the defining
    completeness relation sum E^dagger E = I is validated on construction.
    """

    d: int
    dim_b: int
    operators: np.ndarray

    def __post_init__(self):
        ops = np.array(self.operators, dtype=np.complex128)
        expected = (self.d, self.d, self.dim_b, self.dim_b)
        if ops.shape != expected:
            raise ValidationError(f"operators must have shape {expected}, got {ops.shape}")
        # sum_{s,t} E_st^dagger E_st is one product of the stacked rows.
        rows = ops.reshape(-1, self.dim_b)
        defect = float(np.linalg.norm(rows.conj().T @ rows - np.eye(self.dim_b)))
        if defect > 1e-10:
            raise ValidationError(f"measurement completeness defect {defect:.3e}")
        object.__setattr__(self, "operators", ops)

    def operator(self, s: int, t: int) -> np.ndarray:
        return self.operators[s, t]


def _measurement_operator(target_states_b, d: int) -> np.ndarray:
    """The operator E of the measurement: column i is target state i, scaled.

    The scale 1/sqrt(d * sum_i |psi_i|^2) makes the twirled operators
    E X^s Z^t resolve the identity on the first d coordinates.  Columns past
    d are zero.
    """
    states = np.array(target_states_b, dtype=np.complex128)
    if states.ndim != 2:
        raise ValidationError("target states must form a 2-D array, one state per row")
    if states.shape[0] != d:
        raise ValidationError(f"need exactly {d} target states, got {states.shape[0]}")
    dim_b = states.shape[1]
    if dim_b < d:
        raise ValidationError(f"Bob dimension {dim_b} smaller than d={d}")
    norms = np.linalg.norm(states, axis=1)
    if np.any(np.abs(norms - 1.0) > TOL_NORM):
        i = int(np.argmax(np.abs(norms - 1.0)))
        raise ValidationError(f"target state {i} has norm {norms[i]!r}")

    f = np.zeros((dim_b, dim_b), dtype=np.complex128)
    f[:, :d] = states.T
    weight = float(np.trace(f.conj().T @ f).real)
    return f / np.sqrt(d * weight)


def _twirled(e: np.ndarray, d: int, s, t) -> np.ndarray:
    """The first d columns of E X^s Z^t: column j is omega^(j t) E[:, (j+s) mod d].

    ``s`` and ``t`` may be integer arrays that broadcast together; their
    shape then leads the (rows, d) block of each result.
    """
    j = np.arange(d)
    s, t = np.asarray(s)[..., None], np.asarray(t)[..., None]
    return (e.T[(j + s) % d] * np.exp(2j * np.pi / d) ** (j * t)[..., None]).swapaxes(-1, -2)


def _completeness_defect(e: np.ndarray, d: int) -> float:
    """Frobenius defect of sum_{s,t} E_st^dagger E_st - I for E_st = E X^s Z^t + tail.

    The twirl identity gives d * tr(E_d^dagger E_d) * I on the first d
    coordinates and d^2 * (1/d)^2 * I on the tail.  The cross block between
    them is sum_{s,t} (X^s Z^t)^dagger = d |0><1...1| applied to the tail rows
    of E_d, which vanish when the target states live on the first d
    coordinates.
    """
    dim_b = e.shape[0]
    e_d = e[:, :d]
    block = d * float(np.vdot(e_d, e_d).real) - 1.0
    tail = d * d * (1.0 / d) ** 2 - 1.0
    cross = np.linalg.norm(e_d[d:].sum(axis=1))
    return float(np.sqrt(d * block**2 + (dim_b - d) * tail**2 + 2.0 * cross**2))


def build_measurement(target_states_b, d: int) -> MeasurementSet:
    """Measurement whose outcomes all steer |i> onto the target states.

    ``target_states_b`` must be d unit states supported on the first d
    coordinates of Bob's space (the Schmidt support of the maximally
    entangled source).  F maps |i> to the i-th target state; E is F scaled
    so that the d^2 twirled operators E X^s Z^t resolve the identity, and on
    any extra Bob dimensions each operator acts as identity/d.
    """
    e = _measurement_operator(target_states_b, d)
    dim_b = e.shape[0]
    ops = np.zeros((d, d, dim_b, dim_b), dtype=np.complex128)
    ops[:, :, d:, d:] = np.eye(dim_b - d) / d
    labels = np.arange(d)
    ops[:, :, :, :d] = _twirled(e, d, labels[:, None], labels)
    return MeasurementSet(d=d, dim_b=dim_b, operators=ops)


def outcome_distribution(meas: MeasurementSet, psi: BipartiteState) -> np.ndarray:
    """Exact outcome probabilities, indexed s*d + t; they sum to 1.

    For the intended maximally entangled input of Schmidt rank d the
    distribution is uniform at 1/d^2.
    """
    if psi.dim_b != meas.dim_b:
        raise ValidationError(
            f"Bob dimension mismatch: state {psi.dim_b}, measurement {meas.dim_b}"
        )
    # Outcome (s, t) leaves the amplitudes of (I x E_st) |psi>, psi E_st^T.
    post = psi.amplitudes @ meas.operators.swapaxes(-1, -2)
    return (np.linalg.norm(post, axis=(-2, -1)) ** 2).reshape(-1)


@dataclass(frozen=True)
class CommCost:
    """Classical bits for one protocol run, against the one-bit-per-dimension baseline."""

    bits: int
    naive_bits: int


def comm_cost(d: int) -> CommCost:
    """ceil(2 log2 d) bits to announce one of d^2 outcomes, vs d - 1."""
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    return CommCost(bits=(d * d - 1).bit_length(), naive_bits=d - 1)


@dataclass(frozen=True)
class ProtocolTranscript:
    """Record of one protocol branch."""

    outcome: WeylPair
    outcome_probability: float
    bits_sent: int
    correction: str
    final_state: BipartiteState
    fidelity: float
    seed: int | None


@dataclass(frozen=True)
class _ProtocolSetup:
    """One protocol instance; outcome (s, t) applies E X^s Z^t + tail to the source.

    The source is sum_{j<d} |j>|j> / sqrt(d), so the tail never contributes
    and the measurement is kept as the single operator E.
    """

    operator: np.ndarray
    alice_basis: np.ndarray
    bob_basis: np.ndarray
    target: BipartiteState
    d: int


def _prepare(phi_target: BipartiteState, d: int) -> _ProtocolSetup:
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    n_a = max(phi_target.dim_a, d)
    n_b = max(phi_target.dim_b, d)
    target = embed_state(phi_target, n_a, n_b)
    _require_unit(target)
    u, sigma, vh = _canonical_svd(target.amplitudes)
    rank = int(np.sum(sigma**2 > SCHMIDT_RANK_CUTOFF))
    if rank > d:
        raise DomainError(
            f"target Schmidt rank {rank} exceeds source rank {d}; "
            "more entanglement is required"
        )

    # Rotate Bob onto the right singular vectors so the target support sits
    # on the source's Schmidt support (the first d coordinates); the rotation
    # is undone at the end of every branch as a free local operation.  In
    # that frame the target is u diag(sigma), so Corollary 4 reuses the SVD.
    aligned = target.amplitudes @ vh.conj().T
    rewrite = _cor4_from_svd(u, sigma, np.eye(n_b), np.full(d, 1.0 / d), aligned)
    e = _measurement_operator(rewrite.states_b, d)
    defect = _completeness_defect(e, d)
    if defect > 1e-10:
        raise ValidationError(f"measurement completeness defect {defect:.3e}")
    # Every branch ends on the unit target, so fidelity is measured against
    # the target normalized once here, not against its accepted norm.
    unit = BipartiteState(amplitudes=target.amplitudes / target.norm())
    return _ProtocolSetup(
        operator=e, alice_basis=rewrite.basis_a, bob_basis=vh.T, target=unit, d=d
    )


def _branch_rows(setup: _ProtocolSetup, s: int, t: int) -> np.ndarray:
    """Rows 0..d-1 of the unnormalized post-measurement amplitudes for outcome (s, t).

    Row j is the j-th column of E X^s Z^t over sqrt(d), that is
    omega^(j t) / sqrt(d) times E[:, (j+s) mod d]; rows past d are zero.
    """
    return _twirled(setup.operator, setup.d, s, t).T / np.sqrt(setup.d)


def _run_branch(setup: _ProtocolSetup, s: int, t: int, seed: int | None) -> ProtocolTranscript:
    d = setup.d
    post = _branch_rows(setup, s, t)
    prob = float(np.linalg.norm(post) ** 2)
    post = post / np.sqrt(prob)

    # Alice undoes the outcome twirl with X^s Z^-t on her Schmidt support
    # (Z^-t scales row j by omega^(-j t), X^s moves row j to j+s mod d), then
    # rotates into the target's A basis; Bob undoes his alignment.
    j = np.arange(d)
    corrected = np.empty_like(post)
    corrected[(j + s) % d] = post * (np.exp(2j * np.pi / d) ** (-t * j))[:, None]
    final = setup.alice_basis @ corrected @ setup.bob_basis.T

    fidelity = min(1.0, float(abs(np.vdot(setup.target.amplitudes, final)) ** 2))
    final_state = BipartiteState(amplitudes=fix_global_phase(final))
    return ProtocolTranscript(
        outcome=WeylPair(d=d, s=s, t=t),
        outcome_probability=prob,
        bits_sent=comm_cost(d).bits,
        correction=f"X^{s} Z^-{t} on Alice's Schmidt support, then fixed local basis alignment",
        final_state=final_state,
        fidelity=fidelity,
        seed=seed,
    )


def run_protocol(phi_target: BipartiteState, d: int, seed: int) -> ProtocolTranscript:
    """Simulate one protocol run with the outcome sampled from the exact distribution.

    Every branch holds each of the first d columns of E once, so the twirl
    identity makes all d^2 outcomes equally likely: one PCG64 draw u picks
    outcome s*d + t = min(floor(u d^2), d^2 - 1).  The target must have
    Schmidt rank at most d.  Every branch ends within numerical precision of
    the target, so the reported fidelity is 1 up to roundoff; replaying the
    same seed reproduces the transcript exactly.
    """
    setup = _prepare(phi_target, d)
    u = np.random.default_rng(seed).random()
    s, t = divmod(min(int(u * d * d), d * d - 1), d)
    return _run_branch(setup, s, t, seed)


def enumerate_protocol(phi_target: BipartiteState, d: int) -> tuple[ProtocolTranscript, ...]:
    """Deterministically walk all d^2 outcome branches."""
    setup = _prepare(phi_target, d)
    out = []
    for s in range(d):
        for t in range(d):
            out.append(_run_branch(setup, s, t, None))
    return tuple(out)
