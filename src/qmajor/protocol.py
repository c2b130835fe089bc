"""Exact simulation of entanglement transformation by measure-and-correct.

Starting from a maximally entangled state of Schmidt rank d, a single
generalized measurement on Bob's side followed by a ceil(2 log2 d)-bit
message and a shift/clock correction on Alice's side produces any target
pure state of Schmidt rank at most d, deterministically on every outcome
branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import (
    DomainError,
    ValidationError,
    _as_array,
    _as_dim,
    _check_defect,
    _check_unit_rows,
    _gram_defect,
    _trusted,
    as_complex_matrix,
)
from .bipartite import BipartiteState, _canonical_svd, _completed, _cor4_from_svd, embed_state


def shift_op(d: int) -> np.ndarray:
    """Cyclic shift X with X|j> = |j+1 mod d>."""
    d = _as_dim(d, "dimension", 1)
    return weyl_op(WeylPair(d=d, s=min(1, d - 1), t=0))


def clock_op(d: int) -> np.ndarray:
    """Phase gradient Z = diag(omega^j) with omega = exp(2 pi i / d)."""
    d = _as_dim(d, "dimension", 1)
    return weyl_op(WeylPair(d=d, s=0, t=min(1, d - 1)))


@dataclass(frozen=True)
class WeylPair:
    """Outcome label (s, t) indexing the shift/clock monomial X^s Z^t."""

    d: int
    s: int
    t: int

    def __post_init__(self):
        last = _as_dim(self.d, "dimension", 1) - 1
        _as_dim(self.s, "index s", 0, last)
        _as_dim(self.t, "index t", 0, last)


def weyl_op(pair: WeylPair) -> np.ndarray:
    """Unitary X^s Z^t, the twirl of the identity: column j is omega^(j t) |j+s mod d>."""
    return _twirled(_shifted(np.eye(pair.d, dtype=complex), pair.d, pair.s), _phases(pair.d, pair.t))


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
        d, dim_b = _as_dim(self.d, "dimension", 1), _as_dim(self.dim_b, "Bob dimension", self.d)
        ops = _as_array(self.operators, "operators", np.complex128, 4)
        expected = (d, d, dim_b, dim_b)
        if ops.shape != expected:
            raise ValidationError(f"operators must have shape {expected}, got {ops.shape}")
        # sum_{s,t} E_st^dagger E_st is one product of the stacked rows.
        _check_defect(_gram_defect(ops.reshape(-1, dim_b)), 1e-10,
                      "measurement completeness defect")
        object.__setattr__(self, "operators", ops)

    def operator(self, s: int, t: int) -> np.ndarray:
        return self.operators[s, t]


def _measurement_operator(states: np.ndarray, d: int) -> np.ndarray:
    """The dim_b x d operator E of the measurement: column i is target state i, scaled.

    ``states`` is a d x dim_b array, dim_b >= d, of unit rows (from ``_mix``,
    or checked by ``build_measurement``).  The scale 1/sqrt(d sum_i |psi_i|^2)
    makes the twirled operators E X^s Z^t resolve the identity on the first d
    coordinates; the twirl identity checks that completeness from E alone.
    """
    f = np.ascontiguousarray(states.T)
    weight = float(np.trace(f.conj().T @ f).real)
    e = f / np.sqrt(d * weight)
    _check_defect(_completeness_defect(e, d), 1e-10, "measurement completeness defect")
    return e


def _shifted(e: np.ndarray, d: int, s) -> np.ndarray:
    """Rows E^T[(j+s) mod d] for j < d; ``s`` may be an integer array, whose shape leads."""
    return e.T[(np.arange(d) + np.asarray(s)[..., None]) % d]


def _phases(d: int, t) -> np.ndarray:
    """Rows omega^(j t) for j < d; ``t`` may be an integer array, whose shape leads."""
    return np.exp(2j * np.pi / d) ** (np.arange(d) * np.asarray(t)[..., None])


def _twirled(shifted: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The first d columns of E X^s Z^t, column j omega^(j t) E[:, (j+s) mod d], from its
    factors ``_shifted(e, d, s)`` and ``_phases(d, t)``; shapes of s and t broadcast."""
    return (shifted * phases[..., None]).swapaxes(-1, -2)


def _completeness_defect(e: np.ndarray, d: int) -> float:
    """Frobenius defect of sum_{s,t} E_st^dagger E_st - I for E_st = E X^s Z^t + tail.

    The twirl identity gives d * tr(E^dagger E) * I on the first d
    coordinates and d^2 * (1/d)^2 * I on the tail.  The cross block between
    them is sum_{s,t} (X^s Z^t)^dagger = d |0><1...1| applied to the tail rows
    of E, which vanish when the target states live on the first d
    coordinates.
    """
    dim_b = e.shape[0]
    block = d * float(np.vdot(e, e).real) - 1.0
    tail = d * d * (1.0 / d) ** 2 - 1.0
    cross = np.linalg.norm(e[d:].sum(axis=1))
    return float(np.sqrt(d * block**2 + (dim_b - d) * tail**2 + 2.0 * cross**2))


def build_measurement(target_states_b, d: int) -> MeasurementSet:
    """Measurement whose outcomes all steer |i> onto the target states.

    ``target_states_b`` must be d unit states, checked after their shapes,
    supported on the first d coordinates of Bob's space (the Schmidt support
    of the maximally entangled source).  F maps |i> to the i-th target state;
    E is F scaled so that the d^2 twirled operators E X^s Z^t resolve the
    identity, and on any extra Bob dimensions each operator acts as identity/d.
    """
    d = _as_dim(d, "dimension", 1)
    states = as_complex_matrix(target_states_b, "target states")
    if states.shape[0] != d:
        raise ValidationError(f"need exactly {d} target states, got {states.shape[0]}")
    if states.shape[1] < d:
        raise ValidationError(f"Bob dimension {states.shape[1]} smaller than d={d}")
    _check_unit_rows(states, "target state")
    e = _measurement_operator(states, d)
    dim_b = e.shape[0]
    ops = np.zeros((d, d, dim_b, dim_b), dtype=np.complex128)
    ops[:, :, d:, d:] = np.eye(dim_b - d) / d
    labels = np.arange(d)
    ops[:, :, :, :d] = _twirled(_shifted(e, d, labels[:, None]), _phases(d, labels))
    return _trusted(MeasurementSet, d=d, dim_b=dim_b, operators=ops)


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
    d = _as_dim(d, "dimension", 1)
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

    The source is sum_{j<d} |j>|j> / sqrt(d), so the tail never contributes and the
    measurement enters only as ``rows``, E^T B^T: Bob's alignment B, a local unitary that
    commutes with all Alice does, is applied to E once.
    """

    rows: np.ndarray
    alice_basis: np.ndarray
    target: BipartiteState
    d: int
    bits: int
    root_d: float


def _prepare(phi_target: BipartiteState, d: int) -> _ProtocolSetup:
    d = _as_dim(d, "dimension", 1)
    target = embed_state(phi_target, max(phi_target.dim_a, d), max(phi_target.dim_b, d))
    # Only Bob is padded for the SVD; Alice's padding coordinates get the identity in _mix.
    u, sigma, vh, rank = _canonical_svd(target.amplitudes[: phi_target.dim_a])
    if rank > d:
        raise DomainError(
            f"target Schmidt rank {rank} exceeds source rank {d}; "
            "more entanglement is required"
        )

    # Rotate Bob onto the right singular vectors, completed to d, so the target support sits on the
    # source's Schmidt support, the first d coordinates; the rotation, a free local operation, is
    # undone once, in ``rows``.  There the target is u diag(sigma): Corollary 4 reuses the SVD.
    bob = _completed(vh.T, d)
    aligned = target.amplitudes @ bob.conj()
    rewrite = _cor4_from_svd(u, sigma, np.eye(bob.shape[1]), np.full(d, 1.0 / d), aligned)
    e = _measurement_operator(rewrite.states_b, d)
    # Every branch ends on the unit target, so fidelity is measured against
    # the target normalized once here, not against its accepted norm.
    unit = _trusted(BipartiteState, amplitudes=target.amplitudes / target.norm())
    return _ProtocolSetup(rows=e.T @ bob.T, alice_basis=rewrite.basis_a, target=unit, d=d,
                          bits=comm_cost(d).bits, root_d=math.sqrt(d))


def _run_rows(setup: _ProtocolSetup, ss, ts, seed: int | None) -> list[ProtocolTranscript]:
    """Branches (s, t) for s in ``ss`` and t in ``ts``, s-major, written into one output array.

    The final states of one call are the disjoint slices ``finals[i, j]`` of one (len(ss),
    len(ts), n_a, n_b) array, so keeping any one transcript keeps all len(ss) len(ts) n_a n_b 16 B
    alive.  The post-measurement stack, the basis product and the pivot search's moduli are
    scratch allocated once per call and rewritten row by row with ``out=``, rather than a fresh
    stack per row that the allocator hands back on free and the next call faults back in.

    After Alice's X^s Z^-t, row i of branch t is rows[i] omega^(k t) omega^(-k t) / sqrt(d p)
    with k = (i - s) mod d: X^s and its undo cancel as row moves, so both are the relabeling k
    of the phase tables omega^(j t) and omega^(-j t), formed by one ``_phases`` call.  Each step
    that cannot move a branch's bits runs once on a row's (len(ts), ...) stack: the two scales,
    the one basis product, the pivot search (also the finiteness check) and the unit phase and
    its product.
    The probability's norm and the fidelity's inner product are stacked ``np.vecdot`` calls,
    which run one BLAS dot per branch: the ddot of the real and of the imaginary parts that
    ``np.linalg.norm`` takes, and the zdotc of ``np.vdot``, on the same operands in the same
    order.  Squares stay Python ``** 2`` on each branch's float, libm's pow as on a numpy
    scalar; numpy's array square rounds differently.  The overlaps are read from the basis
    product before the phase fix, and the fix writes out of place into the output slice:
    numpy's in-place complex ``*=`` by a broadcast operand can round apart from ``a * b``.  A
    finite final state has unit norm, so its pivot is at least 1/sqrt(n_a n_b), far above the
    1e-12 phase floor.
    """
    d, ts = setup.d, list(ts)
    tables = _phases(d, ts + [-t for t in ts])
    phase, inverse = tables[:len(ts)], tables[len(ts):]
    n_a, n_b = setup.alice_basis.shape[0], setup.rows.shape[1]
    finals = np.empty((len(ss), len(ts), n_a, n_b), dtype=np.complex128)
    post = np.empty((len(ts), d, n_b), dtype=np.complex128)
    raw = np.empty((len(ts), n_a, n_b), dtype=np.complex128)
    moduli = np.empty((len(ts), n_a * n_b))
    f, flat, branches = post.reshape(len(ts), -1), raw.reshape(len(ts), -1), np.arange(len(ts))
    target = setup.target.amplitudes.ravel()
    transcripts = []
    for i, s in enumerate(ss):
        k = (np.arange(d) - s) % d
        np.multiply(setup.rows, (phase[:, k] / setup.root_d)[:, :, None], out=post)
        probs = [r ** 2 for r in np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag)).tolist()]
        # Alice's Z^-t and the branch's normalization, then her rotation into the target's A basis.
        post *= (inverse[:, k] / np.sqrt(probs)[:, None])[:, :, None]
        np.matmul(setup.alice_basis, post, out=raw)
        # The global-phase pivot; argmax takes NaN as largest, so it is finite only if its branch is.
        pivots = flat[branches, np.abs(flat, out=moduli).argmax(axis=1)]
        finite = np.isfinite(pivots)
        if not finite.all():
            raise ValidationError(
                f"final state of branch ({s}, {ts[int(finite.argmin())]}) contains non-finite entries")
        # np.hypot is the scalar abs() bit for bit; numpy's vectorised complex absolute is not.
        size = np.hypot(pivots.real, pivots.imag)
        overlaps = np.vecdot(target, flat).tolist()
        row = np.multiply(raw, (pivots.conj() / size)[:, None, None], out=finals[i])
        transcripts += [_trusted(
            ProtocolTranscript,
            outcome=_trusted(WeylPair, d=d, s=s, t=t),
            outcome_probability=prob,
            bits_sent=setup.bits,
            correction=f"X^{s} Z^-{t} on Alice's Schmidt support, then fixed local basis alignment",
            final_state=_trusted(BipartiteState, amplitudes=amplitudes),
            fidelity=min(1.0, abs(z) ** 2),
            seed=seed,
        ) for t, prob, z, amplitudes in zip(ts, probs, overlaps, row)]
    return transcripts


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
    u = np.random.default_rng(_as_dim(seed, "seed", 0, None)).random()
    d = setup.d
    s, t = divmod(min(int(u * d * d), d * d - 1), d)
    return _run_rows(setup, [s], [t], seed)[0]


def enumerate_protocol(phi_target: BipartiteState, d: int) -> tuple[ProtocolTranscript, ...]:
    """Deterministically walk all d^2 outcome branches, one outcome row s at a time."""
    setup = _prepare(phi_target, d)
    return tuple(_run_rows(setup, range(setup.d), range(setup.d), None))
