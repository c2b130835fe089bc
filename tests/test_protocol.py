import numpy as np
import pytest

import qmajor.bipartite
import qmajor.numkernel
import qmajor.protocol
from qmajor.bipartite import BipartiteState, embed_state, schmidt
from qmajor.ensembles import uniform_ensemble
from qmajor.numkernel import (
    DomainError,
    ValidationError,
    fix_global_phase,
    random_density,
    random_unitary,
)
from qmajor.protocol import (
    MeasurementSet,
    WeylPair,
    _completeness_defect,
    _measurement_operator,
    _phases,
    _prepare,
    _run_row,
    _shifted,
    _twirled,
    build_measurement,
    clock_op,
    comm_cost,
    enumerate_protocol,
    outcome_distribution,
    run_protocol,
    shift_op,
    weyl_op,
)

from conftest import random_bipartite, rank_deficient_bipartite


def maximally_entangled(d):
    return BipartiteState(amplitudes=np.eye(d, dtype=complex) / np.sqrt(d))


SKEW2 = BipartiteState(amplitudes=np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex))


def branch(setup, s, t):
    """One branch of a prepared instance, run as a row that holds it alone."""
    d = setup.d
    return _run_row(setup, s, [t], None, _phases(d, [t]), _phases(d, [-t]))[0]


class TestShiftClock:
    def test_dimension_one(self):
        assert np.array_equal(shift_op(1), [[1]])
        assert np.array_equal(clock_op(1), [[1]])

    def test_qubit_case(self):
        assert np.array_equal(shift_op(2).real, [[0, 1], [1, 0]])
        assert np.allclose(clock_op(2), np.diag([1, -1]), atol=1e-15)

    def test_group_order(self):
        for d in (2, 3, 5, 8):
            x, z = shift_op(d), clock_op(d)
            assert np.linalg.norm(np.linalg.matrix_power(x, d) - np.eye(d)) <= 1e-12
            assert np.linalg.norm(np.linalg.matrix_power(z, d) - np.eye(d)) <= 1e-12
            assert np.linalg.norm(x @ x.conj().T - np.eye(d)) <= 1e-12
            assert np.linalg.norm(z @ z.conj().T - np.eye(d)) <= 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            shift_op(0)
        with pytest.raises(ValidationError):
            clock_op(0)


class TestWeylOp:
    def test_identity_label(self):
        assert np.array_equal(weyl_op(WeylPair(d=3, s=0, t=0)), np.eye(3))

    def test_qubit_product(self):
        u = weyl_op(WeylPair(d=2, s=1, t=1))
        assert np.allclose(u, [[0, -1], [1, 0]], atol=1e-15)

    def test_matches_matrix_powers(self):
        for d in (2, 3, 4):
            x, z = shift_op(d), clock_op(d)
            for s in range(d):
                for t in range(d):
                    ref = np.linalg.matrix_power(x, s) @ np.linalg.matrix_power(z, t)
                    got = weyl_op(WeylPair(d=d, s=s, t=t))
                    assert np.linalg.norm(got - ref) <= 1e-12

    def test_trace_orthogonality(self):
        d = 3
        ops = [weyl_op(WeylPair(d=d, s=s, t=t)) for s in range(d) for t in range(d)]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                tr = np.trace(a.conj().T @ b)
                expected = d if i == j else 0.0
                assert abs(tr - expected) <= 1e-12

    def test_label_validation(self):
        with pytest.raises(ValidationError):
            WeylPair(d=3, s=3, t=0)
        with pytest.raises(ValidationError):
            WeylPair(d=0, s=0, t=0)


class TestTwirlIdentity:
    def test_shift_clock_twirl_scales_by_dimension(self, rng):
        # summing U^dag A U over all d^2 shift/clock labels yields
        # d * tr(A) * I, not tr(A) * I
        for d in (2, 3, 4, 5):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = a + a.conj().T
            acc = np.zeros((d, d), dtype=complex)
            for s in range(d):
                for t in range(d):
                    u = weyl_op(WeylPair(d=d, s=s, t=t))
                    acc += u.conj().T @ a @ u
            assert np.linalg.norm(acc - d * np.trace(a) * np.eye(d)) <= 1e-10


class TestBuildMeasurement:
    def test_identity_target(self):
        meas = build_measurement(np.eye(2, dtype=complex), 2)
        for s in range(2):
            for t in range(2):
                expected = weyl_op(WeylPair(d=2, s=s, t=t)) / 2
                assert np.linalg.norm(meas.operators[s, t] - expected) <= 1e-12

    def test_completeness_skewed_target(self):
        dec = schmidt(SKEW2)
        meas = build_measurement(dec.basis_b.T, 2)
        total = sum(
            meas.operators[s, t].conj().T @ meas.operators[s, t]
            for s in range(2)
            for t in range(2)
        )
        assert np.linalg.norm(total - np.eye(2)) <= 1e-10

    def test_completeness_random_targets(self, rng):
        for d in (2, 3):
            states = random_unitary(d, seed=d * 5)[:, :d].T
            meas = build_measurement(states, d)
            total = sum(
                meas.operators[s, t].conj().T @ meas.operators[s, t]
                for s in range(d)
                for t in range(d)
            )
            assert np.linalg.norm(total - np.eye(d)) <= 1e-10

    def test_rejects_wrong_count_and_norm(self):
        with pytest.raises(ValidationError, match="exactly"):
            build_measurement(np.eye(3, dtype=complex), 2)
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = 2.0
        with pytest.raises(ValidationError, match="norm"):
            build_measurement(bad, 2)

    def test_embedded_operators_stay_complete(self):
        # Bob larger than d: complement blocks keep the resolution exact
        states = np.zeros((2, 4), dtype=complex)
        states[0, 0] = 1.0
        states[1, 1] = 1.0
        meas = build_measurement(states, 2)
        assert meas.dim_b == 4
        total = sum(
            meas.operators[s, t].conj().T @ meas.operators[s, t]
            for s in range(2)
            for t in range(2)
        )
        assert np.linalg.norm(total - np.eye(4)) <= 1e-10

    def test_rejects_bob_dimension_below_d(self):
        with pytest.raises(ValidationError, match="Bob dimension 2 smaller than d=3"):
            build_measurement(np.eye(3, 2, dtype=complex), 3)

    def test_operator_indexes_the_stack(self):
        meas = build_measurement(np.eye(3, dtype=complex), 3)
        for s in range(3):
            for t in range(3):
                assert np.array_equal(meas.operator(s, t), meas.operators[s, t])

    def test_invalid_operator_block_rejected(self):
        ops = np.zeros((1, 1, 2, 2), dtype=complex)
        with pytest.raises(ValidationError, match="completeness"):
            MeasurementSet(d=1, dim_b=2, operators=ops)

    def test_completeness_is_checked_once_from_e(self, monkeypatch):
        # The twirl identity on E is the one check; the Gram of the d^4 stack is for a
        # stack a caller builds.
        def no_gram(a):
            raise AssertionError("Gram of the operator stack taken")

        monkeypatch.setattr(qmajor.protocol, "_gram_defect", no_gram)
        meas = build_measurement(np.eye(3, dtype=complex), 3)
        assert meas.operators.shape == (3, 3, 3, 3)
        monkeypatch.setattr(qmajor.protocol, "_completeness_defect", lambda e, d: 1.0)
        with pytest.raises(ValidationError, match=r"^measurement completeness defect 1\.000e\+00 exceeds 1e-10$"):
            build_measurement(np.eye(3, dtype=complex), 3)


class TestOutcomeDistribution:
    def test_uniform_over_outcomes(self):
        meas = build_measurement(np.eye(3, dtype=complex), 3)
        probs = outcome_distribution(meas, maximally_entangled(3))
        assert np.max(np.abs(probs - 1 / 9)) <= 1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_distribution_sums_to_one(self, rng):
        meas = build_measurement(np.eye(3, dtype=complex), 3)
        for _ in range(10):
            psi = random_bipartite(int(rng.integers(1, 5)), 3, rng)
            assert abs(outcome_distribution(meas, psi).sum() - 1.0) <= 1e-12
        # A state of norm 5 would give outcomes summing to 25; it never reaches the measurement.
        with pytest.raises(ValidationError, match=r"^state norm 5\.0 deviates from 1 by more than 1e-09$"):
            BipartiteState(np.diag([3.0, 4.0]))

    def test_single_outcome_for_trivial_dimension(self):
        meas = build_measurement(np.eye(1, dtype=complex), 1)
        probs = outcome_distribution(meas, maximally_entangled(1))
        assert probs == pytest.approx([1.0])

    def test_dimension_mismatch(self):
        meas = build_measurement(np.eye(2, dtype=complex), 2)
        with pytest.raises(ValidationError, match="mismatch"):
            outcome_distribution(meas, maximally_entangled(3))


class TestRunProtocol:
    def test_skewed_qubit_target(self):
        tr = run_protocol(SKEW2, d=2, seed=7)
        assert tr.fidelity >= 1 - 1e-9
        assert tr.bits_sent == 2
        assert tr.outcome_probability == pytest.approx(0.25, abs=1e-10)

    def test_maximally_entangled_target_d4(self):
        tr = run_protocol(maximally_entangled(4), d=4, seed=1)
        assert tr.fidelity >= 1 - 1e-9
        assert tr.bits_sent == 4

    def test_exhaustive_branches_random_target(self, rng):
        target = random_bipartite(3, 3, rng)
        transcripts = enumerate_protocol(target, 3)
        assert len(transcripts) == 9
        for tr in transcripts:
            assert tr.fidelity >= 1 - 1e-9
            assert tr.outcome_probability == pytest.approx(1 / 9, abs=1e-10)

    def test_replay_is_identical(self):
        a = run_protocol(SKEW2, d=2, seed=42)
        b = run_protocol(SKEW2, d=2, seed=42)
        assert a.outcome == b.outcome
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)

    def test_final_state_matches_target_not_only_fidelity(self, rng):
        target = random_bipartite(2, 2, rng)
        from qmajor.numkernel import fix_global_phase

        for tr in enumerate_protocol(target, 2):
            want = fix_global_phase(target.amplitudes)
            assert np.linalg.norm(tr.final_state.amplitudes - want) <= 1e-8

    @pytest.mark.parametrize("norm", [1 + 9e-10, 1 - 9e-10])
    def test_near_unit_norm_target(self, rng, norm):
        # The target's squared norm is off 1 by up to 1.8e-9, the uniform
        # weights of the rewrite sum to 1; the witness must still run.
        for seed in range(10):
            target = random_bipartite(4, 4, rng)
            target = BipartiteState(amplitudes=target.amplitudes * norm)
            want = fix_global_phase(target.amplitudes)
            tr = run_protocol(target, 4, seed)
            assert np.linalg.norm(tr.final_state.amplitudes - want) <= 1e-8
            # fidelity is measured against the normalized target
            assert tr.fidelity >= 1 - 1e-9
        for tr in enumerate_protocol(target, 4):
            assert np.linalg.norm(tr.final_state.amplitudes - want) <= 1e-8
            assert tr.fidelity >= 1 - 1e-9

    def test_rank_too_high_rejected(self):
        with pytest.raises(DomainError, match="Schmidt rank"):
            run_protocol(maximally_entangled(4), d=2, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 24])
    def test_outcome_law_matches_cumulative_search(self, rng, d):
        # Reference rule: search the draw in the cumulative sum of the d^2
        # equal outcome probabilities ||E_d||^2 / d, clipped to the last outcome.
        target = random_bipartite(d, d, rng)
        p = np.linalg.norm(_prepare(target, d).operator[:, :d]) ** 2 / d
        cumulative = np.cumsum(np.full(d * d, p))
        for seed in range(2000):
            u = np.random.default_rng(seed).random()
            idx = min(int(np.searchsorted(cumulative, u, "right")), d * d - 1)
            tr = run_protocol(target, d, seed)
            assert (tr.outcome.s, tr.outcome.t) == divmod(idx, d)

    def test_small_alice_large_bob(self, rng):
        # target dims differ from d on both sides
        target = random_bipartite(2, 5, rng)
        for tr in enumerate_protocol(target, 3):
            assert tr.fidelity >= 1 - 1e-9

    def test_trivial_dimension(self):
        target = BipartiteState(amplitudes=np.array([[1.0]], dtype=complex))
        (tr,) = enumerate_protocol(target, 1)
        assert tr.fidelity == pytest.approx(1.0, abs=1e-12)
        assert tr.bits_sent == 0


class TestStructuredMeasurement:
    """The protocol keeps the single operator E; the dense d^2 stack is the oracle."""

    @staticmethod
    def dense_stack(e, d):
        # E (X^s Z^t + identity on the tail) + identity/d on the tail, from weyl_op,
        # with E padded to dim_b x dim_b by zero columns
        dim_b = e.shape[0]
        e = np.hstack([e, np.zeros((dim_b, dim_b - d))])
        ops = np.zeros((d, d, dim_b, dim_b), dtype=complex)
        for s in range(d):
            for t in range(d):
                u = np.eye(dim_b, dtype=complex)
                u[:d, :d] = weyl_op(WeylPair(d=d, s=s, t=t))
                ops[s, t] = e @ u
                ops[s, t, d:, d:] += np.eye(dim_b - d) / d
        return ops

    def test_build_measurement_matches_weyl_construction(self, rng):
        for d in (1, 2, 3, 4):
            for dim_b in (d, d + 2):
                states = np.zeros((d, dim_b), dtype=complex)
                states[:, :d] = random_unitary(d, seed=int(rng.integers(2**31)))
                meas = build_measurement(states, d)
                e = _measurement_operator(states, d)
                assert np.max(np.abs(meas.operators - self.dense_stack(e, d))) <= 1e-15

    def test_branches_match_dense_operators(self, rng):
        for d in (1, 2, 3, 4):
            for dim_a, dim_b in ((d, d), (d, d + 2), (d + 2, d), (1, d + 1)):
                setup = _prepare(random_bipartite(dim_a, dim_b, rng), d)
                # E = F / d for unit target states, so E * d recovers them
                meas = build_measurement(setup.operator.T * d, d)
                source = np.zeros((setup.alice_basis.shape[0], meas.dim_b), dtype=complex)
                j = np.arange(d)
                source[j, j] = 1 / np.sqrt(d)
                dense_probs = outcome_distribution(meas, BipartiteState(amplitudes=source))
                omega = np.exp(2j * np.pi / d)
                for s in range(d):
                    for t in range(d):
                        post = source @ meas.operators[s, t].T
                        rows = _twirled(_shifted(setup.operator, d, s), _phases(d, t)).T / np.sqrt(d)
                        assert np.linalg.norm(post[:d] - rows) <= 1e-14
                        assert not np.any(post[d:])
                        # Alice's dense correction X^s Z^-t reaches the same final state
                        fix = weyl_op(WeylPair(d=d, s=s, t=0)) @ np.diag(omega ** (-t * j))
                        prob = np.linalg.norm(post) ** 2
                        final = setup.alice_basis @ fix @ post[:d] @ setup.bob_basis.T
                        final = fix_global_phase(final / np.sqrt(prob))
                        tr = branch(setup, s, t)
                        assert tr.outcome_probability == pytest.approx(prob, abs=1e-15)
                        assert tr.outcome_probability == pytest.approx(dense_probs[s * d + t], abs=1e-15)
                        assert np.linalg.norm(tr.final_state.amplitudes - final) <= 1e-12

    def test_twirl_completeness_defect_matches_dense_sum(self, rng):
        # general states, support past d included: the cross block is non-zero
        for d in (1, 2, 3, 4):
            for dim_b in (d, d + 2):
                for support in sorted({d, dim_b}):
                    states = np.zeros((d, dim_b), dtype=complex)
                    shape = (d, support)
                    states[:, :support] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    states /= np.linalg.norm(states, axis=1)[:, None]
                    e = _measurement_operator(states, d)
                    ops = self.dense_stack(e, d)
                    total = sum(ops[s, t].conj().T @ ops[s, t] for s in range(d) for t in range(d))
                    dense = np.linalg.norm(total - np.eye(dim_b))
                    assert abs(_completeness_defect(e, d) - dense) <= 1e-14
                    if support == d:
                        assert _completeness_defect(e, d) <= 1e-10

    def test_protocol_path_builds_no_dense_stack(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the structured protocol path")

        for module, name in (
            (qmajor.protocol, "build_measurement"),
            (qmajor.protocol, "weyl_op"),
            (qmajor.numkernel, "hermitian_eig"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        target = random_bipartite(3, 4, rng)
        assert all(tr.fidelity >= 1 - 1e-9 for tr in enumerate_protocol(target, 3))
        assert run_protocol(target, 4, seed=5).fidelity >= 1 - 1e-9


class TestBranchOracle:
    """Sharing the outcome-invariant rows among branches changes no transcript byte.

    The reference is the per-branch formula that forms every row itself:
    twirl, scale, normalise, correct, rotate, fix the global phase.
    """

    @staticmethod
    def reference(setup, s, t):
        d = setup.d
        j = np.arange(d)
        omega = np.exp(2j * np.pi / d)
        post = setup.operator.T[(j + s) % d] * (omega ** (j * t))[:, None] / np.sqrt(d)
        prob = float(np.linalg.norm(post) ** 2)
        post = post / np.sqrt(prob)
        corrected = np.empty_like(post)
        corrected[(j + s) % d] = post * (omega ** (-t * j))[:, None]
        final = setup.alice_basis @ corrected @ setup.bob_basis.T
        fidelity = min(1.0, float(abs(np.vdot(setup.target.amplitudes, final)) ** 2))
        flat = final.reshape(-1)
        pivot = flat[int(np.argmax(np.abs(flat)))]
        if abs(pivot) > 1e-12:
            final = final * (pivot.conjugate() / abs(pivot))
        return final, fidelity, prob

    @staticmethod
    def fields(tr):
        """Every transcript field but the seed, as bytes and exact float spellings."""
        amps = tr.final_state.amplitudes
        return (amps.shape, amps.tobytes(), tr.fidelity.hex(), tr.outcome_probability.hex(),
                tr.bits_sent, tr.correction, tr.outcome)

    @staticmethod
    def target(kind, d, rng):
        if kind == "square":
            return random_bipartite(d, d, rng)
        if kind == "rectangular":
            return random_bipartite(d, d + 3, rng)
        if kind == "rank-deficient":
            return rank_deficient_bipartite(d, d + 1, max(1, d // 2), rng)
        if kind == "maximally-entangled":
            return maximally_entangled(d)  # final entries tie in modulus; the first in C order wins
        if kind == "product":
            return random_bipartite(d, 1, rng) if d % 2 else random_bipartite(1, d + 2, rng)
        return random_bipartite((d + 1) // 2, max(1, d // 3), rng)  # zero-padded to d

    KINDS = ["square", "rectangular", "rank-deficient", "zero-padded", "maximally-entangled", "product"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 24, 64])
    def test_transcripts_match_reference_bytes(self, rng, d, kind):
        target = self.target(kind, d, rng)
        setup = _prepare(target, d)
        transcripts = enumerate_protocol(target, d)
        assert len(transcripts) == d * d
        for i, tr in enumerate(transcripts):
            s, t = divmod(i, d)
            final, fidelity, prob = self.reference(setup, s, t)
            expected = (final.shape, final.tobytes(), fidelity.hex(), prob.hex(),
                        (d * d - 1).bit_length(),
                        f"X^{s} Z^-{t} on Alice's Schmidt support, then fixed local basis alignment",
                        WeylPair(d=d, s=s, t=t))
            assert self.fields(tr) == expected
            assert tr.seed is None
            # A unit-norm final state's largest entry is at least 1/sqrt(size), far above the
            # reference's 1e-12 floor, so the row core needs no floor of its own.
            amps = tr.final_state.amplitudes
            assert np.abs(amps).max() * np.sqrt(amps.size) >= 1 - 1e-12
        for seed in range(4):
            tr = run_protocol(target, d, seed)
            assert tr.seed == seed
            assert self.fields(tr) == self.fields(transcripts[tr.outcome.s * d + tr.outcome.t])

    @pytest.mark.parametrize("kind", KINDS)
    def test_final_states_share_no_memory(self, rng, kind):
        """Branches may be slices of one row stack, but no two overlap, nor any the target."""
        target = self.target(kind, 6, rng)
        amps = [tr.final_state.amplitudes for tr in enumerate_protocol(target, 6)]
        for i, a in enumerate(amps):
            assert not np.shares_memory(a, target.amplitudes)
            assert not any(np.shares_memory(a, b) for b in amps[i + 1:])


class TestIntegerArguments:
    """Dimensions are Python or numpy integers within the ceiling; seeds are non-negative integers."""

    @pytest.mark.parametrize("d", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_dimension(self, d):
        assert comm_cost(d) == comm_cost(2)
        assert isinstance(comm_cost(np.int64(4)).bits, int)
        a, b = run_protocol(SKEW2, d, 0), run_protocol(SKEW2, 2, 0)
        assert a.outcome == b.outcome
        assert {type(a.outcome.d), type(a.outcome.s), type(a.outcome.t)} == {int}
        assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
        assert [tr.outcome for tr in enumerate_protocol(SKEW2, d)] == [
            tr.outcome for tr in enumerate_protocol(SKEW2, 2)
        ]

    @pytest.mark.parametrize("d, match", [
        *[(d, "integer") for d in (True, False, 2.0, 2.5, "2", None, np.float64(2), 10**30, 2**24 + 1)],
        *[(d, "positive") for d in (0, -1, np.int64(0))],
    ])
    def test_invalid_dimension_rejected(self, d, match):
        unit = BipartiteState(amplitudes=[[1.0]])
        rho = random_density(2, 2, seed=1)
        for name, call in (
            ("dimension", comm_cost),
            ("dimension", lambda d: run_protocol(SKEW2, d, 0)),
            ("dimension", lambda d: enumerate_protocol(SKEW2, d)),
            ("dimension", lambda d: random_density(d, 1, 0)),
            ("rank", lambda d: random_density(2, d, 0)),
            ("dimension", lambda d: random_unitary(d, 0)),
            ("ensemble size", lambda d: uniform_ensemble(rho, d)),
            ("dimension", shift_op),
            ("dimension", clock_op),
            ("dimension", lambda d: weyl_op(WeylPair(d=d, s=0, t=0))),
            ("dimension", lambda d: build_measurement(np.eye(2), d)),
            ("A dimension", lambda d: embed_state(unit, d, 1)),
            ("B dimension", lambda d: embed_state(unit, 1, d)),
        ):
            with pytest.raises(ValidationError, match=f"{name} must be .*{match}"):
                call(d)

    @pytest.mark.parametrize("seed", [
        -1, np.int64(-5), 2.5, None, True, "7", np.array([1, 2]), np.random.default_rng(0),
    ])
    def test_invalid_seed_rejected(self, seed):
        for call in (
            lambda seed: run_protocol(SKEW2, 2, seed),
            lambda seed: random_density(2, 1, seed),
            lambda seed: random_unitary(2, seed),
        ):
            with pytest.raises(ValidationError, match="seed"):
                call(seed)


class TestOneTwirl:
    """Explicit per-column and per-outcome loops are the oracle of the twirl."""

    @staticmethod
    def weyl_loop(d, s, t):
        omega = np.exp(2j * np.pi / d)
        u = np.zeros((d, d), dtype=complex)
        for j in range(d):
            u[(j + s) % d, j] = omega ** (j * t)
        return u

    def test_shift_clock_weyl_match_column_loops(self):
        for d in range(1, 9):
            x = np.zeros((d, d), dtype=complex)
            for j in range(d):
                x[(j + 1) % d, j] = 1.0
            assert np.array_equal(shift_op(d), x)
            assert np.array_equal(clock_op(d), np.diag(np.exp(2j * np.pi / d) ** np.arange(d)))
            for s in range(d):
                for t in range(d):
                    assert np.array_equal(weyl_op(WeylPair(d=d, s=s, t=t)), self.weyl_loop(d, s, t))

    @staticmethod
    def measurement(d, dim_b, rng):
        # unit target states, not orthogonal, supported on the first d coordinates
        states = np.zeros((d, dim_b), dtype=complex)
        states[:, :d] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        states /= np.linalg.norm(states, axis=1)[:, None]
        return build_measurement(states, d)

    def test_outcome_distribution_matches_outcome_loop(self, rng):
        for d in range(1, 6):
            for dim_b in (d, d + 2):
                meas = self.measurement(d, dim_b, rng)
                psi = random_bipartite(d + 1, dim_b, rng)
                loop = np.array([
                    np.linalg.norm(psi.amplitudes @ meas.operators[s, t].T) ** 2
                    for s in range(d) for t in range(d)
                ])
                assert np.max(np.abs(outcome_distribution(meas, psi) - loop)) <= 1e-15

    def test_completeness_check_matches_outcome_loop(self, rng):
        # Scale a complete stack so the looped defect sits just inside or
        # just outside the 1e-10 bound; the check must agree within 1e-15.
        for d in range(1, 6):
            for dim_b in (d, d + 2):
                ops = self.measurement(d, dim_b, rng).operators
                for target in (1e-10 - 1e-14, 1e-10 + 1e-14):
                    scaled = ops * np.sqrt(1.0 + target / np.sqrt(dim_b))
                    total = sum(scaled[s, t].conj().T @ scaled[s, t]
                                for s in range(d) for t in range(d))
                    defect = np.linalg.norm(total - np.eye(dim_b))
                    assert abs(defect - 1e-10) > 1e-15
                    assert (defect > 1e-10) == (target > 1e-10)
                    if defect < 1e-10:
                        MeasurementSet(d=d, dim_b=dim_b, operators=scaled)
                    else:
                        with pytest.raises(ValidationError, match="completeness"):
                            MeasurementSet(d=d, dim_b=dim_b, operators=scaled)


class TestProtocolEdgeCases:
    def test_rank_deficient_target_with_tiny_tail(self, rng):
        target = rank_deficient_bipartite(8, 8, 4, rng)
        for d in (4, 8):
            for tr in enumerate_protocol(target, d):
                assert tr.fidelity >= 1 - 1e-9
                assert abs(tr.outcome_probability - 1 / d**2) <= 1e-10

    def test_maximally_entangled_d8(self):
        u = random_unitary(8, seed=8)
        target = BipartiteState(amplitudes=u / np.sqrt(8))
        for tr in enumerate_protocol(target, 8):
            assert tr.fidelity >= 1 - 1e-9
            want = fix_global_phase(target.amplitudes)
            assert np.linalg.norm(tr.final_state.amplitudes - want) <= 1e-8

    def test_dimension_one_with_larger_product_target(self, rng):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        target = BipartiteState(amplitudes=np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        (tr,) = enumerate_protocol(target, 1)
        assert tr.outcome_probability == pytest.approx(1.0, abs=1e-15)
        assert tr.fidelity >= 1 - 1e-12
        assert run_protocol(target, 1, seed=3).fidelity >= 1 - 1e-12


class TestBranchFiniteness:
    """A row of branches is computed as one stack, but each branch is checked on its own."""

    T0 = 2

    @pytest.fixture
    def nan_branches(self, monkeypatch):
        """Make only the branches (s, T0) non-finite: row T0 of the inverse phases is NaN."""
        phases = qmajor.protocol._phases

        def patched(d, t):
            rows = phases(d, t)
            rows[np.asarray(t) == -self.T0] = np.nan
            return rows

        monkeypatch.setattr(qmajor.protocol, "_phases", patched)

    def test_enumerate_names_the_first_non_finite_branch(self, rng, nan_branches):
        target = random_bipartite(3, 3, rng)
        with pytest.raises(ValidationError, match=r"^final state of branch \(0, 2\) contains non-finite entries$"):
            enumerate_protocol(target, 3)

    def test_run_names_its_own_branch(self, rng, nan_branches):
        target = random_bipartite(3, 3, rng)
        drawn = {}
        for seed in range(64):
            drawn.setdefault(divmod(min(int(np.random.default_rng(seed).random() * 9), 8), 3), seed)
        s, seed = next((s, seed) for (s, t), seed in sorted(drawn.items()) if t == self.T0 and s > 0)
        with pytest.raises(ValidationError, match=rf"^final state of branch \({s}, 2\) contains non-finite entries$"):
            run_protocol(target, 3, seed)
        # A branch outside the poisoned ones still lands on the target.
        assert run_protocol(target, 3, drawn[(s, 1)]).fidelity >= 1 - 1e-9


class TestCommCost:
    def test_qubit(self):
        cost = comm_cost(2)
        assert (cost.bits, cost.naive_bits) == (2, 1)

    def test_trivial(self):
        assert comm_cost(1).bits == 0

    def test_large_dimension(self):
        cost = comm_cost(1024)
        assert (cost.bits, cost.naive_bits) == (20, 1023)

    def test_non_power_of_two(self):
        # ceil(2 log2 3) = ceil(3.17) = 4
        assert comm_cost(3).bits == 4
