import numpy as np
import pytest

from qmajor import ensembles, numkernel
from qmajor.ensembles import (
    Ensemble,
    density_from_ensemble,
    entropy_report,
    is_compatible,
    mixture_matrix,
    synthesize_ensemble,
    uniform_ensemble,
    verify_ensemble,
)
from qmajor.majorize import MajorizationError, check_schur_inequalities, is_majorized_by
from qmajor.numkernel import ValidationError, random_density, random_unitary, validate_density

from conftest import mix_down, rank_of, shannon_entropy, von_neumann_entropy

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def identity_half():
    return validate_density(np.eye(2) / 2)


class TestDensityFromEnsemble:
    def test_single_member(self):
        rho = density_from_ensemble(Ensemble.from_members([(1.0, KET0)]))
        assert np.allclose(rho.matrix, np.diag([1, 0]), atol=1e-15)

    def test_orthogonal_mix(self):
        rho = density_from_ensemble(Ensemble.from_members([(0.5, KET0), (0.5, KET1)]))
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_non_orthogonal_mix(self):
        # 0.5 |0><0| + 0.5 |+><+| summed by hand
        rho = density_from_ensemble(Ensemble.from_members([(0.5, KET0), (0.5, PLUS)]))
        assert np.allclose(rho.matrix, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)

    def test_invariant_violations(self):
        with pytest.raises(ValidationError, match="norm"):
            Ensemble.from_members([(0.5, KET0), (0.5, 2 * KET1)])
        with pytest.raises(ValidationError, match="sum"):
            Ensemble.from_members([(0.9, KET0), (0.3, KET1)])

    @pytest.mark.parametrize("members, match", [
        ([(1.0, [1, 0]), (0.0, [0, 1, 0])], "member 1 has dimension 3, member 0 has 2"),
        ([(1.0, "ab")], "member 0 state: could not convert"),
        ([(1.0, [[1, 0]])], "member 0 state must be 1-dimensional"),
        ([(1.0, [np.nan, 0])], "member 0 state contains non-finite"),
        ([("x", KET0)], "could not convert"),
        ([(1.0,)], "must be \\(weight, state\\) pairs"),
        (5, "must be \\(weight, state\\) pairs"),
    ])
    def test_from_members_malformed_input_rejected(self, members, match):
        with pytest.raises(ValidationError, match=match):
            Ensemble.from_members(members)

    @pytest.mark.parametrize("weights, synthetic", [
        ([1.0, 0.0], [False, False]),
        ([1.0, 0.0], [False, True]),
        ([1 - 1e-9, 1e-9], [False, False]),
        ([1 - 1e-10, 1e-10], [False, False]),
    ], ids=["zero", "zero-synthetic", "at-floor", "below-floor"])
    def test_every_member_is_a_unit_state(self, weights, synthetic):
        # No weight, zero included, exempts a member from the unit-norm rule.
        with pytest.raises(ValidationError, match=r"^ensemble member 1 norm 2\.0 deviates from 1 by more"):
            Ensemble(weights=weights, states=[KET0, 2 * KET1], synthetic=synthetic)

    def test_members_yields_weight_state_pairs(self):
        ens = Ensemble.from_members([(0.25, KET0), (0.75, PLUS)])
        members = list(ens.members())
        assert [w for w, _ in members] == [0.25, 0.75]
        assert all(type(w) is float for w, _ in members)
        assert np.array_equal([s for _, s in members], ens.states)

    def test_from_members_stacks_valid_states(self):
        ens = Ensemble.from_members(iter([(0.25, [1, 0]), (0.75, PLUS)]))
        assert ens.states.dtype == np.complex128
        assert np.array_equal(ens.states, np.array([KET0, PLUS]))
        assert ens.weights.tolist() == [0.25, 0.75]
        assert ens.synthetic.tolist() == [False, False]


class TestIsCompatible:
    def test_spectrum_itself(self):
        assert is_compatible([0.5, 0.5], identity_half())

    def test_longer_uniform(self):
        # padded spectrum (0.5, 0.5, 0): 1/3 <= 0.5, 2/3 <= 1
        assert is_compatible([1 / 3, 1 / 3, 1 / 3], identity_half())

    def test_too_concentrated(self):
        assert not is_compatible([0.75, 0.25], identity_half())


class TestSynthesizeEnsemble:
    def test_weights_equal_to_the_spectrum_give_the_eigen_ensemble(self):
        # sqrt(0.6)**2 is 0.6 + 1.1e-16; a witness built against it would
        # rotate the eigenvectors by sqrt(eps), about 2e-8.
        ens = synthesize_ensemble(validate_density(np.diag([0.6, 0.4])), [0.6, 0.4])
        assert np.array_equal(ens.states, np.eye(2))

    def test_eigenbasis_case(self):
        ens = synthesize_ensemble(identity_half(), [0.5, 0.5])
        assert np.allclose(np.abs(ens.states), np.eye(2), atol=1e-12)

    def test_three_member_uniform(self):
        rho = identity_half()
        ens = synthesize_ensemble(rho, [1 / 3, 1 / 3, 1 / 3])
        assert len(ens) == 3
        assert np.linalg.norm(mixture_matrix(ens) - rho.matrix) <= 1e-10

    def test_weight_equation(self):
        # every synthesized weight equals the matching row of the
        # doubly stochastic witness applied to the spectrum
        rho = validate_density(np.diag([0.9, 0.1]))
        ens = synthesize_ensemble(rho, [0.5, 0.5])
        lam = rho.eigenvalues()
        vecs = rho.spectrum().eigenvectors
        overlaps = np.abs(ens.states @ vecs.conj()) ** 2
        d_rows = ens.weights[:, None] * overlaps / lam[None, :]
        assert np.allclose(d_rows @ lam, ens.weights, atol=1e-12)

    def test_weights_returned_exactly(self, rng):
        rho = random_density(4, 3, seed=2)
        p = mix_down(np.concatenate([rho.eigenvalues(), [0.0]]), rng)
        ens = synthesize_ensemble(rho, p)
        assert np.array_equal(ens.weights, p)

    def test_incompatible_rejected(self):
        with pytest.raises(MajorizationError, match="k=1"):
            synthesize_ensemble(identity_half(), [0.75, 0.25])

    def test_zero_weight_members_are_flagged(self):
        ens = synthesize_ensemble(identity_half(), [0.5, 0.5, 0.0])
        assert len(ens) == 3
        assert ens.synthetic.tolist() == [False, False, True]
        assert np.allclose(ens.states[2], KET0)

    def test_synthetic_flag_on_positive_weight_rejected(self):
        with pytest.raises(ValidationError, match="synthetic member 0"):
            Ensemble(weights=[0.5, 0.5], states=np.eye(2), synthetic=[True, False])
        # a flag on an exact zero weight is what synthesis itself produces
        ens = Ensemble(weights=[1.0, 0.0], states=np.eye(2), synthetic=[False, True])
        assert ens.synthetic.tolist() == [False, True]

    def test_weight_messages_print_python_floats(self):
        with pytest.raises(ValidationError) as info:
            Ensemble(weights=[0.5, 0.5], states=np.eye(2), synthetic=[True, False])
        assert str(info.value) == "synthetic member 0 has weight 0.5, not 0"
        # rows that are all zero leave every mixed state without norm
        with pytest.raises(ValidationError) as info:
            ensembles._mix(np.zeros((2, 2), dtype=complex), np.array([0.5, 0.5]),
                           np.sqrt([0.5, 0.5]), np.array([0.5, 0.5]))
        assert str(info.value) == "degenerate mix for member 0 with weight 0.5"

    @pytest.mark.parametrize("flags", [
        ["", "x"], ["x", "x"], [0, 1], [0.0, 1.0], [np.nan, 0.0], [None, None], "ab",
    ])
    def test_synthetic_flags_must_be_bools(self, flags):
        # Coerced with bool(), the non-empty string "x" would read as True.
        with pytest.raises(ValidationError, match="synthetic flags: could not convert"):
            Ensemble(weights=[1.0, 0.0], states=np.eye(2), synthetic=flags)

    def test_synthetic_flags_must_align(self):
        with pytest.raises(ValidationError, match="synthetic flags must be 1-dimensional"):
            Ensemble(weights=[1.0, 0.0], states=np.eye(2), synthetic=[[False, True]])
        with pytest.raises(ValidationError, match="must align"):
            Ensemble(weights=[1.0, 0.0], states=np.eye(2), synthetic=[False])

    def test_tiny_weights_get_real_states(self):
        # a placeholder for each 1e-9 weight would cost 2e-7 in the audit
        rho = random_density(4, 4, seed=11)
        p = np.concatenate([np.full(4, (1 - 200e-9) / 4), np.full(200, 1e-9)])
        ens = synthesize_ensemble(rho, p)
        assert verify_ensemble(ens, rho).passed
        assert np.array_equal(ens.synthetic, ens.weights == 0)

    @pytest.mark.parametrize("w", [5e-324, 1e-321, 1e-318, 1e-314])
    def test_subnormal_weights_get_unit_states(self, w):
        # An unscaled row norm squares a subnormal weight's amplitude to zero or to a few bits.
        rho = validate_density(np.diag([0.6, 0.4]))
        ens = synthesize_ensemble(rho, [0.6, 0.4 - w, w])
        assert verify_ensemble(ens, rho).passed
        assert np.max(np.abs(np.linalg.norm(ens.states, axis=1) - 1.0)) <= 1e-15

    def test_round_trip_random(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 17))
            rank = int(rng.integers(1, dim + 1))
            rho = random_density(dim, rank, seed=int(rng.integers(2**31)))
            extra = int(rng.integers(0, 4))
            p = mix_down(np.concatenate([rho.eigenvalues(), np.zeros(extra)]), rng)
            ens = synthesize_ensemble(rho, p)
            assert np.linalg.norm(mixture_matrix(ens) - rho.matrix) <= 1e-8
            live = ens.weights > 1e-9
            norms = np.linalg.norm(ens.states[live], axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_forward_direction_random_unitary_mixing(self, rng):
        # mixing the scaled eigenvectors through any unitary gives weights
        # majorized by the spectrum
        for trial in range(30):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, int(rng.integers(1, dim + 1)), seed=trial)
            lam = rho.eigenvalues()
            scaled = rho.spectrum().eigenvectors * np.sqrt(lam)
            u = random_unitary(dim, seed=trial + 1000)
            raw = scaled @ u.T
            weights = np.linalg.norm(raw, axis=0) ** 2
            assert is_majorized_by(weights, lam, tol=1e-10)


class TestUniformEnsemble:
    def test_pure_state_copies(self):
        rho = random_density(2, 1, seed=3)
        ens = uniform_ensemble(rho, 2)
        assert np.allclose(ens.weights, [0.5, 0.5])
        # both members are the same ray
        overlap = abs(np.vdot(ens.states[0], ens.states[1]))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_three_member_reconstruction(self):
        rho = identity_half()
        ens = uniform_ensemble(rho, 3)
        assert verify_ensemble(ens, rho).passed

    def test_below_rank_rejected(self):
        with pytest.raises(MajorizationError):
            uniform_ensemble(identity_half(), 1)

    def test_below_rank_names_first_failing_partial_sum(self):
        # Sorted partial sums of (1/2, 1/2) against (0.4, 0.3, 0.3) first fail
        # at k = 1 (0.5 > 0.4), before the k = m = 2 sum (1.0 > 0.7).
        rho = validate_density(np.diag([0.4, 0.3, 0.3]))
        fields = []
        for build in (lambda: uniform_ensemble(rho, 2), lambda: synthesize_ensemble(rho, [0.5, 0.5])):
            with pytest.raises(MajorizationError) as info:
                build()
            fields.append((info.value.k, info.value.lhs, info.value.rhs))
        assert fields[0] == fields[1]
        k, lhs, rhs = fields[0]
        assert k == 1
        assert lhs == pytest.approx(0.5, abs=1e-15)
        assert rhs == pytest.approx(0.4, abs=1e-15)

    def test_rank_window(self):
        rho = random_density(5, 3, seed=11)
        assert rank_of(rho) == 3
        for m in range(3, 8):
            ens = uniform_ensemble(rho, m)
            assert len(ens) == m
            assert verify_ensemble(ens, rho).passed


class TestVerifyEnsemble:
    def test_synthesized_passes(self):
        rho = random_density(4, 2, seed=9)
        ens = synthesize_ensemble(rho, rho.eigenvalues())
        assert verify_ensemble(ens, rho).passed

    def test_wrong_state_fails_with_known_error(self):
        audit = verify_ensemble(Ensemble.from_members([(1.0, KET0)]), identity_half())
        assert not audit.passed
        # || diag(1,0) - I/2 ||_F = || diag(0.5, -0.5) ||_F
        assert audit.frobenius_error == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert not audit.majorization_ok

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="dimension 3 but rho has 2"):
            verify_ensemble(Ensemble.from_members([(1.0, [1, 0, 0])]), identity_half())

    def test_self_consistency_at_tight_tolerance(self):
        ens = Ensemble.from_members([(0.5, KET0), (0.5, PLUS)])
        rho = density_from_ensemble(ens)
        assert verify_ensemble(ens, rho, tol=1e-12).passed


class TestEntropyReport:
    def test_eigenbasis_entropies_match(self):
        rho = random_density(3, 3, seed=21)
        ens = synthesize_ensemble(rho, rho.eigenvalues())
        report = entropy_report(ens)
        assert report.shannon == pytest.approx(report.von_neumann, abs=1e-10)

    def test_uniform_three_of_qubit(self):
        report = entropy_report(uniform_ensemble(identity_half(), 3))
        assert report.shannon == pytest.approx(np.log(3), abs=1e-12)
        assert report.von_neumann == pytest.approx(np.log(2), abs=1e-9)
        assert report.gap >= -1e-9

    def test_pure_state(self):
        report = entropy_report(Ensemble.from_members([(1.0, PLUS)]))
        assert report.shannon == 0.0
        assert report.von_neumann == pytest.approx(0.0, abs=1e-9)

    def test_weights_equal_rank_deficient_spectrum(self):
        # roundoff eigenvalues of ~1e-17 must not move sum(-sqrt(x)) past tol
        rng = np.random.default_rng(3)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        pure = validate_density(np.outer(v, v.conj()) / np.vdot(v, v).real)
        assert pure.eigenvalues()[1] > 0.0
        report = entropy_report(synthesize_ensemble(pure, [1.0]))
        assert report.schur.passed
        rho = random_density(6, 3, seed=4)
        report = entropy_report(synthesize_ensemble(rho, rho.eigenvalues()[:3]))
        assert report.schur.passed
        assert report.schur.tol == 1e-9

    def test_mixing_entropy_dominates_on_synthesized(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, int(rng.integers(1, dim + 1)), seed=int(rng.integers(2**31)))
            p = mix_down(rho.eigenvalues(), rng)
            report = entropy_report(synthesize_ensemble(rho, p))
            assert report.shannon >= report.von_neumann - 1e-9
            assert report.schur.passed

    def test_shannon_entropy_zero_convention(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    @pytest.mark.parametrize("weights, match", [
        ([[0.5, 0.5], [0.5, 0.5]], "1-dimensional"),
        (0.5, "1-dimensional"),
        ([0.5, np.nan], "non-finite"),
        ([1.5, -0.5], "negative"),
    ])
    def test_shannon_entropy_rejects_non_vectors(self, weights, match):
        with pytest.raises(ValidationError, match=match):
            shannon_entropy(weights)

    def test_von_neumann_entropy_unchanged(self):
        # The entropy of the spectrum, summed over its positive entries.
        for seed in range(10):
            rho = random_density(6, 1 + seed % 6, seed=seed)
            lam = rho.eigenvalues()
            pos = lam[lam > 0.0]
            assert von_neumann_entropy(rho) == -float(np.sum(pos * np.log(pos)))


def _synthesized(n, rank, extra=0, seed=0):
    rho = random_density(n, rank, seed=seed)
    lam = rho.eigenvalues()
    p = mix_down(lam, np.random.default_rng(seed)) if n > 1 else lam
    return synthesize_ensemble(rho, np.concatenate([p, np.zeros(extra)]))


ORACLE_CASES = {
    "n1": lambda: _synthesized(1, 1),
    "n2": lambda: _synthesized(2, 2, seed=1),
    "n8": lambda: _synthesized(8, 8, seed=2),
    "n48": lambda: _synthesized(48, 48, seed=3),
    "rank-deficient": lambda: _synthesized(8, 3, seed=4),
    "zero-weight-members": lambda: _synthesized(5, 5, extra=4, seed=5),
    "fewer-members-than-dim": lambda: synthesize_ensemble(
        random_density(7, 2, seed=6), [0.3, 0.3, 0.4]
    ),
    "uniform": lambda: uniform_ensemble(random_density(6, 4, seed=7), 9),
}


class TestEntropyReportOracle:
    """entropy_report against the eigenvalues of the assembled density matrix."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_dense_eigensolve(self, case):
        ens = ORACLE_CASES[case]()
        lam = density_from_ensemble(ens).eigenvalues()
        schur = check_schur_inequalities(ens.weights, np.where(lam > 1e-12, lam, 0.0))
        report = entropy_report(ens)
        assert report.shannon == shannon_entropy(ens.weights)
        assert report.von_neumann == pytest.approx(shannon_entropy(lam), abs=1e-12)
        assert [e.name for e in report.schur.entries] == [e.name for e in schur.entries]
        for got, want in zip(report.schur.entries, schur.entries):
            assert got.value_x == want.value_x
            assert got.value_y == pytest.approx(want.value_y, abs=1e-12), got.name
        assert report.schur.passed

    def test_entropy_check_kept(self):
        # Norms 1 -+ 9e-10 put the state entropy 3.5e-10 above the mixing entropy: within the
        # default tol the report carries the gap, and at tol 0 the check raises.
        ens = Ensemble.from_members([(0.6, (1 - 9e-10) * KET0), (0.4, (1 + 9e-10) * KET1)])
        message = r"^mixing entropy 0\.6730116670092565 fell below state entropy 0\.6730116673595783$"
        with pytest.raises(ValidationError, match=message):
            entropy_report(ens, tol=0.0)
        report = entropy_report(ens)
        assert report.gap == pytest.approx(-3.5e-10, rel=1e-2)
        assert report.schur.passed

    def test_runs_no_eigensolve(self, monkeypatch):
        ens = ORACLE_CASES["rank-deficient"]()

        def refuse(*args, **kwargs):
            raise AssertionError("entropy_report assembled or diagonalised rho")

        monkeypatch.setattr(numkernel, "hermitian_eig", refuse)
        monkeypatch.setattr(numkernel, "validate_density", refuse)
        monkeypatch.setattr(ensembles, "_density_from_factor", refuse)
        report = entropy_report(ens)
        assert report.gap >= -1e-9
        assert report.schur.passed

    def test_trace_check_kept(self):
        # Every member norm is validated, whatever its weight, so a 1e-10 weight
        # no longer hides a state of norm 1e3 from the constructor.
        huge = r"^ensemble member 1 norm 1000\.0 deviates from 1 by more than 1e-09$"
        with pytest.raises(ValidationError, match=huge):
            Ensemble.from_members([(1 - 1e-10, KET0), (1e-10, 1e3 * KET1)])
        # A weight total and two norms, each within 1e-9 of 1, still add up to
        # a trace (1 + 9e-10)^3 = 1 + 2.7e-9 that both trace checks reject.
        w, scale = 0.5 + 4.5e-10, 1 + 9e-10
        ens = Ensemble.from_members([(w, scale * KET0), (w, scale * KET1)])
        trace = r"^trace 1\.0000000027000002 deviates from 1 by more than 1e-09$"
        for fn in (entropy_report, density_from_ensemble):
            with pytest.raises(ValidationError, match=trace):
                fn(ens)
