import numpy as np
import pytest

from qmajor import numkernel
from qmajor.bipartite import BipartiteState, reduced_density
from qmajor.ensembles import Ensemble, density_from_ensemble
from qmajor.numkernel import (
    DensityMatrix,
    ValidationError,
    frobenius_distance,
    hermitian_eig,
    random_density,
    random_unitary,
    validate_density,
)

from conftest import fix_global_phase, random_bipartite


def random_hermitian(n, rng):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return h + h.conj().T


class TestHermitianEig:
    def test_diagonal_input(self):
        spect = hermitian_eig(np.diag([0.5, 0.5]))
        assert spect.dim == 2
        assert np.array_equal(spect.eigenvalues, [0.5, 0.5])
        assert np.array_equal(spect.eigenvectors, np.eye(2))

    def test_real_symmetric_flip(self):
        spect = hermitian_eig([[0, 1], [1, 0]])
        assert spect.eigenvalues == pytest.approx([1.0, -1.0], abs=1e-12)
        r = 1 / np.sqrt(2)
        assert np.allclose(np.abs(spect.eigenvectors), r, atol=1e-12)
        # phase convention: first sizable component real positive
        assert spect.eigenvectors[0, 0].real > 0
        assert spect.eigenvectors[0, 1].real > 0

    def test_reconstruction_random_8x8(self, rng):
        h = random_hermitian(8, rng)
        spect = hermitian_eig(h)
        assert frobenius_distance(spect.reconstruct(), h) <= 1e-10

    def test_invariants_up_to_dim_16(self, rng):
        for n in range(2, 17):
            h = random_hermitian(n, rng)
            spect = hermitian_eig(h)
            assert spect.dim == n
            assert frobenius_distance(spect.reconstruct(), h) <= 1e-10
            gram = spect.eigenvectors.conj().T @ spect.eigenvectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
            assert np.all(np.diff(spect.eigenvalues) <= 1e-15)

    def test_deterministic(self, rng):
        h = random_hermitian(6, rng)
        a = hermitian_eig(h)
        b = hermitian_eig(h.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermiticity"):
            hermitian_eig([[0, 1], [0, 0]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="Hermitian input is empty"):
            hermitian_eig(np.zeros((0, 0)))

    @pytest.mark.xfail(strict=True, raises=ValidationError,
                       reason="known defect, ROADMAP item 2: the absolute 1e-12 sweep target stops "
                              "before any rotation of a small-norm input, and the relative "
                              "reconstruction check then refuses it; the eigh swap mends it")
    @pytest.mark.parametrize("h, expected", [
        ([[1e-5, 5e-13], [5e-13, 2e-5]], [2e-5, 1e-5]),
        ([[0, 1e-13], [1e-13, 0]], [1e-13, -1e-13]),
    ], ids=["close-diagonal", "off-diagonal-only"])
    def test_small_norm_input(self, h, expected):
        assert hermitian_eig(h).eigenvalues == pytest.approx(expected, rel=1e-12)

    def test_orthonormality_bound_does_not_grow_with_the_norm(self, monkeypatch):
        # Columns of the null space scaled by 1 + 1e-6 leave the reconstruction
        # exact but are 2e-6 from orthonormal, at any norm of the input.
        phases = numkernel._canonical_phases
        monkeypatch.setattr(numkernel, "_canonical_phases", lambda v: phases(v) * [1.0, 1 + 1e-6, 1 + 1e-6])
        with pytest.raises(ValidationError, match="eigenvector orthonormality defect .* exceeds 1e-09"):
            hermitian_eig(np.diag([1e6, 0.0, 0.0]))

    def test_exact_tie_order(self):
        # exact ties keep the solver's order: a diagonal input needs no rotation, and the
        # stable sort of -eigenvalues keeps e0 before e2; reversing an ascending solver's
        # output instead would give e1, e2, e0
        spect = hermitian_eig(np.diag([0.25, 0.5, 0.25]))
        assert spect.eigenvalues.tolist() == [0.5, 0.25, 0.25]
        assert np.array_equal(spect.eigenvectors, np.eye(3)[:, [1, 0, 2]])
        # interleaved ties at n = 8, which numpy's default, unstable argsort reorders
        spect = hermitian_eig(np.diag([0.25, 0.5] * 4))
        assert np.array_equal(spect.eigenvectors, np.eye(8)[:, [1, 3, 5, 7, 0, 2, 4, 6]])


def _refuse_eigensolve(*args, **kwargs):
    raise AssertionError("a density built from its factor ran an eigensolve")


class TestDensityFromFactor:
    """Densities the library builds from a factor F of rho = F F^dagger take one SVD of F."""

    @pytest.mark.parametrize("build", [
        lambda: random_density(6, 3, seed=2),
        lambda: reduced_density(random_bipartite(3, 5, np.random.default_rng(3)), "A"),
        lambda: reduced_density(random_bipartite(3, 5, np.random.default_rng(3)), "B"),
        lambda: density_from_ensemble(Ensemble.from_members([(0.5, [1, 0]), (0.3, [0.6, 0.8j]), (0.2, [0, 1])])),
    ], ids=["random_density", "reduced_density-A", "reduced_density-B", "density_from_ensemble"])
    def test_runs_no_eigensolve(self, build, monkeypatch):
        monkeypatch.setattr(numkernel, "hermitian_eig", _refuse_eigensolve)
        rho = build()
        assert rho.eigenvalues().sum() == pytest.approx(1.0, abs=1e-15)

    def test_random_density_is_the_normalized_gram_with_an_exact_null_space(self):
        for seed in range(100):
            dim = 1 + seed % 12
            rank = 1 + seed * 7 % dim
            rng = np.random.default_rng(seed)  # random_density's own draw
            g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
            want = g @ g.conj().T
            rho = random_density(dim, rank, seed)
            assert np.linalg.norm(rho.matrix - want / np.trace(want).real) <= 1e-14
            assert np.all(rho.eigenvalues()[:rank] > 0.0)
            assert np.all(rho.eigenvalues()[rank:] == 0.0)


def _state(dim_a, dim_b, seed, norm=1.0):
    amps = random_bipartite(dim_a, dim_b, np.random.default_rng(seed)).amplitudes
    return BipartiteState(amplitudes=amps * norm)


FACTOR_DENSITIES = {
    "tall-40x3": lambda: reduced_density(_state(40, 3, 1), "A"),
    "wide-3x40": lambda: reduced_density(_state(3, 40, 2), "A"),
    "square": lambda: random_density(7, 7, seed=3),
    "d1-random": lambda: random_density(1, 1, seed=4),
    "d1-reduced": lambda: reduced_density(_state(1, 5, 5), "A"),
    "product": lambda: reduced_density(
        BipartiteState(amplitudes=np.outer([0.6, 0.0, 0.8j], [0.0, 1.0])), "A"),
    "ensemble-zeros": lambda: density_from_ensemble(Ensemble.from_members(
        [(0.5, [1, 0]), (0.0, [0.6, 0.8j]), (0.3, [0, 1]), (0.0, [1, 0]), (0.2, [0.8, -0.6])])),
    "norm-above": lambda: reduced_density(_state(6, 2, 6, 1.0 + 9e-10), "A"),
    "norm-below": lambda: reduced_density(_state(2, 6, 7, 1.0 - 9e-10), "B"),
}


class TestFactorDensity:
    """A density built from a factor F stores F F^dagger over its trace, not the rebuild of its
    spectrum, so the two are checked to agree."""

    @pytest.mark.parametrize("case", sorted(FACTOR_DENSITIES))
    def test_matrix_is_hermitian_unit_trace_and_its_spectrum(self, case):
        rho = FACTOR_DENSITIES[case]()
        m = rho.matrix
        assert np.array_equal(m, m.conj().T)
        assert abs(np.trace(m) - 1.0) <= 1e-15
        assert np.linalg.norm(m - rho.spectrum().reconstruct()) <= 1e-13

    def test_only_validate_density_rebuilds_the_matrix_from_its_spectrum(self, monkeypatch):
        reconstruct, callers = numkernel.Spectrum.reconstruct, []

        def spy(self):
            callers.append(True)
            return reconstruct(self)

        monkeypatch.setattr(numkernel.Spectrum, "reconstruct", spy)
        for build in FACTOR_DENSITIES.values():
            build()
        assert not callers
        validate_density(np.eye(2) / 2)
        assert callers


class TestValidateDensity:
    def test_identity_half(self):
        rho = validate_density(np.eye(2) / 2)
        assert rho.eigenvalues() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_anti_hermitian_part_within_tolerance_is_not_a_reconstruction_defect(self):
        # A real antisymmetric part with entries up to 4e-10 passes the 1e-9
        # Hermiticity check; only the Hermitian part, eye/32, is decomposed,
        # so the reconstruction is measured against that, not the input.
        g = np.random.default_rng(32).normal(size=(32, 32))
        skew = (g - g.T) * (4e-10 / np.abs(g - g.T).max())
        rho = validate_density(np.eye(32) / 32 + skew)
        assert np.abs(rho.eigenvalues() - 1 / 32).max() <= 1e-15

    def test_trace_violation(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density([[0.6, 0], [0, 0.5]])

    def test_negative_eigenvalue(self):
        # 2x2 symmetric [[a, b], [b, a]] has eigenvalues a + b and a - b,
        # here 1.1 and -0.1.
        with pytest.raises(ValidationError, match="eigenvalue"):
            validate_density([[0.5, 0.6], [0.6, 0.5]])

    def test_clips_tiny_negative(self):
        eps = 1e-12
        rho = validate_density([[1.0 + eps, 0], [0, -eps]])
        lam = rho.eigenvalues()
        assert lam[-1] == 0.0
        assert lam.sum() == pytest.approx(1.0, abs=1e-15)

    def test_direct_constructor_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            DensityMatrix(matrix=np.ones((2, 3)))

    def test_directly_built_density_solves_on_first_spectrum_call(self, monkeypatch):
        # The one eigensolve runs at construction; every spectrum call reads its result.
        calls = []
        solve = numkernel.hermitian_eig
        monkeypatch.setattr(numkernel, "hermitian_eig", lambda m, tol: calls.append(1) or solve(m, tol))
        rho = DensityMatrix(matrix=np.diag([0.25, 0.75]))
        assert calls == [1]
        spect = rho.spectrum()
        assert spect.eigenvalues.tolist() == [0.75, 0.25]
        assert rho.spectrum() is spect and rho.eigenvalues() is spect.eigenvalues
        assert calls == [1]

    @pytest.mark.parametrize("m", [
        random_density(4, 2, seed=1).matrix,
        np.diag([1.0 + 1e-12, -1e-12]),
        np.eye(3) / 3 + 1e-10j * (np.eye(3, k=1) - np.eye(3, k=-1)),
        [[1.0]],
    ])
    def test_direct_constructor_is_validate_density(self, m):
        direct, validated = DensityMatrix(matrix=m), validate_density(m)
        assert np.array_equal(direct.matrix, validated.matrix)
        got, want = direct.spectrum(), validated.spectrum()
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)

    @pytest.mark.parametrize("m, message", [
        ([[0.6, 0.0], [0.0, 0.5]], r"^trace 1\.1 deviates from 1 by more than 1e-09$"),
        ([[0.5, 0.6], [0.6, 0.5]], r"^eigenvalue .* < -1e-09: matrix is not positive semidefinite$"),
        ([[0.5, 0.1], [0.0, 0.5]], r"^Hermiticity violated"),
        ([[np.nan, 0.0], [0.0, 1.0]], r"^density matrix contains non-finite entries$"),
    ])
    def test_direct_constructor_rejects_what_validate_density_rejects(self, m, message):
        for build in (validate_density, lambda m: DensityMatrix(matrix=m)):
            with pytest.raises(ValidationError, match=message):
                build(m)

    def test_negative_eigenvalue_message_prints_a_python_float(self):
        with pytest.raises(ValidationError) as info:
            validate_density([[0.5, 0.6], [0.6, 0.5]])
        assert str(info.value) == "eigenvalue -0.09999999999999995 < -1e-09: matrix is not positive semidefinite"

    def test_one_dimensional(self):
        rho = validate_density([[1.0]])
        assert rho.eigenvalues() == pytest.approx([1.0])

    def test_hermiticity_checked_once(self, monkeypatch):
        calls = []
        defect = numkernel._hermiticity_defect
        monkeypatch.setattr(numkernel, "_hermiticity_defect", lambda m: calls.append(1) or defect(m))
        validate_density(np.eye(3) / 3)
        assert len(calls) == 1
        with pytest.raises(ValidationError, match="Hermiticity"):
            validate_density([[0.5, 0.1], [0.0, 0.5]])

    @pytest.mark.parametrize("m, match", [
        (np.ones((2, 3)) / 2, "square"),
        ([[0.5, np.inf], [np.inf, 0.5]], "non-finite"),
        ([[0.5, complex(0, np.nan)], [0, 0.5]], "non-finite"),
        ([0.5, 0.5], "2-dimensional"),
    ])
    def test_input_checks_kept(self, m, match):
        with pytest.raises(ValidationError, match=match):
            validate_density(m)

    def test_non_finite_result_rejected(self):
        # A zero matrix passes a trace tolerance of 2; its zero spectrum
        # cannot be renormalized.
        with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="non-finite"):
            validate_density(np.zeros((2, 2)), tol=2.0)


class TestFrobeniusDistance:
    def test_self_distance_zero(self, rng):
        a = rng.normal(size=(3, 3))
        assert frobenius_distance(a, a) == 0.0

    def test_zero_vs_identity(self):
        assert frobenius_distance(np.zeros((2, 2)), np.eye(2)) == pytest.approx(np.sqrt(2))

    def test_two_projectors(self):
        assert frobenius_distance(np.diag([1, 0]), np.diag([0, 1])) == pytest.approx(np.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            frobenius_distance(np.eye(2), np.eye(3))


class TestNorm:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("axis", [None, 1])
    def test_is_numpys_norm_in_range_and_scales_exactly(self, rng, axis, complex_):
        a = rng.normal(size=(5, 7)) + (1j * rng.normal(size=(5, 7)) if complex_ else 0.0)
        want = np.linalg.norm(a, axis=axis)
        assert np.array_equal(numkernel._norm(a, axis), want)

        def scaled(k):
            return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k) if complex_ else np.ldexp(a, k)
        for k in (1000, -1000):
            assert np.array_equal(numkernel._norm(scaled(k), axis), np.ldexp(want, k))

    def test_subnormal_rows_have_their_norm(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0]]) * 2.0**-1070
        assert numkernel._norm(rows, 1).tolist() == [5.0 * 2.0**-1070, 0.0]


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density(2, 1, seed=5)
        assert rho.eigenvalues() == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_deterministic_per_seed(self):
        a = random_density(4, 4, seed=7)
        b = random_density(4, 4, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_counted_by_eigensolver(self):
        rho = random_density(4, 2, seed=7)
        lam = hermitian_eig(rho.matrix).eigenvalues
        assert int(np.sum(lam > 1e-9)) == 2

    def test_rank_out_of_range(self):
        with pytest.raises(ValidationError, match="rank"):
            random_density(3, 4, seed=0)
        with pytest.raises(ValidationError, match="rank"):
            random_density(3, 0, seed=0)

    def test_validate_never_rejects_generated(self):
        for dim in (1, 2, 5, 9):
            for rank in (1, max(1, dim // 2), dim):
                rho = random_density(dim, rank, seed=dim * 31 + rank)
                again = validate_density(rho.matrix)
                assert again.eigenvalues().sum() == pytest.approx(1.0, abs=1e-9)

    def test_eigenvalues_sum_to_one(self):
        for seed in range(5):
            rho = random_density(6, 3, seed=seed)
            assert rho.eigenvalues().sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim, rank", [(5, 2), (6, 1), (4, 3)])
    def test_eigenvectors_are_the_phase_fixed_svd_in_its_order(self, dim, rank):
        # The rank-deficient eigenvalues tie at exactly 0; their eigenvectors keep LAPACK's
        # completion in its own order, each column phase-fixed, and nothing else.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
            u = np.linalg.svd(g / np.linalg.norm(g), full_matrices=True)[0]
            vecs = random_density(dim, rank, seed).spectrum().eigenvectors
            assert vecs.tobytes() == (u * numkernel._canonical_phases(u)).tobytes(), seed


class TestHelpers:
    def test_random_unitary_is_unitary(self):
        u = random_unitary(5, seed=3)
        assert np.linalg.norm(u @ u.conj().T - np.eye(5)) < 1e-12
        assert np.array_equal(u, random_unitary(5, seed=3))

    def test_fix_global_phase(self):
        v = np.array([0.5j, -0.5, 0.5, 0.5j])
        fixed = fix_global_phase(v)
        idx = np.argmax(np.abs(fixed))
        assert fixed[idx].imag == pytest.approx(0.0, abs=1e-15)
        assert fixed[idx].real > 0
        assert np.linalg.norm(fixed) == pytest.approx(np.linalg.norm(v))

    def test_fix_global_phase_returns_fresh_array(self):
        for v in (np.zeros((2, 2), dtype=complex), np.array([[0.0, 1j]]), np.asfortranarray(np.eye(2) * 1j)):
            fixed = fix_global_phase(v)
            assert fixed is not v and not np.shares_memory(fixed, v)
            assert fixed.dtype == np.complex128 and fixed.shape == v.shape
        assert np.array_equal(fix_global_phase([[0.0, -2.0]]), [[0.0, 2.0]])

    @pytest.mark.parametrize("tol", [np.float16(1e-3), np.float32(0.5), np.longdouble(1e-9)],
                             ids=["float16", "float32", "longdouble"])
    def test_tolerance_of_any_float_width_validates_silently(self, tol):
        # Warnings are errors in this suite, so a bound cast down to float16 would fail here.
        assert numkernel._as_tol(tol) == float(tol)

    @pytest.mark.parametrize("tol", [
        10**400, float("nan"), float("inf"), -1e-9, np.float16("nan"), np.float32("inf"),
        np.longdouble("1e4000"),
    ])
    def test_tolerance_out_of_range_rejected(self, tol):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            numkernel._as_tol(tol)

    def test_complex_non_finite_entries_rejected(self):
        for bad in (complex(1, np.inf), complex(np.nan, 0), complex(0, -np.inf)):
            with pytest.raises(ValidationError, match="non-finite"):
                numkernel.as_complex_matrix([[1.0, bad]])
