import numpy as np
import pytest

from qmajor import numkernel
from qmajor.numkernel import (
    DensityMatrix,
    ValidationError,
    fix_global_phase,
    frobenius_distance,
    hermitian_eig,
    random_density,
    random_unitary,
    validate_density,
)


def random_hermitian(n, rng):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return h + h.conj().T


class TestHermitianEig:
    def test_diagonal_input(self):
        spect = hermitian_eig(np.diag([0.5, 0.5]))
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

    def test_exact_tie_order(self):
        # equal eigenvalues order their phase-fixed eigenvectors by decreasing
        # (re, im) of each component in turn, so e0 comes before e2
        spect = hermitian_eig(np.diag([0.25, 0.5, 0.25]))
        assert spect.eigenvalues.tolist() == [0.5, 0.25, 0.25]
        assert np.array_equal(spect.eigenvectors, np.eye(3)[:, [1, 0, 2]])


class TestValidateDensity:
    def test_identity_half(self):
        rho = validate_density(np.eye(2) / 2)
        assert rho.eigenvalues() == pytest.approx([0.5, 0.5], abs=1e-12)

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
