import numpy as np
import pytest

import qmajor.numkernel
from qmajor import bipartite
from qmajor.bipartite import (
    BipartiteState,
    corollary4_decompose,
    embed_state,
    purify,
    reduced_density,
    relate_purifications,
    schmidt,
)
from qmajor.ensembles import synthesize_ensemble, uniform_ensemble
from qmajor.majorize import MajorizationError, is_majorized_by
from qmajor.numkernel import (
    DomainError,
    ValidationError,
    random_density,
    random_unitary,
    validate_density,
)

from conftest import mix_down, random_bipartite, rank_deficient_bipartite


def state(rows):
    return BipartiteState(amplitudes=np.array(rows, dtype=complex))


def assert_rewrites(psi, q, dec):
    """Reconstruction at 1e-8, orthonormal A basis, unit B states, weights exactly q."""
    q = np.asarray(q, dtype=float)
    target = embed_state(psi, max(psi.dim_a, q.size), psi.dim_b)
    assert np.linalg.norm(dec.reconstruct() - target.amplitudes) <= 1e-8
    gram = dec.basis_a.conj().T @ dec.basis_a
    assert np.linalg.norm(gram - np.eye(q.size)) <= 1e-10
    assert np.max(np.abs(np.linalg.norm(dec.states_b, axis=1) - 1.0)) <= 1e-9
    assert np.array_equal(dec.weights, q)


BELL = state(np.eye(2) / np.sqrt(2))
PRODUCT = state([[1, 0], [0, 0]])
SKEW = state(np.diag([np.sqrt(0.8), np.sqrt(0.2)]))


class TestBipartiteState:
    @pytest.mark.parametrize("amplitudes, shown", [
        (np.diag([3.0, 4.0]), "5.0"),
        (np.diag([0.6, 0.8]) * (1 + 2e-9), "1.000000002"),
        (np.full((2, 2), 1.5e308), "inf"),
    ])
    def test_non_unit_state_is_rejected_at_construction(self, amplitudes, shown):
        message = rf"^state norm {shown}\d* deviates from 1 by more than 1e-09$"
        with pytest.raises(ValidationError, match=message):
            BipartiteState(amplitudes=amplitudes)

    def test_nan_norm_is_rejected(self, monkeypatch):
        monkeypatch.setattr(bipartite, "_norm", lambda a: float("nan"))
        with pytest.raises(ValidationError, match=r"^state norm nan deviates from 1 by more than 1e-09$"):
            BipartiteState(amplitudes=np.eye(2) / np.sqrt(2))

    def test_norm_within_tolerance_is_kept_as_given(self):
        amplitudes = np.eye(2) / np.sqrt(2) * (1 + 9e-10)
        assert np.array_equal(BipartiteState(amplitudes=amplitudes).amplitudes, amplitudes)


class TestSchmidt:
    def test_product_state(self):
        dec = schmidt(PRODUCT)
        assert dec.coefficients == pytest.approx([1.0], abs=1e-12)
        assert np.allclose(np.abs(dec.basis_a[:, 0]), [1, 0], atol=1e-12)
        assert np.allclose(np.abs(dec.basis_b[:, 0]), [1, 0], atol=1e-12)

    def test_maximally_entangled(self):
        dec = schmidt(BELL)
        assert dec.coefficients == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_skewed_coefficients(self):
        dec = schmidt(SKEW)
        assert dec.coefficients == pytest.approx([0.8, 0.2], abs=1e-12)

    def test_norm_violation(self):
        with pytest.raises(ValidationError, match="norm"):
            schmidt(state([[1, 0], [0, 1]]))

    def test_coefficients_match_both_reduced_spectra(self, rng):
        for _ in range(20):
            psi = random_bipartite(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
            dec = schmidt(psi)
            for side in ("A", "B"):
                lam = reduced_density(psi, side).eigenvalues()
                assert np.max(np.abs(lam[: dec.rank] - dec.coefficients)) <= 1e-9
            # both bases orthonormal, reconstruction exact
            for basis in (dec.basis_a, dec.basis_b):
                gram = basis.conj().T @ basis
                assert np.linalg.norm(gram - np.eye(dec.rank)) <= 1e-9
            assert np.linalg.norm(dec.reconstruct() - psi.amplitudes) <= 1e-9


    def test_one_by_one_state(self):
        dec = schmidt(state([[1j]]))
        assert dec.coefficients == pytest.approx([1.0], abs=1e-15)
        assert np.array_equal(dec.basis_a, [[1.0]])
        assert np.allclose(dec.basis_b, [[1j]], atol=1e-15)

    def test_rank_deficient_tail_is_cut(self, rng):
        psi = rank_deficient_bipartite(8, 6, 3, rng)
        assert np.linalg.svd(psi.amplitudes, compute_uv=False)[-1] ** 2 < 1e-25
        dec = schmidt(psi)
        assert dec.rank == 3
        assert np.linalg.norm(dec.reconstruct() - psi.amplitudes) <= 1e-9

    def test_reconstruction_defect_is_caught(self, rng, monkeypatch):
        svd = bipartite._canonical_svd

        def off_by_2e8(m):
            u, sigma, vh, rank = svd(m)
            return u, sigma + np.eye(1, sigma.size)[0] * 2e-8, vh, rank

        monkeypatch.setattr(bipartite, "_canonical_svd", off_by_2e8)
        with pytest.raises(ValidationError, match="Schmidt reconstruction defect"):
            schmidt(random_bipartite(2, 2, rng))

    def test_canonical_phase(self, rng):
        # first component above 1e-12 of each A-side vector is real positive
        for _ in range(10):
            dec = schmidt(random_bipartite(int(rng.integers(1, 7)), int(rng.integers(1, 7)), rng))
            for col in dec.basis_a.T:
                pivot = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
                assert abs(pivot.imag) <= 1e-15 and pivot.real > 0.0


class TestReducedDensity:
    def test_product_state_b_side(self):
        rho = reduced_density(PRODUCT, "B")
        assert np.allclose(rho.matrix, np.diag([1, 0]), atol=1e-12)

    def test_bell_b_side(self):
        rho = reduced_density(BELL, "B")
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_skew_a_side(self):
        rho = reduced_density(SKEW, "A")
        assert np.allclose(rho.matrix, np.diag([0.8, 0.2]), atol=1e-12)

    def test_bad_side(self):
        with pytest.raises(ValidationError, match="side"):
            reduced_density(BELL, "C")

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("norm", [1 + 9e-10, 1 - 9e-10])
    def test_takes_every_norm_the_constructor_accepts(self, rng, side, norm):
        # The state keeps a norm within 1e-9 of 1, so its partial trace is norm**2, about 1 +- 1.8e-9.
        psi = BipartiteState(amplitudes=random_bipartite(3, 4, rng).amplitudes * norm)
        m = psi.amplitudes / psi.norm()
        want = m @ m.conj().T if side == "A" else m.T @ m.conj()
        rho = reduced_density(psi, side)
        assert np.linalg.norm(rho.matrix - want) <= 1e-14
        assert rho.eigenvalues().sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("seed", range(5))
    def test_graded_spectrum_has_relative_accuracy(self, seed, side):
        # Squared Schmidt coefficients 1 ... 1e-10: forming the Gram first leaves the small ones
        # only about 1e-16 of absolute accuracy, about 1e-6 relative.
        mpmath = pytest.importorskip("mpmath")
        lam = np.logspace(0, -10, 8)
        amps = (random_unitary(8, seed) * np.sqrt(lam / lam.sum())) @ random_unitary(8, seed + 100).T
        got = reduced_density(state(amps), side).eigenvalues()
        with mpmath.workdps(50):  # the oracle: the same float amplitudes, at 50 digits
            m = mpmath.matrix(amps.tolist() if side == "A" else amps.T.tolist())
            want = sorted(mpmath.eighe(m * m.H, eigvals_only=True), reverse=True)
            want = np.array([float(w / mpmath.fsum(want)) for w in want])
        live = want > bipartite._RANK_FLOOR
        assert live.all()
        assert np.max(np.abs(got[live] - want[live]) / want[live]) <= 1e-10


class TestPurify:
    def test_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        psi = purify(rho, [1.0], [[1, 0]])
        assert np.allclose(psi.amplitudes, [[1, 0]], atol=1e-15)

    def test_eigen_ensemble_of_qubit(self):
        rho = validate_density(np.eye(2) / 2)
        psi = purify(rho, [0.5, 0.5], np.eye(2))
        assert np.allclose(psi.amplitudes, np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_three_member_purification(self):
        rho = validate_density(np.eye(2) / 2)
        ens = uniform_ensemble(rho, 3)
        psi = purify(rho, ens.weights, ens.states)
        assert (psi.dim_a, psi.dim_b) == (3, 2)
        back = reduced_density(psi, "B")
        assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-9

    def test_mismatch_rejected(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(DomainError, match="mismatch"):
            purify(rho, [1.0], [[1, 0]])

    def test_non_unit_product_is_rejected_by_purify(self):
        # Weights 0.5 + 4.5e-10 and states (1 + 9e-10) e_k each pass their own
        # rule and realize I/2 within tol, but sqrt(w) * states has norm
        # 1 + 1.35e-9, so the purification itself is rejected.
        rho = validate_density(np.eye(2) / 2)
        message = r"^state norm 1\.0000000013\d* deviates from 1 by more than 1e-09$"
        with pytest.raises(ValidationError, match=message):
            purify(rho, [0.5 + 4.5e-10] * 2, np.eye(2) * (1 + 9e-10))


class TestRelatePurifications:
    def test_identical_states(self):
        u = relate_purifications(BELL, BELL)
        assert np.allclose(u, np.eye(2), atol=1e-12)

    def test_swapped_basis(self):
        swapped = state(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
        u = relate_purifications(BELL, swapped)
        assert np.allclose(u, [[0, 1], [1, 0]], atol=1e-10)
        mapped = np.kron(u, np.eye(2)) @ BELL.amplitudes.reshape(-1)
        assert np.linalg.norm(mapped - swapped.amplitudes.reshape(-1)) <= 1e-10

    def test_random_co_purifications(self, rng):
        for _ in range(25):
            dim_b = int(rng.integers(2, 6))
            rank = int(rng.integers(1, dim_b + 1))
            rho = random_density(dim_b, rank, seed=int(rng.integers(2**31)))
            n_a = int(rng.integers(dim_b, 9))
            p1 = mix_down(np.concatenate([rho.eigenvalues(), np.zeros(n_a - dim_b)]), rng)
            p2 = mix_down(p1, rng)
            e1 = synthesize_ensemble(rho, p1)
            e2 = synthesize_ensemble(rho, p2)
            phi = purify(rho, e1.weights, e1.states)
            psi = purify(rho, e2.weights, e2.states)
            u = relate_purifications(phi, psi)
            assert np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) <= 1e-9
            # weight below the Schmidt rank cutoff (noise-level eigenvalues
            # of rank-deficient rho) is honestly unmatchable
            slack = sum(
                np.sqrt(max(0.0, 1.0 - schmidt(s).coefficients.sum()) + 1e-15 * n_a)
                for s in (phi, psi)
            )
            assert np.linalg.norm(u @ phi.amplitudes - psi.amplitudes) <= 1e-8 + slack

    def test_full_rank_co_purifications_tight(self, rng):
        for _ in range(10):
            dim_b = int(rng.integers(2, 6))
            rho = random_density(dim_b, dim_b, seed=int(rng.integers(2**31)))
            n_a = int(rng.integers(dim_b, 8))
            p1 = mix_down(np.concatenate([rho.eigenvalues(), np.zeros(n_a - dim_b)]), rng)
            p2 = mix_down(p1, rng)
            e1 = synthesize_ensemble(rho, p1)
            e2 = synthesize_ensemble(rho, p2)
            phi = purify(rho, e1.weights, e1.states)
            psi = purify(rho, e2.weights, e2.states)
            u = relate_purifications(phi, psi)
            assert np.linalg.norm(u @ phi.amplitudes - psi.amplitudes) <= 1e-8

    def test_degenerate_spectrum(self, rng):
        # fully degenerate Schmidt coefficients leave the bases undetermined
        d = 3
        u1 = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        phi = BipartiteState(amplitudes=np.eye(d, dtype=complex) / np.sqrt(d))
        psi = BipartiteState(amplitudes=(u1 @ np.eye(d)) / np.sqrt(d))
        u = relate_purifications(phi, psi)
        assert np.linalg.norm(u @ phi.amplitudes - psi.amplitudes) <= 1e-9

    def test_different_reduced_densities_rejected(self):
        with pytest.raises(DomainError, match="co-purifications"):
            relate_purifications(BELL, PRODUCT)

    def test_nearly_degenerate_coefficients_tight(self, rng):
        # Schmidt coefficients 1.1e-8..2e-8 apart: close enough to look
        # degenerate to a gap threshold, far enough to pin the bases apart
        for _ in range(40):
            p = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            k = int(rng.integers(0, 3))
            p[k + 1] = p[k] - rng.uniform(1.1e-8, 2e-8)
            p /= p.sum()
            a, b, v = (random_unitary(4, seed=int(rng.integers(2**31))) for _ in range(3))
            phi = BipartiteState(amplitudes=(a * np.sqrt(p)) @ b.T)
            psi = BipartiteState(amplitudes=v @ phi.amplitudes)
            u = relate_purifications(phi, psi)
            assert np.linalg.norm(u @ phi.amplitudes - psi.amplitudes) <= 1e-8

    def test_runs_no_eigensolve(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolve called while relating purifications")

        monkeypatch.setattr(qmajor.numkernel, "hermitian_eig", forbidden)
        for name in ("eig", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        phi = random_bipartite(5, 3, rng)
        psi = BipartiteState(amplitudes=random_unitary(5, seed=4) @ phi.amplitudes)
        u = relate_purifications(phi, psi)
        assert np.linalg.norm(u @ phi.amplitudes - psi.amplitudes) <= 1e-8


class TestCorollary4:
    def test_weights_equal_coefficients(self):
        dec = corollary4_decompose(BELL, [0.5, 0.5])
        assert np.linalg.norm(dec.reconstruct() - BELL.amplitudes) <= 1e-9

    def test_product_state_split(self):
        dec = corollary4_decompose(PRODUCT, [0.5, 0.5])
        assert np.linalg.norm(dec.reconstruct() - PRODUCT.amplitudes) <= 1e-9
        # B states collapse onto the single Schmidt vector
        for row in dec.states_b:
            assert abs(np.vdot(row, [1, 0])) == pytest.approx(1.0, abs=1e-10)

    def test_rejected_when_too_ordered(self):
        with pytest.raises(MajorizationError, match="k=1") as exc:
            corollary4_decompose(BELL, [1.0, 0.0])
        assert exc.value.k == 1

    def test_a_space_extension(self):
        q = [0.4, 0.3, 0.3]
        dec = corollary4_decompose(BELL, q)
        assert dec.basis_a.shape == (3, 3)
        target = embed_state(BELL, 3, 2)
        assert np.linalg.norm(dec.reconstruct() - target.amplitudes) <= 1e-8

    def test_random_states_and_weights(self, rng):
        for _ in range(30):
            dim_a = int(rng.integers(2, 9))
            dim_b = int(rng.integers(2, 9))
            psi = random_bipartite(dim_a, dim_b, rng)
            p = schmidt(psi).coefficients
            extra = int(rng.integers(0, 3))
            q = mix_down(np.concatenate([p, np.zeros(extra)]), rng)
            dec = corollary4_decompose(psi, q)
            n_a = max(dim_a, q.size)
            target = embed_state(psi, n_a, dim_b)
            assert np.linalg.norm(dec.reconstruct() - target.amplitudes) <= 1e-8
            gram = dec.basis_a.conj().T @ dec.basis_a
            assert np.linalg.norm(gram - np.eye(q.size)) <= 1e-9
            live = dec.weights > 1e-9
            norms = np.linalg.norm(dec.states_b[live], axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_forward_direction(self, rng):
        # tracing out A from the rewritten form returns the B-side reduced
        # density, so the weights are majorized by the Schmidt coefficients
        for _ in range(15):
            psi = random_bipartite(4, 5, rng)
            p = schmidt(psi).coefficients
            q = mix_down(p, rng)
            dec = corollary4_decompose(psi, q)
            mix = (dec.states_b.T * dec.weights) @ dec.states_b.conj()
            rho_b = reduced_density(psi, "B")
            assert np.linalg.norm(mix - rho_b.matrix) <= 1e-9
            assert is_majorized_by(dec.weights, p)


    def test_rank_deficient_target_with_tiny_tail(self, rng):
        # q mixed down from coefficients whose tail is ~1e-33 keeps entries
        # of that size; the witness must not leave ~1e-16 of weight on them
        for _ in range(20):
            psi = rank_deficient_bipartite(8, 8, 4, rng)
            coeffs = np.linalg.svd(psi.amplitudes, compute_uv=False) ** 2
            head, tail = mix_down(coeffs[:4], rng), mix_down(coeffs[4:], rng)
            q = rng.permutation(np.concatenate([head, tail]))
            assert 0.0 < np.min(q) < 1e-30
            assert_rewrites(psi, q, corollary4_decompose(psi, q))

    @pytest.mark.parametrize("tiny", [1e-14, 1e-13, 1e-12])
    def test_weight_at_or_below_floor_is_realized(self, rng, tiny):
        # a weight this small must not absorb the witness's ~1e-16 roundoff,
        # which costs 1e-7 of amplitude at 1e-14 and more above it
        psi = random_bipartite(6, 6, rng)
        q = np.concatenate([np.full(11, (1 - tiny) / 11), [tiny]])
        dec = corollary4_decompose(psi, q)
        assert_rewrites(psi, q, dec)
        # it is split off the heaviest weight and shares its B-side state
        assert np.linalg.norm(dec.states_b[-1] - dec.states_b[0]) <= 1e-12

    @pytest.mark.parametrize("norm", [1 + 9e-10, 1 - 9e-10])
    def test_near_unit_norm_target(self, rng, norm):
        # The coefficients sum to norm**2, off 1 by up to 1.8e-9, while q sums
        # to 1; compared unscaled they failed the majorization total.
        for _ in range(20):
            psi = random_bipartite(6, 6, rng)
            psi = BipartiteState(amplitudes=psi.amplitudes * norm)
            coeffs = np.linalg.svd(psi.amplitudes, compute_uv=False) ** 2
            q = mix_down(coeffs / coeffs.sum(), rng)
            assert_rewrites(psi, q, corollary4_decompose(psi, q))

    def test_reconstruction_defect_is_caught(self, rng):
        psi = random_bipartite(3, 3, rng)
        u, sigma, vh, _ = bipartite._canonical_svd(psi.amplitudes)
        target = psi.amplitudes.copy()
        target[0, 0] += 2e-8
        with pytest.raises(ValidationError, match="reconstruction defect"):
            bipartite._cor4_from_svd(u, sigma, vh, sigma**2, target)

    def test_exactly_zero_padded_weights(self, rng):
        for dim_a, dim_b in ((3, 3), (2, 5), (5, 2)):
            psi = random_bipartite(dim_a, dim_b, rng)
            q = np.concatenate([mix_down(schmidt(psi).coefficients, rng), np.zeros(3)])
            dec = corollary4_decompose(psi, q)
            assert dec.basis_a.shape == (max(dim_a, q.size), q.size)
            assert_rewrites(psi, q, dec)
            assert np.all(dec.states_b[-3:] == np.eye(1, dim_b))

    def test_maximally_entangled_d8(self, rng):
        u = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
        psi = BipartiteState(amplitudes=u / np.sqrt(8))
        padded = mix_down(np.concatenate([np.full(8, 1 / 8), np.zeros(4)]), rng)
        for q in (np.full(8, 1 / 8), padded):
            assert_rewrites(psi, q, corollary4_decompose(psi, q))

    def test_one_by_one_state(self):
        psi = state([[1.0]])
        for q in ([1.0], [0.5, 0.5]):
            assert_rewrites(psi, q, corollary4_decompose(psi, q))

    def test_unequal_dimensions(self, rng):
        for dim_a, dim_b in ((2, 7), (7, 2), (1, 4), (4, 1)):
            psi = random_bipartite(dim_a, dim_b, rng)
            q = mix_down(np.concatenate([schmidt(psi).coefficients, np.zeros(2)]), rng)
            assert_rewrites(psi, q, corollary4_decompose(psi, q))


class TestEmbedState:
    def test_zero_padding(self):
        big = embed_state(BELL, 3, 4)
        assert (big.dim_a, big.dim_b) == (3, 4)
        assert np.allclose(big.amplitudes[:2, :2], BELL.amplitudes)
        assert np.count_nonzero(big.amplitudes[2:, :]) == 0

    def test_cannot_shrink(self):
        with pytest.raises(ValidationError, match="shrink"):
            embed_state(BELL, 1, 2)
