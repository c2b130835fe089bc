import time

import numpy as np
import pytest

from qmajor.bipartite import corollary4_decompose, schmidt
from qmajor.ensembles import synthesize_ensemble
from qmajor.majorize import (
    MajorizationError,
    TChain,
    TTransform,
    apply_t_chain,
    as_prob_vector,
    check_schur_inequalities,
    horn_orthogonal,
    is_majorized_by,
    majorization_violation,
    schur_value,
    t_transform_chain,
    unitary_to_stochastic,
)
from qmajor.numkernel import ValidationError, random_density, random_unitary

from conftest import mix_down, random_bipartite


class TestIsMajorizedBy:
    def test_uniform_below_everything(self):
        assert is_majorized_by([1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25])

    def test_reflexive(self, rng):
        y = rng.dirichlet(np.ones(5))
        assert is_majorized_by(y, y)

    def test_first_partial_sum_fails(self):
        # sorted partial sums: 0.6 > 0.5 at k=1
        assert not is_majorized_by([0.6, 0.4], [0.5, 0.5])
        assert majorization_violation([0.6, 0.4], [0.5, 0.5]) == (1, 0.6, 0.5)

    def test_zero_padding(self):
        assert is_majorized_by([1 / 3, 1 / 3, 1 / 3], [0.5, 0.5])
        assert not is_majorized_by([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])

    def test_total_mismatch(self):
        assert not is_majorized_by([0.4, 0.4], [0.5, 0.5])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            is_majorized_by([-0.2, 1.2], [0.5, 0.5])


@pytest.mark.parametrize(
    "call",
    [majorization_violation, is_majorized_by, t_transform_chain, horn_orthogonal, check_schur_inequalities],
)
@pytest.mark.parametrize("bad", [[[0.5, 0.5]], 1.0], ids=["2-D", "0-D"])
def test_pair_operations_reject_non_vectors(call, bad):
    # Neither side is flattened: a matrix or a scalar is not a weight vector.
    for x, y in ((bad, [1.0, 0.0]), ([1.0, 0.0], bad)):
        with pytest.raises(ValidationError, match="must be 1-dimensional"):
            call(x, y)


class TestTTransform:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TTransform(i=1, k=1, t=0.5)
        with pytest.raises(ValidationError):
            TTransform(i=0, k=1, t=1.5)

    def test_matrix_and_lift_agree(self):
        tr = TTransform(i=0, k=2, t=0.3)
        m = tr.matrix(4)
        g = tr.orthogonal_lift(4)
        assert np.allclose(g * g, m, atol=1e-15)
        assert np.allclose(g @ g.T, np.eye(4), atol=1e-15)


class TestTransformChain:
    def test_two_level_split(self):
        chain = t_transform_chain([0.5, 0.5], [1, 0])
        assert len(chain) == 1
        (tr,) = chain.transforms
        assert (tr.i, tr.k) == (0, 1)
        # 0.5 = t * 1 + (1 - t) * 0 forces t = 0.5
        assert tr.t == pytest.approx(0.5, abs=1e-15)
        assert apply_t_chain(chain, [1, 0]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_three_level_chain_values(self):
        x = [0.4, 0.35, 0.25]
        y = [0.6, 0.3, 0.1]
        chain = t_transform_chain(x, y)
        assert [(tr.i, tr.k) for tr in chain.transforms] == [(0, 1), (1, 2)]
        assert chain.transforms[0].t == pytest.approx(1 / 3, abs=1e-12)
        assert chain.transforms[1].t == pytest.approx(0.625, abs=1e-12)
        assert np.max(np.abs(apply_t_chain(chain, y) - np.array(x))) <= 1e-10

    def test_identical_vectors_give_empty_chain(self, rng):
        y = rng.dirichlet(np.ones(4))
        chain = t_transform_chain(y, y)
        assert len(chain) == 0
        assert apply_t_chain(chain, y) == pytest.approx(list(y), abs=1e-15)

    def test_precondition_failure_reports_partial_sum(self):
        with pytest.raises(MajorizationError, match="k=1") as exc:
            t_transform_chain([0.75, 0.25], [0.5, 0.5])
        assert exc.value.k == 1
        assert exc.value.lhs == pytest.approx(0.75)

    def test_length_bound_and_round_trip(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 14))
            y = rng.dirichlet(np.ones(d))
            x = mix_down(y, rng)
            chain = t_transform_chain(x, y)
            assert len(chain) <= d - 1
            assert np.max(np.abs(apply_t_chain(chain, y) - x)) <= 1e-10

    def test_unsorted_inputs(self):
        x = [0.25, 0.4, 0.35]
        y = [0.1, 0.6, 0.3]
        chain = t_transform_chain(x, y)
        assert np.max(np.abs(apply_t_chain(chain, y) - np.array(x))) <= 1e-12

    def test_permutation_pair_needs_no_transforms(self):
        x = [0.0, 0.5, 0.3, 0.2]
        y = [0.2, 0.3, 0.5, 0.0]
        chain = t_transform_chain(x, y)
        assert len(chain) == 0
        assert apply_t_chain(chain, y) == pytest.approx(x, abs=0)


class TestApplyTChain:
    def test_empty_chain_is_identity(self):
        chain = TChain.plain([], 3)
        y = [0.2, 0.5, 0.3]
        assert apply_t_chain(chain, y) == pytest.approx(y, abs=0)

    def test_single_averaging(self):
        chain = TChain.plain([TTransform(i=0, k=1, t=0.5)], 2)
        assert apply_t_chain(chain, [1, 0]) == pytest.approx([0.5, 0.5])

    def test_preserves_total_and_nonnegativity(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 9))
            y = rng.dirichlet(np.ones(d))
            transforms = [
                TTransform(*sorted(rng.choice(d, 2, replace=False)), t=rng.random())
                for _ in range(5)
            ]
            out = apply_t_chain(TChain.plain(transforms, d), y)
            assert np.all(out >= 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_converse_direction(self, rng):
        # anything produced by averaging transforms is majorized by the input
        for _ in range(50):
            d = int(rng.integers(2, 10))
            y = rng.dirichlet(np.ones(d))
            x = mix_down(y, rng, rounds=int(rng.integers(1, 3 * d)))
            assert is_majorized_by(x, y)

    def test_dimension_mismatch(self):
        chain = TChain.plain([TTransform(i=0, k=1, t=0.5)], 2)
        with pytest.raises(ValidationError, match="exceeds"):
            apply_t_chain(chain, [0.2, 0.3, 0.5])

    def test_transform_index_beyond_dimension_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            TChain.plain([TTransform(0, 5, 0.5)], 3)
        with pytest.raises(ValidationError, match="out of range"):
            TChain.plain([TTransform(3, 1, 0.5)], 3)

    def test_transform_entries_must_be_ttransforms(self):
        with pytest.raises(ValidationError, match="not a TTransform"):
            TChain(transforms=[3], source_permutation=np.arange(3), target_permutation=np.arange(3))
        with pytest.raises(ValidationError, match="not a TTransform"):
            TChain.plain([(0, 1, 0.5)], 3)

    def test_permutation_lengths_must_agree(self):
        with pytest.raises(ValidationError, match="target_permutation is not"):
            TChain(transforms=(), source_permutation=np.arange(3), target_permutation=np.arange(4))

    def test_permutation_entry_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="target_permutation is not"):
            TChain(transforms=(), source_permutation=np.arange(3), target_permutation=np.array([0, 1, 5]))

    def test_repeated_permutation_entry_rejected(self):
        # Applied, [0, 0, 1] would copy y[0] twice and change the total.
        with pytest.raises(ValidationError, match="source_permutation is not"):
            TChain(transforms=(), source_permutation=np.array([0, 0, 1]), target_permutation=np.arange(3))

    def test_permutation_must_be_an_integer_array(self):
        with pytest.raises(ValidationError, match="source_permutation is not"):
            TChain(transforms=(), source_permutation=[0, 1, 2], target_permutation=np.arange(3))
        with pytest.raises(ValidationError, match="target_permutation is not"):
            TChain(transforms=(), source_permutation=np.arange(3), target_permutation=np.arange(3.0))


class TestHornOrthogonal:
    def test_two_level_exact(self):
        witness = horn_orthogonal([0.5, 0.5], [1, 0])
        r = np.sqrt(0.5)
        assert np.allclose(witness.orthogonal, [[r, -r], [r, r]], atol=1e-15)
        assert np.allclose(witness.doubly_stochastic, 0.5 * np.ones((2, 2)), atol=1e-15)
        assert witness.doubly_stochastic @ [1, 0] == pytest.approx([0.5, 0.5])

    def test_identity_case(self):
        witness = horn_orthogonal([1, 0, 0], [1, 0, 0])
        assert np.array_equal(witness.orthogonal, np.eye(3))

    def test_three_level_invariants(self):
        x = np.array([0.4, 0.35, 0.25])
        y = np.array([0.6, 0.3, 0.1])
        witness = horn_orthogonal(x, y)
        w = witness.orthogonal
        assert np.linalg.norm(w @ w.T - np.eye(3)) <= 1e-10
        assert np.allclose(witness.doubly_stochastic, w * w)
        assert np.max(np.abs(witness.doubly_stochastic @ y - x)) <= 1e-9

    def test_random_pairs(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 20))
            y = rng.dirichlet(np.ones(d))
            x = mix_down(y, rng)
            witness = horn_orthogonal(x, y)
            w = witness.orthogonal
            dmat = witness.doubly_stochastic
            assert np.linalg.norm(w @ w.T - np.eye(d)) <= 1e-10
            assert np.max(np.abs(dmat @ y - x)) <= 1e-9
            assert np.max(np.abs(dmat.sum(axis=0) - 1)) <= 1e-9
            assert np.max(np.abs(dmat.sum(axis=1) - 1)) <= 1e-9

    def test_rejects_non_majorized(self):
        with pytest.raises(MajorizationError):
            horn_orthogonal([0.75, 0.25], [0.5, 0.5])

    def test_permutation_pair_gives_permutation_witness(self):
        x = [0.2, 0.5, 0.3]
        y = [0.5, 0.3, 0.2]
        witness = horn_orthogonal(x, y)
        d = witness.doubly_stochastic
        assert np.array_equal(np.sort(d, axis=None), np.sort(np.eye(3), axis=None))
        assert d @ y == pytest.approx(x, abs=0)


def _dense_oracle_witness(x, y):
    """The witness as a dense product of d x d lifts, read back by the chain's permutations."""
    chain = t_transform_chain(x, y)
    d = chain.dim
    w0 = np.eye(d)
    for tr in chain.transforms:
        w0 = tr.orthogonal_lift(d) @ w0
    w = np.empty((d, d))
    w[:, chain.source_permutation] = w0[chain.target_permutation]
    return w


def _witness_pair(d, case, rng):
    """(x, y) with x majorized by y, for the named kind of pair."""
    if d == 1:
        return np.ones(1), np.ones(1)
    if case == "zero-padded":
        y = rng.dirichlet(np.ones(d // 2))
        return mix_down(np.concatenate([y, np.zeros(d - y.size)]), rng), y
    if case == "degenerate":
        levels = rng.dirichlet(np.ones(min(d, 3)))
        y = rng.permutation(np.repeat(levels, -(-d // levels.size))[:d])
        y = y / y.sum()
    else:
        y = rng.dirichlet(np.ones(d))
    if case == "uniform":
        return np.full(d, 1.0 / d), y
    if case == "permutation":
        return rng.permutation(y), y
    return mix_down(y, rng), y


class TestHornWitnessStructure:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 64])
    @pytest.mark.parametrize("case", ["uniform", "degenerate", "zero-padded", "permutation", "mixed"])
    def test_equals_dense_lift_product(self, d, case, rng):
        x, y = _witness_pair(d, case, rng)
        assert np.array_equal(horn_orthogonal(x, y).orthogonal, _dense_oracle_witness(x, y))

    def test_library_paths_use_no_dense_lift(self, monkeypatch, rng):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense d x d matrix built on a library path")

        monkeypatch.setattr(TTransform, "orthogonal_lift", forbidden)
        y = rng.dirichlet(np.ones(12))
        x = mix_down(y, rng)
        with monkeypatch.context() as m:
            m.setattr(np, "eye", forbidden)
            witness = horn_orthogonal(x, y)
        assert np.max(np.abs(witness.doubly_stochastic @ y - x)) <= 1e-9
        rho = random_density(5, 4, seed=3)
        p = mix_down(np.concatenate([rho.eigenvalues(), [0.0]]), rng)
        synthesize_ensemble(rho, p)
        state = random_bipartite(4, 5, rng)
        corollary4_decompose(state, mix_down(schmidt(state).coefficients, rng))

    def test_witness_and_chain_are_one_construction(self, rng):
        cases = ["uniform", "degenerate", "zero-padded", "permutation", "mixed"]
        for trial in range(100):
            d = int(rng.integers(1, 129))
            x, y = _witness_pair(d, cases[trial % len(cases)], rng)
            y_padded = np.concatenate([y, np.zeros(d - y.size)])
            dmat = horn_orthogonal(x, y).doubly_stochastic
            chain_image = apply_t_chain(t_transform_chain(x, y), y)
            assert np.max(np.abs(dmat @ y_padded - chain_image)) <= 1e-12

    def test_d1024_within_budget(self):
        rng = np.random.default_rng(1024)
        d = 1024
        y = rng.dirichlet(np.ones(d))
        x = np.full(d, 1.0 / d)
        start = time.perf_counter()
        witness = horn_orthogonal(x, y)
        elapsed = time.perf_counter() - start
        w = witness.orthogonal
        assert np.linalg.norm(w @ w.T - np.eye(d)) <= 1e-10
        assert np.max(np.abs(witness.doubly_stochastic @ y - x)) <= 1e-9
        assert elapsed < 5.0


def _reference_violation(x, y, tol=1e-9):
    """Loop form of the majorization test: first failing partial sum, or None."""
    xs = np.sort(np.clip(x, 0.0, None))[::-1]
    ys = np.sort(np.clip(y, 0.0, None))[::-1]
    d = max(xs.size, ys.size)
    cx = np.cumsum(np.concatenate([xs, np.zeros(d - xs.size)]))
    cy = np.cumsum(np.concatenate([ys, np.zeros(d - ys.size)]))
    for k in range(d - 1):
        if cx[k] > cy[k] + tol:
            return k + 1, float(cx[k]), float(cy[k])
    if abs(cx[-1] - cy[-1]) > tol:
        return d, float(cx[-1]), float(cy[-1])
    return None


def _reference_chain(x, y):
    """The walk with a linear scan for the partner and a hand-written insertion search.

    Returns the ``(i, k, t)`` transforms and both permutations, as
    ``t_transform_chain`` must.
    """
    d = max(len(x), len(y))
    xv = np.concatenate([np.clip(x, 0.0, None), np.zeros(d - len(x))])
    yv = np.concatenate([np.clip(y, 0.0, None), np.zeros(d - len(y))])
    perm_x = np.argsort(-xv, kind="stable")
    perm_y = np.argsort(-yv, kind="stable")
    xs = xv[perm_x]
    w = yv[perm_y].copy()
    order = list(range(d))
    placement = np.empty(d, dtype=np.intp)
    transforms = []
    for step in range(d):
        target = xs[step]
        if len(order) == 1:
            placement[step] = order[0]
            break
        a = order[0]
        ge_count = 0
        for pos in order:
            if w[pos] >= target:
                ge_count += 1
            else:
                break
        b = order[min(ge_count + 1, len(order)) - 1]
        wa, wb = w[a], w[b]
        t = min(1.0, max(0.0, float((target - wb) / (wa - wb)))) if wa > wb else 1.0
        placement[step] = a
        order.pop(0)
        if t < 1.0:
            transforms.append((int(a), int(b), t))
            w[a] = t * wa + (1.0 - t) * wb
            w[b] = (1.0 - t) * wa + t * wb
            order.remove(b)
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                if w[order[mid]] > w[b]:
                    lo = mid + 1
                else:
                    hi = mid
            order.insert(lo, b)
    target_permutation = np.empty(d, dtype=np.intp)
    target_permutation[perm_x] = placement
    return transforms, perm_y, target_permutation


def _tie_heavy_pair(rng, case):
    """(x, y) of dimension up to about 200, rich in equal entries."""
    d = int(rng.integers(1, 201))
    if d == 1:
        return np.ones(1), np.ones(1)
    if case == "degenerate":
        levels = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        y = rng.permutation(np.repeat(levels, -(-d // levels.size))[:d])
        y = y / y.sum()
    else:
        y = rng.dirichlet(np.ones(d))
    if case == "rounded":
        y = np.round(y, 2)
        y = y / y.sum() if y.sum() > 0 else np.full(d, 1.0 / d)
        x = np.round(mix_down(y, rng), 2)
        return (x / x.sum() if x.sum() > 0 else np.full(d, 1.0 / d)), y
    if case == "zero-padded":
        short = y[: d // 2 + 1] / y[: d // 2 + 1].sum()
        return rng.permutation(mix_down(np.concatenate([short, np.zeros(d - short.size)]), rng)), short
    if case == "permutation":
        return rng.permutation(y), y
    if case == "rejection":
        return rng.permutation(np.eye(1, d).ravel()), y
    return mix_down(y, rng), y


class TestChainOracle:
    """The library walk against the linear-scan reference, and its time budget."""

    CASES = ("rounded", "degenerate", "zero-padded", "permutation", "rejection", "mixed")

    def test_matches_linear_scan_reference(self):
        rng = np.random.default_rng(4242)
        rejected = 0
        for trial in range(480):
            x, y = _tie_heavy_pair(rng, self.CASES[trial % len(self.CASES)])
            expected = _reference_violation(x, y)
            assert majorization_violation(x, y) == expected
            if expected is not None:
                rejected += 1
                with pytest.raises(MajorizationError) as exc:
                    t_transform_chain(x, y)
                assert (exc.value.k, exc.value.lhs, exc.value.rhs) == expected
                continue
            transforms, source, target = _reference_chain(x, y)
            chain = t_transform_chain(x, y)
            assert [(tr.i, tr.k, tr.t) for tr in chain.transforms] == transforms
            assert np.array_equal(chain.source_permutation, source)
            assert np.array_equal(chain.target_permutation, target)
        assert rejected >= 60

    def test_schur_sums_match_per_coordinate_loop(self, rng):
        scalar = {
            "square": lambda u: u * u,
            "cube": lambda u: u * u * u,
            "exp": np.exp,
            "xlogx": lambda u: u * np.log(u) if u > 0.0 else 0.0,
            "neg_sqrt": lambda u: -np.sqrt(u),
        }
        for trial in range(60):
            x, y = _tie_heavy_pair(rng, self.CASES[trial % 3])
            if not is_majorized_by(x, y):
                continue
            d = max(len(x), len(y))
            entries = {e.name: e for e in check_schur_inequalities(x, y).entries}
            for fname, f in scalar.items():
                for v, got in ((x, entries[f"sum[{fname}]"].value_x), (y, entries[f"sum[{fname}]"].value_y)):
                    padded = np.concatenate([np.clip(v, 0.0, None), np.zeros(d - len(v))])
                    assert got == float(sum(f(u) for u in padded))

    def test_d8192_within_budget(self):
        rng = np.random.default_rng(8192)
        d = 8192
        y = rng.dirichlet(np.ones(d))
        x = np.full(d, 1.0 / d)
        start = time.perf_counter()
        chain = t_transform_chain(x, y)
        elapsed = time.perf_counter() - start
        assert len(chain) <= d - 1
        assert np.max(np.abs(apply_t_chain(chain, y) - x)) <= 1e-10
        assert elapsed < 2.0


class TestUnitaryToStochastic:
    def test_identity(self):
        assert np.array_equal(unitary_to_stochastic(np.eye(3)), np.eye(3))

    def test_hadamard_type(self):
        r = np.sqrt(0.5)
        d = unitary_to_stochastic([[r, r], [r, -r]])
        assert np.allclose(d, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_unit_phases(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))
        assert np.allclose(unitary_to_stochastic(u), np.eye(3), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitarity"):
            unitary_to_stochastic([[1, 1], [0, 1]])

    def test_forward_majorization(self, rng):
        # mixing any distribution through squared unitary moduli only
        # disorders it
        for trial in range(50):
            d = int(rng.integers(2, 9))
            u = random_unitary(d, seed=trial)
            y = rng.dirichlet(np.ones(d))
            x = unitary_to_stochastic(u) @ y
            assert is_majorized_by(x, y, tol=1e-10)


class TestSchurValue:
    def test_point_distribution_entropy(self):
        assert schur_value("neg_entropy", [1, 0]) == 0.0

    def test_power_sum(self):
        assert schur_value("power_sum", [0.5, 0.5], k=2) == pytest.approx(0.5)

    def test_neg_max(self):
        assert schur_value("neg_max", [0.7, 0.3]) == pytest.approx(-0.7)

    def test_errors(self):
        with pytest.raises(ValidationError, match="unknown"):
            schur_value("entropy", [0.5, 0.5])
        with pytest.raises(ValidationError, match="k"):
            schur_value("power_sum", [0.5, 0.5])
        with pytest.raises(ValidationError, match="k"):
            schur_value("power_sum", [0.5, 0.5], k=0.5)


class TestSchurInequalities:
    def test_split_is_more_disordered(self):
        report = check_schur_inequalities([0.5, 0.5], [1, 0])
        assert report.passed
        by_name = {e.name: e for e in report.entries}
        assert by_name["neg_entropy"].value_x == pytest.approx(-np.log(2))
        assert by_name["neg_entropy"].value_y == 0.0

    def test_equal_vectors_are_tight(self, rng):
        y = rng.dirichlet(np.ones(4))
        report = check_schur_inequalities(y, y)
        for entry in report.entries:
            assert entry.value_x == pytest.approx(entry.value_y, abs=1e-12)

    def test_power_sum_values(self):
        report = check_schur_inequalities([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2])
        entry = {e.name: e for e in report.entries}["power_sum[k=2]"]
        assert entry.value_x == pytest.approx(1 / 3)
        assert entry.value_y == pytest.approx(0.38)  # 0.25 + 0.09 + 0.04

    def test_precondition(self):
        with pytest.raises(MajorizationError):
            check_schur_inequalities([0.75, 0.25], [0.5, 0.5])

    def test_never_violated_on_random_pairs(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            y = rng.dirichlet(np.ones(d))
            x = mix_down(y, rng)
            assert check_schur_inequalities(x, y).passed


class TestProbVector:
    def test_clips_tiny_negative(self):
        w = as_prob_vector([1.0 + 1e-10, -1e-10])
        assert w[1] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            as_prob_vector([0.6, 0.6])
