import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmajor.bipartite import corollary4_decompose, schmidt
from qmajor.ensembles import entropy_report, synthesize_ensemble
from qmajor.majorize import (
    MajorizationError,
    TChain,
    TTransform,
    _majorized_pair,
    _nonneg_pair,
    apply_t_chain,
    as_prob_vector,
    check_schur_inequalities,
    horn_orthogonal,
    is_majorized_by,
    schur_value,
    t_transform_chain,
    unitary_to_stochastic,
)
from qmajor.numkernel import TOL_PROB, ValidationError, random_density, random_unitary

from conftest import FUZZ, chain_oracle, mix_down, random_bipartite, witness_oracle


def _violation(x, y, tol=TOL_PROB):
    """The first failing partial sum ``(k, lhs, rhs)`` that t_transform_chain raises, or None."""
    try:
        t_transform_chain(x, y, tol)
    except MajorizationError as exc:
        return exc.k, exc.lhs, exc.rhs
    return None


class TestIsMajorizedBy:
    def test_uniform_below_everything(self):
        assert is_majorized_by([1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25])

    def test_reflexive(self, rng):
        y = rng.dirichlet(np.ones(5))
        assert is_majorized_by(y, y)

    def test_first_partial_sum_fails(self):
        # sorted partial sums: 0.6 > 0.5 at k=1
        assert not is_majorized_by([0.6, 0.4], [0.5, 0.5])
        assert _violation([0.6, 0.4], [0.5, 0.5]) == (1, 0.6, 0.5)

    def test_zero_padding(self):
        assert is_majorized_by([1 / 3, 1 / 3, 1 / 3], [0.5, 0.5])
        assert not is_majorized_by([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])

    def test_total_mismatch(self):
        assert not is_majorized_by([0.4, 0.4], [0.5, 0.5])
        # Zero-padded to d = 4, a total mismatch fails at k == d.
        assert _violation([0.4, 0.4], [0.5, 0.3, 0.1, 0.1]) == (4, 0.8, 1.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            is_majorized_by([-0.2, 1.2], [0.5, 0.5])

    @pytest.mark.parametrize("x, y", [
        ([1e308, 1e308], [1.5e308, 4e307]),
        ([0.5, 0.5], [1.5e308, 1.5e308]),
    ])
    def test_overflowing_total_is_an_input_error(self, x, y):
        # A total past float64's range compares as inf - inf = NaN, which no
        # partial-sum test can judge.
        with pytest.raises(ValidationError, match="total overflows float64"):
            is_majorized_by(x, y)
        with pytest.raises(ValidationError, match="total overflows float64"):
            t_transform_chain(x, y)

    def test_total_just_below_overflow_is_judged(self):
        big = np.finfo(np.float64).max / 2
        assert is_majorized_by([big, big], [2 * big, 0.0])
        assert not is_majorized_by([big, big], [big, 0.5 * big])


@pytest.mark.parametrize(
    "call",
    [is_majorized_by, t_transform_chain, horn_orthogonal, check_schur_inequalities],
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

    @pytest.mark.parametrize("y, match", [
        (0.7, "1-dimensional"),
        ([[0.5, 0.5]], "1-dimensional"),
        ([[np.nan]], "1-dimensional"),
        ([np.nan, 0.5], "non-finite"),
        ([0.5, -0.5], "negative"),
        ([], "non-empty"),
    ])
    def test_non_vector_input_rejected(self, y, match):
        chain = TChain.plain([TTransform(i=0, k=1, t=0.5)], 2)
        with pytest.raises(ValidationError, match=match):
            apply_t_chain(chain, y)

    def test_valid_vectors_unchanged(self, rng):
        # The image of a probability vector is the plain loop over the transforms.
        for _ in range(20):
            d = int(rng.integers(2, 40))
            y = rng.dirichlet(np.ones(d))
            x = mix_down(y, rng)
            chain = t_transform_chain(x, y)
            w = np.asarray(y, dtype=np.float64)[chain.source_permutation].copy()
            for tr in chain.transforms:
                wa, wb = w[tr.i], w[tr.k]
                w[tr.i] = tr.t * wa + (1.0 - tr.t) * wb
                w[tr.k] = (1.0 - tr.t) * wa + tr.t * wb
            assert apply_t_chain(chain, y).tobytes() == w[chain.target_permutation].tobytes()

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

    def test_transforms_coerced_to_a_tuple(self):
        tr = TTransform(i=0, k=1, t=0.5)
        chain = TChain(transforms=[tr], source_permutation=np.arange(2), target_permutation=np.arange(2))
        assert chain.transforms == (tr,)
        assert TChain.plain(iter([tr]), 2).transforms == (tr,)

    @pytest.mark.parametrize("transforms", [5, None, 0.5, TTransform(i=0, k=1, t=0.5)])
    def test_non_iterable_transforms_rejected(self, transforms):
        with pytest.raises(ValidationError, match="not iterable"):
            TChain(transforms=transforms, source_permutation=np.arange(2), target_permutation=np.arange(2))
        with pytest.raises(ValidationError, match="not iterable"):
            TChain.plain(transforms, 2)

    @pytest.mark.parametrize("dim", [0, -1, 2.0, True, "2", None, 10**30])
    def test_plain_dimension_validated(self, dim):
        with pytest.raises(ValidationError, match="chain dimension"):
            TChain.plain([], dim)

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

    def test_library_paths_recheck_no_walk_built_transform(self, monkeypatch, rng):
        calls = []
        checked = TTransform.__post_init__

        def counting(tr):
            calls.append(tr)
            checked(tr)

        monkeypatch.setattr(TTransform, "__post_init__", counting)
        y = rng.dirichlet(np.ones(12))
        x = mix_down(y, rng)
        assert len(t_transform_chain(x, y)) > 0
        horn_orthogonal(x, y)
        rho = random_density(5, 4, seed=3)
        synthesize_ensemble(rho, mix_down(np.concatenate([rho.eigenvalues(), [0.0]]), rng))
        assert calls == []
        TTransform(i=0, k=1, t=0.5)
        assert len(calls) == 1

    def test_library_paths_recheck_no_walk_built_chain(self, monkeypatch, rng):
        calls = []
        checked = TChain.__post_init__

        def counting(chain):
            calls.append(chain)
            checked(chain)

        monkeypatch.setattr(TChain, "__post_init__", counting)
        y = rng.dirichlet(np.ones(12))
        x = mix_down(y, rng)
        chain = t_transform_chain(x, y)
        assert len(chain) > 0 and isinstance(chain.transforms, tuple)
        horn_orthogonal(x, y)
        rho = random_density(5, 4, seed=3)
        synthesize_ensemble(rho, mix_down(np.concatenate([rho.eigenvalues(), [0.0]]), rng))
        state = random_bipartite(4, 5, rng)
        corollary4_decompose(state, mix_down(schmidt(state).coefficients, rng))
        assert calls == []
        TChain(chain.transforms, chain.source_permutation, chain.target_permutation)
        assert len(calls) == 1

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


def _reference_apply(chain, y):
    """``apply_t_chain`` as a loop over numpy float64 scalars, for bit comparison."""
    d = chain.dim
    yv = np.concatenate([np.clip(np.asarray(y, dtype=np.float64), 0.0, None), np.zeros(d - len(y))])
    w = yv[chain.source_permutation].copy()
    for tr in chain.transforms:
        wa, wb = w[tr.i], w[tr.k]
        w[tr.i] = tr.t * wa + (1.0 - tr.t) * wb
        w[tr.k] = (1.0 - tr.t) * wa + tr.t * wb
    return w[chain.target_permutation]


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


@st.composite
def _walk_pairs(draw):
    """A majorized pair (x, y) of dimension d in {1, 2, 3, 8, 64, 256}: x a mix of y, of a y with
    tied levels or of a zero-padded y, the uniform vector, or a mix of y followed by -0.0 entries."""
    d = draw(st.sampled_from([1, 2, 3, 8, 64, 256]))
    case = draw(st.sampled_from(["mixed", "ties", "zero-padded", "uniform", "negative-zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    short = int(rng.integers(1, d + 1)) if case in ("zero-padded", "negative-zero") else d
    y = rng.dirichlet(np.ones(short))
    if case == "ties":
        levels = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        y = rng.permutation(np.repeat(levels, -(-d // levels.size))[:d])
        y = y / y.sum()
    if case == "uniform":
        return np.full(d, 1.0 / d), y
    if case == "negative-zero":
        return np.concatenate([mix_down(y, rng) if short > 1 else y, np.full(d - short, -0.0)]), y
    padded = np.concatenate([y, np.zeros(d - short)])
    return (mix_down(padded, rng) if d > 1 else padded), y


def _steps(chain):
    """A chain's transforms with their types and the exact bits of t, sign of a zero included."""
    return [(type(tr.i), tr.i, type(tr.k), tr.k, type(tr.t), float.hex(tr.t)) for tr in chain.transforms]


class TestChainOracle:
    """The library walk against the linear-scan reference and the plain-form walk and lift of
    ``conftest``, and its time budget."""

    CASES = ("rounded", "degenerate", "zero-padded", "permutation", "rejection", "mixed")

    @staticmethod
    def _assert_matches_oracle(x, y):
        want = chain_oracle(*_majorized_pair(*_nonneg_pair(x, y, TOL_PROB), TOL_PROB))
        got = t_transform_chain(x, y)
        assert _steps(got) == _steps(want)
        for name in ("source_permutation", "target_permutation"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        assert horn_orthogonal(x, y).orthogonal.tobytes() == witness_oracle(want).tobytes()
        return got

    @FUZZ
    @given(pair=_walk_pairs())
    def test_walk_and_witness_match_the_plain_form_bit_for_bit(self, pair):
        self._assert_matches_oracle(*pair)

    def test_a_negative_zero_quotient_gives_t_positive_zero(self):
        # The last step averages a target of -0.0 onto a padded +0.0: its quotient is -0.0.
        chain = self._assert_matches_oracle([0.7, 0.3, -0.0, -0.0], [0.9, 0.1])
        assert _steps(chain)[-1] == (int, 2, int, 3, float, float.hex(0.0))

    def test_matches_linear_scan_reference(self):
        rng = np.random.default_rng(4242)
        rejected = 0
        for trial in range(480):
            x, y = _tie_heavy_pair(rng, self.CASES[trial % len(self.CASES)])
            expected = _reference_violation(x, y)
            assert is_majorized_by(x, y) == (expected is None)
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

    def test_walk_built_transforms_equal_checked_ones(self):
        rng = np.random.default_rng(4242)
        built = 0
        for trial in range(480):
            x, y = _tie_heavy_pair(rng, self.CASES[trial % len(self.CASES)])
            if not is_majorized_by(x, y):
                continue
            for tr in t_transform_chain(x, y).transforms:
                checked = TTransform(tr.i, tr.k, tr.t)
                assert tr == checked and hash(tr) == hash(checked)
                assert type(tr.i) is int and type(tr.k) is int and type(tr.t) is float
                with pytest.raises(dataclasses.FrozenInstanceError):
                    tr.t = 0.5
                built += 1
        assert built > 10000

    def test_apply_matches_numpy_scalar_loop(self):
        rng = np.random.default_rng(4242)
        for trial in range(480):
            x, y = _tie_heavy_pair(rng, self.CASES[trial % len(self.CASES)])
            if not is_majorized_by(x, y):
                continue
            chain = t_transform_chain(x, y)
            for v in (y, x):
                assert apply_t_chain(chain, v).tobytes() == _reference_apply(chain, v).tobytes()

    @pytest.mark.parametrize("index, real", [(np.int64, np.float64), (np.int32, float), (int, float)])
    def test_apply_hand_built_chain_matches_numpy_scalar_loop(self, index, real):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(2, 30))
            y = rng.dirichlet(np.ones(d))
            transforms = [
                TTransform(*(index(i) for i in rng.choice(d, 2, replace=False)), t=real(rng.random()))
                for _ in range(int(rng.integers(0, 3 * d)))
            ]
            chain = TChain(transforms, rng.permutation(d), rng.permutation(d))
            assert apply_t_chain(chain, y).tobytes() == _reference_apply(chain, y).tobytes()

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

    def test_overflowing_product_is_rejected(self):
        # m m^H overflows to inf, and inf - inf = NaN off the diagonal: a NaN
        # unitarity defect must fail its check.
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match="unitarity defect nan"):
            unitary_to_stochastic([[1e200, -1e200], [1e200, 1e200]])

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
        for k in (float("nan"), float("inf"), "2", 1 + 1j, True):
            with pytest.raises(ValidationError, match="exponent k must be finite"):
                schur_value("power_sum", [0.5, 0.5], k=k)


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

    @pytest.mark.parametrize("big, name", [(800.0, r"sum\[exp\]"), (1e200, r"power_sum\[k=2\]")])
    def test_value_past_float64_is_an_input_error(self, big, name):
        # exp(800) and (1e200)**2 overflow; the report never carries inf.
        message = rf"^Schur-convex function {name} is not finite: inf vs inf$"
        with pytest.raises(ValidationError, match=message):
            check_schur_inequalities([big, 0.0], [big, 0.0])

    def test_a_failed_comparison_is_reported_not_raised(self):
        # [1, 0] is majorized by [1 - 1e-16, 1e-16] within TOL_PROB, yet sum(-sqrt(x)), not
        # Lipschitz at 0, moves by 1e-8: the report says so in passed and keeps the values.
        report = check_schur_inequalities([1.0, 0.0], [1 - 1e-16, 1e-16])
        assert report.passed is False
        failed = [e for e in report.entries if e.value_x > e.value_y + report.tol]
        assert [(e.name, e.value_x, e.value_y) for e in failed] == [("sum[neg_sqrt]", -1.0, -1.00000001)]
        assert failed[0].slack < -1e-9

    def test_a_seeded_pair_within_tol_fails_only_neg_sqrt(self):
        # x = (y, 0) against (y (1 - eps), eps): accepted within tol, failed by sum(-sqrt(x)) alone.
        rng = np.random.default_rng(29)
        y, eps = rng.dirichlet(np.ones(6)), 10.0 ** rng.uniform(-16, -13)
        x, y_eps = np.append(y, 0.0), np.append(y * (1 - eps), eps)
        assert is_majorized_by(x, y_eps)
        report = check_schur_inequalities(x, y_eps)
        assert report.passed is False
        failed = [e for e in report.entries if e.value_x > e.value_y + report.tol]
        assert [e.name for e in failed] == ["sum[neg_sqrt]"]
        assert failed[0].slack < -1e-9

    def test_never_violated_on_random_pairs(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            y = rng.dirichlet(np.ones(d))
            x = mix_down(y, rng)
            assert check_schur_inequalities(x, y).passed


def _reference_schur_entries(v):
    """The report's eleven functions, each written out with its own summation, on a padded vector."""
    pos = v[v > 0.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        xlogx = np.where(v > 0.0, v * np.log(v), 0.0)
    return [
        ("neg_entropy", float(np.sum(pos * np.log(pos)))),
        ("power_sum[k=1.5]", float(np.sum(v**1.5))),
        ("power_sum[k=2]", float(np.sum(v**2.0))),
        ("power_sum[k=3]", float(np.sum(v**3.0))),
        ("neg_product", float(-np.prod(v))),
        ("max_component", float(np.max(v))),
        ("sum[square]", float(sum((v * v).tolist()))),
        ("sum[cube]", float(sum((v * v * v).tolist()))),
        ("sum[exp]", float(sum(np.exp(v).tolist()))),
        ("sum[xlogx]", float(sum(xlogx.tolist()))),
        ("sum[neg_sqrt]", float(sum((-np.sqrt(v)).tolist()))),
    ]


def _case_pair(rng, d, case):
    """(x, y) of dimension up to d: x a mix of y, or y with zero entries, ties,
    zero-padding or a 1e-300 entry, x a permutation of y, or an x that may fail."""
    if d == 1:
        return np.ones(1), np.ones(1)
    y = rng.dirichlet(np.ones(d))
    if case == "zeros":
        y[rng.random(d) < 0.3] = 0.0
        y[0] += 1.0 - y.sum()
    elif case == "ties":
        levels = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        y = rng.permutation(np.repeat(levels, -(-d // levels.size))[:d])
        y = y / y.sum()
    elif case == "padded":
        short = y[: d // 2 + 1] / y[: d // 2 + 1].sum()
        return rng.permutation(mix_down(np.concatenate([short, np.zeros(d - short.size)]), rng)), short
    elif case == "tiny":
        y = np.concatenate([y[1:] / y[1:].sum(), [1e-300]])
        head = mix_down(y[:-1], rng) if d > 2 else y[:-1]
        return rng.permutation(np.concatenate([head, y[-1:]])), y
    elif case == "permutation":
        return rng.permutation(y), y
    elif case == "rejection":
        return rng.dirichlet(np.ones(d)), y
    return mix_down(y, rng), y


def _padded(v, d):
    return np.concatenate([np.asarray(v, dtype=np.float64), np.zeros(d - len(v))])


class TestSchurReportOracle:
    """Every entry of the Schur-convex report, its name, order and bits, against the written-out formulas."""

    @staticmethod
    def expected(x, y):
        d = max(len(x), len(y))
        return [(name, fx.hex(), fy.hex()) for (name, fx), (_, fy) in
                zip(_reference_schur_entries(_padded(x, d)), _reference_schur_entries(_padded(y, d)))]

    @staticmethod
    def got(report):
        return [(e.name, e.value_x.hex(), e.value_y.hex()) for e in report.entries]

    def test_check_schur_inequalities(self):
        rng = np.random.default_rng(1960)
        for i in range(256):
            x, y = _case_pair(rng, 1 + i % 64, ("mix", "zeros", "ties", "padded", "tiny")[i % 5])
            assert self.got(check_schur_inequalities(x, y)) == self.expected(x, y), i

    def test_entropy_report(self):
        rng = np.random.default_rng(1961)
        for i in range(48):
            n = int(rng.integers(1, 9))
            rho = random_density(n, int(rng.integers(1, n + 1)), seed=i)
            p = mix_down(_padded(rho.eigenvalues(), n + i % 3), rng) if n + i % 3 > 1 else np.ones(1)
            ens = synthesize_ensemble(rho, p)
            # The spectrum entropy_report documents: squared singular values of the
            # amplitude matrix over their total, the ones at or below 1e-12 as zeros.
            amps = ens.states.T * np.sqrt(ens.weights)
            lam = np.zeros(ens.dim)
            lam[: min(amps.shape)] = np.linalg.svd(amps, compute_uv=False) ** 2
            lam = lam / lam.sum()
            lam = np.where(lam > 1e-12, lam, 0.0)
            assert self.got(entropy_report(ens).schur) == self.expected(ens.weights, lam), i


class TestScaleInvariance:
    """With the data scaled by s and ``tol`` by s, the majorization functions decide as at scale 1.

    ``tol`` is absolute and in the data's units.  A power of two scales every
    partial sum and every chain step exactly, so the chain and the witness are
    bit-equal too; a decimal scale rounds, and the walk may then gain or lose
    a transform whose t rounds to 1, so only the verdict and the chain's
    action are compared.
    """

    PAIRS = 300
    CASES = ("mix", "ties", "padded", "permutation", "rejection")

    def pair(self, rng, i):
        return _case_pair(rng, int(rng.integers(2, 17)), self.CASES[i % 5])

    @staticmethod
    def verdict(x, y, tol):
        violation = _violation(x, y, tol)
        assert is_majorized_by(x, y, tol) == (violation is None)
        return None if violation is None else violation[0]

    def test_power_of_two_scales_are_exact(self):
        rng = np.random.default_rng(4096)
        for i in range(self.PAIRS):
            x, y = self.pair(rng, i)
            k = self.verdict(x, y, 1e-9)
            if k is None:
                chain, w = t_transform_chain(x, y), horn_orthogonal(x, y).orthogonal
            for e in (66, 332, 664, 996, -66, -332, -664, -996):
                s = 2.0**e
                assert self.verdict(x * s, y * s, 1e-9 * s) == k, (i, e)
                if k is None:
                    scaled = t_transform_chain(x * s, y * s, 1e-9 * s)
                    assert scaled.transforms == chain.transforms, (i, e)
                    assert np.array_equal(scaled.source_permutation, chain.source_permutation), (i, e)
                    assert np.array_equal(scaled.target_permutation, chain.target_permutation), (i, e)
                    assert horn_orthogonal(x * s, y * s, 1e-9 * s).orthogonal.tobytes() == w.tobytes(), (i, e)

    def test_decimal_scales_keep_the_verdict(self):
        rng = np.random.default_rng(1000)
        for i in range(self.PAIRS):
            x, y = self.pair(rng, i)
            k = self.verdict(x, y, 1e-9)
            for e in (20, 100, 200, 300, -20, -100, -200, -300):
                s = 10.0**e
                assert self.verdict(x * s, y * s, 1e-9 * s) == k, (i, e)
                if k is None:
                    chain = t_transform_chain(x * s, y * s, 1e-9 * s)
                    assert np.max(np.abs(apply_t_chain(chain, y * s) - x * s)) <= 1e-12 * s, (i, e)


class TestProbVector:
    def test_clips_tiny_negative(self):
        w = as_prob_vector([1.0 + 1e-10, -1e-10])
        assert w[1] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            as_prob_vector([0.6, 0.6])
