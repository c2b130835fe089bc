"""The one rule of every numerical check: a defect passes only when ``defect <= bound``.

A NaN or inf defect fails, so a non-finite value made inside a construction
raises at the first check that sees it instead of reaching the caller.  The
injection tests plant a NaN in one step of each construction and assert the
check that names it.  A quantity that must be 1 (a weight total, a trace, a
state norm) has its own one rule, ``abs(value - 1) <= tol``, which NaN and
inf fail as well.  Public functions on unnormalised input are right or raise
at any finite scale.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import qmajor
from qmajor import bipartite, majorize, numkernel
from qmajor.bipartite import (
    BipartiteState,
    corollary4_decompose,
    reduced_density,
    relate_purifications,
    schmidt,
)
from qmajor.ensembles import Ensemble, synthesize_ensemble
from qmajor.majorize import horn_orthogonal, unitary_to_stochastic
from qmajor.numkernel import (
    ValidationError,
    _check_defect,
    _check_unit,
    frobenius_distance,
    hermitian_eig,
    random_density,
    random_unitary,
    validate_density,
)
from qmajor.protocol import build_measurement, run_protocol

from conftest import FUZZ, random_bipartite


class TestCheckDefect:
    @pytest.mark.parametrize("defect", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_defect_fails(self, defect):
        with pytest.raises(ValidationError, match="^probe defect"):
            _check_defect(defect, 1e-10, "probe defect")

    def test_defect_at_its_bound_passes(self):
        _check_defect(1e-10, 1e-10, "probe defect")
        _check_defect(0.0, 0.0, "probe defect")

    def test_message_names_defect_and_bound(self):
        with pytest.raises(ValidationError, match=r"^probe defect 2\.000e-10 exceeds 1e-10$"):
            _check_defect(2e-10, 1e-10, "probe defect")


class TestCheckUnit:
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, np.float64("nan"), complex(math.nan, 0.0), complex(1.0, math.inf),
    ])
    def test_non_finite_value_fails(self, value):
        # A complex value is shown by its real part: 1.0 for 1 + inf*1j.
        shown = r"^probe (nan|inf|-inf|1\.0) deviates from 1 by more than 1e-09$"
        with pytest.raises(ValidationError, match=shown):
            _check_unit(value, 1e-9, "probe")

    def test_value_at_its_tolerance_passes(self):
        _check_unit(1.0, 0.0, "probe")
        _check_unit(1.5, 0.5, "probe")
        _check_unit(0.5, 0.5, "probe")

    def test_complex_value_judged_by_its_modulus_and_shown_by_its_real_part(self):
        _check_unit(complex(1.0, 1e-9), 1e-9, "trace")
        with pytest.raises(ValidationError, match=r"^trace 1\.0 deviates from 1 by more than 1e-09$"):
            _check_unit(complex(1.0, 2e-9), 1e-9, "trace")


def _refuse_eigensolve(*args, **kwargs):
    raise AssertionError("an eigensolve ran")


# Sixteen entries of +-1e308 and a 1: numpy's pairwise sum overflows to +inf
# in one partial sum and -inf in another, so the trace is NaN.
NAN_TRACE_DIAGONAL = [1e308 * s for s in (1, 1, 1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1)] + [1.0]


class TestUnitQuantities:
    """NaN, inf and huge values of every quantity that must be 1 raise ValidationError, with no warning."""

    @pytest.mark.parametrize("diagonal, shown", [(NAN_TRACE_DIAGONAL, "nan"), ([1e308, 1e308], "inf")])
    def test_non_finite_trace_raises_before_any_eigensolve(self, monkeypatch, diagonal, shown):
        monkeypatch.setattr(numkernel, "hermitian_eig", _refuse_eigensolve)
        with pytest.raises(ValidationError, match=f"^trace {shown} deviates from 1 by more than 1e-09$"):
            validate_density(np.diag(diagonal))

    @pytest.mark.parametrize("amplitudes, shown", [
        (np.full((2, 2), 1.5e308), "inf"),
        ([[1e200, 0.0], [0.0, 0.0]], "1e+200"),
        ([[1e-200, 0.0], [0.0, 0.0]], "1e-200"),
    ])
    def test_state_norm_computed_without_overflow(self, amplitudes, shown):
        with pytest.raises(ValidationError, match=f"^state norm {re.escape(shown)} deviates from 1"):
            schmidt(BipartiteState(amplitudes=amplitudes))

    def test_target_state_norm_computed_without_overflow(self):
        with pytest.raises(ValidationError, match=r"^target state 0 norm 1e\+200 deviates from 1 by more"):
            build_measurement([[1e200, 0.0], [0.0, 1.0]], 2)

    @pytest.mark.parametrize("state, shown", [
        ([1e200, 1e200], r"1\.41421356237309\d*e\+200"),
        ([1.5e308, 1.5e308], "inf"),
    ])
    def test_member_norm_computed_without_overflow(self, state, shown):
        with pytest.raises(ValidationError, match=f"^ensemble member 0 norm {shown} deviates"):
            Ensemble(weights=[1.0], states=[state], synthetic=[False])


def _nan_first_phase(phases):
    def patched(v):
        p = phases(v).copy()
        p[0] = np.nan
        return p

    return patched


def _nan_sqrt(x):
    return math.nan


# (module, attribute, replacement factory, call, name of the check that sees the NaN)
INJECTIONS = {
    "hermitian_eig": (
        numkernel, "_canonical_phases", _nan_first_phase,
        lambda: hermitian_eig(random_density(3, 3, 1).matrix), "eigenvector orthonormality defect",
    ),
    "validate_density": (
        numkernel, "_canonical_phases", _nan_first_phase,
        lambda: validate_density(random_density(3, 3, 1).matrix), "eigenvector orthonormality defect",
    ),
    "schmidt": (
        bipartite, "_canonical_phases", _nan_first_phase,
        lambda: schmidt(random_bipartite(3, 3, np.random.default_rng(1))),
        "Schmidt reconstruction defect",
    ),
    "corollary4_decompose": (
        bipartite, "_canonical_phases", _nan_first_phase,
        lambda: corollary4_decompose(random_bipartite(3, 3, np.random.default_rng(1)), [0.5, 0.3, 0.2]),
        "decomposition reconstruction defect",
    ),
    "run_protocol": (
        bipartite, "_canonical_phases", _nan_first_phase,
        lambda: run_protocol(random_bipartite(3, 3, np.random.default_rng(1)), 3, 0),
        "decomposition reconstruction defect",
    ),
    "horn_orthogonal": (
        majorize.math, "sqrt", lambda sqrt: _nan_sqrt,
        lambda: horn_orthogonal([0.5, 0.3, 0.2], [0.7, 0.2, 0.1]),
        "orthogonality defect of constructed witness",
    ),
    "synthesize_ensemble": (
        majorize.math, "sqrt", lambda sqrt: _nan_sqrt,
        lambda: synthesize_ensemble(random_density(3, 3, 1), [0.4, 0.3, 0.3]),
        "orthogonality defect of constructed witness",
    ),
}


@pytest.mark.parametrize("case", sorted(INJECTIONS))
def test_injected_nan_raises_at_the_check_that_sees_it(case, monkeypatch):
    module, attr, factory, call, check = INJECTIONS[case]
    monkeypatch.setattr(module, attr, factory(getattr(module, attr)))
    # The NaN's own arithmetic warnings are not what is tested here.
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match=f"^{check} nan exceeds"):
        call()


def _first_rotated_row_stretched(rotate):
    """The lift's first Givens rotation leaves its first row 1 + 2.5e-10 long: Gram defect 5e-10."""
    done = []

    def patched(ri, rk, c, s):
        rotate(ri, rk, c, s)
        if not done:
            done.append(True)
            ri *= 1.0 + 2.5e-10

    return patched


def _left_column_stretched(svd):
    """Column 0 of the left factor 1 + 2.5e-9 long, so W Z^H is 5e-9 off unitary."""
    def patched(a, *args, **kwargs):
        w, sigma, zh = svd(a, *args, **kwargs)
        w[:, 0] *= 1.0 + 2.5e-9
        return w, sigma, zh

    return patched


def _singular_values_stretched(svd):
    """Singular values 1 + 2.5e-8 too large, so F F^H is rebuilt 5e-8 off, relative to its norm."""
    def patched(a, *args, **kwargs):
        u, sigma, vh = svd(a, *args, **kwargs)
        return u, sigma * (1.0 + 2.5e-8), vh

    return patched


def _copurifications():
    phi = random_bipartite(3, 3, np.random.default_rng(1))
    return phi, BipartiteState(amplitudes=random_unitary(3, 2) @ phi.amplitudes)


# (module, attribute, replacement factory, call, name of the check): each injected defect is
# finite and lies between the check's bound and ten times it, so a bound loosened past 10x passes it.
JUST_PAST_THE_BOUND = {
    "horn_orthogonal": (
        majorize, "_rotate_rows", _first_rotated_row_stretched,
        lambda: horn_orthogonal([0.5, 0.3, 0.2], [0.7, 0.2, 0.1]),
        "orthogonality defect of constructed witness",
    ),
    "relate_purifications": (
        np.linalg, "svd", _left_column_stretched,
        lambda: relate_purifications(*_copurifications()), "constructed map unitarity defect",
    ),
    "reduced_density": (
        np.linalg, "svd", _singular_values_stretched,
        lambda: reduced_density(random_bipartite(3, 3, np.random.default_rng(1)), "A"),
        "eigendecomposition reconstruction defect",
    ),
    "reduced_density-tall": (
        np.linalg, "svd", _singular_values_stretched,
        lambda: reduced_density(random_bipartite(6, 2, np.random.default_rng(1)), "A"),
        "eigendecomposition reconstruction defect",
    ),
}


@pytest.mark.parametrize("case", sorted(JUST_PAST_THE_BOUND))
def test_injected_defect_just_past_its_bound_raises(case, monkeypatch):
    module, attr, factory, call, check = JUST_PAST_THE_BOUND[case]
    monkeypatch.setattr(module, attr, factory(getattr(module, attr)))
    with pytest.raises(ValidationError, match=f"^{check} ") as raised:
        call()
    defect, bound = map(float, re.fullmatch(rf"{check} (\S+) exceeds (\S+)", str(raised.value)).groups())
    assert bound < defect < 10 * bound, (defect, bound)


def _raises_validation_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValidationError"


def _function_nodes():
    """(module file name, function name, node) for every node inside a function of src/qmajor."""
    for path in sorted(Path(qmajor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    yield path.name, func.name, node


def _raises_outside(rule: str, phrase: str) -> list:
    """Raises of ValidationError whose message holds ``phrase``, outside ``numkernel.<rule>``."""
    offenders = []
    for module, func, node in _function_nodes():
        if not (isinstance(node, ast.Raise) and node.exc is not None and _raises_validation_error(node)):
            continue
        words = " ".join(
            c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)
        )
        if phrase in words and (module, func) != ("numkernel.py", rule):
            offenders.append(f"{module}:{node.lineno} in {func}")
    return offenders


def _callers(*names: str) -> list:
    """The function name of every call of one of ``names``, once per call."""
    return [func for _, func, node in _function_nodes()
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names]


def test_every_defect_check_goes_through_the_one_rule():
    # A raise of ValidationError whose message speaks of a defect belongs in
    # numkernel._check_defect alone, so a defect can be recorded in one place.
    offenders = _raises_outside("_check_defect", "defect")
    assert not offenders, offenders
    # hermitian_eig (2), witness, unitary_to_stochastic, schmidt,
    # relate_purifications (2), _cor4_from_svd, MeasurementSet and
    # _measurement_operator, the completeness check of both protocol paths.
    assert len(_callers("_check_defect")) >= 10


def test_every_unit_quantity_goes_through_the_one_rule():
    # A raise of ValidationError whose message says "deviates from 1" belongs in
    # numkernel._check_unit alone: a weight total, a trace and a norm are judged alike.
    offenders = _raises_outside("_check_unit", "deviates from 1")
    assert not offenders, offenders
    # The six sites; BipartiteState's and Ensemble's are their __post_init__.
    callers = _callers("_check_unit", "_check_unit_rows")
    assert {"as_prob_vector", "validate_density", "entropy_report",
            "build_measurement"} <= set(callers)
    assert callers.count("__post_init__") == 2


def test_protocol_transcripts_are_built_on_one_path():
    # One function builds every transcript, through its constructor or numkernel._trusted, and
    # both entry points call it, so a separate path for one branch would show here as a second builder.
    builders = set(_callers("ProtocolTranscript")) | {
        func for _, func, node in _function_nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_trusted"
        and getattr(node.args[0], "id", None) == "ProtocolTranscript"
    }
    assert len(builders) == 1, builders
    assert {"run_protocol", "enumerate_protocol"} <= set(_callers(*builders))


# A 4x4 Hermitian matrix with entries of modulus at most sqrt(2) and
# eigenvalue gaps above 0.2, so its eigenvectors are well conditioned.
_H = (lambda g: (g + g.conj().T) / 2)(
    (lambda rng: rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4)))(np.random.default_rng(5))
)
_A, _B = (lambda rng: (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                       rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))(np.random.default_rng(6))
_U = random_unitary(3, 1)


def _close(got, want, scale):
    return np.max(np.abs(got - want)) <= 1e-12 * scale


class TestScaleInvariance:
    """At scale 10**k a public function returns its scale-1 result times 10**k, or raises ValidationError."""

    @FUZZ
    @given(st.integers(-300, 307))
    @example(-12)
    @example(154)
    def test_hermitian_eig(self, k):
        base = hermitian_eig(_H)
        s = 10.0**k
        try:
            spect = hermitian_eig(_H * s)
        except ValidationError:
            return
        assert _close(spect.eigenvalues, base.eigenvalues * s, s * np.abs(base.eigenvalues).max()), k
        assert _close(spect.eigenvectors, base.eigenvectors, 1.0), k

    def test_hermitian_eig_at_the_top_of_the_range(self):
        spect = hermitian_eig([[1e308, 0], [0, 1e308]])
        assert spect.eigenvalues.tolist() == [1e308, 1e308]
        assert np.array_equal(spect.eigenvectors, np.eye(2))

    def test_hermitian_eig_near_the_top_of_the_range(self):
        # Every entry and both eigenvalues are finite, but the unscaled sweep overflowed in
        # the gap of the diagonal; the sweep runs on the matrix scaled by a power of two.
        spect = hermitian_eig([[1e308, 1e308], [1e308, -1e308]])
        assert spect.eigenvalues.tolist() == [1.4142135623730951e308, -1.4142135623730951e308]
        assert _close(spect.eigenvectors, hermitian_eig([[1.0, 1.0], [1.0, -1.0]]).eigenvectors, 1.0)

    def test_hermitian_eig_with_an_eigenvalue_past_float64_raises(self):
        # Every entry is finite; the eigenvalue 2e308 is not.
        with pytest.raises(ValidationError, match="^eigenvalue overflows float64$"):
            hermitian_eig([[1e308, 1e308], [1e308, 1e308]])

    def test_hermiticity_defect_past_float64_raises(self):
        # m - m^H would overflow here; its halves do not.
        with pytest.raises(ValidationError, match=r"^Hermiticity violated: .* = inf exceeds 1e-09$"):
            hermitian_eig([[0.0, 1e308], [-1e308, 0.0]])

    @FUZZ
    @given(st.integers(-300, 307))
    @example(-200)
    def test_frobenius_distance(self, k):
        base = frobenius_distance(_A, _B)
        s = 10.0**k
        try:
            got = frobenius_distance(_A * s, _B * s)
        except ValidationError:
            return
        assert _close(got, base * s, base * s), k

    @FUZZ
    @given(st.integers(-323, -290))
    @example(-309)
    @example(-323)
    def test_frobenius_distance_at_subnormal_scales(self, k):
        # Below 2**-1022 the complex entries are prescaled by a subnormal power
        # of two, and each entry of _A * s keeps fewer bits: allow a few of the
        # subnormal spacing 2**-1074 besides the relative 1e-12.
        base = frobenius_distance(_A, _B)
        s = 10.0**k
        assert abs(frobenius_distance(_A * s, _B * s) - base * s) <= 1e-12 * base * s + 16 * 2.0**-1074, k

    @FUZZ
    @given(st.integers(-323, -290))
    @example(-309)
    def test_hermitian_eig_at_subnormal_scales(self, k):
        m = _H * 10.0**k
        try:
            spect = hermitian_eig(m)
        except ValidationError as exc:
            assert "nan" not in str(exc), k
            return
        # Weyl's bound for entries rounded to the subnormal spacing.
        assert np.abs(spect.eigenvalues - np.linalg.eigvalsh(m)[::-1]).max() <= 32 * 2.0**-1074, k

    def test_subnormal_complex_entries(self):
        assert abs(frobenius_distance([[3e-309 + 3e-309j]], [[0j]]) - math.hypot(3e-309, 3e-309)) <= 2.0**-1074
        with pytest.raises(ValidationError, match=r"^state norm 4\.24\d*e-309 deviates from 1"):
            schmidt(BipartiteState(amplitudes=[[3e-309 + 3e-309j]]))
        try:
            spect = hermitian_eig([[3e-309, 1e-309j], [-1e-309j, 2e-309]])
        except ValidationError as exc:
            assert "nan" not in str(exc)
        else:
            expected = np.linalg.eigvalsh(np.array([[3e-309, 1e-309j], [-1e-309j, 2e-309]]))[::-1]
            assert np.abs(spect.eigenvalues - expected).max() <= 8 * 2.0**-1074

    def test_frobenius_distance_past_float64_raises(self):
        with pytest.raises(ValidationError, match="overflows float64"):
            frobenius_distance([[1e308]], [[-1e308]])

    def test_frobenius_distance_does_not_underflow(self):
        # The squares of entries near 1e-200 underflow to 0, so an unscaled norm reads 0.
        want = 2e-200 * np.linalg.norm(_H)
        assert abs(frobenius_distance(_H * 1e-200, -_H * 1e-200) - want) <= 1e-15 * want

    @FUZZ
    @given(st.integers(-300, 307))
    @example(100)
    def test_unitary_to_stochastic(self, k):
        base = unitary_to_stochastic(_U)
        s = 10.0**k
        try:
            got = unitary_to_stochastic(_U * s)
        except ValidationError:
            return
        assert _close(got, base * s * s, s * s), k


class TestSubnormalJacobi:
    # The reciprocal of a subnormal off-diagonal entry is inf, so the rotation
    # must not form one.
    FOUND = [[0.5, -0.5j, -1.1e-313j], [0.5j, 0.5, 1.1e-313], [1.1e-313j, 1.1e-313, 0.0]]

    def test_density_with_subnormal_entries_validates(self):
        rho = validate_density(self.FOUND)
        assert np.all(np.isfinite(rho.matrix))
        expected = np.linalg.eigvalsh(np.array(self.FOUND))[::-1]
        assert np.abs(rho.eigenvalues() - expected).max() <= 1e-12

    def test_rotation_of_a_subnormal_entry_is_finite(self):
        a = np.array([[1.0, 5e-324], [5e-324, 0.0]], dtype=np.complex128)
        v = np.eye(2, dtype=np.complex128)
        numkernel._jacobi_rotate(a, v, 0, 1)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(v))
        assert a[0, 1] == 0.0 and a[1, 0] == 0.0
        assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-15

    def test_zero_diagonal_gap_of_either_sign_takes_t_one(self):
        # a_qq - a_pp is -0.0 here; it takes the root t = 1, as +0.0 does, not t = -1.
        rotated = []
        for zero in (0.0, -0.0):
            a = np.array([[0.0, 0.25j], [-0.25j, zero]], dtype=np.complex128)
            v = np.eye(2, dtype=np.complex128)
            numkernel._jacobi_rotate(a, v, 0, 1)
            rotated.append((a, v))
        (a0, v0), (a1, v1) = rotated
        assert np.array_equal(a0, a1) and np.array_equal(v0, v1)
        assert np.diag(a0).real.tolist() == pytest.approx([-0.25, 0.25], abs=1e-15)
