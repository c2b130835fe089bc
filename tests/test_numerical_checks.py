"""The one rule of every numerical check: a defect passes only when ``defect <= bound``.

A NaN or inf defect fails, so a non-finite value made inside a construction
raises at the first check that sees it instead of reaching the caller.  The
injection tests plant a NaN in one step of each construction and assert the
check that names it.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import qmajor
from qmajor import bipartite, majorize, numkernel
from qmajor.bipartite import corollary4_decompose, schmidt
from qmajor.ensembles import synthesize_ensemble
from qmajor.majorize import horn_orthogonal
from qmajor.numkernel import (
    ValidationError,
    _check_defect,
    hermitian_eig,
    random_density,
    validate_density,
)
from qmajor.protocol import run_protocol

from conftest import random_bipartite


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


def _raises_validation_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValidationError"


def test_every_defect_check_goes_through_the_one_rule():
    # A raise of ValidationError whose message speaks of a defect belongs in
    # numkernel._check_defect alone, so a defect can be recorded in one place.
    src = Path(qmajor.__file__).parent
    offenders = []
    calls = 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for func in functions:
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_defect":
                    calls += 1
                if not (isinstance(node, ast.Raise) and node.exc is not None and _raises_validation_error(node)):
                    continue
                words = " ".join(
                    c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
                if "defect" in words and not (path.name == "numkernel.py" and func.name == "_check_defect"):
                    offenders.append(f"{path.name}:{node.lineno} in {func.name}")
    assert not offenders, offenders
    # hermitian_eig (2), witness, unitary_to_stochastic, schmidt,
    # relate_purifications (2), _cor4_from_svd, MeasurementSet and _prepare.
    assert calls >= 10


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
