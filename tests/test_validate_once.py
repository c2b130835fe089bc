"""One validation per value per public call.

A public entry point coerces and checks each argument once.  Values the
library built itself (embedded and normalized states, Corollary-4 rewrites,
synthesized ensembles, protocol transcripts) reach the private cores as they
are, so a public call coerces nothing its own argument checks did not; the
numerical checks on those values all still run.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import qmajor
from qmajor import bipartite, ensembles, majorize, numkernel, protocol
from qmajor.bipartite import corollary4_decompose, schmidt
from qmajor.ensembles import (
    entropy_report,
    is_compatible,
    synthesize_ensemble,
    verify_ensemble,
)
from qmajor.numkernel import ValidationError, random_density
from qmajor.protocol import enumerate_protocol, run_protocol

from conftest import mix_down, random_bipartite, rank_deficient_bipartite, von_neumann_entropy


@pytest.fixture
def coerced(monkeypatch):
    """The names of the values ``numkernel._as_array`` coerces, in call order."""
    names = []
    original = numkernel._as_array

    def counting(values, name, *args):
        names.append(name)
        return original(values, name, *args)

    for module in (numkernel, majorize, ensembles, bipartite, protocol):
        if hasattr(module, "_as_array"):
            monkeypatch.setattr(module, "_as_array", counting)
    return names


def _coerced_by(names, call):
    names.clear()
    call()
    return list(names)


def test_each_public_call_coerces_only_its_own_arguments(coerced, rng):
    small, large = random_bipartite(3, 3, rng), rank_deficient_bipartite(6, 7, 4, rng)
    state = random_bipartite(4, 5, rng)
    q = mix_down(np.concatenate([schmidt(state).coefficients, [0.0]]), rng)
    rho = random_density(5, 4, seed=3)
    p = mix_down(np.concatenate([rho.eigenvalues(), [0.0]]), rng)

    # The target is a validated BipartiteState, so no branch coerces anything,
    # at any d.
    assert _coerced_by(coerced, lambda: enumerate_protocol(small, 3)) == []
    assert _coerced_by(coerced, lambda: enumerate_protocol(large, 6)) == []
    assert _coerced_by(coerced, lambda: run_protocol(large, 6, seed=1)) == []
    assert _coerced_by(coerced, lambda: corollary4_decompose(state, q)) == ["weights"]
    assert _coerced_by(coerced, lambda: synthesize_ensemble(rho, p)) == ["weights"]


def test_ensemble_consumers_take_densities_and_ensembles_as_they_are(coerced):
    # A DensityMatrix holds a validated spectrum and an Ensemble validated
    # weights, so only a caller's own weight vector is coerced.
    rho = random_density(5, 4, seed=3)
    p = np.full(5, 0.2)
    ens = synthesize_ensemble(rho, p)
    assert _coerced_by(coerced, lambda: is_compatible(p, rho)) == ["weights"]
    assert _coerced_by(coerced, lambda: verify_ensemble(ens, rho)) == []
    assert _coerced_by(coerced, lambda: entropy_report(ens)) == []
    assert _coerced_by(coerced, lambda: von_neumann_entropy(rho)) == []


# Public entry points that validate their arguments; library code judges
# values it holds through the private cores instead (_sorted_pair, _schur,
# _neg_entropy).
VALIDATING_ENTRY_POINTS = {"is_majorized_by", "check_schur_inequalities"}


def test_library_code_calls_no_validating_entry_point():
    offenders = []
    for path in sorted(Path(qmajor.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in VALIDATING_ENTRY_POINTS:
                    offenders.append(f"{path.name}:{node.lineno} calls {name}")
    assert not offenders, offenders


def test_density_matrix_coerces_its_input_once_before_the_eigensolve(coerced):
    # validate_density checks squareness right after its own coercion, so the
    # constructor hands it the input as given.
    assert _coerced_by(coerced, lambda: numkernel.DensityMatrix(np.eye(2) / 2)) == [
        "density matrix", "Hermitian input"]


def test_only_horn_orthogonal_and_the_cli_build_the_dense_witness():
    # Synthesis and Corollary 4 rotate only the columns they use
    # (majorize._lift); the d x d witness is built for horn_orthogonal and the
    # CLI's majorize-decompose report alone.
    callers = set()
    for path in sorted(Path(qmajor.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and getattr(node.func, "id", getattr(node.func, "attr", None))
                            == "_witness_from_chain"):
                        callers.add(f"{path.name}:{func.name}")
    assert callers == {"majorize.py:horn_orthogonal", "cli.py:_majorize_decompose"}


def test_a_non_finite_branch_raises(monkeypatch, rng):
    # min(1.0, nan) is 1.0: without its finiteness check a NaN branch would
    # report fidelity 1.
    original = protocol._phases

    def nan_row(d, t):
        rows = original(d, t)
        if rows.ndim == 2:
            rows[-1, 0] = np.nan
        return rows

    monkeypatch.setattr(protocol, "_phases", nan_row)
    with np.errstate(all="ignore"), pytest.raises(
        ValidationError, match=r"^final state of branch \(0, 2\) contains non-finite entries$"
    ):
        enumerate_protocol(random_bipartite(3, 3, rng), 3)
