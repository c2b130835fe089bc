"""Property-based fuzzing of the library's input contract.

Every callable and class in ``qmajor.__all__`` either returns or raises one
of the library's three error classes, ``ValidationError``, ``DomainError`` or
``MajorizationError``, whatever values it is given.  Each parameter draws
from its own valid values and from a shared pool of malformed ones: numpy
scalars, 0-D, 2-D and 3-D arrays, NaN, +-inf, 1e400, negatives, bools,
complex values, strings and huge integers.  Parameters whose type is a
library value (a ``DensityMatrix``, a ``BipartiteState``, ...) take instances
of it, since those are validated when they are built, and the classes are
fuzzed here themselves, with their public classmethods; a ``TChain``'s
transforms are a list or tuple of fuzzed entries, or a malformed value.  The
error classes are the contract's vocabulary and are not fuzzed.  Sizes stay
at most 4, so every call is small, and examples are derandomized, so the
suite runs the same inputs every time.
"""

import copy
import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qmajor
from qmajor import (
    BipartiteState,
    DomainError,
    MajorizationError,
    TChain,
    TTransform,
    ValidationError,
    WeylPair,
    build_measurement,
    is_majorized_by,
    random_density,
    relate_purifications,
    synthesize_ensemble,
    t_transform_chain,
    unitary_to_stochastic,
    validate_density,
)

from conftest import FUZZ

JUNK = [
    np.int64(2), np.float64(0.5), np.bool_(True), np.complex128(1j),
    np.array(0.5), np.array(2), np.full((2, 2), 0.25), np.zeros((2, 2, 2)),
    float("nan"), float("inf"), float("-inf"), 1e400, 10**400,
    -1, -0.5, np.int64(-3), True, False, 1 + 1j, [1 + 1j, 0],
    "x", "2", "0.5", ["0.5", "0.5"], [float("nan"), 1.0], [1e400, 0.0], 10**30, None,
    [], np.zeros(0), np.zeros((0, 0)), np.zeros((0, 2)),
]

BELL = np.array([[1, 0], [0, 1]]) / np.sqrt(2)
SKEW = np.array([[0.8, 0.0], [0.0, 0.6]])
STATES = np.array([[1, 0], [0.6, 0.8]], dtype=complex)
RHO = [random_density(2, 2, seed=1), random_density(3, 1, seed=2)]
PSI = [BipartiteState(BELL), BipartiteState(SKEW), BipartiteState(np.eye(2, 3) / np.sqrt(2))]
MEAS = build_measurement(STATES, 2)
CHAIN = [t_transform_chain([0.5, 0.3, 0.2], [0.7, 0.2, 0.1]), TChain.plain([], 2)]


def pool(*valid):
    """The valid values plus the malformed ones, each drawn as a fresh copy."""
    return st.sampled_from([*valid, *JUNK]).map(copy.deepcopy)


DIM = pool(1, 2, 3, np.int64(2))
INDEX = pool(0, 1, 2, np.int64(1))
SEED = pool(0, 7, 2**64)
TOL = pool(1e-9, 0.0, 1e-6, np.float64(1e-9))
UNIT = pool(0.0, 0.25, 1.0)
VEC = pool([0.5, 0.5], [1.0, 0.0], [0.7, 0.2, 0.1], np.full(4, 0.25), [True, False])
MATRIX = pool(
    np.eye(2) / 2, BELL, SKEW, STATES, np.eye(2), -np.eye(2) / 2, np.zeros((2, 2)), np.eye(2, 3)
)
ANY = pool(1.0, np.eye(2))
TRANSFORMS = st.one_of(
    st.lists(pool(TTransform(0, 1, 0.5)), max_size=2).map(tuple),
    st.lists(pool(TTransform(0, 1, 0.5)), max_size=2),
    pool(),
)
DENSITY = st.sampled_from(RHO)
STATE = st.sampled_from(PSI)
ENSEMBLE = st.sampled_from(
    [synthesize_ensemble(RHO[0], [0.5, 0.5]), synthesize_ensemble(RHO[1], [0.25] * 4)]
)

ARGS = {
    "BipartiteState": {"amplitudes": MATRIX},
    "DensityMatrix": {"matrix": MATRIX},
    "Ensemble": {"weights": VEC, "states": MATRIX, "synthetic": pool([False, False], np.zeros(3, bool))},
    "MeasurementSet": {"d": DIM, "dim_b": DIM, "operators": pool(MEAS.operators, np.zeros((1, 1, 1, 1)))},
    "TChain": {
        "transforms": TRANSFORMS,
        "source_permutation": pool(np.arange(2), np.array([1, 0]), np.arange(3)),
        "target_permutation": pool(np.arange(2), np.array([1, 0]), np.arange(3)),
    },
    "TTransform": {"i": INDEX, "k": INDEX, "t": UNIT},
    "WeylPair": {"d": DIM, "s": INDEX, "t": INDEX},
    "apply_t_chain": {"chain": st.sampled_from(CHAIN), "y": VEC},
    "build_measurement": {"target_states_b": MATRIX, "d": DIM},
    "check_schur_inequalities": {"x": VEC, "y": VEC, "tol": TOL},
    "clock_op": {"d": DIM},
    "comm_cost": {"d": DIM},
    "corollary4_decompose": {"psi": STATE, "q": VEC},
    "density_from_ensemble": {"ensemble": ENSEMBLE, "tol": TOL},
    "entropy_report": {"ensemble": ENSEMBLE, "tol": TOL},
    "enumerate_protocol": {"phi_target": STATE, "d": DIM},
    "frobenius_distance": {"a": MATRIX, "b": MATRIX},
    "hermitian_eig": {"h": MATRIX, "tol": TOL},
    "horn_orthogonal": {"x": VEC, "y": VEC, "tol": TOL},
    "is_compatible": {"p": VEC, "rho": DENSITY, "tol": TOL},
    "is_majorized_by": {"x": VEC, "y": VEC, "tol": TOL},
    "outcome_distribution": {"meas": st.just(MEAS), "psi": STATE},
    "purify": {"rho": DENSITY, "weights": VEC, "states": MATRIX, "tol": TOL},
    "random_density": {"dim": DIM, "rank": DIM, "seed": SEED},
    "random_unitary": {"dim": DIM, "seed": SEED},
    "reduced_density": {"psi": STATE, "side": pool("A", "B", "a")},
    "relate_purifications": {"phi": STATE, "psi": STATE, "tol": TOL},
    "run_protocol": {"phi_target": STATE, "d": DIM, "seed": SEED},
    "schmidt": {"psi": STATE},
    "schur_value": {
        "name": pool("neg_entropy", "power_sum", "neg_product", "neg_max"),
        "x": VEC,
        "k": pool(1.5, 2, 3.0),
    },
    "shift_op": {"d": DIM},
    "synthesize_ensemble": {"rho": DENSITY, "p": VEC},
    "t_transform_chain": {"x": VEC, "y": VEC, "tol": TOL},
    "uniform_ensemble": {"rho": DENSITY, "m": DIM},
    "unitary_to_stochastic": {"u": MATRIX, "tol": TOL},
    "validate_density": {"m": MATRIX, "tol": TOL},
    "verify_ensemble": {"ensemble": ENSEMBLE, "rho": DENSITY, "tol": TOL},
    "weyl_op": {"pair": st.sampled_from([WeylPair(1, 0, 0), WeylPair(3, 2, 1)])},
}
# Public classmethods, fuzzed like the names in ``__all__``.
CLASSMETHODS = {
    "Ensemble.from_members": {
        "members": st.one_of(
            st.lists(st.tuples(UNIT, pool([1, 0], [0, 1, 0], STATES[1])), max_size=3), pool()
        ),
    },
    "TChain.plain": {"transforms": TRANSFORMS, "dim": DIM},
}
ERRORS = {"DomainError", "MajorizationError", "ValidationError"}
# Result records validate nothing: any fields construct one.
RECORDS = sorted(
    name for name in set(qmajor.__all__) - set(ARGS) - ERRORS if inspect.isclass(getattr(qmajor, name))
)


def test_every_public_name_is_fuzzed():
    for name in RECORDS:
        assert not hasattr(getattr(qmajor, name), "__post_init__"), f"{name} validates its fields"
    assert set(ARGS) | set(RECORDS) | ERRORS == set(qmajor.__all__)
    for name, params in {**ARGS, **CLASSMETHODS}.items():
        assert set(params) == set(inspect.signature(_public(name)).parameters), name


def _public(name):
    """``qmajor.<name>``, or the classmethod ``qmajor.<class>.<method>``."""
    target = qmajor
    for part in name.split("."):
        target = getattr(target, part)
    return target


@pytest.mark.parametrize("name", sorted(ARGS) + RECORDS + sorted(CLASSMETHODS))
@FUZZ
@given(data=st.data())
def test_raises_only_library_errors(name, data):
    target = _public(name)
    strategies = {**ARGS, **CLASSMETHODS}.get(name) or {
        p: ANY for p in inspect.signature(target).parameters
    }
    kwargs = {p: data.draw(s, label=p) for p, s in strategies.items()}
    # A tolerance of 1 or more lets validate_density clip a whole spectrum to
    # zero; its 0/0 renormalization is then caught as non-finite, as
    # test_numkernel's test_non_finite_result_rejected pins.
    with np.errstate(invalid="ignore"):
        try:
            target(**kwargs)
        except (ValidationError, DomainError, MajorizationError):
            pass


# Each returned a result for invalid input: a NaN tolerance compares false,
# and so did the completeness defect of NaN measurement operators.
@pytest.mark.parametrize("call", [
    lambda: is_majorized_by([1, 0], [0.5, 0.5], tol=float("nan")),
    lambda: validate_density(np.eye(2), tol=float("nan")),
    lambda: unitary_to_stochastic(np.ones((2, 2)), tol=float("nan")),
    lambda: relate_purifications(PSI[0], PSI[1], tol=float("nan")),
    lambda: build_measurement([[float("nan"), 0], [0, 1]], 2),
])
def test_nan_no_longer_yields_a_result(call):
    with pytest.raises(ValidationError, match="non-finite|finite and non-negative"):
        call()
