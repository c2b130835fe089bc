import ast
from pathlib import Path

import qmajor

# The public API is a contract: code may be deleted behind it, but a name
# leaves or joins this list only on purpose.
PUBLIC_API = [
    "BipartiteState",
    "CommCost",
    "Cor4Decomposition",
    "DensityMatrix",
    "DomainError",
    "Ensemble",
    "EnsembleAudit",
    "EntropyReport",
    "HornWitness",
    "MajorizationError",
    "MeasurementSet",
    "ProtocolTranscript",
    "SchmidtDecomposition",
    "SchurReport",
    "Spectrum",
    "TChain",
    "TTransform",
    "ValidationError",
    "WeylPair",
    "apply_t_chain",
    "build_measurement",
    "check_schur_inequalities",
    "clock_op",
    "comm_cost",
    "corollary4_decompose",
    "density_from_ensemble",
    "entropy_report",
    "enumerate_protocol",
    "frobenius_distance",
    "hermitian_eig",
    "horn_orthogonal",
    "is_compatible",
    "is_majorized_by",
    "outcome_distribution",
    "purify",
    "random_density",
    "random_unitary",
    "reduced_density",
    "relate_purifications",
    "run_protocol",
    "schmidt",
    "schur_value",
    "shift_op",
    "synthesize_ensemble",
    "t_transform_chain",
    "uniform_ensemble",
    "unitary_to_stochastic",
    "validate_density",
    "verify_ensemble",
    "weyl_op",
]


def test_public_api_is_pinned():
    assert sorted(qmajor.__all__) == PUBLIC_API


def test_every_public_function_is_api_or_used_by_the_package():
    # A module-level function without a leading underscore is part of __all__,
    # the CLI's entry point, or called from some module of the package: a name
    # that only the tests call does not stay in the library.
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(Path(qmajor.__file__).parent.glob("*.py"))}
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Call)}
    unused = [f"{stem}.{node.name}" for stem, tree in modules.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in {*qmajor.__all__, *called} and f"{stem}.{node.name}" != "cli.main"]
    assert not unused, unused
