"""Batch command-line front end.

Each invocation runs one job: parse JSON inputs, dispatch to the library,
write one machine-readable JSON report.  Exit codes separate the three
failure classes: 0 success, 1 domain rejection (a precondition such as
majorization fails), 2 malformed or invalid input.  Each command is
declared once, with its input kinds and the tolerance flags its job applies.

Reports are deterministic: identical inputs, options and seed produce
byte-identical bytes.  Complex numbers are two-element [re, im] arrays and
every embedded domain value is a "kind"-tagged fragment that parses back to
the identical value.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .numkernel import DomainError, ValidationError, validate_density
from .majorize import (
    as_prob_vector,
    _majorized_pair,
    _witness_from_chain,
    check_schur_inequalities,
    t_transform_chain,
)
from .ensembles import (
    Ensemble,
    entropy_report,
    synthesize_ensemble,
    verify_ensemble,
)
from .bipartite import BipartiteState, corollary4_decompose, schmidt
from .protocol import enumerate_protocol, run_protocol

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Malformed or invalid input file; maps to exit code 2."""


# ---------------------------------------------------------------- encoding

def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def encode_vector(v) -> list[list[float]]:
    return [_c(z) for z in np.asarray(v, dtype=np.complex128)]


def encode_entries(m) -> list[list[list[float]]]:
    return [encode_vector(row) for row in np.asarray(m, dtype=np.complex128)]


def encode_probvec(w) -> dict:
    return {"kind": "probvec", "weights": [float(x) for x in np.asarray(w, dtype=np.float64)]}


def encode_matrix(m) -> dict:
    return {"kind": "matrix", "entries": encode_entries(m)}


def encode_statevec(v) -> dict:
    return {"kind": "statevec", "amplitudes": encode_vector(v)}


def encode_bipartite(psi: BipartiteState) -> dict:
    return {
        "kind": "bipartite",
        "dimA": psi.dim_a,
        "dimB": psi.dim_b,
        "amplitudes": encode_entries(psi.amplitudes),
    }


def encode_ensemble(e: Ensemble) -> dict:
    return {
        "kind": "ensemble",
        "weights": [float(x) for x in e.weights],
        "states": encode_entries(e.states),
        "synthetic": [bool(b) for b in e.synthetic],
    }


def _decode_complex(item, where: str) -> complex:
    if not (isinstance(item, list) and len(item) == 2):
        raise InputError(f"{where}: complex entries must be [re, im] pairs")
    try:
        return complex(float(item[0]), float(item[1]))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def _decode_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{where}: expected a non-empty list of rows")
    data = [[_decode_complex(z, where) for z in row] for row in rows]
    widths = {len(row) for row in data}
    if len(widths) != 1:
        raise InputError(f"{where}: ragged rows {sorted(widths)}")
    return np.array(data, dtype=np.complex128)


# ---------------------------------------------------------------- parsing

def parse_document(doc, path: str, tols: dict, expect: str | None = None):
    """Decode one kind-tagged JSON document into a validated domain value.

    With ``expect`` set, a document of any other kind is rejected.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"{path}: missing top-level 'kind' tag")
    kind = doc["kind"]
    if expect is not None and kind != expect:
        raise InputError(f"{path}: expected kind {expect!r}, got {kind!r}")
    try:
        if kind == "probvec":
            return as_prob_vector(doc["weights"], tol=tols["prob"], name=f"{path} weights")
        if kind == "density":
            entries = _decode_matrix(doc["entries"], f"{path} entries")
            if "dim" in doc and int(doc["dim"]) != entries.shape[0]:
                raise InputError(
                    f"{path}: declared dim {doc['dim']} but {entries.shape[0]} rows"
                )
            return validate_density(entries, tol=tols["herm"])
        if kind == "matrix":
            return _decode_matrix(doc["entries"], f"{path} entries")
        if kind == "statevec":
            v = np.array([_decode_complex(z, f"{path} amplitudes") for z in doc["amplitudes"]])
            return v
        if kind == "bipartite":
            amps = _decode_matrix(doc["amplitudes"], f"{path} amplitudes")
            if "dimA" in doc and int(doc["dimA"]) != amps.shape[0]:
                raise InputError(f"{path}: declared dimA {doc['dimA']} but {amps.shape[0]} rows")
            if "dimB" in doc and int(doc["dimB"]) != amps.shape[1]:
                raise InputError(f"{path}: declared dimB {doc['dimB']} but {amps.shape[1]} columns")
            # Every bipartite command checks the unit norm in its library call.
            return BipartiteState(amplitudes=amps)
        if kind == "ensemble":
            weights = np.asarray(doc["weights"], dtype=np.float64)
            states = _decode_matrix(doc["states"], f"{path} states")
            synthetic = np.asarray(doc.get("synthetic", [False] * weights.size), dtype=bool)
            return Ensemble(weights=weights, states=states, synthetic=synthetic)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from exc
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: JSON numbers such as 1e400 decode to inf, which int()
        # refuses, and integers beyond the float range do not convert.
        raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: unknown kind {kind!r}")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _decode(raw: bytes, path: str, tols: dict, expect: str | None):
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: parse error: {exc}") from exc
    return parse_document(doc, path, tols, expect)


def parse_input(path: str, tols: dict | None = None, expect: str | None = None):
    """Read and decode one input file; raises InputError/ValidationError on bad input."""
    return _decode(_read(path), path, tols or dict(_DEFAULT_TOLS), expect)


_DEFAULT_TOLS = {"herm": 1e-9, "major": 1e-9, "recon": 1e-8, "prob": 1e-9}


# ---------------------------------------------------------------- reporting

def _emit(report: dict, output: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    data = payload.encode("utf-8")
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _schur_fragment(report) -> dict:
    return {
        "passed": report.passed,
        "entries": [
            {"name": e.name, "value_x": e.value_x, "value_y": e.value_y} for e in report.entries
        ],
    }


def _transcript_fragment(tr) -> dict:
    return {
        "outcome": {"d": tr.outcome.d, "s": tr.outcome.s, "t": tr.outcome.t},
        "outcome_probability": tr.outcome_probability,
        "bits_sent": tr.bits_sent,
        "correction": tr.correction,
        "final_state": encode_bipartite(tr.final_state),
        "fidelity": tr.fidelity,
        "seed": tr.seed,
    }


def _run(command: str, kinds: tuple[str, ...], inputs: tuple[str, ...], output: str | None,
         flags: dict, seed: int | None, job) -> None:
    """Shared job wrapper: parse, execute, report, map exceptions to exit codes.

    ``kinds`` lists the document kind each input must have, in order, and
    ``flags`` holds the tolerance flags the command takes, which the report
    lists.  The parser applies those over ``_DEFAULT_TOLS``, with the
    probability tolerance derived from the majorization one.
    """
    base = {
        "command": command,
        "version": __version__,
        # JSON has no NaN or infinity; such a tolerance is kept as its string.
        "tolerances": {k: flags[k] if math.isfinite(flags[k]) else str(flags[k]) for k in sorted(flags)},
        "inputs": [],
    }
    if seed is not None:
        base["seed"] = seed
    try:
        for k in sorted(flags):
            if not (math.isfinite(flags[k]) and flags[k] >= 0.0):
                raise InputError(f"tolerance {k!r} must be finite and non-negative, got {flags[k]!r}")
        if seed is not None and seed < 0:
            raise InputError(f"seed must be non-negative, got {seed}")
        if len(inputs) != len(kinds):
            raise InputError(
                f"{command} takes {len(kinds)} input(s) ({', '.join(kinds)}), got {len(inputs)}"
            )
        tols = dict(_DEFAULT_TOLS, **flags)
        tols["prob"] = max(tols["major"], 1e-9)
        # Each file is read once: the digest and the document come from the same bytes.
        raws = [_read(p) for p in inputs]
        base["inputs"] = [{"path": p, "sha256": hashlib.sha256(raw).hexdigest()}
                          for p, raw in zip(inputs, raws)]
        values = [_decode(raw, p, tols, kind) for raw, p, kind in zip(raws, inputs, kinds)]
        base["result"] = job(values, tols)
    except (InputError, ValidationError) as exc:
        base["status"] = "error"
        base["reason"] = {"class": "input", "detail": str(exc)}
        _emit(base, output)
        raise SystemExit(EXIT_INPUT)
    except DomainError as exc:
        base["status"] = "rejected"
        reason = {"class": "domain", "detail": str(exc)}
        for attr in ("k", "lhs", "rhs"):
            if hasattr(exc, attr):
                reason[attr] = getattr(exc, attr)
        base["reason"] = reason
        _emit(base, output)
        raise SystemExit(EXIT_REJECTED)
    base["status"] = "ok"
    _emit(base, output)
    raise SystemExit(EXIT_OK)


@click.group()
@click.version_option(version=__version__, prog_name="qmajor")
def main():
    """Decide, construct and simulate pure-state ensemble decompositions."""


_TOL_HELP = {
    "herm": "Hermiticity/trace/positivity tolerance for density matrices.",
    "major": "Majorization partial-sum tolerance.",
    "recon": "Reconstruction tolerance for verification reports.",
}


def _command(name: str, kinds: tuple[str, ...], flags: tuple[str, ...] = (), options=()):
    """Register ``job(values, tols, **options)`` as the one-job command ``name``.

    The command reads one input file per entry of ``kinds`` and takes a
    ``--tol-<k>`` flag for each ``k`` in ``flags``, the tolerances its job
    applies, plus the extra click ``options``, whose values reach the job by
    name.  A ``--seed`` is recorded in the report unless ``--exhaustive`` is
    set.  The job's docstring is the command's help.
    """
    def register(job):
        def callback(inputs, output, **extra):
            applied = {k: extra.pop(f"tol_{k}") for k in flags}
            seed = None if extra.get("exhaustive") else extra.get("seed")
            _run(name, kinds, inputs, output, applied, seed,
                 lambda values, tols: job(values, tols, **extra))

        params = [
            click.Option(["--input", "-i", "inputs"], multiple=True, required=True,
                         help="Input JSON file; repeat in the documented order."),
            click.Option(["--output", "-o"], default=None, help="Report path (default: stdout)."),
            *(click.Option([f"--tol-{k}"], type=float, default=_DEFAULT_TOLS[k], show_default=True,
                           help=_TOL_HELP[k]) for k in flags),
            *options,
        ]
        main.add_command(click.Command(name, callback=callback, params=params, help=job.__doc__))
        return job

    return register


@_command("majorize-check", ("probvec", "probvec"), ("major",))
def _majorize_check(values, tols):
    """Check x majorized by y.  Inputs: x probvec, y probvec."""
    x, y = values
    _majorized_pair(x, y, tols["major"])
    return {
        "holds": True,
        "x": encode_probvec(x),
        "y": encode_probvec(y),
    }


@_command("majorize-decompose", ("probvec", "probvec"), ("major",))
def _majorize_decompose(values, tols):
    """T-transform chain and ortho-stochastic witness.  Inputs: x probvec, y probvec."""
    chain = t_transform_chain(*values, tol=tols["major"])
    witness = _witness_from_chain(chain)
    return {
        "chain": {
            "transforms": [{"i": t.i, "k": t.k, "t": t.t} for t in chain.transforms],
            "source_permutation": [int(j) for j in chain.source_permutation],
            "target_permutation": [int(j) for j in chain.target_permutation],
        },
        "witness": {
            "orthogonal": encode_matrix(witness.orthogonal),
            "doubly_stochastic": encode_matrix(witness.doubly_stochastic),
        },
    }


@_command("ensemble-synth", ("density", "probvec"), ("herm",))
def _ensemble_synth(values, tols):
    """Construct an ensemble for rho with weights p.  Inputs: density, probvec."""
    rho, p = values
    ens = synthesize_ensemble(rho, p)
    entropy = entropy_report(ens)
    return {
        "ensemble": encode_ensemble(ens),
        "reconstruction_error": verify_ensemble(ens, rho).frobenius_error,
        "entropy": {
            "shannon": entropy.shannon,
            "von_neumann": entropy.von_neumann,
            "schur": _schur_fragment(entropy.schur),
        },
    }


@_command("ensemble-verify", ("ensemble", "density"), ("herm", "recon"))
def _ensemble_verify(values, tols):
    """Audit an ensemble against a density matrix.  Inputs: ensemble, density."""
    ens, rho = values
    audit = verify_ensemble(ens, rho, tol=tols["recon"])
    return {
        "passed": audit.passed,
        "frobenius_error": audit.frobenius_error,
        "majorization_ok": audit.majorization_ok,
        "norm_deviations": [float(x) for x in audit.norm_deviations],
    }


@_command("schmidt", ("bipartite",))
def _schmidt(values, tols):
    """Schmidt decomposition.  Inputs: bipartite state."""
    dec = schmidt(*values)
    return {
        "coefficients": encode_probvec(dec.coefficients),
        "basis_a": [encode_statevec(dec.basis_a[:, j]) for j in range(dec.rank)],
        "basis_b": [encode_statevec(dec.basis_b[:, j]) for j in range(dec.rank)],
    }


@_command("corollary4", ("bipartite", "probvec"))
def _corollary4(values, tols):
    """Rewrite a bipartite state with prescribed weights.  Inputs: bipartite, probvec."""
    dec = corollary4_decompose(*values)
    return {
        "weights": encode_probvec(dec.weights),
        "basis_a": [encode_statevec(dec.basis_a[:, j]) for j in range(dec.weights.size)],
        "states_b": [encode_statevec(s) for s in dec.states_b],
        "reconstruction": encode_matrix(dec.reconstruct()),
    }


@_command("protocol-run", ("bipartite",), options=(
    click.Option(["--d", "dim"], type=int, required=True,
                 help="Schmidt rank of the maximally entangled source."),
    click.Option(["--seed"], type=int, default=0, show_default=True,
                 help="PRNG seed for outcome sampling."),
    click.Option(["--exhaustive"], is_flag=True,
                 help="Enumerate all d^2 outcome branches instead of sampling one."),
))
def _protocol_run(values, tols, dim, seed, exhaustive):
    """Simulate the conversion protocol.  Inputs: bipartite target state."""
    (target,) = values
    if exhaustive:
        transcripts = enumerate_protocol(target, dim)
        return {
            "d": dim,
            "exhaustive": True,
            "transcripts": [_transcript_fragment(t) for t in transcripts],
        }
    tr = run_protocol(target, dim, seed)
    return {"d": dim, "exhaustive": False, "transcript": _transcript_fragment(tr)}


@_command("schur-report", ("probvec", "probvec"), ("major",))
def _schur_report(values, tols):
    """Schur-convex comparisons for x majorized by y.  Inputs: x probvec, y probvec."""
    return _schur_fragment(check_schur_inequalities(*values, tol=tols["major"]))


if __name__ == "__main__":
    main()
