"""Batch command-line front end.

Each invocation runs one job: parse JSON inputs, dispatch to the library,
write one machine-readable JSON report.  Exit codes separate the three outcomes:
0 success, 1 domain rejection (a ``DomainError``, such as a failed majorization),
2 malformed or invalid input (a ``ValidationError``, the parser's too, or a ``MemoryError``).
Each command is declared once, with its input kinds and the tolerance flags its job applies.

Reports are deterministic: identical inputs, options and seed produce
byte-identical bytes.  Complex numbers are two-element [re, im] arrays and
every embedded domain value is a "kind"-tagged fragment.  Inputs are read by
the library's own validators, and one decoder inverts ``encode_entries``, so a
fragment parses back bit for bit, signed zeros included.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .numkernel import TOL_HERM, TOL_PROB, TOL_RECON
from .numkernel import DomainError, ValidationError, _as_array, _as_dim, _as_tol, validate_density
from .majorize import as_prob_vector, _majorized_pair, _schur, _witness_from_chain, t_transform_chain
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


# ---------------------------------------------------------------- encoding

def encode_entries(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def encode_probvec(w) -> dict:
    return {"kind": "probvec", "weights": np.asarray(w, dtype=np.float64).tolist()}


def encode_matrix(m) -> dict:
    return {"kind": "matrix", "entries": encode_entries(m)}


def encode_statevec(v) -> dict:
    return {"kind": "statevec", "amplitudes": encode_entries(v)}


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
        "weights": e.weights.tolist(),
        "states": encode_entries(e.states),
        "synthetic": e.synthetic.tolist(),
    }


def _decode_entries(value, where: str, ndim: int) -> np.ndarray:
    """Invert ``encode_entries``: ``ndim``-deep [re, im] pairs to a complex array, bit for bit."""
    pairs = _as_array(value, where, np.float64, ndim + 1)
    if pairs.shape[-1] != 2:
        raise ValidationError(f"{where}: complex entries must be [re, im] pairs")
    return pairs.view(np.complex128)[..., 0]


def _declared(doc: dict, field: str, actual: int, path: str) -> None:
    """Check an optional declared size such as ``dim`` against the decoded one."""
    if field in doc and _as_dim(doc[field], f"{path} {field}", 1) != actual:
        raise ValidationError(f"{path}: declared {field} {doc[field]} but the entries give {actual}")


# ---------------------------------------------------------------- parsing

def parse_document(doc, path: str, tols: dict, expect: str):
    """Decode one kind-tagged JSON document, which must be of kind ``expect``, into a domain value.

    A density is read at ``tols["herm"]``, a probvec at ``tols["major"]`` but never below TOL_PROB.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError(f"{path}: missing top-level 'kind' tag")
    kind = doc["kind"]
    if kind != expect:
        raise ValidationError(f"{path}: expected kind {expect!r}, got {kind!r}")
    try:
        if kind == "probvec":
            return as_prob_vector(doc["weights"], tol=max(tols["major"], TOL_PROB), name=f"{path} weights")
        if kind == "density":
            entries = _decode_entries(doc["entries"], f"{path} entries", 2)
            _declared(doc, "dim", entries.shape[0], path)
            return validate_density(entries, tol=tols["herm"])
        if kind == "matrix":
            return _decode_entries(doc["entries"], f"{path} entries", 2)
        if kind == "statevec":
            return _decode_entries(doc["amplitudes"], f"{path} amplitudes", 1)
        if kind == "bipartite":
            amps = _decode_entries(doc["amplitudes"], f"{path} amplitudes", 2)
            _declared(doc, "dimA", amps.shape[0], path)
            _declared(doc, "dimB", amps.shape[1], path)
            # The constructor rejects a state that is not of unit norm.
            return BipartiteState(amplitudes=amps)
        if kind == "ensemble":
            states = _decode_entries(doc["states"], f"{path} states", 2)
            synthetic = doc.get("synthetic", np.zeros(states.shape[0], dtype=bool))
            return Ensemble(weights=doc["weights"], states=states, synthetic=synthetic)
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    raise ValidationError(f"{path}: unknown kind {kind!r}")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _decode(raw: bytes, path: str, tols: dict, expect: str):
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: parse error: {exc}") from exc
    return parse_document(doc, path, tols, expect)


_DEFAULT_TOLS = {"herm": TOL_HERM, "major": TOL_PROB, "recon": TOL_RECON}


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
    lists.  The job and ``parse_document`` read those over ``_DEFAULT_TOLS``.
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
            _as_tol(flags[k], f"tolerance {k!r}")
        if seed is not None:
            _as_dim(seed, "seed", 0, None)
        if len(inputs) != len(kinds):
            raise ValidationError(
                f"{command} takes {len(kinds)} input(s) ({', '.join(kinds)}), got {len(inputs)}"
            )
        tols = dict(_DEFAULT_TOLS, **flags)
        # Each file is read once: the digest and the document come from the same bytes.
        raws = [_read(p) for p in inputs]
        base["inputs"] = [{"path": p, "sha256": hashlib.sha256(raw).hexdigest()}
                          for p, raw in zip(inputs, raws)]
        values = [_decode(raw, p, tols, kind) for raw, p, kind in zip(raws, inputs, kinds)]
        base["result"] = job(values, tols)
        base["status"], code = "ok", EXIT_OK
    # A size within every ceiling can still ask for more memory than exists; that is the input's.
    except (ValidationError, MemoryError, DomainError) as exc:
        base["status"], cls, code = (("rejected", "domain", EXIT_REJECTED) if isinstance(exc, DomainError)
                                     else ("error", "input", EXIT_INPUT))
        base["reason"] = {"class": cls, "detail": str(exc),
                          **{a: getattr(exc, a) for a in ("k", "lhs", "rhs") if hasattr(exc, a)}}
    _emit(base, output)
    raise SystemExit(code)


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
    return _schur_fragment(_schur(*values, tols["major"]))


if __name__ == "__main__":
    main()
