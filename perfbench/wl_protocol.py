"""protocol-convert: bipartite targets through Corollary 4 and the LOCC protocol.

Jobs are corollary4_decompose, seeded run_protocol and enumerate_protocol.
bipartite and protocol dominate; numkernel is used as many small eigensolves
(about ten per job at d=4, thirty at d=24), and enumerate_protocol carries
the d^4 * 16 B measurement set.
"""

from __future__ import annotations

import numpy as np

# Library functions are called as qmajor.<name>, so the traced run sees the calls.
import qmajor
from qmajor import BipartiteState, DomainError, MajorizationError

from common import (
    Checker,
    Job,
    block_rng,
    capture,
    concentrate,
    expect_rejection,
    expect_success,
    has_ties,
    haar_unitary,
    majorized,
    mix_down,
    props_of,
    RANK_FLOOR,
)

WORKLOAD_ID = 3

# One block: (d, operation, target case) per job.  Rejections and d=4 jobs
# fill the bottom, six d=8 jobs hold the p50 and four full-rank d=24 jobs the
# p90, so neither quantile sits on a boundary between job classes.
COMPOSITION = (
    (4, "cor4", "generic"), (4, "cor4", "q-longer"), (4, "enum", "max-entangled"),
    (4, "run", "rectangular"), (4, "run", "rank-too-high"), (4, "cor4", "rejection"),
    (8, "run", "rank-too-high"), (8, "run", "max-entangled"),
    (8, "cor4", "rank-deficient"), (8, "cor4", "q-longer"), (8, "enum", "generic"),
    (8, "run", "rectangular"), (8, "cor4", "generic"), (8, "run", "generic"),
    (12, "cor4", "rectangular"), (12, "run", "rank-deficient"), (16, "enum", "rectangular"),
    (24, "cor4", "generic"), (24, "cor4", "generic"), (24, "enum", "generic"), (24, "run", "generic"),
)
TINY_COMPOSITION = (
    (2, "cor4", "generic"), (2, "run", "max-entangled"), (2, "enum", "generic"),
    (3, "cor4", "q-longer"), (3, "run", "rank-too-high"), (3, "cor4", "rejection"),
    (3, "enum", "rectangular"), (4, "cor4", "rank-deficient"),
)


def _target(rng, d: int, case: str) -> np.ndarray:
    da, db = (d, max(1, (3 * d) // 4)) if case == "rectangular" else (d, d)
    if case == "max-entangled":
        m = haar_unitary(rng, d) / np.sqrt(d)
    elif case == "rank-deficient":
        r = max(1, d // 2)
        m = (rng.normal(size=(da, r)) + 1j * rng.normal(size=(da, r))) @ (
            rng.normal(size=(r, db)) + 1j * rng.normal(size=(r, db)))
    else:
        m = rng.normal(size=(da, db)) + 1j * rng.normal(size=(da, db))
    return m / np.linalg.norm(m)


def _make_job(rng, d: int, op: str, case: str) -> Job:
    amps = _target(rng, d, "generic" if case in ("q-longer", "rejection", "rank-too-high") else case)
    coeffs = np.linalg.svd(amps, compute_uv=False) ** 2
    rank = int(np.sum(coeffs > RANK_FLOOR))
    data = {"amplitudes": amps, "coefficients": coeffs}
    padded_q = False
    if op == "cor4":
        if case == "q-longer":
            m = amps.shape[0] + int(rng.integers(1, 5))
            q = mix_down(np.concatenate([coeffs, np.zeros(m - coeffs.size)]), rng, 2 * m)
        elif case == "rejection":
            q = concentrate(coeffs, rng)
        else:
            q = mix_down(coeffs, rng, 2 * coeffs.size)
        data["q"] = q
        padded_q = q.size > amps.shape[0]
        reject = not majorized(q, coeffs)
    else:
        data["d"] = max(1, rank // 2) if case == "rank-too-high" else d
        data["seed"] = int(rng.integers(2**31))
        reject = rank > data["d"]
    props = props_of(
        degenerate=has_ties(coeffs),
        rank_deficient=rank < min(amps.shape),
        zero_padded=padded_q or (op != "cor4" and max(amps.shape) < data["d"]),
        rejection=reject,
    )
    return Job(label=case, kind=op, size=d, expect="reject" if reject else "ok",
               data=data, props=props)


def make_block(ctx, index: int) -> list[Job]:
    rng = block_rng(ctx.seed, WORKLOAD_ID, index)
    comp = list(TINY_COMPOSITION if ctx.tiny else COMPOSITION)
    order = rng.permutation(len(comp))
    return [_make_job(rng, *comp[i]) for i in order]


def _body(values: dict, job: Job) -> None:
    psi = BipartiteState(amplitudes=job.data["amplitudes"])
    if job.kind == "cor4":
        values["decomposition"] = qmajor.corollary4_decompose(psi, job.data["q"])
    elif job.kind == "run":
        values["transcripts"] = (qmajor.run_protocol(psi, job.data["d"], job.data["seed"]),)
    else:
        values["transcripts"] = qmajor.enumerate_protocol(psi, job.data["d"])


def execute(job: Job, ctx):
    return capture(_body, job)


def _embedded(amps: np.ndarray, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=np.complex128)
    out[: amps.shape[0], : amps.shape[1]] = amps
    return out


def check(job: Job, outcome):
    chk = Checker()
    if job.expect == "reject":
        expect_rejection(chk, outcome, (MajorizationError, DomainError))
        return chk.verdict()
    if not expect_success(chk, outcome):
        return chk.verdict()
    amps = job.data["amplitudes"]
    if job.kind == "cor4":
        dec = outcome.values["decomposition"]
        q = job.data["q"]
        target = _embedded(amps, max(amps.shape[0], q.size), amps.shape[1])
        chk.defect("Corollary 4 reconstruction", np.linalg.norm(dec.reconstruct() - target), "recon")
        a = dec.basis_a
        chk.defect("A-side basis orthonormality", np.linalg.norm(a.conj().T @ a - np.eye(a.shape[1])), "orth")
        chk.defect("B-side state norms", np.max(np.abs(np.linalg.norm(dec.states_b, axis=1) - 1.0)), "fidelity")
        chk.defect("weights", np.max(np.abs(dec.weights - np.clip(q, 0.0, None))), "major")
        return chk.verdict()
    d = job.data["d"]
    transcripts = outcome.values["transcripts"]
    if job.kind == "enum":
        chk.require(len(transcripts) == d * d, f"{len(transcripts)} branches, expected {d * d}")
        chk.defect("outcome probabilities sum", abs(sum(t.outcome_probability for t in transcripts) - 1.0), "complete")
    target = _embedded(amps, max(amps.shape[0], d), max(amps.shape[1], d))
    for tr in transcripts:
        chk.defect("reported fidelity", 1.0 - tr.fidelity, "fidelity")
        final = tr.final_state.amplitudes
        overlap = abs(np.vdot(target, final)) ** 2 if final.shape == target.shape else 0.0
        chk.defect("final state fidelity", abs(1.0 - overlap), "fidelity")
        chk.defect("uniform outcome probability", abs(tr.outcome_probability - 1.0 / d**2), "complete")
        chk.require(tr.bits_sent == (d * d - 1).bit_length(), f"bits_sent {tr.bits_sent}")
    return chk.verdict()
