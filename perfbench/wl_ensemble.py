"""ensemble-spectral: raw density matrices through the ensemble pipeline.

Job: validate_density -> is_compatible -> synthesize_ensemble ->
verify_ensemble -> entropy_report.  The cyclic-Jacobi eigensolver does nearly
all the work (two eigensolves per accepted job), so this workload moves with
an eigensolver change and little else.
"""

from __future__ import annotations

import numpy as np

# Library functions are called as qmajor.<name>, so the traced run sees the calls.
import qmajor
from qmajor import MajorizationError

from common import (
    BOUNDS,
    Checker,
    Job,
    block_rng,
    capture,
    concentrate,
    expect_rejection,
    expect_success,
    has_ties,
    majorized,
    mix_down,
    props_of,
    raw_density,
    spectrum,
    NEG_SQRT_DEFECT,
    RANK_FLOOR,
    weights_equal_spectrum,
)

WORKLOAD_ID = 1

# One block: (n, case, rank, size of the maximally mixed block) per job.  The
# cheap jobs (n=8, rejections) fill the bottom third, six full n=16 jobs hold
# the p50 and four full-rank n=48 jobs the p90, so neither quantile sits on a
# boundary between job classes.  The structure of every job is fixed here;
# the seed draws only the numbers.
COMPOSITION = (
    (8, "majorized", 8, 0), (8, "uniform", 4, 0), (8, "degenerate", 8, 4),
    (8, "rank-deficient", 4, 0), (8, "zero-padded", 8, 0), (8, "rejection", 8, 0),
    (8, "eigen-weights", 1, 0),
    (16, "majorized", 16, 0), (16, "zero-padded", 16, 0), (16, "uniform", 16, 0),
    (16, "degenerate", 16, 8), (16, "majorized", 16, 0), (16, "rank-deficient", 12, 0),
    (24, "rejection", 24, 0), (24, "rank-deficient", 12, 0), (32, "degenerate", 32, 16),
    (48, "majorized", 48, 0), (48, "uniform", 48, 0), (48, "zero-padded", 48, 0),
    (48, "majorized", 48, 0),
)
TINY_COMPOSITION = (
    (4, "majorized", 4, 0), (4, "uniform", 2, 0), (4, "degenerate", 4, 2), (4, "rejection", 4, 0),
    (4, "eigen-weights", 1, 0), (6, "rank-deficient", 3, 0), (6, "zero-padded", 6, 0),
)


def _make_job(rng, n: int, case: str, rank: int, block: int) -> Job:
    floor = 0.1 / n if case == "rejection" else 0.0
    lam = spectrum(rng, n, rank, block=block, floor=floor)
    matrix = raw_density(rng, lam)
    if case in ("uniform", "eigen-weights"):
        # eigen-weights: a pure state with weights [1], so the weights
        # equal the spectrum.
        m = rank if case == "eigen-weights" else int(rng.integers(rank, 2 * n + 1))
        p = np.full(m, 1.0 / m)
    elif case == "zero-padded":
        m = int(rng.integers(n + 1, 2 * n + 1))
        p = mix_down(np.concatenate([lam, np.zeros(m - n)]), rng, 2 * m)
    elif case == "rejection":
        p = concentrate(lam, rng)
    else:
        p = mix_down(lam[:rank], rng, 2 * n)
    measured = np.linalg.eigvalsh(matrix)
    reject = not majorized(p, measured)
    props = props_of(
        degenerate=has_ties(measured),
        rank_deficient=int(np.sum(measured > RANK_FLOOR)) < n,
        zero_padded=len(p) != n,
        rejection=reject,
    )
    return Job(
        label=case,
        kind="ensemble",
        size=n,
        expect="reject" if reject else "ok",
        data={"matrix": matrix, "weights": p, "spectrum": np.clip(measured, 0.0, None)},
        props=props,
        known_defect=NEG_SQRT_DEFECT if weights_equal_spectrum(p, measured) else None,
    )


def make_block(ctx, index: int) -> list[Job]:
    rng = block_rng(ctx.seed, WORKLOAD_ID, index)
    comp = list(TINY_COMPOSITION if ctx.tiny else COMPOSITION)
    order = rng.permutation(len(comp))
    return [_make_job(rng, *comp[i]) for i in order]


def _body(values: dict, job: Job) -> None:
    rho = qmajor.validate_density(job.data["matrix"])
    values["rho"] = rho
    values["compatible"] = qmajor.is_compatible(job.data["weights"], rho)
    if not values["compatible"]:
        # The rejection path must still raise with the failing partial sum.
        qmajor.synthesize_ensemble(rho, job.data["weights"])
        return
    ens = qmajor.synthesize_ensemble(rho, job.data["weights"])
    values["ensemble"] = ens
    values["audit"] = qmajor.verify_ensemble(ens, rho)
    values["entropy"] = qmajor.entropy_report(ens)


def execute(job: Job, ctx):
    return capture(_body, job)


def check(job: Job, outcome):
    chk = Checker()
    v = outcome.values
    if job.expect == "reject":
        expect_rejection(chk, outcome, (MajorizationError,))
        chk.require(v.get("compatible") is False, "is_compatible did not reject")
        return chk.verdict()
    if not expect_success(chk, outcome):
        return chk.verdict()
    raw = job.data["matrix"]
    p = job.data["weights"]
    rho = v["rho"]
    chk.defect("validated density vs input", np.linalg.norm(rho.matrix - raw), "recon")
    spec = rho.spectrum()
    vecs = spec.eigenvectors
    chk.defect("spectrum reconstruction", np.linalg.norm(spec.reconstruct() - rho.matrix), "recon")
    chk.defect("eigenvector orthonormality", np.linalg.norm(vecs.conj().T @ vecs - np.eye(rho.dim)), "orth")
    chk.defect("eigenvalues vs LAPACK", np.max(np.abs(np.sort(spec.eigenvalues) - np.sort(job.data["spectrum"]))), "major")
    chk.require(v["compatible"] is True, "is_compatible rejected a majorized weight vector")
    ens = v["ensemble"]
    chk.require(len(ens) == len(p), "ensemble size differs from the weight vector")
    chk.defect("ensemble weights", np.max(np.abs(ens.weights - np.clip(p, 0.0, None))), "major")
    mix = (ens.states.T * ens.weights) @ ens.states.conj()
    recon = float(np.linalg.norm(mix - rho.matrix))
    chk.defect("ensemble reconstruction", recon, "recon")
    live = ens.weights > 1e-9
    chk.defect("member norms", np.max(np.abs(np.linalg.norm(ens.states[live], axis=1) - 1.0)), "fidelity")
    audit = v["audit"]
    chk.require(audit.passed, "verify_ensemble audit failed")
    chk.defect("audit error vs recomputed", abs(audit.frobenius_error - recon), "recon")
    ent = v["entropy"]
    lam = job.data["spectrum"]
    lam = lam[lam > 0.0]
    chk.defect("von Neumann entropy vs LAPACK", abs(ent.von_neumann + np.sum(lam * np.log(lam))), "major")
    chk.require(ent.shannon >= ent.von_neumann - BOUNDS["major"], "mixing entropy below state entropy")
    chk.require(ent.schur.passed, "Schur-convex comparison failed")
    return chk.verdict()

