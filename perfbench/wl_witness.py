"""witness-sweep: probability-vector pairs through the majorize layer only.

Job: is_majorized_by -> t_transform_chain + apply_t_chain -> horn_orthogonal
-> check_schur_inequalities.  No eigensolves run, so this is the control for
eigensolver changes; horn_orthogonal's dense lifts make it the O(d^4) witness
wall (about 0.25 s at d=256).
"""

from __future__ import annotations

import numpy as np

# Library functions are called as qmajor.<name>, so the traced run sees the calls.
import qmajor
from qmajor import MajorizationError

from common import (
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
    padded,
    props_of,
    RANK_FLOOR,
)

WORKLOAD_ID = 2

# Rejections are cheap (no witness), so they sit below d=256; the d=256 jobs
# are a fifth of the block and hold the p90, the d=64 jobs hold the p50.
COMPOSITION = (
    [(32, c) for c in ("uniform", "mixed", "zero-padded", "degenerate", "rejection")]
    + [(64, c) for c in ("uniform", "mixed", "zero-padded", "degenerate", "mixed", "rejection")]
    + [(128, c) for c in ("uniform", "mixed", "zero-padded", "degenerate", "rejection")]
    + [(256, c) for c in ("uniform", "mixed", "zero-padded", "degenerate")]
)
TINY_COMPOSITION = [(8, c) for c in ("uniform", "mixed", "zero-padded")] + [
    (16, c) for c in ("degenerate", "rejection")
]


def _make_job(rng, d: int, case: str) -> Job:
    alpha = float(rng.choice([0.5, 1.0, 3.0]))
    if case == "zero-padded":
        # y is shorter: the pair is compared on d coordinates after padding.
        y = rng.dirichlet(np.full(int(rng.integers(d // 4, d // 2 + 1)), alpha))
        x = mix_down(padded(y, d), rng, 2 * d)
    else:
        if case == "degenerate":
            levels = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
            y = rng.permutation(np.repeat(levels, -(-d // levels.size))[:d])
            y = y / y.sum()
        else:
            y = rng.dirichlet(np.full(d, alpha))
        if case == "uniform":
            x = np.full(d, 1.0 / d)
        elif case == "rejection":
            x = concentrate(y, rng)
        else:
            x = mix_down(y, rng, 2 * d)
    reject = not majorized(x, y)
    props = props_of(
        degenerate=has_ties(y),
        rank_deficient=int(np.sum(padded(y, d) > RANK_FLOOR)) < d,
        zero_padded=len(x) != len(y),
        rejection=reject,
    )
    return Job(label=case, kind="witness", size=d, expect="reject" if reject else "ok",
               data={"x": x, "y": y}, props=props)


def make_block(ctx, index: int) -> list[Job]:
    rng = block_rng(ctx.seed, WORKLOAD_ID, index)
    comp = list(TINY_COMPOSITION if ctx.tiny else COMPOSITION)
    order = rng.permutation(len(comp))
    return [_make_job(rng, *comp[i]) for i in order]


def _body(values: dict, job: Job) -> None:
    x, y = job.data["x"], job.data["y"]
    values["holds"] = qmajor.is_majorized_by(x, y)
    if not values["holds"]:
        qmajor.t_transform_chain(x, y)  # must raise with the failing partial sum
        return
    chain = qmajor.t_transform_chain(x, y)
    values["chain"] = chain
    values["mixed"] = qmajor.apply_t_chain(chain, y)
    values["witness"] = qmajor.horn_orthogonal(x, y)
    values["schur"] = qmajor.check_schur_inequalities(x, y)


def execute(job: Job, ctx):
    return capture(_body, job)


def check(job: Job, outcome):
    chk = Checker()
    v = outcome.values
    if job.expect == "reject":
        expect_rejection(chk, outcome, (MajorizationError,))
        chk.require(v.get("holds") is False, "is_majorized_by accepted a non-majorized pair")
        return chk.verdict()
    if not expect_success(chk, outcome):
        return chk.verdict()
    chk.require(v["holds"] is True, "is_majorized_by rejected a majorized pair")
    d = job.size
    x, y = padded(job.data["x"], d), padded(job.data["y"], d)
    chk.require(len(v["chain"]) <= d - 1, f"T-chain has {len(v['chain'])} > d-1 transforms")
    chk.defect("T-chain image", np.max(np.abs(v["mixed"] - x)), "major")
    w = v["witness"].orthogonal
    chk.require(w.shape == (d, d), f"witness shape {w.shape}")
    if w.shape == (d, d):
        chk.defect("witness orthogonality", np.linalg.norm(w @ w.T - np.eye(d)), "orth")
        chk.defect("witness image (W o W) y", np.max(np.abs((w * w) @ y - x)), "major")
        chk.defect("doubly stochastic = W o W", np.max(np.abs(v["witness"].doubly_stochastic - w * w)), "orth")
    schur = v["schur"]
    chk.require(schur.passed, "Schur-convex comparison failed")
    for e in schur.entries:
        if e.name == "power_sum[k=2]":
            chk.defect("power sum vs numpy", abs(e.value_x - np.sum(x * x)) + abs(e.value_y - np.sum(y * y)), "major")
    return chk.verdict()
