"""cli-batch: one ``python -m qmajor.cli`` process per job, one at a time.

Small inputs (d <= 8) cover all nine commands, domain rejections (exit 1)
and malformed input (exit 2), including the seven inputs that currently
break the exit-code contract.  Compute is near zero; interpreter start and
``import qmajor.cli`` dominate, so this is the workload that shows CLI
changes and the one where library speed-ups must not matter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from common import (
    Checker,
    Job,
    Outcome,
    block_rng,
    concentrate,
    mix_down,
    padded,
    props_of,
    raw_density,
    spectrum,
    NEG_SQRT_DEFECT,
    RANK_FLOOR,
    weights_equal_spectrum,
)

WORKLOAD_ID = 4

EXIT_CODE = {"ok": 0, "reject": 1, "input-error": 2}
STATUS = {"ok": "ok", "reject": "rejected", "input-error": "error"}
ITEM5 = "ROADMAP item 5: exits 1 with a traceback and no report"


def _c(z) -> list:
    return [float(z.real), float(z.imag)]


def _entries(m) -> list:
    return [[_c(z) for z in row] for row in np.asarray(m, dtype=np.complex128)]


def probvec(w) -> dict:
    return {"kind": "probvec", "weights": [float(v) for v in w]}


def density(m) -> dict:
    return {"kind": "density", "dim": int(m.shape[0]), "entries": _entries(m)}


def bipartite(a) -> dict:
    return {"kind": "bipartite", "dimA": int(a.shape[0]), "dimB": int(a.shape[1]),
            "amplitudes": _entries(a)}


def _decode(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _gaussian_state(rng, da: int, db: int) -> np.ndarray:
    m = rng.normal(size=(da, db)) + 1j * rng.normal(size=(da, db))
    return m / np.linalg.norm(m)


def _templates(rng) -> list[dict]:
    """One block of jobs: command, input documents, expectation, reference data."""
    d = int(rng.integers(4, 9))
    y = rng.dirichlet(np.ones(d))
    short_y = rng.dirichlet(np.ones(d // 2))
    levels = rng.dirichlet(np.ones(3))
    deg_y = np.repeat(levels, -(-d // 3))[:d]
    deg_y = deg_y / deg_y.sum()
    lam_rd = spectrum(rng, d, int(rng.integers(1, d)))
    lam_deg = spectrum(rng, d, d, block=d // 2)
    lam_rej = spectrum(rng, d, d, floor=0.1 / d)
    rho_rd, rho_deg, rho_rej = (raw_density(rng, lam) for lam in (lam_rd, lam_deg, lam_rej))
    live = int(np.sum(lam_rd > RANK_FLOOR))
    u_plain = np.full(int(rng.integers(live, d + 3)), 1.0)
    rect = _gaussian_state(rng, d, d - 2)
    sq = _gaussian_state(rng, d, d)
    sq_coeffs = np.linalg.svd(sq, compute_uv=False) ** 2
    q_long = mix_down(padded(sq_coeffs, d + 2), rng, 2 * d)
    pd = int(rng.integers(3, 5))
    proto = _gaussian_state(rng, pd, pd)
    ens_w, ens_v = np.linalg.eigh(rho_deg)
    ens_w = np.clip(ens_w, 0.0, None)
    ensemble = {"kind": "ensemble", "weights": [float(v) for v in ens_w / ens_w.sum()],
                "states": _entries(ens_v.T)}
    x_mixed = mix_down(y, rng, 2 * d)

    def job(label, args, docs, expect, ref=None, known_defect=None, repeat=False):
        return {"label": label, "args": args, "docs": docs, "expect": expect, "ref": ref or {},
                "known_defect": known_defect, "repeat": repeat}

    p = probvec
    jobs = [
        job("plain", ["majorize-check"], [p(x_mixed), p(y)], "ok"),
        job("rejection", ["majorize-check"], [p(concentrate(y, rng)), p(y)], "reject"),
        job("zero-padded", ["majorize-decompose"],
            [p(mix_down(padded(short_y, d), rng, 2 * d)), p(short_y)], "ok"),
        job("degenerate", ["majorize-decompose"], [p(mix_down(deg_y, rng, 2 * d)), p(deg_y)], "ok"),
        job("rank-deficient", ["ensemble-synth"], [density(rho_rd), p(u_plain / u_plain.size)], "ok",
            {"rho": rho_rd}, known_defect=NEG_SQRT_DEFECT if weights_equal_spectrum(
                u_plain / u_plain.size, np.linalg.eigvalsh(rho_rd)) else None),
        job("degenerate", ["ensemble-synth"], [density(rho_deg), p(mix_down(lam_deg, rng, 2 * d))],
            "ok", {"rho": rho_deg}, repeat=True),
        job("rejection", ["ensemble-synth"], [density(rho_rej), p(concentrate(lam_rej, rng))], "reject"),
        job("degenerate", ["ensemble-verify"], [ensemble, density(rho_deg)], "ok"),
        job("plain", ["schmidt"], [bipartite(rect)], "ok", {"amps": rect}),
        job("zero-padded", ["corollary4"], [bipartite(sq), p(q_long)], "ok", {"amps": sq}),
        job("rejection", ["corollary4"], [bipartite(sq), p(concentrate(sq_coeffs, rng))], "reject"),
        job("plain", ["protocol-run", "--d", str(pd), "--seed", str(int(rng.integers(1000)))],
            [bipartite(proto)], "ok", {"d": pd}, repeat=True),
        job("plain", ["protocol-run", "--d", str(pd), "--exhaustive"], [bipartite(proto)], "ok",
            {"d": pd, "branches": pd * pd}),
        job("rejection", ["protocol-run", "--d", str(pd - 1), "--seed", "7"], [bipartite(proto)],
            "reject"),
        job("plain", ["schur-report"], [p(x_mixed), p(y)], "ok"),
        job("malformed", ["schmidt"], ['{"kind": "bipartite", "dimA": 2, "amp'], "input-error"),
        job("malformed", ["majorize-check"], [p(np.concatenate([[-0.5, 1.5], np.zeros(d - 2)])), p(y)],
            "input-error"),
        # The seven inputs that break the exit-code contract today.
        job("malformed", ["schmidt"], [dict(bipartite(sq), dimA="x")], "input-error",
            known_defect=ITEM5),
        job("malformed", ["schmidt"], [{"kind": "statevec", "amplitudes": 3}], "input-error",
            known_defect=ITEM5),
        job("malformed", ["majorize-check"], [{"kind": "probvec", "weights": "ab"}, p(y)],
            "input-error", known_defect=ITEM5),
        job("malformed", ["ensemble-verify"], [dict(ensemble, weights=["w"] + ensemble["weights"][1:]),
                                               density(rho_deg)], "input-error", known_defect=ITEM5),
        job("malformed", ["schmidt"], [p(y)], "input-error", known_defect=ITEM5),
        job("malformed", ["protocol-run", "--d", "0"], [bipartite(proto)], "input-error",
            known_defect=ITEM5),
        job("malformed", ["majorize-check", "--tol-major", "nan"], [p(x_mixed), p(y)], "input-error",
            known_defect=ITEM5),
    ]
    for j in jobs:
        vecs = [doc["weights"] for doc in j["docs"] if isinstance(doc, dict)
                and doc.get("kind") == "probvec"]
        j["props"] = props_of(
            malformed=j["label"] == "malformed",
            rejection=j["expect"] == "reject",
            zero_padded=len(vecs) == 2 and len(vecs[0]) != len(vecs[1]) or j["label"] == "zero-padded",
            degenerate=j["label"] == "degenerate" and j["expect"] == "ok",
            rank_deficient="rho" in j["ref"] and int(np.sum(np.linalg.eigvalsh(j["ref"]["rho"]) > RANK_FLOOR)) < d,
        )
    return jobs


# Template positions kept by --tiny: a few of each expectation.
TINY_TEMPLATES = (0, 1, 2, 11, 12, 15, 16, 17)


def make_block(ctx, index: int) -> list[Job]:
    rng = block_rng(ctx.seed, WORKLOAD_ID, index)
    templates = _templates(rng)
    if ctx.tiny:
        templates = [templates[i] for i in TINY_TEMPLATES]
    order = list(rng.permutation(len(templates)))
    # Repeats run after their first occurrence; the reports must match byte for byte.
    order += [i for i, t in enumerate(templates) if t["repeat"]]
    indir = ctx.workdir / "in"
    outdir = ctx.workdir / "out"
    indir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs, first_out = [], {}
    for pos, i in enumerate(order):
        t = templates[i]
        files = []
        for k, doc in enumerate(t["docs"]):
            path = indir / f"b{index}-t{i}-{k}.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            files.append(str(path))
        out = outdir / f"b{index}-p{pos}.json"
        args = [t["args"][0]] + [a for f in files for a in ("-i", f)] + t["args"][1:] + ["-o", str(out)]
        data = {"args": args, "out": out, "err": outdir / f"b{index}-p{pos}.err", "ref": t["ref"],
                "docs": t["docs"]}
        if i in first_out:
            data["repeat_of"] = first_out[i]
        else:
            first_out[i] = out
        jobs.append(Job(label=t["label"], kind=t["args"][0], size=0, expect=t["expect"], data=data,
                        props=t["props"], known_defect=t["known_defect"]))
    return jobs


def subprocess_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def execute(job: Job, ctx) -> Outcome:
    out = Outcome()
    for path in (job.data["out"], job.data["err"]):
        if path.exists():
            path.unlink()
    if ctx.in_process:
        from qmajor.cli import main

        with ctx.span("cli.main"):
            try:
                main(job.data["args"], standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught exception is what the process would die of
                code = 1
                out.error_text = traceback.format_exc()
        out.values = {"exit": code, "rss_kb": 0, "traceback": bool(out.error_text)}
        return out
    with open(job.data["err"], "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "qmajor.cli", *job.data["args"]],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                                env=ctx.env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    out.error_text = job.data["err"].read_text(errors="replace")
    out.values = {"exit": proc.returncode, "rss_kb": usage.ru_maxrss,
                  "traceback": "Traceback (most recent call last)" in out.error_text}
    return out


def check(job: Job, outcome: Outcome):
    chk = Checker()
    code = outcome.values["exit"]
    chk.require(code == EXIT_CODE[job.expect], f"exit {code}, expected {EXIT_CODE[job.expect]}")
    chk.require(not outcome.values.get("traceback"), "uncaught exception")
    path = job.data["out"]
    if not path.exists():
        chk.require(False, "no report written")
        return chk.verdict()
    raw = path.read_bytes()
    if "repeat_of" in job.data:
        chk.require(raw == job.data["repeat_of"].read_bytes(), "repeated job gave different report bytes")
    report = json.loads(raw)
    chk.require(report.get("status") == STATUS[job.expect],
                f"status {report.get('status')!r}, expected {STATUS[job.expect]!r}")
    if job.expect == "ok" and report.get("status") == "ok":
        _check_result(chk, job, report["result"])
    return chk.verdict()


def _check_result(chk: Checker, job: Job, res: dict) -> None:
    docs, ref = job.data["docs"], job.data["ref"]
    cmd = job.kind
    if cmd == "majorize-check":
        chk.require(res["holds"] is True, "majorization not confirmed")
    elif cmd == "majorize-decompose":
        x, y = docs[0]["weights"], docs[1]["weights"]
        d = max(len(x), len(y))
        x, y = padded(x, d), padded(y, d)
        w = _decode(res["witness"]["orthogonal"]["entries"]).real
        chk.defect("witness orthogonality", np.linalg.norm(w @ w.T - np.eye(d)), "orth")
        chk.defect("witness image", np.max(np.abs((w * w) @ y - x)), "major")
        chk.require(len(res["chain"]["transforms"]) <= d - 1, "T-chain longer than d-1")
    elif cmd == "ensemble-synth":
        ens = res["ensemble"]
        states = _decode(ens["states"])
        weights = np.array(ens["weights"])
        mix = (states.T * weights) @ states.conj()
        chk.defect("ensemble reconstruction", np.linalg.norm(mix - ref["rho"]), "recon")
        chk.defect("reported reconstruction error", res["reconstruction_error"], "recon")
        chk.require(res["entropy"]["schur"]["passed"], "Schur-convex comparison failed")
    elif cmd == "ensemble-verify":
        chk.require(res["passed"] is True, "audit of an exact ensemble failed")
        chk.defect("audit error", res["frobenius_error"], "recon")
    elif cmd == "schmidt":
        coeffs = np.array(res["coefficients"]["weights"])
        a = np.array([[complex(*z) for z in v["amplitudes"]] for v in res["basis_a"]]).T
        b = np.array([[complex(*z) for z in v["amplitudes"]] for v in res["basis_b"]]).T
        chk.defect("Schmidt reconstruction", np.linalg.norm((a * np.sqrt(coeffs)) @ b.T - ref["amps"]), "recon")
        chk.defect("A-side orthonormality", np.linalg.norm(a.conj().T @ a - np.eye(a.shape[1])), "orth")
    elif cmd == "corollary4":
        amps = ref["amps"]
        recon = _decode(res["reconstruction"]["entries"])
        target = np.zeros(recon.shape, dtype=np.complex128)
        target[: amps.shape[0], : amps.shape[1]] = amps
        chk.defect("Corollary 4 reconstruction", np.linalg.norm(recon - target), "recon")
        a = np.array([[complex(*z) for z in v["amplitudes"]] for v in res["basis_a"]]).T
        chk.defect("A-side orthonormality", np.linalg.norm(a.conj().T @ a - np.eye(a.shape[1])), "orth")
    elif cmd == "protocol-run":
        transcripts = res["transcripts"] if res["exhaustive"] else [res["transcript"]]
        if "branches" in ref:
            chk.require(len(transcripts) == ref["branches"], "wrong number of branches")
        for tr in transcripts:
            chk.defect("branch fidelity", 1.0 - tr["fidelity"], "fidelity")
    elif cmd == "schur-report":
        chk.require(res["passed"] is True, "Schur-convex comparison failed")
