#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload at tiny sizes in both modes and checks that the
   result line carries exactly the metrics and units of BENCHMARK.json, and
   that the table prints every metric with its unit.
2. Feeds each correctness checker a deliberately perturbed output (a witness
   entry nudged by 1e-6, a wrong expected exit code, ...) and checks that the
   checker flags it.

Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def tiny_runs() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=run.ROOT)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: correct, nothing failed")
            names = run.PER_LAYER if trace else run.END_TO_END
            expect({k: v["unit"] for k, v in result["metrics"].items()} == names,
                   f"{tag}: every metric with its unit")
            expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{tag}: finite values")
            printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1] if len(line.split()) == 3}
            table = names if trace else {**names, **run.TABLE_ONLY}
            expect(all(printed.get(n) == u for n, u in table.items()), f"{tag}: table names and units")


def first(jobs, pred):
    return next(j for j in jobs if pred(j))


def flagged(wl, job, outcome, what: str) -> None:
    expect(not wl.check(job, outcome).ok, f"checker flags {what}")


def perturbations(ctx) -> None:
    import numpy as np

    import wl_cli
    import wl_ensemble
    import wl_protocol
    import wl_witness
    from common import Outcome

    jobs = wl_witness.make_block(ctx, 0)
    job = first(jobs, lambda j: j.expect == "ok")
    out = wl_witness.execute(job, ctx)
    expect(wl_witness.check(job, out).ok, "witness job passes unperturbed")
    bad = copy.copy(out)
    w = out.values["witness"]
    nudged = w.orthogonal.copy()
    nudged[0, 0] += 1e-6
    bad.values = dict(out.values, witness=dataclasses.replace(w, orthogonal=nudged, doubly_stochastic=nudged * nudged))
    flagged(wl_witness, job, bad, "a witness entry nudged by 1e-6")
    bad.values = dict(out.values, mixed=out.values["mixed"] + np.r_[1e-6, np.zeros(job.size - 1)])
    flagged(wl_witness, job, bad, "a T-chain image nudged by 1e-6")
    rej = first(jobs, lambda j: j.expect == "reject")
    flagged(wl_witness, rej, Outcome(values={"holds": False}), "a rejection that did not raise")

    jobs = wl_ensemble.make_block(ctx, 0)
    job = first(jobs, lambda j: j.expect == "ok" and j.known_defect is None)
    out = wl_ensemble.execute(job, ctx)
    expect(wl_ensemble.check(job, out).ok, "ensemble job passes unperturbed")
    ens = copy.copy(out.values["ensemble"])
    states = ens.states.copy()
    states[0, 0] += 1e-6
    object.__setattr__(ens, "states", states)
    flagged(wl_ensemble, job, Outcome(values=dict(out.values, ensemble=ens)), "an ensemble state nudged by 1e-6")

    jobs = wl_protocol.make_block(ctx, 0)
    job = first(jobs, lambda j: j.expect == "ok" and j.kind == "cor4")
    out = wl_protocol.execute(job, ctx)
    expect(wl_protocol.check(job, out).ok, "Corollary 4 job passes unperturbed")
    dec = out.values["decomposition"]
    basis = dec.basis_a.copy()
    basis[0, 0] += 1e-6
    flagged(wl_protocol, job, Outcome(values={"decomposition": dataclasses.replace(dec, basis_a=basis)}),
            "a Corollary 4 basis entry nudged by 1e-6")
    job = first(jobs, lambda j: j.expect == "ok" and j.kind in ("run", "enum"))
    out = wl_protocol.execute(job, ctx)
    expect(wl_protocol.check(job, out).ok, "protocol job passes unperturbed")
    trs = list(out.values["transcripts"])
    trs[0] = dataclasses.replace(trs[0], fidelity=1.0 - 1e-6)
    flagged(wl_protocol, job, Outcome(values={"transcripts": tuple(trs)}), "a branch fidelity of 1 - 1e-6")

    jobs = wl_cli.make_block(ctx, 0)
    job = first(jobs, lambda j: j.expect == "ok" and "repeat_of" not in j.data)
    out = wl_cli.execute(job, ctx)
    expect(wl_cli.check(job, out).ok, "CLI job passes unperturbed")
    flagged(wl_cli, dataclasses.replace(job, expect="reject"), out, "a wrong expected exit code")
    rep = first(jobs, lambda j: "repeat_of" in j.data)
    for j in jobs:
        if j.data["out"] in (rep.data["repeat_of"], rep.data["out"]):
            wl_cli.execute(j, ctx)
    expect(wl_cli.check(rep, Outcome(values={"exit": 0})).ok, "repeated CLI job is byte-identical")
    rep.data["out"].write_bytes(rep.data["out"].read_bytes().replace(b"\n", b"\n ", 1))
    flagged(wl_cli, rep, Outcome(values={"exit": 0}), "a repeated report that differs in one byte")


def main() -> int:
    run.require_source()
    tiny_runs()
    ctx = run.Context(seed=5, tiny=True, workdir=run.WORK / f"selfcheck-{os.getpid()}")
    ctx.env = __import__("wl_cli").subprocess_env()
    try:
        perturbations(ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print(f"selfcheck: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
