#!/usr/bin/env python3
"""qmajor benchmark: four seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble-spectral --seed 1 --seconds 20 --trace 0

One client sends the next job only after the last one completed.  Whole
blocks of jobs run until ``--seconds`` have passed and at least 100 jobs are
done, so the p90 has ten samples beyond it.  With ``--trace 0`` the run
reports the end-to-end metrics with tracing off, its timings scaled to a
reference host speed measured in the same run; with ``--trace 1`` it wraps
qmajor's public functions and reports per-layer counts and self times
(see README.md).  Every output is checked against the pinned acceptance
tolerances.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread for this process and every child, set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from common import PROPERTIES, Context, Verdict  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "ensemble-spectral": "wl_ensemble",
    "witness-sweep": "wl_witness",
    "protocol-convert": "wl_protocol",
    "cli-batch": "wl_cli",
}
MIN_JOBS = 100
MIN_SETUP_PROBES = 5
MAX_SETUP_PROBES = 9
# The reference kernel runs at most this often, and reported timings are
# scaled to a host on which it takes REFERENCE_NOMINAL_S (its median on the
# 2-core x86-64 host the benchmark was defined on).
REFERENCE_EVERY_S = 0.2
REFERENCE_NOMINAL_S = 0.0045
IMPORT_PROBES = 5

# Metrics of the result line.  ``fail_ratio`` and ``max_defect_frac`` are
# printed in the table only: they read 0 and roundoff-level on a healthy
# library, so the result line carries ``failed`` and the headroom instead.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "defect_headroom_digits": "digits",
}
TABLE_ONLY = {"fail_ratio": "ratio", "max_defect_frac": "ratio"}
PER_LAYER = {
    "numkernel.hermitian_eig.calls": "count",
    "numkernel.hermitian_eig.self_s": "s",
    "numkernel.hermitian_eig.p50_ms.n8": "ms",
    "numkernel.hermitian_eig.p50_ms.n16": "ms",
    "numkernel.hermitian_eig.p50_ms.n32": "ms",
    "numkernel.hermitian_eig.p50_ms.n48": "ms",
    "numkernel.validate_density.self_s": "s",
    "numkernel.complete_basis.self_s": "s",
    "majorize.majorization_violation.calls": "count",
    "majorize.majorization_violation.self_s": "s",
    "majorize.t_transform_chain.self_s": "s",
    "majorize.check_schur_inequalities.self_s": "s",
    "majorize.horn_orthogonal.self_s": "s",
    "majorize.horn_orthogonal.p50_ms.d64": "ms",
    "majorize.horn_orthogonal.p50_ms.d128": "ms",
    "majorize.horn_orthogonal.p50_ms.d256": "ms",
    "majorize.rejections": "ratio",
    "ensembles.synthesize_ensemble.self_s": "s",
    "ensembles.verify_ensemble.self_s": "s",
    "ensembles.entropy_report.self_s": "s",
    "bipartite.schmidt.calls": "count",
    "bipartite.schmidt.self_s": "s",
    "bipartite.reduced_density.calls": "count",
    "bipartite.relate_purifications.self_s": "s",
    "bipartite.corollary4_decompose.self_s": "s",
    "bipartite.corollary4_decompose.p50_ms.d8": "ms",
    "bipartite.corollary4_decompose.p50_ms.d16": "ms",
    "bipartite.corollary4_decompose.p50_ms.d24": "ms",
    "protocol.build_measurement.self_s": "s",
    "protocol.build_measurement.alloc_peak_mb": "MB",
    "protocol.weyl_op.calls": "count",
    "protocol.outcome_distribution.self_s": "s",
    "protocol.enumerate_protocol.self_s": "s",
    "protocol.enumerate_protocol.p50_ms.d8": "ms",
    "protocol.enumerate_protocol.p50_ms.d16": "ms",
    "protocol.enumerate_protocol.p50_ms.d24": "ms",
    "cli.import_ms": "ms",
    "cli.parse_input.self_s": "s",
    "cli.encode.self_s": "s",
    "cli.main.self_s": "s",
    "cli.tracebacks": "count",
    "trace.overhead_s": "s",
    "trace.jobs": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up once (import, inputs, warm-up job) and exit")
    return ap.parse_args(argv)


def require_source() -> None:
    """Import qmajor from this checkout's src/, or stop before printing a result."""
    if not (SRC / "qmajor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qmajor sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def load_workload(name: str):
    module = importlib.import_module(WORKLOADS[name])
    qmajor = sys.modules.get("qmajor")
    if qmajor is not None and SRC not in Path(qmajor.__file__).resolve().parents:
        sys.exit(f"perfbench: qmajor was imported from {qmajor.__file__}, not from {SRC}")
    return module


def make_context(wl, args):
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    ctx = Context(seed=args.seed, tiny=args.tiny, workdir=workdir)
    if hasattr(wl, "subprocess_env"):
        ctx.env = wl.subprocess_env()
    return ctx


def warmup_index(jobs) -> int:
    """The cheapest job of a block, so set-up does not depend on the block order."""
    return min(range(len(jobs)), key=lambda i: (jobs[i].size, i))


# ---------------------------------------------------------------- end to end

@dataclass
class Record:
    block: int
    latency: float
    ok: bool
    defect_frac: float
    props: frozenset
    known_defect: str | None
    rss_kb: int
    traceback: bool
    problems: list


def run_job(wl, job, ctx, block: int) -> Record:
    t0 = time.perf_counter()
    outcome = wl.execute(job, ctx)
    latency = time.perf_counter() - t0
    try:
        verdict = wl.check(job, outcome)
    except Exception:  # output too malformed to check: a failed job, not a crashed run
        verdict = Verdict(ok=False, problems=[traceback.format_exc(limit=2)])
    return Record(block, latency, verdict.ok, verdict.defect_frac, job.props, job.known_defect,
                  outcome.values.get("rss_kb", 0), outcome.values.get("traceback", False),
                  verdict.problems)


def setup_probe(args) -> None:
    wl = load_workload(args.workload)
    ctx = make_context(wl, args)
    try:
        jobs = wl.make_block(ctx, 0)
        wl.execute(jobs[warmup_index(jobs)], ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def setup_probe_cmd(args) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])


def time_setup(cmd) -> float:
    """Wall time of a fresh interpreter doing import, input generation and one warm-up job."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - t0


def quantile(values, q: int) -> float:
    """The q-th decile (q=5 median, q=9 p90), interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Reference:
    """Host speed, from a fixed CPU kernel that never touches qmajor.

    The kernel mixes what qmajor's jobs spend time on: a Python loop,
    small-array numpy operations and a 256x256 BLAS product.  It runs between
    jobs, at most every REFERENCE_EVERY_S.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)
        self.v = np.linspace(0.0, 1.0, 8) + 1j * np.linspace(1.0, 0.0, 8)
        self.samples: list[float] = []
        self.last = 0.0

    def _kernel(self) -> None:
        acc = 0
        for i in range(25_000):
            acc += i * i
        w = self.v.copy()
        for _ in range(400):
            w = w * 0.999 + self.np.conj(w[::-1]) * 0.001
        self.a @ self.a

    def sample(self) -> None:
        now = time.perf_counter()
        if now - self.last >= REFERENCE_EVERY_S:
            self._kernel()
            self.last = time.perf_counter()
            self.samples.append(self.last - now)

    def scale(self) -> float:
        """Factor that turns this run's wall-clock times into reference-speed times."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


def end_to_end(wl, ctx, args):
    """Closed loop over whole blocks; timings are reported at the reference speed.

    The host's speed drifts by 10-30 % between runs a minute apart.  Every
    timing of a run is multiplied by REFERENCE_NOMINAL_S over the median time
    of the reference kernel in that run, which removes most of that drift.
    The raw wall-clock figures go to the detail line.
    """
    ref = Reference()
    probe = setup_probe_cmd(args)
    setup_times = [time_setup(probe)]
    jobs = wl.make_block(ctx, 0)
    wl.execute(jobs[warmup_index(jobs)], ctx)
    records: list[Record] = []
    measured = 0.0
    block = 0
    while True:
        start = time.perf_counter()
        if block:
            jobs = wl.make_block(ctx, block)
        for job in jobs:
            records.append(run_job(wl, job, ctx, block))
            ref.sample()
        measured += time.perf_counter() - start
        block += 1
        # Set-up probes run between blocks, so their median spans the run.
        if len(setup_times) < MAX_SETUP_PROBES:
            setup_times.append(time_setup(probe))
        if len(records) >= (1 if args.tiny else MIN_JOBS) and measured >= args.seconds:
            break
    while len(setup_times) < MIN_SETUP_PROBES:
        setup_times.append(time_setup(probe))
    latencies = [r.latency for r in records]
    wall_clock = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": statistics.median(
            sum(r.ok for r in records if r.block == b) / sum(r.latency for r in records if r.block == b)
            for b in range(block)),
        "job_p50_ms": quantile(latencies, 5) * 1e3,
        "job_p90_ms": quantile(latencies, 9) * 1e3,
    }
    scale = ref.scale()
    defects = [r.defect_frac for r in records if r.ok and r.defect_frac > 0.0]
    if any(r.rss_kb for r in records):  # CLI jobs: the largest child process
        rss_kb = max(r.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": wall_clock["setup_s"] * scale,
        "jobs_per_s": wall_clock["jobs_per_s"] / scale,
        "job_p50_ms": wall_clock["job_p50_ms"] * scale,
        "job_p90_ms": wall_clock["job_p90_ms"] * scale,
        "peak_rss_mb": rss_kb / 1024,
        "defect_headroom_digits": -math.log10(max(statistics.median(defects), 1e-16)) if defects else 16.0,
        "fail_ratio": sum(not r.ok for r in records) / len(records),
        "max_defect_frac": max(defects, default=0.0),
    }
    extra = {"blocks": block, "measured_s": measured, "setup_probes_s": setup_times,
             "reference_ms": statistics.median(ref.samples) * 1e3, "reference_samples": len(ref.samples),
             "wall_clock": wall_clock}
    return records, metrics, extra


# ---------------------------------------------------------------- traced run

def import_ms() -> float:
    """Median wall time of ``import qmajor.cli`` in fresh interpreters."""
    from wl_cli import subprocess_env

    code = "import time; t = time.perf_counter(); import qmajor.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                             env=subprocess_env(), cwd=ROOT)
        samples.append(float(res.stdout) * 1e3)
    return statistics.median(samples)


def traced(wl, ctx, args):
    from tracing import Tracer, p50_ms

    ctx.in_process = True
    jobs = wl.make_block(ctx, 0)
    start = time.perf_counter()
    wl.execute(jobs[warmup_index(jobs)], ctx)
    records = [run_job(wl, job, ctx, 0) for job in jobs]
    untraced_s = sum(r.latency for r in records)

    tracer = Tracer()
    tracer.install()
    ctx.span = tracer.span
    passes, traced_s = 0, 0.0
    try:
        while True:
            for i, job in enumerate(jobs):
                tracer.job = passes * len(jobs) + i
                with tracer.span("job"):
                    record = run_job(wl, job, ctx, passes + 1)
                records.append(record)
                traced_s += record.latency
            passes += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        tracer.uninstall()

    s = tracer.summary()

    def calls(name):
        return s[name]["calls"] / passes if name in s else 0

    def self_s(*names):
        return sum(s[n]["self_s"] for n in names if n in s) / passes

    def p50(name, bucket):
        return p50_ms(s[name]["sizes"].get(bucket, [])) if name in s else 0.0

    rejection_jobs = sum("rejection" in job.props for job in jobs) * passes
    metrics = {
        "numkernel.hermitian_eig.calls": calls("numkernel.hermitian_eig"),
        "numkernel.hermitian_eig.self_s": self_s("numkernel.hermitian_eig"),
        "numkernel.validate_density.self_s": self_s("numkernel.validate_density"),
        "numkernel.complete_basis.self_s": self_s("numkernel.complete_basis"),
        "majorize.majorization_violation.calls": calls("majorize.majorization_violation"),
        "majorize.majorization_violation.self_s": self_s("majorize.majorization_violation"),
        "majorize.t_transform_chain.self_s": self_s("majorize.t_transform_chain"),
        "majorize.check_schur_inequalities.self_s": self_s("majorize.check_schur_inequalities"),
        "majorize.horn_orthogonal.self_s": self_s("majorize.horn_orthogonal"),
        "majorize.rejections": (len(tracer.jobs_raising("MajorizationError")) / rejection_jobs
                                if rejection_jobs else 0.0),
        "ensembles.synthesize_ensemble.self_s": self_s("ensembles.synthesize_ensemble"),
        "ensembles.verify_ensemble.self_s": self_s("ensembles.verify_ensemble"),
        "ensembles.entropy_report.self_s": self_s("ensembles.entropy_report"),
        "bipartite.schmidt.calls": calls("bipartite.schmidt"),
        "bipartite.schmidt.self_s": self_s("bipartite.schmidt"),
        "bipartite.reduced_density.calls": calls("bipartite.reduced_density"),
        "bipartite.relate_purifications.self_s": self_s("bipartite.relate_purifications"),
        "bipartite.corollary4_decompose.self_s": self_s("bipartite.corollary4_decompose"),
        "protocol.build_measurement.self_s": self_s("protocol.build_measurement"),
        "protocol.build_measurement.alloc_peak_mb": tracer.alloc_peak_mb("protocol.build_measurement"),
        "protocol.weyl_op.calls": calls("protocol.weyl_op"),
        "protocol.outcome_distribution.self_s": self_s("protocol.outcome_distribution"),
        "protocol.enumerate_protocol.self_s": self_s("protocol.enumerate_protocol"),
        "cli.import_ms": import_ms() if args.workload == "cli-batch" else 0.0,
        "cli.parse_input.self_s": self_s("cli.parse_input", "cli.parse_document"),
        "cli.encode.self_s": self_s(*(n for n in s if n.startswith("cli.encode_"))),
        "cli.main.self_s": self_s("cli.main"),
        "cli.tracebacks": sum(r.traceback for r in records[len(jobs):]) / passes,
        "trace.overhead_s": traced_s / passes - untraced_s,
        "trace.jobs": len(jobs),
    }
    for n in (8, 16, 32, 48):
        metrics[f"numkernel.hermitian_eig.p50_ms.n{n}"] = p50("numkernel.hermitian_eig", f"n{n}")
    for d in (64, 128, 256):
        metrics[f"majorize.horn_orthogonal.p50_ms.d{d}"] = p50("majorize.horn_orthogonal", f"d{d}")
    for d in (8, 16, 24):
        metrics[f"bipartite.corollary4_decompose.p50_ms.d{d}"] = p50("bipartite.corollary4_decompose", f"d{d}")
        metrics[f"protocol.enumerate_protocol.p50_ms.d{d}"] = p50("protocol.enumerate_protocol", f"d{d}")

    TRACE_OUT.mkdir(exist_ok=True)
    spans_path = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed, "passes": passes})
    layer_self = defaultdict(float)  # "job" is the benchmark's own time between library calls
    for name, entry in s.items():
        layer_self[name.split(".")[0]] += entry["self_s"] / passes
    extra = {"passes": passes, "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "untraced_pass_s": untraced_s, "traced_pass_s": traced_s / passes,
             "layer_self_s": layer_self}
    return records, metrics, extra


# ---------------------------------------------------------------- reporting

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def fingerprint(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmajor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
        "lapack": f"{deps['lapack'].get('name')} {deps['lapack'].get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def shares(records) -> dict:
    return {p: sum(p in r.props for r in records) / len(records) for p in PROPERTIES}


def report(args, records, metrics, extra) -> int:
    units = dict(PER_LAYER) if args.trace else {**END_TO_END, **TABLE_ONLY}
    unexpected = [r for r in records if not r.ok and not r.known_defect]
    contract = [r for r in records if not r.ok and r.known_defect]
    mode = "traced" if args.trace else "end-to-end"
    print(f"# qmajor benchmark: workload={args.workload} seed={args.seed} mode={mode}")
    for name, unit in units.items():
        print(f"{name:<46} {metrics[name]:>14.6g} {unit}")
    if args.trace:
        total = sum(extra["layer_self_s"].values()) or 1.0
        print("layer self-time share: " + "  ".join(
            f"{layer} {t / total:.1%}" for layer, t in sorted(extra["layer_self_s"].items(), key=lambda kv: -kv[1])))
    print("case shares: " + "  ".join(f"{p} {v:.1%}" for p, v in shares(records).items()))
    print(f"jobs: {len(records)} attempted, {len(unexpected)} failed, "
          f"{len(contract)} failed with a known defect")
    for defect in sorted({r.known_defect for r in contract}):
        print(f"known defect: {sum(r.known_defect == defect for r in contract)} x {defect}")
    for r in unexpected[:5]:
        print("failure: " + "; ".join(r.problems), file=sys.stderr)
    print("detail: " + json.dumps({**extra, "fingerprint": fingerprint(args.seed)}, sort_keys=True))
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(unexpected),
        "metrics": {n: {"value": float(metrics[n]), "unit": names[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.setup_probe:
        setup_probe(args)
        return 0
    wl = load_workload(args.workload)
    ctx = make_context(wl, args)
    try:
        records, metrics, extra = (traced if args.trace else end_to_end)(wl, ctx, args)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()
    return report(args, records, metrics, extra)


if __name__ == "__main__":
    sys.exit(main())
