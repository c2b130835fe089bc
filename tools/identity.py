"""Identity harness: record what every public path returns on seeded fixtures, and compare trees.

    PYTHONPATH=TREE/src python3 tools/identity.py record DIR [--fixtures N] [--cli-fixtures N]
    python3 tools/identity.py --compare A B

``record`` runs fourteen public library paths (the table in ``_library_paths``) and nine CLI
jobs (the eight commands, ``protocol-run`` both sampled and ``--exhaustive``, through click's
``CliRunner``) on seeded fixture families, and writes one ``DIR/<path>.npz`` per path.  The
families are square, rectangular, rank-deficient, zero-padded and embedded targets, maximally
entangled and product targets, degenerate spectra, weights in (0, 1e-12], zero weights,
weights equal to the eigenvalues, numpy-integer sizes, domain rejections and invalid input.

Each fixture keeps three things, so two records share a digest only if their bits agree:
- its decisions: exit code, verdict, failing k, rank, sampled outcome, the type and message
  of an error, every other non-float field, and the dtype and shape of every float leaf;
- one complex vector holding every float and complex leaf, in order;
- a SHA-256 digest of the decisions, the exact bytes of every float leaf and, for a CLI job,
  the report bytes.

``--compare A B`` prints, per path: fixtures, byte-equal fixtures, the largest absolute
difference of a float leaf, and whether every decision is equal.  It exits 1 when a decision
differs or a path is missing on one side.  Inputs are built from the seed with numpy alone, so
every tree sees the same bytes.  Record each tree in its own process, the parent from
``git archive`` of its commit.  ``tests/test_identity_tool.py`` and ``tests/test_determinism.py``
pin within-build determinism on this one table: two records of one tree made in one process,
and each path's fixtures run twice in a row, must be byte-identical on every path.
Each CLI job writes its input files to a temporary directory; where creating a file is slow,
point ``TMPDIR`` at a memory file system such as ``/dev/shm``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
import zlib
from pathlib import Path

import numpy as np

SEED = 13  # every fixture's generator is seeded by (SEED, crc32 of its path name, its index)
FAMILY_TARGETS = ("square", "rectangular", "rank-deficient", "zero-padded", "embedded",
                  "maximally-entangled", "product", "numpy-int", "rejected", "invalid")
FAMILY_DENSITIES = ("full", "rank-deficient", "degenerate", "pure", "tiny", "invalid")
FAMILY_WEIGHTS = ("mixed", "eigenvalues", "tiny", "zeros", "rejected", "invalid")
FAMILY_PAIRS = ("mixed", "ties", "tiny", "zero-padded", "rejected", "invalid")


# ---------------------------------------------------------------- fingerprints

def _leaves(value, key=""):
    """Yield ``(key, kind, leaf)``: kind "v" for float or complex data, "d" for a decision."""
    if isinstance(value, Exception):
        yield key, "d", ["error", type(value).__name__, str(value)]
    elif isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        yield key, "v", value
    elif isinstance(value, np.ndarray):
        yield key, "d", [value.dtype.str, list(value.shape), value.tolist()]
    elif isinstance(value, (float, complex, np.floating, np.complexfloating)):
        yield key, "v", np.asarray(value)
    elif isinstance(value, (bool, int, str, type(None), np.integer, np.bool_)):
        yield key, "d", [type(value).__name__, value.item() if isinstance(value, np.generic) else value]
    elif isinstance(value, (tuple, list)):
        yield key, "d", [type(value).__name__, len(value)]
        for i, v in enumerate(value):
            yield from _leaves(v, f"{key}[{i}]")
    elif isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{key}.{k}")
    elif dataclasses.is_dataclass(value):
        # vars() takes in what a constructor stores besides its fields, such as a density's spectrum.
        yield key, "d", ["type", type(value).__name__]
        for k, v in sorted(vars(value).items()):
            yield from _leaves(v, f"{key}.{k}")
    else:
        raise TypeError(f"no fingerprint for {type(value).__name__} at {key!r}")


def _fixture_record(label: str, value, raw: bytes = b""):
    """The decisions, the float leaves as one complex vector, and the digest of one fixture."""
    decisions, values, digest = [["fixture", label]], [], hashlib.sha256(raw)
    for key, kind, leaf in _leaves(value):
        if kind == "v":
            decisions.append([key, "float", leaf.dtype.str, list(leaf.shape)])
            values.append(leaf.astype(np.complex128).ravel())
            digest.update(leaf.tobytes())
        else:
            decisions.append([key, *leaf])
    digest.update(json.dumps(decisions).encode())
    flat = np.concatenate(values) if values else np.zeros(0, np.complex128)
    return {"label": label, "digest": digest.hexdigest(), "decisions": decisions}, flat


# ---------------------------------------------------------------- fixtures

def _unit(rng, *shape):
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return m / np.linalg.norm(m)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _mix_down(y, rng):
    """Random two-coordinate averagings of y; the result is majorized by y."""
    x = np.array(y, dtype=np.float64)
    for _ in range(2 * x.size if x.size > 1 else 0):
        i, k = rng.choice(x.size, size=2, replace=False)
        t = rng.random()
        x[i], x[k] = t * x[i] + (1 - t) * x[k], (1 - t) * x[i] + t * x[k]
    return x


def _spectrum(rng, family):
    """Eigenvalues, decreasing, of a density of the family (2 <= n <= 6)."""
    n = int(rng.integers(2, 7))
    lam = rng.dirichlet(np.ones(n))
    if family == "rank-deficient":
        lam[int(rng.integers(1, n)):] = 0.0
    elif family == "degenerate":
        lam = np.repeat(rng.dirichlet(np.ones(2)), -(-n // 2))[:n]
    elif family == "pure":
        lam = np.eye(n)[0]
    elif family == "tiny":
        lam[1:] *= 1e-12
    return np.sort(lam / lam.sum())[::-1]


def _density(rng, family):
    """A density matrix U diag(lam) U^H, its nominal spectrum lam, and its eigenvectors U."""
    lam = _spectrum(rng, family)
    u = _unitary(rng, lam.size)
    rho = (u * lam) @ u.conj().T
    if family == "invalid":
        rho = [rho + 1e-3j * np.triu(np.ones_like(rho), 1), 1.5 * rho, np.diag([1.2, -0.2]),
               rho[:, :-1]][int(rng.integers(4))]
    return rho, lam, u


def _weights(rng, lam, family):
    """Weights majorized by lam, or, in the last two families, weights that are not (unless lam is pure)."""
    p = _mix_down(np.concatenate([lam, np.zeros(int(rng.integers(0, 3)))]), rng)
    if family == "eigenvalues":
        return lam.copy()
    if family == "tiny":  # a Robin Hood transfer of up to 1e-12 into new slots
        eps = rng.uniform(0, 1e-12, size=int(rng.integers(1, 3))) + 1e-300
        p[int(np.argmax(p))] -= eps.sum()
        return np.concatenate([p, eps])
    if family == "zeros":
        return np.concatenate([p, np.zeros(2)])
    if family == "rejected":
        return np.eye(lam.size + 1)[0]
    if family == "invalid":
        return np.concatenate([[-0.25, 1.25], np.zeros(lam.size)])
    return p


def _pair(rng, family):
    """(x, y), x majorized by y except in the last two families."""
    y = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
    if family == "ties":
        y = np.repeat(rng.dirichlet(np.ones(2)), -(-y.size // 2))[: y.size]
        y = y / y.sum()
    elif family == "tiny":
        y[1:] *= 1e-13
        y = y / y.sum()
    if family == "zero-padded":
        return _mix_down(np.concatenate([y, np.zeros(2)]), rng), y
    if family == "rejected":
        return np.eye(y.size)[0], y
    if family == "invalid":
        return np.concatenate([[-0.5, 1.5], np.zeros(y.size - 2)]), y
    return _mix_down(y, rng), y


def _target(rng, family, max_d=8):
    """Target amplitudes and a source rank d; the rejected family has rank d + 1, the invalid d = 0."""
    n = int(rng.integers(1, max_d + 1))
    if family == "rectangular":
        amps = _unit(rng, n, n + int(rng.integers(1, 3)))
    elif family == "rank-deficient":
        r = max(1, n // 2)
        amps = _unit(rng, n, r) @ _unit(rng, r, n + 1)
    elif family in ("zero-padded", "embedded"):
        amps = _unit(rng, (n + 1) // 2, n // 2 + 1)
        if family == "embedded":
            amps = np.pad(amps, ((0, 1), (0, 2)))
    elif family == "maximally-entangled":
        amps = np.eye(n, dtype=complex)
    elif family == "product":
        amps = np.outer(_unit(rng, n), _unit(rng, n + 1))
    elif family == "rejected":
        amps = _unit(rng, n + 1, n + 1)
    else:
        amps = _unit(rng, n, n)
    amps = amps / np.linalg.norm(amps)
    d = max(amps.shape) + (int(rng.integers(1, 3)) if family == "zero-padded" else 0)
    return amps, {"numpy-int": np.int64(d), "rejected": n, "invalid": 0}.get(family, d)


def _family(families, i):
    return families[i % len(families)]


# ---------------------------------------------------------------- library paths

def _library_paths(q):
    """Each path maps ``(rng, i)`` to ``(label, thunk)``; the thunk runs the library."""

    def density(rng, i):
        fam = _family(FAMILY_DENSITIES, i)
        return fam, _density(rng, fam)

    def synthesis(rng, i):
        fam_rho, fam_p = _family(FAMILY_DENSITIES[:-1], i), _family(FAMILY_WEIGHTS, i // 5)
        rho, lam, _ = _density(rng, fam_rho)
        return f"{fam_rho}/{fam_p}", rho, _weights(rng, lam, fam_p)

    def pair(rng, i):
        fam = _family(FAMILY_PAIRS, i)
        return (fam, *_pair(rng, fam))

    def target(rng, i, max_d=8):
        fam = _family(FAMILY_TARGETS, i)
        amps, d = _target(rng, fam, max_d)
        return fam, amps, d

    def synth_path(rng, i):
        label, rho, p = synthesis(rng, i)
        return label, lambda: q.synthesize_ensemble(q.validate_density(rho), p)

    def entropy_path(rng, i):
        label, rho, p = synthesis(rng, i)
        return label, lambda: q.entropy_report(q.synthesize_ensemble(q.validate_density(rho), p))

    def uniform_path(rng, i):
        fam = _family(FAMILY_DENSITIES[:-1], i)
        rho, lam, _ = _density(rng, fam)
        m = int(np.sum(lam > 1e-9)) + int(rng.integers(-1, 4))
        m = np.int32(m) if i % 7 == 3 else m
        return fam, lambda: q.uniform_ensemble(q.validate_density(rho), m)

    def cor4_path(rng, i):
        fam, amps, _ = target(rng, i)
        coeffs = np.sort(np.linalg.svd(amps, compute_uv=False) ** 2)[::-1]
        fam_q = _family(FAMILY_WEIGHTS, i // 3)
        q_weights = _weights(rng, coeffs, fam_q)
        return f"{fam}/{fam_q}", lambda: q.corollary4_decompose(q.BipartiteState(amplitudes=amps),
                                                                 q_weights)

    def run_path(rng, i):
        fam, amps, d = target(rng, i, 12)
        seed = int(rng.integers(0, 2**31))
        return fam, lambda: q.run_protocol(q.BipartiteState(amplitudes=amps), d, seed)

    def enumerate_path(rng, i):
        fam, amps, d = target(rng, i)
        return fam, lambda: q.enumerate_protocol(q.BipartiteState(amplitudes=amps), d)

    def purification_path(rng, i):
        fam, amps, _ = target(rng, i)
        u = _unitary(rng, amps.shape[0])
        other = u @ amps if i % 9 != 8 else _unit(rng, *amps.shape)  # the last: unrelated states
        return fam, lambda: q.relate_purifications(q.BipartiteState(amplitudes=amps),
                                                   q.BipartiteState(amplitudes=other))

    def measurement_path(rng, i):
        d = int(rng.integers(1, 7))
        dim_b = d + int(rng.integers(0, 3))
        fam = ("random", "orthonormal", "identical", "invalid")[i % 4]
        rows = _unitary(rng, d) if fam == "orthonormal" else _unit(rng, d, d)
        if fam == "identical":
            rows = np.tile(rows[0], (d, 1))
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True) * (2 if fam == "invalid" else 1)
        states = np.pad(rows, ((0, 0), (0, dim_b - d)))
        source = np.pad(np.eye(d, dtype=complex) / np.sqrt(d), ((0, 0), (0, dim_b - d)))

        def run():
            meas = q.build_measurement(states, d)
            return meas, q.outcome_distribution(meas, q.BipartiteState(amplitudes=source))
        return fam, run

    def simple(make, call):
        def path(rng, i):
            label, *args = make(rng, i)
            return label, lambda: call(*args)
        return path

    return {
        "hermitian_eig": simple(density, lambda dens: q.hermitian_eig(dens[0])),
        "validate_density": simple(density, lambda dens: q.validate_density(dens[0])),
        "synthesize_ensemble": synth_path,
        "uniform_ensemble": uniform_path,
        "t_transform_chain": simple(pair, q.t_transform_chain),
        "horn_orthogonal": simple(pair, q.horn_orthogonal),
        "check_schur_inequalities": simple(pair, q.check_schur_inequalities),
        "entropy_report": entropy_path,
        "schmidt": simple(target, lambda amps, d: q.schmidt(q.BipartiteState(amplitudes=amps))),
        "corollary4_decompose": cor4_path,
        "run_protocol": run_path,
        "enumerate_protocol": enumerate_path,
        "relate_purifications": purification_path,
        "build_measurement+outcome_distribution": measurement_path,
    }


# ---------------------------------------------------------------- CLI jobs

def _entries(a):
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def _probvec(w):
    return {"kind": "probvec", "weights": np.asarray(w, dtype=float).tolist()}


def _bipartite(amps):
    return {"kind": "bipartite", "amplitudes": _entries(amps)}


def _cli_jobs():
    """Each job maps ``(rng, i)`` to ``(label, args, documents)``; a str document is sent as is."""
    malformed = ('{"kind": "bipartite", "amp', '{"kind": "probvec", "weights": "ab"}', "[]")

    def pair_job(command):
        def job(rng, i):
            if i % 10 == 9:
                return "malformed", [command], [malformed[i % 3], _probvec([1.0])]
            fam = _family(FAMILY_PAIRS, i)
            x, y = _pair(rng, fam)
            tol = ["--tol-major", ("0", "1e-12", "nan")[i % 3]] if i % 4 == 1 else []
            return fam, [command, *tol], [_probvec(x), _probvec(y)]
        return job

    def synth(rng, i):
        fam_rho, fam_p = _family(FAMILY_DENSITIES, i), _family(FAMILY_WEIGHTS, i // 6)
        rho, lam, _ = _density(rng, fam_rho)
        return f"{fam_rho}/{fam_p}", ["ensemble-synth"], [
            {"kind": "density", "entries": _entries(rho)}, _probvec(_weights(rng, lam, fam_p))]

    def verify(rng, i):
        fam = ("exact", "perturbed", "invalid")[i % 3]
        rho, lam, u = _density(rng, FAMILY_DENSITIES[i % 4])
        states = u.T + (1e-6 if fam == "perturbed" else 0) * _unit(rng, *u.shape)
        states = states / np.linalg.norm(states, axis=1, keepdims=True) * (2 if fam == "invalid" else 1)
        return fam, ["ensemble-verify"], [
            {"kind": "ensemble", "weights": lam.tolist(), "states": _entries(states)},
            {"kind": "density", "entries": _entries(rho)}]

    def bipartite_job(command, extra):
        def job(rng, i):
            fam = _family(FAMILY_TARGETS, i)
            amps, d = _target(rng, fam, 6 if "--exhaustive" in extra else 12)
            args = [command, *(["--d", str(int(d))] if command == "protocol-run" else [])]
            args += [str(int(rng.integers(0, 2**31))) if a == "SEED" else a for a in extra]
            docs = [_bipartite(amps)]
            if command == "corollary4":
                coeffs = np.sort(np.linalg.svd(amps, compute_uv=False) ** 2)[::-1]
                docs.append(_probvec(_weights(rng, coeffs, _family(FAMILY_WEIGHTS, i // 3))))
            return fam, args, docs
        return job

    return {
        "cli:majorize-check": pair_job("majorize-check"),
        "cli:majorize-decompose": pair_job("majorize-decompose"),
        "cli:schur-report": pair_job("schur-report"),
        "cli:ensemble-synth": synth,
        "cli:ensemble-verify": verify,
        "cli:schmidt": bipartite_job("schmidt", []),
        "cli:corollary4": bipartite_job("corollary4", []),
        "cli:protocol-run": bipartite_job("protocol-run", ["--seed", "SEED"]),
        "cli:protocol-run --exhaustive": bipartite_job("protocol-run", ["--exhaustive"]),
    }


def _run_cli(main, runner, args, docs):
    names = []
    for k, doc in enumerate(docs):
        names.append(f"in{k}.json")
        Path(names[-1]).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    res = runner.invoke(main, [*args, *(a for n in names for a in ("-i", n))])
    raw = res.stdout_bytes
    try:
        report = json.loads(raw)
    except ValueError:
        report = None
    crash = None if isinstance(res.exception, (SystemExit, type(None))) else res.exception
    return {"exit_code": res.exit_code, "report": report, "crash": crash}, raw


# ---------------------------------------------------------------- record / compare

def _paths(q) -> dict:
    """Every path the harness records: the library paths, then the CLI jobs."""
    return {**_library_paths(q), **_cli_jobs()}


def _run_fixture(name, make, i, cli, runner):
    """Fixture i of one path, on inputs built afresh from the seed: its entry and its float leaves.

    A CLI job writes its input files to the working directory.
    """
    rng = np.random.default_rng([SEED, zlib.crc32(name.encode()), i])
    if name.startswith("cli:"):
        label, args, docs = make(rng, i)
        value, raw = _run_cli(cli, runner, args, docs)
    else:
        label, thunk = make(rng, i)
        try:
            value, raw = thunk(), b""
        except Exception as exc:  # a rejection is a decision to record
            value, raw = exc, b""
    return _fixture_record(f"{i}:{label}", value, raw)


def record(out: Path, fixtures: int, cli_fixtures: int) -> None:
    import qmajor
    from click.testing import CliRunner
    from qmajor.cli import main

    out = out.resolve()  # the CLI jobs run in a temporary working directory
    out.mkdir(parents=True, exist_ok=True)
    runner = CliRunner()
    for name, make in _paths(qmajor).items():
        count = cli_fixtures if name.startswith("cli:") else fixtures
        meta, arrays = [], {}
        with runner.isolated_filesystem():
            for i in range(count):
                entry, arrays[f"values{i}"] = _run_fixture(name, make, i, main, runner)
                meta.append(entry)
        info = {"path": name, "qmajor": qmajor.__file__, "numpy": np.__version__, "fixtures": meta}
        np.savez_compressed(out / f"{name.replace(':', '_').replace(' ', '_')}.npz",
                            meta=np.array(json.dumps(info)), **arrays)
        print(f"{name:42s} {count:5d} fixtures", flush=True)


def _load(directory: Path) -> dict:
    records = {}
    for f in sorted(directory.glob("*.npz")):
        with np.load(f) as z:
            info = json.loads(str(z["meta"]))
            info["values"] = [z[f"values{i}"] for i in range(len(info["fixtures"]))]
        records[info["path"]] = info
    return records


def _max_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over entries whose bits differ; NaN when a NaN meets a number."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.where(same, 0.0, np.abs(a - b)), initial=0.0))


def _segments(decisions):
    """``(key pattern, start, stop)`` of each float leaf in a fixture's value vector."""
    start = 0
    for entry in decisions:
        if len(entry) == 4 and entry[1] == "float":
            stop = start + int(np.prod(entry[3], dtype=np.int64))
            yield re.sub(r"\[\d+\]", "[*]", entry[0]), start, stop
            start = stop


def compare(a_dir: Path, b_dir: Path) -> int:
    """Print the per-path table, then the leaves that moved and the first differing decisions."""
    a, b = _load(a_dir), _load(b_dir)
    print(f"A: {a_dir}\nB: {b_dir}")
    print(f"{'path':42s} {'fixtures':>8s} {'byte-equal':>10s} {'max |diff|':>11s}  decisions")
    failed, moved, examples = False, {}, []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name:42s} missing in {'A' if name not in a else 'B'}")
            failed = True
            continue
        fa, fb = a[name]["fixtures"], b[name]["fixtures"]
        equal_bytes, diffs, decisions_equal = 0, [], len(fa) == len(fb)
        for ea, eb, va, vb in zip(fa, fb, a[name]["values"], b[name]["values"]):
            if ea["digest"] == eb["digest"]:
                equal_bytes += 1
            elif ea["decisions"] != eb["decisions"]:
                decisions_equal = False
                if sum(line.startswith(name + " ") for line in examples) < 3:
                    first = next((x, y) for x, y in zip(ea["decisions"] + [None], eb["decisions"] + [None])
                                 if x != y)
                    examples.append(f"{name} fixture {ea['label']}: {first[0]} != {first[1]}")
            else:
                leaves = {}
                for pattern, i, j in _segments(ea["decisions"]):
                    if va[i:j].tobytes() != vb[i:j].tobytes():
                        leaves.setdefault(pattern, []).append(_max_diff(va[i:j], vb[i:j]))
                for pattern, leaf_diffs in leaves.items():  # one entry per fixture and leaf key
                    diffs.append(float(np.max(leaf_diffs)))
                    moved.setdefault((name, pattern), []).append(diffs[-1])
        worst = float(np.max(diffs, initial=0.0))  # a NaN, if any, propagates
        failed |= not decisions_equal
        print(f"{name:42s} {len(fa):8d} {equal_bytes:10d} {worst:11.3g}  "
              f"{'equal' if decisions_equal else 'DIFFER'}")
    for (name, pattern), leaf_diffs in sorted(moved.items()):
        print(f"  moved: {name} {pattern} in {len(leaf_diffs)} fixtures, "
              f"max |diff| {np.max(leaf_diffs):.3g}")
    for line in examples:
        print(f"  decision: {line}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", nargs="*", metavar="record DIR",
                    help="record every path's fixtures into DIR, one .npz per path")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path,
                    help="compare two record directories")
    ap.add_argument("--fixtures", type=int, default=240, help="fixtures per library path")
    ap.add_argument("--cli-fixtures", type=int, default=120, help="fixtures per CLI job")
    args = ap.parse_args(argv)
    if args.compare and not args.command:
        return compare(*args.compare)
    if len(args.command) == 2 and args.command[0] == "record" and not args.compare:
        record(Path(args.command[1]), args.fixtures, args.cli_fixtures)
        return 0
    ap.error("give either 'record DIR' or '--compare A B'")


if __name__ == "__main__":
    sys.exit(main())
