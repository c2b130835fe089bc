"""Shared pieces of the qmajor benchmark: jobs, verdicts, numpy-only generators.

Inputs are drawn with plain numpy (never with ``qmajor.random_density``), so
every timed job includes the library's own validation and eigensolves.
Reference predicates here use LAPACK through numpy and never call qmajor.
"""

from __future__ import annotations

import contextlib
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Pinned acceptance tolerances (tests/test_acceptance.py).  A defect is
# reported as its measured value divided by the bound of its class.
BOUNDS = {
    "recon": 1e-8,
    "orth": 1e-10,
    "complete": 1e-10,
    "fidelity": 1e-9,
    "major": 1e-9,
}

# Case properties whose share each run reports.
PROPERTIES = ("degenerate", "rank-deficient", "zero-padded", "rejection", "malformed")

# Two nonzero eigenvalues (or weights) closer than this count as a tie.
TIE_GAP = 1e-9
# Eigenvalues at or below this count as zero when measuring rank.
RANK_FLOOR = 1e-10


@dataclass
class Job:
    """One closed-loop request: an operation, its inputs and what must happen."""

    label: str
    kind: str
    size: int
    expect: str  # "ok", "reject" (domain rejection) or "input-error"
    data: dict
    props: frozenset = frozenset()
    known_defect: str | None = None


@dataclass
class Context:
    """Per-run settings a workload needs besides the job itself."""

    seed: int
    tiny: bool = False
    workdir: Path | None = None  # directory for CLI input and report files
    in_process: bool = False  # run CLI jobs through qmajor.cli.main, not a subprocess
    span: object = contextlib.nullcontext  # span(name) context manager of a tracer
    env: dict = field(default_factory=dict)  # environment of CLI subprocesses


@dataclass
class Outcome:
    """What a job produced: named values, or the exception it raised."""

    values: dict = field(default_factory=dict)
    error: BaseException | None = None
    error_text: str = ""


@dataclass
class Verdict:
    ok: bool
    defect_frac: float = 0.0
    problems: list = field(default_factory=list)


class Checker:
    """Collects defect ratios and failed expectations for one job."""

    def __init__(self):
        self.worst = 0.0
        self.problems: list[str] = []

    def defect(self, what: str, value: float, bound_class: str) -> None:
        frac = float(value) / BOUNDS[bound_class]
        if not np.isfinite(frac) or frac > 1.0:
            self.problems.append(f"{what}: {value:.3e} exceeds {BOUNDS[bound_class]:g}")
            frac = float("inf") if not np.isfinite(frac) else frac
        self.worst = max(self.worst, frac)

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)

    def verdict(self) -> Verdict:
        return Verdict(ok=not self.problems, defect_frac=self.worst, problems=self.problems)


def capture(fn, *args) -> Outcome:
    """Run one job body; an exception is data for the checker, not a crash."""
    out = Outcome()
    try:
        fn(out.values, *args)
    except Exception as exc:  # the checker decides whether it was expected
        out.error = exc
        out.error_text = traceback.format_exc(limit=3)
    return out


def expect_rejection(chk: Checker, outcome: Outcome, accepted: tuple) -> None:
    err = outcome.error
    chk.require(
        err is not None and isinstance(err, accepted),
        f"expected {'/'.join(c.__name__ for c in accepted)}, got "
        + (type(err).__name__ if err is not None else "success"),
    )


def expect_success(chk: Checker, outcome: Outcome) -> bool:
    if outcome.error is not None:
        chk.require(False, f"unexpected {type(outcome.error).__name__}: {outcome.error}")
        return False
    return True


def block_rng(seed: int, workload_id: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, workload_id, block])


def mix_down(y, rng, rounds: int) -> np.ndarray:
    """Random two-coordinate averagings of y; the result is majorized by y."""
    x = np.asarray(y, dtype=np.float64).copy()
    n = x.size
    if n < 2:
        return x
    pairs = rng.integers(0, n, size=(rounds, 2))
    ts = rng.random(rounds)
    for (i, k), t in zip(pairs, ts):
        if i != k:
            xi, xk = x[i], x[k]
            x[i] = t * xi + (1.0 - t) * xk
            x[k] = (1.0 - t) * xi + t * xk
    return x


def concentrate(y, rng, margin: float = 0.5) -> np.ndarray:
    """A vector NOT majorized by y: top-k mass of y raised by a fixed share.

    y needs at least two nonzero entries; the k-th partial sum then exceeds
    y's by ``margin * (1 - S_k)`` with S_k the top-k mass of y.
    """
    ys = np.sort(np.asarray(y, dtype=np.float64))[::-1]
    support = int(np.sum(ys > RANK_FLOOR))
    k = int(rng.integers(1, max(2, min(4, support))))
    top = ys[:k].sum()
    gain = margin * (1.0 - top)
    x = np.empty(ys.size)
    x[:k] = (top + gain) / k
    x[k:] = (1.0 - top - gain) / (ys.size - k)
    return rng.permutation(x)


def padded(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return np.concatenate([x, np.zeros(d - x.size)])


def majorized(x, y, tol: float = 1e-9) -> bool:
    """Reference predicate: x majorized by y, with zero-padding."""
    d = max(len(x), len(y))
    cx = np.cumsum(np.sort(padded(x, d))[::-1])
    cy = np.cumsum(np.sort(padded(y, d))[::-1])
    return bool(np.all(cx[:-1] <= cy[:-1] + tol) and abs(cx[-1] - cy[-1]) <= tol)


def has_ties(values) -> bool:
    v = np.sort(np.asarray(values, dtype=np.float64))
    v = v[v > RANK_FLOOR]
    return bool(v.size > 1 and np.min(np.diff(v)) <= TIE_GAP)


def haar_unitary(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def spectrum(rng, n: int, rank: int, block: int = 0, floor: float = 0.0) -> np.ndarray:
    """Eigenvalues of a density matrix: ``rank`` nonzero values, zero-padded to n.

    ``block`` >= 2 makes the first ``block`` values equal (a maximally mixed
    block); ``floor`` lifts every nonzero value to at least that much.
    """
    vals = rng.dirichlet(np.ones(rank))
    if block >= 2:
        rest = vals[block:] / vals[block:].sum() if rank > block else vals[:0]
        vals = np.concatenate([np.full(block, 1.0 / rank), rest * (rank - block) / rank])
    vals = (1.0 - floor * rank) * vals + floor
    return padded(vals / vals.sum(), n)


def raw_density(rng, lam) -> np.ndarray:
    """Q diag(lam) Q^dagger with a Haar-random Q, trace exactly 1."""
    q = haar_unitary(rng, len(lam))
    m = (q * lam) @ q.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


# Found while building this benchmark: entropy_report's sum[neg_sqrt] Schur
# check is not Lipschitz at 0, so roundoff eigenvalues (~1e-17) of a
# rank-deficient state shift it by ~3e-9 > 1e-9 when the weights equal the
# spectrum (for example a pure state with weights [1]).  Such jobs stay in the
# workloads and are counted as known-defect failures.
NEG_SQRT_DEFECT = "entropy_report: sum[neg_sqrt] check fails when the weights equal a rank-deficient spectrum"


def weights_equal_spectrum(p, eigenvalues) -> bool:
    """p is the nonzero spectrum of a rank-deficient state, up to order and padding."""
    live_p = np.sort(np.asarray(p, dtype=np.float64)[np.asarray(p) > RANK_FLOOR])
    lam = np.asarray(eigenvalues, dtype=np.float64)
    live_lam = np.sort(lam[lam > RANK_FLOOR])
    return bool(live_lam.size < lam.size and live_p.size == live_lam.size
                and np.allclose(live_p, live_lam, rtol=0.0, atol=1e-12))


def props_of(**flags) -> frozenset:
    return frozenset(name.replace("_", "-") for name, on in flags.items() if on)
