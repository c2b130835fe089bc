"""Majorization predicate, T-transform chains, ortho-stochastic witnesses, Schur functions.

The constructive pieces follow the classical inductive recipe: repeatedly
average the largest remaining component of the more-ordered vector into the
target value, which yields at most d-1 two-coordinate averaging transforms,
and lift each transform to a plane rotation whose entrywise square is the
transform.  The product of the lifts is then an orthogonal matrix W with
(W o W) y = x.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkernel import TOL_PROB, DomainError, ValidationError, as_complex_matrix


class MajorizationError(DomainError):
    """x is not majorized by y; carries the first failing partial sum."""

    def __init__(self, k: int, lhs: float, rhs: float):
        self.k = k
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"majorization violated at k={k}: {lhs:.6g} > {rhs:.6g}")


def _nonneg_vector(v, tol: float, name: str) -> np.ndarray:
    """Validate a non-empty finite 1-D vector with entries >= -tol, clipped to 0."""
    w = np.array(v, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got ndim={w.ndim}")
    if w.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"{name} contains non-finite entries")
    low = float(w.min())
    if low < -tol:
        raise ValidationError(f"{name} entry {low!r} is negative beyond -{tol}")
    return np.where(w < 0.0, 0.0, w)


def as_prob_vector(weights, tol: float = TOL_PROB, name: str = "probability vector") -> np.ndarray:
    """Validate a probability vector: entries >= -tol (clipped to 0), sum within tol of 1."""
    w = _nonneg_vector(weights, tol, name)
    total = float(w.sum())
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{name} sum {total!r} deviates from 1 by more than {tol}")
    return w


def _sorted_pair(x, y, tol: float):
    """Validate, zero-pad and sort a pair once, and judge it.

    Returns ``(xv, yv, perm_x, perm_y, violation)``: the padded vectors, the
    stable orders that sort each one decreasing, and the first failing
    partial sum ``(k, lhs, rhs)`` or None.
    """
    xv = _nonneg_vector(x, tol, "x")
    yv = _nonneg_vector(y, tol, "y")
    d = max(xv.size, yv.size)
    xv = np.concatenate([xv, np.zeros(d - xv.size)])
    yv = np.concatenate([yv, np.zeros(d - yv.size)])
    perm_x = np.argsort(-xv, kind="stable")
    perm_y = np.argsort(-yv, kind="stable")
    cx = np.cumsum(xv[perm_x])
    cy = np.cumsum(yv[perm_y])
    violation = None
    failing = np.flatnonzero(cx[:-1] > cy[:-1] + tol)
    if failing.size:
        k = int(failing[0])
        violation = k + 1, float(cx[k]), float(cy[k])
    elif abs(cx[-1] - cy[-1]) > tol:
        violation = d, float(cx[-1]), float(cy[-1])
    return xv, yv, perm_x, perm_y, violation


def majorization_violation(x, y, tol: float = TOL_PROB):
    """First failing partial sum of the majorization comparison, or None.

    Returns ``(k, lhs, rhs)`` with 1-based k.  Vectors of unequal length are
    zero-padded to d = max(len(x), len(y)), and k == d flags a total
    mismatch: ``([0.4, 0.4], [0.5, 0.3, 0.1, 0.1])`` gives ``(4, 0.8, 1.0)``.
    """
    return _sorted_pair(x, y, tol)[4]


def is_majorized_by(x, y, tol: float = TOL_PROB) -> bool:
    """True iff every sorted partial sum of x stays below y's and totals agree."""
    return majorization_violation(x, y, tol) is None


def _majorized_pair(x, y, tol: float):
    """``_sorted_pair`` minus its verdict; raises MajorizationError on a violation."""
    xv, yv, perm_x, perm_y, violation = _sorted_pair(x, y, tol)
    if violation is not None:
        raise MajorizationError(*violation)
    return xv, yv, perm_x, perm_y


@dataclass(frozen=True)
class TTransform:
    """Two-coordinate averaging transform: identity except on (i, k).

    On the pair it acts as [[t, 1-t], [1-t, t]] with 0 <= t <= 1.  Indices are
    0-based.
    """

    i: int
    k: int
    t: float

    def __post_init__(self):
        if self.i == self.k:
            raise ValidationError("TTransform indices must differ")
        if self.i < 0 or self.k < 0:
            raise ValidationError("TTransform indices must be non-negative")
        if not 0.0 <= self.t <= 1.0:
            raise ValidationError(f"TTransform parameter t={self.t!r} outside [0, 1]")

    def matrix(self, dim: int) -> np.ndarray:
        """Dense doubly stochastic matrix of the transform."""
        m = np.eye(dim)
        m[self.i, self.i] = m[self.k, self.k] = self.t
        m[self.i, self.k] = m[self.k, self.i] = 1.0 - self.t
        return m

    def orthogonal_lift(self, dim: int) -> np.ndarray:
        """Plane rotation whose entrywise square is the transform matrix.

        This is the dense reference form, kept for tests and callers that
        want the matrix; no library path calls it (``horn_orthogonal``
        applies the same rotation to two rows in place).
        """
        g = np.eye(dim)
        c = float(np.sqrt(self.t))
        s = float(np.sqrt(1.0 - self.t))
        g[self.i, self.i] = g[self.k, self.k] = c
        g[self.i, self.k] = -s
        g[self.k, self.i] = s
        return g


@dataclass(frozen=True)
class TChain:
    """T-transform witness that y can be mixed into x.

    ``transforms`` are listed in application order and act on coordinates of
    the sorted copy of y.  ``source_permutation`` sorts y decreasing
    (w = y[source_permutation]); after applying the transforms the values of
    sorted x sit in a recorded arrangement, and ``target_permutation`` reads
    them back in x's original order (x = w_final[target_permutation]).
    """

    transforms: tuple[TTransform, ...]
    source_permutation: np.ndarray
    target_permutation: np.ndarray

    def __post_init__(self):
        # The source is checked first, so ``dim`` is defined for the target.
        for name in ("source_permutation", "target_permutation"):
            perm = getattr(self, name)
            if not (
                isinstance(perm, np.ndarray)
                and perm.ndim == 1
                and perm.dtype.kind in "iu"
                and np.array_equal(np.sort(perm), np.arange(self.dim))
            ):
                raise ValidationError(f"{name} is not a 1-D integer permutation of range(dim)")
        d = self.dim
        for tr in self.transforms:
            if not isinstance(tr, TTransform):
                raise ValidationError(f"chain entry {tr!r} is not a TTransform")
            if tr.i >= d or tr.k >= d:
                raise ValidationError(
                    f"TTransform indices ({tr.i}, {tr.k}) out of range for chain dimension {d}"
                )

    @classmethod
    def plain(cls, transforms, dim: int) -> "TChain":
        """Chain with identity bookkeeping, for hand-built transform lists."""
        return cls(
            transforms=tuple(transforms),
            source_permutation=np.arange(dim),
            target_permutation=np.arange(dim),
        )

    @property
    def dim(self) -> int:
        return int(self.source_permutation.shape[0])

    def __len__(self) -> int:
        return len(self.transforms)


def t_transform_chain(x, y, tol: float = TOL_PROB) -> TChain:
    """Constructive witness for x majorized by y, at most d-1 transforms long.

    Raises :class:`MajorizationError` naming the first failing partial sum
    when the precondition does not hold.
    """
    xv, yv, perm_x, perm_y = _majorized_pair(x, y, tol)
    d = xv.size
    xs = xv[perm_x].tolist()
    w = yv[perm_y].tolist()

    # Positions still in play, kept sorted by decreasing current value.  Ties
    # keep insertion order, so the whole walk is deterministic.
    order = list(range(d))
    key = lambda p: -w[p]
    target_permutation = np.empty(d, dtype=np.intp)
    transforms: list[TTransform] = []

    for step in range(d - 1):
        target = xs[step]
        # Pair the largest remaining component with the deepest component that
        # does not exceed the target value.
        ib = min(bisect.bisect_right(order, -target, key=key), len(order) - 1)
        a, b = order[0], order[ib]
        wa, wb = w[a], w[b]
        if wa > wb:
            t = min(1.0, max(0.0, (target - wb) / (wa - wb)))
        else:
            t = 1.0
        target_permutation[perm_x[step]] = a
        del order[0]
        if t < 1.0:
            transforms.append(TTransform(i=a, k=b, t=t))
            w[b] = (1.0 - t) * wa + t * wb
            # b's value grew: move it left to keep the order sorted, landing
            # before any equal values so the walk stays deterministic.
            del order[ib - 1]
            order.insert(bisect.bisect_left(order, -w[b], key=key), b)
    target_permutation[perm_x[d - 1]] = order[0]
    return TChain(
        transforms=tuple(transforms),
        source_permutation=perm_y,
        target_permutation=target_permutation,
    )


def apply_t_chain(chain: TChain, y) -> np.ndarray:
    """Apply a chain (with its recorded permutations) to y.

    The result is a probability-like vector: averaging transforms preserve
    nonnegativity and the total.
    """
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    d = chain.dim
    if yv.size > d:
        raise ValidationError(f"vector of length {yv.size} exceeds chain dimension {d}")
    if yv.size < d:
        yv = np.concatenate([yv, np.zeros(d - yv.size)])
    w = yv[chain.source_permutation].copy()
    for tr in chain.transforms:
        wa, wb = w[tr.i], w[tr.k]
        w[tr.i] = tr.t * wa + (1.0 - tr.t) * wb
        w[tr.k] = (1.0 - tr.t) * wa + tr.t * wb
    return w[chain.target_permutation]


@dataclass(frozen=True)
class HornWitness:
    """Orthogonal matrix whose entrywise square carries y onto x.

    ``doubly_stochastic`` equals ``orthogonal`` squared entry by entry (the
    square of each component, not of the matrix), and maps y to x in their
    original orderings.
    """

    orthogonal: np.ndarray
    doubly_stochastic: np.ndarray


def horn_orthogonal(x, y, tol: float = TOL_PROB) -> HornWitness:
    """Build an ortho-stochastic witness D = W o W with D y = x.

    The transform chain for (x, y) is lifted rotation by rotation; because
    each step retires the coordinate it fixes, the product of the lifts
    squares entrywise to the product of the transforms.  The chain's source
    and target permutations are column and row permutations, which commute
    with the entrywise square.
    """
    return _witness_from_chain(t_transform_chain(x, y, tol))


def _rotate_rows(ri: np.ndarray, rk: np.ndarray, c: float, s: float) -> None:
    """Givens rotation of two rows in place: (ri, rk) <- (c ri - s rk, s ri + c rk)."""
    old_i = ri.copy()
    ri *= c
    ri -= s * rk
    rk *= c
    rk += s * old_i


def _witness_from_chain(chain: TChain) -> HornWitness:
    """The witness of ``horn_orthogonal`` for a chain already built."""
    d = chain.dim
    # A column permutation commutes with left rotations, and a row permutation
    # only relabels the rows a rotation acts on.  So start from the identity
    # with both of the chain's permutations already applied; the lift of
    # sorted coordinates (i, k) is then a Givens rotation of rows pos[i] and
    # pos[k], applied in place in O(d).
    pos = np.empty(d, dtype=np.intp)
    pos[chain.target_permutation] = np.arange(d)
    w = np.zeros((d, d))
    w[pos, chain.source_permutation] = 1.0
    for tr in chain.transforms:
        _rotate_rows(w[pos[tr.i]], w[pos[tr.k]], math.sqrt(tr.t), math.sqrt(1.0 - tr.t))
    witness = HornWitness(orthogonal=w, doubly_stochastic=w * w)

    gram_defect = w @ w.T
    gram_defect.flat[:: d + 1] -= 1.0
    gram = float(np.linalg.norm(gram_defect))
    if gram > 1e-10:
        raise ValidationError(f"orthogonality defect {gram:.3e} in constructed witness")
    return witness


def unitary_to_stochastic(u, tol: float = 1e-9) -> np.ndarray:
    """Entrywise squared moduli of a unitary matrix; doubly stochastic."""
    m = as_complex_matrix(u, "unitary")
    n, cols = m.shape
    if n != cols:
        raise ValidationError(f"unitary must be square, got shape {m.shape}")
    defect = float(np.linalg.norm(m @ m.conj().T - np.eye(n)))
    if defect > tol:
        raise ValidationError(f"unitarity defect {defect:.3e} exceeds {tol}")
    d = np.abs(m) ** 2
    return d


def _neg_entropy(x: np.ndarray) -> float:
    pos = x[x > 0.0]
    return float(np.sum(pos * np.log(pos)))


def _xlogx(u: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 0.0, u * np.log(u), 0.0)


# Convex scalar functions f, applied entrywise to an array; each induces the
# Schur-convex map x -> sum_i f(x_i) on probability vectors.
CONVEX_SCALAR_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "square": lambda u: u * u,
    "cube": lambda u: u * u * u,
    "exp": np.exp,
    "xlogx": _xlogx,
    "neg_sqrt": lambda u: -np.sqrt(u),
}


def schur_value(name: str, x, k: float | None = None) -> float:
    """Evaluate a built-in Schur function on a probability vector.

    ``neg_entropy`` is sum(x log x) with 0 log 0 := 0 (natural log);
    ``power_sum`` is sum(x**k) and requires k >= 1; ``neg_product`` is
    -prod(x).  These three are Schur-convex.  ``neg_max``, minus the largest
    component, is Schur-concave: [0.5, 0.5] is majorized by [1, 0], yet
    -0.5 > -1.
    """
    w = as_prob_vector(x, name="x")
    if name == "neg_entropy":
        return _neg_entropy(w)
    if name == "power_sum":
        if k is None:
            raise ValidationError("power_sum requires the exponent k")
        if k < 1.0:
            raise ValidationError(f"power_sum exponent k={k!r} must be >= 1")
        return float(np.sum(w**k))
    if name == "neg_product":
        return float(-np.prod(w))
    if name == "neg_max":
        return float(-np.max(w))
    raise ValidationError(f"unknown Schur-convex function id {name!r}")


@dataclass(frozen=True)
class SchurEntry:
    name: str
    value_x: float
    value_y: float

    @property
    def slack(self) -> float:
        return self.value_y - self.value_x


@dataclass(frozen=True)
class SchurReport:
    """All built-in Schur-convex comparisons for a majorized pair."""

    entries: tuple[SchurEntry, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.value_x <= e.value_y + self.tol for e in self.entries)


_POWER_SUM_EXPONENTS = (1.5, 2.0, 3.0)


def check_schur_inequalities(x, y, tol: float = 1e-9) -> SchurReport:
    """Evaluate every built-in Schur-convex function on a majorized pair.

    Requires x majorized by y and asserts f(x) <= f(y) + tol for each
    function; a violation raises, since it would contradict the order.  Note
    the largest component enters with a plus sign: max is Schur-convex
    (its negation is not, despite being a popular disorder measure).
    """
    xv, yv = _majorized_pair(x, y, max(tol, TOL_PROB))[:2]
    entries: list[SchurEntry] = []
    entries.append(SchurEntry("neg_entropy", _neg_entropy(xv), _neg_entropy(yv)))
    for k in _POWER_SUM_EXPONENTS:
        entries.append(
            SchurEntry(f"power_sum[k={k:g}]", float(np.sum(xv**k)), float(np.sum(yv**k)))
        )
    entries.append(SchurEntry("neg_product", float(-np.prod(xv)), float(-np.prod(yv))))
    entries.append(SchurEntry("max_component", float(np.max(xv)), float(np.max(yv))))
    for fname, f in CONVEX_SCALAR_REGISTRY.items():
        entries.append(
            SchurEntry(
                f"sum[{fname}]",
                float(sum(f(xv).tolist())),
                float(sum(f(yv).tolist())),
            )
        )
    report = SchurReport(entries=tuple(entries), tol=tol)
    if not report.passed:
        worst = min(report.entries, key=lambda e: e.slack)
        raise ValidationError(
            f"Schur-convex inequality violated for {worst.name}: "
            f"{worst.value_x!r} > {worst.value_y!r} + {tol}"
        )
    return report
