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
from .numkernel import _as_array, _as_dim, _as_tol, _check_defect, _check_unit, _gram_defect, _trusted


class MajorizationError(DomainError):
    """x is not majorized by y; carries the first failing partial sum ``(k, lhs, rhs)``, k 1-based.

    Unequal lengths are zero-padded to d = max(len(x), len(y)), and k == d flags a total
    mismatch: ``([0.4, 0.4], [0.5, 0.3, 0.1, 0.1])`` gives ``(4, 0.8, 1.0)``."""

    def __init__(self, k: int, lhs: float, rhs: float):
        self.k = k
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"majorization violated at k={k}: {lhs:.6g} > {rhs:.6g}")


def _nonneg_vector(v, tol: float, name: str) -> np.ndarray:
    """Validate a non-empty finite 1-D vector with entries >= -tol, clipped to 0, and a finite total."""
    w = _as_array(v, name, np.float64, 1)
    if w.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    low = float(w.min())
    if low < -_as_tol(tol):
        raise ValidationError(f"{name} entry {low!r} is negative beyond -{tol}")
    w = np.where(w < 0.0, 0.0, w)
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not math.isfinite(total):
        raise ValidationError(f"{name} total overflows float64")
    return w


def as_prob_vector(weights, tol: float = TOL_PROB, name: str = "probability vector") -> np.ndarray:
    """Validate a probability vector: entries >= -tol (clipped to 0), sum within tol of 1."""
    w = _nonneg_vector(weights, tol, name)
    _check_unit(float(w.sum()), tol, f"{name} sum")
    return w


def _nonneg_pair(x, y, tol: float):
    """A public pair through ``_nonneg_vector``, once; internal callers hand theirs on as is."""
    return _nonneg_vector(x, tol, "x"), _nonneg_vector(y, tol, "y")


def _sorted_pair(xv, yv, tol: float):
    """Zero-pad and sort a pair that ``_nonneg_vector`` passed, or the library built, and judge it.

    Returns ``(xv, yv, perm_x, perm_y, violation)``: the padded vectors, the
    stable orders that sort each one decreasing, and the first failing
    partial sum ``(k, lhs, rhs)`` or None.
    """
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


def is_majorized_by(x, y, tol: float = TOL_PROB) -> bool:
    """True iff every sorted partial sum of x stays below y's and totals agree."""
    return _sorted_pair(*_nonneg_pair(x, y, tol), tol)[4] is None


def _majorized_pair(xv, yv, tol: float):
    """``_sorted_pair`` minus its verdict; raises MajorizationError on a violation."""
    xv, yv, perm_x, perm_y, violation = _sorted_pair(xv, yv, tol)
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
        if _as_dim(self.i, "TTransform index", 0, None) == _as_dim(self.k, "TTransform index", 0, None):
            raise ValidationError("TTransform indices must differ")
        if not 0.0 <= _as_tol(self.t, "TTransform parameter t") <= 1.0:
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
        want the matrix; no library path calls it (``_lift`` applies the same
        rotation to two rows of a stack in place).
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

    ``transforms`` are listed in application order (any iterable, stored as a
    tuple) and act on coordinates of the sorted copy of y.
    ``source_permutation`` sorts y decreasing (w = y[source_permutation]);
    after applying the transforms the values of sorted x sit in a recorded
    arrangement, and ``target_permutation`` reads them back in x's original
    order (x = w_final[target_permutation]).
    """

    transforms: tuple[TTransform, ...]
    source_permutation: np.ndarray
    target_permutation: np.ndarray

    def __post_init__(self):
        try:
            object.__setattr__(self, "transforms", tuple(self.transforms))
        except TypeError:
            raise ValidationError(f"chain transforms {self.transforms!r} not iterable") from None
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
        d = _as_dim(dim, "chain dimension", 1)
        return cls(
            transforms=transforms, source_permutation=np.arange(d), target_permutation=np.arange(d)
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
    return _chain(*_majorized_pair(*_nonneg_pair(x, y, tol), tol))


def _chain(xv, yv, perm_x, perm_y) -> TChain:
    """The walk of ``t_transform_chain`` from a pair ``_majorized_pair`` judged."""
    d = xv.size
    xs = xv[perm_x].tolist()

    # order[h:] holds the positions still in play, sorted by decreasing current
    # value next to their negated values in neg[h:], which the bisects search;
    # ties keep insertion order, so the whole walk is deterministic.  order[:h]
    # is retired: order[j] is left holding the j-th largest component of x.
    order = list(range(d))
    neg = (-yv[perm_y]).tolist()
    steps = []  # (i, k, t) of each transform; the loop builds no TTransform
    last = d - 1

    for h in range(last):
        target = xs[h]
        # Pair the largest remaining component with the first one strictly
        # below the target value, or with the last one if none is.
        ib = bisect.bisect_right(neg, -target, h)
        if ib > last:
            ib = last
        wa, wb = -neg[h], -neg[ib]
        if wa > wb:
            q = (target - wb) / (wa - wb)
            t = q if q > 0.0 else 0.0  # not ``q < 0.0``: a quotient of -0.0 must give t = +0.0
            if t < 1.0:
                # wa > wb gives order[h] != order[ib], and the clamp gives 0 <= t < 1.
                b = order[ib]
                steps.append((order[h], b, t))
                vb = (1.0 - t) * wa + t * wb
                # b's value grew: move it left to keep the order sorted, landing
                # before any equal values so the walk stays deterministic.
                del order[ib], neg[ib]
                at = bisect.bisect_left(neg, -vb, h + 1)
                order.insert(at, b)
                neg.insert(at, -vb)
    target_permutation = np.empty(d, dtype=np.intp)
    target_permutation[perm_x] = order
    # Both orders are permutations of range(d), and every transform is in range.
    transforms = tuple([_trusted(TTransform, i=i, k=k, t=t) for i, k, t in steps])
    return _trusted(TChain, transforms=transforms, source_permutation=perm_y,
                    target_permutation=target_permutation)


def apply_t_chain(chain: TChain, y) -> np.ndarray:
    """Apply a chain (with its recorded permutations) to y.

    ``y`` is a finite 1-D vector, entries in [-1e-9, 0) counted as 0; the
    averaging transforms preserve its nonnegativity and its total.
    """
    yv = _nonneg_vector(y, TOL_PROB, "y")
    d = chain.dim
    if yv.size > d:
        raise ValidationError(f"vector of length {yv.size} exceeds chain dimension {d}")
    if yv.size < d:
        yv = np.concatenate([yv, np.zeros(d - yv.size)])
    # Python floats, not numpy scalars, for speed; float() of t and of 1 - t
    # keeps a float16 or float32 t's products in float64, as on a float64 array.
    w = yv[chain.source_permutation].tolist()
    for tr in chain.transforms:
        wa, wb = w[tr.i], w[tr.k]
        t, s = float(tr.t), float(1.0 - tr.t)
        w[tr.i] = t * wa + s * wb
        w[tr.k] = s * wa + t * wb
    return np.array(w)[chain.target_permutation]


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
    s_ri = s * ri  # formed before ri changes, so ri needs no copy
    ri *= c
    ri -= s * rk
    rk *= c
    rk += s_ri


def _lift(chain: TChain, rows: np.ndarray, home: np.ndarray, cols: int) -> None:
    """Apply the chain's witness W in place to a stack whose coordinate c sits in row home[c].

    The first ``cols`` columns, zero on entry, become the identity's, and their
    lift is checked for orthogonality.  A column permutation commutes with left
    rotations and a row permutation only relabels rows, so the lift of transform
    (i, k) rotates the rows of coordinates source_permutation[i] and [k], and the
    row of source_permutation[target_permutation[j]] ends as row j of W times the stack.
    """
    rows[home[:cols], np.arange(cols)] = 1.0
    at = home[chain.source_permutation].tolist()  # Python ints index a row fastest
    for tr in chain.transforms:
        _rotate_rows(rows[at[tr.i]], rows[at[tr.k]], math.sqrt(tr.t), math.sqrt(1.0 - tr.t))
    _check_defect(_gram_defect(rows[:, :cols]), 1e-10, "orthogonality defect of constructed witness")


def _witness_from_chain(chain: TChain) -> HornWitness:
    """The witness of ``horn_orthogonal`` for a chain already built: the lift of the identity."""
    w = np.zeros((chain.dim, chain.dim))
    _lift(chain, w, np.argsort(chain.source_permutation[chain.target_permutation]), chain.dim)
    return HornWitness(orthogonal=w, doubly_stochastic=w * w)


def unitary_to_stochastic(u, tol: float = 1e-9) -> np.ndarray:
    """Entrywise squared moduli of a unitary matrix; doubly stochastic."""
    m = as_complex_matrix(u, "unitary")
    n, cols = m.shape
    if n != cols:
        raise ValidationError(f"unitary must be square, got shape {m.shape}")
    _check_defect(_gram_defect(m.conj().T), _as_tol(tol), "unitarity defect")
    return np.abs(m) ** 2


def _neg_entropy(x: np.ndarray) -> float:
    pos = x[x > 0.0]
    return float(np.sum(pos * np.log(pos)))


def _xlogx(u: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 0.0, u * np.log(u), 0.0)


# The Schur-convex functions of the report, in report order, each with its own
# summation: numpy's reductions for the first six, and Python's sum() of a convex
# f applied entrywise for the sum[f] entries; sum() adds floats left to right up
# to Python 3.11 and compensated (Neumaier) from 3.12, so their last bits differ.
_SCHUR_FUNCTIONS: dict[str, Callable[[np.ndarray], float]] = {
    "neg_entropy": _neg_entropy,
    "power_sum[k=1.5]": lambda x: float(np.sum(x**1.5)),
    "power_sum[k=2]": lambda x: float(np.sum(x**2.0)),
    "power_sum[k=3]": lambda x: float(np.sum(x**3.0)),
    "neg_product": lambda x: float(-np.prod(x)),
    "max_component": lambda x: float(np.max(x)),
    "sum[square]": lambda x: float(sum((x * x).tolist())),
    "sum[cube]": lambda x: float(sum((x * x * x).tolist())),
    "sum[exp]": lambda x: float(sum(np.exp(x).tolist())),
    "sum[xlogx]": lambda x: float(sum(_xlogx(x).tolist())),
    "sum[neg_sqrt]": lambda x: float(sum((-np.sqrt(x)).tolist())),
}


def schur_value(name: str, x, k: float | None = None) -> float:
    """Evaluate a built-in Schur function on a probability vector.

    ``neg_entropy`` is sum(x log x) with 0 log 0 := 0 (natural log);
    ``power_sum`` is sum(x**k) and requires k >= 1; ``neg_product`` is
    -prod(x).  These three are Schur-convex, and ``neg_entropy`` and
    ``neg_product`` are the report's entries of those names, bit for bit.
    ``neg_max``, minus the largest component, is Schur-concave: [0.5, 0.5]
    is majorized by [1, 0], yet -0.5 > -1.
    """
    w = as_prob_vector(x, name="x")
    if not isinstance(name, str):
        raise ValidationError(f"Schur-convex function id must be a string, got {name!r}")
    if name in ("neg_entropy", "neg_product"):
        return _SCHUR_FUNCTIONS[name](w)
    if name == "power_sum":
        if _as_tol(k, "power_sum exponent k") < 1.0:
            raise ValidationError(f"power_sum exponent k={k!r} must be >= 1")
        return float(np.sum(w**k))
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
    """All built-in Schur-convex comparisons for a majorized pair; ``passed`` is the one verdict."""

    entries: tuple[SchurEntry, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.value_x <= e.value_y + self.tol for e in self.entries)


def check_schur_inequalities(x, y, tol: float = 1e-9) -> SchurReport:
    """Evaluate every built-in Schur-convex function on a majorized pair.

    Requires x majorized by y, judged at max(tol, 1e-9), and records in
    ``passed`` whether f(x) <= f(y) + tol for each function in the report's
    one table; a pair accepted within tol can still fail a non-Lipschitz
    entry such as sum(-sqrt(x)).  Only a value not finite in float64 raises.
    Note the largest component enters with a plus sign: max is Schur-convex
    (its negation is not, despite being a popular disorder measure).
    """
    return _schur(*_nonneg_pair(x, y, max(_as_tol(tol), TOL_PROB)), tol)


@np.errstate(over="ignore")  # a value past float64 is rejected below, not warned about
def _schur(xv, yv, tol) -> SchurReport:
    """``check_schur_inequalities`` for a pair the library validated or built, judged at
    max(tol, TOL_PROB) but not validated again."""
    xv, yv = _majorized_pair(xv, yv, max(float(tol), TOL_PROB))[:2]
    entries = [SchurEntry(name, f(xv), f(yv)) for name, f in _SCHUR_FUNCTIONS.items()]
    for e in entries:
        if not (math.isfinite(e.value_x) and math.isfinite(e.value_y)):
            raise ValidationError(
                f"Schur-convex function {e.name} is not finite: {e.value_x!r} vs {e.value_y!r}"
            )
    return SchurReport(entries=tuple(entries), tol=tol)
