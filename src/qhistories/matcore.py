"""Dense complex matrix core.

Validated operator types (projections, density operators) over small
complex matrices, plus the spectral and lattice operations the
consistency and mirror checkers are built on: commutators, the
projection order and join, and orthonormal bases of ranges.

Values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotIdempotent,
    NotPositive,
    TraceNotOne,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "Projection",
    "DensityOperator",
    "square_matrix",
    "max_norm",
    "validate_projection",
    "validate_projections",
    "validate_density",
    "validate_densities",
    "pure_densities",
    "projector_onto",
    "identity_projection",
    "zero_projection",
    "complement",
    "commutator",
    "is_orthogonal",
    "projection_leq",
    "range_basis",
    "join",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by every checker.

    ``op`` bounds operator-identity residuals (Hermiticity, idempotency,
    commutators), ``eig`` classifies eigenvalues and singular values
    (rank decisions, eigenvalue clustering), and ``prob`` bounds
    probability and trace equalities.  ``prob`` must not be tighter
    than ``op``: probability identities accumulate operator error.  Each is
    finite, and ``eig`` is below 1/2, so that no eigenvalue lies within
    ``eig`` of both 0 and 1.
    """

    op: float = 1e-10
    eig: float = 1e-8
    prob: float = 1e-9

    def __post_init__(self):
        if not (all(0 < t < math.inf for t in (self.op, self.eig, self.prob))
                and self.eig < 0.5):
            raise ValueError("tolerances must be finite and positive, and eig below 1/2")
        if self.prob < self.op:
            raise ValueError("prob tolerance must not be tighter than op tolerance")


DEFAULT_TOL = Tolerances()

# Bound on the bytes of one block of a batched computation (rows of the
# decoherence functional, stacks of mirror closures), so batched checkers
# stay in bounded memory at any family size.
_BLOCK_BYTES = 1 << 24

_EPS = float(np.finfo(float).eps)


def _blocks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices over ``count`` items of ``item_bytes`` bytes each,
    as many items per slice as fit in ``_BLOCK_BYTES`` and at least one;
    items of no bytes (a stack of no states) all fit in one slice.  When
    slices hold two or more items, one item left over joins the slice
    before it, which then exceeds the budget by that item: OpenBLAS takes
    a one-row product by another kernel, whose last bits differ.  A budget
    below two items still makes one-row products."""
    step = max(1, _BLOCK_BYTES // max(item_bytes, 1))
    bounds = [*range(0, count, step), count]
    if step > 1 and len(bounds) > 2 and count - bounds[-2] == 1:
        del bounds[-2]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def square_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to an immutable complex square matrix (dim >= 1)."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def max_norm(a: np.ndarray) -> float:
    """Entrywise max-norm; the residual measure used throughout."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True, eq=False)
class Projection:
    """A validated orthogonal projection.

    Construct through :func:`validate_projection`.  ``rank`` counts the
    eigenvalues within ``tol.eig`` of 1, read as the rounded trace whenever
    the two residuals prove the counts equal (see
    :func:`validate_projections`); the residuals record how well the
    defining identities held at validation time.
    """

    matrix: np.ndarray
    rank: int
    hermiticity_residual: float
    idempotency_residual: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated state: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray
    purity: float
    eigenvalue_floor: float
    trace_residual: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_pure(self) -> bool:
        return self.purity >= 1.0 - DEFAULT_TOL.prob


def _square_stack(stack) -> tuple[np.ndarray, list[float]]:
    """An immutable complex ``(n, d, d)`` stack and each Hermiticity residual."""
    m = np.array(stack, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a stack of square matrices, "
                                f"got shape {m.shape}")
    m.setflags(write=False)
    return m, _hermiticity(m)


# An infinite entry makes a NaN or infinite residual, which every test
# fails, so numpy need not warn about it on the way.
_quiet = np.errstate(invalid="ignore", over="ignore")


@_quiet
def _hermiticity(m: np.ndarray) -> list[float]:
    """Each max-norm of ``m - m^dag`` over an ``(n, d, d)`` stack."""
    return np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()


@_quiet
def _idempotency(m: np.ndarray) -> list[float]:
    """Each max-norm of ``m m - m`` over an ``(n, d, d)`` stack."""
    return np.abs(m @ m - m).max(axis=(1, 2)).tolist()


def _state_stack(rhos, dim: int) -> np.ndarray:
    """The ``(S, dim, dim)`` stack of S >= 0 states of dimension ``dim``."""
    for rho in rhos:
        if rho.matrix.shape != (dim, dim):
            raise DimensionMismatch(f"state of dimension {rho.dim}, expected {dim}")
    return np.array([rho.matrix for rho in rhos]).reshape(-1, dim, dim)


def validate_projection(entries, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Check Hermiticity and idempotency and wrap the matrix.

    Raises :class:`NotHermitian` or :class:`NotIdempotent` with the
    offending max-norm residual.  The rank counts the eigenvalues within
    ``tol.eig`` of 1; it is the rounded trace when the residuals prove that
    count equal to ``eigvalsh``'s, and ``eigvalsh``'s otherwise (see
    :func:`validate_projections`).
    """
    return validate_projections(square_matrix(entries)[None], tol)[0]


def validate_projections(stack, tol: Tolerances = DEFAULT_TOL) -> list[Projection]:
    """:func:`validate_projection` over an ``(n, d, d)`` stack in one pass;
    the first failing matrix raises what it raises on its own.  Each test
    fails a NaN residual, so a NaN or infinite entry raises.

    Ranks.  ``eigvalsh`` reads the Hermitian matrix ``A`` whose lower
    triangle and real diagonal are those of ``m``; ``A = m + E`` with
    ``|E_ij| <= herm``, so ``||E||_2 <= h = d herm``, and
    ``||m m - m||_2 <= a = d idem``.  From ``A A - A = (m m - m) + A E +
    E A - E E - E``, every eigenvalue ``x`` of ``A`` has ``|x^2 - x| <= a +
    h (2 L + 1 + h)``, ``L = max |x|``; at ``|x| = L`` that is a quadratic
    in ``L``, whose root ``top`` bounds ``L``.  Since ``max(|x|, |x - 1|)
    >= 1/2``, each ``x`` lies within ``2 (a + h (2 top + 1 + h))``, about
    ``2 d (idem + 3 herm)``, of 0 or 1.  Add ``4 d^2 eps (1 + top)^2`` for
    the rounding of the measured residuals, of ``eigvalsh`` (backward
    stable, so its eigenvalues move by ``O(d eps L)``) and of the trace:
    call the sum ``b``.  When ``b <= tol.eig < 1 - b`` and ``2 d b < 1``,
    ``eigvalsh`` counts exactly the eigenvalues near 1, and ``Re Tr m``,
    their sum, lies within ``d b < 1/2`` of that count, so the rank is
    ``round(Re Tr m)``.  Otherwise (``d herm`` or ``d idem`` near
    ``tol.eig``) that matrix's rank comes from ``eigvalsh``, which raises
    :class:`NotIdempotent` for an eigenvalue more than ``tol.eig`` from
    both 0 and 1, with that distance as the residual; only matrices before
    the first to fail a residual test go to ``eigvalsh``.
    """
    m, herm = _square_stack(stack)
    idem = _idempotency(m)
    ranks = m.trace(axis1=1, axis2=2).real.tolist()  # rounded once all pass
    slow, h, i = [], 0.0, 0.0
    for k, (h, i) in enumerate(zip(herm, idem)):
        if not (h <= tol.op and i <= tol.op):
            break
        if not _trace_counts(h, i, m.shape[1], tol):
            slow.append(k)
    if slow:  # every matrix before a slow one passes, so a stray raises first
        x = np.linalg.eigvalsh(m[slow])
        for k, r, s in zip(slow, (np.abs(x - 1.0) <= tol.eig).sum(axis=1).tolist(),
                           np.minimum(np.abs(x), np.abs(x - 1.0)).max(axis=1).tolist()):
            if s > tol.eig:
                raise NotIdempotent(f"projection candidate has an eigenvalue "
                                    f"{s:.3e} from both 0 and 1", s)
            ranks[k] = r
    if not h <= tol.op:  # the loop stopped at the first matrix to fail
        raise NotHermitian(
            f"projection candidate is not Hermitian (residual {h:.3e})", h)
    if not i <= tol.op:
        raise NotIdempotent(
            f"projection candidate is not idempotent (residual {i:.3e})", i)
    return [Projection(a, round(r), h, i) for a, r, h, i in zip(m, ranks, herm, idem)]


def _trace_counts(herm: float, idem: float, d: int, tol: Tolerances) -> bool:
    """Whether a ``d x d`` matrix with these residuals has its ``eigvalsh``
    rank at ``round(Re Tr m)``: the bound ``b`` of
    :func:`validate_projections`."""
    a, h = d * idem, d * herm
    top = (1 + 2 * h + math.sqrt((1 + 2 * h) ** 2 + 4 * (a + h + h * h))) / 2
    b = 2 * (a + h * (2 * top + 1 + h)) + 4 * d * d * _EPS * (1 + top) ** 2
    return b <= tol.eig < 1 - b and 2 * d * b < 1


def validate_density(entries, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Check Hermiticity, positivity, and unit trace and wrap the matrix.

    Eigenvalues may dip to ``-tol.eig``; the trace must match 1 within
    ``tol.op``.  Purity and the smallest eigenvalue are recorded.
    """
    return validate_densities(square_matrix(entries)[None], tol)[0]


def validate_densities(stack, tol: Tolerances = DEFAULT_TOL) -> list[DensityOperator]:
    """:func:`validate_density` over an ``(n, d, d)`` stack in one pass;
    the first failing matrix raises what it raises on its own.  Each test
    fails a NaN residual, so a NaN or infinite entry raises."""
    m, herm = _square_stack(stack)
    try:
        floors = np.linalg.eigvalsh(m).min(axis=1).tolist()
    except np.linalg.LinAlgError:  # a NaN entry, which fails Hermiticity first
        floors = np.linalg.eigvalsh(np.where(np.isfinite(m), m, 0)).min(axis=1).tolist()
    return _densities(m, herm, floors, np.trace(m, axis1=1, axis2=2).tolist(), tol)


def pure_densities(vectors, tol: Tolerances = DEFAULT_TOL) -> list[DensityOperator]:
    """The states ``psi psi^dag`` of an ``(n, d)`` stack of vectors that the
    caller has checked to be of unit norm, with no eigendecomposition.

    The Hermiticity and trace residuals are measured and raise as in
    :func:`validate_densities`, and purity is measured.  The eigenvalue floor
    is a rounding bound: each stored entry is ``psi_i conj(psi_j)`` within
    ``sqrt(5) eps/2 |psi_i| |psi_j|``, a perturbation of Frobenius norm at
    most ``sqrt(5) eps/2 |psi|^2`` of a matrix whose eigenvalues are
    ``|psi|^2`` and 0, and the Hermitian matrix ``eigvalsh`` would read moves
    by at most ``d herm`` more.  So every eigenvalue is at least ``-(2 eps
    Re Tr m + d herm)``, the recorded floor.
    """
    v = np.asarray(vectors, dtype=complex)
    m, herm = _square_stack(v[:, :, None] * v.conj()[:, None, :])
    d = m.shape[1]
    traces = np.trace(m, axis1=1, axis2=2).tolist()
    floors = [-(2 * _EPS * t.real + d * h) for t, h in zip(traces, herm)]
    return _densities(m, herm, floors, traces, tol)


def _densities(m: np.ndarray, herm: list[float], floors: list[float],
               traces: list[complex], tol: Tolerances) -> list[DensityOperator]:
    """Raise for the first matrix of the ``(n, d, d)`` stack ``m`` that fails
    Hermiticity, its floor or the unit trace, else wrap each."""
    trace_res = [abs(t - 1.0) for t in traces]
    for h, floor, tr in zip(herm, floors, trace_res):
        if not h <= tol.op:
            raise NotHermitian(
                f"density candidate is not Hermitian (residual {h:.3e})", h)
        if not floor >= -tol.eig:
            raise NotPositive(
                f"density candidate has eigenvalue {floor:.3e} below -{tol.eig:.1e}",
                -floor)
        if not tr <= tol.op:
            raise TraceNotOne(f"density candidate has trace residual {tr:.3e}", tr)
    purity = np.trace(m @ m, axis1=1, axis2=2).real.tolist()
    return [DensityOperator(*args) for args in zip(m, purity, floors, trace_res)]


def projector_onto(vector, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Rank-1 projection onto the span of a nonzero vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    n = float(np.linalg.norm(v))
    if n <= tol.eig:
        raise DimensionMismatch("cannot project onto a (near-)zero vector")
    v = v / n
    return validate_projection(np.outer(v, v.conj()), tol)


def identity_projection(dim: int, tol: Tolerances = DEFAULT_TOL) -> Projection:
    return validate_projection(np.eye(dim, dtype=complex), tol)


def zero_projection(dim: int, tol: Tolerances = DEFAULT_TOL) -> Projection:
    return validate_projection(np.zeros((dim, dim), dtype=complex), tol)


def complement(p: Projection, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """The orthogonal complement ``1 - p``."""
    return validate_projection(np.eye(p.dim, dtype=complex) - p.matrix, tol)


def commutator(a, b) -> np.ndarray:
    """``a @ b - b @ a`` for equal-dimension square matrices."""
    a = square_matrix(a)
    b = square_matrix(b)
    _same_dim(a, b)
    return a @ b - b @ a


def is_orthogonal(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when ``p q = 0`` within ``tol.op`` (max-norm)."""
    _same_dim(p.matrix, q.matrix)
    return max_norm(p.matrix @ q.matrix) <= tol.op


def projection_leq(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when ``p`` is dominated by ``q``, i.e. ``q p = p`` within ``tol.op``."""
    _same_dim(p.matrix, q.matrix)
    return max_norm(q.matrix @ p.matrix - p.matrix) <= tol.op


def range_basis(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the range of ``a``.

    The columns are orthonormalized by SVD and singular values above
    ``tol.eig`` decide the rank, the rule the least-mirror closure of
    :mod:`qhistories.mirror` also applies to its stacks.
    """
    u, s, _ = np.linalg.svd(np.asarray(a))
    return u[:, :int(np.sum(s > tol.eig))]


def join(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Least projection dominating both: the projection onto ran(p) + ran(q)."""
    _same_dim(p.matrix, q.matrix)
    v = range_basis(np.hstack([p.matrix, q.matrix]), tol)
    return validate_projection(v @ v.conj().T, tol)
