"""Dense complex matrix core.

Validated operator types (projections, density operators) over small
complex matrices, plus the spectral and lattice operations the
consistency and mirror checkers are built on: commutators, the
projection order and join, and orthonormal bases of ranges.

Values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

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
    than ``op``: probability identities accumulate operator error.
    """

    op: float = 1e-10
    eig: float = 1e-8
    prob: float = 1e-9

    def __post_init__(self):
        if not (self.op > 0 and self.eig > 0 and self.prob > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.prob < self.op:
            raise ValueError("prob tolerance must not be tighter than op tolerance")


DEFAULT_TOL = Tolerances()

# Bound on the bytes of one block of a batched computation (rows of the
# decoherence functional, stacks of mirror closures), so batched checkers
# stay in bounded memory at any family size.
_BLOCK_BYTES = 1 << 24


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
    eigenvalues near 1; the two residuals record how well the defining
    identities held at validation time.
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
        return self.purity >= 1.0 - 1e-9


def _square_stack(stack) -> tuple[np.ndarray, list[float]]:
    """An immutable complex ``(n, d, d)`` stack and each Hermiticity residual."""
    m = np.array(stack, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a stack of square matrices, "
                                f"got shape {m.shape}")
    m.setflags(write=False)
    return m, np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()


def _state_stack(rhos, dim: int) -> np.ndarray:
    """The ``(S, dim, dim)`` stack of S >= 0 states of dimension ``dim``."""
    for rho in rhos:
        if rho.matrix.shape != (dim, dim):
            raise DimensionMismatch(f"state of dimension {rho.dim}, expected {dim}")
    return np.array([rho.matrix for rho in rhos]).reshape(-1, dim, dim)


def validate_projection(entries, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Check Hermiticity and idempotency and wrap the matrix.

    Raises :class:`NotHermitian` or :class:`NotIdempotent` with the
    offending max-norm residual.
    """
    return validate_projections(square_matrix(entries)[None], tol)[0]


def validate_projections(stack, tol: Tolerances = DEFAULT_TOL) -> list[Projection]:
    """:func:`validate_projection` over an ``(n, d, d)`` stack in one pass;
    the first failing matrix raises what it raises on its own."""
    m, herm = _square_stack(stack)
    idem = np.abs(m @ m - m).max(axis=(1, 2)).tolist()
    for h, i in zip(herm, idem):
        if h > tol.op:
            raise NotHermitian(
                f"projection candidate is not Hermitian (residual {h:.3e})", h)
        if i > tol.op:
            raise NotIdempotent(
                f"projection candidate is not idempotent (residual {i:.3e})", i)
    ranks = (np.abs(np.linalg.eigvalsh(m) - 1.0) <= tol.eig).sum(axis=1)
    return [Projection(*args) for args in zip(m, ranks.tolist(), herm, idem)]


def validate_density(entries, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Check Hermiticity, positivity, and unit trace and wrap the matrix.

    Eigenvalues may dip to ``-tol.eig``; the trace must match 1 within
    ``tol.op``.  Purity and the smallest eigenvalue are recorded.
    """
    return validate_densities(square_matrix(entries)[None], tol)[0]


def validate_densities(stack, tol: Tolerances = DEFAULT_TOL) -> list[DensityOperator]:
    """:func:`validate_density` over an ``(n, d, d)`` stack in one pass;
    the first failing matrix raises what it raises on its own."""
    m, herm = _square_stack(stack)
    floors = np.linalg.eigvalsh(m).min(axis=1).tolist()
    trace_res = [abs(t - 1.0) for t in np.trace(m, axis1=1, axis2=2).tolist()]
    for h, floor, tr in zip(herm, floors, trace_res):
        if h > tol.op:
            raise NotHermitian(
                f"density candidate is not Hermitian (residual {h:.3e})", h)
        if floor < -tol.eig:
            raise NotPositive(
                f"density candidate has eigenvalue {floor:.3e} below -{tol.eig:.1e}",
                -floor)
        if tr > tol.op:
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
