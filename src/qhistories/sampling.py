"""Seeded random operators, states, families, and pointer-model instances.

Everything takes an explicit ``numpy.random.Generator`` so callers stay
reproducible.  The pointer models tensor a 2-level record factor onto a
spatial factor; they come with mirror projections that hold by
construction, which makes them the workhorse instances for the mirror
and individuality test harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadParameters, DimensionMismatch
from .histories import (
    History,
    HistoryFamily,
    _make_resolutions,
    elementary_histories,
    make_resolution,
)
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    max_norm,
    validate_density,
    validate_densities,
    validate_projection,
    validate_projections,
)

__all__ = [
    "random_unitary",
    "random_state",
    "random_projection",
    "random_density",
    "random_pure_density",
    "random_resolution",
    "random_family",
    "random_commuting_events",
    "PointerModel",
    "assemble_pointer_model",
    "pointer_model",
]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_projection(dim: int, rng: np.random.Generator,
                      rank: Optional[int] = None,
                      tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Projection onto ``rank`` Haar-random orthonormal columns."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    if not 0 <= rank <= dim:
        raise BadParameters(f"rank {rank} out of range for dimension {dim}")
    if rank == 0:
        return validate_projection(np.zeros((dim, dim), dtype=complex), tol)
    v = random_unitary(dim, rng)[:, :rank]
    return validate_projection(v @ v.conj().T, tol)


def random_pure_density(dim: int, rng: np.random.Generator,
                        tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    psi = random_state(dim, rng)
    return validate_density(np.outer(psi, psi.conj()), tol)


def random_density(dim: int, rng: np.random.Generator,
                   rank: Optional[int] = None,
                   tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Random mixed state: Haar eigenvectors with Dirichlet weights."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    v = random_unitary(dim, rng)[:, :rank]
    w = rng.dirichlet(np.ones(rank))
    return validate_density((v * w) @ v.conj().T, tol)


def random_resolution(dim: int, sizes: Sequence[int], rng: np.random.Generator,
                      tol: Tolerances = DEFAULT_TOL):
    """Resolution of the identity with the given block sizes (summing to dim)."""
    if sum(sizes) != dim or any(s < 1 for s in sizes):
        raise BadParameters(f"block sizes {tuple(sizes)} do not partition {dim}")
    v = random_unitary(dim, rng)
    events, start = [], 0
    for s in sizes:
        block = v[:, start:start + s]
        events.append(validate_projection(block @ block.conj().T, tol))
        start += s
    return make_resolution(events, tol)


def _random_partition(dim: int, rng: np.random.Generator,
                      max_blocks: int) -> list[int]:
    blocks = int(rng.integers(2, min(max_blocks, dim) + 1))
    cuts = sorted(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False))
    edges = [0, *cuts, dim]
    return [edges[i + 1] - edges[i] for i in range(blocks)]


def random_family(dim: int, slots: int, rng: np.random.Generator,
                  tol: Tolerances = DEFAULT_TOL,
                  max_blocks: int = 3) -> HistoryFamily:
    """Family of ``slots`` independent random resolutions."""
    if dim < 2:
        raise BadParameters("random families need dimension at least 2")
    resolutions = tuple(
        random_resolution(dim, _random_partition(dim, rng, max_blocks), rng, tol)
        for _ in range(slots))
    return HistoryFamily(resolutions)


def random_commuting_events(dim: int, rng: np.random.Generator,
                            tol: Tolerances = DEFAULT_TOL,
                            ) -> tuple[Projection, Projection]:
    """Two commuting projections built from one random eigenbasis."""
    v = random_unitary(dim, rng)
    while True:
        mask1 = rng.integers(0, 2, size=dim).astype(bool)
        mask2 = rng.integers(0, 2, size=dim).astype(bool)
        if 0 < mask1.sum() < dim and 0 < mask2.sum() < dim:
            break
    p = v[:, mask1] @ v[:, mask1].conj().T
    q = v[:, mask2] @ v[:, mask2].conj().T
    return validate_projection(p, tol), validate_projection(q, tol)


@dataclass(frozen=True, eq=False)
class PointerModel:
    """A two-branch instance on ``spatial_dim x 2`` with built-in mirrors.

    The joint state superposes two orthogonal spatial branches, each
    tagged by its own record state of the 2-level factor.  ``t`` and
    ``u`` read the record; they commute with every event and correlate
    exactly with the branch events on the joint state, so they verify as
    mirrors by construction.  ``provided_mirrors`` assigns one to every
    elementary history of ``family``.
    """

    spatial_dim: int
    psi1: np.ndarray
    psi2: np.ndarray
    psi: np.ndarray
    e1: Projection
    f1: Projection
    e2: Projection
    t: Projection
    u: Projection
    family: HistoryFamily
    h1: History
    h2: History
    provided_mirrors: dict[str, Projection]
    rho: DensityOperator
    rho1: DensityOperator
    rho2: DensityOperator

    @property
    def dim(self) -> int:
        return 2 * self.spatial_dim


_KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _kron(a, b) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast product: the same
    products of the same entries, without ``np.kron``'s any-rank set-up."""
    a, b = np.asarray(a), np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def assemble_pointer_model(psi1: np.ndarray, psi2: np.ndarray,
                           p1: np.ndarray, p2: np.ndarray,
                           e2_matrix: np.ndarray,
                           tol: Tolerances = DEFAULT_TOL) -> PointerModel:
    """Build a :class:`PointerModel` from spatial-factor ingredients.

    ``psi1``/``psi2`` are orthonormal spatial branch vectors with
    ``p1 psi1 = psi1``, ``p2 psi2 = psi2`` and ``p1 p2 = 0``;
    ``e2_matrix`` acts on the joint space and must be block-diagonal in
    the record basis.  The provided mirrors are keyed by elementary
    label and verified downstream, so a violated precondition surfaces
    as a failed certificate rather than silently wrong bookkeeping.

    The six to eight operators (``e1``, ``f1``, ``e2``, ``t``, ``u``, the
    ``rest`` of slot 1 and the complement of ``e2`` where they are not zero,
    and the zero mirror) are validated in that order in one stacked pass, so
    the first invalid one raises what it raises alone; the two slots are
    then checked as resolutions in one call.  ``p1`` and ``p2``
    must be ``spatial_dim`` square and ``e2_matrix`` twice that.
    """
    psi1 = np.asarray(psi1, dtype=complex).reshape(-1)
    psi2 = np.asarray(psi2, dtype=complex).reshape(-1)
    spatial_dim = psi1.size
    if psi2.size != spatial_dim:
        raise BadParameters("branch vectors differ in dimension")
    if (abs(np.linalg.norm(psi1) - 1.0) > tol.op
            or abs(np.linalg.norm(psi2) - 1.0) > tol.op
            or abs(np.vdot(psi1, psi2)) > tol.op):
        raise BadParameters("branch vectors must be orthonormal")
    dim = 2 * spatial_dim
    p1, p2 = np.asarray(p1), np.asarray(p2)
    e2_matrix = np.asarray(e2_matrix, dtype=complex)
    for name, m, n in (("p1", p1, spatial_dim), ("p2", p2, spatial_dim),
                       ("e2_matrix", e2_matrix, dim)):
        if m.shape != (n, n):
            raise DimensionMismatch(f"{name} has shape {m.shape}, expected ({n}, {n})")
    eye2 = np.eye(2, dtype=complex)
    eye_s = np.eye(spatial_dim, dtype=complex)
    eye = np.eye(dim, dtype=complex)
    e1_matrix, f1_matrix = _kron(p1, eye2), _kron(p2, eye2)
    # slot 1's rest and e2's complement, each kept only where it is not zero
    rest = [m for m in [eye - e1_matrix - f1_matrix] if max_norm(m) > tol.op]
    comp = [m for m in [eye - e2_matrix] if max_norm(m) > tol.op]
    e1, f1, e2, t, u, *others, zero = validate_projections(
        [e1_matrix, f1_matrix, e2_matrix, _kron(eye_s, _KET1), _kron(eye_s, _KET0),
         *rest, *comp, np.zeros_like(eye)], tol)
    slot1, slot2 = [e1, f1, *others[:len(rest)]], [e2, *others[len(rest):]]
    family = HistoryFamily(_make_resolutions([slot1, slot2], tol))
    # histories run over slot 2 fastest: (e1, .) get t, (f1, .) u, (rest, .) zero
    mirrors = (t, u, zero)
    histories = elementary_histories(family)
    provided = {h.label: mirrors[i // len(slot2)] for i, h in enumerate(histories)}
    h1, h2 = histories[0], histories[len(slot2)]
    branch1 = np.outer(psi1, [0.0, 1.0]).reshape(-1)
    branch2 = np.outer(psi2, [1.0, 0.0]).reshape(-1)
    psi = (branch1 + branch2) / np.sqrt(2.0)
    rho, rho1, rho2 = validate_densities(
        [np.outer(v, v.conj()) for v in (psi, branch1, branch2)], tol)
    return PointerModel(spatial_dim, psi1, psi2, psi, e1, f1, e2, t, u,
                        family, h1, h2, provided, rho, rho1, rho2)


def pointer_model(spatial_dim: int, rng: np.random.Generator,
                  tol: Tolerances = DEFAULT_TOL,
                  branch_rank: int = 1) -> PointerModel:
    """Random pointer-model instance.

    ``branch_rank`` widens the branch events beyond the branch vectors
    while keeping them orthogonal; the record events of the 2-level
    factor are block-diagonal so they commute with ``t`` and ``u``.
    """
    if spatial_dim < 2:
        raise BadParameters("pointer models need spatial dimension at least 2")
    if branch_rank < 1 or 2 * branch_rank > spatial_dim:
        raise BadParameters(
            f"branch rank {branch_rank} does not fit in dimension {spatial_dim}")
    v = random_unitary(spatial_dim, rng)
    psi1, psi2 = v[:, 0], v[:, 1]
    cols1 = [0] + list(range(2, 1 + branch_rank))
    cols2 = [1] + list(range(1 + branch_rank, 2 * branch_rank))
    p1 = v[:, cols1] @ v[:, cols1].conj().T
    p2 = v[:, cols2] @ v[:, cols2].conj().T
    q0 = random_projection(spatial_dim, rng,
                           rank=int(rng.integers(1, spatial_dim + 1)), tol=tol)
    q1 = random_projection(spatial_dim, rng,
                           rank=int(rng.integers(1, spatial_dim + 1)), tol=tol)
    e2_matrix = _kron(q0.matrix, _KET0) + _kron(q1.matrix, _KET1)
    return assemble_pointer_model(psi1, psi2, p1, p2, e2_matrix, tol)
