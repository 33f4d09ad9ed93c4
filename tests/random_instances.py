"""Seeded random operators, states, families, and pointer-model instances
for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so tests stay
reproducible: a given seed builds the same instance bit for bit, which
the golden reports and kernel bit pins rely on.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from qhistories.errors import BadParameters
from qhistories.histories import HistoryFamily, make_resolution
from qhistories.matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    validate_density,
    validate_projection,
)
from qhistories.sampling import _KET0, _KET1, PointerModel, _kron, assemble_pointer_model


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
