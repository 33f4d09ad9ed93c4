"""Seeded input matrices, generated by the benchmark itself.

The library receives only what these functions return, wrapped through
its public constructors.  Keeping generation here means a change to the
library's own samplers cannot change the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def rng_for(seed: int, workload: str, pass_index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, pass)."""
    return np.random.default_rng([seed, sum(map(ord, workload)), pass_index])


def haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def projector(cols: np.ndarray) -> np.ndarray:
    return cols @ cols.conj().T


def blocks(basis: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    out, start = [], 0
    for s in sizes:
        out.append(projector(basis[:, start:start + s]))
        start += s
    return out


def pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = haar(d, rng)[:, 0]
    return np.outer(psi, psi.conj())


def ranks(d: int, n: int) -> list[int]:
    """``n`` event ranks summing to ``d``, as equal as possible."""
    return [d // n + (i < d % n) for i in range(n)]


def family(d: int, events: tuple[int, ...], decohering: bool,
           rng: np.random.Generator) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """Slots of event matrices and a full-rank state.

    Event ranks are fixed by ``d`` and the event count, so the seed
    moves only bases and weights, not the work a checker does.  A
    decohering family shares one Haar eigenbasis across slots, each slot
    grouping the basis vectors differently, and its state is diagonal in
    that basis, so every off-diagonal decoherence-functional entry
    vanishes.  A generic family draws a Haar basis per slot and a state
    with Haar eigenvectors.
    """
    w = rng.dirichlet(np.ones(d))
    if decohering:
        u = haar(d, rng)
        slots = [blocks(u[:, rng.permutation(d)], ranks(d, n)) for n in events]
    else:
        slots = [blocks(haar(d, rng), ranks(d, n)) for n in events]
        u = haar(d, rng)
    return slots, (u * w) @ u.conj().T


def pointer(spatial_dim: int, rng: np.random.Generator):
    """Ingredients of a two-branch pointer model on ``spatial_dim x 2``.

    Returns ``(psi1, psi2, p1, p2, e2)`` as taken by the library's
    pointer-model assembly: orthonormal branch vectors, their rank-1
    branch events and a final event block-diagonal in the record basis,
    of rank 1 on one record state and ``spatial_dim - 1`` on the other.
    """
    v = haar(spatial_dim, rng)
    psi1, psi2 = v[:, 0], v[:, 1]
    q0 = projector(haar(spatial_dim, rng)[:, :1])
    q1 = projector(haar(spatial_dim, rng)[:, :spatial_dim - 1])
    e2 = np.kron(q0, KET0) + np.kron(q1, KET1)
    return psi1, psi2, np.outer(psi1, psi1.conj()), np.outer(psi2, psi2.conj()), e2
