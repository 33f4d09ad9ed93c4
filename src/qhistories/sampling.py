"""Pointer-model instances: two orthogonal branches tagged by a record.

A pointer model tensors a 2-level record factor onto a spatial factor and
comes with mirror projections that hold by construction.
:func:`assemble_pointer_model` builds one from its spatial ingredients;
``scenarios.build_example2`` is the paper's instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, DimensionMismatch
from .histories import (
    History,
    HistoryFamily,
    _make_resolutions,
    elementary_histories,
)
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    max_norm,
    validate_densities,
    validate_projections,
)

__all__ = ["PointerModel", "assemble_pointer_model"]


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
