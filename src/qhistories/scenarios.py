"""Closed-form model instances used throughout the test harnesses.

The first is a single-qubit-like pair of rank-1 resolutions embedded in
``dim`` dimensions, parametrized so every consistency quantity has a
closed form; it separates the consistency notions from each other and
exhibits mixture/component verdict splits.  The second is a two-slit
arrangement with a record qubit, the minimal deterministic pointer
model, whose mirrors hold exactly by construction.  The third is Kent's
triple of two certain retrodictions of orthogonal events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consistency import ContraryInferenceInstance, contrary_inference
from .errors import BadParameters
from .histories import (
    History,
    HistoryFamily,
    ResolutionOfIdentity,
    _check_resolutions,
)
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    projector_onto,
    validate_densities,
    validate_projections,
)
from .sampling import PointerModel, _kron, assemble_pointer_model

__all__ = [
    "Example1Instance",
    "Example1Expected",
    "build_example1",
    "build_example1_grid",
    "example1_expected",
    "example1_decoherence_expected",
    "linear_positivity_expected",
    "linear_positivity_violation_possible",
    "linear_positivity_range_note",
    "build_example2",
    "build_contrary_inference",
]


@dataclass(frozen=True, eq=False)
class Example1Instance:
    """Two rank-1 resolutions at a relative angle, plus branch states.

    ``h1``/``h2`` are the elementary histories ending in the second
    resolution's first event; ``h_coarse`` is their sum.  ``rho`` is the
    equal mixture of the two branch states.
    """

    dim: int
    theta: float
    alpha: float
    psi1: np.ndarray
    psi2: np.ndarray
    phi: np.ndarray
    e1: Projection
    e2: Projection
    family: HistoryFamily
    h1: History
    h2: History
    h_coarse: History
    rho1: DensityOperator
    rho2: DensityOperator
    rho: DensityOperator


def build_example1(theta: float, alpha: float | None = None, dim: int = 3,
                   tol: Tolerances = DEFAULT_TOL) -> Example1Instance:
    """Instance with first event onto ``(psi1 + psi2)/sqrt(2)`` and second
    event onto ``(cos(theta/2), exp(i alpha) sin(theta/2))``.

    ``alpha`` defaults to ``pi/2``, which reproduces the purely
    imaginary off-diagonal form and must be finite; ``theta`` must lie
    strictly inside ``(0, pi)``.
    """
    return build_example1_grid([(theta, alpha)], dim, tol)[0]


def build_example1_grid(angles: Sequence[tuple[float, float | None]],
                        dim: int = 3, tol: Tolerances = DEFAULT_TOL,
                        ) -> list[Example1Instance]:
    """:func:`build_example1` at each ``(theta, alpha)``, with its checks made
    in stacked passes: one validation of all 4F events, one check of the 2F
    resolutions and one validation of the F coarse events.  The three states
    are shared.  The first failing value raises what it raises alone."""
    if dim < 2:
        raise BadParameters(f"dimension {dim} is too small, need at least 2")
    thetas = [theta for theta, _ in angles]
    alphas = [math.pi / 2.0 if alpha is None else alpha for _, alpha in angles]
    for theta, alpha in zip(thetas, alphas):
        if not 0.0 < theta < math.pi:
            raise BadParameters(f"theta {theta} is not strictly inside (0, pi)")
        if not math.isfinite(alpha):
            raise BadParameters(f"alpha {alpha} is not finite")
    psi1, psi2 = np.eye(dim, dtype=complex)[:2]
    phi = (psi1 + psi2) / math.sqrt(2.0)
    chi = np.zeros((len(angles), dim), dtype=complex)
    chi[:, 0] = [math.cos(theta / 2.0) for theta in thetas]
    chi[:, 1] = np.exp(1j * np.array(alphas)) * [math.sin(t / 2.0) for t in thetas]
    second = chi[:, :, None] * chi.conj()[:, None]
    first = np.broadcast_to(np.outer(phi, phi.conj()), second.shape)
    eye = np.eye(dim, dtype=complex)
    events = np.stack([first, eye - first, second, eye - second], axis=1)
    projections = validate_projections(events.reshape(-1, dim, dim), tol)
    overlaps = _check_resolutions(events.reshape(-1, 2, dim, dim), tol)
    coarse = validate_projections(events[:, 0] + events[:, 1], tol)
    pure1, pure2 = np.outer(psi1, psi1.conj()), np.outer(psi2, psi2.conj())
    rho1, rho2, rho = validate_densities(
        [pure1, pure2, 0.5 * pure1 + 0.5 * pure2], tol)
    out = []
    for theta, alpha, (e1, e1c, e2, e2c), merged, (o1, o2) in zip(
            thetas, alphas, zip(*[iter(projections)] * 4), coarse,
            zip(*[iter(overlaps)] * 2)):
        family = HistoryFamily((ResolutionOfIdentity((e1, e1c), o1),
                                ResolutionOfIdentity((e2, e2c), o2)))
        out.append(Example1Instance(
            dim, theta, alpha, psi1, psi2, phi, e1, e2, family,
            History((e1, e2), "(1,1)"), History((e1c, e2), "(2,1)"),
            History((merged, e2), "(1,1)+(2,1)"), rho1, rho2, rho))
    return out


@dataclass(frozen=True)
class Example1Expected:
    """Closed forms with respect to the first branch state.

    The two elementary probabilities are 1/4 independent of the angles.
    ``weak_residual_rho1`` is the signed ``Re D(h1, h2) =
    (cos^2(theta/2) - 1/2) / 2``, zero exactly at ``theta = pi/2``;
    ``|D(h1, h2)| = 1/4`` at the default ``alpha``, so medium
    decoherence fails on the branch for every angle.
    """

    p_coarse: float
    p_h1: float
    p_h2: float
    weak_residual_rho1: float


def example1_expected(theta: float) -> Example1Expected:
    """Closed forms at the default ``alpha = pi/2``."""
    return Example1Expected(
        p_coarse=math.cos(theta / 2.0) ** 2,
        p_h1=0.25,
        p_h2=0.25,
        weak_residual_rho1=(math.cos(theta / 2.0) ** 2 - 0.5) / 2.0,
    )


def example1_decoherence_expected(theta: float, alpha: float) -> complex:
    """``D(h1, h2)`` with respect to the first branch state:
    ``(cos(theta) - i sin(theta) sin(alpha)) / 4``."""
    return (math.cos(theta) - 1j * math.sin(theta) * math.sin(alpha)) / 4.0


def linear_positivity_expected(theta: float, alpha: float) -> float:
    """``Re Tr(C_{h1} rho1)`` in closed form:
    ``(cos^2(theta/2) + cos(alpha) sin(theta/2) cos(theta/2)) / 2``."""
    half = theta / 2.0
    return 0.5 * (math.cos(half) ** 2
                  + math.cos(alpha) * math.sin(half) * math.cos(half))


def linear_positivity_violation_possible(theta: float) -> bool:
    """Whether any ``alpha`` makes the closed form negative.

    Minimizing over ``alpha`` leaves ``cos(theta/2) - sin(theta/2)``
    as the sign-determining factor, so violations exist exactly for
    ``theta > pi/2``, a strictly smaller range than the instance accepts.
    """
    return theta > math.pi / 2.0


def linear_positivity_range_note(theta: float) -> str:
    """Human-readable version of the range restriction, for reports."""
    if linear_positivity_violation_possible(theta):
        return (f"theta = {theta:.6g} > pi/2: the h1 channel value can turn "
                "negative for suitable alpha, although weak decoherence "
                "may hold there")
    return (f"theta = {theta:.6g} <= pi/2: the h1 channel value is "
            "nonnegative at every alpha; it turns negative only for "
            "theta > pi/2, a strictly narrower range than the instance "
            "accepts")


def build_example2(spatial_dim: int = 2, delta: tuple[int, ...] = (1,),
                   tol: Tolerances = DEFAULT_TOL) -> PointerModel:
    """Deterministic two-slit instance with a record qubit.

    The spatial factor is ``C^spatial_dim`` with the two slits on basis
    vectors 1 and 2; ``delta`` selects detector positions (1-based
    indices) and the final event is the detector region tensored with
    the record identity.  Mirrors reading the record qubit are attached
    to every elementary history.
    """
    if spatial_dim < 2:
        raise BadParameters(
            f"spatial dimension {spatial_dim} is too small, need at least 2")
    cells = sorted(set(delta))
    if not cells or cells != sorted(delta):
        raise BadParameters(f"detector region {delta!r} has repeated entries "
                            "or is empty")
    if cells[0] < 1 or cells[-1] > spatial_dim:
        raise BadParameters(f"detector region {delta!r} is not within "
                            f"1..{spatial_dim}")
    psi1 = np.zeros(spatial_dim, dtype=complex)
    psi2 = np.zeros(spatial_dim, dtype=complex)
    psi1[0] = 1.0
    psi2[1] = 1.0
    p1 = np.outer(psi1, psi1.conj())
    p2 = np.outer(psi2, psi2.conj())
    p_delta = np.zeros((spatial_dim, spatial_dim), dtype=complex)
    for c in cells:
        p_delta[c - 1, c - 1] = 1.0
    e2_matrix = _kron(p_delta, np.eye(2, dtype=complex))
    return assemble_pointer_model(psi1, psi2, p1, p2, e2_matrix, tol)


def build_contrary_inference(dim: int = 3, tol: Tolerances = DEFAULT_TOL,
                             ) -> ContraryInferenceInstance | None:
    """Kent's triple on basis vectors ``a, b, c``: ``psi = (a + b + c)/sqrt(3)``,
    ``e1 = |a><a|``, ``f1 = |b><b|``, ``e2`` onto ``g = (a + b - c)/sqrt(3)``.
    Then ``e2 e1 psi = e2 f1 psi = e2 psi = g/3``, so ``p(e2) = 1/9`` and both
    retrodictions are certain.  The decider's instance, ``None`` only if
    ``tol.prob >= 1/9``."""
    if dim < 3:
        raise BadParameters(f"dimension {dim} is too small, need at least 3")
    a, b, c = np.eye(dim, dtype=complex)[:3]
    psi = (a + b + c) / math.sqrt(3.0)
    return contrary_inference(psi, projector_onto(a, tol), projector_onto(b, tol),
                              projector_onto(a + b - c, tol), tol)
