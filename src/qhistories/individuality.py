"""Mixture probes: which history properties survive convex combination.

Several consistency notions can hold for a mixed state while failing
for every state in the decomposition, so a "the family is consistent"
verdict need not transfer to the individual preparations.  The helpers
here evaluate a chosen property on a two-component mixture and on both
components, collect witnesses where the verdicts split, and decompose
the mirror trace identities over the components to show where mirrors
behave differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .consistency import FamilyAnalysis, LinearNotion
from .errors import (
    BadParameters,
    DimensionMismatch,
    LambdaOutOfRange,
    PreconditionFailed,
)
from .histories import History, HistoryFamily
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    _blocks,
    commutator,
    max_norm,
    validate_densities,
)
from .mirror import MirrorCertificate, least_mirror, self_decoherence_each

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "PropertyPredicate",
    "IndividualityWitness",
    "MirrorComponentReport",
    "ConditionCProbe",
    "weak_decoherence_property",
    "medium_decoherence_property",
    "linear_positivity_property",
    "self_decoherence_property",
    "mixture",
    "individuality_violation_search",
    "mirror_component_decomposition",
    "condition_C_probe",
]


@dataclass(frozen=True)
class PropertyPredicate:
    """A named yes/no property of a state, with the family baked in;
    ``evaluator`` maps a sequence of states to their verdicts, in order,
    in one pass, and ``holds`` is its one-state case.  A property that is
    a notion linear in the state (weak, medium, linear positivity) carries
    the ``notion`` too, whose ``verdicts`` are its evaluator, so a search
    decides a mixture from its components' entries."""

    name: str
    evaluator: Callable[[Sequence[DensityOperator]], Sequence[bool]]
    notion: Optional[LinearNotion] = None

    def holds(self, rho: DensityOperator) -> bool:
        return bool(self.evaluator([rho])[0])


def weak_decoherence_property(family: HistoryFamily,
                              tol: Tolerances = DEFAULT_TOL) -> PropertyPredicate:
    notion = FamilyAnalysis(family, tol).linear("weak")
    return PropertyPredicate("weak-decoherence", notion.verdicts, notion)


def medium_decoherence_property(family: HistoryFamily,
                                tol: Tolerances = DEFAULT_TOL) -> PropertyPredicate:
    notion = FamilyAnalysis(family, tol).linear("medium")
    return PropertyPredicate("medium-decoherence", notion.verdicts, notion)


def linear_positivity_property(family: HistoryFamily,
                               tol: Tolerances = DEFAULT_TOL) -> PropertyPredicate:
    notion = FamilyAnalysis(family, tol).linear("linear-positive")
    return PropertyPredicate("linear-positivity", notion.verdicts, notion)


def self_decoherence_property(family: HistoryFamily,
                              tol: Tolerances = DEFAULT_TOL,
                              provided: Optional[Mapping[str, Projection]] = None,
                              ) -> PropertyPredicate:
    """Self-decoherence as a predicate, over one family analysis and
    decided for each state on its own by
    :func:`qhistories.mirror.self_decoherence_each`.

    A mirror of a mixture is a mirror of each component: its two
    positive defect operators vanish on the mixture's support, which
    contains each component's.  So the predicate has no individuality
    witness; where a mixture has it, both components do, and a search
    returns after deciding ``rho1`` alone.
    """
    analysis = FamilyAnalysis(family, tol)
    return PropertyPredicate("self-decoherence", lambda rhos: [
        r.verdict for r in self_decoherence_each(analysis, rhos, provided)])


def mixture(rho1: DensityOperator, rho2: DensityOperator, lam: float,
            tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """``lam * rho1 + (1 - lam) * rho2`` with ``lam`` strictly inside (0, 1)."""
    return _mixtures(rho1, rho2, [lam], tol)[0]


def _check_mixing(rho1: DensityOperator, rho2: DensityOperator,
                  lams: Sequence[float]) -> None:
    """Every weight strictly inside (0, 1) and components of one dimension."""
    for lam in lams:
        if not 0.0 < lam < 1.0:
            raise LambdaOutOfRange(f"mixing weight {lam} is not strictly in (0, 1)")
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"components have dimensions {rho1.dim} and {rho2.dim}")


def _mixtures(rho1: DensityOperator, rho2: DensityOperator,
              lams: Sequence[float], tol: Tolerances) -> list[DensityOperator]:
    """:func:`mixture` for every weight, validated in one stacked pass."""
    _check_mixing(rho1, rho2, lams)
    lam = np.array(lams, dtype=float).reshape(-1, 1, 1)
    return validate_densities(lam * rho1.matrix + (1.0 - lam) * rho2.matrix, tol)


@dataclass(frozen=True, eq=False)
class IndividualityWitness:
    """Verdicts of one property on a mixture and on its two components."""

    property_name: str
    lam: float
    holds_on_mixture: bool
    holds_on_rho1: bool
    holds_on_rho2: bool

    @property
    def is_violation(self) -> bool:
        """True when the mixture has the property but neither component does."""
        return (self.holds_on_mixture
                and not self.holds_on_rho1 and not self.holds_on_rho2)


DEFAULT_LAMBDA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


def individuality_violation_search(prop: PropertyPredicate,
                                   rho1: DensityOperator,
                                   rho2: DensityOperator,
                                   lams: Sequence[float] = DEFAULT_LAMBDA_GRID,
                                   tol: Tolerances = DEFAULT_TOL,
                                   ) -> list[IndividualityWitness]:
    """Witnesses over a weight grid where the property holds on the
    mixture but on neither component.  An empty result means the grid
    found nothing, not that no violating weight exists.  After the guards
    ``rho1`` is decided alone (if it holds no weight is a witness), then
    ``rho2`` and the mixtures together.  A predicate with a linear
    ``notion`` decides them from the blends ``lam v1 + (1 - lam) v2`` of
    the components' entries (``rho2`` is weight 0), a row block at a time
    within the block budget, and builds no mixture: a mixture of valid
    components is valid, as the Hermiticity and trace residuals are convex
    in the state and the least eigenvalue is concave, so validating the
    rounded mixture could only fail spuriously.  Any other predicate
    (self-decoherence: its least mirror follows the support, not linearly)
    gets ``rho2`` and the validated mixtures in one evaluator call;
    self-decoherence's decides each of them on its own."""
    _check_mixing(rho1, rho2, lams)
    notion = prop.notion
    if notion is None:
        if prop.evaluator([rho1])[0]:
            return []
        on_2, *on_mix = prop.evaluator([rho2, *_mixtures(rho1, rho2, lams, tol)])
    else:
        v1 = list(notion.entries([rho1]))
        if notion.decide(v1, 1)[0]:
            return []
        w = np.array([0.0, *lams])[:, None, None]
        blends = ((g, x + rows.start, w * a[:, rows] + (1.0 - w) * b[:, rows])
                  for (g, x, a), (_, _, b) in zip(v1, notion.entries([rho2]))
                  for rows in _blocks(a.shape[1], a[:, :1].nbytes * len(w)))
        on_2, *on_mix = notion.decide(blends, len(w))
    witnesses = (IndividualityWitness(prop.name, lam, bool(on), False, bool(on_2))
                 for lam, on in zip(lams, on_mix))
    return [w for w in witnesses if w.is_violation]


@dataclass(frozen=True)
class MirrorComponentReport:
    """Component-wise split of the mirror trace identities.

    ``traces`` holds ``Tr[(t - e1 t) rho_i]`` and ``Tr[(e1 - e1 t) rho_i]``
    for ``i = 1, 2`` in that order.  Each operator is a product of
    commuting projections times a complement, hence positive, so the
    mixture identities force every component trace to vanish:
    ``nonnegative`` and ``passed`` report how well that holds.
    """

    traces: tuple[float, float, float, float]
    max_abs: float
    nonnegative: bool
    passed: bool


def mirror_component_decomposition(t: Projection, e1: Projection,
                                   rho1: DensityOperator,
                                   rho2: DensityOperator, lam: float,
                                   tol: Tolerances = DEFAULT_TOL,
                                   ) -> MirrorComponentReport:
    """Split the correlation identities of a mirror over mixture components.

    Requires ``[t, e1] = 0`` and the trace identities to hold on the
    mixture itself; under those, both difference operators are positive
    and their mixture expectations vanish, so each component expectation
    must vanish as well.
    """
    r_comm = max_norm(commutator(t.matrix, e1.matrix))
    if r_comm > tol.op:
        raise PreconditionFailed(
            f"mirror does not commute with the event (residual {r_comm:.3e})")
    rho = mixture(rho1, rho2, lam, tol)
    tr_te1 = complex(np.trace(t.matrix @ e1.matrix @ rho.matrix))
    tr_t = complex(np.trace(t.matrix @ rho.matrix))
    tr_e1 = complex(np.trace(e1.matrix @ rho.matrix))
    m2 = max(abs(tr_te1 - tr_t), abs(tr_te1 - tr_e1))
    if m2 > tol.prob:
        raise PreconditionFailed(
            f"trace identities fail on the mixture (residual {m2:.3e})")
    d_t = t.matrix - e1.matrix @ t.matrix
    d_e = e1.matrix - e1.matrix @ t.matrix
    traces = tuple(float(np.trace(d @ r.matrix).real)
                   for r in (rho1, rho2) for d in (d_t, d_e))
    max_abs = max(abs(x) for x in traces)
    nonnegative = all(x >= -10.0 * tol.prob for x in traces)
    passed = max_abs <= 10.0 * tol.prob and nonnegative
    return MirrorComponentReport(traces, max_abs, nonnegative, passed)


@dataclass(frozen=True, eq=False)
class ConditionCProbe:
    """Least-mirror outcomes for two pure states and their superposition.

    Each ``found_*`` is the verified least mirror, or ``None`` when no
    mirror exists.  ``flagged`` marks mirrors for both branches and none
    for the sum; since existence is decided, a flag is a proof.
    """

    found_1: Optional[MirrorCertificate]
    found_2: Optional[MirrorCertificate]
    found_sum: Optional[MirrorCertificate]

    @property
    def flagged(self) -> bool:
        return (self.found_1 is not None and self.found_2 is not None
                and self.found_sum is None)


def condition_C_probe(h: History, psi1, psi2,
                      tol: Tolerances = DEFAULT_TOL) -> ConditionCProbe:
    """Decide mirrors of ``h`` for two branch vectors and their
    normalized sum."""
    psi1 = np.asarray(psi1, dtype=complex).reshape(-1)
    psi2 = np.asarray(psi2, dtype=complex).reshape(-1)
    n1, n2 = np.linalg.norm(psi1), np.linalg.norm(psi2)
    if n1 <= tol.op or n2 <= tol.op:
        raise BadParameters("branch vectors must be nonzero")
    psi1, psi2 = psi1 / n1, psi2 / n2
    if abs(abs(np.vdot(psi1, psi2)) - 1.0) <= tol.op:
        raise BadParameters("branch vectors are parallel")
    total = psi1 + psi2
    nt = np.linalg.norm(total)
    if nt <= tol.op:
        raise BadParameters("branch vectors cancel")
    total = total / nt

    rhos = validate_densities([np.outer(v, v.conj()) for v in (psi1, psi2, total)], tol)
    certs = [least_mirror(h, rho, tol) for rho in rhos]
    return ConditionCProbe(*(c if c.verified else None for c in certs))
