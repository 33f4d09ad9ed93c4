"""Mirror projections for 2-event histories and what they buy.

A mirror for a history ``(e1, e2)`` and state ``rho`` is a projection
``t`` that commutes with both events and correlates exactly with ``e1``
on ``rho``: ``Tr(t e1 rho) = Tr(t rho) = Tr(e1 rho)``.  When every
elementary history of a 2-slot family has one, the family is
self-decohering and each history gets an occurrence probability that
can be computed three independent ways.  The checkers here verify
mirrors, construct the least one, and test the join-additivity and
probability-bound consequences for pairs of mirrored histories with
orthogonal first events.

The construction decides existence: :func:`least_mirror` returns a
verified certificate iff some mirror exists, and every mirror dominates
the one it returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .consistency import probability
from .errors import (
    IdentityChainMismatch,
    MirrorNotVerified,
    NotCommuting,
    PreconditionFailed,
    WrongHistoryLength,
    ZeroConditioningEvent,
)
from .histories import (
    History,
    HistoryFamily,
    chain_operator,
    elementary_histories,
    history_sum,
    summable,
)
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    commutator,
    join,
    max_norm,
    range_basis,
    validate_density,
    validate_projection,
)

__all__ = [
    "MirrorCertificate",
    "SelfDecoherenceReport",
    "OccurrenceProbability",
    "Proposition1Report",
    "ContraryBoundReport",
    "verify_mirror",
    "mirror_correlation",
    "least_mirror",
    "check_self_decoherence",
    "occurrence_probability",
    "proposition1_check",
    "contrary_bound_check",
]


@dataclass(frozen=True, eq=False)
class MirrorCertificate:
    """Residuals of the two mirror conditions for one candidate.

    ``residual_m1`` holds the commutator max-norms with the two events;
    ``residual_m2`` the two trace-equality defects.  ``verified`` is
    true iff all four residuals are at most ``tol.prob``.
    """

    mirror: Projection
    history: History
    state: DensityOperator
    residual_m1: tuple[float, float]
    residual_m2: tuple[float, float]
    verified: bool


@dataclass(frozen=True, eq=False)
class SelfDecoherenceReport:
    """Mirror status of every elementary history of a 2-slot family.

    ``per_history[label]`` is ``None`` exactly when the history has no
    provided mirror and no mirror exists.  ``coarse_sum_mirrors``
    records, for summable pairs whose mirrors are orthogonal, whether
    the mirror sum verifies against the history sum.  It is
    informational only and never affects the verdict.
    """

    family: HistoryFamily
    per_history: dict[str, Optional[MirrorCertificate]]
    verdict: bool
    coarse_sum_mirrors: dict[str, bool] = field(default_factory=dict)


def verify_mirror(t: Projection, h: History, rho: DensityOperator,
                  tol: Tolerances = DEFAULT_TOL) -> MirrorCertificate:
    """Evaluate both mirror conditions and certify the residuals."""
    if h.length != 2:
        raise WrongHistoryLength(
            f"mirrors are defined for 2-event histories, got {h.length} events")
    e1, e2 = h.events
    m1 = (max_norm(commutator(t.matrix, e1.matrix)),
          max_norm(commutator(t.matrix, e2.matrix)))
    tr_te1 = complex(np.trace(t.matrix @ e1.matrix @ rho.matrix))
    tr_t = complex(np.trace(t.matrix @ rho.matrix))
    tr_e1 = complex(np.trace(e1.matrix @ rho.matrix))
    m2 = (abs(tr_te1 - tr_t), abs(tr_te1 - tr_e1))
    verified = all(r <= tol.prob for r in (*m1, *m2))
    return MirrorCertificate(t, h, rho, m1, m2, verified)


def mirror_correlation(t: Projection, e1: Projection, rho: DensityOperator,
                       tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """The two conditionals ``p(t | e1)`` and ``p(e1 | t)``.

    Requires ``[t, e1] = 0`` and both conditioning probabilities to be
    positive.
    """
    r = max_norm(commutator(t.matrix, e1.matrix))
    if r > tol.op:
        raise NotCommuting(
            f"candidate does not commute with the event (residual {r:.3e})")
    tr_te1 = float(np.trace(t.matrix @ e1.matrix @ rho.matrix).real)
    tr_t = float(np.trace(t.matrix @ rho.matrix).real)
    tr_e1 = float(np.trace(e1.matrix @ rho.matrix).real)
    if tr_e1 <= tol.prob or tr_t <= tol.prob:
        raise ZeroConditioningEvent(
            f"conditioning probabilities are ({tr_e1:.3e}, {tr_t:.3e})")
    return tr_te1 / tr_e1, tr_te1 / tr_t


def least_mirror(h: History, rho: DensityOperator,
                 tol: Tolerances = DEFAULT_TOL) -> MirrorCertificate:
    """Certificate for the least mirror candidate of ``h`` for ``rho``.

    A mirror ``t`` commutes with ``e1`` and ``e2``, and both
    ``t (1 - e1)`` and ``(1 - t) e1`` are positive operators with zero
    expectation on ``rho``, so they vanish on its support.  Hence the
    range of ``t`` contains ``V``, the smallest subspace that holds
    ``e1 supp(rho)`` and is invariant under ``e1`` and ``e2``: the
    cyclic subspace for the algebra the two events generate (Halmos,
    "Two subspaces", Trans. AMS 144 (1969)).  An invariant subspace of
    a Hermitian operator reduces it, so ``P_V`` commutes with both
    events and is a mirror iff ``P_V (1 - e1) supp(rho) = 0``, which
    holds whenever any mirror exists.  The returned certificate
    therefore verifies iff a mirror exists, and every mirror dominates
    its projection; when it does not verify, its residuals measure the
    obstruction.

    The support takes the eigenvectors of ``rho`` above ``tol.eig`` in
    full, whatever their weight, and ``V`` grows by
    ``V <- ran[V, e1 V, e2 V]`` (rank at ``tol.eig``) until its rank
    stops growing.  A support direction of weight just above
    ``tol.eig`` can thus rule out every mirror while a provided
    projection passes :func:`verify_mirror`, which bounds trace
    residuals by ``tol.prob``.
    """
    if h.length != 2:
        raise WrongHistoryLength(
            f"mirrors are defined for 2-event histories, got {h.length} events")
    e1, e2 = (e.matrix for e in h.events)
    w, vecs = np.linalg.eigh(rho.matrix)
    v = range_basis(e1 @ vecs[:, w > tol.eig], tol)
    for _ in range(h.dim):
        grown = range_basis(np.hstack([v, e1 @ v, e2 @ v]), tol)
        if grown.shape[1] == v.shape[1]:
            break
        v = grown
    return verify_mirror(validate_projection(v @ v.conj().T, tol), h, rho, tol)


def check_self_decoherence(family: HistoryFamily, rho: DensityOperator,
                           provided: Optional[Mapping[str, Projection]] = None,
                           tol: Tolerances = DEFAULT_TOL,
                           ) -> SelfDecoherenceReport:
    """Mirror status for every elementary history of a 2-slot family.

    ``provided`` assigns mirrors by elementary label.  The assignment
    is verified, not trusted, and it is final: a provided mirror that
    fails verification makes the verdict False even if some other
    mirror exists.  Unassigned histories get :func:`least_mirror`'s
    certificate when it verifies and ``None`` when no mirror exists.
    """
    elems = elementary_histories(family)
    for h in elems:
        if not h.is_two_event:
            raise WrongHistoryLength(
                "self-decoherence is defined for 2-slot families")
    per: dict[str, Optional[MirrorCertificate]] = {}
    for h in elems:
        if provided is not None and h.label in provided:
            per[h.label] = verify_mirror(provided[h.label], h, rho, tol)
        else:
            cert = least_mirror(h, rho, tol)
            per[h.label] = cert if cert.verified else None
    verdict = all(c is not None and c.verified for c in per.values())
    coarse: dict[str, bool] = {}
    for h1, h2 in itertools.combinations(elems, 2):
        if summable(h1, h2, tol) is None:
            continue
        c1, c2 = per.get(h1.label), per.get(h2.label)
        if not (c1 and c2 and c1.verified and c2.verified):
            continue
        if max_norm(c1.mirror.matrix @ c2.mirror.matrix) > tol.op:
            continue
        s = history_sum(h1, h2, tol)
        t_sum = validate_projection(c1.mirror.matrix + c2.mirror.matrix, tol)
        coarse[f"{h1.label}+{h2.label}"] = verify_mirror(t_sum, s, rho, tol).verified
    return SelfDecoherenceReport(family, per, verdict, coarse)


@dataclass(frozen=True)
class OccurrenceProbability:
    """One probability, three routes: via the mirror, the plain product
    trace, and the chain-operator square."""

    value: float
    via_mirror: complex
    via_first_event: complex
    via_chain: float


def occurrence_probability(h: History, t: Projection, rho: DensityOperator,
                           tol: Tolerances = DEFAULT_TOL) -> OccurrenceProbability:
    """``Tr(e2 t rho)`` after verifying the mirror and the identity chain.

    Raises :class:`MirrorNotVerified` when ``t`` fails certification and
    :class:`IdentityChainMismatch` when the three evaluation routes
    disagree beyond ``tol.prob``.
    """
    cert = verify_mirror(t, h, rho, tol)
    if not cert.verified:
        raise MirrorNotVerified(
            f"candidate mirror fails with residuals m1={cert.residual_m1}, "
            f"m2={cert.residual_m2}")
    e1, e2 = h.events
    via_mirror = complex(np.trace(e2.matrix @ t.matrix @ rho.matrix))
    via_first = complex(np.trace(e2.matrix @ e1.matrix @ rho.matrix))
    c = chain_operator(h)
    via_chain = float(np.trace(c @ rho.matrix @ c.conj().T).real)
    worst = max(abs(via_mirror - via_first), abs(via_mirror - via_chain),
                abs(via_first - via_chain))
    if worst > tol.prob:
        raise IdentityChainMismatch(
            f"occurrence probability routes disagree by {worst:.3e}")
    return OccurrenceProbability(via_mirror.real, via_mirror, via_first, via_chain)


@dataclass(frozen=True)
class Proposition1Report:
    """Residuals of the three orthogonality/additivity consequences for a
    mirrored pair with orthogonal first events."""

    orthogonality_residual: float
    join_additivity_residual: float
    cross_term_residual: float
    passed: bool


def proposition1_check(t: Projection, u: Projection, h1: History, h2: History,
                       psi, tol: Tolerances = DEFAULT_TOL) -> Proposition1Report:
    """Check that the two mirror images of ``psi`` are orthogonal, that
    the join acts additively on ``psi``, and that the cross term
    ``<psi| e1 e2 f1 psi>`` vanishes.

    Preconditions: ``t`` and ``u`` verify as mirrors of ``h1`` and
    ``h2`` for the pure state, the histories share their final event,
    and their first events are orthogonal.  Residuals are reported as
    computed; ``passed`` compares them against ``10 * tol.prob``.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > tol.prob:
        raise PreconditionFailed("state vector is not normalized")
    rho = validate_density(np.outer(psi, psi.conj()), tol)
    cert_t = verify_mirror(t, h1, rho, tol)
    cert_u = verify_mirror(u, h2, rho, tol)
    if not cert_t.verified:
        raise PreconditionFailed(
            f"first mirror fails with residuals m1={cert_t.residual_m1}, "
            f"m2={cert_t.residual_m2}")
    if not cert_u.verified:
        raise PreconditionFailed(
            f"second mirror fails with residuals m1={cert_u.residual_m1}, "
            f"m2={cert_u.residual_m2}")
    e1, f1 = h1.events[0], h2.events[0]
    e2 = h1.events[1]
    if max_norm(e2.matrix - h2.events[1].matrix) > tol.op:
        raise PreconditionFailed("histories do not share their final event")
    if max_norm(e1.matrix @ f1.matrix) > tol.op:
        raise PreconditionFailed("first events are not orthogonal")
    t_psi = t.matrix @ psi
    u_psi = u.matrix @ psi
    r_orth = abs(complex(np.vdot(t_psi, u_psi)))
    joined = join(t, u, tol)
    r_join = float(np.linalg.norm(joined.matrix @ psi - t_psi - u_psi))
    r_cross = abs(complex(np.vdot(psi, e1.matrix @ e2.matrix @ f1.matrix @ psi)))
    passed = all(r <= 10.0 * tol.prob for r in (r_orth, r_join, r_cross))
    return Proposition1Report(r_orth, r_join, r_cross, passed)


@dataclass(frozen=True, eq=False)
class ContraryBoundReport:
    """Probability bound for two mirrored histories with orthogonal first
    events sharing their final event.

    ``bound_residual`` is ``p(h1) + p(h2) - Tr(e2 rho)``; the
    conditional sum is reported when the final event has positive
    probability.  ``components`` carries the per-eigenvector reports
    when a mixed state is decomposed.
    """

    p_h1: float
    p_h2: float
    p_e2: float
    bound_residual: float
    conditional_sum: Optional[float]
    passed: bool
    components: tuple["ContraryBoundReport", ...] = ()


def contrary_bound_check(h1: History, h2: History,
                         certificates: tuple[MirrorCertificate, MirrorCertificate],
                         rho: DensityOperator,
                         tol: Tolerances = DEFAULT_TOL,
                         allow_mixed: bool = False) -> ContraryBoundReport:
    """Check ``p(h1) + p(h2) <= Tr(e2 rho)`` for a mirrored pair.

    Defined for pure states; with ``allow_mixed`` the state is
    decomposed spectrally and the bound is additionally checked on each
    eigenvector in the support.  A mirror's two positive defect
    operators vanish on the support, so an exact mirror such as
    :func:`least_mirror`'s verifies on every eigenvector; one that
    verifies only within ``tol.prob`` may not, and then this raises
    :class:`PreconditionFailed`.
    """
    cert1, cert2 = certificates
    if not (cert1.verified and cert2.verified):
        raise PreconditionFailed("both mirror certificates must be verified")
    e1, f1 = h1.events[0], h2.events[0]
    e2 = h1.events[1]
    if max_norm(e2.matrix - h2.events[1].matrix) > tol.op:
        raise PreconditionFailed("histories do not share their final event")
    if max_norm(e1.matrix @ f1.matrix) > tol.op:
        raise PreconditionFailed("first events are not orthogonal")
    components: tuple[ContraryBoundReport, ...] = ()
    if rho.purity < 1.0 - tol.prob:
        if not allow_mixed:
            raise PreconditionFailed(
                f"state is mixed (purity {rho.purity:.6f}); "
                "pass allow_mixed to decompose it")
        comps = []
        w, v = np.linalg.eigh(rho.matrix)
        for i in range(len(w)):
            if w[i] <= tol.eig:
                continue
            comp_rho = validate_density(
                np.outer(v[:, i], v[:, i].conj()), tol)
            comp_certs = (verify_mirror(cert1.mirror, h1, comp_rho, tol),
                          verify_mirror(cert2.mirror, h2, comp_rho, tol))
            comps.append(contrary_bound_check(
                h1, h2, comp_certs, comp_rho, tol, allow_mixed=False))
        components = tuple(comps)

    p1, p2 = probability(h1, rho), probability(h2, rho)
    p_e2 = float(np.trace(e2.matrix @ rho.matrix).real)
    bound_residual = p1 + p2 - p_e2
    conditional_sum = (p1 + p2) / p_e2 if p_e2 > tol.prob else None
    passed = bound_residual <= tol.prob and (
        conditional_sum is None or conditional_sum <= 1.0 + tol.prob)
    if components:
        passed = passed and all(c.passed for c in components)
    return ContraryBoundReport(p1, p2, p_e2, bound_residual,
                               conditional_sum, passed, components)
