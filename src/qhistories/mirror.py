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

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .consistency import probability
from .errors import (
    DimensionMismatch,
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
    elementary_histories,
    event_stacks,
    history_sum,
    index_tuples,
    relation_tables,
    summable_slots,
)
from .matcore import (
    _BLOCK_BYTES,
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    commutator,
    join,
    max_norm,
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
    the mirror sum verifies against the history sum under ``state``.
    It is computed when first read, is informational only and never
    affects the verdict.
    """

    family: HistoryFamily
    per_history: dict[str, Optional[MirrorCertificate]]
    verdict: bool
    state: DensityOperator
    tol: Tolerances

    @functools.cached_property
    def coarse_sum_mirrors(self) -> dict[str, bool]:
        elems, tol = elementary_histories(self.family), self.tol
        stacks = event_stacks(self.family)
        index = index_tuples(stacks)
        slots = summable_slots([relation_tables(s, tol) for s in stacks],
                               index, index)
        coarse: dict[str, bool] = {}
        for i, j in zip(*np.nonzero(np.triu(slots, 1))):
            c1, c2 = (self.per_history[elems[k].label] for k in (i, j))
            if (c1 and c2 and c1.verified and c2.verified
                    and max_norm(c1.mirror.matrix @ c2.mirror.matrix) <= tol.op):
                s = history_sum(elems[i], elems[j], tol)
                t_sum = validate_projection(c1.mirror.matrix + c2.mirror.matrix, tol)
                coarse[s.label] = verify_mirror(t_sum, s, self.state, tol).verified
        return coarse


# Batched kernels over the ``(n, d, d)`` event stacks ``e1``, ``e2`` of n
# 2-event histories; the single-history functions are their n = 1 case.


def _event_pair(h: History) -> tuple[np.ndarray, np.ndarray]:
    if h.length != 2:
        raise WrongHistoryLength(
            f"mirrors are defined for 2-event histories, got {h.length} events")
    return h.events[0].matrix[None], h.events[1].matrix[None]


def _least_projections(e1: np.ndarray, e2: np.ndarray, rho: DensityOperator,
                       tol: Tolerances) -> np.ndarray:
    """Projections onto ``V`` (see :func:`least_mirror`) for all histories:
    each closure round is one stacked SVD of ``[P, e1 P, e2 P]``, ``P`` a
    basis padded with zero columns (which adds only zero singular values),
    and a history is updated only while its rank grows."""
    d = e1.shape[-1]

    def span(a):
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        rank = np.count_nonzero(s > tol.eig, axis=-1)
        return u * (np.arange(d) < rank[:, None])[:, None], rank

    w, vecs = np.linalg.eigh(rho.matrix)
    basis, rank = span(e1 @ (vecs * (w > tol.eig)))
    live = np.arange(len(e1))
    for _ in range(d):
        live = live[(rank[live] > 0) & (rank[live] < d)]  # these cannot grow
        if not live.size:
            break
        b = basis[live]
        grown, wider = span(np.concatenate([b, e1[live] @ b, e2[live] @ b], -1))
        more = wider > rank[live]
        live = live[more]
        basis[live], rank[live] = grown[more], wider[more]
    return basis @ basis.conj().swapaxes(-1, -2)


def _certificates(mirrors: Sequence[Optional[Projection]],
                  histories: Sequence[History], e1: np.ndarray, e2: np.ndarray,
                  rho: DensityOperator, tol: Tolerances) -> list[MirrorCertificate]:
    """Certificates for ``mirrors[i]`` of ``histories[i]``, and for the
    least mirror candidate where ``mirrors[i]`` is ``None``."""
    mirrors = list(mirrors)
    least = [i for i, t in enumerate(mirrors) if t is None]
    if least:
        for i, p in zip(least, _least_projections(e1[least], e2[least], rho, tol)):
            mirrors[i] = validate_projection(p, tol)
    for t in mirrors:
        if t.matrix.shape != e1.shape[1:]:
            raise DimensionMismatch(
                f"dimension mismatch: {t.matrix.shape} vs {e1.shape[1:]}")
    t = np.array([m.matrix for m in mirrors])[:, None]
    events = np.stack([e1, e2], axis=1)
    te = t @ events
    m1 = np.abs(te - events @ t).max(axis=(2, 3))
    traces = np.trace(np.concatenate([te[:, :1], t, events[:, :1]], axis=1)
                      @ rho.matrix, axis1=2, axis2=3)
    m2 = [(abs(te1 - t1), abs(te1 - e)) for te1, t1, e in traces.tolist()]
    return [MirrorCertificate(m, h, rho, tuple(r1), r2,
                              all(r <= tol.prob for r in (*r1, *r2)))
            for m, h, r1, r2 in zip(mirrors, histories, m1.tolist(), m2)]


def verify_mirror(t: Projection, h: History, rho: DensityOperator,
                  tol: Tolerances = DEFAULT_TOL) -> MirrorCertificate:
    """Evaluate both mirror conditions and certify the residuals."""
    return _certificates([t], [h], *_event_pair(h), rho, tol)[0]


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
    ``V <- ran[V, e1 V, e2 V]`` (rank at ``tol.eig``, at most ``d``
    rounds) until its rank stops growing.  A support direction of
    weight just above ``tol.eig`` can thus rule out every mirror while
    a provided projection passes :func:`verify_mirror`, which bounds
    trace residuals by ``tol.prob``.
    """
    return _certificates([None], [h], *_event_pair(h), rho, tol)[0]


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
    Both run batched over the family's event stacks.
    """
    if family.length != 2:
        raise WrongHistoryLength("self-decoherence is defined for 2-slot families")
    provided = provided or {}
    elems = elementary_histories(family)
    stacks = event_stacks(family)
    index = index_tuples(stacks)
    # blocks of histories whose closure stacks [P, e1 P, e2 P] fit the budget
    step = max(1, _BLOCK_BYTES // (3 * 16 * family.dim ** 2))
    certs: list[MirrorCertificate] = []
    for start in range(0, len(elems), step):
        rows = slice(start, start + step)
        certs += _certificates([provided.get(h.label) for h in elems[rows]],
                               elems[rows], stacks[0][index[rows, 0]],
                               stacks[1][index[rows, 1]], rho, tol)
    per = {h.label: cert if h.label in provided or cert.verified else None
           for h, cert in zip(elems, certs)}
    verdict = all(c is not None and c.verified for c in per.values())
    return SelfDecoherenceReport(family, per, verdict, rho, tol)


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
    via_chain = probability(h, rho)
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
