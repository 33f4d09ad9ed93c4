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
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .consistency import FamilyAnalysis, _event_probability, probability
from .errors import (
    DimensionMismatch,
    IdentityChainMismatch,
    MirrorNotVerified,
    NotCommuting,
    PreconditionFailed,
    WrongHistoryLength,
    ZeroConditioningEvent,
)
from .histories import History, HistoryFamily
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    _blocks,
    _state_stack,
    commutator,
    join,
    max_norm,
    pure_densities,
    validate_projections,
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
    "least_mirrors",
    "check_self_decoherence",
    "self_decoherence_each",
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
    """Mirror status of every elementary history of a 2-slot family,
    with the family's analysis.

    ``per_history[label]`` is ``None`` exactly when the history has no
    provided mirror and no mirror exists.  ``coarse_sum_mirrors``
    records, for summable pairs whose verified mirrors are orthogonal,
    whether the mirror sum verifies against the history sum (merged at the
    slot the relation tables name) under ``state``: both are trusted sums
    of certified matrices, all pairs in one :func:`_residuals` call.  It is
    computed when first read and never affects the verdict.
    """

    analysis: FamilyAnalysis
    per_history: dict[str, Optional[MirrorCertificate]]
    verdict: bool
    state: DensityOperator

    @functools.cached_property
    def coarse_sum_mirrors(self) -> dict[str, bool]:
        tol = self.analysis.tol
        labels, certs = list(self.per_history), list(self.per_history.values())
        live = [k for k, c in enumerate(certs) if c is not None and c.verified]
        events = self.analysis.event_pairs[0][live]
        mirrors = np.array([certs[k].mirror.matrix for k in live]
                           ).reshape(events[:, 0].shape)
        slots = np.triu(self.analysis.summable_slots()[0], 1)[np.ix_(live, live)]
        a, b = np.nonzero(slots)
        keep = np.abs(mirrors[a] @ mirrors[b]).max(axis=(-2, -1)) <= tol.op
        a, b = a[keep], b[keep]
        merged, k = events[a], slots[a, b] - 1
        merged[np.arange(len(a)), k] += events[b, k]
        res = _residuals((mirrors[a] + mirrors[b])[None], [0], merged,
                         self.state.matrix[None], tol)[0]
        return {f"{labels[live[x]]}+{labels[live[y]]}": r[2] for x, y, r
                in zip(a.tolist(), b.tolist(), res)}


# Batched kernels over the ``(n, 2, d, d)`` event stack of n 2-event
# histories and S states; one-history functions are the n = S = 1 case.


def _event_pairs(*histories: History) -> np.ndarray:
    for h in histories:
        if h.length != 2:
            raise WrongHistoryLength(
                f"mirrors are defined for 2-event histories, got {h.length} events")
    return np.array([[e.matrix for e in h.events] for h in histories])


def _supports(states: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, list[int]]:
    """``(G, d, r)`` bases of the distinct supports of ``states`` and, for
    each state, the position of its own among them.

    A support is spanned by the eigenvectors above ``tol.eig``: the trailing
    columns of ``eigh``, whose eigenvalues ascend.  Every basis keeps the
    ``r`` trailing columns, ``r`` the largest support rank of the stack, and
    zeroes those at or below ``tol.eig``.  A state shares the support of the
    first earlier state whose support projection lies within ``tol.eig`` of
    its own in the Frobenius norm.  That distance is ``sqrt(2 sum sin^2
    theta_i)`` over the principal angles when the ranks agree, and at least
    1 when they do not, so it joins only supports of one rank r whose
    stacked bases ``[V_s, V_t]`` have rank r at ``tol.eig``, the rank rule of
    the closure's SVDs.  (Its first round, ``[e1 S, e2 e1 S]``, admits an
    ``e1 S`` direction that ``e2`` keeps from ``tol.eig / sqrt(2)``, and its
    stop at an invariance defect of ``tol.eig / 2`` is exact by Weyl's
    inequality.)  ``V`` depends on a state only through its support, and
    ``supp(lam rho1 + (1 - lam) rho2)`` is ``supp rho1 + supp rho2`` for
    every ``lam`` whose weighted eigenvalues stay above ``tol.eig``, so the
    mixtures of a weight grid are closed once.
    """
    w, vecs = np.linalg.eigh(states)
    above = w > tol.eig
    d, r = states.shape[-1], int(above.sum(axis=1).max(initial=0))
    bases = vecs[..., d - r:] * above[:, None, d - r:]
    if len(states) < 2:
        return bases, list(range(len(states)))
    proj = (bases @ bases.conj().swapaxes(-1, -2)).reshape(len(states), -1)
    near: list[list[bool]] = []
    for rows in _blocks(len(proj), 16 * proj.size):  # rows of the pair table
        diff = proj[rows, None] - proj
        near += ((diff * diff.conj()).real.sum(-1) <= tol.eig ** 2).tolist()
    leads: list[int] = []
    which: list[int] = []
    for s, row in enumerate(near):
        which.append(next((g for g, t in enumerate(leads) if row[t]), len(leads)))
        if which[-1] == len(leads):
            leads.append(s)
    return bases[leads], which


def _least_projections(events: np.ndarray, supports: np.ndarray,
                       tol: Tolerances) -> np.ndarray:
    """Projections onto ``V`` (see :func:`least_mirror`) for all (support,
    history) pairs, support-major, from the ``(G, d, r)`` support bases.
    The first round is one stacked SVD of the ``d x 2r`` matrices
    ``[e1 S, e2 e1 S]``, where an ``e1 S`` direction that ``e2`` keeps counts
    from ``tol.eig / sqrt(2)``.  Bases keep the width that round's SVD gives,
    ``min(d, 2r)``, with zero columns past each rank (zero columns add only
    zero singular values).  A later round stops each pair whose defect
    ``||(1 - P P^dag)[e1 P, e2 P]||_F`` is at most ``tol.eig / 2`` (by Weyl,
    no singular value of ``[P, e1 P, e2 P]`` past ``rank P`` exceeds it) and
    takes one stacked SVD of ``[P, e1 P, e2 P]`` for the others; the bases
    are padded to that SVD's width only when some pair grows."""
    n, d = len(events), events.shape[-1]

    def span(a):
        a = a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])  # r may be 0
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        rank = (s > tol.eig).sum(axis=1)
        return u * (np.arange(u.shape[-1]) < rank[:, None])[:, None], rank

    first = events[:, 0] @ supports[:, None]
    basis, rank = span(np.concatenate([first, events[:, 1] @ first], -1))
    live = np.arange(len(basis))  # pair g * n + i: support g, history i
    for _ in range(d):
        b = basis[live]
        moved = events[live % n] @ b[:, None]
        off = moved - b[:, None] @ (b.conj().swapaxes(-1, -2)[:, None] @ moved)
        keep = (off * off.conj()).real.sum(axis=(1, 2, 3)) > (tol.eig / 2) ** 2
        if not keep.any():
            break
        grown, wider = span(np.concatenate([b[keep], *moved[keep].swapaxes(0, 1)], -1))
        more = wider > rank[live[keep]]
        live = live[keep][more]
        if not live.size:
            break
        if grown.shape[-1] > basis.shape[-1]:
            pad = np.zeros((*basis.shape[:2], grown.shape[-1] - basis.shape[-1]),
                           dtype=basis.dtype)
            basis = np.concatenate([basis, pad], -1)
        basis[live], rank[live] = grown[more], wider[more]
    return basis @ basis.conj().swapaxes(-1, -2)


def _residuals(mirrors: np.ndarray, which: Sequence[int], pairs: np.ndarray,
               states: np.ndarray, tol: Tolerances) -> list[list[tuple]]:
    """``[s][i]``: the commutator max-norms of ``t = mirrors[which[s], i]``
    with the events ``pairs[i]``, the defects of ``Tr(t e1 rho)`` against
    ``Tr(t rho)`` and ``Tr(e1 rho)`` for ``rho = states[s]``, and whether all
    four are within ``tol.prob``: a certificate's ``(residual_m1,
    residual_m2, verified)``.

    ``mirrors`` stacks the ``(G, n, d, d)`` mirrors of G groups of states,
    so the commutators are formed once per (group, history), one ``d x d``
    product each way.  ``Tr(X rho)`` sums the elementwise products of ``X``
    and ``rho^T`` over their contiguous ``d^2`` axis, with no product formed
    only to be traced; that sum keeps its bits whatever the stack's shape,
    as ``einsum`` does not.  The defects' moduli are Python's ``abs``, as
    ``np.abs`` differs from it in the last bit of some complex values."""
    d = pairs.shape[-1]
    t = mirrors[:, :, None]
    te = t @ pairs
    m1 = np.abs(te - pairs @ t).max(axis=(3, 4)).tolist()
    flat = np.concatenate([te[:, :, :1], t], axis=2).reshape(*te.shape[:3], d * d)
    rho_t = states.swapaxes(1, 2).reshape(-1, 1, d * d)  # rho^T, one row each
    traces = (flat.take(which, 0) * rho_t[:, :, None]).sum(-1).tolist()
    firsts = (pairs[:, 0].reshape(-1, d * d) * rho_t).sum(-1).tolist()
    m2 = [[(abs(te1 - t1), abs(te1 - e)) for (te1, t1), e in zip(*per)]
          for per in zip(traces, firsts)]
    p = tol.prob
    return [[((a, b), (c, e), a <= p and b <= p and c <= p and e <= p)
             for (a, b), (c, e) in zip(m1[g], row)] for g, row in zip(which, m2)]


def _certificates(mirrors: Sequence[Optional[Projection]],
                  histories: Sequence[History], events: np.ndarray,
                  rhos: Sequence[DensityOperator], tol: Tolerances,
                  ) -> list[list[MirrorCertificate]]:
    """Certificates ``[s][i]`` under ``rhos[s]`` for ``mirrors[i]`` of
    ``histories[i]``, or for its least mirror candidate where that is
    ``None``.  State s reads group ``which[s]`` of G: the distinct supports
    of :func:`_supports` when some mirror is ``None``, else one group.
    Least candidates are closed and validated once per group, whose
    certificates share them, and the ``(G, n, d, d)`` mirror stack is traced
    against every state by one :func:`_residuals` call per history block;
    blocks hold the histories whose ``[P, e1 P, e2 P]`` fit the budget."""
    d = events.shape[-1]
    states = _state_stack(rhos, d)
    for t in mirrors:
        if t is not None and t.matrix.shape != (d, d):
            raise DimensionMismatch(f"dimension mismatch: {t.matrix.shape} vs {d, d}")
    bases, which = (_supports(states, tol) if None in mirrors
                    else (None, [0] * len(rhos)))
    certs: list[list[MirrorCertificate]] = [[] for _ in rhos]
    for rows in _blocks(len(mirrors), 3 * 16 * d * d * len(rhos)):
        pairs, given = events[rows], mirrors[rows]
        least = [i for i, t in enumerate(given) if t is None]
        found = (validate_projections(_least_projections(pairs[least], bases, tol), tol)
                 if least else [])
        chosen = [[next(row) if t is None else t for t in given] for row in (
            iter(found[g * len(least):]) for g in range(len(set(which))))]
        t = np.array([[m.matrix for m in row] for row in chosen],
                     dtype=complex).reshape(len(chosen), len(pairs), d, d)
        for out, g, rho, res in zip(certs, which, rhos,
                                    _residuals(t, which, pairs, states, tol)):
            out += [MirrorCertificate(m, h, rho, *r)
                    for m, h, r in zip(chosen[g], histories[rows], res)]
    return certs


def verify_mirror(t: Projection, h: History, rho: DensityOperator,
                  tol: Tolerances = DEFAULT_TOL) -> MirrorCertificate:
    """Evaluate both mirror conditions and certify the residuals."""
    return _certificates([t], [h], _event_pairs(h), [rho], tol)[0][0]


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
    tr_te1 = _event_probability(t.matrix @ e1.matrix, rho)
    tr_t = _event_probability(t.matrix, rho)
    tr_e1 = _event_probability(e1.matrix, rho)
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

    The support ``S`` takes the eigenvectors of ``rho`` above ``tol.eig``
    in full, whatever their weight.  ``V`` starts as ``ran[e1 S, e2 e1 S]``
    and grows by ``V <- ran[P, e1 P, e2 P]``, ``P`` its basis, while its
    rank at ``tol.eig`` grows.  It stops without that SVD once
    ``||(1 - P P^dag)[e1 P, e2 P]||_F <= tol.eig / 2``: by Weyl's inequality
    no singular value of ``[P, e1 P, e2 P]`` past ``rank P`` exceeds that
    defect, which leaves ``tol.eig / 2`` for rounding.  An ``e1 S`` direction
    that ``e2`` keeps has ``sqrt(2)`` times its singular value in the first
    round, so one in ``(tol.eig / sqrt(2), tol.eig]`` enters ``V``.  A support
    direction of weight just above ``tol.eig`` can rule out every mirror
    while a provided projection passes :func:`verify_mirror`, which bounds
    trace residuals by ``tol.prob``.
    """
    return least_mirrors(h, [rho], tol)[0]


def least_mirrors(h: History, rhos: Sequence[DensityOperator],
                  tol: Tolerances = DEFAULT_TOL) -> list[MirrorCertificate]:
    """:func:`least_mirror` for each of a sequence of states, in one pass.

    ``V`` depends on a state only through its support, so states whose
    support projections lie within ``tol.eig`` of each other (Frobenius
    norm; see :func:`_supports`) share one closure and one least projection:
    all the mixtures ``lam rho1 + (1 - lam) rho2`` of a weight grid have
    the support ``supp rho1 + supp rho2``, unless ``lam`` is so close to 0
    or 1 that a weighted eigenvalue falls below ``tol.eig``.  Each
    certificate is still traced against its own state.
    """
    return [row[0] for row in _certificates([None], [h], _event_pairs(h), rhos, tol)]


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
    return self_decoherence_each(FamilyAnalysis(family, tol), [rho], provided)[0]


def self_decoherence_each(analysis: FamilyAnalysis, rhos: Sequence[DensityOperator],
                          provided: Optional[Mapping[str, Projection]] = None,
                          ) -> list[SelfDecoherenceReport]:
    """:func:`check_self_decoherence` for many states, decided in one pass
    over a family analysis that callers asking about many states build once.

    The supports of the states are computed once per call, and states
    whose supports coincide at ``tol.eig`` share the closure of every
    history without a provided mirror, as in :func:`least_mirrors`; the
    certificates are traced against each state's own matrix.
    """
    family, tol = analysis.family, analysis.tol
    if family.length != 2:
        raise WrongHistoryLength("self-decoherence is defined for 2-slot families")
    provided = provided or {}
    elems = analysis.histories
    certs = _certificates([provided.get(h.label) for h in elems], elems,
                          analysis.event_pairs[0], rhos, tol)
    pers = [{h.label: cert if h.label in provided or cert.verified else None
             for h, cert in zip(elems, row)} for row in certs]
    return [SelfDecoherenceReport(
        analysis, per, all(c is not None and c.verified for c in per.values()), rho)
        for per, rho in zip(pers, rhos)]


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


def _contrary_events(h1: History, h2: History, tol: Tolerances) -> tuple:
    """``e1``, ``e2`` and ``f1`` of the histories ``(e1, e2)`` and ``(f1, e2)``,
    after checking that they share their final event and that their first
    events are orthogonal."""
    (e1, e2), (f1, f2) = ([e.matrix for e in h.events] for h in (h1, h2))
    if max_norm(e2 - f2) > tol.op:
        raise PreconditionFailed("histories do not share their final event")
    if max_norm(e1 @ f1) > tol.op:
        raise PreconditionFailed("first events are not orthogonal")
    return e1, e2, f1


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

    Preconditions: ``psi`` has unit norm within ``tol.prob`` (a NaN or
    infinite entry fails), ``t`` and ``u`` verify as mirrors of ``h1`` and
    ``h2`` for the pure state ``psi psi^dag`` (built by
    :func:`~qhistories.matcore.pure_densities`, which raises
    :class:`TraceNotOne` beyond ``tol.op``), the histories share their final
    event, and their first events are orthogonal.  Residuals are reported as
    computed; ``passed`` compares them against ``10 * tol.prob``.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(psi) - 1.0) <= tol.prob:
        raise PreconditionFailed("state vector is not normalized")
    rho = pure_densities(psi[None], tol)[0]
    certs = _certificates([t, u], [h1, h2], _event_pairs(h1, h2), [rho], tol)[0]
    for which, cert in zip(("first", "second"), certs):
        if not cert.verified:
            raise PreconditionFailed(
                f"{which} mirror fails with residuals m1={cert.residual_m1}, "
                f"m2={cert.residual_m2}")
    e1, e2, f1 = _contrary_events(h1, h2, tol)
    t_psi = t.matrix @ psi
    u_psi = u.matrix @ psi
    r_orth = abs(complex(np.vdot(t_psi, u_psi)))
    joined = join(t, u, tol)
    r_join = float(np.linalg.norm(joined.matrix @ psi - t_psi - u_psi))
    r_cross = abs(complex(np.vdot(psi, e1 @ e2 @ f1 @ psi)))
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
    e2 = _contrary_events(h1, h2, tol)[1]
    components: tuple[ContraryBoundReport, ...] = ()
    if rho.purity < 1.0 - tol.prob:
        if not allow_mixed:
            raise PreconditionFailed(
                f"state is mixed (purity {rho.purity:.6f}); "
                "pass allow_mixed to decompose it")
        w, v = np.linalg.eigh(rho.matrix)
        comp_rhos = pure_densities(v.T[w > tol.eig], tol)
        comp_certs = _certificates([cert1.mirror, cert2.mirror], [h1, h2],
                                   _event_pairs(h1, h2), comp_rhos, tol)
        components = tuple(contrary_bound_check(h1, h2, tuple(c), r, tol)
                           for r, c in zip(comp_rhos, comp_certs))

    p1, p2 = probability(h1, rho), probability(h2, rho)
    p_e2 = _event_probability(e2, rho)
    bound_residual = p1 + p2 - p_e2
    conditional_sum = (p1 + p2) / p_e2 if p_e2 > tol.prob else None
    passed = bound_residual <= tol.prob and (
        conditional_sum is None or conditional_sum <= 1.0 + tol.prob)
    if components:
        passed = passed and all(c.passed for c in components)
    return ContraryBoundReport(p1, p2, p_e2, bound_residual,
                               conditional_sum, passed, components)
