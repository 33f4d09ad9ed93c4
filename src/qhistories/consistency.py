"""Probability assignments and consistency checkers for history families.

The decoherence functional ``D(h1, h2) = Tr(C_1 rho C_2^dag)`` drives
every notion checked here: weak decoherence (vanishing real part on
summable pairs), medium decoherence (vanishing modulus on alternative
pairs), linear positivity, the brute-force additivity check, the
product-trace compatibility for commutative histories, and ordered
consistency across medium-decohering families.  Checkers evaluate the
elementary histories; multilinearity of the chain operator carries each
verdict to every coarse-graining (the additivity checker verifies this
by enumeration).

Each checker is a reduction: over the matrix ``D`` of all elementary
pairs, computed from one chain-operator stack in row blocks of bounded
size, or over that stack's traces, with the pairs selected by the
per-slot relation tables of :mod:`qhistories.histories`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadParameters,
    NotCommuting,
    PreconditionFailed,
    ZeroConditioningEvent,
)
from .histories import (
    DEFAULT_MEMBER_CAP,
    History,
    HistoryFamily,
    alternative_pairs,
    chain_operator,
    chain_stack,
    commutative_histories,
    event_stacks,
    index_tuples,
    is_commutative,
    leq_table,
    make_resolution,
    member_options,
    relation_tables,
    summable_slots,
)
from .matcore import (
    _BLOCK_BYTES,
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    complement,
    projector_onto,
    validate_density,
)
from . import sampling

__all__ = [
    "NOTIONS",
    "ConsistencyReport",
    "ContraryInferenceInstance",
    "decoherence_functional",
    "probability",
    "check_weak_decoherence",
    "check_medium_decoherence",
    "check_linear_positivity",
    "check_sum_rule",
    "check_C1_compatibility",
    "check_C1_family",
    "check_ordered_consistency",
    "conditional_probability",
    "contrary_inference_search",
]

NOTIONS = ("weak", "medium", "linear-positive", "ordered", "sum-rule", "C1-compat")


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of one notion check.

    ``worst_residual`` is a max-norm defect for equality-type notions
    and a signed worst violation for inequality-type notions; in both
    cases the verdict is true iff it is at most ``tol.prob``.
    """

    notion: str
    verdict: bool
    worst_pair: Optional[tuple[str, str]]
    worst_residual: float
    pair_count: int


def decoherence_functional(h1: History, h2: History,
                           rho: DensityOperator) -> complex:
    """``Tr(C_1 rho C_2^dag)`` for the two chain operators."""
    c1 = chain_operator(h1)
    c2 = chain_operator(h2)
    return complex(np.trace(c1 @ rho.matrix @ c2.conj().T))


def probability(h: History, rho: DensityOperator) -> float:
    """``Tr(C rho C^dag)``, the diagonal of the decoherence functional.

    Returned raw (not clamped); report layers clamp for display.
    """
    c = chain_operator(h)
    return float(np.trace(c @ rho.matrix @ c.conj().T).real)


def _decoherence_blocks(chains: np.ndarray, rho: DensityOperator):
    """Row blocks ``(rows, D[rows, :])`` of ``D[i, j] = Tr(C_i rho C_j^dag)``.

    ``chains`` is an ``(N, d, d)`` chain stack; ``Tr(A B^dag)`` is the
    sum of ``A * conj(B)``, so each block is one matrix product.  Blocks
    stay within ``_BLOCK_BYTES`` (the whole matrix for N = 4096
    elementary histories would take 268 MB).
    """
    n, d, _ = chains.shape
    left = (chains @ rho.matrix).reshape(n, d * d)
    right = chains.reshape(n, d * d).conj().T
    step = max(1, _BLOCK_BYTES // (right.itemsize * n))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        yield rows, left[rows] @ right


def _probabilities(chains: np.ndarray, rho: DensityOperator) -> np.ndarray:
    """``Tr(C rho C^dag)`` for every chain in the stack (the diagonal of D)."""
    return np.einsum("iab,iab->i", chains @ rho.matrix, chains.conj()).real


def _chain_traces(chains: np.ndarray, rho: DensityOperator) -> np.ndarray:
    """``Tr(C rho)`` for every chain in the stack."""
    return np.einsum("iab,ba->i", chains, rho.matrix)


def _worst(values: np.ndarray, mask) -> tuple[float, Optional[int]]:
    """Largest masked value and its first flat position, or ``(0.0, None)``
    when no masked value exceeds 0: the running maximum of a loop that
    starts at 0 and keeps the first strictly larger value."""
    masked = np.where(mask, values, 0.0).ravel()
    at = int(np.argmax(masked)) if masked.size else 0
    if not masked.size or not masked[at] > 0.0:
        return 0.0, None
    return float(masked[at]), at


def _history_label(labels: Sequence[Sequence[str]], idx) -> str:
    return "(" + ",".join(labels[k][i] for k, i in enumerate(idx)) + ")"


def _elementary_labels(stacks: Sequence[np.ndarray]) -> list[list[str]]:
    return [[str(i + 1) for i in range(len(s))] for s in stacks]


def _member_stacks(family: HistoryFamily, tol: Tolerances, cap: int,
                   ) -> tuple[list[np.ndarray], list[list[str]]]:
    """Per-slot option matrices and labels of the family's members."""
    options = member_options(family, tol, cap)
    stacks = [np.array([p.matrix for _, p in slot]) for slot in options]
    return stacks, [[label for label, _ in slot] for slot in options]


def _worst_elementary_pair(family: HistoryFamily, rho: DensityOperator,
                           tol: Tolerances, pairs, residual,
                           ) -> tuple[float, Optional[tuple[str, str]], int]:
    """Largest ``residual(D)`` over elementary pairs ``i < j`` in ``pairs``.

    ``pairs(tables, rows, cols)`` selects pairs of index tuples from the
    slot relation tables.  Ties go to the first pair in lexicographic
    order; the worst stays 0 with no pair when nothing exceeds 0.
    """
    stacks = event_stacks(family)
    tables = [relation_tables(s, tol) for s in stacks]
    index = index_tuples(stacks)
    n = len(index)
    worst, where, count = 0.0, None, 0
    for rows, block in _decoherence_blocks(chain_stack(stacks), rho):
        mask = pairs(tables, index[rows], index)
        mask &= np.arange(n) > np.arange(rows.start, rows.stop)[:, None]
        count += int(np.count_nonzero(mask))
        value, at = _worst(residual(block), mask)
        if value > worst:
            worst, where = value, (rows.start + at // n, at % n)
    pair = None
    if where is not None:
        labels = _elementary_labels(stacks)
        pair = tuple(_history_label(labels, index[i]) for i in where)
    return worst, pair, count


def check_weak_decoherence(family: HistoryFamily, rho: DensityOperator,
                           tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """``Re D(h1, h2) = 0`` over all summable pairs of elementary histories."""
    worst, pair, count = _worst_elementary_pair(
        family, rho, tol,
        lambda tables, rows, cols: summable_slots(tables, rows, cols) > 0,
        lambda block: np.abs(block.real))
    return ConsistencyReport("weak", worst <= tol.prob, pair, worst, count)


def check_medium_decoherence(family: HistoryFamily, rho: DensityOperator,
                             tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """``|D(h1, h2)| = 0`` over all alternative pairs of elementary histories."""
    worst, pair, count = _worst_elementary_pair(
        family, rho, tol, alternative_pairs, np.abs)
    return ConsistencyReport("medium", worst <= tol.prob, pair, worst, count)


def check_linear_positivity(family: HistoryFamily, rho: DensityOperator,
                            tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """``Re Tr(C_h rho) >= 0`` over elementary histories.

    ``worst_residual`` is the negated minimum, so the verdict reads the
    same way as for the equality notions.  Elementary positivity extends
    to all coarse-grainings because their chain traces are sums of
    elementary ones.
    """
    stacks = event_stacks(family)
    negated = -_chain_traces(chain_stack(stacks), rho).real
    at = int(np.argmax(negated))
    worst = float(negated[at])
    label = _history_label(_elementary_labels(stacks), index_tuples(stacks)[at])
    return ConsistencyReport("linear-positive", worst <= tol.prob,
                             (label, label), worst, len(negated))


def check_sum_rule(family: HistoryFamily, rho: DensityOperator,
                   tol: Tolerances = DEFAULT_TOL,
                   cap: int = DEFAULT_MEMBER_CAP) -> ConsistencyReport:
    """Brute-force additivity over every summable pair of family members.

    Also checks that the elementary probabilities sum to 1.  Raises
    :class:`FamilyTooLarge` past ``cap`` members.  Equivalent to weak
    decoherence; kept as an independent oracle: it never reads the
    decoherence-functional matrix, and evaluates each merged member's
    probability from its own chain operator.
    """
    stacks, labels = _member_stacks(family, tol, cap)
    index = index_tuples(stacks)
    probs = _probabilities(chain_stack(stacks), rho)
    slots = summable_slots([relation_tables(s, tol) for s in stacks],
                           index, index)
    a, b = np.nonzero(np.triu(slots, 1))
    merged = []
    for k, events in enumerate(stacks):
        slot_events = events[index[a, k]]
        here = slots[a, b] == k + 1
        slot_events[here] += events[index[b[here], k]]
        merged.append(slot_events)
    chains = merged[0]
    for slot_events in merged[1:]:
        chains = slot_events @ chains
    residuals = np.abs(_probabilities(chains, rho) - probs[a] - probs[b])
    worst, at = _worst(residuals, True)
    worst_pair = None
    if at is not None:
        worst_pair = (_history_label(labels, index[a[at]]),
                      _history_label(labels, index[b[at]]))
    total = np.sum(_probabilities(chain_stack(event_stacks(family)), rho))
    norm_defect = float(abs(total - 1.0))
    if norm_defect > worst:
        worst, worst_pair = norm_defect, None
    return ConsistencyReport("sum-rule", worst <= tol.prob, worst_pair, worst,
                             len(a))


def check_C1_compatibility(h: History, rho: DensityOperator,
                           tol: Tolerances = DEFAULT_TOL) -> bool:
    """Chain probability vs plain product trace for a commutative history.

    Raises :class:`NotCommuting` when the events do not all commute.
    """
    if not is_commutative(h, tol):
        raise NotCommuting("history events do not commute pairwise")
    rhs = complex(np.trace(chain_operator(h) @ rho.matrix))
    return abs(probability(h, rho) - rhs) <= tol.prob


def check_C1_family(family: HistoryFamily, rho: DensityOperator,
                    tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """Aggregate of :func:`check_C1_compatibility` over the commutative
    elementary histories; non-commutative ones are skipped."""
    stacks = event_stacks(family)
    index = index_tuples(stacks)
    commutative = commutative_histories(stacks, index, tol)
    chains = chain_stack(stacks)
    residuals = np.abs(_probabilities(chains, rho) - _chain_traces(chains, rho))
    worst, at = _worst(residuals, commutative)
    worst_pair = None
    if at is not None:
        label = _history_label(_elementary_labels(stacks), index[at])
        worst_pair = (label, label)
    return ConsistencyReport("C1-compat", worst <= tol.prob, worst_pair, worst,
                             int(np.count_nonzero(commutative)))


def check_ordered_consistency(family: HistoryFamily, rho: DensityOperator,
                              context: Sequence[HistoryFamily] = (),
                              tol: Tolerances = DEFAULT_TOL,
                              cap: int = DEFAULT_MEMBER_CAP) -> ConsistencyReport:
    """Probability monotonicity along slot-wise domination.

    The family itself and every context family must be medium-decohering
    with respect to ``rho`` (raises :class:`PreconditionFailed`
    otherwise).  Compares every member of ``family`` to every member of
    the family and each context family.
    """
    for i, fam in enumerate((family, *context)):
        med = check_medium_decoherence(fam, rho, tol)
        if not med.verdict:
            name = f"context family {i}" if i else "family"
            raise PreconditionFailed(
                f"{name} is not medium-decohering (worst residual "
                f"{med.worst_residual:.3e})")
    own, own_labels = _member_stacks(family, tol, cap)
    own_index = index_tuples(own)
    own_probs = _probabilities(chain_stack(own), rho)
    worst, worst_pair, count = 0.0, None, 0
    for fam in (family, *context):
        others, other_labels = ((own, own_labels) if fam is family
                                else _member_stacks(fam, tol, cap))
        if fam.length != family.length or fam.dim != family.dim:
            continue
        other_index = index_tuples(others)
        other_probs = (own_probs if fam is family
                       else _probabilities(chain_stack(others), rho))
        leq = np.ones((len(own_index), len(other_index)), dtype=bool)
        for k in range(family.length):
            table = leq_table(own[k], others[k], tol)
            leq &= table[own_index[:, k, None], other_index[None, :, k]]
        count += int(np.count_nonzero(leq))
        violation, at = _worst(own_probs[:, None] - other_probs[None], leq)
        if violation > worst:
            i, j = divmod(at, len(other_index))
            worst, worst_pair = violation, (
                _history_label(own_labels, own_index[i]),
                _history_label(other_labels, other_index[j]))
    return ConsistencyReport("ordered", worst <= tol.prob, worst_pair, worst, count)


def conditional_probability(h: History, rho: DensityOperator,
                            tol: Tolerances = DEFAULT_TOL) -> float:
    """``p(h) / Tr(E_last rho)`` with the final event as the condition."""
    e_last = h.events[-1]
    denom = float(np.trace(e_last.matrix @ rho.matrix).real)
    if denom <= tol.prob:
        raise ZeroConditioningEvent(
            f"conditioning event has probability {denom:.3e}")
    return probability(h, rho) / denom


@dataclass(frozen=True)
class ContraryInferenceInstance:
    """A state and projection triple supporting two certain retrodictions.

    Both 2-event families generated by ``(e1, e2)`` and ``(f1, e2)`` are
    weakly decohering for ``psi`` while each family retrodicts its own
    first event with certainty given ``e2``, despite ``e1`` and ``f1``
    being orthogonal.
    """

    psi: np.ndarray
    e1: Projection
    f1: Projection
    e2: Projection
    p_e2: float
    conditional_1: float
    conditional_2: float
    weak_1: ConsistencyReport
    weak_2: ConsistencyReport
    trial: int


def _two_event_family(first: Projection, second: Projection,
                      tol: Tolerances) -> HistoryFamily:
    slots = []
    for p in (first, second):
        events = [p] if p.rank == p.dim else [p, complement(p, tol)]
        slots.append(make_resolution(events, tol))
    return HistoryFamily(tuple(slots))


def contrary_inference_search(dim: int, trials: int, seed: int = 0,
                              tol: Tolerances = DEFAULT_TOL,
                              ) -> list[ContraryInferenceInstance]:
    """Sample for pairs of certain retrodictions from orthogonal events.

    Alternating trials use a three-vector construction (two orthogonal
    candidate events plus a final event built from their superposition
    with the third basis direction) and unstructured random triples.
    A hit requires both generated families to decohere weakly and both
    conditionals to exceed ``1 - tol.prob``.  An empty result is a
    sampling outcome, not a nonexistence certificate.
    """
    if dim < 2:
        raise BadParameters("search needs dimension at least 2")
    if trials < 0:
        raise BadParameters("trials must be nonnegative")
    rng = np.random.default_rng(seed)
    hits: list[ContraryInferenceInstance] = []
    for trial in range(trials):
        if trial % 2 == 0 and dim >= 3:
            basis = sampling.random_unitary(dim, rng)
            a, b, c = basis[:, 0], basis[:, 1], basis[:, 2]
            psi = (a + b + c) / np.sqrt(3.0)
            e1 = projector_onto(a, tol)
            f1 = projector_onto(b, tol)
            e2 = projector_onto((a + b - c) / np.sqrt(3.0), tol)
        else:
            pair = sampling.random_unitary(dim, rng)
            psi = sampling.random_state(dim, rng)
            e1 = projector_onto(pair[:, 0], tol)
            f1 = projector_onto(pair[:, 1], tol)
            e2 = sampling.random_projection(
                dim, rng, rank=int(rng.integers(1, dim)), tol=tol)
        rho = validate_density(np.outer(psi, psi.conj()), tol)
        p_e2 = float(np.trace(e2.matrix @ rho.matrix).real)
        if p_e2 <= tol.prob:
            continue
        fam1 = _two_event_family(e1, e2, tol)
        fam2 = _two_event_family(f1, e2, tol)
        weak_1 = check_weak_decoherence(fam1, rho, tol)
        weak_2 = check_weak_decoherence(fam2, rho, tol)
        if not (weak_1.verdict and weak_2.verdict):
            continue
        h1 = History((e1, e2))
        h2 = History((f1, e2))
        c1 = conditional_probability(h1, rho, tol)
        c2 = conditional_probability(h2, rho, tol)
        if c1 >= 1.0 - tol.prob and c2 >= 1.0 - tol.prob:
            hits.append(ContraryInferenceInstance(
                psi, e1, f1, e2, p_e2, c1, c2, weak_1, weak_2, trial))
    return hits
