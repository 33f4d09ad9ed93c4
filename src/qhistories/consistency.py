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

Each checker is a reduction over one :class:`FamilyAnalysis`, asked
through :meth:`FamilyAnalysis.reports` (ordered consistency through
:meth:`FamilyAnalysis.ordered`).  Weak and medium decoherence, linear
positivity, C1 and the sum rule read values linear in the state, each
through its :class:`LinearNotion` entry map: the masked final-event
blocks of ``D`` (or all of it, where the overlap of two final events
could put ``|D|`` above ``tol.prob`` off them), computed from one
chain-operator stack in blocks of bounded size, that stack's traces, or
the members' probabilities.  One reduction serves all five: the largest
residual, the first pair in label order on a tie, from 0 with no pair
(linear positivity has no floor and always names a history).  Pairs are
selected and counted by per-slot relation tables.
:func:`contrary_inference` decides whether two orthogonal events are both
retrodicted with certainty.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    FamilyTooLarge,
    NotCommuting,
    PreconditionFailed,
    ZeroConditioningEvent,
)
from .histories import (
    DEFAULT_MEMBER_CAP,
    History,
    HistoryFamily,
    chain_operator,
    chain_stack,
    elementary_histories,
    event_stacks,
    family_member_count,
    is_commutative,
    make_resolution,
)
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    _blocks,
    _state_stack,
    complement,
    max_norm,
    pure_densities,
)

__all__ = [
    "NOTIONS",
    "ConsistencyReport",
    "ContraryInferenceInstance",
    "FamilyAnalysis",
    "LinearNotion",
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
    "contrary_inference",
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
    c1, c2 = chain_operator(h1), chain_operator(h2)
    return complex(np.trace(c1 @ rho.matrix @ c2.conj().T))


def probability(h: History, rho: DensityOperator) -> float:
    """``Tr(C rho C^dag)``, the diagonal of the decoherence functional: the
    one-history case of :func:`_probabilities`.

    Returned raw (not clamped); report layers clamp for display.
    """
    return float(_probabilities(chain_operator(h)[None, None], rho.matrix[None])[0, 0])


def _groups(families: int, states: int) -> int:
    """The G groups of F families and S states, one of which is 1."""
    if 1 not in (families, states):
        raise DimensionMismatch(f"{states} states for {families} families")
    return states if families == 1 else families


def _pick(stack: np.ndarray, groups) -> np.ndarray:
    """The entries ``groups`` of a stack that broadcasts along its first axis."""
    return stack if len(stack) == 1 else stack[groups]


def _final_blocks(chains: np.ndarray, last: int, *rhos: DensityOperator):
    """Blocks ``(g, i, B)`` of ``D[g, x, y] = Tr(C_x rho C_y^dag)`` over the
    groups of :func:`_groups`, on pairs with one of the n = ``last`` final
    events: ``B[k, e, p, q] = D[g + k, (i + p) n + e, q n + e]`` (rows are
    lexicographic, so block e is rows and columns ``e::n``; n = 1 is all of
    D), for k whole groups from group g (then i = 0) or r prefix rows of
    group g (k = 1), within the block budget.  Off the blocks, cyclicity
    puts the final events side by side: ``|D(x, y)| <= ||P_b P_a||_F``.
    Each block is one batched product, ``C rho`` (:func:`_left`) conjugated in
    place times the transposed stride-n view of the chains, conjugated back."""
    f, n, d, _ = chains.shape
    m = n // last
    states = _state_stack(rhos, d)
    right = chains.reshape(f, m, last, d * d).transpose(0, 2, 3, 1)
    for g in _blocks(_groups(f, len(states)), chains.itemsize * n * m):
        left = _left(_pick(chains, g), _pick(states, g)).reshape(-1, m, last, d * d)
        left = np.conjugate(left, out=left).swapaxes(1, 2)
        for i in _blocks(m, chains.itemsize * n):
            block = left[:, :, i] @ _pick(right, g)
            yield g.start, i.start, np.conjugate(block, out=block)


def _left(chains: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``C rho``, ``(G, N, d, d)``, for an ``(F, N, d, d)`` chain stack and
    ``(S, d, d)`` states that broadcast: one tall ``(N d) x d`` product
    per group, not N products of ``d x d``, with the same bits."""
    f, n, d, _ = chains.shape
    left = chains.reshape(f, n * d, d) @ states
    return left.reshape(len(left), n, d, d)


def _probabilities(chains: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``Tr(C rho C^dag)``, ``(G, N)``, the diagonal of D, for an
    ``(F, N, d, d)`` chain stack and ``(S, d, d)`` states that broadcast:
    every reported probability (:func:`probability` is the one-history
    case).  ``C rho`` is conjugated in place, and the real part of
    ``sum(conj(C rho) * C)`` is that of ``sum(C rho * conj(C))``, bit for
    bit."""
    left = _left(chains, states)
    return np.einsum("...ab,...ab->...", np.conjugate(left, out=left),
                     chains).real


def _max_norms(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).max(axis=(-2, -1))


def _on_axes(table: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """An ``(F, n_1, ..., n_r)`` table as an ``(F, ...)`` view with ``ndim``
    axes after F, its axis j on axis ``axes[j - 1]`` (increasing) and
    length 1 elsewhere: broadcasting such views combines per-slot tables
    into a table over index tuples."""
    shape = [len(table)] + [1] * ndim
    for axis, size in zip(axes, table.shape[1:]):
        shape[1 + axis] = size
    return table.reshape(shape)


def _bitmasks(subsets: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """``[a, e]``: event ``e`` of n is in subset ``a``."""
    return np.array([[e in s for e in range(n)] for s in subsets], dtype=bool)


class _SlotHistories:
    """The histories over per-slot stacks of options, numbered by their
    index tuples in lexicographic order; each part is computed when first
    read.

    Slot k's stack is ``(F, n_k, d, d)`` over F families of one shape
    (``shape`` is ``(F, n_1, ..., n_K)``, and a pair table over the
    histories is one over ``(F, n_1..n_K, n_1..n_K)``), and
    ``options[k]`` holds each option's bitmask: the events of slot k's
    resolution it sums (one event, or a member's subset).  ``equal`` and
    ``orthogonal`` are per-slot tables read off the bitmasks, as the
    resolutions are certified; an event counts as zero iff its validated
    rank is 0.  Domination relates events of different resolutions and
    keeps its max-norm test.
    """

    def __init__(self, families: Sequence[HistoryFamily], stacks: list[np.ndarray],
                 options: list[list[tuple[int, ...]]], tol: Tolerances):
        self.families, self.stacks, self.options, self.tol = (
            families, stacks, options, tol)
        self.shape = (len(stacks[0]), *[s.shape[1] for s in stacks])
        self.slot_labels = [["+".join([str(e + 1) for e in s]) for s in subsets]
                            for subsets in options]

    @functools.cached_property
    def index(self) -> np.ndarray:
        return np.indices(self.shape[1:]).reshape(len(self.stacks), -1).T

    @functools.cached_property
    def tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``equal[f, a, b]`` iff ``(A ^ B) & L`` and ``orthogonal[f, a, b]``
        iff ``A & B & L`` is empty, L the nonzero events of family f."""
        tables = []
        for k, subsets in enumerate(self.options):
            live = np.array([[e.rank > 0 for e in f.resolutions[k].events]
                             for f in self.families])[:, None, None]
            masks = _bitmasks(subsets, live.shape[-1])
            a, b = masks[:, None], masks[None]
            tables.append((~((a ^ b) & live).any(axis=-1),
                           ~(a & b & live).any(axis=-1)))
        return tables

    @functools.cached_property
    def chains(self) -> np.ndarray:
        return chain_stack(self.stacks)

    def label(self, i: int) -> str:
        return "(" + ",".join(names[j] for names, j
                              in zip(self.slot_labels, self.index[i].tolist())) + ")"

    def probabilities(self, *rhos: DensityOperator) -> np.ndarray:
        """``Tr(C rho C^dag)``, ``(G, N)`` over the groups of :func:`_groups`."""
        return _probabilities(self.chains, _state_stack(rhos, self.chains.shape[-1]))

    def summable_slots(self, slots: Optional[int] = None) -> np.ndarray:
        """``[f, a, b]``: the 1-based merge slot of :func:`summable` for the
        histories over the first ``slots`` slots (all by default), or 0
        where a pair is not summable.

        Slot k's code is 0 where options are equal, ``K + 2 + k`` where
        they are orthogonal and not equal, and ``4(K + 1)`` otherwise, for
        K slots, laid on the slot axes of ``(F, n_1..n_K, n_1..n_K)``; the
        pair's total ``t`` lies strictly between ``K + 1`` and ``2(K + 1)``
        iff exactly one slot merges and all others are equal, and that slot
        is ``t - (K + 1)``."""
        tables = self.tables[:slots]
        slots = len(tables)
        total = np.zeros((self.shape[0],) + (1,) * 2 * slots, dtype=int)
        for k, (equal, orthogonal) in enumerate(tables):
            code = np.where(equal, 0, np.where(orthogonal, slots + 2 + k,
                                               4 * (slots + 1)))
            total = total + _on_axes(code, [k, slots + k], 2 * slots)
        total = total.reshape(len(total), math.prod(self.shape[1:1 + slots]), -1)
        return np.where((total > slots + 1) & (total < 2 * (slots + 1)),
                        total - (slots + 1), 0)

    def unions(self, slots: np.ndarray) -> np.ndarray:
        """``[f, a, b]``: the history with a's options off the merge slot
        ``slots[f, a, b]`` of :meth:`summable_slots` and the union of a's
        and b's subsets on it (history a where no slot merges), for options
        holding every nonempty subset, as the members' do."""
        options = []
        for k, subsets in enumerate(self.options):
            codes = np.array([sum(1 << e for e in s) for s in subsets])
            position = np.zeros(codes.max() + 1, dtype=int)
            position[codes] = np.arange(len(codes))
            a = codes[self.index[:, k]]
            options.append(np.where(slots == k + 1, position[a[:, None] | a[None]],
                                    self.index[:, k, None]))
        return np.ravel_multi_index(options, self.shape[1:])

    def leq(self, upper: "_SlotHistories") -> np.ndarray:
        """``[f, a, b]``: history ``a`` is dominated slot-wise by history ``b``
        of ``upper``: the AND of the per-slot tables laid on the slot axes
        of ``(F, n_1..n_K, m_1..m_K)``."""
        slots = len(self.stacks)
        out = np.ones(self.shape + upper.shape[1:], dtype=bool)
        for k, (low, up) in enumerate(zip(self.stacks, upper.stacks)):
            low = low[:, :, None]
            table = _max_norms(up[:, None] @ low - low) <= self.tol.op
            out &= _on_axes(table, [k, slots + k], 2 * slots)
        return out.reshape(len(out), len(self.index), len(upper.index))


@dataclass(eq=False)
class LinearNotion:
    """A notion decided from values linear in the state: its entry map,
    under the one reduction all such notions share.

    ``entries(rhos)`` yields blocks ``(g, x, V)`` within the block budget:
    ``V[k, r, c]`` is group ``g + k``'s value (the groups of :func:`_groups`)
    on row ``x + r``, one of the N histories of ``histories`` in label
    order, and column c, the history ``c n + (x + r) % n`` for ``n = N / C``
    of C columns: a column of the row's final-event block of ``D``, one
    value per history (C = 1), the row's own, or, for the sum rule's
    members (C = N), history c.  Values off the notion's mask are 0.
    The reduction keeps each group's largest ``residual(V)``, the first in
    label order on a tie, from 0 with no pair, or from the first value if
    not ``floored``, labels its pair through ``histories`` and attaches
    ``counts[f]``, family f's pairs."""

    histories: _SlotHistories
    name: str
    entries: Callable[[Sequence[DensityOperator]], Iterable[tuple]]
    residual: Callable[[np.ndarray], np.ndarray]
    counts: list[int]
    floored: bool = True

    def _maxima(self, blocks: Iterable[tuple], states: int):
        """Each group's worst residual and its pair of histories, or ``None``."""
        groups = _groups(self.histories.shape[0], states)
        worst, where = [0.0] * groups, [None] * groups
        for g, x, values in blocks:
            _, rows, columns = values.shape
            flat = self.residual(values).reshape(-1, rows * columns)
            for k, (value, at) in enumerate(zip(flat.max(axis=1).tolist(),
                                                flat.argmax(axis=1).tolist()), start=g):
                if value > worst[k] or (where[k] is None and not self.floored):
                    r, c = divmod(at, columns)
                    n = len(self.histories.index) // columns
                    worst[k], where[k] = value, (x + r, c * n + (x + r) % n)
        return worst, where

    def reduce(self, blocks: Iterable[tuple], states: int) -> list[ConsistencyReport]:
        """The reports of ``states`` states from their blocks."""
        h, counts = self.histories, self.counts
        reports = []
        for k, (worst, at) in enumerate(zip(*self._maxima(blocks, states))):
            if at is not None:
                row = h.label(at[0])
                at = row, row if at[1] == at[0] else h.label(at[1])
            reports.append(ConsistencyReport(self.name, worst <= h.tol.prob, at, worst,
                                             counts[k % len(counts)]))
        return reports

    def decide(self, blocks: Iterable[tuple], states: int) -> list[bool]:
        """The verdicts of :meth:`reduce`, without its labels."""
        return [worst <= self.histories.tol.prob
                for worst in self._maxima(blocks, states)[0]]

    def reports(self, rhos: Sequence[DensityOperator]) -> list[ConsistencyReport]:
        return self.reduce(self.entries(rhos), len(rhos))

    def verdicts(self, rhos: Sequence[DensityOperator]) -> list[bool]:
        return self.decide(self.entries(rhos), len(rhos))


class FamilyAnalysis(_SlotHistories):
    """Everything about a family, or about F families of one shape, that
    does not depend on the state.

    Event stacks, index tuples and labels, relation tables, the
    summable prefix-pair mask, weak's pair counts, the commutativity mask, the
    chain stack, the elementary histories, the 2-slot event stacks and
    the members are each computed when first read and then kept, so a
    caller asking about many states (mixture predicates, the command line)
    builds them once.  :meth:`reports` is the one entry point behind the
    public checkers: ``check_weak_decoherence(family, rho, tol)`` is
    ``FamilyAnalysis(family, tol).reports("weak", [rho])[0]``, the notion
    ``linear("weak")`` reducing its entries.  Any two distinct elementary
    histories are alternatives, so medium decides every pair.

    Given F families of one shape, every part has a leading family axis
    and :meth:`reports` decides the groups of :func:`_groups`: F families
    against one state, or one family against S states.  ``family``,
    ``histories`` and :meth:`ordered` read the first family, the only one
    when F = 1.
    """

    def __init__(self, family: HistoryFamily | Sequence[HistoryFamily],
                 tol: Tolerances = DEFAULT_TOL):
        families = (family,) if isinstance(family, HistoryFamily) else tuple(family)
        self.family, stacks = families[0], event_stacks(*families)
        super().__init__(families, stacks,
                         [[(e,) for e in range(s.shape[1])] for s in stacks], tol)

    @functools.cached_property
    def histories(self) -> list[History]:
        return elementary_histories(self.family)

    @functools.cached_property
    def block_slots(self) -> int:
        """Slots numbering a block's rows: K - 1, for D's n_K final-event blocks,
        if ``d`` times the last resolution's measured overlap, which bounds
        ``||P_b P_a||_F >= |D|`` off them, is within ``tol.prob``; else K."""
        d = self.stacks[0].shape[-1]
        return len(self.stacks) - all(d * f.resolutions[-1].overlap <= self.tol.prob
                                      for f in self.families)

    @functools.cached_property
    def block_mask(self) -> np.ndarray:
        """``[f, p, q]``: histories ``p < q`` over the block slots are
        summable, as are p and q of any one block."""
        return (self.summable_slots(self.block_slots) > 0) & self.upper_mask

    @functools.cached_property
    def upper_mask(self) -> np.ndarray:
        """``[0, p, q]``: histories ``p < q`` over the block slots (medium's)."""
        m = np.arange(math.prod(self.shape[1:1 + self.block_slots]))
        return np.less.outer(m, m)[None]

    @functools.cached_property
    def commutative(self) -> np.ndarray:
        """``[f, a]``: the events of history ``a`` commute pairwise: the AND
        of the tables of every slot pair laid on the slot axes of
        ``(F, n_1..n_K)``, each from ``n_k + n_m`` products of one slot's
        events stacked as a tall ``(n_k d) x d`` matrix, as in :func:`chain_stack`.
        The AND stops once no history commutes."""
        slots, f, d = len(self.stacks), self.shape[0], self.stacks[0].shape[-1]
        out = np.ones(self.shape, dtype=bool)
        for k, m in itertools.combinations(range(slots), 2):
            a, b = self.stacks[k], self.stacks[m]
            ab = (a.reshape(f, 1, -1, d) @ b).reshape(f, b.shape[1], -1, d, d)
            ba = (b.reshape(f, 1, -1, d) @ a).reshape(f, a.shape[1], -1, d, d)
            out &= _on_axes(_max_norms(ab.swapaxes(1, 2) - ba) <= self.tol.op,
                            [k, m], slots)
            if not out.any():
                break
        return out.reshape(len(out), -1)

    @functools.cached_property
    def event_pairs(self) -> np.ndarray:
        """``(F, N, 2, d, d)`` first and second events of every elementary
        history of a 2-slot family."""
        first, second = self.stacks
        return np.concatenate([first, second], axis=1)[
            :, self.index + (0, first.shape[1])]

    @functools.cached_property
    def members(self) -> _SlotHistories:
        """The members over the nonempty subset sums of each slot's events, by
        size then lexicographically, trusted as sums of certified events;
        raises :class:`FamilyTooLarge` past :data:`DEFAULT_MEMBER_CAP` members."""
        if (count := family_member_count(self.family)) > DEFAULT_MEMBER_CAP:
            raise FamilyTooLarge(f"family has {count} members, above the "
                                 f"enumeration cap {DEFAULT_MEMBER_CAP}")
        stacks, options = [], []
        for events in self.stacks:
            f, n, d, _ = events.shape
            subsets = [s for size in range(1, n + 1)
                       for s in itertools.combinations(range(n), size)]
            stacks.append((_bitmasks(subsets, n) @ events.reshape(f, n, d * d))
                          .reshape(f, -1, d, d))
            options.append(subsets)
        return _SlotHistories(self.families, stacks, options, self.tol)

    def chain_traces(self, *rhos: DensityOperator) -> np.ndarray:
        """``Tr(C rho)``, ``(G, N)`` over the groups of :func:`_groups`."""
        f, n, d, _ = self.chains.shape
        states = _state_stack(rhos, d)
        _groups(f, len(states))
        return np.einsum("fiab,sba->fsi", self.chains, states).reshape(-1, n)

    def _pair_entries(self, mask: np.ndarray, rhos: Sequence[DensityOperator]):
        """Weak's and medium's entry map: ``D`` on the final-event blocks
        where ``mask[f, p, q]`` selects the pair."""
        last = len(self.index) // mask.shape[-1]
        for g, i, block in _final_blocks(self.chains, last, *rhos):
            k, n, r, m = block.shape
            values = np.zeros((k, r, n, m), dtype=block.dtype)
            np.copyto(values, block.swapaxes(1, 2),
                      where=_pick(mask, slice(g, g + k))[:, i:i + r, None])
            yield g, i * n, values.reshape(k, r * n, m)

    def _trace_entries(self, rhos: Sequence[DensityOperator]):
        """Linear positivity's entry map: ``Tr(C rho)``."""
        return [(0, 0, self.chain_traces(*rhos)[..., None])]

    def _C1_entries(self, rhos: Sequence[DensityOperator]):
        """C1's entry map: ``p - Tr(C rho)`` on the commutative histories;
        no block, and no chains read, when no history commutes."""
        if not self.commutative.any():
            return []
        [(g, x, traces)] = self._trace_entries(rhos)
        return [(g, x, np.where(self.commutative[..., None],
                                self.probabilities(*rhos)[..., None] - traces, 0.0))]

    def linear(self, name: str) -> LinearNotion:
        """The notion ``name`` linear in the state: ``"weak"``, ``"medium"``,
        ``"linear-positive"`` or ``"C1-compat"``.  It is built on each call:
        kept on the analysis, it would hold the analysis in a reference
        cycle, and its arrays until the garbage collector runs."""
        match name:
            case "weak":
                entries = functools.partial(self._pair_entries, self.block_mask)
                return LinearNotion(self, name, entries,
                                    lambda values: np.abs(values.real), self.weak_counts)
            case "medium":
                entries = functools.partial(self._pair_entries, self.upper_mask)
                return LinearNotion(self, name, entries, np.abs,
                                    [math.comb(len(self.index), 2)])
            case "linear-positive":
                return LinearNotion(self, name, self._trace_entries,
                                    lambda values: -values.real, [len(self.index)],
                                    floored=False)
            case "C1-compat":
                return LinearNotion(self, name, self._C1_entries, np.abs,
                                    self.commutative.sum(axis=1).tolist())
        raise KeyError(f"{name!r} is not a notion linear in the state")

    @functools.cached_property
    def weak_counts(self) -> list[int]:
        """Weak's summable pairs per family; those off the blocks are counted,
        not read: ``E_pre O_K / 2 + U_pre E_K`` for E the equal and O the orthogonal,
        not equal option pairs of a slot, ``E_pre`` E's product over the block
        slots and ``U_pre`` their summable pairs (one option K if D is whole)."""
        tables = self.tables + [(np.ones((self.shape[0], 1, 1), dtype=bool),) * 2]
        *prefix, (equal, orthogonal) = tables[:self.block_slots + 1]
        return [int(math.prod(np.count_nonzero(e[f]) for e, _ in prefix)
                    * np.count_nonzero(orthogonal[f] & ~equal[f]) // 2
                    + np.count_nonzero(mask) * np.count_nonzero(equal[f]))
                for f, mask in enumerate(self.block_mask)]

    def reports(self, name: str, rhos: Sequence[DensityOperator],
                ) -> list[ConsistencyReport]:
        """Notion ``name``'s report for each group of :func:`_groups`.

        ``"weak"``, ``"medium"``, ``"linear-positive"`` and ``"C1-compat"``
        reduce their :meth:`linear` entries (a family with no commutative
        history reports C1 as ``(0.0, None, 0)``).  ``"sum-rule"`` reduces
        the members' masked ``(G, M, M)`` table ``p[union] - p[a] - p[b]``
        over every summable member pair ``a < b`` and its union member
        (:meth:`_SlotHistories.unions`), which is ``a + b``; then the
        elementary probabilities' defect ``|sum p - 1|`` replaces the worst
        pair, with no pair, where it is strictly larger."""
        if name != "sum-rule":
            return self.linear(name).reports(rhos)
        m = self.members
        slots = np.triu(m.summable_slots(), 1)
        unions = m.unions(slots)

        def entries(rhos):
            p = m.probabilities(*rhos)
            yield 0, 0, np.where(slots > 0, p[np.arange(len(p))[:, None, None], unions]
                                 - p[:, :, None] - p[:, None], 0.0)
        counts = np.count_nonzero(slots.reshape(len(slots), -1), axis=1).tolist()
        reports = LinearNotion(m, name, entries, np.abs, counts).reports(rhos)
        defects = np.abs(self.probabilities(*rhos).sum(axis=1) - 1.0).tolist()
        return [ConsistencyReport(name, d <= self.tol.prob, None, d, r.pair_count)
                if d > r.worst_residual else r for r, d in zip(reports, defects)]

    def ordered(self, rho: DensityOperator,
                context: Sequence[HistoryFamily] = (),
                medium: Optional[ConsistencyReport] = None,
                ) -> ConsistencyReport:
        """``medium`` is this family's medium report for ``rho``, when the
        caller has it already."""
        analyses = [self, *(self if f is self.family
                            else FamilyAnalysis(f, self.tol) for f in context)]
        if medium is None:
            medium = self.reports("medium", [rho])[0]
        for i, other in enumerate(analyses):
            med = medium if other is self else other.reports("medium", [rho])[0]
            if not med.verdict:
                name = f"context family {i}" if i else "family"
                raise PreconditionFailed(
                    f"{name} is not medium-decohering (worst residual "
                    f"{med.worst_residual:.3e})")
        own = self.members
        own_probs = own.probabilities(rho)[0]
        worst, pair, count = 0.0, None, 0
        for other in analyses:
            theirs = other.members
            if (other.family.length != self.family.length
                    or other.family.dim != self.family.dim):
                continue
            their_probs = own_probs if theirs is own else theirs.probabilities(rho)[0]
            leq = own.leq(theirs)[0]
            count += int(np.count_nonzero(leq))
            violations = np.where(leq, own_probs[:, None] - their_probs[None], 0.0)
            at = int(violations.argmax())
            if (violation := float(violations.flat[at])) > worst:
                i, j = divmod(at, len(theirs.index))
                worst, pair = violation, (own.label(i), theirs.label(j))
        return ConsistencyReport("ordered", worst <= self.tol.prob, pair, worst, count)


def check_weak_decoherence(family: HistoryFamily, rho: DensityOperator,
                           tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """``Re D(h1, h2) = 0`` over all summable pairs of elementary histories."""
    return FamilyAnalysis(family, tol).reports("weak", [rho])[0]


def check_medium_decoherence(family: HistoryFamily, rho: DensityOperator,
                             tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """``|D(h1, h2)| = 0`` over all alternative pairs of elementary histories."""
    return FamilyAnalysis(family, tol).reports("medium", [rho])[0]


def check_linear_positivity(family: HistoryFamily, rho: DensityOperator,
                            tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """``Re Tr(C_h rho) >= 0`` over elementary histories.

    ``worst_residual`` is the negated minimum, so the verdict reads the
    same way as for the equality notions.  Elementary positivity extends
    to all coarse-grainings because their chain traces are sums of
    elementary ones.
    """
    return FamilyAnalysis(family, tol).reports("linear-positive", [rho])[0]


def check_sum_rule(family: HistoryFamily, rho: DensityOperator,
                   tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """Brute-force additivity over every summable pair of family members.

    Also checks that the elementary probabilities sum to 1.  Raises
    :class:`FamilyTooLarge` past :data:`DEFAULT_MEMBER_CAP` members.  Its
    verdict equals weak decoherence's on 2-slot families only: with three
    or more slots weak decoherence checks summable elementary pairs alone,
    and a state can pass it while a coarse-grained member pair fails here.
    It never reads the decoherence-functional matrix: each merged pair's
    probability is that of its union member, read from its own chain
    operator with every other member's.
    """
    return FamilyAnalysis(family, tol).reports("sum-rule", [rho])[0]


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
    return FamilyAnalysis(family, tol).reports("C1-compat", [rho])[0]


def check_ordered_consistency(family: HistoryFamily, rho: DensityOperator,
                              context: Sequence[HistoryFamily] = (),
                              tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """Probability monotonicity along slot-wise domination.

    The family itself and every context family must be medium-decohering
    with respect to ``rho`` (raises :class:`PreconditionFailed`
    otherwise).  Compares every member of ``family`` to every member of
    the family and each context family.
    """
    return FamilyAnalysis(family, tol).ordered(rho, context)


def _event_probability(event: np.ndarray, rho: DensityOperator) -> float:
    """``Tr(E rho)`` of an event matrix (or a product of events)."""
    return float(np.trace(event @ rho.matrix).real)


def conditional_probability(h: History, rho: DensityOperator,
                            tol: Tolerances = DEFAULT_TOL) -> float:
    """``p(h) / Tr(E_last rho)`` with the final event as the condition."""
    denom = _event_probability(h.events[-1].matrix, rho)
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
    being orthogonal, so ``p(e1 e2) + p(f1 e2) = 2 p(e2)`` (Kent, PRL 78,
    2874 (1997)).  Returned by the decider :func:`contrary_inference`.
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


def _two_event_family(first: Projection, second: Projection,
                      tol: Tolerances) -> HistoryFamily:
    return HistoryFamily(tuple(
        make_resolution([p] if p.rank == p.dim else [p, complement(p, tol)], tol)
        for p in (first, second)))


def contrary_inference(psi, e1: Projection, f1: Projection, e2: Projection,
                       tol: Tolerances = DEFAULT_TOL,
                       ) -> Optional[ContraryInferenceInstance]:
    """The instance if ``(psi, e1, f1, e2)`` gives two contrary inferences.

    Raises :class:`PreconditionFailed` when ``psi`` is not normalized (a
    NaN or infinite entry included) or ``e1 f1 != 0``; ``psi psi^dag`` is
    built from the vector by :func:`~qhistories.matcore.pure_densities`.  Returns ``None`` when ``p(e2) <= tol.prob``, when
    either 2-event family fails weak decoherence, or when either
    conditional ``p(x e2) / p(e2)`` is below ``1 - tol.prob``.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(psi) - 1.0) <= tol.prob:
        raise PreconditionFailed("state vector is not normalized")
    if max_norm(e1.matrix @ f1.matrix) > tol.op:
        raise PreconditionFailed("first events are not orthogonal")
    rho = pure_densities(psi[None], tol)[0]
    p_e2 = _event_probability(e2.matrix, rho)
    if p_e2 <= tol.prob:
        return None
    weak_1, weak_2 = (check_weak_decoherence(_two_event_family(x, e2, tol), rho, tol)
                      for x in (e1, f1))
    if not (weak_1.verdict and weak_2.verdict):
        return None
    c1, c2 = (conditional_probability(History((x, e2)), rho, tol) for x in (e1, f1))
    if min(c1, c2) < 1.0 - tol.prob:
        return None
    return ContraryInferenceInstance(psi, e1, f1, e2, p_e2, c1, c2,
                                     weak_1, weak_2)
