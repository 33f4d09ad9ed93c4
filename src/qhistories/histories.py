"""Histories, resolutions of the identity, and the families they generate.

A history is an ordered tuple of events (projections), one per time
slot.  A family is generated by one resolution of the identity per
slot; its members are the histories whose slot-``k`` event is a sum of
a subset of the ``k``-th resolution, and its elementary histories are
the cartesian product of the resolutions.  Slot and event indices are
1-based wherever they appear in labels or error messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NotComplete,
    NotOrthogonal,
    NotSummable,
)
from .matcore import (
    DEFAULT_TOL,
    Projection,
    Tolerances,
    _blocks,
    commutator,
    max_norm,
    validate_projection,
)

__all__ = [
    "DEFAULT_MEMBER_CAP",
    "History",
    "ResolutionOfIdentity",
    "HistoryFamily",
    "make_resolution",
    "elementary_histories",
    "family_member_count",
    "summable",
    "history_sum",
    "chain_operator",
    "is_commutative",
    "event_stacks",
    "chain_stack",
]

DEFAULT_MEMBER_CAP = 64


@dataclass(frozen=True, eq=False)
class History:
    """An ordered sequence of events; ``label`` is cosmetic report metadata."""

    events: tuple[Projection, ...]
    label: Optional[str] = None

    def __post_init__(self):
        events = tuple(self.events)
        if not events:
            raise DimensionMismatch("a history needs at least one event")
        dim = events[0].dim
        for e in events[1:]:
            if e.dim != dim:
                raise DimensionMismatch(
                    f"history events have mixed dimensions {dim} and {e.dim}")
        object.__setattr__(self, "events", events)

    @property
    def dim(self) -> int:
        return self.events[0].dim

    @property
    def length(self) -> int:
        return len(self.events)

    @property
    def is_two_event(self) -> bool:
        """Mirror checks only apply to histories with exactly two events."""
        return len(self.events) == 2


@dataclass(frozen=True, eq=False)
class ResolutionOfIdentity:
    """Pairwise-orthogonal projections summing to the identity.

    Build through :func:`make_resolution`, which enforces both
    conditions at tolerance and records ``overlap``, the largest max-norm
    of a product of two distinct events (infinite where none was measured).
    """

    events: tuple[Projection, ...]
    overlap: float = float("inf")

    @property
    def dim(self) -> int:
        return self.events[0].dim

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """One resolution of the identity per time slot."""

    resolutions: tuple[ResolutionOfIdentity, ...]

    def __post_init__(self):
        resolutions = tuple(self.resolutions)
        if not resolutions:
            raise DimensionMismatch("a family needs at least one resolution")
        dim = resolutions[0].dim
        for r in resolutions[1:]:
            if r.dim != dim:
                raise DimensionMismatch(
                    f"family resolutions have mixed dimensions {dim} and {r.dim}")
        object.__setattr__(self, "resolutions", resolutions)

    @property
    def dim(self) -> int:
        return self.resolutions[0].dim

    @property
    def length(self) -> int:
        return len(self.resolutions)


def make_resolution(projections: Sequence[Projection],
                    tol: Tolerances = DEFAULT_TOL) -> ResolutionOfIdentity:
    """Validate pairwise orthogonality and completeness of the given events."""
    return _make_resolutions([projections], tol)[0]


def _make_resolutions(slots: Sequence[Sequence[Projection]],
                      tol: Tolerances = DEFAULT_TOL,
                      prefix: Optional[str] = None,
                      ) -> tuple[ResolutionOfIdentity, ...]:
    """:func:`make_resolution` of each slot's events in one
    :func:`_check_resolutions` call.  Slots of fewer events are padded with
    zero matrices, whose products and sums are zero, so each slot keeps the
    overlap, residuals and pairs it has alone, and the first failing slot
    raises what it raises alone, after ``"{prefix} {k}: "`` when
    ``prefix`` is given."""
    slots = [tuple(events) for events in slots]
    if not all(slots):
        raise NotComplete("a resolution needs at least one event")
    dim = slots[0][0].dim
    for e in itertools.chain(*slots):
        if e.dim != dim:
            raise DimensionMismatch(
                f"resolution events have mixed dimensions {dim} and {e.dim}")
    stack = np.zeros((len(slots), max(map(len, slots)), dim, dim), dtype=complex)
    for k, events in enumerate(slots):
        stack[k, :len(events)] = [e.matrix for e in events]
    return tuple(map(ResolutionOfIdentity, slots,
                     _check_resolutions(stack, tol, prefix)))


def _check_resolutions(events: np.ndarray, tol: Tolerances,
                       prefix: Optional[str] = None) -> list[float]:
    """:func:`make_resolution`'s tests over an ``(R, n, d, d)`` stack of R
    resolutions: both products ``e_i e_j`` and ``e_j e_i`` of every pair
    ``i < j``, then completeness.  The first failing resolution raises
    :class:`NotOrthogonal` for its first overlapping pair, or
    :class:`NotComplete`, its message after ``"{prefix} {k}: "`` when
    ``prefix`` is given; else each resolution's largest overlap."""
    r, n, d, _ = events.shape
    overlap = np.empty((r, n, n))
    for rows in _blocks(n, events.itemsize * r * n * d * d):
        overlap[:, rows] = np.abs(events[:, rows, None] @ events[:, None]).max((-2, -1))
    bad = np.triu(np.maximum(overlap, overlap.swapaxes(1, 2)) > tol.op, 1)
    gaps = np.abs(events.sum(axis=1) - np.eye(d)).max(axis=(-2, -1))
    failing = np.flatnonzero(bad.any(axis=(1, 2)) | (gaps > tol.op))
    if failing.size:  # only the first failing resolution is searched
        k = int(failing[0])
        head = "" if prefix is None else f"{prefix} {k + 1}: "
        if bad[k].any():
            i, j = np.argwhere(bad[k])[0].tolist()
            over = overlap[k]
            res = float(over[i, j] if over[i, j] > tol.op else over[j, i])
            raise NotOrthogonal(f"{head}resolution events {i + 1} and {j + 1} "
                                f"overlap (residual {res:.3e})", res, (i + 1, j + 1))
        gap = float(gaps[k])
        raise NotComplete(f"{head}resolution does not sum to the identity "
                          f"(residual {gap:.3e})", gap)
    return np.where(np.eye(n, dtype=bool), 0.0, overlap).max(axis=(1, 2)).tolist()


def elementary_histories(family: HistoryFamily) -> list[History]:
    """Cartesian product of the resolutions, in lexicographic index order.

    Labels are the 1-based event indices per slot, e.g. ``"(2,1)"``.
    """
    ranges = [range(len(r.events)) for r in family.resolutions]
    out = []
    for idx in itertools.product(*ranges):
        events = tuple(family.resolutions[k].events[i] for k, i in enumerate(idx))
        label = "(" + ",".join(str(i + 1) for i in idx) + ")"
        out.append(History(events, label))
    return out


def family_member_count(family: HistoryFamily) -> int:
    """Number of family members (nonempty subset sums per slot)."""
    n = 1
    for r in family.resolutions:
        n *= 2 ** len(r.events) - 1
    return n


def summable(h1: History, h2: History,
             tol: Tolerances = DEFAULT_TOL) -> Optional[int]:
    """The 1-based slot where the histories can be merged, or ``None``.

    Two histories are summable when their events agree on every slot
    except exactly one, where they are orthogonal.
    """
    if h1.length != h2.length or h1.dim != h2.dim:
        return None
    slot = None
    for k in range(h1.length):
        a, b = h1.events[k].matrix, h2.events[k].matrix
        if max_norm(a - b) <= tol.op:
            continue
        if max_norm(a @ b) <= tol.op and max_norm(b @ a) <= tol.op:
            if slot is not None:
                return None
            slot = k + 1
        else:
            return None
    return slot


def history_sum(h1: History, h2: History,
                tol: Tolerances = DEFAULT_TOL) -> History:
    """Merge two summable histories by adding the differing slot's events."""
    slot = summable(h1, h2, tol)
    if slot is None:
        raise NotSummable(
            "histories differ in more than one slot or are not orthogonal there")
    events = list(h1.events)
    k = slot - 1
    events[k] = validate_projection(
        h1.events[k].matrix + h2.events[k].matrix, tol)
    label = None
    if h1.label and h2.label:
        label = f"{h1.label}+{h2.label}"
    return History(tuple(events), label)


def chain_operator(h: History) -> np.ndarray:
    """The product ``E_n ... E_1`` of the events, each later event applied on
    the left: the bits of :func:`chain_stack`'s ``d x d`` products."""
    c = h.events[0].matrix
    for e in h.events[1:]:
        c = e.matrix @ c
    return c


def is_commutative(h: History, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether all events of the history commute pairwise."""
    for a, b in itertools.combinations(h.events, 2):
        if max_norm(commutator(a.matrix, b.matrix)) > tol.op:
            return False
    return True


def event_stacks(*families: HistoryFamily) -> list[np.ndarray]:
    """Each slot's resolution events stacked as an ``(F, n_k, d, d)`` array
    over F families of one shape (one dimension, one size per slot)."""
    if len({(f.dim, *map(len, f.resolutions)) for f in families}) != 1:
        raise DimensionMismatch("event stacks take one or more families of one shape")
    return [np.array([[e.matrix for e in f.resolutions[k].events] for f in families])
            for k in range(families[0].length)]


def chain_stack(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """``(F, N, d, d)`` chain operators of every history over per-slot
    stacks ``(F, n_k, d, d)`` of F families.

    One batched product per slot, each applying the later event on the
    left, in lexicographic order of the histories' slot indices: the slot's
    ``n_k`` events stacked as one tall ``(n_k d) x d`` matrix times each
    chain so far, with the bits of one ``d x d`` product per pair.
    """
    chains = stacks[0]
    f, d = len(chains), chains.shape[-1]
    for events in stacks[1:]:
        chains = (events.reshape(f, 1, -1, d) @ chains).reshape(f, -1, d, d)
    return chains
