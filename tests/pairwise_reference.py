"""Test-local reference: the pairwise relations between histories.

Membership, alternative pairs, slot-wise domination, the member options
and the member list of a family, each decided one history or one pair
at a time by max-norm tests on the event matrices.  The checkers in
:mod:`qhistories.consistency` read the same relations from per-slot
tables over index tuples; these functions are the independent oracle the
consistency tests check those tables against.  Summability
(:func:`qhistories.histories.summable`) and commutativity stay in the
library, where :func:`~qhistories.histories.history_sum` and
:func:`~qhistories.consistency.check_C1_compatibility` call them.
"""

import itertools

import numpy as np

from qhistories.errors import DimensionMismatch, FamilyTooLarge
from qhistories.histories import (
    DEFAULT_MEMBER_CAP,
    History,
    HistoryFamily,
    family_member_count,
)
from qhistories.matcore import (
    DEFAULT_TOL,
    Projection,
    Tolerances,
    max_norm,
    projection_leq,
    validate_projections,
)


def member_options(family: HistoryFamily, tol: Tolerances = DEFAULT_TOL,
                   cap: int = DEFAULT_MEMBER_CAP,
                   ) -> list[list[tuple[str, Projection]]]:
    """Per slot, every nonempty subset sum of its resolution with its label.

    Labels join the summed 1-based indices with ``+``, e.g. ``"1+3"``.
    Raises :class:`FamilyTooLarge` when the member count exceeds ``cap``.
    """
    count = family_member_count(family)
    if count > cap:
        raise FamilyTooLarge(
            f"family has {count} members, above the enumeration cap {cap}")
    per_slot: list[list[tuple[str, Projection]]] = []
    for r in family.resolutions:
        subsets = [s for size in range(1, len(r.events) + 1)
                   for s in itertools.combinations(range(len(r.events)), size)]
        sums = validate_projections(
            [sum(r.events[i].matrix for i in s) for s in subsets], tol)
        per_slot.append([("+".join(str(i + 1) for i in s), p)
                         for s, p in zip(subsets, sums)])
    return per_slot


def family_members(family: HistoryFamily, tol: Tolerances = DEFAULT_TOL,
                   cap: int = DEFAULT_MEMBER_CAP) -> list[History]:
    """All family members: slot-wise sums over nonempty resolution subsets.

    Labels join the summed 1-based indices with ``+``, e.g. ``"(1+3,2)"``.
    Raises :class:`FamilyTooLarge` when the member count exceeds ``cap``.
    """
    out = []
    for combo in itertools.product(*member_options(family, tol, cap)):
        label = "(" + ",".join(part for part, _ in combo) + ")"
        out.append(History(tuple(p for _, p in combo), label))
    return out


def is_member(h: History, family: HistoryFamily,
              tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether each event of ``h`` is a subset sum of the matching resolution.

    Each resolution event must be either dominated by or orthogonal to
    the history event, and the dominated ones must sum to it.
    """
    if h.length != family.length:
        raise DimensionMismatch(
            f"history has {h.length} events, family has {family.length} slots")
    if h.dim != family.dim:
        raise DimensionMismatch(
            f"history dimension {h.dim} does not match family dimension {family.dim}")
    for k, resolution in enumerate(family.resolutions):
        target = h.events[k].matrix
        selected = np.zeros_like(target)
        for e in resolution.events:
            if max_norm(target @ e.matrix - e.matrix) <= tol.op:
                selected = selected + e.matrix
            elif max_norm(target @ e.matrix) <= tol.op:
                continue
            else:
                return False
        if max_norm(selected - target) > tol.op:
            return False
    return True


def alternative(h1: History, h2: History,
                tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the histories are orthogonal in at least one slot."""
    if h1.length != h2.length or h1.dim != h2.dim:
        return False
    for k in range(h1.length):
        a, b = h1.events[k].matrix, h2.events[k].matrix
        if max_norm(a @ b) <= tol.op and max_norm(b @ a) <= tol.op:
            return True
    return False


def history_leq(h1: History, h2: History,
                tol: Tolerances = DEFAULT_TOL) -> bool:
    """Slot-wise domination: every event of ``h1`` sits below ``h2``'s."""
    if h1.length != h2.length or h1.dim != h2.dim:
        return False
    return all(projection_leq(a, b, tol) for a, b in zip(h1.events, h2.events))
