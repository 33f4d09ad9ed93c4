"""Test-local reference: the gather-and-copy forms of the consistency kernel.

:mod:`qhistories.consistency` builds its pair tables as broadcasts of
per-slot tables over the slot axes, computes ``C rho`` as one tall product
per group and conjugates in place.  The functions here do the same
arithmetic the direct way: pair tables gathered over every pair's index
tuples, chains and ``C rho`` as one ``d x d`` product per history, and a
conjugated copy of the chain stack.  The kernel tests compare the two bit for bit;
each function takes the arguments of the routine it stands in for, so a
test can also put it in that routine's place.
"""

import itertools

import numpy as np

from qhistories.consistency import _groups, _max_norms, _pick
from qhistories.matcore import _blocks, _state_stack


def summable_slots(histories, slots=None):
    """``_SlotHistories.summable_slots``: per slot, the equal and orthogonal
    tables gathered over all pairs of index tuples of the first ``slots``
    slots, and the merge slot kept while no second slot merges."""
    tables = histories.tables[:slots]
    index = np.array(list(itertools.product(*map(range, histories.shape[1:][:len(tables)]))))
    slot = np.zeros((len(histories.stacks[0]), len(index), len(index)), dtype=np.intp)
    ok = np.ones(slot.shape, dtype=bool)
    for k, (equal, orthogonal) in enumerate(tables):
        pair = (slice(None), index[:, k, None], index[None, :, k])
        same = equal[pair]
        merge = orthogonal[pair] & ~same
        ok &= (same | merge) & ~(merge & (slot > 0))
        slot[merge] = k + 1
    return np.where(ok, slot, 0)


def leq(histories, upper):
    """``_SlotHistories.leq``: each slot's domination table gathered over
    all pairs."""
    out = np.ones((len(histories.stacks[0]), len(histories.index),
                   len(upper.index)), dtype=bool)
    for k, (low, up) in enumerate(zip(histories.stacks, upper.stacks)):
        low = low[:, :, None]
        table = _max_norms(up[:, None] @ low - low) <= histories.tol.op
        out &= table[:, histories.index[:, k, None], upper.index[None, :, k]]
    return out


def commutative(analysis):
    """``FamilyAnalysis.commutative``: each slot pair's commutator table
    gathered over the histories."""
    out = np.ones((len(analysis.stacks[0]), len(analysis.index)), dtype=bool)
    for k, m in itertools.combinations(range(len(analysis.stacks)), 2):
        a, b = analysis.stacks[k][:, :, None], analysis.stacks[m][:, None]
        commute = _max_norms(a @ b - b @ a) <= analysis.tol.op
        out &= commute[:, analysis.index[:, k], analysis.index[:, m]]
    return out


def chain_stack(stacks):
    """``histories.chain_stack``: one ``d x d`` product per pair of a chain
    so far and a later event."""
    chains = stacks[0]
    f, d = len(chains), chains.shape[-1]
    for events in stacks[1:]:
        chains = (events[:, None] @ chains[:, :, None]).reshape(f, -1, d, d)
    return chains


def final_blocks(chains, last, *rhos):
    """``_final_blocks``: ``C rho`` as one ``d x d`` product per history,
    and each final-event block of each group as its own 2-D product against
    a conjugated copy of the block's chains."""
    f, n, d, _ = chains.shape
    m = n // last
    states = _state_stack(rhos, d)[:, None]
    for g in _blocks(_groups(f, len(states)), chains.itemsize * n * m):
        left = (_pick(chains, g) @ _pick(states, g)).reshape(-1, n, d * d)
        right = _pick(chains, g).reshape(-1, n, d * d).conj()
        for i in _blocks(m, chains.itemsize * n):
            yield g.start, i.start, np.array([
                [left[k, e::last][i] @ right[k % len(right), e::last].T
                 for e in range(last)] for k in range(len(left))])


def probabilities(chains, states):
    """``_probabilities``: ``C rho`` as one ``d x d`` product per history,
    traced against a conjugated copy of the chain stack."""
    return np.einsum("...ab,...ab->...", chains @ states[:, None],
                     chains.conj()).real
