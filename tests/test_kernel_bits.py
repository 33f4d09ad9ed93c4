"""The consistency kernel against its gather-and-copy reference, bit for bit.

Pair tables built as broadcasts over the slot axes, chains and ``C rho``
from tall products, and conjugation in place must give the bytes of the
direct forms in :mod:`kernel_reference`: every table, the chains,
``C rho``, every probability, the real part of every final-event block of
``D`` (its imaginary part up to the sign of zero), and the reports of
every notion.
"""

import numpy as np
import pytest

import kernel_reference as ref
from qhistories import consistency
from qhistories.consistency import FamilyAnalysis
from qhistories.errors import FamilyTooLarge, PreconditionFailed
from qhistories.histories import HistoryFamily, family_member_count
from qhistories.matcore import DEFAULT_TOL, _state_stack
from random_instances import random_density, random_resolution
from test_consistency import decohering_family

TOL = DEFAULT_TOL


def random_slots(dim, sizes, rng):
    return HistoryFamily(tuple(random_resolution(dim, s, rng, TOL) for s in sizes))


SMALL = [(1, 1, 2), (2, 2), (1, 3)]  # N = 12, 63 members


def kernel_cases():
    """``(families, states)``: d = 16 with N = 64 and a full-rank state;
    d = 8 with (2,2,2,2) x 3; a grid of F = 3 families of one shape; one
    family against S = 11 states; and two families small enough for the
    sum rule and ordered consistency."""
    rng = np.random.default_rng(15)
    cases = [([random_slots(16, [(4, 4, 4, 4)] * 3, rng)],
              [random_density(16, rng, rank=16, tol=TOL)]),
             ([random_slots(8, [(2, 2, 2, 2)] * 3, rng)],
              [random_density(8, rng, tol=TOL)]),
             ([random_slots(4, SMALL, rng) for _ in range(3)],
              [random_density(4, rng, tol=TOL)]),
             ([random_slots(8, [(2, 2, 2, 2)] * 3, rng)],
              [random_density(8, rng, rank=r, tol=TOL) for r in (1, 2, 8) * 3 + (4, 5)]),
             ([random_slots(4, SMALL, rng)], [random_density(4, rng, tol=TOL)])]
    family, rho = decohering_family(4, SMALL, rng)
    return cases + [([family], [rho])]


@pytest.mark.parametrize("case", range(len(kernel_cases())))
def test_kernel_tables_products_and_probabilities_keep_their_bytes(case):
    families, rhos = kernel_cases()[case]
    analysis = FamilyAnalysis(families, TOL)
    parts = [analysis]
    if family_member_count(analysis.family) <= 64:
        parts.append(analysis.members)
    for part in parts:
        for slots in (None, len(part.stacks) - 1):
            assert (part.summable_slots(slots).tobytes()
                    == ref.summable_slots(part, slots).tobytes())
        assert part.leq(part).tobytes() == ref.leq(part, part).tobytes()
        assert part.chains.tobytes() == ref.chain_stack(part.stacks).tobytes()
        assert (part.probabilities(*rhos).tobytes() == ref.probabilities(
            part.chains, _state_stack(rhos, part.chains.shape[-1])).tobytes())
    n, last = len(analysis.index), analysis.shape[-1]
    upper = np.arange(n) > np.arange(n)[:, None]
    summable = (ref.summable_slots(analysis) > 0) & upper
    for e in range(last):
        assert (analysis.block_mask.tobytes()
                == summable[:, e::last, e::last].copy().tobytes())
    counts = [int(np.count_nonzero(m)) for m in summable]
    assert analysis.weak_counts == counts
    assert [r.pair_count for r in analysis.reports("weak", rhos[:1])] == counts
    assert analysis.commutative.tobytes() == ref.commutative(analysis).tobytes()
    states = _state_stack(rhos, analysis.chains.shape[-1])
    assert (consistency._left(analysis.chains, states).tobytes()
            == (analysis.chains @ states[:, None]).tobytes())
    got = list(consistency._final_blocks(analysis.chains, last, *rhos))
    want = list(ref.final_blocks(analysis.chains, last, *rhos))
    assert [(g, i, block.real.tobytes()) for g, i, block in got] == [
        (g, i, block.real.tobytes()) for g, i, block in want]
    # conjugating back turns an exact +0.0 imaginary part into -0.0, which
    # no reduction reads: weak takes the real part, medium the modulus
    assert all(np.array_equal(a.imag, b.imag) for (*_, a), (*_, b) in zip(got, want))


def reports(families, rhos):
    analysis = FamilyAnalysis(families, TOL)
    out = [*analysis.reports("weak", rhos), *analysis.reports("medium", rhos),
           *analysis.reports("linear-positive", rhos)]
    if len(families) * len(rhos) == 1:
        out += analysis.reports("C1-compat", rhos)
        try:
            out.append(analysis.ordered(rhos[0]))
        except (PreconditionFailed, FamilyTooLarge) as e:
            out.append(type(e))
    try:
        out += analysis.reports("sum-rule", rhos)
    except FamilyTooLarge as e:
        out.append(type(e))
    return [(r.notion, r.verdict, r.worst_pair, r.worst_residual.hex(), r.pair_count)
            if isinstance(r, consistency.ConsistencyReport) else r for r in out]


@pytest.mark.parametrize("case", range(len(kernel_cases())))
def test_reports_keep_their_bits_over_the_reference_kernel(case, monkeypatch):
    families, rhos = kernel_cases()[case]
    got = reports(families, rhos)
    monkeypatch.setattr(consistency, "chain_stack", ref.chain_stack)
    monkeypatch.setattr(consistency, "_final_blocks", ref.final_blocks)
    monkeypatch.setattr(consistency, "_probabilities", ref.probabilities)
    monkeypatch.setattr(consistency._SlotHistories, "summable_slots", ref.summable_slots)
    monkeypatch.setattr(consistency._SlotHistories, "leq", ref.leq)
    monkeypatch.setattr(FamilyAnalysis, "commutative", property(ref.commutative))
    assert got == reports(families, rhos)


def test_the_cases_reach_every_notion():
    ran = {r[0] for case in kernel_cases() for r in reports(*case)
           if isinstance(r, tuple)}
    assert ran == set(consistency.NOTIONS)
