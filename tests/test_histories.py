"""History families: labels, membership, sums, chain operators."""

import numpy as np
import pytest

from qhistories.errors import (
    DimensionMismatch,
    FamilyTooLarge,
    NotComplete,
    NotOrthogonal,
    NotSummable,
)
from qhistories.histories import (
    History,
    HistoryFamily,
    _check_resolutions,
    chain_operator,
    elementary_histories,
    family_member_count,
    history_sum,
    is_commutative,
    make_resolution,
    summable,
)
from qhistories.matcore import DEFAULT_TOL, max_norm, validate_projection

from pairwise_reference import alternative, family_members, history_leq, is_member

TOL = DEFAULT_TOL


def diag_proj(*bits):
    return validate_projection(np.diag([float(b) for b in bits]))


def two_slot_family(dim=3):
    """Both slots split the diagonal basis, first slot coarser."""
    r1 = make_resolution([diag_proj(1, 1, 0), diag_proj(0, 0, 1)], TOL)
    r2 = make_resolution([diag_proj(1, 0, 0), diag_proj(0, 1, 0),
                          diag_proj(0, 0, 1)], TOL)
    return HistoryFamily((r1, r2))


def test_history_needs_events():
    with pytest.raises(DimensionMismatch):
        History(())


def test_history_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        History((diag_proj(1, 0), diag_proj(1, 0, 0)))


def test_two_event_flag():
    h = History((diag_proj(1, 0), diag_proj(0, 1)))
    assert h.is_two_event
    assert not History((diag_proj(1, 0),)).is_two_event


def test_make_resolution_rejects_overlap():
    with pytest.raises(NotOrthogonal):
        make_resolution([diag_proj(1, 1, 0), diag_proj(0, 1, 1)], TOL)


def test_make_resolution_rejects_incomplete():
    with pytest.raises(NotComplete):
        make_resolution([diag_proj(1, 0, 0), diag_proj(0, 1, 0)], TOL)


def test_stacked_resolution_check_raises_the_first_failure():
    """Over a stack of resolutions the first failing one raises what
    :func:`make_resolution` raises for it alone: class, message and pair."""
    good = [diag_proj(1, 0, 0), diag_proj(0, 1, 0), diag_proj(0, 0, 1)]
    overlap = [diag_proj(1, 0, 0), diag_proj(0, 1, 1), diag_proj(0, 0, 1)]
    gap = [diag_proj(1, 0, 0), diag_proj(0, 1, 0), diag_proj(0, 0, 0)]
    stack = np.array([[e.matrix for e in r] for r in (good, overlap, gap)])
    _check_resolutions(stack[:1], TOL)
    for events, rest, error in ((overlap, stack[1:], NotOrthogonal),
                                (gap, stack[2:], NotComplete)):
        with pytest.raises(error) as alone:
            make_resolution(events, TOL)
        with pytest.raises(error) as stacked:
            _check_resolutions(rest, TOL)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.args == alone.value.args
    assert alone.value.args[0].startswith("resolution does not sum")
    with pytest.raises(NotOrthogonal) as exc:
        _check_resolutions(stack, TOL)
    assert exc.value.pair == (2, 3)


def test_elementary_labels_are_one_based_lexicographic():
    family = two_slot_family()
    labels = [h.label for h in elementary_histories(family)]
    assert labels == ["(1,1)", "(1,2)", "(1,3)",
                      "(2,1)", "(2,2)", "(2,3)"]


def test_member_count_counts_subset_sums():
    family = two_slot_family()
    assert family_member_count(family) == (2 ** 2 - 1) * (2 ** 3 - 1)


def test_family_members_labels_and_cap():
    family = two_slot_family()
    members = family_members(family, TOL)
    assert len(members) == 21
    labels = {m.label for m in members}
    assert "(1+2,1+2+3)" in labels
    assert "(1,2)" in labels
    with pytest.raises(FamilyTooLarge):
        family_members(family, TOL, cap=20)


def test_membership_of_elementary_and_coarse_histories():
    family = two_slot_family()
    for m in family_members(family, TOL):
        assert is_member(m, family, TOL), m.label
    outsider = History((diag_proj(1, 1, 0),
                        validate_projection(np.full((3, 3), 1.0 / 3.0))))
    assert not is_member(outsider, family, TOL)


def test_summable_requires_single_orthogonal_slot():
    family = two_slot_family()
    h = elementary_histories(family)
    assert summable(h[0], h[3], TOL) == 1    # differ in slot 1 only
    assert summable(h[0], h[1], TOL) == 2
    assert summable(h[0], h[0], TOL) is None
    assert summable(h[0], h[4], TOL) is None  # differ in both slots


def test_history_sum_merges_and_labels():
    family = two_slot_family()
    h = elementary_histories(family)
    s = history_sum(h[0], h[3], TOL)
    assert s.label == "(1,1)+(2,1)"
    assert max_norm(s.events[0].matrix - np.eye(3)) <= TOL.op
    with pytest.raises(NotSummable):
        history_sum(h[0], h[4], TOL)


def test_chain_operator_is_additive_over_history_sum():
    rng = np.random.default_rng(5)
    for trial in range(50):
        dim = int(rng.integers(2, 6))
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        cut = 1 + int(rng.integers(dim - 1))
        p1 = validate_projection(u[:, :cut] @ u[:, :cut].conj().T, TOL)
        p2 = validate_projection(u[:, cut:] @ u[:, cut:].conj().T, TOL)
        e2 = validate_projection(np.eye(dim))
        h1 = History((p1, e2), "(1,1)")
        h2 = History((p2, e2), "(2,1)")
        s = history_sum(h1, h2, TOL)
        total = chain_operator(h1) + chain_operator(h2)
        assert max_norm(chain_operator(s) - total) <= 10 * TOL.op, trial


def test_chain_operator_applies_later_events_on_the_left():
    p = diag_proj(1, 0)
    q = validate_projection(np.full((2, 2), 0.5))
    h = History((p, q))
    assert max_norm(chain_operator(h) - q.matrix @ p.matrix) == 0.0


def test_alternative_means_orthogonal_somewhere():
    family = two_slot_family()
    h = elementary_histories(family)
    assert alternative(h[0], h[3], TOL)
    assert alternative(h[0], h[4], TOL)
    assert not alternative(h[0], h[0], TOL)


def test_history_leq_orders_members_below_coarse_sums():
    family = two_slot_family()
    h = elementary_histories(family)
    s = history_sum(h[0], h[3], TOL)
    assert history_leq(h[0], s, TOL)
    assert history_leq(h[3], s, TOL)
    assert not history_leq(s, h[0], TOL)
    assert history_leq(h[0], h[0], TOL)


def test_is_commutative_checks_pairwise_commutators():
    assert is_commutative(History((diag_proj(1, 0), diag_proj(0, 1))), TOL)
    skew = validate_projection(np.full((2, 2), 0.5))
    assert not is_commutative(History((diag_proj(1, 0), skew)), TOL)
