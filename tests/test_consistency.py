"""Notion checkers: decoherence functionals, sum rules, retrodiction."""

import itertools

import numpy as np
import pytest

from qhistories import consistency, matcore
from qhistories.consistency import (
    ConsistencyReport,
    FamilyAnalysis,
    check_C1_compatibility,
    check_C1_family,
    check_linear_positivity,
    check_medium_decoherence,
    check_ordered_consistency,
    check_sum_rule,
    check_weak_decoherence,
    conditional_probability,
    contrary_inference,
    decoherence_functional,
    probability,
)
from qhistories.errors import (
    BadParameters,
    DimensionMismatch,
    FamilyTooLarge,
    NotCommuting,
    NotIdempotent,
    PreconditionFailed,
    ZeroConditioningEvent,
)
from qhistories.histories import (
    History,
    HistoryFamily,
    ResolutionOfIdentity,
    chain_operator,
    chain_stack,
    elementary_histories,
    event_stacks,
    family_member_count,
    history_sum,
    is_commutative,
    make_resolution,
    summable,
)
from qhistories.matcore import (
    DEFAULT_TOL,
    Tolerances,
    identity_projection,
    projector_onto,
    validate_density,
    validate_projection,
    zero_projection,
)
from qhistories.mirror import check_self_decoherence
from qhistories.scenarios import (
    build_contrary_inference,
    build_example1,
    example1_decoherence_expected,
    example1_expected,
    linear_positivity_expected,
)

from mirror_reference import hermitian_basis
from pairwise_reference import alternative, family_members, history_leq
from random_instances import (
    random_density,
    random_family,
    random_resolution,
    random_unitary,
)

TOL = DEFAULT_TOL


def diag_proj(*bits):
    return validate_projection(np.diag([float(b) for b in bits]))


def classical_family(dim=2):
    """All slots diagonal in one basis, so every functional is diagonal."""
    events = [diag_proj(*(1.0 if i == k else 0.0 for i in range(dim)))
              for k in range(dim)]
    r = make_resolution(events, TOL)
    return HistoryFamily((r, r))


def medium_fails_weak_holds():
    """Frozen 2d witness: D(h1, h2) = -i/4, so Re D = 0 but |D| = 1/4."""
    psi = np.array([1.0, 0.0])
    e1 = validate_projection(np.full((2, 2), 0.5))
    chi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    e2 = projector_onto(chi, TOL)
    r1 = make_resolution([e1, validate_projection(np.eye(2) - e1.matrix)],
                         TOL)
    r2 = make_resolution([e2, validate_projection(np.eye(2) - e2.matrix)],
                         TOL)
    family = HistoryFamily((r1, r2))
    rho = validate_density(np.outer(psi, psi.conj()), TOL)
    return family, rho


def test_diagonal_self_functional_is_the_probability():
    family = classical_family()
    rho = validate_density(np.diag([0.3, 0.7]))
    for h in elementary_histories(family):
        d = decoherence_functional(h, h, rho)
        assert d.imag == pytest.approx(0.0, abs=1e-12)
        assert d.real == pytest.approx(probability(h, rho), abs=1e-12)


def test_functional_is_hermitian_in_its_arguments():
    rng = np.random.default_rng(3)
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        family = random_family(dim, 2, rng, TOL)
        rho = random_density(dim, rng, tol=TOL)
        hs = elementary_histories(family)
        for i in range(len(hs)):
            for j in range(i, len(hs)):
                dij = decoherence_functional(hs[i], hs[j], rho)
                dji = decoherence_functional(hs[j], hs[i], rho)
                assert dij == pytest.approx(np.conj(dji), abs=1e-11), trial


def test_elementary_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        family = random_family(dim, int(rng.integers(2, 4)), rng, TOL)
        rho = random_density(dim, rng, tol=TOL)
        total = sum(probability(h, rho) for h in elementary_histories(family))
        assert total == pytest.approx(1.0, abs=1e-9), trial


def test_example1_weak_residual_matches_closed_form():
    for theta in (0.4, np.pi / 3, 1.9, 2.8):
        inst = build_example1(theta)
        report = check_weak_decoherence(inst.family, inst.rho1, TOL)
        expected = abs(np.cos(theta)) / 4.0
        assert report.worst_residual == pytest.approx(expected, abs=1e-12)
        assert report.verdict == (expected <= TOL.prob)
        assert report.pair_count == 4


def test_example1_functional_matches_closed_form():
    for theta in (0.5, 1.2, 2.5):
        for alpha in (0.0, np.pi / 2, 2.2):
            inst = build_example1(theta, alpha)
            d = decoherence_functional(inst.h1, inst.h2, inst.rho1)
            assert d == pytest.approx(
                example1_decoherence_expected(theta, alpha), abs=1e-12)


def test_example1_equal_mixture_restores_weak_and_medium():
    inst = build_example1(1.1, 0.7)
    for check in (check_weak_decoherence, check_medium_decoherence):
        report = check(inst.family, inst.rho, TOL)
        assert report.verdict, check.__name__
        assert report.worst_residual <= 1e-12


def test_medium_can_fail_where_weak_holds():
    family, rho = medium_fails_weak_holds()
    weak = check_weak_decoherence(family, rho, TOL)
    medium = check_medium_decoherence(family, rho, TOL)
    assert weak.verdict
    assert not medium.verdict
    assert medium.worst_residual == pytest.approx(0.25, abs=1e-12)


def test_linear_positivity_frozen_violation():
    inst = build_example1(2.0, np.pi)
    report = check_linear_positivity(inst.family, inst.rho1, TOL)
    assert not report.verdict
    assert report.worst_residual == pytest.approx(0.081361065843206, abs=1e-12)
    assert -report.worst_residual == pytest.approx(
        linear_positivity_expected(2.0, np.pi), abs=1e-12)


def test_linear_positivity_closed_form_on_grid():
    """Matrix-side channel value vs closed form across both angles."""
    thetas = np.linspace(0.1, np.pi - 0.1, 12)
    alphas = np.linspace(0.0, 2.0 * np.pi, 12)
    for theta in thetas:
        for alpha in alphas:
            inst = build_example1(float(theta), float(alpha))
            matrix_side = float(np.trace(
                chain_operator(inst.h1) @ inst.rho1.matrix).real)
            expected = linear_positivity_expected(float(theta), float(alpha))
            assert matrix_side == pytest.approx(expected, abs=1e-12)
            report = check_linear_positivity(inst.family, inst.rho1, TOL)
            channel_min = min(
                float(np.trace(chain_operator(h) @ inst.rho1.matrix).real)
                for h in elementary_histories(inst.family))
            assert report.verdict == (channel_min >= -TOL.prob)
            # the closed-form channel cannot go negative below pi/2,
            # whatever alpha does; other channels are not so constrained
            if theta <= np.pi / 2.0:
                assert matrix_side >= -1e-12


def test_sum_rule_agrees_with_weak_on_two_slot_families():
    rng = np.random.default_rng(9)
    agreements = 0
    for trial in range(100):
        dim = int(rng.integers(2, 5))
        family = random_family(dim, 2, rng, TOL)
        rho = random_density(dim, rng, tol=TOL)
        weak = check_weak_decoherence(family, rho, TOL)
        rule = check_sum_rule(family, rho, TOL)
        assert weak.verdict == rule.verdict, trial
        agreements += 1
    assert agreements == 100


def test_weak_is_strictly_weaker_than_the_sum_rule_with_three_slots():
    """``weak`` checks summable elementary pairs only.  With three slots a
    state can meet it while the sum rule fails on a coarse-grained pair:
    the least-squares state nearest a random full-rank density subject to
    ``Tr rho = 1`` and ``Re D = 0`` on the summable pairs."""
    rng = np.random.default_rng(11)
    basis = np.array(hermitian_basis(4))  # rho = sum_k x_k B_k
    decided = 0
    for trial in range(5):
        family = HistoryFamily(tuple(random_resolution(4, [2, 2], rng, TOL)
                                     for _ in range(3)))
        start = random_density(4, rng, rank=4, tol=TOL)
        hs = elementary_histories(family)
        chains = chain_stack(event_stacks(family))[0]
        a = np.array([np.trace(basis, axis1=1, axis2=2).real] + [
            np.trace(chains[i] @ basis @ chains[j].conj().T, axis1=1, axis2=2).real
            for i, j in itertools.combinations(range(len(hs)), 2)
            if summable(hs[i], hs[j], TOL) is not None])
        x = np.trace(basis @ start.matrix, axis1=1, axis2=2).real
        x -= np.linalg.pinv(a) @ (a @ x - np.eye(len(a))[0])
        rho = np.tensordot(x, basis, 1)
        if np.linalg.eigvalsh(rho).min() <= 0.0:
            continue
        state = validate_density(rho, TOL)
        weak = check_weak_decoherence(family, state, TOL)
        rule = check_sum_rule(family, state, TOL)
        assert weak.verdict and weak.worst_residual <= 1e-15, trial
        assert not rule.verdict and rule.worst_residual > 1e-2, trial
        assert any("+" in label for label in rule.worst_pair), trial
        decided += 1
    assert decided == 3


def test_sum_rule_passes_on_classical_family():
    family = classical_family(3)
    rho = validate_density(np.diag([0.2, 0.3, 0.5]))
    report = check_sum_rule(family, rho, TOL)
    assert report.verdict
    assert report.worst_residual <= 1e-12


def test_sum_rule_respects_member_cap():
    events = [diag_proj(*(1.0 if i == k else 0.0 for i in range(3)))
              for k in range(3)]
    r = make_resolution(events, TOL)
    family = HistoryFamily((r, r, r))  # 7^3 members
    rho = validate_density(np.eye(3) / 3.0)
    with pytest.raises(FamilyTooLarge):
        check_sum_rule(family, rho, TOL)


def test_C1_compatibility_for_commuting_histories():
    family = classical_family(3)
    rho = validate_density(np.diag([0.5, 0.25, 0.25]))
    for h in elementary_histories(family):
        assert check_C1_compatibility(h, rho, TOL)
    report = check_C1_family(family, rho, TOL)
    assert report.verdict
    assert report.pair_count == len(elementary_histories(family))


def test_C1_compatibility_rejects_non_commuting():
    inst = build_example1(1.0)
    with pytest.raises(NotCommuting):
        check_C1_compatibility(inst.h1, inst.rho1, TOL)
    report = check_C1_family(inst.family, inst.rho1, TOL)
    assert report.pair_count == 0
    assert report.verdict  # vacuous


def test_ordered_consistency_on_medium_decohering_family():
    family = classical_family(2)
    rho = validate_density(np.diag([0.4, 0.6]))
    report = check_ordered_consistency(family, rho, (), TOL)
    assert report.verdict
    assert report.worst_residual <= 1e-12


def test_ordered_consistency_requires_medium_decoherence():
    inst = build_example1(1.0)
    with pytest.raises(PreconditionFailed):
        check_ordered_consistency(inst.family, inst.rho1, (), TOL)


def test_ordered_consistency_with_context_family():
    family = classical_family(2)
    rho = validate_density(np.diag([0.4, 0.6]))
    report = check_ordered_consistency(family, rho, (family,), TOL)
    assert report.verdict


def test_ordered_precondition_names_the_failing_family():
    """The messages reach report notes, so their wording is pinned."""
    inst = build_example1(1.0)
    with pytest.raises(PreconditionFailed,
                       match=r"^family is not medium-decohering \(worst "
                             r"residual \d\.\d{3}e[-+]\d\d\)$"):
        check_ordered_consistency(inst.family, inst.rho1, (), TOL)
    trivial = HistoryFamily((make_resolution([diag_proj(1, 1, 1)], TOL),))
    with pytest.raises(PreconditionFailed,
                       match=r"^context family 2 is not medium-decohering "
                             r"\(worst residual \d\.\d{3}e[-+]\d\d\)$"):
        check_ordered_consistency(trivial, inst.rho1,
                                  (trivial, inst.family), TOL)


def test_conditional_probability_ratio_and_zero_guard():
    family = classical_family(2)
    rho = validate_density(np.diag([0.4, 0.6]))
    h = elementary_histories(family)[0]
    assert conditional_probability(h, rho, TOL) == pytest.approx(1.0)
    dead = History((diag_proj(1, 0), diag_proj(0, 1)))
    with pytest.raises(ZeroConditioningEvent):
        conditional_probability(
            dead, validate_density(np.diag([1.0, 0.0])), TOL)


def kent_triple_in_basis(inst, u):
    """``(psi, e1, f1, e2)`` of an instance under the unitary ``u``."""
    turn = [validate_projection(u @ p.matrix @ u.conj().T, TOL)
            for p in (inst.e1, inst.f1, inst.e2)]
    return (u @ inst.psi, *turn)


@pytest.mark.parametrize("dim", [3, 4, 6])
def test_contrary_construction_is_accepted(dim):
    """Kent's triple: both retrodictions certain, both families decohere,
    and the two orthogonal histories carry twice the final probability."""
    inst = build_contrary_inference(dim, TOL)
    assert inst is not None
    assert inst.weak_1.verdict and inst.weak_2.verdict
    assert inst.weak_1.worst_residual <= TOL.prob
    assert inst.conditional_1 >= 1.0 - TOL.prob
    assert inst.conditional_2 >= 1.0 - TOL.prob
    assert inst.p_e2 == pytest.approx(1.0 / 9.0, abs=1e-12)
    rho = validate_density(np.outer(inst.psi, inst.psi.conj()), TOL)
    p1 = probability(History((inst.e1, inst.e2)), rho)
    p2 = probability(History((inst.f1, inst.e2)), rho)
    # p1 + p2 = 2 p(E2): impossible for summable alternatives
    assert abs(p1 + p2 - 2.0 * inst.p_e2) <= TOL.prob
    again = contrary_inference(inst.psi, inst.e1, inst.f1, inst.e2, TOL)
    assert again is not None and again.p_e2 == inst.p_e2


@pytest.mark.parametrize("dim", [3, 4, 6])
def test_contrary_inference_survives_a_change_of_basis(dim):
    rng = np.random.default_rng(70 + dim)
    inst = build_contrary_inference(dim, TOL)
    for _ in range(5):
        turned = contrary_inference(
            *kent_triple_in_basis(inst, random_unitary(dim, rng)), TOL)
        assert turned is not None
        assert turned.p_e2 == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert min(turned.conditional_1, turned.conditional_2) >= 1.0 - TOL.prob
        assert max(turned.weak_1.worst_residual,
                   turned.weak_2.worst_residual) <= TOL.prob


def test_contrary_construction_needs_three_dimensions():
    for dim in (0, 1, 2):
        with pytest.raises(BadParameters):
            build_contrary_inference(dim, TOL)


def test_contrary_inference_preconditions():
    inst = build_contrary_inference(3, TOL)
    with pytest.raises(PreconditionFailed, match="not normalized"):
        contrary_inference(2.0 * inst.psi, inst.e1, inst.f1, inst.e2, TOL)
    for bad in (np.nan, np.inf):  # a NaN norm fails the test too
        psi = np.array(inst.psi, dtype=complex)
        psi[0] = bad
        with pytest.raises(PreconditionFailed, match="not normalized"):
            contrary_inference(psi, inst.e1, inst.f1, inst.e2, TOL)
    with pytest.raises(PreconditionFailed, match="not orthogonal"):
        contrary_inference(inst.psi, inst.e1, inst.e1, inst.e2, TOL)


def test_contrary_inference_rejects_each_failed_condition():
    inst = build_contrary_inference(3, TOL)
    # final event orthogonal to psi: p(e2) = 0
    dead = projector_onto(np.array([1.0, -1.0, 0.0]), TOL)
    assert contrary_inference(inst.psi, inst.e1, inst.f1, dead, TOL) is None
    # e2 = e1: both families decohere, but p(f1 e2) = 0
    assert contrary_inference(inst.psi, inst.e1, inst.f1, inst.e1, TOL) is None


def dimension_two_triples():
    """Seeded rank-1 triples ``e1 + f1 = 1`` in dimension 2, three kinds:
    unstructured; ``e2 = e1``, where both families decohere and one
    retrodiction is certain; and both retrodictions certain, ``psi``
    having relative phase ``exp(2 pi i/3)`` in the basis of ``e1`` and
    ``f1`` with ``e2`` onto their sum, where weak decoherence fails."""
    rng = np.random.default_rng(2)
    omega = np.exp(2j * np.pi / 3.0)
    for k in range(60):
        u = random_unitary(2, rng)
        e1 = projector_onto(u[:, 0], TOL)
        f1 = projector_onto(u[:, 1], TOL)
        if k % 3 == 0:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = v / np.linalg.norm(v)
            e2 = projector_onto(rng.normal(size=2) + 1j * rng.normal(size=2), TOL)
        elif k % 3 == 1:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi, e2 = v / np.linalg.norm(v), e1
        else:
            psi = u @ np.array([1.0, omega]) / np.sqrt(2.0)
            e2 = projector_onto(u[:, 0] + u[:, 1], TOL)
        yield k % 3, psi, e1, f1, e2


def test_contrary_inference_is_impossible_in_two_dimensions():
    """No contrary inference exists in dimension 2.

    Rank-1 ``e1`` orthogonal to ``f1`` gives ``e1 + f1 = 1``, so
    ``x = e2 e1 psi`` and ``y = e2 f1 psi`` satisfy ``x + y = e2 psi``.
    Both retrodictions certain means ``|x|^2 = |y|^2 = |x + y|^2 =
    p(e2)``, hence ``2 Re<x, y> = |x + y|^2 - |x|^2 - |y|^2 = -p(e2)``.
    Weak decoherence of the two families includes ``Re<x, y> = 0``
    (the pair ``(e1, e2)``, ``(f1, e2)`` is summable), so ``p(e2) = 0``,
    which the decider rejects.  The structured triples reach each side
    of the argument and are rejected for the other.
    """
    for kind, psi, e1, f1, e2 in dimension_two_triples():
        assert contrary_inference(psi, e1, f1, e2, TOL) is None
        rho = validate_density(np.outer(psi, psi.conj()), TOL)
        weak = check_weak_decoherence(
            HistoryFamily((make_resolution([e1, f1], TOL),
                           make_resolution([e2, validate_projection(
                               np.eye(2) - e2.matrix, TOL)], TOL))), rho, TOL)
        p_e2 = float(np.trace(e2.matrix @ rho.matrix).real)
        c1 = conditional_probability(History((e1, e2)), rho, TOL)
        c2 = conditional_probability(History((f1, e2)), rho, TOL)
        if kind == 1:
            assert weak.verdict and c1 == pytest.approx(1.0)
            assert c2 <= TOL.prob
        if kind == 2:
            assert min(c1, c2) >= 1.0 - TOL.prob
            assert weak.worst_residual == pytest.approx(p_e2 / 2.0)
            assert p_e2 > 0.1


# Pairwise reference: the checkers' loops over pairs of histories before
# they became reductions over the decoherence-functional matrix and the
# slot relation tables.  The kernel must reproduce them.

def _label(h):
    return h.label if h.label is not None else "?"


def reference_weak(family, rho, tol=TOL):
    elems = elementary_histories(family)
    worst, worst_pair, count = 0.0, None, 0
    for h1, h2 in itertools.combinations(elems, 2):
        if summable(h1, h2, tol) is None:
            continue
        count += 1
        r = abs(decoherence_functional(h1, h2, rho).real)
        if r > worst:
            worst, worst_pair = r, (_label(h1), _label(h2))
    return ConsistencyReport("weak", worst <= tol.prob, worst_pair, worst, count)


def reference_medium(family, rho, tol=TOL):
    elems = elementary_histories(family)
    worst, worst_pair, count = 0.0, None, 0
    for h1, h2 in itertools.combinations(elems, 2):
        if not alternative(h1, h2, tol):
            continue
        count += 1
        r = abs(decoherence_functional(h1, h2, rho))
        if r > worst:
            worst, worst_pair = r, (_label(h1), _label(h2))
    return ConsistencyReport("medium", worst <= tol.prob, worst_pair, worst, count)


def reference_linear_positivity(family, rho):
    elems = elementary_histories(family)
    worst, worst_pair = -np.inf, None
    for h in elems:
        v = float(np.trace(chain_operator(h) @ rho.matrix).real)
        if -v > worst:
            worst, worst_pair = -v, (_label(h), _label(h))
    return ConsistencyReport("linear-positive", worst <= TOL.prob,
                             worst_pair, worst, len(elems))


def reference_sum_rule(family, rho):
    members = family_members(family, TOL)
    probs = [probability(m, rho) for m in members]
    worst, worst_pair, count = 0.0, None, 0
    for (i, m1), (j, m2) in itertools.combinations(enumerate(members), 2):
        if summable(m1, m2, TOL) is None:
            continue
        count += 1
        s = history_sum(m1, m2, TOL)
        r = abs(probability(s, rho) - probs[i] - probs[j])
        if r > worst:
            worst, worst_pair = r, (_label(m1), _label(m2))
    total = sum(probability(h, rho) for h in elementary_histories(family))
    norm_defect = abs(total - 1.0)
    if norm_defect > worst:
        worst, worst_pair = norm_defect, None
    return ConsistencyReport("sum-rule", worst <= TOL.prob, worst_pair, worst, count)


def reference_C1(family, rho):
    worst, worst_pair, count = 0.0, None, 0
    for h in elementary_histories(family):
        if not is_commutative(h, TOL):
            continue
        count += 1
        c = chain_operator(h)
        lhs = float(np.trace(c @ rho.matrix @ c.conj().T).real)
        rhs = complex(np.trace(c @ rho.matrix))
        r = abs(lhs - rhs)
        if r > worst:
            worst, worst_pair = r, (_label(h), _label(h))
    return ConsistencyReport("C1-compat", worst <= TOL.prob,
                             worst_pair, worst, count)


def reference_ordered(family, rho, context=()):
    for fam in (family, *context):
        if not reference_medium(fam, rho).verdict:
            raise PreconditionFailed("not medium-decohering")
    own = family_members(family, TOL)
    own_probs = [probability(m, rho) for m in own]
    worst, worst_pair, count = 0.0, None, 0
    for fam in (family, *context):
        others = own if fam is family else family_members(fam, TOL)
        other_probs = [probability(m, rho) for m in others]
        for i, h1 in enumerate(own):
            for j, h2 in enumerate(others):
                if not history_leq(h1, h2, TOL):
                    continue
                count += 1
                violation = own_probs[i] - other_probs[j]
                if violation > worst:
                    worst, worst_pair = violation, (_label(h1), _label(h2))
    return ConsistencyReport("ordered", worst <= TOL.prob, worst_pair, worst, count)


def assert_same_report(got, want):
    assert got.notion == want.notion
    assert got.verdict == want.verdict, (got, want)
    assert got.pair_count == want.pair_count, (got, want)
    assert abs(got.worst_residual - want.worst_residual) <= 1e-12, (got, want)


def decohering_family(dim, sizes, rng):
    """Resolutions and state diagonal in one Haar basis: D is diagonal."""
    u = random_unitary(dim, rng)
    resolutions = []
    for blocks in sizes:
        edges = np.cumsum([0, *blocks])
        events = [validate_projection(
            u[:, a:b] @ u[:, a:b].conj().T, TOL)
            for a, b in zip(edges[:-1], edges[1:])]
        resolutions.append(make_resolution(events, TOL))
    weights = rng.dirichlet(np.ones(dim))
    rho = validate_density((u * weights) @ u.conj().T, TOL)
    return HistoryFamily(tuple(resolutions)), rho


def with_zero_events(family, slot=0, zeros=2):
    """The family with ``zeros`` zero events added to one resolution."""
    resolutions = list(family.resolutions)
    events = list(resolutions[slot].events)
    events += [zero_projection(family.dim, TOL)] * zeros
    resolutions[slot] = make_resolution(events, TOL)
    return HistoryFamily(tuple(resolutions))


def equivalence_cases():
    """Seeded generic, decohering and zero-event families, N up to 64."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(6):
        dim = int(rng.integers(2, 6))
        family = random_family(dim, int(rng.integers(1, 4)), rng, TOL)
        cases.append((family, random_density(dim, rng, tol=TOL)))
    for sizes in ([(2, 1), (1, 1, 1)], [(1, 2), (2, 1), (1, 1, 1)],
                  [(1, 1, 1, 1), (2, 2)]):
        cases.append(decohering_family(sum(sizes[0]), sizes, rng))
    family, rho = decohering_family(3, [(1, 2), (1, 1, 1)], rng)
    cases.append((with_zero_events(family), rho))
    family = random_family(4, 2, rng, TOL)
    cases.append((with_zero_events(family, slot=1),
                  random_density(4, rng, tol=TOL)))
    n64 = HistoryFamily(tuple(random_resolution(8, (2, 2, 2, 2), rng, TOL)
                              for _ in range(3)))
    cases.append((n64, random_density(8, rng, tol=TOL)))
    cases.append(decohering_family(8, [(2, 2, 2, 2)] * 3, rng))
    return cases


@pytest.mark.parametrize("case", range(len(equivalence_cases())))
def test_kernel_matches_pairwise_reference(case):
    family, rho = equivalence_cases()[case]
    assert_same_report(check_weak_decoherence(family, rho, TOL),
                       reference_weak(family, rho))
    assert_same_report(check_medium_decoherence(family, rho, TOL),
                       reference_medium(family, rho))
    assert_same_report(check_linear_positivity(family, rho, TOL),
                       reference_linear_positivity(family, rho))
    assert_same_report(check_C1_family(family, rho, TOL),
                       reference_C1(family, rho))
    if family_member_count(family) > 64:
        return
    assert_same_report(check_sum_rule(family, rho, TOL),
                       reference_sum_rule(family, rho))
    try:
        want = reference_ordered(family, rho, (family,))
    except PreconditionFailed:
        with pytest.raises(PreconditionFailed):
            check_ordered_consistency(family, rho, (family,), TOL)
    else:
        assert_same_report(
            check_ordered_consistency(family, rho, (family,), TOL), want)


def test_zero_events_keep_matrix_level_pair_counts():
    """Two zero events are both equal and orthogonal, so summability by
    the matrix tests differs from "differs in exactly one index"."""
    family, rho = decohering_family(3, [(1, 2), (1, 1, 1)],
                                    np.random.default_rng(5))
    family = with_zero_events(family)
    weak = check_weak_decoherence(family, rho, TOL)
    assert weak.pair_count == reference_weak(family, rho).pair_count
    index_level = sum(
        sum(a != b for a, b in zip(i, j)) == 1
        for i, j in itertools.combinations(
            itertools.product(range(4), range(3)), 2))
    assert weak.pair_count != index_level


@pytest.mark.parametrize("slot, zeros", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_zero_events_in_a_later_slot_match_the_pairwise_relations(slot, zeros):
    """Zero events in the middle or last of three slots: the summable slots,
    the block mask and domination agree with pairwise :func:`summable`
    and :func:`history_leq` on the elementary histories, and on the
    members where there are at most 64."""
    rng = np.random.default_rng(20 + 2 * slot + zeros)
    family = with_zero_events(random_family(3, 3, rng, TOL, max_blocks=2),
                              slot=slot, zeros=zeros)
    analysis = FamilyAnalysis(family, TOL)
    parts = [(analysis, elementary_histories(family))]
    if family_member_count(family) <= 64:
        parts.append((analysis.members, family_members(family, TOL)))
    for part, hs in parts:
        slots, leq = part.summable_slots()[0], part.leq(part)[0]
        for (a, h1), (b, h2) in itertools.product(enumerate(hs), repeat=2):
            assert slots[a, b] == (summable(h1, h2, TOL) or 0), (a, b)
            assert leq[a, b] == history_leq(h1, h2, TOL), (a, b)
    want, last = np.triu(analysis.summable_slots()[0] > 0, 1), analysis.shape[-1]
    for e in range(last):
        assert np.array_equal(analysis.block_mask[0], want[e::last, e::last])
    assert len(parts) == 2 or zeros == 2


def test_ordered_against_reference_with_mismatched_context():
    family, rho = decohering_family(3, [(1, 2), (1, 1, 1)],
                                    np.random.default_rng(8))
    single = HistoryFamily(family.resolutions[:1])
    got = check_ordered_consistency(family, rho, (single, family), TOL)
    assert_same_report(got, reference_ordered(family, rho, (single, family)))


def decoherence_matrix(family, rho):
    """D with its final-event blocks from the kernel and zeros off them."""
    return block_matrix(FamilyAnalysis(family, TOL), rho)


def block_matrix(analysis, rho):
    n, last = len(analysis.index), analysis.shape[-1]
    d = np.zeros((n, n), dtype=complex)
    for _, i, block in consistency._final_blocks(analysis.chains, last, rho):
        for e, rows in enumerate(block[0]):
            d[(i + np.arange(len(rows))) * last + e, e::last] = rows
    return d


def test_decoherence_matrix_invariants():
    rng = np.random.default_rng(11)
    for trial in range(20):
        dim = int(rng.integers(2, 7))
        family = random_family(dim, int(rng.integers(1, 4)), rng, TOL)
        rho1 = random_density(dim, rng, tol=TOL)
        rho2 = random_density(dim, rng, tol=TOL)
        d = decoherence_matrix(family, rho1)
        assert np.max(np.abs(d - d.conj().T)) <= 1e-12, trial
        assert np.min(np.diag(d).real) >= -TOL.eig, trial
        assert abs(np.sum(d) - 1.0) <= TOL.prob, trial
        lam = float(rng.uniform(0.1, 0.9))
        mixed = validate_density(
            lam * rho1.matrix + (1.0 - lam) * rho2.matrix, TOL)
        linear = lam * d + (1.0 - lam) * decoherence_matrix(family, rho2)
        assert np.max(np.abs(decoherence_matrix(family, mixed) - linear)) <= 1e-12
        hs = elementary_histories(family)
        i, j = rng.integers(0, len(hs), size=2)
        assert d[i, j] == pytest.approx(
            decoherence_functional(hs[i], hs[j], rho1), abs=1e-12)


def test_block_budget_does_not_change_reports(monkeypatch):
    rng = np.random.default_rng(12)
    cases = [decohering_family(8, [(2, 2, 2, 2)] * 3, rng),
             (HistoryFamily(tuple(random_resolution(8, (2, 2, 2, 2), rng, TOL)
                                  for _ in range(3))),
              random_density(8, rng, tol=TOL))]
    checks = (check_weak_decoherence, check_medium_decoherence)
    whole = [[check(f, rho, TOL) for check in checks] for f, rho in cases]
    matrices = [decoherence_matrix(f, rho) for f, rho in cases]
    n = len(matrices[0])
    # seven prefix rows of 16 per block, in each of the four final-event
    # blocks: 7 + 7 + 2 rows.  Five rows per block would leave a one-row
    # tail, which OpenBLAS computes by another kernel, moving that row's
    # entries in the last bits; the tail joins the block before it, 5 + 5 + 6.
    for rows, layout in ((7, [7, 7, 2]), (5, [5, 5, 6])):
        monkeypatch.setattr(matcore, "_BLOCK_BYTES", 16 * n * rows)
        blocks = list(consistency._final_blocks(
            chain_stack(event_stacks(cases[0][0])), 4, cases[0][1]))
        assert [block.shape for _, _, block in blocks] == [
            (1, 4, r, n // 4) for r in layout]
        for (f, rho), want, matrix in zip(cases, whole, matrices):
            assert [check(f, rho, TOL) for check in checks] == want
            assert np.array_equal(decoherence_matrix(f, rho), matrix)


def test_block_budget_does_not_change_stacked_reports(monkeypatch):
    """Several states in one pass: blocks hold whole states or lie within
    one, and any budget gives the reports of the whole-matrix pass."""
    rng = np.random.default_rng(14)
    family = HistoryFamily(tuple(random_resolution(8, (2, 2, 2, 2), rng, TOL)
                                 for _ in range(3)))
    # four states, so that two whole states per block split them in two:
    # one state left over would join the block before it
    states = [random_density(8, rng, rank=r, tol=TOL) for r in (1, 3, 8, 2)]
    analysis = FamilyAnalysis(family, TOL)
    whole = [analysis.reports(name, states) for name in ("weak", "medium")]
    assert len({r.worst_residual for r in whole[0]}) == len(states)
    n, m = len(elementary_histories(family)), len(elementary_histories(family)) // 4
    within = [(s, i, (1, 4, min(7, m - i), m))
              for s in range(len(states)) for i in range(0, m, 7)]
    # seven prefix rows of 16 per block, or two whole states per block
    for rows_per_block, layout in ((7, within), (2 * m, [(0, 0, (2, 4, m, m)),
                                                         (2, 0, (2, 4, m, m))])):
        monkeypatch.setattr(matcore, "_BLOCK_BYTES", 16 * n * rows_per_block)
        assert [(s, i, block.shape) for s, i, block
                in consistency._final_blocks(analysis.chains, 4, *states)] == layout
        assert [analysis.reports(name, states) for name in ("weak", "medium")] == whole


def assert_same_pair_report(got, want, family, rho):
    """The pairwise reference's report, and a worst pair whose residual is
    the reference's worst up to rounding: pairs that tie up to rounding
    (as ``D`` on blocks 1 and 2 of a pair whose prefixes differ in the
    last prefix slot, for two final events) may come out either way."""
    assert_same_report(got, want)
    if want.worst_residual > 1e-12:
        hs = {h.label: h for h in elementary_histories(family)}
        value = decoherence_functional(*(hs[x] for x in got.worst_pair), rho)
        value = abs(value.real if got.notion == "weak" else value)
        assert abs(value - want.worst_residual) <= 1e-12, (got, want)


def test_final_event_blocks_match_the_pairwise_reference():
    """Weak and medium read D on its final-event blocks only and count the
    off-block pairs from the tables: reports and pair counts equal the
    pairwise reference over every pair, with zero events in the last or a
    prefix slot, one slot, three slots, S = 11 states and an F = 3 grid."""
    rng = np.random.default_rng(18)
    family, _ = decohering_family(3, [(1, 2), (1, 1, 1)], rng)
    families = [with_zero_events(family, slot=1),
                with_zero_events(random_family(3, 2, rng, TOL)),
                random_family(4, 1, rng, TOL),
                random_family(3, 3, rng, TOL, max_blocks=2)]
    checks = ((reference_weak, "weak"), (reference_medium, "medium"))
    for family in families:
        states = [random_density(family.dim, rng, rank=r, tol=TOL)
                  for r in (1, 2, 3) * 3 + (1, 2)]
        analysis = FamilyAnalysis(family, TOL)
        for reference, name in checks:
            for got, rho in zip(analysis.reports(name, states), states):
                assert_same_pair_report(got, reference(family, rho), family, rho)
    grid = one_shape_families(4, [(1, 1, 2), (2, 2)], rng)[2:]
    rho = random_density(4, rng, tol=TOL)
    analysis = FamilyAnalysis(grid, TOL)
    for reference, name in checks:
        for got, family in zip(analysis.reports(name, [rho]), grid):
            assert_same_pair_report(got, reference(family, rho), family, rho)


def test_tied_blocks_report_the_first_pair_in_label_order():
    """Four prefix events ``|a><a|`` and final events ``|+_23><+_23|``,
    ``|+_01><+_01|`` and the rest, with ``+_ij`` the equal superposition
    of ``|i>`` and ``|j>``, against the uniform pure state: every nonzero
    pair residual is 1/8 exactly, in block 1 at prefix row 3 only, and the
    worst pair reported is the first in label order, (1,2)-(2,2) of block
    2, as the pairwise reference finds it."""
    def plus(i, j):
        v = np.zeros(4)
        v[[i, j]] = 1.0
        return validate_projection(np.outer(v, v) / 2)

    first, second = plus(2, 3), plus(0, 1)
    family = HistoryFamily((
        make_resolution([diag_proj(*e) for e in np.eye(4)], TOL),
        make_resolution([first, second, validate_projection(
            np.eye(4) - first.matrix - second.matrix)], TOL)))
    rho = validate_density(np.full((4, 4), 0.25))
    for check, reference in ((check_weak_decoherence, reference_weak),
                             (check_medium_decoherence, reference_medium)):
        got = check(family, rho, TOL)
        assert got.worst_residual == 0.125
        assert got.worst_pair == ("(1,2)", "(2,2)") == reference(family, rho).worst_pair


def test_overlapping_final_events_keep_the_reference_verdicts():
    """Final events ``diag(1, x, 0)`` and ``diag(0, 1 - x, 1)`` overlap at
    x = 0.5 ``TOL.op``: d times the measured overlap, ``3 x (1 - x)``, is
    within ``TOL.prob``, so D is read on its blocks; the off-block values
    the reference reads stay within ``d x`` of zero, and every verdict and
    pair count is its."""
    x = 0.5 * TOL.op
    last = make_resolution([validate_projection(np.diag([1, x, 0])),
                            validate_projection(np.diag([0, 1 - x, 1]))], TOL)
    rng = np.random.default_rng(19)
    diagonal = make_resolution([diag_proj(1, 0, 0), diag_proj(0, 1, 1)], TOL)
    states = [validate_density(np.diag([0.5, 0.3, 0.2])),
              random_density(3, rng, tol=TOL)]
    for first in (diagonal, random_resolution(3, (1, 2), rng, TOL)):
        family = HistoryFamily((first, last))
        assert FamilyAnalysis(family, TOL).block_slots == 1
        for rho in states:
            for check, reference in ((check_weak_decoherence, reference_weak),
                                     (check_medium_decoherence, reference_medium)):
                got, want = check(family, rho, TOL), reference(family, rho)
                assert (got.verdict, got.pair_count) == (want.verdict, want.pair_count)
                assert abs(got.worst_residual - want.worst_residual) <= 3 * x
    # the bound is within TOL.prob: the off-block value is not reported
    got = check_medium_decoherence(HistoryFamily((diagonal, last)), states[0], TOL)
    want = reference_medium(HistoryFamily((diagonal, last)), states[0])
    assert got.worst_residual == 0.0 < want.worst_residual <= x


def test_final_events_past_tol_prob_are_read_whole():
    """Final events ``|a><a| + R_1`` and ``|b><b| + R_2``, with ``a`` and
    ``b`` flat and ``<a|b>`` about ``0.45 d tol.op``, pass make_resolution
    (max-norm overlap and completeness gap within ``tol.op``) while
    ``||P_b P_a||_F``, and so d times the measured overlap, exceeds
    ``tol.prob``: at d = 64 with the default tolerances, and at d = 8 with
    ``tol.op = tol.prob``.  D is then read whole, and against ``psi`` along
    ``a + b`` weak and medium fail on the off-block pair at about
    ``0.225 d tol.op``, as the pairwise reference finds; the final-event
    blocks alone would pass.  Complementary events ``P`` and ``I - P`` keep
    the blocks, unless their resolution is built without a measured
    overlap."""
    for d, tol in ((64, TOL), (8, Tolerances(op=1e-9, prob=1e-9))):
        a = np.ones(d) / np.sqrt(d)
        h = np.array([(-1.0) ** i for i in range(d)]) / np.sqrt(d)
        b = h + 0.45 * d * tol.op * a
        b /= np.linalg.norm(b)
        rest = np.linalg.qr(np.column_stack([a, h, np.eye(d)[:, :d - 2]]))[0][:, 2:]
        r1, r2 = (rest[:, k] @ rest[:, k].T for k in (slice(d // 2), slice(d // 2, None)))
        last = make_resolution([validate_projection(np.outer(a, a) + r1, tol),
                                validate_projection(np.outer(b, b) + r2, tol)], tol)
        split = make_resolution([validate_projection(r1, tol),
                                 validate_projection(np.eye(d) - r1, tol)], tol)
        psi = (a + b) / np.linalg.norm(a + b)
        rho = validate_density(np.outer(psi, psi), tol)
        complementary = make_resolution([validate_projection(np.eye(d) - r1, tol),
                                         validate_projection(r1, tol)], tol)
        assert FamilyAnalysis(HistoryFamily((complementary,)), tol).block_slots == 0
        unmeasured = HistoryFamily((ResolutionOfIdentity(complementary.events),))
        assert FamilyAnalysis(unmeasured, tol).block_slots == 1
        assert last.overlap == pytest.approx(max(
            np.abs(p.matrix @ q.matrix).max()
            for p, q in itertools.permutations(last.events, 2)), rel=1e-6)
        for family in (HistoryFamily((last,)), HistoryFamily((split, last))):
            analysis = FamilyAnalysis(family, tol)
            assert analysis.block_slots == family.length
            for name, reference in (("weak", reference_weak),
                                    ("medium", reference_medium)):
                [got], want = analysis.reports(name, [rho]), reference(family, rho, tol)
                assert_same_report(got, want)
                assert got.worst_pair == want.worst_pair
                assert not got.verdict and got.worst_residual > 0.2 * d * tol.op


def test_C1_without_commutative_histories_reads_no_chains(monkeypatch):
    family = random_family(4, 3, np.random.default_rng(21), TOL)
    rho = random_density(4, np.random.default_rng(22), tol=TOL)
    assert not FamilyAnalysis(family, TOL).commutative.any()

    def no_chains(stacks):
        raise AssertionError("C1 read the chain stack")

    monkeypatch.setattr(consistency, "chain_stack", no_chains)
    report = check_C1_family(family, rho, TOL)
    assert (report.verdict, report.worst_residual, report.worst_pair,
            report.pair_count) == (True, 0.0, None, 0)


def test_reports_carry_python_types():
    """Verdicts are ``bool``, residuals ``float``, counts ``int``: callers
    test ``verdict is True`` and serialize the report."""
    rng = np.random.default_rng(13)
    decohering = decohering_family(3, [(1, 2), (1, 1, 1)], rng)
    inst = build_example1(2.0, np.pi)
    cases = [decohering, (inst.family, inst.rho1), (inst.family, inst.rho),
             (classical_family(2), validate_density(np.diag([0.4, 0.6])))]
    checkers = (check_weak_decoherence, check_medium_decoherence,
                check_linear_positivity, check_sum_rule, check_C1_family,
                check_ordered_consistency)
    seen = set()
    for family, rho in cases:
        for check in checkers:
            try:
                report = check(family, rho, tol=TOL)
            except PreconditionFailed:
                continue
            seen.add((check, report.verdict))
            assert type(report.verdict) is bool, report
            assert type(report.worst_residual) is float, report
            assert type(report.pair_count) is int, report
            assert report.worst_pair is None or all(
                type(label) is str for label in report.worst_pair), report
    assert {check for check, _ in seen} == set(checkers)
    assert {verdict for _, verdict in seen} == {True, False}


@pytest.mark.parametrize("case", range(len(equivalence_cases())))
def test_one_analysis_matches_pairwise_reference_on_many_states(case):
    """Parts cached on the first state must not leak into the next."""
    family, rho = equivalence_cases()[case]
    rng = np.random.default_rng(100 + case)
    other = random_density(family.dim, rng, tol=TOL)
    states = [rho, other, validate_density(
        0.3 * rho.matrix + 0.7 * other.matrix, TOL)]
    analysis = FamilyAnalysis(family, TOL)
    hs = elementary_histories(family)
    small = family_member_count(family) <= 64
    for state in states:
        references = [("weak", reference_weak), ("medium", reference_medium),
                      ("linear-positive", reference_linear_positivity),
                      ("C1-compat", reference_C1)]
        for name, reference in references + [("sum-rule", reference_sum_rule)] * small:
            assert_same_report(analysis.reports(name, [state])[0],
                               reference(family, state))
        probs = analysis.probabilities(state)[0]
        d = block_matrix(analysis, state)
        for i, h in enumerate(hs):
            assert probs[i] == pytest.approx(probability(h, state), abs=1e-12)
        for i, j in itertools.combinations_with_replacement(range(len(hs)), 2):
            assert d[i, j] == pytest.approx(
                decoherence_functional(hs[i], hs[j], state), abs=1e-12)


def one_shape_families(dim, sizes, rng):
    """Four random families with ``sizes[k]`` block ranks in slot k, and a
    fifth of the same shape whose first slot is the identity and two zero
    events, which are both equal and orthogonal."""
    families = [HistoryFamily(tuple(random_resolution(dim, s, rng, TOL)
                                    for s in sizes)) for _ in range(4)]
    zero = zero_projection(dim, TOL)
    first = make_resolution([identity_projection(dim, TOL), zero, zero], TOL)
    return families + [HistoryFamily((first, *(
        random_resolution(dim, s, rng, TOL) for s in sizes[1:])))]


@pytest.mark.parametrize("dim, sizes", [
    (3, [(1, 1, 1), (1, 2)]), (4, [(1, 1, 2), (2, 2)]),
    (4, [(1, 1, 2), (1, 3), (2, 2)])])
def test_family_axis_matches_per_family_analyses(dim, sizes):
    """F families of one shape in one analysis decide, report for report
    and so bit for bit, what F one-family analyses decide against one
    state; F families against F states raise.  Masks stay per family: the
    family with two zero events has summable pairs the others lack."""
    rng = np.random.default_rng(10 * dim + len(sizes))
    families = one_shape_families(dim, sizes, rng)
    states = [random_density(dim, rng, rank=r, tol=TOL)
              for r in (1, dim, 2, dim, 1)]
    analysis = FamilyAnalysis(families, TOL)
    alone = [FamilyAnalysis(f, TOL) for f in families]
    for name in ("block_mask", "commutative"):
        for k, one in enumerate(alone):
            assert np.array_equal(getattr(analysis, name)[k],
                                  getattr(one, name)[0]), (name, k)
    assert not np.array_equal(analysis.block_mask[-1],
                              analysis.block_mask[0])
    for name in ("weak", "medium", "linear-positive", "C1-compat", "sum-rule"):
        assert analysis.reports(name, states[:1]) == [
            a.reports(name, states[:1])[0] for a in alone], name
        with pytest.raises(DimensionMismatch):
            analysis.reports(name, states)
    with pytest.raises(DimensionMismatch):
        analysis.reports("weak", states[:2])
    with pytest.raises(DimensionMismatch):
        FamilyAnalysis([families[0], classical_family(dim)], TOL)


def test_labels_are_the_history_labels_in_order():
    """Each label read alone is the label of its elementary history or
    member, in order."""
    for family, _ in equivalence_cases():
        analysis = FamilyAnalysis(family, TOL)
        parts = [(analysis, elementary_histories(family))]
        if family_member_count(family) <= 64:
            parts.append((analysis.members, family_members(family, TOL)))
        for part, histories in parts:
            assert [part.label(i) for i in range(len(histories))] == [
                h.label for h in histories]


# A first slot at the op-tolerance edge: each event and each product of
# two events is within ``TOL.op`` of the ideal, so ``make_resolution``
# accepts it, but sums of two events can miss the tolerance.
EDGE = 0.9 * TOL.op


def edge_family(*first):
    """The diagonal first slot ``first`` times ``[diag(1,0,0), diag(0,1,1)]``."""
    return HistoryFamily((
        make_resolution([validate_projection(np.diag(d)) for d in first], TOL),
        make_resolution([diag_proj(1, 0, 0), diag_proj(0, 1, 1)], TOL)))


def test_sum_rule_decides_members_whose_sums_miss_the_op_tolerance():
    """The member sum of the first two events is idempotent only to twice
    ``EDGE``; the members are trusted, not validated again."""
    x = EDGE
    family = edge_family((1 + x, 0, 0), (x, 1, 1), (-x, 0, 0), (-x, 0, 0))
    first = family.resolutions[0].events
    with pytest.raises(NotIdempotent):
        validate_projection(first[0].matrix + first[1].matrix)
    report = check_sum_rule(family, validate_density(np.diag([0.5, 0.3, 0.2])), TOL)
    assert report.verdict and report.pair_count == 213


@pytest.mark.parametrize("count", [1, 5, 12])
def test_sum_rule_merges_a_familys_pairs_once_for_all_states(count, monkeypatch):
    """A family's pairs merge into their union members once for any number
    of states, each state's report is its one-state report, bit for bit,
    and the sum rule forms no chain product of its own: it reads the
    probabilities of the members' and the elementary histories' chain
    stacks, and no entry of ``D``."""
    inst = build_example1(1.0, 0.4)
    rng = np.random.default_rng(count)
    states = [random_density(3, rng, tol=TOL) for _ in range(count)]
    analysis = FamilyAnalysis(inst.family, TOL)
    alone = [analysis.reports("sum-rule", [rho])[0] for rho in states]
    stacks = []
    probabilities = consistency._probabilities
    monkeypatch.setattr(consistency, "_probabilities", lambda chains, rhos: (
        stacks.append(chains) or probabilities(chains, rhos)))

    def unread(*args):
        raise AssertionError("the sum rule reads D")
    monkeypatch.setattr(consistency, "_final_blocks", unread)
    monkeypatch.setattr(FamilyAnalysis, "_pair_entries", unread)
    got = analysis.reports("sum-rule", states)
    assert [(r.worst_residual.hex(), r) for r in got] == [
        (r.worst_residual.hex(), r) for r in alone]
    assert [id(c) for c in stacks] == [id(analysis.members.chains),
                                       id(analysis.chains)]


@pytest.mark.parametrize("case", ["example1", "random", "edge", "zero"])
def test_union_member_is_the_pairs_sum_at_the_merge_slot(case):
    """For every summable member pair, the union member has the first
    member's events off the merge slot and the pair's sum on it.  Two
    subsets that share only rank-0 events are orthogonal by the tables, so
    such a pair merges; the union counts a shared event once and the sum
    twice, and they differ by that event, within ``TOL.op``."""
    family = {
        "example1": lambda: build_example1(1.0, 0.4).family,
        "random": lambda: random_family(3, 3, np.random.default_rng(8), TOL,
                                        max_blocks=2),
        "edge": lambda: edge_family((1, 1, 1), (EDGE, 0, 0), (-EDGE, 0, 0)),
        "zero": lambda: with_zero_events(
            random_family(3, 2, np.random.default_rng(9), TOL, max_blocks=2),
            slot=1, zeros=2),
    }[case]()
    m = FamilyAnalysis(family, TOL).members
    slots = np.triu(m.summable_slots(), 1)
    unions = m.unions(slots)
    shared = 0
    for a, b in zip(*np.nonzero(slots[0])):
        k = slots[0, a, b] - 1
        u = unions[0, a, b]
        for j, events in enumerate(m.stacks):
            ea, eb, eu = (events[0, m.index[i, j]] for i in (a, b, u))
            if j != k:
                assert m.index[u, j] == m.index[a, j]
            else:
                assert np.abs(eu - ea - eb).max() <= TOL.op
                sa, sb = (set(m.options[j][m.index[i, j]]) for i in (a, b))
                shared += bool(sa & sb)
    assert len(np.nonzero(slots[0])[0]) > 0
    assert (shared > 0) == (case in ("edge", "zero"))


def test_sum_rule_of_a_family_without_summable_pairs_holds():
    """One event per slot: no member pair is summable, so only the
    probability sum is checked."""
    whole = make_resolution([identity_projection(2)], TOL)
    rho = validate_density(np.diag([0.5, 0.5]))
    analysis = FamilyAnalysis(HistoryFamily((whole, whole)), TOL)
    reports = analysis.reports("sum-rule", [rho, rho])
    assert [(r.verdict, r.pair_count, r.worst_pair) for r in reports] == [
        (True, 0, None)] * 2


def test_sum_rule_defect_replaces_only_a_smaller_pair_residual():
    """One slot of three diagonal events and ``rho = diag(1/2, 1/4, 1/4 +
    2**-40)``: every member probability is exact, so every pair residual is
    0, and the probability sum's defect ``2**-40`` is reported with no pair.
    A pair residual equal to the defect keeps its pair: raising the member
    ``1+2`` by ``2**-40`` ties the first pair, ``(1)`` and ``(2)``."""
    events = [validate_projection(np.diag(np.eye(3)[k]), TOL) for k in range(3)]
    family = HistoryFamily((make_resolution(events, TOL),))
    rho = validate_density(np.diag([0.5, 0.25, 0.25 + 2.0 ** -40]), TOL)
    [report] = FamilyAnalysis(family, TOL).reports("sum-rule", [rho])
    assert (report.verdict, report.worst_pair, report.worst_residual,
            report.pair_count) == (True, None, 2.0 ** -40, 6)
    analysis = FamilyAnalysis(family, TOL)
    members = analysis.members
    probabilities = members.probabilities
    raised = 2.0 ** -40 * np.array([members.label(i) == "(1+2)" for i in range(7)])
    members.probabilities = lambda *rhos: probabilities(*rhos) + raised
    [report] = analysis.reports("sum-rule", [rho])
    assert (report.verdict, report.worst_pair, report.worst_residual,
            report.pair_count) == (True, ("(1)", "(2)"), 2.0 ** -40, 6)


def test_zero_events_relate_by_rank_at_the_op_tolerance():
    """``diag(x,0,0)`` and ``diag(-x,0,0)`` have rank 0, so the tables make
    them equal, though their difference 2x is above ``TOL.op``: ``(2,1)``
    and ``(3,2)`` are summable at slot 2, where pairwise :func:`summable`
    sees two differing slots.  The coarse mirror sums merge that pair at
    the slot the tables name."""
    x = EDGE
    family = edge_family((1, 1, 1), (x, 0, 0), (-x, 0, 0))
    analysis = FamilyAnalysis(family, TOL)
    labels = [analysis.label(i) for i in range(6)]
    a, b, c = (labels.index(h) for h in ("(2,1)", "(3,2)", "(3,1)"))
    hs = elementary_histories(family)
    assert analysis.summable_slots()[0, a, b] == 2
    assert summable(hs[a], hs[b], TOL) is None
    # (2,1) and (3,1) share their final event: prefixes 2 and 3 of its block
    assert not analysis.block_mask[0, 1, 2] and summable(hs[a], hs[c], TOL) == 1
    rho = validate_density(np.diag([0.5, 0.3, 0.2]))
    coarse = check_self_decoherence(family, rho, None, TOL).coarse_sum_mirrors
    assert coarse["(2,1)+(3,2)"] is True
    assert "(2,1)+(3,1)" not in coarse


def test_coarse_sum_mirrors_are_decided_where_sums_miss_the_op_tolerance():
    """The family of the sum-rule edge test self-decoheres, and its coarse
    mirror sums are trusted sums of certified matrices: merging ``(1,1)``
    and ``(2,1)`` gives ``diag(1+2x,1,1)``, idempotent only to twice
    ``EDGE``, and still gets a verdict."""
    x = EDGE
    family = edge_family((1 + x, 0, 0), (x, 1, 1), (-x, 0, 0), (-x, 0, 0))
    report = check_self_decoherence(
        family, validate_density(np.diag([0.5, 0.3, 0.2])), None, TOL)
    assert report.verdict
    coarse = report.coarse_sum_mirrors
    assert len(coarse) == 14 and all(v is True for v in coarse.values())
    assert "(1,1)+(2,1)" in coarse


@pytest.mark.parametrize("slots", [1, 2, 3, 4])
def test_one_history_routines_equal_an_explicit_product_and_trace(slots):
    """``chain_operator``, ``probability`` and ``decoherence_functional``
    keep, bit for bit, the arithmetic of a product loop, of the ``einsum``
    diagonal ``sum(conj(C rho) * C)`` and of ``np.trace``; the chain is also
    :func:`chain_stack`'s history, bit for bit."""
    rng = np.random.default_rng(40 + slots)
    for dim in (2, 3, 5, 8, 16):
        family = random_family(dim, slots, rng, TOL)
        rho = random_density(dim, rng, tol=TOL)
        hs = elementary_histories(family)
        chains = []
        for h in hs:
            c = h.events[0].matrix
            for e in h.events[1:]:
                c = e.matrix @ c
            chains.append(c)
            assert chain_operator(h).tobytes() == c.tobytes()
            stack = chain_stack([e.matrix[None, None] for e in h.events])
            assert stack[0, 0].tobytes() == c.tobytes()
            p = float(np.einsum("ab,ab->", (c @ rho.matrix).conj(), c).real)
            assert probability(h, rho).hex() == p.hex()
        some = list(zip(hs, chains))[:3]
        for (h1, c1), (h2, c2) in itertools.product(some, repeat=2):
            want = complex(np.trace(c1 @ rho.matrix @ c2.conj().T))
            got = decoherence_functional(h1, h2, rho)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(),
                                                         want.imag.hex())


def change_of_basis(family, rho, u):
    """The family and state in the basis given by the unitary ``u``."""
    def turn(m):
        return u @ m @ u.conj().T
    return (HistoryFamily(tuple(
        make_resolution([validate_projection(turn(e.matrix), TOL)
                         for e in r.events], TOL)
        for r in family.resolutions)),
        validate_density(turn(rho.matrix), TOL))


def test_notions_are_invariant_under_a_change_of_basis():
    rng = np.random.default_rng(31)
    cases = equivalence_cases()[:9] + [(inst.family, inst.rho1) for inst in (
        build_example1(1.3), build_example1(2.2, 0.4))]
    notions = ("weak", "medium", "linear-positive", "C1-compat")
    verdicts = set()
    for family, rho in cases:
        turned = change_of_basis(family, rho, random_unitary(family.dim, rng))
        before, after = FamilyAnalysis(family, TOL), FamilyAnalysis(turned[0], TOL)
        for notion in notions:
            [want] = before.reports(notion, [rho])
            [got] = after.reports(notion, [turned[1]])
            assert_same_report(got, want)
            verdicts.add(want.verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.0, 2.9])
def test_weak_verdict_flips_at_the_closed_form_residual(theta):
    inst = build_example1(theta)
    residual = abs(example1_expected(theta).weak_residual_rho1)
    for scale, verdict in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
        tol = Tolerances(prob=residual * scale)
        assert check_weak_decoherence(inst.family, inst.rho1, tol).verdict \
            is verdict, scale
