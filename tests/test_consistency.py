"""Notion checkers: decoherence functionals, sum rules, retrodiction."""

import itertools

import numpy as np
import pytest

from qhistories import consistency
from qhistories.consistency import (
    ConsistencyReport,
    check_C1_compatibility,
    check_C1_family,
    check_linear_positivity,
    check_medium_decoherence,
    check_ordered_consistency,
    check_sum_rule,
    check_weak_decoherence,
    conditional_probability,
    contrary_inference_search,
    decoherence_functional,
    probability,
)
from qhistories.errors import (
    BadParameters,
    FamilyTooLarge,
    NotCommuting,
    PreconditionFailed,
    ZeroConditioningEvent,
)
from qhistories.histories import (
    History,
    HistoryFamily,
    alternative,
    chain_operator,
    chain_stack,
    elementary_histories,
    event_stacks,
    family_member_count,
    family_members,
    history_leq,
    history_sum,
    is_commutative,
    make_resolution,
    summable,
)
from qhistories.matcore import (
    DEFAULT_TOL,
    projector_onto,
    validate_density,
    validate_projection,
    zero_projection,
)
from qhistories.sampling import (
    random_density,
    random_family,
    random_resolution,
    random_unitary,
)
from qhistories.scenarios import (
    build_example1,
    example1_decoherence_expected,
    linear_positivity_expected,
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


def test_contrary_search_parameter_guards():
    with pytest.raises(BadParameters):
        contrary_inference_search(1, 10)
    with pytest.raises(BadParameters):
        contrary_inference_search(3, -1)


def test_contrary_search_returns_nothing_in_two_dimensions():
    hits = contrary_inference_search(2, 40, seed=0, tol=TOL)
    assert hits == []


def test_contrary_search_finds_certain_pairs_in_three_dimensions():
    """The structured trials hit; each hit breaks the additive bound."""
    hits = contrary_inference_search(3, 6, seed=0, tol=TOL)
    assert len(hits) >= 3
    for hit in hits:
        assert hit.weak_1.verdict and hit.weak_2.verdict
        assert hit.conditional_1 >= 1.0 - TOL.prob
        assert hit.conditional_2 >= 1.0 - TOL.prob
        rho = validate_density(np.outer(hit.psi, hit.psi.conj()), TOL)
        p1 = probability(History((hit.e1, hit.e2)), rho)
        p2 = probability(History((hit.f1, hit.e2)), rho)
        # both retrodictions certain while e1 and f1 are orthogonal:
        # p1 + p2 = 2 p(E2), impossible for summable alternatives
        assert p1 + p2 > hit.p_e2 + 0.1
        assert hit.p_e2 == pytest.approx(1.0 / 9.0, abs=1e-9)


# Pairwise reference: the checkers' loops over pairs of histories before
# they became reductions over the decoherence-functional matrix and the
# slot relation tables.  The kernel must reproduce them.

def _label(h):
    return h.label if h.label is not None else "?"


def reference_weak(family, rho):
    elems = elementary_histories(family)
    worst, worst_pair, count = 0.0, None, 0
    for h1, h2 in itertools.combinations(elems, 2):
        if summable(h1, h2, TOL) is None:
            continue
        count += 1
        r = abs(decoherence_functional(h1, h2, rho).real)
        if r > worst:
            worst, worst_pair = r, (_label(h1), _label(h2))
    return ConsistencyReport("weak", worst <= TOL.prob, worst_pair, worst, count)


def reference_medium(family, rho):
    elems = elementary_histories(family)
    worst, worst_pair, count = 0.0, None, 0
    for h1, h2 in itertools.combinations(elems, 2):
        if not alternative(h1, h2, TOL):
            continue
        count += 1
        r = abs(decoherence_functional(h1, h2, rho))
        if r > worst:
            worst, worst_pair = r, (_label(h1), _label(h2))
    return ConsistencyReport("medium", worst <= TOL.prob, worst_pair, worst, count)


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


def test_ordered_against_reference_with_mismatched_context():
    family, rho = decohering_family(3, [(1, 2), (1, 1, 1)],
                                    np.random.default_rng(8))
    single = HistoryFamily(family.resolutions[:1])
    got = check_ordered_consistency(family, rho, (single, family), TOL)
    assert_same_report(got, reference_ordered(family, rho, (single, family)))


def decoherence_matrix(family, rho):
    chains = chain_stack(event_stacks(family))
    return np.vstack([block for _, block in
                      consistency._decoherence_blocks(chains, rho)])


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
    # five rows of 64 per block: 13 blocks, the last one partial
    monkeypatch.setattr(consistency, "_BLOCK_BYTES", 16 * n * 5)
    blocks = list(consistency._decoherence_blocks(
        chain_stack(event_stacks(cases[0][0])), cases[0][1]))
    assert len(blocks) == 13 and blocks[-1][1].shape == (4, n)
    for (f, rho), want, matrix in zip(cases, whole, matrices):
        assert [check(f, rho, TOL) for check in checks] == want
        assert np.array_equal(decoherence_matrix(f, rho), matrix)


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
