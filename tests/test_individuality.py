"""Mixture-versus-component behaviour of the consistency properties."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

from qhistories import consistency, individuality, matcore
from qhistories.consistency import FamilyAnalysis
from qhistories.errors import (
    BadParameters,
    DimensionMismatch,
    LambdaOutOfRange,
    PreconditionFailed,
)
from qhistories.individuality import (
    DEFAULT_LAMBDA_GRID,
    IndividualityWitness,
    PropertyPredicate,
    condition_C_probe,
    individuality_violation_search,
    linear_positivity_property,
    medium_decoherence_property,
    mirror_component_decomposition,
    mixture,
    self_decoherence_property,
    weak_decoherence_property,
)
from qhistories.histories import (
    History,
    HistoryFamily,
    ResolutionOfIdentity,
    elementary_histories,
    make_resolution,
)
from qhistories.matcore import (
    DEFAULT_TOL,
    identity_projection,
    max_norm,
    validate_density,
    validate_projection,
)
from qhistories.mirror import least_mirror
from qhistories.scenarios import build_example1, build_example2

from random_instances import pointer_model, random_density, random_family, random_state

TOL = DEFAULT_TOL


def test_mixture_is_the_affine_combination():
    rho1 = validate_density(np.diag([1.0, 0.0]))
    rho2 = validate_density(np.diag([0.0, 1.0]))
    rho = mixture(rho1, rho2, 0.3, TOL)
    assert max_norm(rho.matrix - np.diag([0.3, 0.7])) <= 1e-15


def test_mixture_guards():
    rho1 = validate_density(np.diag([1.0, 0.0]))
    rho2 = validate_density(np.diag([0.0, 1.0]))
    for lam in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(LambdaOutOfRange):
            mixture(rho1, rho2, lam, TOL)
    rho3 = validate_density(np.eye(3) / 3.0)
    with pytest.raises(DimensionMismatch):
        mixture(rho1, rho3, 0.5, TOL)


def test_default_grid_is_the_nine_tenths():
    assert DEFAULT_LAMBDA_GRID == (0.1, 0.2, 0.3, 0.4, 0.5,
                                   0.6, 0.7, 0.8, 0.9)


def test_violation_requires_both_components_to_fail():
    w = IndividualityWitness("weak", 0.5, True, True, False)
    assert not w.is_violation
    w = IndividualityWitness("weak", 0.5, True, False, False)
    assert w.is_violation
    w = IndividualityWitness("weak", 0.5, False, False, False)
    assert not w.is_violation


def test_weak_witness_sits_at_the_equal_mixture():
    inst = build_example1(np.pi / 3)
    prop = weak_decoherence_property(inst.family, TOL)
    witnesses = individuality_violation_search(prop, inst.rho1, inst.rho2,
                                               DEFAULT_LAMBDA_GRID, TOL)
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.lam == 0.5
    assert w.holds_on_mixture
    assert not w.holds_on_rho1 and not w.holds_on_rho2


def test_medium_witness_sits_at_the_equal_mixture():
    inst = build_example1(np.pi / 3)
    prop = medium_decoherence_property(inst.family, TOL)
    witnesses = individuality_violation_search(prop, inst.rho1, inst.rho2,
                                               DEFAULT_LAMBDA_GRID, TOL)
    assert [w.lam for w in witnesses] == [0.5]


def test_linear_positivity_witness_in_the_upper_theta_range():
    """Both branches fail through different channels, the mixture passes."""
    inst = build_example1(2.0, np.pi)
    prop = linear_positivity_property(inst.family, TOL)
    witnesses = individuality_violation_search(prop, inst.rho1, inst.rho2,
                                               DEFAULT_LAMBDA_GRID, TOL)
    lams = [w.lam for w in witnesses]
    assert 0.5 in lams
    for w in witnesses:
        assert not w.holds_on_rho1 and not w.holds_on_rho2


def test_self_decoherence_yields_no_witness_on_pointer_models():
    rng = np.random.default_rng(23)
    for trial in range(10):
        spatial = int(rng.integers(2, 4))
        m = pointer_model(spatial, rng, TOL)
        prop = self_decoherence_property(m.family, TOL,
                                         provided=m.provided_mirrors)
        witnesses = individuality_violation_search(prop, m.rho1, m.rho2,
                                                   (0.3, 0.5, 0.7), TOL)
        assert witnesses == [], trial


def test_self_decoherence_property_holds_on_every_pointer_state():
    m = build_example2()
    prop = self_decoherence_property(m.family, TOL)
    assert prop.holds(m.rho)
    assert prop.holds(m.rho1)
    assert prop.holds(m.rho2)


def test_mixture_self_decoherence_passes_to_every_component():
    """Without provided mirrors: no witness on pointer models or random
    2-slot families, and a self-decohering mixture has self-decohering
    components."""
    rng = np.random.default_rng(59)
    cases = []
    for trial in range(6):
        m = pointer_model(int(rng.integers(2, 4)), rng, TOL)
        cases.append((m.family, m.rho1, m.rho2))
    for d in (3, 4, 5):
        family = random_family(d, 2, rng, TOL)
        rho1, rho2 = (random_density(d, rng, tol=TOL) for _ in range(2))
        cases.append((family, rho1, rho2))
    mixtures_holding = 0
    for family, rho1, rho2 in cases:
        prop = self_decoherence_property(family, TOL)
        assert individuality_violation_search(prop, rho1, rho2,
                                              DEFAULT_LAMBDA_GRID, TOL) == []
        for lam in (0.25, 0.5):
            if prop.holds(mixture(rho1, rho2, lam, TOL)):
                mixtures_holding += 1
                assert prop.holds(rho1) and prop.holds(rho2)
    assert mixtures_holding >= 12


def test_component_decomposition_vanishes_on_pointer_models():
    rng = np.random.default_rng(29)
    for trial in range(25):
        m = pointer_model(int(rng.integers(2, 5)), rng, TOL)
        lam = float(rng.uniform(0.05, 0.95))
        report = mirror_component_decomposition(m.t, m.e1, m.rho1, m.rho2,
                                                lam, TOL)
        assert report.passed, trial
        assert report.nonnegative
        assert report.max_abs <= 1e-10


def test_component_decomposition_requires_the_mixture_identities():
    inst = build_example1(1.0)
    eye = identity_projection(inst.rho1.dim)
    with pytest.raises(PreconditionFailed):
        mirror_component_decomposition(eye, inst.e1, inst.rho1, inst.rho2,
                                       0.5, TOL)
    with pytest.raises(PreconditionFailed):
        mirror_component_decomposition(inst.e2, inst.e1, inst.rho1,
                                       inst.rho2, 0.5, TOL)


def test_condition_probe_finds_all_three_on_the_pointer_model():
    m = build_example2()
    ket0 = np.array([1.0, 0.0])
    ket1 = np.array([0.0, 1.0])
    b1 = np.kron(m.psi1, ket1)
    b2 = np.kron(m.psi2, ket0)
    probe = condition_C_probe(m.h1, b1, b2, TOL)
    assert probe.found_1 is not None and probe.found_1.verified
    assert probe.found_2 is not None and probe.found_2.verified
    assert probe.found_sum is not None and probe.found_sum.verified
    assert not probe.flagged


def test_condition_probe_on_branches_without_mirrors():
    """Here the superposition has a mirror while the branches have none;
    the flag looks for the opposite pattern, so it stays down."""
    inst = build_example1(np.pi / 3)
    probe = condition_C_probe(inst.h1, inst.psi1, inst.psi2, TOL)
    assert probe.found_1 is None
    assert probe.found_2 is None
    assert probe.found_sum is not None
    assert not probe.flagged


def test_condition_probe_flag_is_a_proof():
    """Both branches have mirrors, the superposition has none: e2 links
    the first branch to the second, so the least candidate for the sum
    is the identity, which fails the trace condition by half."""
    e1 = validate_projection(np.diag([1.0, 0.0]))
    e2 = validate_projection(np.full((2, 2), 0.5))
    h = History((e1, e2), "(1,1)")
    probe = condition_C_probe(h, [1.0, 0.0], [0.0, 1.0], TOL)
    assert probe.found_1 is not None and probe.found_2 is not None
    assert probe.found_sum is None
    assert probe.flagged
    obstruction = least_mirror(h, validate_density(np.full((2, 2), 0.5)), TOL)
    assert obstruction.mirror.rank == 2
    assert obstruction.residual_m2[0] == pytest.approx(0.5, abs=1e-12)


def test_condition_probe_rejects_degenerate_vectors():
    inst = build_example1(1.0)
    with pytest.raises(BadParameters):
        condition_C_probe(inst.h1, np.zeros(3), inst.psi2, TOL)
    with pytest.raises(BadParameters):
        condition_C_probe(inst.h1, inst.psi1, 2.0 * inst.psi1, TOL)
    with pytest.raises(BadParameters):
        condition_C_probe(inst.h1, inst.psi1, -inst.psi1, TOL)


# The stacked evaluator against the one-state predicate.

FACTORIES = (weak_decoherence_property, medium_decoherence_property,
             linear_positivity_property, self_decoherence_property)


def _grid_states(rho1, rho2):
    return [rho1, rho2, *(mixture(rho1, rho2, lam, TOL)
                          for lam in DEFAULT_LAMBDA_GRID)]


def _equivalence_cases():
    """(family, provided mirrors, states) with the components first."""
    rng = np.random.default_rng(61)
    # pi/3 at the default phase: the weak and medium witnesses at lam = 1/2
    # hold only within about 4e-9 of it
    for inst in (build_example1(np.pi / 3), *(
            build_example1(theta, float(rng.uniform(0.0, np.pi)))
            for theta in (np.pi / 2, 1.0, 2.0))):
        yield inst.family, None, _grid_states(inst.rho1, inst.rho2)
    for d in (3, 4, 5, 6):
        family = random_family(d, 2, rng, TOL)
        for rank in (None, 1, d - 1):  # mixed and rank-deficient
            rho1, rho2 = (random_density(d, rng, rank=rank, tol=TOL)
                          for _ in range(2))
            yield family, None, _grid_states(rho1, rho2)
    for spatial in (2, 3):
        m = pointer_model(spatial, rng, TOL)
        for provided in (None, m.provided_mirrors):
            yield m.family, provided, _grid_states(m.rho1, m.rho2)
    # an eigenvalue just above tol.eig widens the support the least
    # mirror must close over
    m = pointer_model(2, rng, TOL)
    stray = random_state(m.family.dim, rng)
    weights = np.array([1.0 - 2.0 * TOL.eig, 2.0 * TOL.eig])
    edge = validate_density(weights[0] * m.rho.matrix
                            + weights[1] * np.outer(stray, stray.conj()), TOL)
    yield m.family, None, [m.rho, edge, m.rho1]
    yield m.family, m.provided_mirrors, [edge, m.rho]


def test_stacked_verdicts_equal_one_state_verdicts():
    verdicts = {factory.__name__: set() for factory in FACTORIES}
    for family, provided, states in _equivalence_cases():
        for factory in FACTORIES:
            prop = (factory(family, TOL, provided)
                    if factory is self_decoherence_property
                    else factory(family, TOL))
            got = prop.evaluator(states)
            assert list(got) == [prop.holds(rho) for rho in states], prop.name
            verdicts[factory.__name__].update(got)
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


def test_stacked_reports_match_one_state_reports():
    """Residuals agree with the one-state reduction to rounding."""
    for family, _, states in _equivalence_cases():
        analysis = FamilyAnalysis(family, TOL)
        for name in ("weak", "medium", "linear-positive", "C1-compat", "sum-rule"):
            for got, rho in zip(analysis.reports(name, states), states):
                [want] = analysis.reports(name, [rho])
                assert got.verdict == want.verdict
                assert got.pair_count == want.pair_count
                assert got.worst_residual == pytest.approx(want.worst_residual,
                                                           abs=1e-12)


def _one_call_witnesses(prop, rho1, rho2, lams):
    """The witnesses read off one evaluator call on both components and
    every mixture."""
    on_1, on_2, *on_mix = prop.evaluator(
        [rho1, rho2, *(mixture(rho1, rho2, lam, TOL) for lam in lams)])
    witnesses = (IndividualityWitness(prop.name, lam, on, on_1, on_2)
                 for lam, on in zip(lams, on_mix))
    return [w for w in witnesses if w.is_violation]


def _as_tuples(witnesses):
    return [astuple(w) for w in witnesses]


def _within_first_event(family):
    """The normalized first event of the first slot, as a state: on a
    2-slot family, D vanishes off its diagonal."""
    event = family.resolutions[0].events[0].matrix
    return validate_density(event / np.trace(event).real, TOL)


def test_search_asks_for_the_mixtures_only_when_no_component_holds():
    """``rho1`` is decided first and alone; the mixtures are asked for, in
    a second call together with ``rho2``, only when ``rho1`` lacks the
    property."""
    inst = build_example1(np.pi / 3)
    m = build_example2()
    rng = np.random.default_rng(71)
    generic = random_family(4, 2, rng, TOL)
    within = _within_first_event(generic)
    rho = random_density(4, rng, tol=TOL)
    cases = [(inst.family, inst.rho1, inst.rho2), (m.family, m.rho1, m.rho2),
             (generic, within, rho), (generic, rho, within)]
    seen = set()
    for (family, rho1, rho2), factory in itertools.product(cases, FACTORIES):
        prop = factory(family, TOL)
        calls = []
        counted = PropertyPredicate(prop.name, lambda rhos, prop=prop: (
            calls.append(len(rhos)) or prop.evaluator(rhos)))
        got = individuality_violation_search(counted, rho1, rho2,
                                             DEFAULT_LAMBDA_GRID, TOL)
        holds = (prop.holds(rho1), prop.holds(rho2))
        assert calls == ([1] if holds[0] else [1, len(DEFAULT_LAMBDA_GRID) + 1]), (
            prop.name, holds)
        assert _as_tuples(got) == _as_tuples(
            _one_call_witnesses(prop, rho1, rho2, DEFAULT_LAMBDA_GRID))
        seen.add(holds)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_search_builds_no_mixture_when_rho1_holds(monkeypatch):
    """No mixture is built or validated once ``rho1`` has the property,
    nor by a linear notion, which decides the mixtures from the
    components' entries; otherwise the L mixtures are validated in one
    stacked call."""
    validated = []
    real = individuality.validate_densities
    monkeypatch.setattr(individuality, "validate_densities", lambda ms, tol: (
        validated.append(len(ms)) or real(ms, tol)))
    inst = build_example1(np.pi / 3)
    m = build_example2()
    weak = weak_decoherence_property(inst.family, TOL)
    for prop, rho1, rho2, holds, want in (
            (self_decoherence_property(m.family, TOL), m.rho1, m.rho2, True, []),
            (weak, inst.rho1, inst.rho2, False, []),
            (_state_route(weak), inst.rho1, inst.rho2, False,
             [len(DEFAULT_LAMBDA_GRID)])):
        assert prop.holds(rho1) == holds, prop.name
        validated.clear()
        individuality_violation_search(prop, rho1, rho2, DEFAULT_LAMBDA_GRID, TOL)
        assert validated == want, prop.name


def _search_cases():
    """(family, provided mirrors, rho1, rho2, weights)."""
    rng = np.random.default_rng(67)
    edges = (0.01, 0.5, 0.99)
    for theta, phase in ((np.pi / 3, 0.0), (2.0, np.pi), (1.0, 0.5)):
        inst = build_example1(theta, phase)
        for lams in (DEFAULT_LAMBDA_GRID, edges):
            yield inst.family, None, inst.rho1, inst.rho2, lams
    for d in (3, 4, 5, 6):
        family = random_family(d, 2, rng, TOL)
        within = _within_first_event(family)
        for rank in (1, None):  # pure and mixed
            rho1, rho2 = (random_density(d, rng, rank=rank, tol=TOL)
                          for _ in range(2))
            for pair in ((rho1, rho2), (within, rho2), (rho1, within)):
                yield family, None, *pair, DEFAULT_LAMBDA_GRID
        yield family, None, rho1, rho2, edges
    for spatial in (2, 3):
        m = pointer_model(spatial, rng, TOL)
        for provided in (None, m.provided_mirrors):
            for pair in ((m.rho1, m.rho2),
                         (m.rho1, random_density(m.family.dim, rng, tol=TOL))):
                yield m.family, provided, *pair, edges


def test_search_finds_the_witnesses_of_one_evaluation():
    """Deciding the components first keeps every witness that one evaluator
    call on the components and every mixture finds, whether one, both or
    neither component has the property; example 1 at pi/3 keeps its
    lam = 1/2 weak and medium witnesses (criterion 4)."""
    holding = {factory.__name__: set() for factory in FACTORIES}
    found = set()
    for family, provided, rho1, rho2, lams in _search_cases():
        for factory in FACTORIES:
            prop = (factory(family, TOL, provided)
                    if factory is self_decoherence_property
                    else factory(family, TOL))
            got = individuality_violation_search(prop, rho1, rho2, lams, TOL)
            assert _as_tuples(got) == _as_tuples(
                _one_call_witnesses(prop, rho1, rho2, lams)), prop.name
            holding[factory.__name__].add(
                sum(prop.evaluator([rho1, rho2])))
            found.update(w.property_name for w in got)
    assert all(seen == {0, 1, 2} for seen in holding.values()), holding
    assert found == {"weak-decoherence", "medium-decoherence",
                     "linear-positivity"}
    inst = build_example1(np.pi / 3)
    for factory in (weak_decoherence_property, medium_decoherence_property):
        got = individuality_violation_search(factory(inst.family, TOL),
                                             inst.rho1, inst.rho2,
                                             DEFAULT_LAMBDA_GRID, TOL)
        assert [w.lam for w in got] == [0.5]


LINEAR = FACTORIES[:3]  # the predicates that carry a linear notion
LINEAR_NOTIONS = ("weak", "medium", "linear-positive", "C1-compat")

# blended entries against the explicit mixture's: the largest difference
# over the 116 family and notion cases of _blend_cases is 2.2e-16, for
# entries of modulus at most 1
BLEND_BOUND = 1e-15


def _state_route(prop):
    """The same property decided by its evaluator alone."""
    return PropertyPredicate(prop.name, prop.evaluator)


def _blend_cases():
    """(family, rho1, rho2): the components of every equivalence case,
    3-slot random families, and a family whose two histories through its
    first event are its only commutative ones."""
    for family, _, (rho1, rho2, *_) in _equivalence_cases():
        yield family, rho1, rho2
    rng = np.random.default_rng(73)
    for d in (3, 4, 5):
        family = random_family(d, 3, rng, TOL)
        yield family, *(random_density(d, rng, tol=TOL) for _ in range(2))
        yield family, _within_first_event(family), random_density(d, rng, tol=TOL)
    q = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    family = HistoryFamily((
        make_resolution([validate_projection(np.diag(e)) for e in np.eye(3)], TOL),
        make_resolution([validate_projection(q), validate_projection(np.eye(3) - q)],
                        TOL)))
    yield family, *(random_density(3, rng, tol=TOL) for _ in range(2))


def test_component_entries_blend_to_the_mixture_entries():
    """``D`` and the chain traces are linear in the state: for every notion
    linear in it, C1 included, and every grid weight, ``lam v1 + (1 - lam)
    v2`` is the mixture's entries up to rounding, block for block, and
    reduces to the mixture's own report in verdict and pair count, with its
    residual within the bound."""
    verdicts = {name: set() for name in LINEAR_NOTIONS}
    counted = dict.fromkeys(LINEAR_NOTIONS, 0)
    lams = np.array(DEFAULT_LAMBDA_GRID)[:, None, None]
    for family, rho1, rho2 in _blend_cases():
        analysis = FamilyAnalysis(family, TOL)
        mixed = [mixture(rho1, rho2, lam, TOL) for lam in DEFAULT_LAMBDA_GRID]
        for name in LINEAR_NOTIONS:
            notion = analysis.linear(name)
            blend = [(g, x, lams * v1 + (1.0 - lams) * v2)
                     for (g, x, v1), (_, _, v2)
                     in zip(notion.entries([rho1]), notion.entries([rho2]))]
            want = list(notion.entries(mixed))
            assert len(blend) == len(want), name
            for got, block in zip(blend, want):
                assert got[:2] == block[:2] and got[2].shape == block[2].shape, name
                assert np.abs(got[2] - block[2]).max(initial=0.0) <= BLEND_BOUND, name
            for got, report in zip(notion.reduce(blend, len(mixed)),
                                   notion.reports(mixed), strict=True):
                assert (got.verdict, got.pair_count) == (
                    report.verdict, report.pair_count), name
                assert abs(got.worst_residual - report.worst_residual) <= BLEND_BOUND
                verdicts[name].add(got.verdict)
                counted[name] += got.pair_count
    assert all(counted.values()), counted
    assert verdicts == {"weak": {True, False}, "medium": {True, False},
                        "linear-positive": {True, False}, "C1-compat": {True}}


def test_knife_edge_witnesses_are_the_same_on_both_routes():
    """Example 1 at pi/3: weak holds on 1/2 +- 4.0e-9 and medium on
    1/2 +- 2.0e-9, so of weights 1e-9 and 1e-8 either side of 1/2 exactly
    the three inner ones are witnesses, from the components' entries and
    from the explicit mixtures alike."""
    inst = build_example1(np.pi / 3)
    lams = (0.5 - 1e-8, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.5 + 1e-8)
    for factory in (weak_decoherence_property, medium_decoherence_property):
        prop = factory(inst.family, TOL)
        for route in (prop, _state_route(prop)):
            got = individuality_violation_search(route, inst.rho1, inst.rho2,
                                                 lams, TOL)
            assert [w.lam for w in got] == list(lams[1:4]), prop.name


def test_search_decides_each_component_once_and_no_mixture(monkeypatch):
    """A weak, medium or linear-positivity search computes D or the chain
    traces on one state per call, and on two states in all: no mixture is
    built or evaluated."""
    states = []
    final_blocks = consistency._final_blocks
    chain_traces = FamilyAnalysis.chain_traces
    monkeypatch.setattr(consistency, "_final_blocks", lambda chains, last, *rhos: (
        states.append(len(rhos)) or final_blocks(chains, last, *rhos)))
    monkeypatch.setattr(FamilyAnalysis, "chain_traces", lambda self, *rhos: (
        states.append(len(rhos)) or chain_traces(self, *rhos)))
    seen = set()
    for family, _, rho1, rho2, lams in _search_cases():
        for factory in LINEAR:
            prop = factory(family, TOL)
            holds = prop.holds(rho1)
            states.clear()
            individuality_violation_search(prop, rho1, rho2, lams, TOL)
            assert states == ([1] if holds else [1, 1]), prop.name
            seen.add(holds)
    assert seen == {True, False}


def _read_whole(family):
    """The family with its last resolution built directly: its overlap is
    not measured, so weak and medium read D whole."""
    *first, last = family.resolutions
    return HistoryFamily((*first, ResolutionOfIdentity(last.events)))


def test_component_route_keeps_the_witnesses_of_any_block_layout(monkeypatch):
    """Block budgets that split D into prefix rows, down to one row per
    block (which also splits the blend into column blocks), and families
    read whole give the state route's witnesses."""
    rng = np.random.default_rng(79)
    cases = []
    for inst in (build_example1(np.pi / 3), build_example1(2.0, 0.5)):
        cases += [(family, inst.rho1, inst.rho2)
                  for family in (inst.family, _read_whole(inst.family))]
    generic = random_family(4, 2, rng, TOL)
    for family in (generic, _read_whole(generic)):
        cases += [(family, random_density(4, rng, tol=TOL),
                   random_density(4, rng, tol=TOL)) for _ in range(3)]
        cases.append((family, _within_first_event(family),
                      random_density(4, rng, tol=TOL)))
    found = set()
    for (family, rho1, rho2), rows in itertools.product(cases, (None, 1, 2, 3)):
        analysis = FamilyAnalysis(family, TOL)
        whole = analysis.block_slots == family.length
        if rows is not None:
            monkeypatch.setattr(matcore, "_BLOCK_BYTES",
                                16 * len(elementary_histories(family)) * rows)
        for factory in LINEAR:
            prop = factory(family, TOL)
            got = individuality_violation_search(prop, rho1, rho2,
                                                 DEFAULT_LAMBDA_GRID, TOL)
            assert _as_tuples(got) == _as_tuples(individuality_violation_search(
                _state_route(prop), rho1, rho2, DEFAULT_LAMBDA_GRID, TOL)), prop.name
            found.update((whole, w.property_name) for w in got)
        monkeypatch.undo()
    assert found == {(whole, name) for whole in (False, True) for name in (
        "weak-decoherence", "medium-decoherence", "linear-positivity")}


def test_search_keeps_the_mixture_guards():
    """A bad weight or mismatched components raise before the predicate
    is asked anything."""
    inst = build_example1(np.pi / 3)
    calls = []
    prop = weak_decoherence_property(inst.family, TOL)
    counted = PropertyPredicate(prop.name, lambda rhos: (
        calls.append(len(rhos)) or prop.evaluator(rhos)))
    for lams in ((0.3, 1.0), (0.0,), (0.5, -0.2, 0.7)):
        with pytest.raises(LambdaOutOfRange):
            individuality_violation_search(counted, inst.rho1, inst.rho2,
                                           lams, TOL)
    with pytest.raises(DimensionMismatch):
        individuality_violation_search(counted, inst.rho1,
                                       validate_density(np.eye(2) / 2.0),
                                       (0.5,), TOL)
    assert calls == []


def _probe_cases():
    m = build_example2()
    b1 = np.kron(m.psi1, [0.0, 1.0])
    b2 = np.kron(m.psi2, [1.0, 0.0])
    inst = build_example1(np.pi / 3)
    e1 = validate_projection(np.diag([1.0, 0.0]))
    e2 = validate_projection(np.full((2, 2), 0.5))
    return [(m.h1, b1, b2), (m.h2, b1, b2), (inst.h1, inst.psi1, inst.psi2),
            (History((e1, e2), "(1,1)"), np.array([1.0, 0.0]),
             np.array([0.0, 1.0]))]


def test_condition_probe_equals_separate_least_mirrors():
    for h, psi1, psi2 in _probe_cases():
        probe = condition_C_probe(h, psi1, psi2, TOL)
        total = psi1 + psi2
        for found, vec in ((probe.found_1, psi1), (probe.found_2, psi2),
                           (probe.found_sum, total / np.linalg.norm(total))):
            want = least_mirror(h, validate_density(np.outer(vec, vec.conj()),
                                                    TOL), TOL)
            assert (found is None) == (not want.verified)
            if found is not None:
                assert np.array_equal(found.mirror.matrix, want.mirror.matrix)
                assert found.residual_m1 == want.residual_m1
                assert found.residual_m2 == want.residual_m2
