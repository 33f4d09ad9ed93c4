"""Mirror projections: verification, the least mirror, derived checks."""

import numpy as np
import pytest

from qhistories import matcore, mirror
from qhistories.consistency import (
    FamilyAnalysis,
    check_linear_positivity,
    check_weak_decoherence,
)
from qhistories.errors import (
    DimensionMismatch,
    MirrorNotVerified,
    NotCommuting,
    PreconditionFailed,
    TraceNotOne,
    WrongHistoryLength,
    ZeroConditioningEvent,
)
from qhistories.histories import (
    History,
    HistoryFamily,
    elementary_histories,
    make_resolution,
)
from qhistories.individuality import (
    DEFAULT_LAMBDA_GRID,
    individuality_violation_search,
    linear_positivity_property,
    mixture,
)
from qhistories.matcore import (
    DEFAULT_TOL,
    Tolerances,
    _state_stack,
    identity_projection,
    max_norm,
    projection_leq,
    validate_density,
    validate_projection,
)
from qhistories.mirror import (
    check_self_decoherence,
    contrary_bound_check,
    least_mirror,
    least_mirrors,
    mirror_correlation,
    occurrence_probability,
    proposition1_check,
    self_decoherence_each,
    verify_mirror,
)
from qhistories.sampling import (
    pointer_model,
    random_commuting_events,
    random_density,
    random_family,
    random_projection,
    random_pure_density,
    random_resolution,
    random_state,
    random_unitary,
)
from qhistories.scenarios import (
    build_contrary_inference,
    build_example1,
    build_example2,
)

from mirror_reference import (
    reference_candidates,
    reference_least_mirror,
    reference_mirrors,
    reference_self_decoherence,
)

TOL = DEFAULT_TOL


def diag_proj(*bits):
    return validate_projection(np.diag([float(b) for b in bits]))


def test_record_readout_verifies_exactly():
    m = build_example2()
    cert = verify_mirror(m.t, m.h1, m.rho, TOL)
    assert cert.verified
    assert max(cert.residual_m1) <= 1e-12
    assert max(cert.residual_m2) <= 1e-12


def test_swapped_readout_fails_the_trace_condition():
    """The other record state commutes fine but correlates wrongly."""
    m = build_example2()
    cert = verify_mirror(m.u, m.h1, m.rho, TOL)
    assert not cert.verified
    assert max(cert.residual_m1) <= 1e-12
    assert cert.residual_m2[0] == pytest.approx(0.5, abs=1e-12)
    assert cert.residual_m2[1] == pytest.approx(0.5, abs=1e-12)


def test_verify_mirror_needs_two_events():
    m = build_example2()
    with pytest.raises(WrongHistoryLength):
        verify_mirror(m.t, History((m.e1,)), m.rho, TOL)
    with pytest.raises(WrongHistoryLength):
        verify_mirror(m.t, History((m.e1, m.e2, m.e2)), m.rho, TOL)
    with pytest.raises(WrongHistoryLength):
        least_mirror(History((m.e1,)), m.rho, TOL)


def test_identity_mirror_correlation_reduces_to_event_probability():
    m = build_example2()
    eye = identity_projection(m.rho.dim)
    cond_t, cond_e = mirror_correlation(eye, m.e1, m.rho, TOL)
    p_e1 = float(np.trace(m.e1.matrix @ m.rho.matrix).real)
    assert cond_t == pytest.approx(1.0, abs=1e-12)
    assert cond_e == pytest.approx(p_e1, abs=1e-12)


def test_mirror_correlation_guards():
    skew = validate_projection(np.full((2, 2), 0.5))
    e1 = diag_proj(1, 0)
    rho = validate_density(np.diag([0.5, 0.5]))
    with pytest.raises(NotCommuting):
        mirror_correlation(skew, e1, rho, TOL)
    dead = validate_density(np.diag([0.0, 1.0]))
    with pytest.raises(ZeroConditioningEvent):
        mirror_correlation(diag_proj(1, 0), e1, dead, TOL)


def test_candidates_start_with_the_first_event_when_commuting():
    """The reference search tries the first event before anything else."""
    m = build_example2()
    candidates = reference_candidates(m.h1, TOL)
    assert candidates
    assert max_norm(candidates[0].matrix - m.e1.matrix) <= TOL.op


def test_candidates_are_deduplicated_projections():
    inst = build_example1(1.3)
    candidates = reference_candidates(inst.h1, TOL, max_candidates=64)
    keys = {np.round(c.matrix, 9).tobytes() for c in candidates}
    assert len(keys) == len(candidates)
    for c in candidates:
        assert c.hermiticity_residual <= TOL.op
        assert c.idempotency_residual <= TOL.op


def test_search_finds_the_built_in_mirror():
    """The least mirror verifies and sits under the record readout."""
    m = build_example2()
    cert = least_mirror(m.h1, m.rho, TOL)
    assert cert.verified
    assert projection_leq(cert.mirror, m.t, TOL)
    assert cert.mirror.rank == 1


def test_search_fails_where_no_mirror_exists():
    """Any mirror for this history forces an impossible trace value:
    the least candidate projects onto the plane of the two branches,
    and its trace defect is the branch weight outside the first event."""
    inst = build_example1(np.pi / 3)
    cert = least_mirror(inst.h1, inst.rho1, TOL)
    assert not cert.verified
    assert cert.mirror.rank == 2
    assert max(cert.residual_m1) <= TOL.op
    assert cert.residual_m2 == pytest.approx((0.5, 0.0), abs=1e-12)
    assert reference_mirrors(inst.h1, inst.rho1, TOL) == []


def test_least_mirror_of_a_state_outside_the_first_event_is_zero():
    m = build_example2()
    cert = least_mirror(m.h1, m.rho2, TOL)  # e1 annihilates this branch
    assert cert.verified
    assert cert.mirror.rank == 0


def test_self_decoherence_with_provided_mirrors():
    m = build_example2()
    report = check_self_decoherence(m.family, m.rho, m.provided_mirrors, TOL)
    assert report.verdict
    assert set(report.per_history) == {h.label for h in
                                       elementary_histories(m.family)}
    for cert in report.per_history.values():
        assert cert is not None and cert.verified


def test_provided_mirrors_are_verified_not_trusted():
    m = build_example2()
    swapped = {"(1,1)": m.u, "(2,1)": m.t}
    report = check_self_decoherence(m.family, m.rho, swapped, TOL)
    assert not report.verdict
    assert not report.per_history["(1,1)"].verified


def test_self_decoherence_fails_on_the_branch_state():
    inst = build_example1(np.pi / 3)
    report = check_self_decoherence(inst.family, inst.rho1, None, TOL)
    assert not report.verdict
    assert report.per_history["(1,1)"] is None


def test_coarse_sums_of_orthogonal_mirrors_verify():
    m = build_example2(spatial_dim=3, delta=(1, 2))
    report = check_self_decoherence(m.family, m.rho, m.provided_mirrors, TOL)
    assert report.verdict
    assert report.coarse_sum_mirrors == dict.fromkeys(
        ["(1,1)+(2,1)", "(1,1)+(3,1)", "(1,2)+(2,2)", "(1,2)+(3,2)",
         "(2,1)+(3,1)", "(2,2)+(3,2)", "(3,1)+(3,2)"], True)


def test_coarse_sums_on_read_match_the_eager_loop():
    """Sums read off the report equal the former eager pairwise loop, in
    the same key order."""
    rng = np.random.default_rng(59)
    nonempty = 0
    for spatial in (2, 3, 3, 4):
        m = pointer_model(spatial, rng, TOL)
        mixed = validate_density(0.4 * m.rho1.matrix + 0.6 * m.rho2.matrix)
        for rho, provided in ((m.rho, m.provided_mirrors), (m.rho, None),
                              (mixed, None), (m.rho1, m.provided_mirrors)):
            report = check_self_decoherence(m.family, rho, provided, TOL)
            _, _, want = reference_self_decoherence(m.family, rho, provided, TOL)
            assert list(report.coarse_sum_mirrors.items()) == list(want.items())
            nonempty += bool(want)
    assert nonempty


def test_a_provided_mirror_of_the_wrong_dimension_raises():
    m = build_example2()
    small = diag_proj(1, 0)
    with pytest.raises(DimensionMismatch):
        check_self_decoherence(m.family, m.rho, {"(1,1)": small}, TOL)
    with pytest.raises(DimensionMismatch):
        verify_mirror(small, m.h1, m.rho, TOL)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_state_of_another_dimension_raises(dim):
    """A dimension-2k state against a dimension-k history or family
    raises; its entries are never read as k x k states."""
    rng = np.random.default_rng(40 + dim)
    family = random_family(dim, 2, rng, TOL)
    h = elementary_histories(family)[0]
    good, bad = random_density(dim, rng, tol=TOL), random_density(2 * dim, rng, tol=TOL)
    prop = linear_positivity_property(family, TOL)
    calls = [lambda: verify_mirror(identity_projection(dim), h, bad, TOL),
             lambda: least_mirror(h, bad, TOL),
             lambda: least_mirrors(h, [good, bad], TOL),
             lambda: check_self_decoherence(family, bad, None, TOL),
             lambda: check_linear_positivity(family, bad, TOL),
             lambda: check_weak_decoherence(family, bad, TOL),
             lambda: prop.holds(bad),
             lambda: prop.evaluator([good, bad]),
             lambda: individuality_violation_search(prop, bad, bad, (0.5,), TOL)]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()


def test_self_decoherence_needs_two_slots():
    r = make_resolution([diag_proj(1, 0), diag_proj(0, 1)], TOL)
    rho = validate_density(np.diag([0.5, 0.5]))
    for slots in (1, 3):
        with pytest.raises(WrongHistoryLength):
            check_self_decoherence(HistoryFamily((r,) * slots), rho, None, TOL)


def test_occurrence_probability_routes_agree():
    m = build_example2()
    cert = verify_mirror(m.t, m.h1, m.rho, TOL)
    occ = occurrence_probability(m.h1, m.t, m.rho, TOL)
    assert cert.verified
    assert occ.value == pytest.approx(0.5, abs=1e-12)
    assert occ.via_mirror.real == pytest.approx(occ.via_chain, abs=1e-9)
    assert occ.via_first_event.real == pytest.approx(occ.via_chain, abs=1e-9)


def test_occurrence_probability_requires_a_verified_mirror():
    m = build_example2()
    with pytest.raises(MirrorNotVerified):
        occurrence_probability(m.h1, m.u, m.rho, TOL)


def test_proposition1_passes_on_the_pointer_model():
    m = build_example2()
    report = proposition1_check(m.t, m.u, m.h1, m.h2, m.psi, TOL)
    assert report.passed
    assert report.orthogonality_residual <= 1e-12
    assert report.join_additivity_residual <= 1e-12
    assert report.cross_term_residual <= 1e-12


def test_proposition1_is_invariant_under_a_global_phase():
    rng = np.random.default_rng(61)
    models = [build_example2(), build_example2(3, (1, 3))]
    models += [pointer_model(s, rng, TOL) for s in (2, 3, 4)]
    for m in models:
        want = proposition1_check(m.t, m.u, m.h1, m.h2, m.psi, TOL)
        for phase in (0.7, np.pi, -2.1):
            got = proposition1_check(m.t, m.u, m.h1, m.h2,
                                     np.exp(1j * phase) * m.psi, TOL)
            assert got.passed == want.passed
            np.testing.assert_allclose(
                [got.orthogonality_residual, got.join_additivity_residual,
                 got.cross_term_residual],
                [want.orthogonality_residual, want.join_additivity_residual,
                 want.cross_term_residual], rtol=0, atol=1e-12)


def test_proposition1_preconditions():
    m = build_example2()
    with pytest.raises(PreconditionFailed):
        proposition1_check(m.t, m.u, m.h1, m.h2, 2.0 * m.psi, TOL)
    with pytest.raises(PreconditionFailed):
        proposition1_check(m.u, m.t, m.h1, m.h2, m.psi, TOL)  # swapped
    with pytest.raises(PreconditionFailed):
        proposition1_check(m.t, m.t, m.h1, m.h1, m.psi, TOL)  # same history


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_proposition1_rejects_a_non_finite_state_vector(bad):
    """The norm test fails a NaN norm, so a NaN entry is a precondition
    failure, as an infinite one is."""
    m = build_example2()
    psi = np.array(m.psi, dtype=complex)
    psi[1] = bad
    with pytest.raises(PreconditionFailed, match="state vector is not normalized"):
        proposition1_check(m.t, m.u, m.h1, m.h2, psi, TOL)


def test_proposition1_state_keeps_its_trace_test():
    """A norm of ``1 + 3e-10`` passes the ``tol.prob`` norm test, and
    ``psi psi^dag``'s trace residual of about ``6e-10`` then fails
    ``tol.op`` as ``validate_density`` fails it."""
    m = build_example2()
    psi = (1.0 + 3e-10) * np.asarray(m.psi)
    with pytest.raises(TraceNotOne) as exc:
        proposition1_check(m.t, m.u, m.h1, m.h2, psi, TOL)
    with pytest.raises(TraceNotOne) as alone:
        validate_density(np.outer(psi, psi.conj()), TOL)
    assert str(exc.value) == str(alone.value)
    assert exc.value.residual == pytest.approx(6e-10, rel=1e-3)


def test_contrary_bound_on_the_pointer_model():
    m = build_example2()
    cert_t = verify_mirror(m.t, m.h1, m.rho, TOL)
    cert_u = verify_mirror(m.u, m.h2, m.rho, TOL)
    report = contrary_bound_check(m.h1, m.h2, (cert_t, cert_u), m.rho, TOL)
    assert report.passed
    assert report.p_h1 + report.p_h2 <= report.p_e2 + TOL.prob
    if report.conditional_sum is not None:
        assert report.conditional_sum <= 1.0 + TOL.prob


def test_contrary_bound_rejects_unverified_certificates():
    m = build_example2()
    bad = verify_mirror(m.u, m.h1, m.rho, TOL)
    good = verify_mirror(m.u, m.h2, m.rho, TOL)
    with pytest.raises(PreconditionFailed):
        contrary_bound_check(m.h1, m.h2, (bad, good), m.rho, TOL)


def test_contrary_bound_rejects_mismatched_final_events():
    e1, f1 = diag_proj(1, 0), diag_proj(0, 1)
    r1 = make_resolution([e1, f1], TOL)
    rho = validate_density(np.diag([0.5, 0.5]))
    h1 = History((e1, e1), "(1,1)")
    h2 = History((f1, f1), "(2,2)")
    cert1 = verify_mirror(e1, h1, rho, TOL)
    cert2 = verify_mirror(f1, h2, rho, TOL)
    assert cert1.verified and cert2.verified
    del r1
    with pytest.raises(PreconditionFailed):
        contrary_bound_check(h1, h2, (cert1, cert2), rho, TOL)


def test_contrary_bound_mixed_state_needs_opt_in():
    eye = identity_projection(2)
    e1, f1 = diag_proj(1, 0), diag_proj(0, 1)
    rho = validate_density(np.diag([0.5, 0.5]))
    h1 = History((e1, eye), "(1,1)")
    h2 = History((f1, eye), "(2,1)")
    cert1 = verify_mirror(e1, h1, rho, TOL)
    cert2 = verify_mirror(f1, h2, rho, TOL)
    assert cert1.verified and cert2.verified
    with pytest.raises(PreconditionFailed):
        contrary_bound_check(h1, h2, (cert1, cert2), rho, TOL)
    report = contrary_bound_check(h1, h2, (cert1, cert2), rho, TOL,
                                  allow_mixed=True)
    assert report.passed
    assert report.components
    assert report.p_h1 + report.p_h2 == pytest.approx(report.p_e2, abs=1e-12)
    _same_components(report, h1, h2, (cert1, cert2), rho)


def _bound_values(report):
    return (report.p_h1, report.p_h2, report.p_e2, report.bound_residual,
            report.conditional_sum, report.passed, report.components)


def _same_components(report, h1, h2, certs, rho):
    """The decomposed reports are those of each support eigenvector, with
    both mirrors verified on it one at a time."""
    w, v = np.linalg.eigh(rho.matrix)
    want = []
    for i in np.flatnonzero(w > TOL.eig):
        comp = validate_density(np.outer(v[:, i], v[:, i].conj()), TOL)
        comp_certs = tuple(verify_mirror(c.mirror, h, comp, TOL)
                           for c, h in zip(certs, (h1, h2)))
        want.append(contrary_bound_check(h1, h2, comp_certs, comp, TOL))
    assert [_bound_values(c) for c in report.components] == [
        _bound_values(c) for c in want]


def test_pointer_models_satisfy_every_mirror_identity():
    """Seeded sweep: provided mirrors verify, the triple identity and
    the additive bound hold on each instance."""
    rng = np.random.default_rng(17)
    for trial in range(100):
        spatial = int(rng.integers(2, 5))
        m = pointer_model(spatial, rng, TOL)
        cert_t = verify_mirror(m.t, m.h1, m.rho, TOL)
        cert_u = verify_mirror(m.u, m.h2, m.rho, TOL)
        assert cert_t.verified and cert_u.verified, trial
        occ = occurrence_probability(m.h1, m.t, m.rho, TOL)
        assert abs(occ.via_mirror.real - occ.via_chain) <= 1e-9, trial
        assert abs(occ.via_first_event.real - occ.via_chain) <= 1e-9, trial
        prop = proposition1_check(m.t, m.u, m.h1, m.h2, m.psi, TOL)
        assert prop.passed, trial
        bound = contrary_bound_check(m.h1, m.h2, (cert_t, cert_u), m.rho, TOL)
        assert bound.passed, trial


# Migration oracle: the least mirror against the former randomized
# search (mirror_reference.py) on seeded inputs.  Candidate lists do not
# depend on the state, so each history's list serves all its states.


def binary_family(*events):
    """A family with one slot per event: the event and its complement."""
    d = events[0].dim
    return HistoryFamily(tuple(
        make_resolution([e, validate_projection(np.eye(d) - e.matrix)])
        for e in events))


def _oracle_cases(source):
    rng = np.random.default_rng({"pointer": 41, "generic": 43,
                                 "example1": 47}[source])
    if source == "pointer":
        for spatial in (2, 2, 3):
            m = pointer_model(spatial, rng, TOL)
            mixed = validate_density(0.3 * m.rho1.matrix + 0.7 * m.rho2.matrix)
            yield m.family, (m.rho, m.rho1, mixed)
    elif source == "generic":
        for d in range(3, 7):
            states = (random_pure_density(d, rng, tol=TOL),
                      random_density(d, rng, tol=TOL))
            yield random_family(d, 2, rng, TOL), states
            # commuting events always have a mirror
            yield binary_family(*random_commuting_events(d, rng, TOL)), states
    else:
        for _ in range(2):
            inst = build_example1(float(rng.uniform(0.2, np.pi - 0.2)),
                                  float(rng.uniform(0.0, np.pi)))
            yield inst.family, (inst.rho, inst.rho1, inst.rho2)


@pytest.mark.parametrize("source", ["pointer", "generic", "example1"])
def test_least_mirror_matches_the_reference_search(source):
    """Same existence decision as the reference, and every mirror the
    reference verifies dominates the least mirror."""
    decided = found = 0
    for family, states in _oracle_cases(source):
        for h in elementary_histories(family):
            candidates = reference_candidates(h, TOL)
            for rho in states:
                cert = least_mirror(h, rho, TOL)
                mirrors = reference_mirrors(h, rho, TOL, candidates)
                assert cert.verified == bool(mirrors), (h.label, cert.residual_m2)
                for ref in mirrors:
                    assert projection_leq(cert.mirror, ref.mirror, TOL), h.label
                decided += 1
                found += cert.verified
    if source == "pointer":
        assert found == decided  # the record readout is always a mirror
    elif source == "generic":
        assert 0 < found < decided
    else:
        assert decided and not found  # no history here has a mirror


def test_least_mirror_near_the_support_threshold():
    """A support direction of weight above tol.eig counts in full.

    On |2>, |3> the first event keeps |2> and the second projects onto
    |+>, so a weight-eps component b = sin(phi)|2> + cos(phi)|3> pulls
    |3>, which e1 annihilates, into the least candidate: its trace
    defect is eps cos^2(phi), and no mirror exists.  The projection onto
    |0> still verifies, because its defect eps sin^2(phi) is below
    tol.prob.  Once eps drops below tol.eig, b leaves the support and
    that projection is the least mirror.
    """
    e1 = validate_projection(np.diag([1.0, 0.0, 1.0, 0.0]))
    plus = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
    e2 = validate_projection(np.diag([1.0, 0.0, 0.0, 0.0])
                             + np.outer(plus, plus))
    h = History((e1, e2), "(1,1)")
    t = validate_projection(np.diag([1.0, 0.0, 0.0, 0.0]))
    a = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    phi = np.arcsin(1e-2)
    b = np.array([0.0, 0.0, np.sin(phi), np.cos(phi)])

    def state(eps):
        return validate_density((1.0 - eps) * np.outer(a, a)
                                + eps * np.outer(b, b))

    rho = state(1e-6)
    approx = verify_mirror(t, h, rho, TOL)
    assert approx.verified
    assert max(approx.residual_m2) == pytest.approx(1e-10, rel=1e-3)
    least = least_mirror(h, rho, TOL)
    assert not least.verified
    assert least.mirror.rank == 3
    assert least.residual_m2[0] == pytest.approx(1e-6 * np.cos(phi) ** 2,
                                                 rel=1e-6)
    family = binary_family(e1, e2)
    provided = check_self_decoherence(family, rho, {"(1,1)": t}, TOL)
    assert provided.per_history["(1,1)"].verified
    assert check_self_decoherence(family, rho, None, TOL).per_history["(1,1)"] is None

    below = least_mirror(h, state(5e-9), TOL)
    assert below.verified
    assert max_norm(below.mirror.matrix - t.matrix) <= TOL.op


def test_first_round_keeps_e1_directions_that_e2_keeps_above_tol_eig_over_sqrt2():
    """The first round takes the rank of ``[e1 S, e2 e1 S]``.  An ``e1 S``
    direction of singular value ``c`` that ``e2`` fixes has ``c sqrt(2)``
    there, so for ``c`` in ``(tol.eig / sqrt(2), tol.eig]`` it enters ``V``,
    where the one-history reference, which first takes the rank of
    ``e1 S`` alone, drops it; outside that band both rules agree."""
    e1 = diag_proj(1, 1, 0, 0)
    e2 = diag_proj(1, 0, 1, 0)  # fixes |0>
    h = History((e1, e2), "(1,1)")
    ranks, reference = [], []
    for factor in (2.0, 0.8, 0.5):
        c = factor * TOL.eig
        psi = np.array([c, 0.0, 0.0, np.sqrt(1.0 - c * c)])
        rho = validate_density(np.outer(psi, psi))
        ranks.append(least_mirror(h, rho, TOL).mirror.rank)
        reference.append(reference_least_mirror(h, rho, TOL).mirror.rank)
    assert ranks == [1, 1, 0]
    assert reference == [1, 0, 0]


def _tilted_growth(sigma):
    """``e1 = diag(1, 1, 0, 0)`` and ``e2`` onto ``|0> + b|1> + |2>`` with
    ``psi = |0>``: the first round gives ``V1 = span{|0>, b|1> + |2>}``,
    which ``e2`` keeps and ``e1`` moves by about ``b`` along ``|1>``, and
    ``b`` is set so that this direction's singular value in
    ``[P, e1 P, e2 P]``, ``P`` a basis of ``V1``, is ``sigma``."""
    def setup(b):
        v = np.array([1.0, b, 1.0, 0.0])
        e2 = validate_projection(np.outer(v, v) / (v @ v))
        p = np.linalg.svd(np.array([[1.0, 0.0, 0.0, 0.0], e2.matrix[0].real]).T,
                          full_matrices=False)[0]
        stack = np.hstack([p, diag_proj(1, 1, 0, 0).matrix @ p, e2.matrix @ p])
        return e2, np.linalg.svd(stack, compute_uv=False)[2]

    b = sigma
    for _ in range(3):  # the singular value is linear in b to first order
        b *= sigma / setup(b)[1]
    e2, got = setup(b)
    assert got == pytest.approx(sigma, rel=1e-6)
    return History((diag_proj(1, 1, 0, 0), e2), "(1,1)")


@pytest.mark.parametrize("factor, rank", [(2.0, 3), (0.25, 2)])
def test_later_rounds_grow_at_the_reference_rank_rule(factor, rank):
    """A second-round direction of singular value ``2 tol.eig`` enters
    ``V`` and one of ``tol.eig / 4`` does not, as in the reference; the
    latter's invariance defect is below ``tol.eig / 2``, so the closure
    stops it without an SVD."""
    h = _tilted_growth(factor * TOL.eig)
    rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]))
    assert least_mirror(h, rho, TOL).mirror.rank == rank
    assert reference_least_mirror(h, rho, TOL).mirror.rank == rank


def _closures():
    """``(events, support basis, closed projections)`` of the seeded
    pointer, generic and rank-deficient cases, every support of each."""
    rng = np.random.default_rng(131)
    models = [pointer_model(s, rng, TOL) for s in (2, 3, 4)]
    cases = [(m.family, [m.rho, m.rho1, m.rho2, mixture(m.rho1, m.rho2, 0.4, TOL)])
             for m in models]
    for d in range(3, 8):
        states = [random_pure_density(d, rng, tol=TOL),
                  *(random_density(d, rng, rank=r, tol=TOL) for r in range(1, d))]
        cases += [(random_family(d, 2, rng, TOL), states),
                  (binary_family(*random_commuting_events(d, rng, TOL)), states)]
    for family, states in cases:
        events = FamilyAnalysis(family, TOL).event_pairs[0]
        bases = mirror._supports(_state_stack(states, family.dim), TOL)[0]
        yield events, bases, mirror._least_projections(events, bases, TOL)


def test_the_invariance_stop_is_sound():
    """For every closed (support, history) pair, no singular value of
    ``[P, e1 P, e2 P]`` past ``rank P`` exceeds the invariance defect
    ``||(1 - P P^dag)[e1 P, e2 P]||_F`` (Weyl), so a pair the closure stops
    at ``tol.eig / 2`` gets no rank growth from that SVD; every closed
    pair gets none."""
    stopped = 0
    for events, _, closed in _closures():
        for k, q in enumerate(closed):
            w, v = np.linalg.eigh(q)
            p = v[:, w > 0.5]
            e1, e2 = events[k % len(events)]
            moved = np.hstack([e1 @ p, e2 @ p])
            defect = np.linalg.norm(moved - q @ moved)
            s = np.linalg.svd(np.hstack([p, moved]), compute_uv=False)
            assert np.all(s[p.shape[1]:] <= defect + 1e-15)
            assert np.count_nonzero(s > TOL.eig) == p.shape[1]  # closed
            stopped += defect <= TOL.eig / 2
    assert stopped > 300


def test_a_pointer_model_closure_takes_one_svd(monkeypatch):
    """The first round closes every pair of example 2 and the invariance
    defect confirms it: one stacked SVD for the whole family."""
    m = build_example2()
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: (
        calls.append(a[0].shape) or svd(*a, **k)))
    report = check_self_decoherence(m.family, m.rho, None, TOL)
    assert report.verdict
    assert len(calls) == 1


def test_rank_r_closure_matches_the_reference(monkeypatch):
    """The closure on each support's r columns (a ``d x 2r`` first round,
    bases as wide as their rank can reach) agrees with the one-history
    reference in rank and verdict, with projections within 1e-12, on pure,
    rank-2 and full-rank states.  Each :func:`least_mirrors` call takes all
    three states, so its supports have ranks 1, 2 and d, and the tilted
    history and the generic families need a second round."""
    rng = np.random.default_rng(97)
    histories = [_tilted_growth(2 * TOL.eig)]
    for d in (3, 4, 6):
        histories += elementary_histories(random_family(d, 2, rng, TOL))
        histories += elementary_histories(
            binary_family(*random_commuting_events(d, rng, TOL)))
    rounds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: (
        rounds.append(a[0].shape) or svd(*a, **k)))
    found = 0
    for h in histories:
        d = h.dim
        states = [validate_density(np.diag([1.0] + [0.0] * (d - 1)))
                  if h is histories[0] else random_pure_density(d, rng, tol=TOL),
                  random_density(d, rng, rank=2, tol=TOL),
                  random_density(d, rng, rank=d, tol=TOL)]
        del rounds[:]
        certs = least_mirrors(h, states, TOL)
        assert rounds[0][1:] == (d, 2 * d), rounds  # [e1 S, e2 e1 S] at r = d
        if h is histories[0]:
            assert len(rounds) == 2  # the tilted direction enters in round 2
        for cert, rho in zip(certs, states):
            ref = reference_least_mirror(h, rho, TOL)
            assert cert.mirror.rank == ref.mirror.rank, h.label
            assert cert.verified == ref.verified, h.label
            assert max_norm(cert.mirror.matrix - ref.mirror.matrix) <= 1e-12
            found += cert.verified
        for rho in states[:2]:  # one state alone: a d x 2r first round
            del rounds[:]
            least_mirror(h, rho, TOL)
            r = int(np.count_nonzero(np.linalg.eigvalsh(rho.matrix) > TOL.eig))
            assert rounds[0] == (1, d, 2 * r)
    assert 0 < found < 3 * len(histories)


def test_a_pointer_question_makes_no_eigvalsh_call(monkeypatch):
    """Self-decoherence, both mirror checks, the occurrence probability,
    Proposition 1 and the contrary bound of a pointer model: the least
    projections' and the join's ranks come from their traces and ``psi
    psi^dag`` from its vector, so no ``eigvalsh`` runs."""
    rng = np.random.default_rng(101)
    models = [build_example2(), *(pointer_model(s, rng, TOL) for s in (2, 3))]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: (
        calls.append(1) or eigvalsh(*a, **k)))
    for m in models:
        report = check_self_decoherence(m.family, m.rho, None, TOL)
        certs = (verify_mirror(m.t, m.h1, m.rho, TOL),
                 verify_mirror(m.u, m.h2, m.rho, TOL))
        occurrence_probability(m.h1, m.t, m.rho, TOL)
        prop = proposition1_check(m.t, m.u, m.h1, m.h2, m.psi, TOL)
        bound = contrary_bound_check(m.h1, m.h2, certs, m.rho, TOL)
        assert report.verdict and prop.passed and bound.passed
    assert calls == []


def test_contrary_bound_holds_on_each_eigenvector_for_least_mirrors():
    """Least mirrors of a mixed pointer state verify on every
    eigenvector in its support, so the decomposed bound always runs."""
    rng = np.random.default_rng(53)
    for trial in range(20):
        m = pointer_model(int(rng.integers(2, 5)), rng, TOL)
        lam = float(rng.uniform(0.05, 0.95))
        rho = validate_density(lam * m.rho1.matrix + (1.0 - lam) * m.rho2.matrix)
        certs = (least_mirror(m.h1, rho, TOL), least_mirror(m.h2, rho, TOL))
        assert certs[0].verified and certs[1].verified, trial
        report = contrary_bound_check(m.h1, m.h2, certs, rho, TOL,
                                      allow_mixed=True)
        assert report.passed, trial
        assert len(report.components) == 2, trial
        _same_components(report, m.h1, m.h2, certs, rho)


def test_mixed_contrary_bound_needs_mirrors_exact_on_every_eigenvector():
    """A mirror that verifies on the mixture only within tol.prob can fail
    on an eigenvector; the decomposition then raises, as it did with one
    certificate per eigenvector."""
    tol = Tolerances(prob=5e-8)  # a support weight above tol.eig fits in tol.prob
    e1, f1 = diag_proj(1, 0, 0), diag_proj(0, 1, 0)
    eye = identity_projection(3)
    h1, h2 = History((e1, eye), "(1,1)"), History((f1, eye), "(2,1)")
    rho = validate_density(np.diag([0.5 - 1e-8, 0.5 - 1e-8, 2e-8]), tol)
    loose = diag_proj(1, 0, 1)  # holds the third support direction
    certs = (verify_mirror(loose, h1, rho, tol), verify_mirror(f1, h2, rho, tol))
    assert certs[0].verified and certs[1].verified
    with pytest.raises(PreconditionFailed):
        contrary_bound_check(h1, h2, certs, rho, tol, allow_mixed=True)
    exact = (least_mirror(h1, rho, tol), least_mirror(h2, rho, tol))
    report = contrary_bound_check(h1, h2, exact, rho, tol, allow_mixed=True)
    assert len(report.components) == 3 and report.passed


def test_contrary_inference_pair_has_mirrors_that_fail_the_consequences():
    """On Kent's contrary inference both histories have mirrors, yet
    Proposition 1's consequences and the additive bound fail: two
    verified mirrors with orthogonal first events do not give them.
    What fails is the joint family ``(e1, f1, 1 - e1 - f1) x (e2, 1 - e2)``,
    which is neither self-decohering nor weakly decohering."""
    inst = build_contrary_inference(3, TOL)
    rho = validate_density(np.outer(inst.psi, inst.psi.conj()))
    h1, h2 = History((inst.e1, inst.e2)), History((inst.f1, inst.e2))
    certs = (least_mirror(h1, rho, TOL), least_mirror(h2, rho, TOL))
    assert all(c.verified and c.mirror.rank == 2 for c in certs)
    prop = proposition1_check(certs[0].mirror, certs[1].mirror, h1, h2,
                              inst.psi, TOL)
    assert not prop.passed
    assert prop.orthogonality_residual <= TOL.prob
    assert prop.join_additivity_residual == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert prop.cross_term_residual == pytest.approx(1 / 9, abs=1e-12)
    bound = contrary_bound_check(h1, h2, certs, rho, TOL)
    assert not bound.passed
    assert bound.bound_residual == pytest.approx(1 / 9, abs=1e-12)
    assert bound.conditional_sum == pytest.approx(2.0, abs=1e-12)

    rest = validate_projection(np.eye(3) - inst.e1.matrix - inst.f1.matrix)
    not_e2 = validate_projection(np.eye(3) - inst.e2.matrix)
    joint = HistoryFamily((make_resolution([inst.e1, inst.f1, rest], TOL),
                           make_resolution([inst.e2, not_e2], TOL)))
    report = check_self_decoherence(joint, rho, None, TOL)
    assert not report.verdict
    assert [label for label, c in report.per_history.items() if c is None] == [
        "(3,1)", "(3,2)"]
    weak = check_weak_decoherence(joint, rho, TOL)
    assert not weak.verdict
    assert weak.worst_residual == pytest.approx(1 / 9, abs=1e-12)


# Migration oracle: the batched pass against the former per-history loop
# (mirror_reference.py).


def _batched_cases(source):
    rng = np.random.default_rng({"pointer": 67, "generic": 71, "example1": 73,
                                 "zero-event": 79, "partial": 83}[source])
    if source == "pointer":
        for spatial in range(2, 7):  # dimensions 4 to 12
            m = pointer_model(spatial, rng, TOL)
            mixed = validate_density(0.3 * m.rho1.matrix + 0.7 * m.rho2.matrix)
            for rho in (m.rho, m.rho1, mixed):
                yield m.family, rho, None
    elif source == "generic":
        for d in range(3, 7):
            states = (random_pure_density(d, rng, tol=TOL),
                      random_density(d, rng, tol=TOL))
            for family in (random_family(d, 2, rng, TOL),
                           binary_family(*random_commuting_events(d, rng, TOL))):
                for rho in states:
                    yield family, rho, None
    elif source == "example1":
        inst = build_example1(float(rng.uniform(0.2, np.pi - 0.2)),
                              float(rng.uniform(0.0, np.pi)))
        for rho in (inst.rho, inst.rho1, inst.rho2):
            yield inst.family, rho, None
    elif source == "zero-event":
        e = random_projection(4, rng, rank=2, tol=TOL)
        first = make_resolution([e, validate_projection(np.eye(4) - e.matrix),
                                 validate_projection(np.zeros((4, 4)))], TOL)
        family = HistoryFamily((first, random_resolution(4, (1, 3), rng, TOL)))
        yield family, random_density(4, rng, tol=TOL), None
        yield binary_family(e, e), random_pure_density(4, rng, tol=TOL), None
    else:
        for spatial in (2, 3):
            m = pointer_model(spatial, rng, TOL)
            yield m.family, m.rho, {"(1,1)": m.t}
            yield m.family, m.rho, {"(2,1)": m.t}  # fails verification
            yield m.family, m.rho1, {"(1,2)": m.u, "(2,2)": m.t}


def _same_certificate(got, want):
    assert got.verified == want.verified
    assert got.mirror.rank == want.mirror.rank
    assert max_norm(got.mirror.matrix - want.mirror.matrix) <= TOL.op
    np.testing.assert_allclose(got.residual_m1 + got.residual_m2,
                               want.residual_m1 + want.residual_m2,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("source", ["pointer", "generic", "example1",
                                    "zero-event", "partial"])
def test_batched_self_decoherence_matches_the_per_history_loop(source):
    """Same labels, None pattern, verification, ranks and verdict as the
    former loop, residuals within 1e-12, and the same least candidate
    for every history, verified or not."""
    found = missing = 0
    for family, rho, provided in _batched_cases(source):
        report = check_self_decoherence(family, rho, provided, TOL)
        per, verdict, _ = reference_self_decoherence(family, rho, provided, TOL)
        assert list(report.per_history) == list(per)
        assert report.verdict == verdict
        for h in elementary_histories(family):
            got, want = report.per_history[h.label], per[h.label]
            assert (got is None) == (want is None), h.label
            if want is not None:
                _same_certificate(got, want)
            _same_certificate(least_mirror(h, rho, TOL),
                              reference_least_mirror(h, rho, TOL))
            found += want is not None
            missing += want is None
    if source == "example1":
        assert missing and not found  # no history here has a mirror
    else:
        assert found and (missing or source in ("pointer", "partial"))


def test_mirror_block_budget_does_not_change_reports(monkeypatch):
    """Histories processed a few per block give bit-identical reports."""
    rng = np.random.default_rng(89)
    generic = HistoryFamily(tuple(random_resolution(6, (2, 2, 1, 1), rng, TOL)
                                  for _ in range(2)))
    labels = [h.label for h in elementary_histories(generic)]
    given = {label: random_projection(6, rng, rank=3, tol=TOL)
             for label in labels[::2]}
    diagonal = HistoryFamily(tuple(
        make_resolution([diag_proj(*(k // size == j for k in range(8)))
                         for j in range(8 // size)], TOL)
        for size in (2, 4)))
    cases = [(generic, random_density(6, rng, tol=TOL), given),
             (diagonal, random_density(8, rng, tol=TOL), None)]
    whole = [check_self_decoherence(f, rho, p, TOL) for f, rho, p in cases]
    # three histories of dimension 8 (five of dimension 6) per block; the
    # sixteenth history of dimension 6 joins the third block
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 3 * 8 * 8 * 16 * 3)
    blocks, closed = [], []
    split, closure = mirror._blocks, mirror._least_projections

    def counted(count, item_bytes):
        slices = split(count, item_bytes)
        blocks.extend(len(range(count)[rows]) for rows in slices)
        return slices

    monkeypatch.setattr(mirror, "_blocks", counted)
    monkeypatch.setattr(mirror, "_least_projections", lambda events, supports, tol: (
        closed.append(len(events)) or closure(events, supports, tol)))
    # one closure per block, of the block's histories without a given mirror
    for (f, rho, p), want, sizes, least in zip(
            cases, whole, ([5, 5, 6], [3, 3, 2]), ([2, 3, 3], [3, 3, 2])):
        blocks.clear()
        closed.clear()
        got = check_self_decoherence(f, rho, p, TOL)
        assert blocks == sizes and closed == least
        assert got.verdict == want.verdict
        assert list(got.per_history) == list(want.per_history)
        for label, cert in want.per_history.items():
            other = got.per_history[label]
            assert (other is None) == (cert is None), label
            if cert is not None:
                assert np.array_equal(other.mirror.matrix, cert.mirror.matrix)
                assert other.residual_m1 == cert.residual_m1
                assert other.residual_m2 == cert.residual_m2
                assert other.verified == cert.verified
        assert got.coarse_sum_mirrors == want.coarse_sum_mirrors
    assert sum(c is not None for c in whole[1].per_history.values()) == 8


def _same_report(got, want):
    assert list(got.per_history) == list(want.per_history)
    assert got.verdict == want.verdict
    for label, cert in want.per_history.items():
        assert (got.per_history[label] is None) == (cert is None), label
        if cert is not None:
            _same_certificate(got.per_history[label], cert)


@pytest.mark.parametrize("source", ["pointer", "generic", "partial"])
def test_one_analysis_decides_many_states_like_fresh_calls(source):
    analyses = {}
    for family, rho, provided in _batched_cases(source):
        analysis = analyses.setdefault(id(family), FamilyAnalysis(family, TOL))
        [got] = self_decoherence_each(analysis, [rho], provided)
        want = check_self_decoherence(family, rho, provided, TOL)
        _same_report(got, want)
        assert got.coarse_sum_mirrors == want.coarse_sum_mirrors
    assert len(analyses) < sum(1 for _ in _batched_cases(source))


@pytest.mark.parametrize("source", ["pointer", "generic", "example1",
                                    "zero-event", "partial"])
def test_stacked_self_decoherence_matches_one_state_calls(source):
    """All states of a family in one pass: the same reports as one call
    per state, residuals within 1e-12."""
    by_family = {}
    for family, rho, provided in _batched_cases(source):
        key = (id(family), tuple(sorted(provided or {})))
        by_family.setdefault(key, (family, provided, []))[2].append(rho)
    for family, provided, states in by_family.values():
        analysis = FamilyAnalysis(family, TOL)
        got = self_decoherence_each(analysis, states, provided)
        assert len(got) == len(states)
        for report, rho in zip(got, states):
            assert report.state is rho
            _same_report(report, *self_decoherence_each(analysis, [rho], provided))
        h = analysis.histories[0]
        for cert, rho in zip(least_mirrors(h, states, TOL), states):
            assert cert.state is rho
            _same_certificate(cert, least_mirror(h, rho, TOL))


def _grid_states(rho1, rho2):
    return [rho1, rho2, *(mixture(rho1, rho2, lam, TOL) for lam in DEFAULT_LAMBDA_GRID)]


@pytest.mark.parametrize("source", ["pointer", "example1"])
def test_grid_mixtures_share_one_least_projection(source, monkeypatch):
    """The nine grid mixtures have one support, ``supp rho1 + supp rho2``,
    so one closure serves them all while each component keeps its own;
    every certificate is traced against its own state and matches the
    one-state least mirror."""
    rng = np.random.default_rng(101)
    inst = (pointer_model(2, rng, TOL) if source == "pointer"
            else build_example1(1.0, 0.4))
    states = _grid_states(inst.rho1, inst.rho2)
    analysis = FamilyAnalysis(inst.family, TOL)
    closed = []
    closure = mirror._least_projections
    monkeypatch.setattr(mirror, "_least_projections", lambda events, supports, tol: (
        closed.append(len(supports) * len(events)) or closure(events, supports, tol)))
    reports = self_decoherence_each(analysis, states)
    assert closed == [3 * len(analysis.histories)]  # 12 pairs, not 44
    for report, rho in zip(reports, states):
        assert report.state is rho
        _same_report(report, *self_decoherence_each(analysis, [rho]))
    for h in analysis.histories:
        certs = least_mirrors(h, states, TOL)
        shared = certs[2].mirror
        assert all(c.mirror is shared for c in certs[2:])
        assert len({id(c.mirror) for c in certs}) == 3
        for cert, rho in zip(certs, states):
            assert cert.state is rho
            _same_certificate(cert, least_mirror(h, rho, TOL))


def test_blocked_states_are_stacked_and_supported_once(monkeypatch):
    """Eleven states over history blocks of one history each: one state
    stack and one support table serve every block, and every certificate
    is bit for bit the one-block call's."""
    m = pointer_model(2, np.random.default_rng(107), TOL)
    states = _grid_states(m.rho1, m.rho2)
    analysis = FamilyAnalysis(m.family, TOL)
    whole = self_decoherence_each(analysis, states)
    calls = {"_supports": 0, "_state_stack": 0}
    for name in calls:
        def counted(*args, original=getattr(mirror, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(mirror, name, counted)
    closed = []
    closure = mirror._least_projections
    monkeypatch.setattr(mirror, "_least_projections", lambda events, supports, tol: (
        closed.append(len(events)) or closure(events, supports, tol)))
    monkeypatch.setattr(matcore, "_BLOCK_BYTES",
                        3 * 16 * m.family.dim ** 2 * len(states))
    got = self_decoherence_each(analysis, states)
    assert calls == {"_supports": 1, "_state_stack": 1}
    assert closed == [1] * len(analysis.histories) and len(closed) >= 3
    for report, want in zip(got, whole):
        assert report.verdict == want.verdict
        assert list(report.per_history) == list(want.per_history)
        for label, cert in want.per_history.items():
            other = report.per_history[label]
            assert (other is None) == (cert is None), label
            if cert is not None:
                assert np.array_equal(other.mirror.matrix, cert.mirror.matrix)
                assert other.residual_m1 == cert.residual_m1
                assert other.residual_m2 == cert.residual_m2
                assert other.verified == cert.verified


def test_mirrors_are_stacked_once_per_support_group(monkeypatch):
    """Provided mirrors form one group whatever the states; least mirrors
    over a grid form one group per distinct support: the grid mixtures'
    and each component's."""
    m = pointer_model(2, np.random.default_rng(113), TOL)
    states = _grid_states(m.rho1, m.rho2)
    analysis = FamilyAnalysis(m.family, TOL)
    groups = []
    residuals = mirror._residuals
    monkeypatch.setattr(mirror, "_residuals", lambda mirrors, *rest: (
        groups.append(len(mirrors)) or residuals(mirrors, *rest)))
    provided = self_decoherence_each(analysis, states, m.provided_mirrors)
    assert groups == [1]
    groups.clear()
    searched = self_decoherence_each(analysis, states)
    assert groups == [3]
    for report in (*provided, *searched):
        assert report.verdict
    assert self_decoherence_each(analysis, []) == []


def _certified_cases():
    """Every certificate of the seeded pointer, generic, example-1 and
    partial-assignment cases, one state at a time and over the pointer
    models' 11 grid states."""
    for source in ("pointer", "generic", "example1", "partial"):
        for family, rho, provided in _batched_cases(source):
            report = check_self_decoherence(family, rho, provided, TOL)
            yield from (c for c in report.per_history.values() if c is not None)
            yield from (least_mirror(h, rho, TOL)
                        for h in elementary_histories(family))
    for spatial in (2, 3):
        m = pointer_model(spatial, np.random.default_rng(127), TOL)
        analysis = FamilyAnalysis(m.family, TOL)
        states = _grid_states(m.rho1, m.rho2)
        for provided in (m.provided_mirrors, None):
            for report in self_decoherence_each(analysis, states, provided):
                yield from report.per_history.values()


def test_residuals_equal_explicit_products():
    """``residual_m1`` is the commutator max-norm of one ``d x d`` product
    each way, bit for bit; ``residual_m2`` lies within 1e-15 of the defects
    of explicit products and traces."""
    count = 0
    for cert in _certified_cases():
        t, rho = cert.mirror.matrix, cert.state.matrix
        e1, e2 = (e.matrix for e in cert.history.events)
        assert cert.residual_m1 == (np.abs(t @ e1 - e1 @ t).max(),
                                    np.abs(t @ e2 - e2 @ t).max())
        te1 = np.trace(t @ e1 @ rho)
        np.testing.assert_allclose(
            cert.residual_m2, (abs(te1 - np.trace(t @ rho)),
                               abs(te1 - np.trace(e1 @ rho))), rtol=0, atol=1e-15)
        count += 1
    assert count > 300


@pytest.mark.parametrize("factor, verified", [(0.5, True), (2.0, False)])
def test_trace_defects_near_tol_prob(factor, verified):
    """A provided mirror that commutes exactly and misses ``Tr(t e1 rho) =
    Tr(t rho)`` by ``factor * tol.prob`` verifies iff the factor is below
    1, alone and inside an 11-state stack."""
    first = make_resolution([diag_proj(1, 0, 0), diag_proj(0, 1, 1)], TOL)
    second = make_resolution([diag_proj(1, 1, 0), diag_proj(0, 0, 1)], TOL)
    family = HistoryFamily((first, second))
    h = elementary_histories(family)[0]
    t = diag_proj(1, 1, 0)
    defect = factor * TOL.prob

    def state(p1, p2=0.25):
        return validate_density(np.diag([1.0 - p1 - p2, p1, p2]), TOL)

    edge = state(defect)
    alone = verify_mirror(t, h, edge, TOL)
    assert alone.verified is verified
    assert alone.residual_m1 == (0.0, 0.0)
    assert alone.residual_m2[0] == pytest.approx(defect, rel=1e-6)
    assert alone.residual_m2[1] <= 1e-15
    states = [state(p1) for p1 in np.linspace(0.0, 0.5, 10)]
    states.insert(5, edge)
    reports = self_decoherence_each(FamilyAnalysis(family, TOL), states,
                                    {h.label: t})
    got = reports[5].per_history[h.label]
    assert got.state is edge and got.verified is verified
    assert got.residual_m1 == alone.residual_m1
    assert got.residual_m2 == alone.residual_m2
    assert [r.per_history[h.label].verified for r in reports] == (
        [True] + [False] * 4 + [verified] + [False] * 5)


def test_supports_that_differ_at_tol_eig_are_closed_apart(monkeypatch):
    """A mixture weighted so close to 0 or 1 that an eigenvalue falls below
    ``tol.eig`` has only one component's support, a stray direction of
    weight just above ``tol.eig`` widens a support, and a support turned by
    1e-6 is another support: none of them joins the grid mixtures'
    closure, and every verdict is the one-state verdict."""
    rng = np.random.default_rng(103)
    m = pointer_model(2, rng, TOL)
    grid = [mixture(m.rho1, m.rho2, lam, TOL) for lam in (0.3, 0.7)]
    tiny = TOL.eig / 4.0
    near = [mixture(m.rho1, m.rho2, lam, TOL) for lam in (tiny, 1.0 - tiny)]
    stray = random_state(m.family.dim, rng)

    def outside(rho):
        v = stray - rho.matrix @ np.linalg.pinv(rho.matrix, hermitian=True) @ stray
        return v / np.linalg.norm(v)

    def plus(rho, v, weight):
        return validate_density((1.0 - weight) * rho.matrix
                                + weight * np.outer(v, v.conj()), TOL)

    # the edge state of the stacked-verdict tests, one of the mixtures'
    # rank with a stray direction outside supp rho1, and a grid-like state
    # whose second branch is turned by 1e-6 out of the grid's support
    psi2 = np.linalg.eigh(m.rho2.matrix)[1][:, -1]
    turned = psi2 + 1e-6 * outside(grid[0])
    apart = [plus(m.rho, stray, 2.0 * TOL.eig),
             plus(m.rho1, outside(m.rho1), 2.0 * TOL.eig),
             plus(m.rho1, turned / np.linalg.norm(turned), 0.5)]
    # the grid mixtures lead, so a smaller support inside theirs could join
    states = [*grid, *near, m.rho1, m.rho2, *apart]
    ranks = [int(np.count_nonzero(np.linalg.eigvalsh(r.matrix) > TOL.eig))
             for r in states]
    assert ranks == [2, 2, 1, 1, 1, 1, 2, 2, 2]
    analysis = FamilyAnalysis(m.family, TOL)
    for report, rho in zip(self_decoherence_each(analysis, states), states):
        _same_report(report, *self_decoherence_each(analysis, [rho]))
    for h in analysis.histories:
        certs = least_mirrors(h, states, TOL)
        shared, other, near2, near1, rho1, rho2, *rest = (c.mirror for c in certs)
        assert other is shared
        assert near2 is rho2 and near1 is rho1  # the support left at tol.eig
        assert len({id(t) for t in (shared, rho1, rho2, *rest)}) == 6
        for cert, rho in zip(certs, states):
            assert cert.state is rho
            _same_certificate(cert, least_mirror(h, rho, TOL))
    # the table of support distances, whole and one row per block
    stack = _state_stack(states, m.family.dim)
    bases, which = mirror._supports(stack, TOL)
    assert which == [0, 0, 1, 2, 2, 1, 3, 4, 5]
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 16 * stack.size)
    rows, which_rows = mirror._supports(stack, TOL)
    assert which_rows == which and np.array_equal(rows, bases)


def _turned(u, p):
    return validate_projection(u @ p.matrix @ u.conj().T, TOL)


def test_self_decoherence_is_invariant_under_a_change_of_basis():
    rng = np.random.default_rng(97)
    verdicts = set()
    cases = [case for source in ("pointer", "generic", "partial")
             for case in _batched_cases(source)]
    for family, rho, provided in cases:
        u = random_unitary(family.dim, rng)
        turned = HistoryFamily(tuple(
            make_resolution([_turned(u, e) for e in r.events], TOL)
            for r in family.resolutions))
        turned_rho = validate_density(u @ rho.matrix @ u.conj().T, TOL)
        turned_provided = {label: _turned(u, t)
                           for label, t in (provided or {}).items()}
        want = check_self_decoherence(family, rho, provided, TOL)
        got = check_self_decoherence(turned, turned_rho, turned_provided, TOL)
        assert list(got.per_history) == list(want.per_history)
        assert got.verdict == want.verdict
        for label, cert in want.per_history.items():
            other = got.per_history[label]
            assert (other is None) == (cert is None), label
            if cert is not None:
                assert other.verified == cert.verified
                assert other.mirror.rank == cert.mirror.rank
                np.testing.assert_allclose(
                    other.residual_m1 + other.residual_m2,
                    cert.residual_m1 + cert.residual_m2, rtol=0, atol=1e-12)
        verdicts.add(want.verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("entry", [
    "weak_each", "medium_each", "linear_positivity_each", "C1_each", "sum_rule_each",
    "self_decoherence_each", "self_decoherence_each/provided", "least_mirrors",
    "linear_positivity_property"])
def test_stacked_entry_points_decide_no_states_as_an_empty_list(entry):
    """An empty state list is zero states, not an error of the batching:
    every stacked entry point returns ``[]``."""
    m = pointer_model(2, np.random.default_rng(109), TOL)
    analysis = FamilyAnalysis(m.family, TOL)
    notions = {"weak_each": "weak", "medium_each": "medium",
               "linear_positivity_each": "linear-positive", "C1_each": "C1-compat",
               "sum_rule_each": "sum-rule"}
    calls = {
        "self_decoherence_each": lambda: self_decoherence_each(analysis, []),
        "self_decoherence_each/provided": lambda: self_decoherence_each(
            analysis, [], m.provided_mirrors),
        "least_mirrors": lambda: least_mirrors(analysis.histories[0], [], TOL),
        "linear_positivity_property": lambda: linear_positivity_property(
            m.family, TOL).evaluator([]),
    }
    assert (calls[entry] if entry in calls else
            lambda: analysis.reports(notions[entry], []))() == []
    assert _state_stack([], m.family.dim).shape == (0, m.family.dim, m.family.dim)
