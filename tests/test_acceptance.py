"""Acceptance gate: ten criteria, one test and one printed line each.

Numeric bounds are pinned in the asserts; seeds are fixed so reruns are
bit-identical.  Later criteria reuse certificates collected by earlier
ones when the whole file runs in order, and regenerate a baseline set
when run in isolation.
"""

import numpy as np

from qhistories.cli import main
from qhistories.cli.files import ReportFile
from qhistories.consistency import (
    check_C1_compatibility,
    check_linear_positivity,
    check_medium_decoherence,
    check_sum_rule,
    check_weak_decoherence,
    probability,
)
from qhistories.histories import History, HistoryFamily, chain_operator
from qhistories.individuality import (
    DEFAULT_LAMBDA_GRID,
    individuality_violation_search,
    linear_positivity_property,
    medium_decoherence_property,
    mirror_component_decomposition,
    self_decoherence_property,
    weak_decoherence_property,
)
from qhistories.matcore import DEFAULT_TOL, validate_density
from qhistories.mirror import (
    check_self_decoherence,
    contrary_bound_check,
    occurrence_probability,
    proposition1_check,
    verify_mirror,
)
from qhistories.scenarios import (
    build_example1,
    build_example2,
    linear_positivity_expected,
    linear_positivity_violation_possible,
)

from random_instances import (
    pointer_model,
    random_commuting_events,
    random_density,
    random_family,
    random_projection,
)

TOL = DEFAULT_TOL

# (history, mirror, state) triples from verified certificates, consumed
# by criterion 9
CERTIFICATES = []


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_example1_reference_point():
    inst = build_example1(np.pi / 3.0)
    p1 = probability(inst.h1, inst.rho1)
    p2 = probability(inst.h2, inst.rho1)
    pc = probability(inst.h_coarse, inst.rho1)
    weak1 = check_weak_decoherence(inst.family, inst.rho1, TOL)
    weak2 = check_weak_decoherence(inst.family, inst.rho2, TOL)
    ok = (abs(p1 - 0.25) <= 1e-9 and abs(p2 - 0.25) <= 1e-9
          and abs(pc - 0.75) <= 1e-9
          and not weak1.verdict and not weak2.verdict
          and abs(weak1.worst_residual - 0.125) <= 1e-9
          and abs(weak2.worst_residual - 0.125) <= 1e-9)
    assert _report(
        1, ok,
        f"p(h1)={p1:.12f} p(h2)={p2:.12f} p(h1+h2)={pc:.12f} "
        f"weak residuals {weak1.worst_residual:.12f}/"
        f"{weak2.worst_residual:.12f} on both branches")


def test_criterion_02_equal_mixture_decoheres_for_random_second_events():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for trial in range(100):
        inst = build_example1(float(rng.uniform(0.05, np.pi - 0.05)))
        second = random_projection(3, rng, rank=int(rng.integers(1, 3)),
                                   tol=TOL)
        from qhistories.histories import make_resolution
        from qhistories.matcore import validate_projection
        comp = validate_projection(np.eye(3) - second.matrix, TOL)
        family = HistoryFamily((inst.family.resolutions[0],
                                make_resolution([second, comp], TOL)))
        weak = check_weak_decoherence(family, inst.rho, TOL)
        medium = check_medium_decoherence(family, inst.rho, TOL)
        if not (weak.verdict and medium.verdict):
            break
        worst = max(worst, weak.worst_residual, medium.worst_residual)
        count += 1
    ok = count == 100 and worst <= 1e-9
    assert _report(
        2, ok,
        f"{count}/100 random second events weak+medium on the equal "
        f"mixture, worst residual {worst:.3e}")


def test_criterion_03_linear_positivity_closed_form_and_range(tmp_path):
    thetas = np.linspace(0.05, np.pi - 0.05, 20)
    alphas = np.linspace(0.0, 2.0 * np.pi, 20)
    worst_gap = 0.0
    for theta in thetas:
        for alpha in alphas:
            inst = build_example1(float(theta), float(alpha))
            matrix_side = float(np.trace(
                chain_operator(inst.h1) @ inst.rho1.matrix).real)
            closed = linear_positivity_expected(float(theta), float(alpha))
            worst_gap = max(worst_gap, abs(matrix_side - closed))
    inst = build_example1(2.0, np.pi)
    report = check_linear_positivity(inst.family, inst.rho1, TOL)
    violation = -report.worst_residual
    out = tmp_path / "example1.json"
    main(["example1", "--theta", "2.0", "--alpha", str(np.pi),
          "--state", "rho1", "--format", "report", "--out", str(out)])
    notes = ReportFile.loads(out.read_text()).notes
    flagged = any("pi/2" in n and "theta" in n for n in notes)
    lower_range_clean = all(
        linear_positivity_expected(float(t), float(a)) >= -1e-12
        for t in thetas if t <= np.pi / 2.0 for a in alphas)
    ok = (worst_gap <= 1e-9 and not report.verdict
          and abs(violation - (-0.0814)) <= 1e-3 and flagged
          and lower_range_clean
          and not linear_positivity_violation_possible(np.pi / 2.0 - 1e-9))
    assert _report(
        3, ok,
        f"closed-form gap {worst_gap:.3e} on the 20x20 grid, violation "
        f"{violation:.6f} at (2.0, pi), range discrepancy flagged: {flagged}")


def test_criterion_04_witnesses_exist_but_never_for_self_decoherence():
    inst = build_example1(np.pi / 3.0)
    weak_w = individuality_violation_search(
        weak_decoherence_property(inst.family, TOL),
        inst.rho1, inst.rho2, DEFAULT_LAMBDA_GRID, TOL)
    medium_w = individuality_violation_search(
        medium_decoherence_property(inst.family, TOL),
        inst.rho1, inst.rho2, DEFAULT_LAMBDA_GRID, TOL)
    upper = build_example1(2.0, np.pi)
    linpos_w = individuality_violation_search(
        linear_positivity_property(upper.family, TOL),
        upper.rho1, upper.rho2, DEFAULT_LAMBDA_GRID, TOL)
    have_half = all(any(w.lam == 0.5 for w in ws)
                    for ws in (weak_w, medium_w, linpos_w))

    rng = np.random.default_rng(4004)
    self_dec_witnesses = 0
    instances = 0
    for trial in range(200):
        m = pointer_model(int(rng.integers(2, 4)), rng, TOL)
        prop = self_decoherence_property(m.family, TOL,
                                         provided=m.provided_mirrors)
        found = individuality_violation_search(prop, m.rho1, m.rho2,
                                               DEFAULT_LAMBDA_GRID, TOL)
        self_dec_witnesses += len(found)
        instances += 1
        sd = check_self_decoherence(m.family, m.rho, m.provided_mirrors, TOL)
        for cert in sd.per_history.values():
            if cert is not None and cert.verified:
                CERTIFICATES.append((cert.history, cert.mirror, m.rho))
    ok = have_half and self_dec_witnesses == 0 and instances == 200
    assert _report(
        4, ok,
        f"weak/medium/linear-positive witnesses at lam=1/2: {have_half}, "
        f"self-decoherence witnesses over {instances} pointer instances: "
        f"{self_dec_witnesses}")


def test_criterion_05_mirror_component_traces_vanish():
    rng = np.random.default_rng(5005)
    worst = 0.0
    count = 0
    for trial in range(500):
        m = pointer_model(int(rng.integers(2, 5)), rng, TOL)
        lam = float(rng.uniform(0.05, 0.95))
        report = mirror_component_decomposition(m.t, m.e1, m.rho1, m.rho2,
                                                lam, TOL)
        if not report.passed:
            break
        worst = max(worst, report.max_abs)
        count += 1
    ok = count == 500 and worst <= 1e-8
    assert _report(
        5, ok,
        f"{count}/500 component splits, worst trace magnitude {worst:.3e}")


def test_criterion_06_proposition_holds_on_pointer_models():
    m = build_example2()
    cert_t = verify_mirror(m.t, m.h1, m.rho, TOL)
    cert_u = verify_mirror(m.u, m.h2, m.rho, TOL)
    sd = check_self_decoherence(m.family, m.rho, m.provided_mirrors, TOL)
    prop = proposition1_check(m.t, m.u, m.h1, m.h2, m.psi, TOL)
    base_ok = (cert_t.verified and cert_u.verified
               and max(*cert_t.residual_m1, *cert_t.residual_m2) <= 1e-12
               and max(*cert_u.residual_m1, *cert_u.residual_m2) <= 1e-12
               and sd.verdict
               and prop.cross_term_residual <= 1e-9
               and prop.orthogonality_residual <= 1e-9
               and prop.join_additivity_residual <= 1e-9)
    CERTIFICATES.append((m.h1, m.t, m.rho))
    CERTIFICATES.append((m.h2, m.u, m.rho))

    rng = np.random.default_rng(6006)
    worst = 0.0
    count = 0
    for trial in range(500):
        inst = pointer_model(int(rng.integers(2, 5)), rng, TOL)
        ct = verify_mirror(inst.t, inst.h1, inst.rho, TOL)
        cu = verify_mirror(inst.u, inst.h2, inst.rho, TOL)
        p = proposition1_check(inst.t, inst.u, inst.h1, inst.h2, inst.psi,
                               TOL)
        if not (ct.verified and cu.verified and p.passed):
            break
        worst = max(worst, p.orthogonality_residual,
                    p.join_additivity_residual, p.cross_term_residual)
        count += 1
        CERTIFICATES.append((inst.h1, inst.t, inst.rho))
        CERTIFICATES.append((inst.h2, inst.u, inst.rho))
    ok = base_ok and count == 500 and worst <= 1e-9
    assert _report(
        6, ok,
        f"two-slit mirrors and join additivity exact, {count}/500 random "
        f"pointer instances, worst residual {worst:.3e}")


def test_criterion_07_contrary_bound_on_self_decohering_pairs():
    rng = np.random.default_rng(7007)
    count = 0
    worst_excess = -1.0
    for trial in range(300):
        m = pointer_model(int(rng.integers(2, 5)), rng, TOL)
        cert_t = verify_mirror(m.t, m.h1, m.rho, TOL)
        cert_u = verify_mirror(m.u, m.h2, m.rho, TOL)
        report = contrary_bound_check(m.h1, m.h2, (cert_t, cert_u), m.rho,
                                      TOL)
        bound_ok = report.p_h1 + report.p_h2 <= report.p_e2 + 1e-9
        cond_ok = (report.conditional_sum is None
                   or report.conditional_sum <= 1.0 + 1e-9)
        if not (report.passed and bound_ok and cond_ok):
            break
        worst_excess = max(worst_excess,
                           report.p_h1 + report.p_h2 - report.p_e2)
        count += 1
    ok = count == 300
    assert _report(
        7, ok,
        f"{count}/300 self-decohering pairs obey the additive bound, "
        f"worst excess {worst_excess:.3e}")


def test_criterion_08_weak_verdict_equals_sum_rule_verdict():
    rng = np.random.default_rng(8008)
    agree = 0
    holds = 0
    total = 0
    for trial in range(120):
        dim = int(rng.integers(2, 5))
        slots = int(rng.integers(2, 4))
        family = random_family(dim, slots, rng, TOL,
                               max_blocks=3 if slots == 2 else 2)
        rho = random_density(dim, rng, tol=TOL)
        weak = check_weak_decoherence(family, rho, TOL)
        rule = check_sum_rule(family, rho, TOL)
        total += 1
        agree += weak.verdict == rule.verdict
        holds += weak.verdict
    for trial in range(40):
        inst = build_example1(float(rng.uniform(0.05, np.pi - 0.05)),
                              float(rng.uniform(0.0, 2.0 * np.pi)))
        weak = check_weak_decoherence(inst.family, inst.rho, TOL)
        rule = check_sum_rule(inst.family, inst.rho, TOL)
        total += 1
        agree += weak.verdict == rule.verdict
        holds += weak.verdict
    for trial in range(40):
        # dim 4 would have (2**4 - 1)**2 = 225 members, above the cap
        dim = int(rng.integers(2, 4))
        basis = np.eye(dim)
        from qhistories.histories import make_resolution
        from qhistories.matcore import validate_projection
        events = [validate_projection(np.outer(basis[k], basis[k]), TOL)
                  for k in range(dim)]
        r = make_resolution(events, TOL)
        family = HistoryFamily((r, r))
        weights = rng.dirichlet(np.ones(dim))
        rho = validate_density(np.diag(weights), TOL)
        weak = check_weak_decoherence(family, rho, TOL)
        rule = check_sum_rule(family, rho, TOL)
        total += 1
        agree += weak.verdict == rule.verdict
        holds += weak.verdict
    ok = total == 200 and agree == 200 and holds >= 40
    assert _report(
        8, ok,
        f"verdicts agree on {agree}/{total} sampled pairs "
        f"({holds} weakly decohering, so agreement is two-sided)")


def test_criterion_09_occurrence_triple_identity():
    if not CERTIFICATES:
        rng = np.random.default_rng(9009)
        for trial in range(100):
            m = pointer_model(int(rng.integers(2, 5)), rng, TOL)
            CERTIFICATES.append((m.h1, m.t, m.rho))
            CERTIFICATES.append((m.h2, m.u, m.rho))
    worst = 0.0
    count = 0
    for h, t, rho in CERTIFICATES:
        occ = occurrence_probability(h, t, rho, TOL)
        gap = max(abs(occ.via_mirror.real - occ.via_chain),
                  abs(occ.via_first_event.real - occ.via_chain),
                  abs(occ.via_mirror.imag), abs(occ.via_first_event.imag))
        worst = max(worst, gap)
        count += 1
    ok = count > 0 and worst <= 1e-9
    assert _report(
        9, ok,
        f"triple identity within {worst:.3e} on {count} verified "
        f"certificates")


def test_criterion_10_commuting_histories_match_the_product_trace():
    rng = np.random.default_rng(1010)
    worst = 0.0
    count = 0
    for trial in range(500):
        dim = int(rng.integers(2, 7))
        p, q = random_commuting_events(dim, rng, TOL)
        rho = random_density(dim, rng, tol=TOL)
        h = History((p, q))
        if not check_C1_compatibility(h, rho, TOL):
            break
        product = float(np.trace(q.matrix @ p.matrix @ rho.matrix).real)
        gap = abs(probability(h, rho) - product)
        worst = max(worst, gap)
        count += 1
    ok = count == 500 and worst <= 1e-9
    assert _report(
        10, ok,
        f"{count}/500 commuting pairs, worst probability gap {worst:.3e}")
