"""The two built-in instances and their closed forms."""

import numpy as np
import pytest

from qhistories import scenarios
from qhistories.consistency import (
    check_medium_decoherence,
    check_weak_decoherence,
    decoherence_functional,
    probability,
)
from qhistories.errors import BadParameters
from qhistories.histories import elementary_histories
from qhistories.matcore import DEFAULT_TOL, max_norm
from qhistories.scenarios import (
    build_example1,
    build_example1_grid,
    build_example2,
    example1_decoherence_expected,
    example1_expected,
    linear_positivity_expected,
    linear_positivity_range_note,
    linear_positivity_violation_possible,
)

TOL = DEFAULT_TOL


def test_example1_parameter_guards():
    for theta in (0.0, np.pi, -0.5, 4.0):
        with pytest.raises(BadParameters):
            build_example1(theta)
    with pytest.raises(BadParameters):
        build_example1(1.0, dim=1)


def test_example1_grid_builds_every_instance_of_a_one_value_build(monkeypatch):
    """A grid validates its 4F events in one stacked call and its F coarse
    events in another, and each instance holds the matrices, labels and
    angles of its one-value build, bit for bit."""
    angles = [(0.3, None), (1.2, 0.4), (np.pi / 2, np.pi), (2.9, -1.0)]
    sizes, validate = [], scenarios.validate_projections
    monkeypatch.setattr(scenarios, "validate_projections", lambda stack, tol: (
        sizes.append(len(stack)) or validate(stack, tol)))
    grid = build_example1_grid(angles, 4, TOL)
    assert sizes == [16, 4]
    monkeypatch.undo()

    def parts(inst):
        return [inst.theta, inst.alpha, inst.h1.label, inst.h2.label,
                inst.h_coarse.label, *(e.matrix.tobytes() for h in (
                    inst.h1, inst.h2, inst.h_coarse) for e in h.events),
                *(e.matrix.tobytes() for r in inst.family.resolutions
                  for e in r.events),
                *(rho.matrix.tobytes() for rho in (inst.rho1, inst.rho2, inst.rho))]
    for inst, (theta, alpha) in zip(grid, angles, strict=True):
        assert parts(inst) == parts(build_example1(theta, alpha, 4, TOL))
    with pytest.raises(BadParameters, match=r"^theta 3\.5 is not"):
        build_example1_grid([(1.0, None), (3.5, None), (-1.0, None)])
    with pytest.raises(BadParameters, match="dimension 1"):
        build_example1_grid([(4.0, None)], dim=1)
    with pytest.raises(BadParameters, match=r"^alpha inf is not finite"):
        build_example1_grid([(1.0, None), (1.0, float("inf")), (3.5, None)])
    with pytest.raises(BadParameters, match=r"^alpha nan is not finite"):
        build_example1(1.0, float("nan"))


def test_example1_second_event_matrix_at_pi_third():
    inst = build_example1(np.pi / 3)
    s3 = np.sqrt(3.0) / 4.0
    block = np.array([[0.75, -1j * s3], [1j * s3, 0.25]])
    assert max_norm(inst.e2.matrix[:2, :2] - block) <= 1e-12
    assert max_norm(inst.e2.matrix[2:, :]) == 0.0
    assert max_norm(inst.e2.matrix[:, 2:]) == 0.0


def test_example1_alpha_defaults_to_half_pi():
    a = build_example1(0.9)
    b = build_example1(0.9, np.pi / 2.0)
    assert a.alpha == pytest.approx(np.pi / 2.0)
    assert max_norm(a.e2.matrix - b.e2.matrix) == 0.0


def test_example1_expected_matches_matrices():
    for theta in (0.3, 1.1, np.pi / 2, 2.7):
        inst = build_example1(theta)
        exp = example1_expected(theta)
        assert probability(inst.h1, inst.rho1) == pytest.approx(
            exp.p_h1, abs=1e-12)
        assert probability(inst.h2, inst.rho1) == pytest.approx(
            exp.p_h2, abs=1e-12)
        assert probability(inst.h_coarse, inst.rho1) == pytest.approx(
            exp.p_coarse, abs=1e-12)
        d = decoherence_functional(inst.h1, inst.h2, inst.rho1)
        assert d.real == pytest.approx(exp.weak_residual_rho1, abs=1e-12)


def test_example1_probabilities_do_not_depend_on_the_state_choice():
    """At the default angle the two elementary probabilities pin to 1/4
    whichever of the three states is used; at a general angle they move
    to (1 +- sin(theta) cos(alpha)) / 4 but stay state independent."""
    inst = build_example1(1.7)
    for rho in (inst.rho, inst.rho1, inst.rho2):
        assert probability(inst.h1, rho) == pytest.approx(0.25, abs=1e-12)
        assert probability(inst.h2, rho) == pytest.approx(0.25, abs=1e-12)
    skewed = build_example1(1.7, 0.4)
    p1 = (1.0 + np.sin(1.7) * np.cos(0.4)) / 4.0
    p2 = (1.0 - np.sin(1.7) * np.cos(0.4)) / 4.0
    for rho in (skewed.rho, skewed.rho1, skewed.rho2):
        assert probability(skewed.h1, rho) == pytest.approx(p1, abs=1e-12)
        assert probability(skewed.h2, rho) == pytest.approx(p2, abs=1e-12)


def test_example1_branch_weak_verdict_flips_only_at_the_right_angle():
    assert check_weak_decoherence(build_example1(np.pi / 2).family,
                                  build_example1(np.pi / 2).rho1,
                                  TOL).verdict
    for theta in (np.pi / 2 - 0.3, np.pi / 2 + 0.3):
        inst = build_example1(theta)
        assert not check_weak_decoherence(inst.family, inst.rho1,
                                          TOL).verdict


def test_example1_decoherence_functional_opposes_on_branches():
    inst = build_example1(1.2, 0.8)
    d1 = decoherence_functional(inst.h1, inst.h2, inst.rho1)
    d2 = decoherence_functional(inst.h1, inst.h2, inst.rho2)
    assert d1 == pytest.approx(-d2, abs=1e-12)
    assert d1 == pytest.approx(example1_decoherence_expected(1.2, 0.8),
                               abs=1e-12)


def test_example1_equal_mixture_is_medium_for_random_second_events():
    """The equal mixture is block-proportional to the identity where the
    first event lives, so the functional is diagonal for any second event."""
    rng = np.random.default_rng(41)
    for trial in range(100):
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        inst = build_example1(theta, float(rng.uniform(0.0, 2.0 * np.pi)))
        report = check_medium_decoherence(inst.family, inst.rho, TOL)
        assert report.verdict, trial
        assert report.worst_residual <= 1e-9


def test_example1_respects_the_dimension_parameter():
    inst = build_example1(1.3, dim=6)
    assert inst.rho.dim == 6
    assert probability(inst.h1, inst.rho1) == pytest.approx(0.25, abs=1e-12)
    with_pad = build_example1(1.3, dim=3)
    assert max_norm(inst.e2.matrix[:3, :3] - with_pad.e2.matrix) <= 1e-15


def test_linear_positivity_range_helpers_agree():
    assert not linear_positivity_violation_possible(np.pi / 2)
    assert linear_positivity_violation_possible(np.pi / 2 + 1e-6)
    assert "pi/2" in linear_positivity_range_note(2.0)
    assert "pi/2" in linear_positivity_range_note(1.0)
    lo = linear_positivity_expected(1.0, np.pi)
    assert lo >= 0.0
    hi = linear_positivity_expected(2.0, np.pi)
    assert hi < 0.0


def test_example2_parameter_guards():
    with pytest.raises(BadParameters):
        build_example2(spatial_dim=1)
    for delta in ((), (0,), (3,), (1, 1)):
        with pytest.raises(BadParameters):
            build_example2(spatial_dim=2, delta=delta)


def test_example2_geometry():
    m = build_example2()
    assert m.dim == 4
    assert m.rho.is_pure
    assert np.linalg.norm(m.psi) == pytest.approx(1.0, abs=1e-12)
    assert max_norm(m.e1.matrix @ m.f1.matrix) <= 1e-15
    labels = [h.label for h in elementary_histories(m.family)]
    assert set(m.provided_mirrors) == set(labels)
    assert m.h1.events[0] is m.e1
    assert m.h2.events[0] is m.f1


def test_example2_full_detector_gives_certain_second_event():
    m = build_example2(spatial_dim=2, delta=(1, 2))
    assert max_norm(m.e2.matrix - np.eye(4)) <= 1e-15
    assert probability(m.h1, m.rho) == pytest.approx(0.5, abs=1e-12)
    assert probability(m.h2, m.rho) == pytest.approx(0.5, abs=1e-12)


def test_example2_detector_away_from_the_slits_kills_both_histories():
    m = build_example2(spatial_dim=4, delta=(3, 4))
    assert probability(m.h1, m.rho) <= 1e-15
    assert probability(m.h2, m.rho) <= 1e-15


def test_example2_extra_spatial_sector_gets_a_zero_mirror():
    m = build_example2(spatial_dim=3, delta=(1,))
    labels = [h.label for h in elementary_histories(m.family)]
    assert any(lab.startswith("(3,") for lab in labels)
    third = next(lab for lab in labels if lab.startswith("(3,"))
    assert m.provided_mirrors[third].rank == 0


def test_example2_random_detector_projections_stay_consistent():
    rng = np.random.default_rng(43)
    for trial in range(20):
        spatial = int(rng.integers(2, 5))
        m = build_example2(spatial_dim=spatial,
                           delta=tuple(
                               int(x) + 1 for x in rng.choice(
                                   spatial, size=int(rng.integers(1, spatial)),
                                   replace=False)))
        p1 = probability(m.h1, m.rho)
        p2 = probability(m.h2, m.rho)
        p_e2 = float(np.trace(m.e2.matrix @ m.rho.matrix).real)
        assert p1 + p2 == pytest.approx(p_e2, abs=1e-12), trial
