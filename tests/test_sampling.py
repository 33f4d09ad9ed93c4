"""Seeded generators: shape, validity, determinism."""

import numpy as np
import pytest

from qhistories.errors import BadParameters
from qhistories.histories import elementary_histories
from qhistories.matcore import DEFAULT_TOL, max_norm
from qhistories.sampling import (
    assemble_pointer_model,
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

TOL = DEFAULT_TOL


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 5, 8):
        u = random_unitary(dim, rng)
        assert max_norm(u @ u.conj().T - np.eye(dim)) <= 1e-12


def test_random_state_is_normalized():
    rng = np.random.default_rng(2)
    for dim in (2, 4, 7):
        psi = random_state(dim, rng)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_random_projection_ranks():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5):
        for rank in range(dim + 1):
            p = random_projection(dim, rng, rank=rank, tol=TOL)
            assert p.rank == rank
        p = random_projection(dim, rng, tol=TOL)
        assert 1 <= p.rank <= dim


def test_random_densities_are_valid():
    rng = np.random.default_rng(4)
    for trial in range(20):
        dim = int(rng.integers(2, 6))
        rho = random_density(dim, rng, tol=TOL)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w.min() >= -1e-10, trial
        pure = random_pure_density(dim, rng, tol=TOL)
        assert pure.is_pure


def test_random_resolution_needs_a_partition():
    rng = np.random.default_rng(5)
    r = random_resolution(5, (2, 1, 2), rng, TOL)
    assert [e.rank for e in r.events] == [2, 1, 2]
    with pytest.raises(BadParameters):
        random_resolution(5, (2, 2), rng, TOL)
    with pytest.raises(BadParameters):
        random_resolution(5, (5, 0), rng, TOL)


def test_random_family_shape_and_guards():
    rng = np.random.default_rng(6)
    family = random_family(4, 3, rng, TOL)
    assert family.length == 3
    assert family.dim == 4
    with pytest.raises(BadParameters):
        random_family(1, 2, rng, TOL)


def test_random_commuting_events_commute():
    rng = np.random.default_rng(7)
    for trial in range(20):
        dim = int(rng.integers(2, 6))
        p, q = random_commuting_events(dim, rng, TOL)
        assert max_norm(p.matrix @ q.matrix - q.matrix @ p.matrix) <= 1e-12
        assert 0 < p.rank < dim
        assert 0 < q.rank < dim


def test_generators_are_deterministic_under_the_seed():
    a = random_unitary(4, np.random.default_rng(99))
    b = random_unitary(4, np.random.default_rng(99))
    assert max_norm(a - b) == 0.0
    m1 = pointer_model(3, np.random.default_rng(100), TOL)
    m2 = pointer_model(3, np.random.default_rng(100), TOL)
    assert max_norm(m1.e2.matrix - m2.e2.matrix) == 0.0
    assert max_norm(m1.rho.matrix - m2.rho.matrix) == 0.0


def test_pointer_model_structure():
    rng = np.random.default_rng(8)
    for trial in range(20):
        spatial = int(rng.integers(2, 6))
        m = pointer_model(spatial, rng, TOL)
        assert m.dim == 2 * spatial
        assert m.rho.is_pure
        assert np.vdot(m.psi1, m.psi2) == pytest.approx(0.0, abs=1e-12)
        labels = {h.label for h in elementary_histories(m.family)}
        assert set(m.provided_mirrors) == labels, trial
        for h in elementary_histories(m.family):
            first, got = h.events[0], m.provided_mirrors[h.label]
            want = m.t if first is m.e1 else m.u if first is m.f1 else None
            assert got is want if want else got.rank == 0, (trial, h.label)
        assert m.h1.events == (m.e1, m.e2) and m.h2.events == (m.f1, m.e2)


def test_pointer_model_with_wider_branches():
    rng = np.random.default_rng(9)
    m = pointer_model(5, rng, TOL, branch_rank=2)
    assert m.e1.rank == 2 * 2  # spatial rank times the record identity
    assert m.rho.is_pure


def test_assemble_pointer_model_rejects_bad_branches():
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    e2 = np.eye(4)
    braid = np.array([1.0, 0.0])
    with pytest.raises(BadParameters):
        assemble_pointer_model(braid, braid, p1, p2, e2, TOL)  # parallel
    with pytest.raises(BadParameters):
        assemble_pointer_model(2.0 * braid, np.array([0.0, 1.0]),
                               p1, p2, e2, TOL)  # unnormalized
