"""Seeded generators: shape, validity, determinism."""

import numpy as np
import pytest

from qhistories.errors import BadParameters, DimensionMismatch, ValidationError
from qhistories.histories import HistoryFamily, elementary_histories, make_resolution
from qhistories.matcore import (
    DEFAULT_TOL,
    max_norm,
    validate_densities,
    validate_projection,
)
from qhistories.sampling import assemble_pointer_model

from random_instances import (
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


def reference_pointer_model(psi1, psi2, p1, p2, e2_matrix, tol):
    """What :func:`assemble_pointer_model` builds, one ``np.kron`` and one
    validation per operator, in its order (branch guards left out)."""
    psi1 = np.asarray(psi1, dtype=complex).reshape(-1)
    psi2 = np.asarray(psi2, dtype=complex).reshape(-1)
    s = psi1.size
    eye2, eye_s = np.eye(2, dtype=complex), np.eye(s, dtype=complex)
    e1 = validate_projection(np.kron(p1, eye2), tol)
    f1 = validate_projection(np.kron(p2, eye2), tol)
    e2 = validate_projection(e2_matrix, tol)
    t = validate_projection(np.kron(eye_s, np.diag([0.0, 1.0]).astype(complex)), tol)
    u = validate_projection(np.kron(eye_s, np.diag([1.0, 0.0]).astype(complex)), tol)
    psi = (np.kron(psi1, np.array([0.0, 1.0])) +
           np.kron(psi2, np.array([1.0, 0.0]))) / np.sqrt(2.0)
    slot1 = [e1, f1]
    rest = np.eye(2 * s, dtype=complex) - e1.matrix - f1.matrix
    if max_norm(rest) > tol.op:
        slot1.append(validate_projection(rest, tol))
    slot2 = [e2]
    comp = np.eye(2 * s, dtype=complex) - e2.matrix
    if max_norm(comp) > tol.op:
        slot2.append(validate_projection(comp, tol))
    family = HistoryFamily((make_resolution(slot1, tol), make_resolution(slot2, tol)))
    zero = validate_projection(np.zeros((2 * s, 2 * s), dtype=complex), tol)
    histories = elementary_histories(family)
    provided = {h.label: (t, u, zero)[i // len(slot2)] for i, h in enumerate(histories)}
    vectors = (psi, np.kron(psi1, [0.0, 1.0]), np.kron(psi2, [1.0, 0.0]))
    rhos = validate_densities([np.outer(v, v.conj()) for v in vectors], tol)
    return (psi, e1, f1, e2, t, u, family, histories[0], histories[len(slot2)],
            provided, rhos)


def pointer_bytes(psi, e1, f1, e2, t, u, family, h1, h2, provided, rhos):
    """Every array and number of a pointer model, as bytes and reprs."""
    def op(p):
        return (p.matrix.dtype.str, p.matrix.tobytes(), p.rank,
                repr(p.hermiticity_residual), repr(p.idempotency_residual))
    return (psi.tobytes(), [op(p) for p in (e1, f1, e2, t, u)],
            [(repr(r.overlap), [op(e) for e in r.events]) for r in family.resolutions],
            [(h.label, [op(e) for e in h.events]) for h in (h1, h2)],
            [(label, op(p)) for label, p in provided.items()],
            [(r.matrix.tobytes(), repr(r.purity), repr(r.eigenvalue_floor),
              repr(r.trace_residual)) for r in rhos])


def pointer_ingredients(spatial, rng, full_branches=False, final_identity=False):
    """Branch vectors, branch events and a record-diagonal final event; the
    branch events span the spatial factor when ``full_branches`` (no
    ``rest``), and the final event is the identity when ``final_identity``
    (no complement)."""
    v = random_unitary(spatial, rng)
    cols1 = [0, *range(2, 1 + spatial // 2)] if full_branches else [0]
    cols2 = [c for c in range(1, spatial) if c not in cols1] if full_branches else [1]
    p1 = v[:, cols1] @ v[:, cols1].conj().T
    p2 = v[:, cols2] @ v[:, cols2].conj().T
    if final_identity:
        e2 = np.eye(2 * spatial, dtype=complex)
    else:
        q0 = random_projection(spatial, rng, rank=1, tol=TOL).matrix
        q1 = random_projection(spatial, rng, rank=spatial - 1, tol=TOL).matrix
        e2 = (np.kron(q0, np.diag([1.0, 0.0])) + np.kron(q1, np.diag([0.0, 1.0])))
    return v[:, 0], v[:, 1], p1, p2, e2


@pytest.mark.parametrize("spatial", [2, 3, 4])
@pytest.mark.parametrize("full_branches", [False, True])
@pytest.mark.parametrize("final_identity", [False, True])
def test_assemble_pointer_model_matches_the_per_operator_construction(
        spatial, full_branches, final_identity):
    """One stacked validation and broadcast Kronecker products build the
    model of one ``np.kron`` and one validation per operator, byte for byte,
    with and without slot 1's ``rest`` and slot 2's complement."""
    rng = np.random.default_rng(100 * spatial + 10 * full_branches + final_identity)
    ingredients = pointer_ingredients(spatial, rng, full_branches, final_identity)
    m = assemble_pointer_model(*ingredients, TOL)
    want = reference_pointer_model(*ingredients, TOL)
    assert pointer_bytes(m.psi, m.e1, m.f1, m.e2, m.t, m.u, m.family, m.h1, m.h2,
                         m.provided_mirrors, (m.rho, m.rho1, m.rho2)) == pointer_bytes(*want)
    sizes = [len(r) for r in m.family.resolutions]
    has_rest = not full_branches and spatial > 2
    assert sizes == [2 + has_rest, 2 - final_identity]


def test_assemble_pointer_model_raises_what_each_operator_raises_alone():
    """A bad ``p1``, ``p2``, final event, or ``rest`` (overlapping branch
    events) raises the class, message and residual of the per-operator
    construction; the first bad operator in its order is the one named."""
    psi1, psi2, p1, p2, e2 = pointer_ingredients(3, np.random.default_rng(7))
    skew = np.triu(np.ones((3, 3)))
    skew2 = np.triu(np.ones((6, 6)))
    cases = [
        (skew, p2, e2), (0.5 * p1, p2, e2),  # e1
        (p1, skew, e2), (p1, 0.5 * p2, e2),  # f1
        (p1, p2, skew2), (p1, p2, 0.5 * e2),  # e2
        (p1, p1 + p2, e2),  # f1 overlaps e1: rest is not idempotent
        (p1, p1, e2),  # rest = 1 - 2 e1 is not idempotent
        (0.5 * p1, skew, skew2),  # three bad: e1's error
        (p1, p1, 0.5 * e2),  # e2 before rest
    ]
    for k, (a, b, c) in enumerate(cases):
        with pytest.raises(ValidationError) as want:
            reference_pointer_model(psi1, psi2, a, b, c, TOL)
        with pytest.raises(ValidationError) as got:
            assemble_pointer_model(psi1, psi2, a, b, c, TOL)
        assert (type(got.value), str(got.value), got.value.residual) == (
            type(want.value), str(want.value), want.value.residual), k
    with pytest.raises(DimensionMismatch):  # where products used to fail to broadcast
        assemble_pointer_model(psi1, psi2, p1, p2, e2[:4, :4], TOL)


@pytest.mark.parametrize("seed", range(4))
def test_pointer_model_resolutions_are_checked_as_each_slot_alone(seed):
    """Both slots, of two or three events and of one or two, checked in one
    zero-padded call, keep the overlap each gives alone, bit for bit."""
    rng = np.random.default_rng(seed)
    sizes = set()
    for spatial, rank in ((2, 1), (3, 1), (4, 2), (4, 1), (5, 2)):
        m = pointer_model(spatial, rng, TOL, branch_rank=rank)
        sizes.add(tuple(len(r) for r in m.family.resolutions))
        assert [r.overlap for r in m.family.resolutions] == [
            make_resolution(r.events, TOL).overlap for r in m.family.resolutions]
    assert any(a != b for a, b in sizes)
