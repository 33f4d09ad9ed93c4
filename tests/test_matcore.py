"""Operator layer: validation, lattice operations, decompositions."""

import numpy as np
import pytest

from qhistories.errors import (
    DimensionMismatch,
    NotHermitian,
    NotIdempotent,
    NotPositive,
    TraceNotOne,
)
from qhistories.matcore import (
    DEFAULT_TOL,
    Tolerances,
    commutator,
    complement,
    identity_projection,
    is_orthogonal,
    join,
    max_norm,
    projection_leq,
    projector_onto,
    validate_densities,
    validate_density,
    validate_projection,
    validate_projections,
    zero_projection,
)

from mirror_reference import commutant_basis, hermitian_basis, spectral_decomposition

TOL = DEFAULT_TOL


def haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_projection(dim, rank, rng):
    u = haar_unitary(dim, rng)
    cols = u[:, :rank]
    return validate_projection(cols @ cols.conj().T, TOL)


def test_default_tolerances():
    assert TOL.op == 1e-10
    assert TOL.eig == 1e-8
    assert TOL.prob == 1e-9


def test_tolerances_reject_bad_values():
    with pytest.raises(ValueError):
        Tolerances(op=0.0)
    with pytest.raises(ValueError):
        Tolerances(op=1e-6, prob=1e-9)


def test_validate_projection_accepts_rank_one():
    p = validate_projection(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert p.rank == 1
    assert p.dim == 2


def test_validate_projection_rejects_non_hermitian():
    m = np.array([[1.0, 0.3], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        validate_projection(m)


def test_validate_projection_rejects_non_idempotent():
    with pytest.raises(NotIdempotent) as exc:
        validate_projection(np.diag([1.0, 0.5]))
    assert exc.value.residual == pytest.approx(0.25)


def test_stacked_validation_matches_one_at_a_time():
    rng = np.random.default_rng(17)
    stack = [haar_projection(4, r, rng).matrix for r in (0, 1, 2, 4)]
    stack.append(stack[1] + 1e-12 * np.eye(4))  # passes within tol.op
    for got, m in zip(validate_projections(stack, TOL), stack):
        want = validate_projection(m, TOL)
        assert np.array_equal(got.matrix, want.matrix)
        assert not got.matrix.flags.writeable
        assert got.rank == want.rank
        assert got.hermiticity_residual == want.hermiticity_residual
        assert got.idempotency_residual == want.idempotency_residual


def test_stacked_validation_raises_for_the_first_failing_matrix():
    good = np.diag([1.0, 0.0])
    cases = (([good, np.diag([1.0, 0.5]), np.array([[1.0, 0.3], [0.0, 0.0]])],
              NotIdempotent, 0.25),
             ([good, good, np.array([[1.0, 0.3], [0.0, 0.0]])],
              NotHermitian, 0.3))
    for stack, error, residual in cases:
        with pytest.raises(error) as exc:
            validate_projections(stack, TOL)
        assert exc.value.residual == pytest.approx(residual)
    with pytest.raises(DimensionMismatch):
        validate_projections(np.zeros((2, 2, 3)), TOL)


def _density_stack(rng):
    """Pure, mixed and rank-deficient states of dimension 4, one with an
    eigenvalue dipping below 0 within ``tol.eig`` and one whose trace and
    Hermiticity are off within ``tol.op``."""
    stack = []
    for rank in (1, 2, 4):
        u = haar_unitary(4, rng)[:, :rank]
        w = rng.dirichlet(np.ones(rank))
        stack.append((u * w) @ u.conj().T)
    v = haar_unitary(4, rng)
    stack.append((v * [0.6, 0.4 + 5e-9, -5e-9, 0.0]) @ v.conj().T)
    off = stack[1] + 2e-11 * np.eye(4)
    off[0, 1] += 3e-11
    stack.append(off)
    return stack


def test_stacked_density_validation_matches_one_at_a_time():
    stack = _density_stack(np.random.default_rng(19))
    got = validate_densities(stack, TOL)
    assert len(got) == len(stack)
    for rho, m in zip(got, stack):
        want = validate_density(m, TOL)
        assert np.array_equal(rho.matrix, want.matrix)
        assert not rho.matrix.flags.writeable
        assert rho.purity == want.purity
        assert rho.eigenvalue_floor == want.eigenvalue_floor
        assert rho.trace_residual == want.trace_residual
        assert all(type(x) is float for x in
                   (rho.purity, rho.eigenvalue_floor, rho.trace_residual))
    assert got[3].eigenvalue_floor < 0.0
    assert got[4].trace_residual > 0.0


def test_stacked_density_validation_raises_for_the_first_failing_matrix():
    """Class, message and residual are those the failing matrix raises alone."""
    good = np.diag([0.5, 0.5])
    negative = np.diag([1.5, -0.5])
    long_trace = np.diag([0.7, 0.7])
    skew = np.array([[0.5, 0.2], [0.0, 0.5]])
    cases = (([good, negative, skew], negative, NotPositive),
             ([good, good, skew, negative], skew, NotHermitian),
             ([long_trace, negative], long_trace, TraceNotOne),
             ([good, skew, long_trace], skew, NotHermitian))
    for stack, culprit, error in cases:
        with pytest.raises(error) as alone:
            validate_density(culprit, TOL)
        with pytest.raises(error) as stacked:
            validate_densities(stack, TOL)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.residual == alone.value.residual
    with pytest.raises(DimensionMismatch):
        validate_densities(np.zeros((2, 2, 3)), TOL)


def test_validate_density_rejections():
    with pytest.raises(TraceNotOne):
        validate_density(np.diag([0.7, 0.7]))
    with pytest.raises(NotPositive):
        validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.2], [0.0, 0.5]]))


NON_FINITE = [np.diag([np.nan, 0.5]), np.diag([np.inf, 0.0]),
              np.array([[0.5, np.nan], [np.nan, 0.5]]),
              np.array([[0.5, np.inf], [np.inf, 0.5]]),
              np.full((3, 3), np.nan)]


@pytest.mark.parametrize("case", range(len(NON_FINITE)))
def test_nan_and_inf_entries_fail_validation(case):
    """A NaN residual fails every test, so no NaN or infinite entry passes
    as a projection or a state, alone or in a stack after a valid matrix
    (``eigvalsh`` does not converge on the all-NaN one)."""
    m = NON_FINITE[case]
    good = np.diag([1.0] + [0.0] * (len(m) - 1))
    with pytest.raises(NotHermitian):
        validate_projection(m, TOL)
    with pytest.raises(NotHermitian):
        validate_projections([good, m], TOL)
    with pytest.raises(NotHermitian):
        validate_density(m, TOL)
    with pytest.raises(NotHermitian):
        validate_densities([good, m], TOL)


def test_density_purity_flags():
    pure = validate_density(np.diag([1.0, 0.0, 0.0]))
    mixed = validate_density(np.diag([0.5, 0.5, 0.0]))
    assert pure.is_pure
    assert not mixed.is_pure
    assert mixed.purity == pytest.approx(0.5)


def test_projector_onto_normalizes():
    p = projector_onto(np.array([2.0, 0.0]))
    assert max_norm(p.matrix - np.diag([1.0, 0.0])) <= TOL.op


def test_complement_is_involutive():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        p = haar_projection(dim, 1 + int(rng.integers(dim - 1)), rng)
        q = complement(complement(p, TOL), TOL)
        assert max_norm(p.matrix - q.matrix) <= 10 * TOL.op


def test_identity_and_zero_edges():
    eye = identity_projection(3)
    zero = zero_projection(3)
    assert eye.rank == 3
    assert zero.rank == 0
    assert is_orthogonal(eye, zero, TOL)
    assert projection_leq(zero, eye, TOL)


def test_commutator_of_diagonals_vanishes():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([0.0, 5.0, -1.0])
    assert max_norm(commutator(a, b)) == 0.0


def test_projection_leq_detects_subspace_order():
    p = validate_projection(np.diag([1.0, 0.0, 0.0]))
    q = validate_projection(np.diag([1.0, 1.0, 0.0]))
    assert projection_leq(p, q, TOL)
    assert not projection_leq(q, p, TOL)


def test_join_of_orthogonal_projections_is_the_sum():
    """For orthogonal summands the join equals the literal sum."""
    rng = np.random.default_rng(11)
    for trial in range(50):
        dim = int(rng.integers(2, 7))
        u = haar_unitary(dim, rng)
        r1 = 1 + int(rng.integers(dim - 1))
        r2 = int(rng.integers(dim - r1 + 1))
        p = validate_projection(u[:, :r1] @ u[:, :r1].conj().T, TOL)
        q = validate_projection(u[:, r1:r1 + r2] @ u[:, r1:r1 + r2].conj().T,
                                TOL)
        j = join(p, q, TOL)
        assert max_norm(j.matrix - p.matrix - q.matrix) <= 10 * TOL.op, trial


def test_join_dominates_both_arguments():
    rng = np.random.default_rng(12)
    for trial in range(50):
        dim = int(rng.integers(2, 6))
        p = haar_projection(dim, 1, rng)
        q = haar_projection(dim, 1, rng)
        j = join(p, q, TOL)
        assert projection_leq(p, j, TOL), trial
        assert projection_leq(q, j, TOL), trial
        assert j.rank <= p.rank + q.rank


def test_join_additivity_on_vectors_killed_by_the_overlap():
    # with TU = 0 the join is T + U, so (T v U) psi = T psi + U psi
    # holds for every vector, in particular whenever <T psi, U psi> = 0
    rng = np.random.default_rng(13)
    for trial in range(100):
        dim = int(rng.integers(2, 7))
        u = haar_unitary(dim, rng)
        t = validate_projection(u[:, :1] @ u[:, :1].conj().T, TOL)
        s = validate_projection(u[:, 1:2] @ u[:, 1:2].conj().T, TOL)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = psi / np.linalg.norm(psi)
        overlap = abs(np.vdot(t.matrix @ psi, s.matrix @ psi))
        assert overlap <= 10 * TOL.op
        jm = join(t, s, TOL).matrix
        residual = np.linalg.norm(jm @ psi - t.matrix @ psi - s.matrix @ psi)
        assert residual <= 10 * TOL.op, trial


# The spectral and commutant routines below belong to the test-local
# reference mirror search (mirror_reference.py); they keep their tests
# because the mirror tests use that search as an oracle.


def test_spectral_decomposition_reassembles():
    """Cluster projections rebuild the matrix to within 10 * tol.op."""
    rng = np.random.default_rng(21)
    for trial in range(1000):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = a + a.conj().T
        parts = spectral_decomposition(h, TOL)
        total = sum(val * proj.matrix for val, proj in parts)
        scale = max(1.0, max_norm(h))
        assert max_norm(total - h) <= 10 * TOL.op * scale, trial
        eye = sum(proj.matrix for _, proj in parts)
        assert max_norm(eye - np.eye(dim)) <= 10 * TOL.op, trial


def test_spectral_decomposition_merges_close_eigenvalues():
    h = np.diag([1.0, 1.0 + 1e-12, 3.0])
    parts = spectral_decomposition(h, TOL)
    assert len(parts) == 2
    assert parts[0][1].rank == 2


def test_spectral_decomposition_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_basis_is_orthonormal_and_complete():
    for dim in (2, 3, 4):
        basis = hermitian_basis(dim)
        assert len(basis) == dim * dim
        for i, a in enumerate(basis):
            assert max_norm(a - a.conj().T) == 0.0
            for j, b in enumerate(basis):
                inner = np.trace(a.conj().T @ b).real
                assert inner == pytest.approx(1.0 if i == j else 0.0,
                                              abs=1e-12)


def test_commutant_of_nondegenerate_diagonal_is_diagonal():
    gens = [np.diag([1.0, 2.0, 3.0])]
    basis = commutant_basis(gens, TOL)
    assert len(basis) == 3
    for b in basis:
        off = b - np.diag(np.diag(b))
        assert max_norm(off) <= 1e-9


def test_commutant_of_identity_is_everything():
    basis = commutant_basis([np.eye(3)], TOL)
    assert len(basis) == 9


def test_commutant_elements_commute_with_generators():
    rng = np.random.default_rng(31)
    for trial in range(30):
        dim = int(rng.integers(2, 6))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g1 = a + a.conj().T
        g2 = haar_projection(dim, 1, rng).matrix
        basis = commutant_basis([g1, g2], TOL)
        assert basis, trial  # the identity always commutes
        for b in basis:
            assert max_norm(commutator(b, g1)) <= 10 * TOL.op * max(
                1.0, max_norm(g1))
            assert max_norm(commutator(b, g2)) <= 10 * TOL.op


def _span_residual(basis, target):
    a = np.stack([b.ravel() for b in basis], axis=1)
    coeff, *_ = np.linalg.lstsq(a, target.ravel(), rcond=None)
    return np.linalg.norm(a @ coeff - target.ravel())


def test_commutant_span_contains_record_readout():
    """The two-slit generators admit the record-side projection."""
    from qhistories.scenarios import build_example2

    m = build_example2(spatial_dim=2)
    gens = [m.e1.matrix, m.e2.matrix]
    basis = commutant_basis(gens, TOL)
    target = np.kron(np.eye(2), np.diag([0.0, 1.0]))
    assert _span_residual(basis, target) <= 1e-8


def test_mismatched_generator_dimensions_raise():
    with pytest.raises(DimensionMismatch):
        commutant_basis([np.eye(2), np.eye(3)], TOL)
