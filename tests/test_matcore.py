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
    pure_densities,
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


@pytest.mark.parametrize("fields", [
    {"eig": np.inf}, {"eig": np.nan}, {"op": np.nan}, {"prob": np.inf},
    {"op": np.inf, "prob": np.inf}, {"eig": 0.5}, {"eig": 1.0}])
def test_tolerances_are_finite_and_eig_below_one_half(fields):
    """Below 1/2, "within ``eig`` of 0" and "within ``eig`` of 1" cannot
    overlap; ``eig = 1`` once gave the zero projection rank 2."""
    with pytest.raises(ValueError, match="finite|below 1/2"):
        Tolerances(**fields)
    assert zero_projection(2, Tolerances(eig=0.4999)).rank == 0


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


def _near_projection(dim, rank, size, rng):
    """A rank-``rank`` projection plus a random non-Hermitian perturbation
    scaled so that its larger validation residual is about ``size``."""
    u = haar_unitary(dim, rng)[:, :rank]
    p = u @ u.conj().T
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    def worst(eps):
        m = p + eps * x
        return max(max_norm(m - m.conj().T), max_norm(m @ m - m))

    return p + size * 1e-3 / worst(1e-3) * x if size else p


def _counting_eigvalsh(monkeypatch):
    """Record the number of matrices each ``np.linalg.eigvalsh`` call reads."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: (
        calls.append(len(np.reshape(a, (-1, *np.shape(a)[-2:]))))
        or eigvalsh(a, *args, **kw)))
    return calls, eigvalsh


def test_trace_ranks_equal_eigvalsh_ranks(monkeypatch):
    """On projections of every rank, 0 and d included, for d from 1 to 32,
    validation's rank equals the ``eigvalsh`` count at ``tol.eig``.  Exact
    projections take the rounded trace; with residuals just under
    ``tol.op``, the bound ``2 d (idem + 3 herm)`` exceeds ``tol.eig`` once d
    passes about 12, and those ranks come from ``eigvalsh``."""
    rng = np.random.default_rng(83)
    calls, eigvalsh = _counting_eigvalsh(monkeypatch)
    fallback = []
    for dim in range(1, 33):
        for rank in sorted({0, dim, int(rng.integers(0, dim + 1))}):
            for size in (0.0, 0.9 * TOL.op):
                m = _near_projection(dim, rank, size, rng)
                before = len(calls)
                p = validate_projection(m, TOL)
                assert max(p.hermiticity_residual, p.idempotency_residual) <= TOL.op
                want = int((np.abs(eigvalsh(m) - 1.0) <= TOL.eig).sum())
                assert p.rank == want == rank, (dim, rank, size)
                if len(calls) > before:
                    fallback.append((dim, size))
    assert all(size > 0 for _, size in fallback)
    first = min(dim for dim, _ in fallback)
    assert 10 <= first <= 16
    assert {dim for dim, _ in fallback} == set(range(first, 33))


def test_rank_falls_back_to_eigvalsh_where_the_trace_could_miscount(monkeypatch):
    """Under ``tol.op = 1e-6``, ``diag(1, 1 - 5e-9, 0)`` is idempotent within
    ``tol.op`` but its residuals do not prove the trace count, so its rank
    comes from ``eigvalsh``: 2, the eigenvalue ``1 - 5e-9`` within
    ``tol.eig = 1e-8`` of 1.  In a stack, only that matrix goes to
    ``eigvalsh``."""
    tol = Tolerances(op=1e-6, eig=1e-8, prob=1e-6)
    m = np.diag([1.0, 1.0 - 5e-9, 0.0])
    calls, _ = _counting_eigvalsh(monkeypatch)
    exact = np.diag([1.0, 1.0, 0.0])
    got = validate_projections([exact, m, exact], tol)
    assert [p.rank for p in got] == [2, 2, 2]
    assert got[1].idempotency_residual == pytest.approx(5e-9, rel=1e-6)
    assert calls == [1]


def test_an_eigenvalue_in_neither_cluster_is_not_idempotent(monkeypatch):
    """Under ``tol.op = 1e-6``, ``diag(1 - 5e-7, 0)`` passes the residual
    tests, but its eigenvalue ``1 - 5e-7`` lies more than ``tol.eig = 1e-8``
    from both 0 and 1: it raises :class:`NotIdempotent` with that distance,
    alone and in a stack; a matrix before it that fails Hermiticity still
    raises first, and one after it does not.  A NaN entry raises
    :class:`NotHermitian` without reaching ``eigvalsh``."""
    tol = Tolerances(op=1e-6, eig=1e-8, prob=1e-6)
    m = np.diag([1.0 - 5e-7, 0.0])
    skew = np.array([[1.0, 1.0], [0.0, 0.0]])
    for stack in ([m], [np.eye(2), m, np.zeros((2, 2))], [m, skew]):
        with pytest.raises(NotIdempotent, match="from both 0 and 1") as err:
            validate_projections(stack, tol)
        assert err.value.residual == pytest.approx(5e-7, rel=1e-6)
    with pytest.raises(NotIdempotent):
        validate_projection(m, tol)
    with pytest.raises(NotHermitian):
        validate_projections([skew, m], tol)
    calls, _ = _counting_eigvalsh(monkeypatch)
    with pytest.raises(NotHermitian):
        validate_projections([np.diag([np.nan, 0.0]), m], tol)
    assert calls == []


def test_pure_densities_measure_what_validate_densities_measures():
    """``psi psi^dag`` from unit vectors: the matrix, purity and trace
    residual are ``validate_densities``' bit for bit; the floor is the stated
    rounding bound, below every eigenvalue ``eigvalsh`` finds (less its own
    rounding) and far above ``-tol.eig``."""
    rng = np.random.default_rng(89)
    eps = np.finfo(float).eps
    for dim in (1, 2, 4, 7, 16):
        z = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        vectors = np.vstack([z / np.linalg.norm(z, axis=1)[:, None],
                             np.linalg.eigh(z.T @ z.conj())[1].T])
        got = pure_densities(vectors, TOL)
        want = validate_densities([np.outer(v, v.conj()) for v in vectors], TOL)
        for g, w in zip(got, want, strict=True):
            assert g.matrix.tobytes() == w.matrix.tobytes()
            assert not g.matrix.flags.writeable
            assert (g.purity, g.trace_residual) == (w.purity, w.trace_residual)
            herm = max_norm(g.matrix - g.matrix.conj().T)  # not 0 under FMA
            trace = np.trace(g.matrix).real
            assert g.eigenvalue_floor == -(2 * eps * trace + dim * herm)
            assert g.eigenvalue_floor >= -16 * eps
            assert np.linalg.eigvalsh(g.matrix).min() >= g.eigenvalue_floor - 4 * dim * eps
            assert g.is_pure


def test_pure_densities_raise_what_validate_densities_raises():
    """A vector of norm ``1 + 3e-10`` gives a trace residual past ``tol.op``:
    the same class, message and residual as ``validate_densities``, for the
    first failing vector of a stack."""
    good = np.array([0.6, 0.8j])
    long = np.array([1.0 + 3e-10, 0.0])
    with pytest.raises(TraceNotOne) as alone:
        validate_densities([np.outer(good, good.conj()), np.outer(long, long)], TOL)
    with pytest.raises(TraceNotOne) as pure:
        pure_densities([good, long], TOL)
    assert str(pure.value) == str(alone.value)
    assert pure.value.residual == alone.value.residual


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
