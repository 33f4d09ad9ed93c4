"""Test-local reference: the randomized mirror search that
:func:`qhistories.mirror.least_mirror` replaced.

It builds a Hermitian basis of the commutant of the two events, sums
eigenvalue clusters of each basis element, and rounds seeded random
commutant combinations to projections.  A certificate it returns is
verified; "nothing found" only means the candidate budget ran out.  The
mirror tests use it as an oracle for the exact construction, so its
building blocks keep their own unit tests in ``test_matcore.py``.

It also keeps the former one-history-at-a-time self-decoherence check
(per-history support, closure and verification, and the eager coarse
sums), the reference for the batched pass in
:func:`qhistories.mirror.check_self_decoherence`.
"""

import itertools

import numpy as np

from qhistories.errors import DimensionMismatch, NotHermitian
from qhistories.histories import elementary_histories, history_sum, summable
from qhistories.matcore import (
    DEFAULT_TOL,
    commutator,
    max_norm,
    range_basis,
    square_matrix,
    validate_projection,
)
from qhistories.mirror import MirrorCertificate, verify_mirror


def spectral_decomposition(entries, tol=DEFAULT_TOL):
    """Eigenvalue clusters ``(mean eigenvalue, projection)`` in ascending
    order; eigenvalues closer than ``tol.eig`` share a cluster."""
    m = square_matrix(entries)
    herm = max_norm(m - m.conj().T)
    if herm > tol.op:
        raise NotHermitian(
            f"spectral decomposition needs a Hermitian matrix (residual {herm:.3e})",
            herm)
    w, v = np.linalg.eigh(m)
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol.eig:
            block = v[:, start:i]
            proj = validate_projection(block @ block.conj().T, tol)
            out.append((float(np.mean(w[start:i])), proj))
            start = i
    return out


def hermitian_basis(dim):
    """Orthonormal (Hilbert-Schmidt) basis of the Hermitian dim x dim matrices."""
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    inv = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = inv
            e[j, i] = inv
            out.append(e)
            f = np.zeros((dim, dim), dtype=complex)
            f[i, j] = -1j * inv
            f[j, i] = 1j * inv
            out.append(f)
    return out


def commutant_basis(generators, tol=DEFAULT_TOL):
    """Hermitian basis of ``{X : [X, G] = 0 for every generator G}``,
    the null space (singular values at most ``tol.eig``) of the
    commutation constraints in Hermitian-basis coordinates."""
    gens = [square_matrix(g) for g in generators]
    if not gens:
        raise DimensionMismatch("need at least one generator")
    d = gens[0].shape[0]
    for g in gens[1:]:
        if g.shape != gens[0].shape:
            raise DimensionMismatch(
                f"dimension mismatch: {gens[0].shape} vs {g.shape}")
    basis = hermitian_basis(d)
    rows = []
    for g in gens:
        for b in basis:
            c = (b @ g - g @ b).ravel()
            rows.append(np.concatenate([c.real, c.imag]))
    a = np.array(rows).reshape(len(gens), len(basis), 2 * d * d)
    a = np.concatenate([blk.T for blk in a], axis=0)
    _, s, vh = np.linalg.svd(a)
    null = [vh[i] for i in range(vh.shape[0])
            if i >= len(s) or s[i] <= tol.eig]
    return [np.asarray(sum(c * b for c, b in zip(coeff, basis)))
            for coeff in null]


def reference_candidates(h, tol=DEFAULT_TOL, seed=0, max_candidates=256,
                         cluster_subset_cap=1024):
    """The former candidate list: the first event when the events
    commute, every cluster-subset sum of each commutant basis element,
    then seeded random commutant combinations rounded at the midpoint
    of their spectral range.  Deduplicated, state independent."""
    e1, e2 = h.events
    out = []
    seen = set()

    def push(mat):
        key = np.round(mat, 9).tobytes()
        if key not in seen:
            seen.add(key)
            out.append(validate_projection(mat, tol))

    if max_norm(commutator(e1.matrix, e2.matrix)) <= tol.op:
        push(np.asarray(e1.matrix))
    basis = commutant_basis([e1.matrix, e2.matrix], tol)
    for b in basis:
        clusters = [p.matrix for _, p in spectral_decomposition(b, tol)]
        for mask in range(min(2 ** len(clusters), cluster_subset_cap)):
            mat = np.zeros((h.dim, h.dim), dtype=complex)
            for i, c in enumerate(clusters):
                if mask >> i & 1:
                    mat = mat + c
            push(mat)
    rng = np.random.default_rng(seed)
    for _ in range(max_candidates):
        coeff = rng.standard_normal(len(basis))
        x = sum(c * b for c, b in zip(coeff, basis))
        w, v = np.linalg.eigh(x)
        span = w[-1] - w[0]
        if span <= tol.eig:
            continue
        block = v[:, (w - w[0]) / span >= 0.5]
        push(block @ block.conj().T)
    return out


def reference_mirrors(h, rho, tol=DEFAULT_TOL, candidates=None):
    """Every candidate that verifies as a mirror of ``h`` for ``rho``,
    in candidate order; the former search returned the first."""
    if candidates is None:
        candidates = reference_candidates(h, tol)
    certs = (verify_mirror(t, h, rho, tol) for t in candidates)
    return [c for c in certs if c.verified]


def reference_verify_mirror(t, h, rho, tol=DEFAULT_TOL):
    """Both mirror conditions for one history, one residual at a time."""
    e1, e2 = h.events
    m1 = (max_norm(commutator(t.matrix, e1.matrix)),
          max_norm(commutator(t.matrix, e2.matrix)))
    tr_te1 = complex(np.trace(t.matrix @ e1.matrix @ rho.matrix))
    tr_t = complex(np.trace(t.matrix @ rho.matrix))
    tr_e1 = complex(np.trace(e1.matrix @ rho.matrix))
    m2 = (abs(tr_te1 - tr_t), abs(tr_te1 - tr_e1))
    verified = all(r <= tol.prob for r in (*m1, *m2))
    return MirrorCertificate(t, h, rho, m1, m2, verified)


def reference_least_mirror(h, rho, tol=DEFAULT_TOL):
    """The closure ``V <- ran[V, e1 V, e2 V]`` for one history, with its
    own support of ``rho``."""
    e1, e2 = (e.matrix for e in h.events)
    w, vecs = np.linalg.eigh(rho.matrix)
    v = range_basis(e1 @ vecs[:, w > tol.eig], tol)
    for _ in range(h.dim):
        grown = range_basis(np.hstack([v, e1 @ v, e2 @ v]), tol)
        if grown.shape[1] == v.shape[1]:
            break
        v = grown
    return reference_verify_mirror(validate_projection(v @ v.conj().T, tol),
                                   h, rho, tol)


def reference_self_decoherence(family, rho, provided=None, tol=DEFAULT_TOL):
    """``(per_history, verdict, coarse_sum_mirrors)`` from a loop over the
    elementary histories and an eager loop over all their pairs."""
    elems = elementary_histories(family)
    per = {}
    for h in elems:
        if provided is not None and h.label in provided:
            per[h.label] = reference_verify_mirror(provided[h.label], h, rho, tol)
        else:
            cert = reference_least_mirror(h, rho, tol)
            per[h.label] = cert if cert.verified else None
    verdict = all(c is not None and c.verified for c in per.values())
    coarse = {}
    for h1, h2 in itertools.combinations(elems, 2):
        if summable(h1, h2, tol) is None:
            continue
        c1, c2 = per.get(h1.label), per.get(h2.label)
        if not (c1 and c2 and c1.verified and c2.verified):
            continue
        if max_norm(c1.mirror.matrix @ c2.mirror.matrix) > tol.op:
            continue
        s = history_sum(h1, h2, tol)
        t_sum = validate_projection(c1.mirror.matrix + c2.mirror.matrix, tol)
        coarse[f"{h1.label}+{h2.label}"] = reference_verify_mirror(
            t_sum, s, rho, tol).verified
    return per, verdict, coarse
