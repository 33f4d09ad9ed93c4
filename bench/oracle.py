"""Reference computations the benchmark checks the library's answers against.

Everything here is plain numpy on the matrices the benchmark generated:
a dense decoherence-functional matrix built from the benchmark's own
chain-operator products, the index-level pair structure of elementary
histories, family members as index subsets, and mirror residuals.  None
of it calls the library.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

TOL_OP = 1e-10     # the library's default operator tolerance
TOL_PROB = 1e-9    # the library's default probability tolerance
# Verdicts whose reference residual sits this close to the tolerance may
# go either way under rounding, so they are not compared.
MARGIN = 1e-12
# Library and reference residuals are sums in different orders.
RESIDUAL_ATOL = 1e-10
RESIDUAL_RTOL = 1e-7
MEMBER_CAP = 64


def verdict_of(residual: float) -> bool | None:
    """Reference verdict, or ``None`` when too close to the tolerance."""
    if abs(residual - TOL_PROB) <= MARGIN:
        return None
    return residual <= TOL_PROB


def residual_mismatch(got: float, want: float) -> bool:
    return abs(got - want) > RESIDUAL_ATOL + RESIDUAL_RTOL * abs(want)


@dataclass(frozen=True)
class Expected:
    """Reference outcome of one notion: residual, pair count, verdict."""

    residual: float
    pair_count: int

    @property
    def verdict(self) -> bool | None:
        return verdict_of(self.residual)


def compare_report(report, want: Expected, notion: str) -> str | None:
    """Failure reason when a ``ConsistencyReport`` disagrees with ``want``."""
    if report.notion != notion:
        return f"notion {report.notion!r}, expected {notion!r}"
    if report.pair_count != want.pair_count:
        return f"{notion}: pair count {report.pair_count}, expected {want.pair_count}"
    if residual_mismatch(report.worst_residual, want.residual):
        return (f"{notion}: worst residual {report.worst_residual!r}, "
                f"expected {want.residual!r}")
    if want.verdict is not None and report.verdict != want.verdict:
        return f"{notion}: verdict {report.verdict}, expected {want.verdict}"
    return None


class DenseFamily:
    """Dense reference for one family of resolutions and one state.

    ``slots`` holds one list of event matrices per time slot.  The
    elementary histories are the lexicographic product of the slot
    indices, matching the library's label order.
    """

    def __init__(self, slots: list[list[np.ndarray]], rho: np.ndarray):
        self.slots = slots
        self.rho = rho
        self.sizes = [len(s) for s in slots]
        self.index = list(itertools.product(*(range(n) for n in self.sizes)))
        d = rho.shape[0]
        chains = np.empty((len(self.index), d, d), dtype=complex)
        for i, idx in enumerate(self.index):
            c = slots[0][idx[0]]
            for k in range(1, len(slots)):
                c = slots[k][idx[k]] @ c
            chains[i] = c
        self.chains = chains
        cr = chains @ rho
        self.D = np.einsum("iab,jab->ij", cr, chains.conj())
        self.chain_traces = np.einsum("iaa->i", cr)

    @property
    def n(self) -> int:
        return len(self.index)

    def _pairs_differing(self) -> np.ndarray:
        idx = np.array(self.index)
        return (idx[:, None, :] != idx[None, :, :]).sum(axis=2)

    def weak(self) -> Expected:
        diff = self._pairs_differing()
        upper = np.triu(np.ones_like(diff, dtype=bool), 1)
        mask = upper & (diff == 1)
        vals = np.abs(self.D.real[mask])
        return Expected(float(vals.max()) if vals.size else 0.0, int(mask.sum()))

    def medium(self) -> Expected:
        upper = np.triu(np.ones((self.n, self.n), dtype=bool), 1)
        vals = np.abs(self.D[upper])
        return Expected(float(vals.max()) if vals.size else 0.0, int(upper.sum()))

    def linear_positivity(self) -> Expected:
        return Expected(float(np.max(-self.chain_traces.real)), self.n)

    def c1(self) -> Expected:
        worst, count = 0.0, 0
        for i, idx in enumerate(self.index):
            events = [self.slots[k][j] for k, j in enumerate(idx)]
            if any(np.max(np.abs(a @ b - b @ a)) > TOL_OP
                   for a, b in itertools.combinations(events, 2)):
                continue
            count += 1
            worst = max(worst, abs(self.D[i, i].real - self.chain_traces[i]))
        return Expected(float(worst), count)

    def _members(self) -> tuple[list, np.ndarray]:
        """Members as per-slot index subsets, and their indicator rows."""
        per_slot = [[frozenset(c) for r in range(1, n + 1)
                     for c in itertools.combinations(range(n), r)]
                    for n in self.sizes]
        members = list(itertools.product(*per_slot))
        rows = np.array([[all(idx[k] in m[k] for k in range(len(idx)))
                          for idx in self.index] for m in members], dtype=float)
        return members, rows

    def sum_rule(self) -> Expected:
        members, rows = self._members()
        dm = rows @ self.D @ rows.T
        worst, count = 0.0, 0
        for a, b in itertools.combinations(range(len(members)), 2):
            ma, mb = members[a], members[b]
            differ = [k for k in range(len(ma)) if ma[k] != mb[k]]
            if len(differ) != 1 or ma[differ[0]] & mb[differ[0]]:
                continue
            count += 1
            worst = max(worst, abs(2.0 * dm[a, b].real))
        worst = max(worst, abs(float(np.trace(self.D).real) - 1.0))
        return Expected(worst, count)

    def ordered(self) -> Expected:
        """Monotonicity along slot-wise inclusion of member subsets."""
        members, rows = self._members()
        probs = np.einsum("mi,ij,mj->m", rows, self.D, rows).real
        worst, count = 0.0, 0
        for a, ma in enumerate(members):
            for b, mb in enumerate(members):
                if all(ma[k] <= mb[k] for k in range(len(ma))):
                    count += 1
                    worst = max(worst, probs[a] - probs[b])
        return Expected(float(worst), count)


def member_count(slots) -> int:
    """Members of the family: nonempty event subsets per slot."""
    return int(np.prod([2 ** len(s) - 1 for s in slots]))


def probability(events: list[np.ndarray], rho: np.ndarray) -> float:
    """``Tr(C rho C^dag)`` for the chain of ``events``."""
    c = events[0]
    for e in events[1:]:
        c = e @ c
    return float(np.trace(c @ rho @ c.conj().T).real)


def mirror_residuals(t: np.ndarray, e1: np.ndarray, e2: np.ndarray,
                     rho: np.ndarray) -> float:
    """Largest of the four mirror-condition residuals."""
    m1 = max(np.max(np.abs(t @ e1 - e1 @ t)), np.max(np.abs(t @ e2 - e2 @ t)))
    tr_te1 = np.trace(t @ e1 @ rho)
    m2 = max(abs(tr_te1 - np.trace(t @ rho)), abs(tr_te1 - np.trace(e1 @ rho)))
    return float(max(m1, m2))


def is_projection(p: np.ndarray) -> bool:
    return (np.max(np.abs(p - p.conj().T)) <= TOL_OP
            and np.max(np.abs(p @ p - p)) <= TOL_OP)


def check_certificate(cert, events: tuple[np.ndarray, np.ndarray],
                      rho: np.ndarray) -> str | None:
    """Re-verify a returned mirror certificate with our own residuals."""
    t = np.asarray(cert.mirror.matrix)
    if not is_projection(t):
        return "certificate mirror is not a projection"
    residual = mirror_residuals(t, events[0], events[1], rho)
    want = verdict_of(residual)
    if want is not None and bool(cert.verified) != want:
        return (f"certificate says verified={cert.verified}, reference "
                f"residual {residual:.3e}")
    return None
