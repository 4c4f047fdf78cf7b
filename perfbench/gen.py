"""Seeded input generators for the benchmark.

Nothing here calls a completely-bounded oracle of opalg (cc_check, ci_check,
falsifier_search, choi_feasibility), so a change to an oracle cannot change
the inputs the benchmark feeds it.  Ground truth comes from the construction:

* compression x -> t V*xV on a unital subspace of M_4 (V an isometry) has
  cb norm exactly t, because x -> V*xV is unital completely positive and the
  identity lies in the domain;
* a Kraus sum x -> sum_i A_i* x B_i whose row-column (Haagerup) bound
  ||sum A_i*A_i||^1/2 ||sum B_i*B_i||^1/2 equals t has cb norm at most t,
  so it is completely contractive whenever t <= 1;
* the cover-lattice instances are built from a poset's incidence algebra,
  whose compressions to convex subsets are homomorphisms, and whose swap
  symmetry acts by a unitary, so every cover and the action are completely
  isometric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opalg.cb import LinearMap
from opalg.covers import OperatorAlgebra
from opalg.linalg import AlgebraSpan, Ambient, orthonormal_span

# cb norms are drawn off 1 by at least 3%, on both sides of it
T_BANDS = ((0.85, 0.97), (1.03, 1.2))
DOMAIN_SIZE = 4
CODOMAIN_SIZE = 2


def draw_t(rng, band):
    lo, hi = T_BANDS[band]
    return float(rng.uniform(lo, hi))


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) \
        + 1j * rng.standard_normal((rows, cols))


def _isometry(rng, n, m):
    q, _ = np.linalg.qr(_ginibre(rng, n, m))
    return q


def unital_subspace(rng, n=DOMAIN_SIZE):
    """Orthonormal span of I and two to four Ginibre matrices in M_n."""
    amb = Ambient((n,))
    mats = [np.eye(n, dtype=complex)] + [_ginibre(rng, n, n)
                                         for _ in range(rng.integers(2, 5))]
    span = orthonormal_span(amb, mats)
    return AlgebraSpan(amb, span.basis, unital=True)


@dataclass
class FuzzCase:
    """A map with a known cb-norm bound t: exact for compressions, an upper
    bound (`exact` False) for Kraus sums."""

    kind: str
    t: float
    exact: bool
    phi: LinearMap

    @property
    def truth(self):
        """'CC', 'NotCC', or None when the construction does not decide."""
        if self.t <= 1:
            return "CC"
        return "NotCC" if self.exact else None


def compression_case(rng, t, m=CODOMAIN_SIZE):
    """x -> t V*xV on a unital random subspace of M_4, into one block M_m."""
    S = unital_subspace(rng)
    V = _isometry(rng, DOMAIN_SIZE, m)
    images = np.array([t * V.conj().T @ b @ V for b in S.basis])
    return FuzzCase("compression", t, True,
                    LinearMap(dom=S, cod=Ambient((m,)), images=images))


def haagerup_bound(As, Bs):
    row = np.linalg.norm(sum(a.conj().T @ a for a in As), 2)
    col = np.linalg.norm(sum(b.conj().T @ b for b in Bs), 2)
    return float(np.sqrt(row * col))


def kraus_operators(rng, t, m, rank):
    """Kraus pairs (A_i, B_i), each 4 x m, scaled to Haagerup bound t."""
    As = [_ginibre(rng, DOMAIN_SIZE, m) for _ in range(rank)]
    Bs = [_ginibre(rng, DOMAIN_SIZE, m) for _ in range(rank)]
    scale = t / haagerup_bound(As, Bs)
    return [scale * a for a in As], Bs


def kraus_case(rng, t, m=CODOMAIN_SIZE):
    """x -> sum_i A_i* x B_i restricted to a unital random subspace of M_4,
    with Haagerup bound exactly t."""
    S = unital_subspace(rng)
    As, Bs = kraus_operators(rng, t, m, int(rng.integers(2, 4)))
    images = np.array([sum(a.conj().T @ x @ b for a, b in zip(As, Bs))
                       for x in S.basis])
    return FuzzCase("kraus", t, False,
                    LinearMap(dom=S, cod=Ambient((m,)), images=images))


def fuzz_case(rng, i):
    """The i-th map of a stratified stream: kind and side of 1 cycle with
    period 4, so that every run sees the same mix of maps and only the draws
    within each stratum depend on the seed."""
    make = (compression_case, kraus_case)[i % 2]
    return make(rng, draw_t(rng, band=(i // 2) % 2))


# ---------------------------------------------------------------------------
# cover lattice: incidence algebra of bottom + Q + Q' + top, Q one point


POSET_SIZE = 4
BOTTOM, Q, Q_SWAP, TOP = range(POSET_SIZE)
ORDER = {(x, x) for x in range(POSET_SIZE)} | {
    (BOTTOM, Q), (BOTTOM, Q_SWAP), (BOTTOM, TOP), (Q, TOP), (Q_SWAP, TOP)}
SWAP = (BOTTOM, Q_SWAP, Q, TOP)


# one-point convex subsets; the swap moves each to the other.  One size for
# all keeps every instance the same amount of work (see NOTES.md for why
# the size is this small).
MOVED = [frozenset([Q]), frozenset([Q_SWAP])]


@dataclass
class LatticeCase:
    """An incidence algebra realized in a seeded orthonormal frame U, its
    swap action, and a convex subset S of the poset."""

    A: OperatorAlgebra
    U: np.ndarray
    swap: np.ndarray  # unitary implementing the swap in the frame U
    S: frozenset

    def compression_images(self, subset):
        """a -> a (+) V*aV with V = U restricted to the subset: a unital
        homomorphism because the subset is convex."""
        V = self.U[:, sorted(subset)]
        return [np.block([[a, np.zeros((POSET_SIZE, len(subset)))],
                          [np.zeros((len(subset), POSET_SIZE)),
                           V.conj().T @ a @ V]])
                for a in self.A.span.basis]

    def mirror(self, subset):
        return frozenset(SWAP[x] for x in subset)


def lattice_case(rng):
    U = _isometry(rng, POSET_SIZE, POSET_SIZE)
    amb = Ambient((POSET_SIZE,))
    units = []
    for x, y in sorted(ORDER):
        e = np.zeros((POSET_SIZE, POSET_SIZE), dtype=complex)
        e[x, y] = 1.0
        units.append(U @ e @ U.conj().T)
    span = orthonormal_span(amb, units)
    A = OperatorAlgebra(AlgebraSpan(amb, span.basis, unital=True),
                        name="incidence")
    P = np.zeros((POSET_SIZE, POSET_SIZE), dtype=complex)
    for x in range(POSET_SIZE):
        P[SWAP[x], x] = 1.0
    return LatticeCase(A=A, U=U, swap=U @ P @ U.conj().T,
                       S=MOVED[int(rng.integers(len(MOVED)))])
