"""Wedderburn structure of finite-dimensional C*-algebras given as spans:
center, minimal central projections, the (finite, Boolean) ideal lattice,
corner quotients, annihilators, essentiality and maximality tests.

Closed two-sided ideals of a finite-dimensional C*-algebra are exactly the
sums of its simple blocks, so ideals are handled as subsets of block indices
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (MEMBER_TOL, AlgebraSpan, hs_orthonormalize,
                     intertwiner_space, orthonormal_span)

CLUSTER_GAP = 1e-6
_MAX_RESAMPLE = 5


class BlockStructureError(RuntimeError):
    """Raised when spectral clustering stays ambiguous after resampling, or
    when a claimed ideal does not match any block subset."""


@dataclass
class BlockStructure:
    """Minimal central projections of a self-adjoint unital span and the
    abstract sizes of its simple blocks.

    block_dims[i] is the matrix size m_i of the i-th simple summand and
    mults[i] its multiplicity in the concrete representation, so that
    sum(m_i^2) = dim(parent) and rank(z_i) = m_i * mults[i].
    """

    parent: AlgebraSpan
    projections: np.ndarray  # (k, N, N)
    block_dims: tuple
    mults: tuple

    @property
    def num_blocks(self):
        return len(self.block_dims)

    def subset_projection(self, S):
        z = self.parent.ambient.zero()
        for i in S:
            z += self.projections[i]
        return z

    def complement(self, S):
        return frozenset(range(self.num_blocks)) - frozenset(S)

    def verify(self, tol=MEMBER_TOL):
        bad = []
        zs = self.projections
        N = self.parent.ambient.dim
        total = np.sum(zs, axis=0) if len(zs) else np.zeros((N, N))
        if np.linalg.norm(total - np.eye(N)) > tol * max(1, N):
            bad.append("central projections do not sum to the identity")
        for i, zi in enumerate(zs):
            if np.linalg.norm(zi - zi.conj().T) > tol:
                bad.append("projection not self-adjoint")
            for jj, zj in enumerate(zs):
                want = zi if i == jj else 0.0
                if np.linalg.norm(zi @ zj - want) > tol:
                    bad.append("projections not mutually orthogonal idempotents")
        for zi in zs:
            for b in self.parent.basis:
                if np.linalg.norm(zi @ b - b @ zi) > tol:
                    bad.append("projection not central")
                    break
        if sum(m * m for m in self.block_dims) != self.parent.dim:
            bad.append("block dimensions do not account for dim(parent)")
        return bad


def center(C):
    """Center of a self-adjoint unital span: the elements of C that
    intertwine every basis element with itself."""
    if C.dim == 0:
        return orthonormal_span(C.ambient, [])
    mats = [C.from_coeffs(c)
            for c in intertwiner_space(C.basis, C.basis, C)]
    return AlgebraSpan(C.ambient, hs_orthonormalize(mats),
                       self_adjoint=True, unital=C.unital)


def _cluster(vals, gap):
    """Group sorted eigenvalues into clusters separated by more than gap.
    Returns (slices, min separating gap)."""
    order = np.argsort(vals)
    sv = vals[order]
    clusters = [[order[0]]]
    min_sep = np.inf
    for k in range(1, len(sv)):
        step = sv[k] - sv[k - 1]
        if step > gap:
            min_sep = min(min_sep, step)
            clusters.append([])
        clusters[-1].append(order[k])
    return clusters, min_sep


def _corner_span(C, z):
    mats = [z @ b @ z for b in C.basis]
    return orthonormal_span(C.ambient, mats)


def minimal_central_projections(C, seed=0, gap=CLUSTER_GAP, tol=MEMBER_TOL):
    """Block structure of a self-adjoint unital span.

    Takes the spectral projections of a generic self-adjoint central element
    (fixed-seed random combination of a hermitized center basis).  Eigenvalue
    clusters merged at `gap`; retried with a fresh generic element when the
    separating gaps come too close to the merge threshold.
    """
    cached = getattr(C, "_block_structure", None)
    if cached is not None:
        return cached
    Z = center(C)
    if Z.dim == 0:
        raise BlockStructureError("algebra has no center (zero algebra?)")
    # hermitized center basis
    herm = hs_orthonormalize(
        [b + b.conj().T for b in Z.basis] + [1j * (b - b.conj().T) for b in Z.basis])
    rng = np.random.default_rng(seed)
    last = None
    for _ in range(_MAX_RESAMPLE):
        w = rng.standard_normal(len(herm))
        g = np.tensordot(w, herm, axes=(0, 0))
        g = (g + g.conj().T) / 2
        vals, vecs = np.linalg.eigh(g)
        clusters, min_sep = _cluster(vals, gap)
        if len(clusters) > 1 and min_sep < 10 * gap:
            last = min_sep
            continue
        zs = []
        for idxs in clusters:
            V = vecs[:, idxs]
            zs.append(V @ V.conj().T)
        # order blocks deterministically: big blocks first, then by support
        info = []
        for z in zs:
            corner = _corner_span(C, z)
            m2 = corner.dim
            m = int(round(np.sqrt(m2)))
            if m * m != m2:
                raise BlockStructureError(
                    f"corner dimension {m2} is not a perfect square")
            cz = center(AlgebraSpan(C.ambient, corner.basis, self_adjoint=True))
            if cz.dim != 1:
                raise BlockStructureError("corner is not simple")
            r = int(round(float(np.real(np.trace(z))) / m))
            first = int(np.argmax(np.real(np.diag(z)) > 0.5))
            info.append((m, r, first, z))
        info.sort(key=lambda t: (-t[0], t[2]))
        bs = BlockStructure(
            parent=C,
            projections=np.array([t[3] for t in info]),
            block_dims=tuple(t[0] for t in info),
            mults=tuple(t[1] for t in info),
        )
        bad = bs.verify(tol)
        if bad:
            raise BlockStructureError("; ".join(bad))
        C._block_structure = bs
        return bs
    raise BlockStructureError(
        f"eigenvalue clustering ambiguous after {_MAX_RESAMPLE} resamples "
        f"(last separating gap {last:.2e})")


def ideal_blocks(C, S):
    """The ideal z_S C for a subset S of block indices."""
    bs = minimal_central_projections(C)
    z = bs.subset_projection(S)
    span = orthonormal_span(C.ambient, [z @ b for b in C.basis])
    return AlgebraSpan(C.ambient, span.basis, self_adjoint=True, ideal_in=C)


def blocks_of_ideal(C, J, tol=MEMBER_TOL):
    """Block subset corresponding to an ideal J of C; raises when J is not a
    sum of blocks."""
    bs = minimal_central_projections(C)
    S = frozenset(
        i for i in range(bs.num_blocks)
        if any(np.linalg.norm(bs.projections[i] @ b) > tol for b in J.basis))
    back = ideal_blocks(C, S)
    if back.dim != J.dim or not all(back.contains(b, tol) for b in J.basis):
        raise BlockStructureError("subspace is not an ideal of the algebra")
    return S


def corner_quotient(C, S):
    """Quotient of C by the block ideal z_S C, realized as the complementary
    corner.  Returns (corner span, quotient LinearMap)."""
    from .cb import LinearMap  # local import to keep module layering acyclic
    bs = minimal_central_projections(C)
    zc = bs.subset_projection(bs.complement(S))
    images = np.array([zc @ b for b in C.basis])
    corner = orthonormal_span(C.ambient, list(images))
    corner = AlgebraSpan(C.ambient, corner.basis, self_adjoint=True,
                         unital=False)
    q = LinearMap(dom=C, cod=C.ambient, images=images)
    return corner, q


def annihilator(C, J):
    """Annihilator ideal {x in C : xJ = 0} = sum of the complementary
    blocks."""
    S = blocks_of_ideal(C, J)
    bs = minimal_central_projections(C)
    return ideal_blocks(C, bs.complement(S))


def is_essential(C, J):
    """An ideal is essential iff its annihilator vanishes.  In finite
    dimension only the full block set is essential."""
    return annihilator(C, J).dim == 0


def is_maximal_ideal(C, J):
    """Maximal iff the quotient is simple, i.e. exactly one block remains."""
    bs = minimal_central_projections(C)
    S = blocks_of_ideal(C, J)
    return len(bs.complement(S)) == 1
