"""Wedderburn structure of finite-dimensional C*-algebras given as spans:
center, minimal central projections, the (finite, Boolean) ideal lattice,
corners, annihilators, essentiality and maximality tests.

Closed two-sided ideals of a finite-dimensional C*-algebra are exactly the
sums of its simple blocks, so ideals are handled as subsets of block indices
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (MEMBER_TOL, AlgebraSpan, _kept, adjoints, current,
                     hs_orthonormalize, normal_null_space, orthonormal_span,
                     product_stacks)

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

    def verify(self):
        bad = []
        zs, B = self.projections, self.parent.basis
        N = self.parent.ambient.dim
        total = np.sum(zs, axis=0) if len(zs) else np.zeros((N, N))
        if np.linalg.norm(total - np.eye(N)) > MEMBER_TOL * max(1, N):
            bad.append("central projections do not sum to the identity")
        if _exceeds(zs - adjoints(zs)):
            bad.append("projection not self-adjoint")
        orthogonal, start = True, 0
        for (prods,) in product_stacks((zs, zs)):  # z_i z_j - delta_ij z_i
            prods = prods.reshape(-1, len(zs), N, N)
            rows = np.arange(len(prods))
            prods[rows, start + rows] -= zs[start + rows]
            orthogonal &= not _exceeds(prods)
            start += len(prods)
        if not orthogonal:
            bad.append("projections not mutually orthogonal idempotents")
        # z b - b z, with b z read as (z* b*)*
        if any(_exceeds(zb - adjoints(zb_star)) for zb, zb_star in
               product_stacks((zs, B), (adjoints(zs), adjoints(B)))):
            bad.append("projection not central")
        if sum(m * m for m in self.block_dims) != self.parent.dim:
            bad.append("block dimensions do not account for dim(parent)")
        return bad


def _exceeds(mats):
    """Whether a matrix of the stack has HS norm above MEMBER_TOL."""
    return bool((np.linalg.norm(mats, axis=(-2, -1)) > MEMBER_TOL).any())


def center(C):
    """Center of a self-adjoint unital span: the elements of C that commute
    with every basis element, the null space of c -> ([sum_k c_k b_k, x])_x
    read by `normal_null_space`.  Its d x d normal matrix is summed over
    the commutator rows [x, b_k] of `product_stacks`, with b x read as
    (x* b*)*."""
    if C.dim == 0:
        return orthonormal_span(C.ambient, [])
    B, (d, N, _) = C.basis, C.basis.shape
    G = np.zeros((d, d), dtype=complex)
    for xb, xb_star in product_stacks((B, B), (adjoints(B), adjoints(B))):
        R = (xb - adjoints(xb_star)).reshape(-1, d, N * N)
        # one term per row x, added in row order: the same sum at any budget
        for term in R.conj() @ R.transpose(0, 2, 1):
            G += term

    def residuals(cand):
        Z = (cand @ C._flat).reshape(-1, 1, N, N)
        return (Z @ B - B @ Z).reshape(len(cand), -1).T

    z = normal_null_space(G, residuals) @ C._flat
    return AlgebraSpan(C.ambient, hs_orthonormalize(z.reshape(-1, N, N)),
                       self_adjoint=True, unital=C.unital)


def _cluster(vals):
    """Group sorted eigenvalues into clusters split at gaps > CLUSTER_GAP.
    Returns (slices, min separating gap)."""
    order = np.argsort(vals)
    sv = vals[order]
    clusters = [[order[0]]]
    min_sep = np.inf
    for k in range(1, len(sv)):
        step = sv[k] - sv[k - 1]
        if step > CLUSTER_GAP:
            min_sep = min(min_sep, step)
            clusters.append([])
        clusters[-1].append(order[k])
    return clusters, min_sep


def corner(C, z):
    """The corner zC of C for a central projection z of C: a self-adjoint
    ideal of C."""
    span = orthonormal_span(C.ambient, [z @ b for b in C.basis])
    return AlgebraSpan(C.ambient, span.basis, self_adjoint=True, ideal_in=C)


def _hermitian_basis(Z):
    """A real-orthonormal basis of the Hermitian elements of the span Z:
    the Hermitian parts of Z's basis and of i times it, orthonormalized over
    the reals as stacked real and imaginary parts, so a real combination of
    it reaches every self-adjoint element of Z (a complex-orthonormal basis
    of their span can miss some)."""
    B = np.concatenate([Z.basis, 1j * Z.basis])
    H = (B + adjoints(B)).reshape(len(B), -1)
    _, s, vh = np.linalg.svd(np.concatenate([H.real, H.imag], axis=1),
                             full_matrices=False)
    rows, n = vh[_kept(s)], H.shape[1]
    return (rows[:, :n] + 1j * rows[:, n:]).reshape(-1, *Z.basis.shape[1:])


def minimal_central_projections(C):
    """Block structure of a self-adjoint unital span.

    Takes the spectral projections of a generic self-adjoint central element
    (RunConfig-seeded real combination of `_hermitian_basis` of the center).
    Eigenvalue clusters merged at CLUSTER_GAP; resampled when a separating
    gap nears the merge threshold or the clusters miss the center's dimension.
    """
    cached = getattr(C, "_block_structure", None)
    if cached is not None:
        return cached
    Z = center(C)
    if Z.dim == 0:
        raise BlockStructureError("algebra has no center (zero algebra?)")
    herm = _hermitian_basis(Z)
    rng = np.random.default_rng(current().seed)
    for _ in range(_MAX_RESAMPLE):
        w = rng.standard_normal(len(herm))
        g = np.tensordot(w, herm, axes=(0, 0))
        vals, vecs = np.linalg.eigh(g)
        clusters, last = _cluster(vals)
        if len(clusters) != Z.dim or last < 10 * CLUSTER_GAP:
            continue
        zs = []
        for idxs in clusters:
            V = vecs[:, idxs]
            zs.append(V @ V.conj().T)
        # order blocks deterministically: big blocks first, then by support
        info = []
        for z in zs:
            # x -> z x is the HS-orthogonal projection of C onto zC, so its
            # trace sum_k |z b_k|^2 is dim zC
            dim = int(round(np.linalg.norm(z @ C.basis) ** 2))
            m = int(round(np.sqrt(dim)))
            if m * m != dim:
                raise BlockStructureError(
                    f"corner dimension {dim} is not a perfect square")
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
        bad = bs.verify()
        if bad:
            raise BlockStructureError("; ".join(bad))
        C._block_structure = bs
        return bs
    raise BlockStructureError(
        f"eigenvalue clustering ambiguous after {_MAX_RESAMPLE} resamples "
        f"(last {len(clusters)} clusters, center dim {Z.dim}, gap {last:.2e})")


def block_dims(C):
    """Sizes of the simple blocks of C as a list, largest first."""
    return list(minimal_central_projections(C).block_dims)


def ideal_blocks(C, S):
    """The ideal z_S C for a subset S of block indices."""
    return corner(C, minimal_central_projections(C).subset_projection(S))


def blocks_of_ideal(C, J):
    """Block subset corresponding to an ideal J of C; raises when J is not a
    sum of blocks."""
    bs = minimal_central_projections(C)
    S = frozenset(
        i for i in range(bs.num_blocks)
        if any(np.linalg.norm(bs.projections[i] @ b) > MEMBER_TOL
               for b in J.basis))
    back = ideal_blocks(C, S)
    if back.dim != J.dim or not back.contains_span(J):
        raise BlockStructureError("subspace is not an ideal of the algebra")
    return S


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
