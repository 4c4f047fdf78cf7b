"""Complex block-matrix ambients, Hilbert-Schmidt orthonormal spans, and
multiplicative closure of matrix algebras and ideals.

Everything here is dense and desk-scale (N <= 64 or so).  Matrices are plain
complex ndarrays; an :class:`Ambient` records the block-diagonal pattern they
must respect.  Subspaces are :class:`AlgebraSpan` objects holding an
orthonormal basis under the Hilbert-Schmidt inner product
``<x, y> = trace(x* y)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

# Two-tier tolerances: rank decisions use the tighter cutoff so that
# accumulated products cannot flip them; membership uses the looser one.
RANK_TOL = 1e-9
MEMBER_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Settings of one run: the seed of the falsifier, block-structure and
    inner-unitary searches, and the Choi solver's iteration cap."""

    seed: int = 0
    max_iter: int = 50000


_RUN_CONFIG = ContextVar("opalg_run_config", default=RunConfig())


def current():
    """The RunConfig in effect."""
    return _RUN_CONFIG.get()


@contextmanager
def using(**fields):
    """Run the enclosed block with the given RunConfig fields replaced."""
    token = _RUN_CONFIG.set(replace(current(), **fields))
    try:
        yield
    finally:
        _RUN_CONFIG.reset(token)


class AmbientMismatch(ValueError):
    """Matrix does not fit the ambient (wrong shape or off-block entries)."""


class NotInSpan(ValueError):
    """Element has residual above tolerance against a span."""


@dataclass(frozen=True)
class Ambient:
    """Block-diagonal matrix ambient: a direct sum of full matrix algebras.

    Elements are N x N complex matrices (N = sum of block dims) that vanish
    outside the diagonal blocks.
    """

    block_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("block_dims must be non-empty positive integers")
        object.__setattr__(self, "block_dims", dims)

    @property
    def dim(self):
        return sum(self.block_dims)

    def mask(self):
        """Boolean N x N mask of the allowed block pattern."""
        N = self.dim
        m = np.zeros((N, N), dtype=bool)
        off = 0
        for d in self.block_dims:
            m[off:off + d, off:off + d] = True
            off += d
        return m

    def identity(self):
        return np.eye(self.dim, dtype=complex)

    def zero(self):
        return np.zeros((self.dim, self.dim), dtype=complex)

    def off_block_norm(self, mat):
        return float(np.linalg.norm(np.where(self.mask(), 0.0, mat)))

    def check(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise AmbientMismatch(
                f"expected shape {(self.dim, self.dim)}, got {mat.shape}")
        r = self.off_block_norm(mat)
        if r > MEMBER_TOL:
            raise AmbientMismatch(
                f"off-block residual {r:.3e} above {MEMBER_TOL:.1e}")
        return mat

    def matrix_unit(self, r, c):
        m = self.zero()
        m[r, c] = 1.0
        return self.check(m)

    def embed_block(self, k, mat):
        """Place a small matrix into the k-th diagonal block."""
        mat = np.asarray(mat, dtype=complex)
        d = self.block_dims[k]
        if mat.shape != (d, d):
            raise AmbientMismatch(f"block {k} has size {d}, got {mat.shape}")
        off = sum(self.block_dims[:k])
        out = self.zero()
        out[off:off + d, off:off + d] = mat
        return out

    def block_of(self, mat, k):
        off = sum(self.block_dims[:k])
        d = self.block_dims[k]
        return np.asarray(mat, dtype=complex)[off:off + d, off:off + d]

    def direct_sum(self, other):
        return Ambient(self.block_dims + other.block_dims)


def direct_sum(*mats):
    """Block-diagonal direct sum of square matrices."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    N = sum(m.shape[0] for m in mats)
    out = np.zeros((N, N), dtype=complex)
    off = 0
    for m in mats:
        d = m.shape[0]
        out[off:off + d, off:off + d] = m
        off += d
    return out


def hs_inner(x, y):
    """Hilbert-Schmidt inner product trace(x* y)."""
    return complex(np.vdot(x, y))


def operator_norm(x):
    """Largest singular value."""
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


def null_space(M, left=False):
    """Orthonormal rows spanning the null space of the matrix M: vectors c
    with M @ c = 0, or with c @ M = 0 when `left`.

    Rank is decided by singular values against RANK_TOL (relative to the
    largest singular value, floored at 1).  Only the singular factor that
    holds the null space is formed in full.
    """
    m, n = M.shape
    if left:
        u, s, _ = np.linalg.svd(M, full_matrices=m > n)
    else:
        _, s, vh = np.linalg.svd(M, full_matrices=m < n)
    cutoff = RANK_TOL * max(1.0, float(s[0]) if len(s) else 1.0)
    rank = int(np.sum(s > cutoff))
    if left:
        return np.ascontiguousarray(u[:, rank:].T.conj())
    return vh[rank:].conj()


def intertwiner_space(dom_imgs, cod_imgs, space):
    """Coefficient basis (rows, against space's basis) of
    {U in space : U x_a = y_a U for all a}."""
    rows = [np.array([(b @ x - y @ b).ravel() for b in space.basis]).T
            for x, y in zip(dom_imgs, cod_imgs)]
    return null_space(np.vstack(rows))


def hs_orthonormalize(mats):
    """Orthonormal basis (as a (d, N, N) stack) of the span of `mats`.

    Rank is decided by singular values against RANK_TOL (relative to the
    largest singular value, floored at 1).  Deterministic for a fixed input
    order.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex)
    shape = mats[0].shape
    flat = np.array([m.ravel() for m in mats])
    gram = flat @ flat.conj().T
    if np.abs(gram - np.eye(len(mats))).max() < RANK_TOL:
        # already orthonormal; keep the given order (stable golden outputs)
        return np.array(mats)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    cutoff = RANK_TOL * max(1.0, float(s[0]) if len(s) else 1.0)
    keep = s > cutoff
    return vh[keep].reshape(-1, *shape)


@dataclass
class AlgebraSpan:
    """A subspace of an ambient with an HS-orthonormal basis.

    The closure flags are promises checked by :meth:`verify`, not enforced on
    construction; the generation routines below produce spans whose flags
    hold by construction.
    """

    ambient: Ambient
    basis: np.ndarray  # (dim, N, N), HS-orthonormal
    self_adjoint: bool = False
    unital: bool = False
    ideal_in: "AlgebraSpan | None" = None
    _flat: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        N = self.ambient.dim
        b = b.reshape(-1, N, N)
        self.basis = b
        self._flat = b.reshape(len(b), N * N)

    @property
    def dim(self):
        return len(self.basis)

    def project(self, x):
        x = np.asarray(x, dtype=complex)
        if self.dim == 0:
            return np.zeros_like(x)
        c = self._flat.conj() @ x.ravel()
        return (c @ self._flat).reshape(x.shape)

    def residual(self, x):
        return float(np.linalg.norm(np.asarray(x, dtype=complex) - self.project(x)))

    def contains(self, x):
        return self.residual(x) <= MEMBER_TOL

    def coeffs(self, x):
        """Coefficients of x against the basis; raises NotInSpan if the
        residual exceeds MEMBER_TOL."""
        x = np.asarray(x, dtype=complex)
        c = self._flat.conj() @ x.ravel() if self.dim else np.zeros(0, complex)
        r = float(np.linalg.norm(x.ravel() - c @ self._flat)) if self.dim \
            else float(np.linalg.norm(x))
        if r > MEMBER_TOL:
            raise NotInSpan(f"residual {r:.3e} above {MEMBER_TOL:.1e}")
        return c

    def from_coeffs(self, c):
        return (np.asarray(c, dtype=complex) @ self._flat).reshape(
            self.ambient.dim, self.ambient.dim)

    def contains_span(self, other):
        return all(self.contains(b) for b in other.basis)

    def identity_residual(self):
        return self.residual(self.ambient.identity())

    def verify(self):
        """Return a list of violated invariants (empty when all hold)."""
        bad = []
        g = self._flat @ self._flat.conj().T if self.dim else np.zeros((0, 0))
        if self.dim and np.abs(g - np.eye(self.dim)).max() > MEMBER_TOL:
            bad.append("basis not HS-orthonormal")
        for b in self.basis:
            if self.ambient.off_block_norm(b) > MEMBER_TOL:
                bad.append("basis leaves ambient block pattern")
                break
        if any(self.residual(a @ b) > MEMBER_TOL
               for a in self.basis for b in self.basis):
            bad.append("not closed under multiplication")
        if self.self_adjoint and any(self.residual(b.conj().T) > MEMBER_TOL
                                     for b in self.basis):
            bad.append("not closed under adjoint")
        if self.unital and self.identity_residual() > MEMBER_TOL:
            bad.append("does not contain the ambient identity")
        if self.ideal_in is not None and any(
                self.residual(c @ b) > MEMBER_TOL
                or self.residual(b @ c) > MEMBER_TOL
                for c in self.ideal_in.basis for b in self.basis):
            bad.append("not an ideal in the enclosing algebra")
        return bad


def orthonormal_span(ambient, mats):
    """Orthonormalized subspace span of the given ambient elements."""
    mats = [ambient.check(m) for m in mats]
    return AlgebraSpan(ambient, hs_orthonormalize(mats)
                       if mats else np.zeros((0, ambient.dim, ambient.dim), complex))


def _closure(ambient, seed, left, right):
    """Smallest subspace holding `seed` and closed under x -> l @ x for l
    in `left` and x -> x @ r for r in `right`.

    Spinning, as in the Meat-Axe: each round multiplies only the elements
    the previous round added, projects the products off the basis (twice,
    so the residuals stay orthogonal to it) and orthonormalizes what is
    left.  The loop ends when a round adds nothing.
    """
    N = ambient.dim
    basis = new = hs_orthonormalize(seed)
    while len(new) and len(left) + len(right):
        flat = basis.reshape(len(basis), N * N)
        res = np.concatenate([l @ new for l in left]
                             + [new @ r for r in right]).reshape(-1, N * N)
        for _ in range(2):
            res = res - (res @ flat.conj().T) @ flat
        new = hs_orthonormalize(res.reshape(-1, N, N))
        basis = np.concatenate([basis, new])
    return basis


def generate_algebra(ambient, gens, self_adjoint=False, unital=True):
    """Smallest multiplicatively closed subspace containing the generators
    (plus the identity when unital, adjoints when self_adjoint).

    That is the span of the words in the generators: it is grown from the
    generators (and the identity) by left multiplication with an
    orthonormal basis of the generators' span, so that every product has
    HS norm at most 1 as the rank rule expects.  Each round multiplies only
    the elements the previous round added.
    """
    gens = [ambient.check(g) for g in gens]
    if self_adjoint:
        gens += [g.conj().T for g in gens]
    seed = gens + [ambient.identity()] if unital else gens
    basis = _closure(ambient, seed, hs_orthonormalize(gens), [])
    return AlgebraSpan(ambient, basis, self_adjoint=self_adjoint, unital=unital)


def generate_ideal(C, gens):
    """Smallest subspace of the C*-algebra C containing `gens` that is a
    two-sided ideal, closed under adjoint.  Generators must already lie in
    C.  Grown from the generators and their adjoints by multiplication with
    C's basis on both sides, only the newly added elements each round."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    for g in gens:
        if not C.contains(g):
            raise NotInSpan("ideal generator not in the enclosing algebra")
    seed = [g for g in gens if np.linalg.norm(g) > MEMBER_TOL]
    seed += [g.conj().T for g in seed]
    basis = _closure(C.ambient, seed, C.basis, C.basis)
    return AlgebraSpan(C.ambient, basis, self_adjoint=True, ideal_in=C)


def graph_closure(amb1, amb2, pairs, unital=True):
    """Self-adjoint algebra generated by {x (+) y} in the direct sum
    ambient; the engine behind induced morphisms, admissibility and the
    homomorphism certificates of complete contractivity."""
    gens = [direct_sum(x, y) for x, y in pairs]
    return generate_algebra(amb1.direct_sum(amb2), gens, self_adjoint=True,
                            unital=unital)


def graph_obstruction(amb1, amb2, G):
    """Span of {y : (0, y) in G}, the obstruction to G being a graph."""
    N1 = amb1.dim
    firsts = np.array([b[:N1, :N1].ravel() for b in G.basis])
    if firsts.size == 0:
        return orthonormal_span(amb2, [])
    # combinations of the graph basis whose first components cancel
    mats = [np.tensordot(c, G.basis, axes=(0, 0))[N1:, N1:]
            for c in null_space(firsts, left=True)]
    return orthonormal_span(amb2, [m for m in mats
                                   if np.linalg.norm(m) > RANK_TOL])


def support_isometry(mats, N):
    """Isometry V (N x m) onto the joint support of the given matrices, or
    None when the support is full.  Coordinate selection when the support
    projection is diagonal (keeps matrix units exact)."""
    T = np.zeros((N, N), dtype=complex)
    for b in mats:
        T += b @ b.conj().T + b.conj().T @ b
    offdiag = T - np.diag(np.diag(T))
    scale = max(1.0, float(np.abs(T).max()) if T.size else 1.0)
    if offdiag.size == 0 or np.abs(offdiag).max() < RANK_TOL * scale:
        keep = np.where(np.real(np.diag(T)) > RANK_TOL * scale)[0]
        if len(keep) == N:
            return None
        V = np.zeros((N, len(keep)), dtype=complex)
        V[keep, np.arange(len(keep))] = 1.0
        return V
    w, U = np.linalg.eigh((T + T.conj().T) / 2)
    keep = w > RANK_TOL * max(1.0, float(w[-1]))
    if keep.all():
        return None
    return U[:, keep]


def compress_span(span):
    """Compress a span onto its joint support.

    Returns (compressed span, isometry V or None).  When V is a coordinate
    selection the ambient block pattern is carried over (empty blocks
    dropped); otherwise the compressed ambient is a single full block.
    """
    amb = span.ambient
    N = amb.dim
    V = support_isometry(list(span.basis), N)
    if V is None:
        return span, None
    m = V.shape[1]
    is_selection = np.all((V == 0) | (V == 1)) and np.all(V.sum(axis=0) == 1)
    if is_selection:
        keep = np.where(V.sum(axis=1) > 0.5)[0]
        dims, off = [], 0
        for d in amb.block_dims:
            c = int(np.sum((keep >= off) & (keep < off + d)))
            if c:
                dims.append(c)
            off += d
        new_amb = Ambient(tuple(dims))
    else:
        new_amb = Ambient((m,))
    basis = np.array([V.conj().T @ b @ V for b in span.basis])
    out = AlgebraSpan(new_amb, basis, self_adjoint=span.self_adjoint,
                      unital=False)
    if span.self_adjoint and out.residual(new_amb.identity()) <= MEMBER_TOL:
        out.unital = True
    return out, V


def intersect_spans(V, W):
    """Orthonormal basis stack of the intersection of two spans."""
    if V.dim == 0 or W.dim == 0:
        return np.zeros((0, V.ambient.dim, V.ambient.dim), complex)
    # rows: components of V's basis orthogonal to W
    M = V._flat - (V._flat @ W._flat.conj().T) @ W._flat
    # combinations c with sum_i c_i (1 - P_W) v_i = 0
    mats = [(c @ V._flat).reshape(V.ambient.dim, V.ambient.dim)
            for c in null_space(M, left=True)]
    return hs_orthonormalize(mats)


def diagonal(A):
    """The diagonal A `intersect` A* of an operator algebra span, as a
    self-adjoint span (the largest C*-subalgebra of A)."""
    adj = AlgebraSpan(A.ambient, np.conj(np.transpose(A.basis, (0, 2, 1))))
    basis = intersect_spans(A, adj)
    return AlgebraSpan(A.ambient, basis, self_adjoint=True, unital=A.unital)
