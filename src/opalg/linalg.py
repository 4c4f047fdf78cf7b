"""Complex block-matrix ambients, Hilbert-Schmidt orthonormal spans, and
C*-algebras generated as double commutants.

Everything here is dense and desk-scale (N <= 64 or so).  Matrices are plain
complex ndarrays; an :class:`Ambient` records the block-diagonal pattern they
must respect.  Subspaces are :class:`AlgebraSpan` objects holding an
orthonormal basis under the Hilbert-Schmidt inner product
``<x, y> = trace(x* y)``.
"""

from __future__ import annotations

import itertools
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

# Two-tier tolerances: rank decisions use the tighter cutoff so that
# accumulated products cannot flip them; membership uses the looser one.
RANK_TOL = 1e-9
MEMBER_TOL = 1e-8
# The other fixed cutoffs: falsifier iterates below TINY_NORM are zero, an
# ascent step must gain ASCENT_GAIN (relative) and re-verified norms match to
# NORM_RECHECK_TOL; witnesses below WITNESS_FLOOR stay unnormalized, entries
# and norms below SIGNIFICANT are ignored when a phase or witness is picked,
# and expected scenario numbers match to EXPECT_TOL.
TINY_NORM = 1e-14
ASCENT_GAIN = 1e-9
NORM_RECHECK_TOL = 1e-9
WITNESS_FLOOR = 1e-12
SIGNIFICANT = 1e-6
EXPECT_TOL = 1e-6
# A check forms its products x @ y in stacks of at most PRODUCT_BUDGET
# complex entries (`product_stacks`): a few large products per check, and
# memory that does not grow with dim^2.
PRODUCT_BUDGET = 2 ** 14


@dataclass(frozen=True)
class RunConfig:
    """Settings of one run: the seed of the falsifier, block-structure and
    inner-unitary searches, and the Choi solver's iteration cap."""

    seed: int = 0
    max_iter: int = 50000

    def __post_init__(self):
        for name in ("seed", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(
                    f"{name} must be a non-negative integer, not {value!r}")


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

    @cached_property
    def _mask(self):
        N = self.dim
        m = np.zeros((N, N), dtype=bool)
        off = 0
        for d in self.block_dims:
            m[off:off + d, off:off + d] = True
            off += d
        m.flags.writeable = False
        return m

    def mask(self):
        """Boolean N x N mask of the allowed block pattern (read-only; built
        once per ambient)."""
        return self._mask

    def identity(self):
        return np.eye(self.dim, dtype=complex)

    def zero(self):
        return np.zeros((self.dim, self.dim), dtype=complex)

    def off_block_norm(self, mats):
        """HS norm of the entries of a matrix outside the block pattern; of
        a (k, N, N) stack, the largest over its matrices."""
        outside = np.asarray(mats)[..., ~self.mask()]
        return float(np.linalg.norm(outside, axis=-1).max(initial=0.0))

    def check(self, mats):
        """A matrix, or a (k, N, N) stack (an empty sequence is an empty
        stack), as a complex array; raises AmbientMismatch on another shape
        or on entries outside the block pattern."""
        N = self.dim
        mats = np.asarray(mats, dtype=complex)
        if mats.shape == (0,):
            mats = mats.reshape(0, N, N)
        if mats.shape[-2:] != (N, N) or mats.ndim > 3:
            raise AmbientMismatch(
                f"expected shape {(N, N)} or (k, {N}, {N}), got {mats.shape}")
        r = self.off_block_norm(mats)
        if r > MEMBER_TOL:
            raise AmbientMismatch(
                f"off-block residual {r:.3e} above {MEMBER_TOL:.1e}")
        return mats

    def matrix_unit(self, r, c):
        m = self.zero()
        m[r, c] = 1.0
        return self.check(m)

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


def operator_norm(x):
    """Largest singular value."""
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


def _kept(s):
    """The rank rule: which of the singular values s (..., r), in descending
    order, exceed RANK_TOL relative to the largest, floored at 1."""
    return s > RANK_TOL * np.maximum(1.0, s[..., :1])


def null_space(M, left=False):
    """Orthonormal rows spanning the null space of the matrix M: vectors c
    with M @ c = 0, or with c @ M = 0 when `left`.

    Rank is decided by `_kept` on the singular values of M.  Only the
    singular factor that holds the null space is formed in full.  M may be
    a (p, m, n) stack, each matrix with its own cutoff; the result is then
    a (p, r, n) stack for the largest nullity r, padded with zero rows.
    """
    m, n = M.shape[-2:]
    u, s, vh = np.linalg.svd(M, full_matrices=m > n if left else m < n)
    rows = adjoints(u) if left else vh.conj()
    null = np.ones(rows.shape[:-1], dtype=bool)
    null[..., :s.shape[-1]] = ~_kept(s)
    start = null.shape[-1] - null.sum(-1).max()
    return np.ascontiguousarray((rows * null[..., None])[..., start:, :])


def normal_null_space(L, residuals):
    """Null space of an operator R given by its normal matrix L = R*R (a
    matrix, or a (p, n, n) stack) and by `residuals(cand)`, R applied to
    the candidate rows cand as a (m, r) matrix, or (p, m, r) stack, with
    one column per row.  null_space(L) proposes the candidates; as L
    squares the singular values, their own residuals decide.  One more row
    keeps the zero rows null_space pads a stack with out of the result."""
    cand = null_space(L)
    pad = 1 - np.linalg.norm(cand, axis=-1) ** 2
    res = np.concatenate([residuals(cand), pad[..., None, :]], axis=-2)
    return null_space(res) @ cand


def intertwiner_space(dom_imgs, cod_imgs, space):
    """Coefficient basis (rows, against space's basis) of
    {U in space : U x_a = y_a U for all a}."""
    B, X, Y = space.basis, np.asarray(dom_imgs), np.asarray(cod_imgs)
    # one row per pair and entry, one column per basis element
    rows = B @ X[:, None] - Y[:, None] @ B
    return null_space(rows.transpose(0, 2, 3, 1).reshape(-1, len(B)))


def hs_orthonormalize(mats):
    """Orthonormal basis (as a (d, N, N) stack) of the span of `mats`.

    Rank is decided by `_kept` on the singular values of the flattened
    matrices.  Deterministic for a fixed input order.
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
    return vh[_kept(s)].reshape(-1, *shape)


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
        """Orthogonal projection of x onto the span, or of each matrix of a
        (k, N, N) stack."""
        x = np.asarray(x, dtype=complex)
        if self.dim == 0:
            return np.zeros_like(x)
        flat = x.reshape(x.shape[:-2] + (-1,))
        c = (self._flat @ flat.conj().T).conj().T  # conjugates x, not B
        return (c @ self._flat).reshape(x.shape)

    def residual(self, x):
        """HS distance of x from the span; of a (k, N, N) stack, the largest
        over its matrices (0 for an empty stack)."""
        x = np.asarray(x, dtype=complex)
        return float(np.linalg.norm(x - self.project(x), axis=(-2, -1))
                     .max(initial=0.0))

    def contains(self, x):
        return self.residual(x) <= MEMBER_TOL

    def coeffs(self, x):
        """Coefficients of x against the basis, or of each matrix of a
        (k, N, N) stack as a (k, dim) array; raises NotInSpan if a residual
        exceeds MEMBER_TOL, and AmbientMismatch on another shape."""
        x = np.asarray(x, dtype=complex)
        N = self.ambient.dim
        if x.shape[-2:] != (N, N) or x.ndim > 3:
            raise AmbientMismatch(f"expected (N, N) or (k, N, N) with N = {N},"
                                  f" got {x.shape}")
        flat = x.reshape(x.shape[:-2] + (N * N,))
        c = (self._flat @ flat.conj().T).conj().T
        r = np.linalg.norm(flat - c @ self._flat, axis=-1)
        if (r > MEMBER_TOL).any():
            raise NotInSpan(f"residual {r.max():.3e} above {MEMBER_TOL:.1e}")
        return c

    def from_coeffs(self, c):
        return (np.asarray(c, dtype=complex) @ self._flat).reshape(
            self.ambient.dim, self.ambient.dim)

    def contains_span(self, other):
        return self.contains(other.basis)

    def identity_residual(self):
        return self.residual(self.ambient.identity())

    def verify(self):
        """Return a list of violated invariants (empty when all hold)."""
        bad = []
        g = self._flat @ self._flat.conj().T if self.dim else np.zeros((0, 0))
        if self.dim and np.abs(g - np.eye(self.dim)).max() > MEMBER_TOL:
            bad.append("basis not HS-orthonormal")
        if self.ambient.off_block_norm(self.basis) > MEMBER_TOL:
            bad.append("basis leaves ambient block pattern")
        if any(self.residual(p) > MEMBER_TOL
               for p, in product_stacks((self.basis, self.basis))):
            bad.append("not closed under multiplication")
        if self.self_adjoint and self.residual(
                adjoints(self.basis)) > MEMBER_TOL:
            bad.append("not closed under adjoint")
        if self.unital and self.identity_residual() > MEMBER_TOL:
            bad.append("does not contain the ambient identity")
        if self.ideal_in is not None:
            J = self.ideal_in.basis
            sides = itertools.chain(product_stacks((J, self.basis)),
                                    product_stacks((self.basis, J)))
            if any(self.residual(p) > MEMBER_TOL for p, in sides):
                bad.append("not an ideal in the enclosing algebra")
        return bad


def product_stacks(*pairs):
    """The products x @ y for every x in xs and y in ys, for each pair
    (xs, ys) of stacks, all xs of one length: yielded as one tuple of
    (r * len(ys), a, c) stacks per slice of r consecutive rows of the xs,
    every pair cut at the same rows, with as many rows as keep a tuple
    within PRODUCT_BUDGET entries (one row at least, so only a row larger
    than the budget by itself makes a larger tuple)."""
    row = sum(len(ys) * xs.shape[-2] * ys.shape[-1] for xs, ys in pairs)
    step = max(1, PRODUCT_BUDGET // max(row, 1))
    for i in range(0, len(pairs[0][0]), step):
        yield tuple((xs[i:i + step, None] @ ys).reshape(
            -1, xs.shape[-2], ys.shape[-1]) for xs, ys in pairs)


def orthonormal_span(ambient, mats):
    """Orthonormalized subspace span of the given ambient elements."""
    return AlgebraSpan(ambient, hs_orthonormalize(ambient.check(mats)))


def adjoints(mats):
    """Adjoint of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(mats, -1, -2))


def _kron_sum(X, Y):
    """sum_k kron(X_k, conj(Y_k)) for (p, k, a, c) and (p, k, b, d) stacks,
    either p possibly 1, as one product of the flattened stacks."""
    (k, a, c), (b, d) = X.shape[1:], Y.shape[2:]
    out = X.reshape(len(X), k, a * c).swapaxes(1, 2) \
        @ Y.reshape(len(Y), k, b * d).conj()
    return out.reshape(-1, a, c, b, d).swapaxes(2, 3).reshape(
        len(out), a * b, c * d)


def _intertwiners(Si, Sj):
    """Orthonormal bases of {X : s_i X = X s_j for every s}, for the block
    stacks Si (p, k, a, a) and Sj (p, k, b, b) of p block pairs, as a
    (p, r, a, b) stack padded with zero matrices: the null space of
    X -> (s_i X - X s_j)_s, read by `normal_null_space`.
    """
    (p, k, a, _), b = Si.shape, Sj.shape[-1]
    Qi = (adjoints(Si) @ Si).sum(1, keepdims=True)
    Qj = (adjoints(Sj) @ Sj).sum(1, keepdims=True)
    # sum over s of |s_i X - X s_j|^2 is the quadratic form of
    # X -> Q_i X + X Q_j - 2 sum s_i X s_j*, with Q = sum s* s
    L = _kron_sum(
        np.concatenate([Qi, np.broadcast_to(np.eye(a), Qi.shape), -2 * Si], 1),
        np.concatenate([np.broadcast_to(np.eye(b), Qj.shape), Qj, Sj], 1))

    def residuals(cand):
        r = cand.shape[1]
        X = cand.reshape(p, 1, r, a, b)
        res = np.moveaxis(Si[:, :, None] @ X - X @ Sj[:, :, None], 2, -1)
        return res.reshape(p, k * a * b, r)

    return normal_null_space(L, residuals).reshape(p, -1, a, b)


def _cosupport(S):
    """Orthonormal rows c with c s = 0 for every s of the (k, N, N) stack S,
    read off the matrices side by side: c*c is the projection onto the
    complement of the joint support of S, when S holds its adjoints."""
    return null_space(S.transpose(1, 0, 2).reshape(S.shape[-1], -1),
                      left=True)


def support(mats):
    """Isometry V (N x m) onto the joint support of a (k, N, N) stack and
    its adjoints, or None when the support is full: a coordinate selection
    when the support projection is diagonal (keeps matrix units exact), and
    otherwise the orthonormal complement of the rows `_cosupport` reads."""
    mats = np.asarray(mats)
    c = _cosupport(np.concatenate([mats, adjoints(mats)]))
    if not len(c):
        return None
    P = c.conj().T @ c
    if np.abs(P - np.diag(np.diag(P))).max() <= RANK_TOL:
        return np.eye(len(P), dtype=complex)[:, np.diag(P).real < 0.5]
    return null_space(c).T


def generate_algebra(ambient, gens, unital=True):
    """C*-algebra generated by the generators and, when unital, the
    identity: the double commutant S'' of S = gens + gens* (von Neumann),
    which lies in the ambient, as the block projections are in S'.

    Stage 1 takes, for each pair of ambient blocks with d_i <= d_j, the
    intertwiners Int_ij = {X : s_i X = X s_j for s in S} (Int_ji = Int_ij*),
    same-shape pairs as one stack; stage 2 is the null space of the normal
    matrix of Y -> (Y_i T - T Y_j) over every T in every Int_ij and the
    block-diagonal Y, whose singular values off S'' depend on S' alone, not
    on how close S comes to a larger commutant.  `null_space` makes every
    rank decision.  Without a unit it returns e S'' = C*(S), the part of
    S'' orthogonal to 1 - e for the support projection e of S (`_cosupport`).
    """
    gens = ambient.check(gens)
    S = np.concatenate([gens, adjoints(gens)])
    # each s scaled to HS norm 1, as S' does not depend on their scale
    norms = np.linalg.norm(S, axis=(1, 2), keepdims=True)
    S = S / np.where(norms > 0, norms, 1)
    dims = ambient.block_dims
    offs = np.cumsum((0,) + dims)
    cols = np.cumsum([0] + [d * d for d in dims])
    blocks = [S[:, o:o + d, o:o + d] for o, d in zip(offs, dims)]
    groups = {}
    order = sorted(range(len(dims)), key=dims.__getitem__)
    for i, j in itertools.combinations_with_replacement(order, 2):
        groups.setdefault((dims[i], dims[j]), []).append((i, j))
    M = np.zeros((cols[-1], cols[-1]), dtype=complex)
    for (a, b), pairs in groups.items():
        I, J = np.array(pairs).T
        T = _intertwiners(np.array([blocks[i] for i in I]),
                          np.array([blocks[j] for j in J]))
        # the normal matrix of (Y_i, Y_j) -> Y_i T - T Y_j over T
        Ia, Ib = np.eye(a)[None, None], np.eye(b)[None, None]
        TT = (T @ adjoints(T)).sum(1, keepdims=True)
        TH = (adjoints(T) @ T).sum(1, keepdims=True)
        K = -_kron_sum(T, T)
        G = np.concatenate([np.concatenate([_kron_sum(Ia, TT), K], axis=2),
                            np.concatenate([adjoints(K), _kron_sum(TH, Ib)],
                                           axis=2)], axis=1)
        ix = np.concatenate([cols[I, None] + np.arange(a * a),
                             cols[J, None] + np.arange(b * b)], axis=1)
        # summed into the normal matrix of stage 2 over all block-diagonal Y
        np.add.at(M.reshape(-1), (ix[:, :, None] * len(M)
                                  + ix[:, None, :]).ravel(), G.ravel())
    c = [] if unital else _cosupport(S)
    if len(c):
        f = (c.conj().T @ c)[ambient.mask()]
        M += np.outer(f, f.conj()) / np.vdot(f, f).real
    y = null_space(M)
    basis = np.zeros((len(y), ambient.dim, ambient.dim), dtype=complex)
    basis[:, ambient.mask()] = y
    return AlgebraSpan(ambient, basis, self_adjoint=True, unital=unital)


def graph_closure(amb1, amb2, pairs, unital=True):
    """C*-algebra generated by {x (+) y} in the direct sum ambient, as a
    double commutant; the engine behind induced morphisms, admissibility
    and the homomorphism certificates of complete contractivity."""
    gens = [direct_sum(x, y) for x, y in pairs]
    return generate_algebra(amb1.direct_sum(amb2), gens, unital=unital)


def graph_obstruction(amb1, amb2, G):
    """Span of {y : (0, y) in G}, the obstruction to G being a graph."""
    N1 = amb1.dim
    firsts = G.basis[:, :N1, :N1].reshape(G.dim, N1 * N1)
    # combinations of the graph basis whose first components cancel
    return orthonormal_span(amb2, [
        np.tensordot(c, G.basis, axes=(0, 0))[N1:, N1:]
        for c in null_space(firsts, left=True)])


def compress_span(span):
    """Compress a span onto its joint support.

    Returns (compressed span, isometry V or None).  When V is a coordinate
    selection the ambient block pattern is carried over (empty blocks
    dropped); otherwise the compressed ambient is a single full block.
    """
    amb = span.ambient
    V = support(span.basis)
    if V is None:
        return span, None
    if np.all((V == 0) | (V == 1)):
        offs = np.cumsum((0,) + amb.block_dims)
        kept = V.sum(axis=1).real
        dims = [int(kept[a:b].sum()) for a, b in zip(offs, offs[1:])]
        new_amb = Ambient(tuple(d for d in dims if d))
    else:
        new_amb = Ambient((V.shape[1],))
    out = AlgebraSpan(new_amb, adjoints(V) @ span.basis @ V,
                      self_adjoint=span.self_adjoint, unital=False)
    if span.self_adjoint and out.residual(new_amb.identity()) <= MEMBER_TOL:
        out.unital = True
    return out, V


def intersect_spans(V, W):
    """Orthonormal basis stack of the intersection of two spans."""
    # rows: components of V's basis orthogonal to W
    M = V._flat - (V._flat @ W._flat.conj().T) @ W._flat
    # combinations c with sum_i c_i (1 - P_W) v_i = 0, orthonormal as the
    # rows c and V's basis are
    N = V.ambient.dim
    return (null_space(M, left=True) @ V._flat).reshape(-1, N, N)


def diagonal(A):
    """The diagonal A `intersect` A* of an operator algebra span, as a
    self-adjoint span (the largest C*-subalgebra of A)."""
    adj = AlgebraSpan(A.ambient, adjoints(A.basis))
    basis = intersect_spans(A, adj)
    return AlgebraSpan(A.ambient, basis, self_adjoint=True, unital=A.unital)
