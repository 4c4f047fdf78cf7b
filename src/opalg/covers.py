"""C*-covers of a unital operator algebra and their lattice.

A cover is a pair (C, j): a concrete self-adjoint unital matrix algebra C
together with a completely isometric unital homomorphism j of the operator
algebra A whose image generates C.  Covers of a fixed A are ordered by the
existence of a surjective *-homomorphism intertwining the two embeddings;
this module computes that order (via graph closure), equivalence, joins,
meets, boundary ideals, the Shilov ideal and the C*-envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cb import (CI, INCONCLUSIVE, LinearMap, Undecided, ci_check,
                 homomorphism_check, map_from_generators, require_decisive,
                 star_hom_violations)
from .linalg import (MEMBER_TOL, AlgebraSpan, compress_span,
                     generate_algebra, generate_ideal, hs_orthonormalize,
                     null_space, orthonormal_span)
from .structure import blocks_of_ideal, corner_quotient, \
    minimal_central_projections


class CoverError(ValueError):
    """A claimed cover violates one of its invariants."""


class NotHomomorphism(CoverError):
    pass


class NotCompletelyIsometric(CoverError):
    pass


class DoesNotGenerate(CoverError):
    pass


@dataclass
class OperatorAlgebra:
    """A unital, multiplicatively closed (not necessarily self-adjoint)
    subspace of a matrix ambient, with optional generator labels."""

    span: AlgebraSpan
    labels: dict = field(default_factory=dict)
    name: str = "A"

    @property
    def ambient(self):
        return self.span.ambient

    @property
    def dim(self):
        return self.span.dim

    def verify(self, tol=MEMBER_TOL):
        bad = list(self.span.verify(tol))
        if not self.span.unital:
            bad.append("operator algebra must be flagged unital")
        return bad


@dataclass
class CstarCover:
    """A C*-cover (C, j) of an operator algebra A."""

    A: OperatorAlgebra
    C: AlgebraSpan
    j: LinearMap
    name: str = "cover"
    _envelope: "CstarCover | None" = field(default=None, repr=False,
                                           compare=False)
    _shilov: frozenset | None = field(default=None, repr=False, compare=False)

    @property
    def ambient(self):
        return self.C.ambient

    def structure(self):
        return minimal_central_projections(self.C)


@dataclass
class CoverMorphism:
    """The unique surjective *-homomorphism pi: C_source -> C_target with
    pi . j_source = j_target."""

    source: CstarCover
    target: CstarCover
    pi: LinearMap
    kernel: AlgebraSpan

    def kernel_blocks(self):
        if self.kernel.dim == 0:
            return frozenset()
        return blocks_of_ideal(self.source.C, self.kernel)


@dataclass
class MorphismAbsence:
    """Proof that no intertwining *-homomorphism exists: the graph closure
    contains a pair (0, witness) with witness nonzero in C_target."""

    source: CstarCover
    target: CstarCover
    witness: np.ndarray
    obstruction_dim: int = 0


def normalize_witness(y, tol=1e-12):
    """Unit Frobenius norm, phase fixed so the first coordinate of
    significant magnitude is positive real.  Keeps golden outputs stable."""
    y = np.asarray(y, dtype=complex)
    nrm = np.linalg.norm(y)
    if nrm < tol:
        return y
    y = y / nrm
    flat = y.ravel()
    mags = np.abs(flat)
    idx = int(np.argmax(mags > 1e-6 * mags.max()))
    phase = flat[idx] / abs(flat[idx])
    return y / phase


def make_cover(A, ambient, j_images, name="cover", tol=MEMBER_TOL,
               verify=True, cstar=None):
    """Validate and build a C*-cover from the images of A's basis.

    Raises NotHomomorphism, NotCompletelyIsometric or DoesNotGenerate on a
    violated invariant; raises Undecided if the complete-isometry check is
    inconclusive.  With verify=False the (expensive) complete-isometry check
    is skipped; callers use that only when CI holds by construction.
    """
    if isinstance(A, AlgebraSpan):
        A = OperatorAlgebra(A)
    j = LinearMap(dom=A.span, cod=ambient,
                  images=np.array([ambient.check(m) for m in j_images]))
    if not homomorphism_check(j, unital=True, tol=tol):
        raise NotHomomorphism(
            "j is not a unital homomorphism on the operator algebra")
    if verify:
        rep = ci_check(j)
        if rep.verdict == INCONCLUSIVE:
            raise Undecided(f"ci_check inconclusive: {rep.diagnostics}")
        if rep.verdict != CI:
            raise NotCompletelyIsometric(
                "j is not completely isometric", rep.certificate)
    C = generate_algebra(ambient, list(j.images), self_adjoint=True,
                         unital=True)
    if cstar is not None:
        if cstar.dim != C.dim or not C.contains_span(cstar, tol):
            raise DoesNotGenerate(
                f"claimed C*-algebra (dim {cstar.dim}) is not generated by "
                f"j(A) (generated dim {C.dim})")
    return CstarCover(A=A, C=C, j=j, name=name)


# ---------------------------------------------------------------------------
# graph closure


def _pair_sum(amb1, amb2, x, y):
    N1 = amb1.dim
    out = np.zeros((N1 + amb2.dim,) * 2, dtype=complex)
    out[:N1, :N1] = x
    out[N1:, N1:] = y
    return out


def graph_closure(amb1, amb2, pairs, unital=True):
    """Self-adjoint algebra generated by {x (+) y} in the direct sum
    ambient; the engine behind induced morphisms and admissibility."""
    D = amb1.direct_sum(amb2)
    gens = [_pair_sum(amb1, amb2, x, y) for x, y in pairs]
    return generate_algebra(D, gens, self_adjoint=True, unital=unital)


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
                                   if np.linalg.norm(m) > 1e-9])


def graph_function(amb1, amb2, G, dom_span):
    """Read the graph G as a linear map dom_span -> amb2 (assumes the
    obstruction space is zero)."""
    N1 = amb1.dim
    return map_from_generators(dom_span, G.basis[:, :N1, :N1],
                               G.basis[:, N1:, N1:], amb2)


def induced_morphism(upper, lower, tol=MEMBER_TOL):
    """The unique *-homomorphism pi: C_upper -> C_lower with
    pi . j_upper = j_lower, or a MorphismAbsence with a witness.

    Existence of pi is exactly the statement that `lower` sits below `upper`
    in the cover order.
    """
    amb1, amb2 = upper.ambient, lower.ambient
    pairs = [(x, y) for x, y in zip(upper.j.images, lower.j.images)]
    G = graph_closure(amb1, amb2, pairs, unital=True)
    obstruction = graph_obstruction(amb1, amb2, G)
    if obstruction.dim > 0:
        w = normalize_witness(obstruction.basis[0])
        return MorphismAbsence(source=upper, target=lower, witness=w,
                               obstruction_dim=obstruction.dim)
    pi = graph_function(amb1, amb2, G, upper.C)
    ker = graph_obstruction(amb2, amb1, _swap_graph(G, amb1, amb2))
    kernel = AlgebraSpan(amb1, ker.basis, self_adjoint=True, ideal_in=upper.C)
    morph = CoverMorphism(source=upper, target=lower, pi=pi, kernel=kernel)
    bad = verify_morphism(morph, tol)
    if bad:
        raise CoverError("induced morphism failed verification: " +
                         "; ".join(bad))
    return morph


def _swap_graph(G, amb1, amb2):
    N1 = amb1.dim
    swapped = []
    for b in G.basis:
        swapped.append(_pair_sum(amb2, amb1, b[N1:, N1:], b[:N1, :N1]))
    D = amb2.direct_sum(amb1)
    return AlgebraSpan(D, hs_orthonormalize(swapped), self_adjoint=True)


def verify_morphism(m, tol=MEMBER_TOL):
    """Invariant re-check: *-homomorphism onto the target, intertwines."""
    pi = m.pi
    bad = star_hom_violations(pi, m.target.C, tol)
    for a, want in zip(m.source.A.span.basis, m.target.j.images):
        if np.linalg.norm(pi(m.source.j(a)) - want) > 10 * tol:
            bad.append("does not intertwine the embeddings")
            break
    return bad


def equivalent(c1, c2):
    """Covers are equivalent when morphisms exist both ways (they are then
    mutually inverse *-isomorphisms)."""
    down = induced_morphism(c1, c2)
    if isinstance(down, MorphismAbsence):
        return False
    up = induced_morphism(c2, c1)
    if isinstance(up, MorphismAbsence):
        return False
    return down.kernel.dim == 0 and up.kernel.dim == 0


def leq(c1, c2):
    """c1 below c2 in the cover order."""
    return not isinstance(induced_morphism(c2, c1), MorphismAbsence)


# ---------------------------------------------------------------------------
# join and meet


def join(*covers, name=None):
    """Supremum: direct-sum ambient, j = (+) j_i, C generated by the image.

    The joined embedding is completely isometric by construction (each
    summand already is), so validation is structural only.
    """
    if len(covers) == 1:
        return covers[0]
    if len(covers) > 2:
        out = covers[0]
        for c in covers[1:]:
            out = join(out, c)
        return out
    c1, c2 = covers
    amb = c1.ambient.direct_sum(c2.ambient)
    imgs = []
    for x, y in zip(c1.j.images, c2.j.images):
        imgs.append(_pair_sum(c1.ambient, c2.ambient, x, y))
    return make_cover(c1.A, amb, imgs, verify=False,
                      name=name or f"join({c1.name},{c2.name})")


def meet(c1, c2, name=None):
    """Infimum: quotient of the join by the block ideal generated by the
    kernels of its two projection morphisms."""
    v = join(c1, c2)
    m1 = induced_morphism(v, c1)
    m2 = induced_morphism(v, c2)
    if isinstance(m1, MorphismAbsence) or isinstance(m2, MorphismAbsence):
        raise CoverError("join does not project onto its factors")
    ker_gens = list(m1.kernel.basis) + list(m2.kernel.basis)
    if not ker_gens:
        return v
    K = generate_ideal(v.C, ker_gens)
    if K.dim == 0:
        return v
    S = blocks_of_ideal(v.C, K)
    return quotient_cover(v, S, name=name or f"meet({c1.name},{c2.name})",
                          verify=True)


def quotient_cover(cover, S, name="quotient", verify=True):
    """Cover obtained by quotienting C by the block ideal z_S C, realized on
    the complementary corner and compressed onto its support."""
    qj = _quotient_embedding(cover, S)
    return make_cover(cover.A, qj.cod, list(qj.images), name=name,
                      verify=verify)


def _quotient_embedding(cover, S):
    """q . j, where q is the quotient of C by the block ideal z_S C on the
    complementary corner, compressed onto that corner's support."""
    corner, q = corner_quotient(cover.C, S)
    comp, V = compress_span(corner, tol=1e-9)
    if V is not None:
        q = LinearMap(dom=cover.C, cod=comp.ambient,
                      images=np.array([V.conj().T @ m @ V for m in q.images]))
    return q.compose(cover.j)


# ---------------------------------------------------------------------------
# boundary ideals, Shilov ideal, envelope


def is_boundary(cover, S, tol=MEMBER_TOL):
    """True when the quotient by the block ideal z_S C stays completely
    isometric on j(A).  Raises Undecided if the cb oracles cannot settle
    it."""
    S = frozenset(S)
    if not S:
        return True
    bs = cover.structure()
    if S == frozenset(range(bs.num_blocks)):
        return False
    qj = _quotient_embedding(cover, S)
    rep = require_decisive(ci_check(qj), "boundary-ideal test")
    return rep.verdict == CI


def shilov(cover):
    """Block subset carrying the Shilov (maximal boundary) ideal.

    Singleton blocks are tested one at a time; their union is re-verified.
    The union argument: every boundary singleton sits inside the maximal
    boundary ideal, and any sub-ideal of a boundary ideal is boundary.
    """
    if cover._shilov is not None:
        return cover._shilov
    bs = cover.structure()
    singles = [i for i in range(bs.num_blocks) if is_boundary(cover, {i})]
    S = frozenset(singles)
    if len(S) > 1 and not is_boundary(cover, S):
        raise CoverError(
            "boundary singletons did not union to a boundary ideal")
    cover._shilov = S
    return S


def envelope(cover, name=None):
    """The C*-envelope: quotient of the cover by its Shilov ideal."""
    if cover._envelope is not None:
        return cover._envelope
    S = shilov(cover)
    if not S:
        env = cover
    else:
        env = quotient_cover(cover, S, name=name or f"env({cover.name})",
                             verify=True)
        env._shilov = frozenset()
        env._envelope = env
    cover._envelope = env
    return env
