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
                 graph_map, require_decisive, star_hom_violations)
from .linalg import (SIGNIFICANT, WITNESS_FLOOR, AlgebraSpan, compress_span,
                     direct_sum, generate_algebra)
from .linalg import graph_closure  # noqa: F401  (stays a public name here)
from .structure import blocks_of_ideal, corner, minimal_central_projections


class CoverError(ValueError):
    """A claimed cover violates one of its invariants."""


class NotHomomorphism(CoverError):
    pass


class NotCompletelyIsometric(CoverError):
    pass


@dataclass
class OperatorAlgebra:
    """A unital, multiplicatively closed (not necessarily self-adjoint)
    subspace of a matrix ambient."""

    span: AlgebraSpan
    name: str = "A"
    _inclusion: "CstarCover | None" = field(default=None, repr=False,
                                            compare=False)
    _trivial: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ambient(self):
        return self.span.ambient

    @property
    def dim(self):
        return self.span.dim

    def verify(self):
        bad = list(self.span.verify())
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
    _quotient_reports: dict = field(default_factory=dict, repr=False,
                                    compare=False)
    _admissibility: list = field(default_factory=list, repr=False,
                                 compare=False)  # (system, report) pairs
    _summands: tuple = field(default=(), repr=False,
                             compare=False)  # a join's (cover, lo, hi)

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


def fix_phase(y):
    """Divide by the phase of the first coordinate of significant
    magnitude, making it positive real.  Keeps golden outputs stable."""
    flat = y.ravel()
    mags = np.abs(flat)
    idx = int(np.argmax(mags > SIGNIFICANT * mags.max()))
    return y / (flat[idx] / abs(flat[idx]))


def normalize_witness(y):
    """Unit Frobenius norm, phase fixed by fix_phase."""
    y = np.asarray(y, dtype=complex)
    nrm = np.linalg.norm(y)
    if nrm < WITNESS_FLOOR:
        return y
    return fix_phase(y / nrm)


def make_cover(A, ambient, j_images, name="cover", verify=True):
    """Validate and build a C*-cover from the images of A's basis.

    Raises NotHomomorphism or NotCompletelyIsometric on a violated
    invariant, CoverError when the generated C fails its own checks, and
    Undecided if the complete-isometry check is inconclusive.  The forward
    half of the CI certificate stays on `j`, so maps built from j later
    (quotients, joins) are certified by structure.
    With verify=False the complete-isometry check is skipped and j carries
    no certificate; every cover the library builds itself is checked
    (`join` attaches a direct-sum certificate instead), and the option
    stays for callers whose maps are CI by construction.
    """
    j = LinearMap(dom=A.span, cod=ambient, images=ambient.check(j_images))
    return _validated_cover(A, j, name, verify)


def _validated_cover(A, j, name, verify=True, C=None, rep=None):
    """make_cover on an embedding given as a LinearMap, which keeps the
    provenance (factors) that its certificate may rest on.  C, when given,
    is the C*-algebra that j's image is known to generate, and rep j's
    ci_check report; each is computed here otherwise."""
    if star_hom_violations(j, unital=True):
        raise NotHomomorphism(
            "j is not a unital homomorphism on the operator algebra")
    if verify:
        rep = ci_check(j) if rep is None else rep
        if rep.verdict == INCONCLUSIVE:
            raise Undecided(f"ci_check inconclusive: {rep.diagnostics}")
        if rep.verdict != CI:
            raise NotCompletelyIsometric(
                "j is not completely isometric", rep.certificate)
        if rep.certificate is not None:
            j.certificate = rep.certificate["forward"]
    if C is None:
        C = generate_algebra(j.cod, j.images)
    bad = C.verify()
    if bad:
        raise CoverError(f"cover {name!r}: C is not a C*-algebra: "
                         + "; ".join(bad))
    return CstarCover(A=A, C=C, j=j, name=name)


def inclusion_cover(A):
    """A inside its own ambient, named after A; built and certified once
    per algebra, so its envelope is too."""
    if A._inclusion is None:
        A._inclusion = make_cover(A, A.ambient, list(A.span.basis),
                                  name=f"{A.name.lower()}-inclusion")
    return A._inclusion


# ---------------------------------------------------------------------------
# cover order


def induced_morphism(upper, lower):
    """The unique *-homomorphism pi: C_upper -> C_lower with
    pi . j_upper = j_lower, or a MorphismAbsence with a witness.

    Existence of pi is exactly the statement that `lower` sits below `upper`
    in the cover order.  When `lower` is one of the summands that `join`
    built `upper` from, pi is the compression to that summand's range;
    otherwise it is read off the graph closure.  Either way it is verified.
    """
    part = next(((lo, hi) for c, lo, hi in upper._summands if c is lower),
                None)
    if part is not None:
        lo, hi = part
        pi = LinearMap(dom=upper.C, cod=lower.ambient,
                       images=upper.C.basis[:, lo:hi, lo:hi])
    else:
        pi, obstruction = graph_map(upper.ambient, lower.ambient,
                                    zip(upper.j.images, lower.j.images),
                                    upper.C)
    if pi is None:
        w = normalize_witness(obstruction.basis[0])
        return MorphismAbsence(source=upper, target=lower, witness=w,
                               obstruction_dim=obstruction.dim)
    kernel = AlgebraSpan(upper.ambient,
                         np.tensordot(pi.kernel(), upper.C.basis, axes=(1, 0)),
                         self_adjoint=True, ideal_in=upper.C)
    morph = CoverMorphism(source=upper, target=lower, pi=pi, kernel=kernel)
    bad = star_hom_violations(pi, lower.C, unital=True,
                              pairs=(upper.j.images, lower.j.images))
    if bad:
        raise CoverError("induced morphism failed verification: " +
                         "; ".join(bad))
    return morph


def equivalent(c1, c2):
    """Covers are equivalent when the induced morphism c1 -> c2 exists and
    has zero kernel: it is verified onto C_2, so it is then a
    *-isomorphism, and its inverse intertwines the embeddings the other
    way."""
    down = induced_morphism(c1, c2)
    return not isinstance(down, MorphismAbsence) and down.kernel.dim == 0


def leq(c1, c2):
    """c1 below c2 in the cover order."""
    return not isinstance(induced_morphism(c2, c1), MorphismAbsence)


# ---------------------------------------------------------------------------
# join and meet


def join(*covers, name=None):
    """Supremum: direct-sum ambient, j = (+) j_i, C generated by the image.

    The joined embedding is completely isometric by construction (each
    summand already is), so validation is structural only; when both
    summands carry certificates, j carries their direct-sum certificate.
    More than two covers are joined pairwise from the left, and the last
    join takes the name.  The join keeps its two summands with their ranges
    in its ambient, for `induced_morphism`.
    """
    if not covers:
        raise ValueError("join needs at least one cover, got none")
    if len(covers) == 1:
        return covers[0]
    *rest, c2 = covers
    c1 = join(*rest)
    amb = c1.ambient.direct_sum(c2.ambient)
    imgs = [direct_sum(x, y) for x, y in zip(c1.j.images, c2.j.images)]
    out = make_cover(c1.A, amb, imgs, verify=False,
                     name=name or f"join({c1.name},{c2.name})")
    N1 = c1.ambient.dim
    out._summands = ((c1, 0, N1), (c2, N1, amb.dim))
    if c1.j.certificate is not None and c2.j.certificate is not None:
        out.j.certificate = {"type": "direct-sum",
                             "cods": (c1.ambient, c2.ambient),
                             "parts": (c1.j.certificate, c2.j.certificate)}
    return out


def meet(c1, c2, name=None):
    """Infimum: quotient of the join by the block ideal generated by the
    kernels of its two projection morphisms (each already a block ideal,
    so that ideal is the one on the union of their blocks)."""
    v = join(c1, c2)
    m1 = induced_morphism(v, c1)
    m2 = induced_morphism(v, c2)
    if isinstance(m1, MorphismAbsence) or isinstance(m2, MorphismAbsence):
        raise CoverError("join does not project onto its factors")
    S = m1.kernel_blocks() | m2.kernel_blocks()
    if not S:
        return v
    return quotient_cover(v, S, name=name or f"meet({c1.name},{c2.name})")


def quotient_cover(cover, S, name="quotient"):
    """Cover obtained by quotienting C by the block ideal z_S C, realized on
    the complementary corner and compressed onto its support.  Its C is
    that corner q(C), as C*(q . j(A)) = q(C*(j(A))) for the *-homomorphism
    q."""
    C, q = quotient_map(cover.C, S)
    qj = q.compose(cover.j)
    return _validated_cover(cover.A, qj, name, C=C,
                            rep=_quotient_ci(cover, S, qj))


def quotient_map(C, S):
    """(q(C), q): the quotient q of C by the block ideal z_S C, realized as
    b -> z b on the complementary corner zC and compressed onto that
    corner's support, and the C*-algebra q(C) it is onto.  The library's
    only quotient by a block ideal."""
    bs = minimal_central_projections(C)
    z = bs.subset_projection(bs.complement(S))
    images = z @ C.basis
    comp, V = compress_span(corner(C, z))
    if V is not None:
        images = V.conj().T @ images @ V
    return (AlgebraSpan(comp.ambient, comp.basis, self_adjoint=True,
                        unital=True),
            LinearMap(dom=C, cod=comp.ambient, images=images))


def _quotient_ci(cover, S, qj):
    """ci_check of q . j, decided once per cover and block subset S: the
    boundary-ideal test and the quotient cover ask the same question."""
    S = frozenset(S)
    if S not in cover._quotient_reports:
        cover._quotient_reports[S] = ci_check(qj)
    return cover._quotient_reports[S]


# ---------------------------------------------------------------------------
# boundary ideals, Shilov ideal, envelope


def is_boundary(cover, S):
    """True when the quotient by the block ideal z_S C stays completely
    isometric on j(A).  Raises Undecided if the cb oracles cannot settle
    it."""
    S = frozenset(S)
    if not S:
        return True
    bs = cover.structure()
    if S == frozenset(range(bs.num_blocks)):
        return False
    qj = quotient_map(cover.C, S)[1].compose(cover.j)
    rep = require_decisive(_quotient_ci(cover, S, qj), "boundary-ideal test")
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
        env = quotient_cover(cover, S, name=name or f"env({cover.name})")
        env._shilov = frozenset()
        env._envelope = env
    cover._envelope = env
    return env
