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
                 graph_map, homomorphism_check, require_decisive, sends,
                 star_hom_violations)
from .linalg import (AlgebraSpan, compress_span, direct_sum,
                     generate_algebra, null_space)
from .linalg import graph_closure  # noqa: F401  (stays a public name here)
from .structure import blocks_of_ideal, corner_quotient, \
    minimal_central_projections


class CoverError(ValueError):
    """A claimed cover violates one of its invariants."""


class NotHomomorphism(CoverError):
    pass


class NotCompletelyIsometric(CoverError):
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
    idx = int(np.argmax(mags > 1e-6 * mags.max()))
    return y / (flat[idx] / abs(flat[idx]))


def normalize_witness(y):
    """Unit Frobenius norm, phase fixed by fix_phase."""
    y = np.asarray(y, dtype=complex)
    nrm = np.linalg.norm(y)
    if nrm < 1e-12:
        return y
    return fix_phase(y / nrm)


def make_cover(A, ambient, j_images, name="cover", verify=True):
    """Validate and build a C*-cover from the images of A's basis.

    Raises NotHomomorphism or NotCompletelyIsometric on a violated
    invariant; raises Undecided if the complete-isometry check is
    inconclusive.  The forward half of the CI certificate stays on `j`, so
    maps built from j later (quotients, joins) are certified by structure.
    With verify=False the complete-isometry check is skipped and j carries
    no certificate; every cover the library builds itself is checked
    (`join` attaches a direct-sum certificate instead), and the option
    stays for callers whose maps are CI by construction.
    """
    if isinstance(A, AlgebraSpan):
        A = OperatorAlgebra(A)
    j = LinearMap(dom=A.span, cod=ambient,
                  images=np.array([ambient.check(m) for m in j_images]))
    return _validated_cover(A, j, name, verify)


def _validated_cover(A, j, name, verify=True):
    """make_cover on an embedding given as a LinearMap, which keeps the
    provenance (factors) that its certificate may rest on."""
    if not homomorphism_check(j, unital=True):
        raise NotHomomorphism(
            "j is not a unital homomorphism on the operator algebra")
    if verify:
        rep = ci_check(j)
        if rep.verdict == INCONCLUSIVE:
            raise Undecided(f"ci_check inconclusive: {rep.diagnostics}")
        if rep.verdict != CI:
            raise NotCompletelyIsometric(
                "j is not completely isometric", rep.certificate)
        if rep.certificate is not None:
            j.certificate = rep.certificate["forward"]
    C = generate_algebra(j.cod, list(j.images), self_adjoint=True,
                         unital=True)
    return CstarCover(A=A, C=C, j=j, name=name)


# ---------------------------------------------------------------------------
# cover order


def extension_violations(phi, onto, pairs):
    """Violated properties of phi as a *-homomorphism onto `onto` that
    sends x to y for every pair (x, y) (empty when all hold)."""
    bad = star_hom_violations(phi, onto)
    if not sends(phi, pairs):
        bad.append("does not send x to y on every pair")
    return bad


def induced_morphism(upper, lower):
    """The unique *-homomorphism pi: C_upper -> C_lower with
    pi . j_upper = j_lower, or a MorphismAbsence with a witness.

    Existence of pi is exactly the statement that `lower` sits below `upper`
    in the cover order.
    """
    pairs = list(zip(upper.j.images, lower.j.images))
    pi, obstruction = graph_map(upper.ambient, lower.ambient, pairs, upper.C)
    if pi is None:
        w = normalize_witness(obstruction.basis[0])
        return MorphismAbsence(source=upper, target=lower, witness=w,
                               obstruction_dim=obstruction.dim)
    # the kernel: combinations of C_upper's basis that pi sends to zero
    ker = null_space(pi.images.reshape(upper.C.dim, -1), left=True)
    kernel = AlgebraSpan(upper.ambient,
                         np.tensordot(ker, upper.C.basis, axes=(1, 0)),
                         self_adjoint=True, ideal_in=upper.C)
    morph = CoverMorphism(source=upper, target=lower, pi=pi, kernel=kernel)
    bad = verify_morphism(morph)
    if bad:
        raise CoverError("induced morphism failed verification: " +
                         "; ".join(bad))
    return morph


def verify_morphism(m):
    """Invariant re-check: *-homomorphism onto the target, intertwines."""
    return extension_violations(m.pi, m.target.C,
                                zip(m.source.j.images, m.target.j.images))


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
    summand already is), so validation is structural only; when both
    summands carry certificates, j carries their direct-sum certificate.
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
    imgs = [direct_sum(x, y) for x, y in zip(c1.j.images, c2.j.images)]
    out = make_cover(c1.A, amb, imgs, verify=False,
                     name=name or f"join({c1.name},{c2.name})")
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
    the complementary corner and compressed onto its support."""
    return _validated_cover(cover.A, _quotient_embedding(cover, S), name)


def _quotient_embedding(cover, S):
    """q . j, where q is the quotient of C by the block ideal z_S C on the
    complementary corner, compressed onto that corner's support."""
    corner, q = corner_quotient(cover.C, S)
    comp, V = compress_span(corner)
    if V is not None:
        q = LinearMap(dom=cover.C, cod=comp.ambient,
                      images=np.array([V.conj().T @ m @ V for m in q.images]))
    return q.compose(cover.j)


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
        env = quotient_cover(cover, S, name=name or f"env({cover.name})")
        env._shilov = frozenset()
        env._envelope = env
    cover._envelope = env
    return env
