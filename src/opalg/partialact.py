"""Partial-action recovery: decompose a C*-cover along its Shilov ideal,
build the induced partial action of the group on the cover, realize the
partial crossed product concretely, and verify that the operator-algebra
crossed product sits inside it completely isometrically.

The point of the pipeline: even when a cover is not admissible (the action
does not extend to it globally), the action survives as a partial action
whose crossed product still contains A x G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cb import (CC, CI, NOT_CI, LinearMap, cc_check, ci_check, graph_map,
                 homomorphism_check, map_from_generators, require_decisive)
from .covers import CoverError, CstarCover, extension_violations
from .crossed import CrossedProduct, cstar_crossed, full_crossed
from .dynamics import DynamicalSystem, SystemError_, group_law_violations
from .linalg import (MEMBER_TOL, AlgebraSpan, Ambient, compress_span,
                     direct_sum, orthonormal_span)
from .structure import annihilator, ideal_blocks, minimal_central_projections
from .covers import shilov as shilov_set_of


class ShilovNotMaximal(CoverError):
    """The Shilov ideal is not maximal (the envelope is not simple); the
    full recovery pipeline requires maximality."""


@dataclass
class Decomposition:
    """Splitting j = j1 + j2 along the Shilov ideal: p is the unit of the
    ideal's annihilator, j1 = p j the envelope part, j2 = (1-p) j the
    boundary part."""

    cover: CstarCover
    p: np.ndarray
    j1: LinearMap
    j2: LinearMap
    shilov_blocks: frozenset
    shilov_is_essential: bool


def decompose(cover):
    """Split a cover along its Shilov ideal.

    Raises ShilovNotMaximal when the envelope has more than one simple
    block.  The split maps are validated: j1 completely isometric, j2
    completely contractive and (for a nonzero Shilov ideal) not completely
    isometric.
    """
    S = shilov_set_of(cover)
    bs = cover.structure()
    env_blocks = bs.num_blocks - len(S)
    if env_blocks != 1:
        raise ShilovNotMaximal(
            f"envelope has {env_blocks} blocks; Shilov ideal not maximal")
    p = bs.subset_projection(bs.complement(S))

    def after_j(z):
        """x -> z x on C (a *-homomorphism, z being central), after j."""
        zx = LinearMap(dom=cover.C, cod=cover.ambient,
                       images=np.array([z @ b for b in cover.C.basis]))
        return zx.compose(cover.j)

    j1, j2 = after_j(p), after_j(cover.ambient.identity() - p)
    rep1 = require_decisive(ci_check(j1), "envelope part of the splitting")
    if rep1.verdict != CI:
        raise CoverError("p j is not completely isometric")
    essential = False
    if S:
        J = ideal_blocks(cover.C, S)
        essential = annihilator(cover.C, J).dim == 0
        if not homomorphism_check(j2, unital=False):
            raise CoverError("(1-p) j is not a homomorphism")
        rep2 = require_decisive(cc_check(j2), "boundary part of the splitting")
        if rep2.verdict != CC:
            raise CoverError("(1-p) j is not completely contractive")
        rep2i = require_decisive(ci_check(j2), "boundary part isometry test")
        if rep2i.verdict != NOT_CI:
            raise CoverError(
                "(1-p) j is completely isometric; Shilov ideal misidentified")
    return Decomposition(cover=cover, p=p, j1=j1, j2=j2,
                         shilov_blocks=S, shilov_is_essential=essential)


@dataclass
class PartialActionSpec:
    """The paper's partial action of G on a cover C: full domain at the
    identity, the annihilator corner pC everywhere else, acted on by the
    envelope extension."""

    ds: DynamicalSystem
    cover: CstarCover
    decomposition: Decomposition
    corner: AlgebraSpan       # pC inside the cover ambient
    thetas: list              # LinearMap on `corner` per group element

    def domain(self, s):
        return self.decomposition.cover.C if s == self.ds.G.identity \
            else self.corner


def build_partial_action(ds, cover):
    """Construct and validate the partial action induced on a cover.

    The corner maps theta_s come from graph closure of the corner embedding
    pairs {(p j(a), p j(alpha_s(a)))}; the corner is equivalent to the
    envelope, which is always admissible, so the closure must be a graph."""
    dec = decompose(cover)
    amb = cover.ambient
    corner = orthonormal_span(amb, [dec.p @ b for b in cover.C.basis])
    corner = AlgebraSpan(amb, corner.basis, self_adjoint=True)
    thetas, bad = [], []
    for s in range(ds.G.order):
        pairs = [(dec.p @ cover.j(a), dec.p @ cover.j(ds.act(s, a)))
                 for a in ds.A.span.basis]
        if s == ds.G.identity:
            theta = LinearMap(dom=corner, cod=amb, images=corner.basis.copy())
        else:
            theta, _ = graph_map(amb, amb, pairs, corner, unital=False)
            if theta is None:
                raise SystemError_(
                    "corner action closure is not a graph; envelope "
                    "extension missing")
        bad += [f"theta_{s} {v}"
                for v in extension_violations(theta, corner, pairs)]
        thetas.append(theta)
    bad += group_law_violations(ds.G, thetas, corner, "theta")
    if bad:
        raise SystemError_("partial-action axioms violated: " +
                           "; ".join(bad))
    return PartialActionSpec(ds=ds, cover=cover, decomposition=dec,
                             corner=corner, thetas=thetas)


@dataclass
class PartialCrossed:
    """Concrete model of C x_theta G: the crossed product of the corner by
    the (global) corner action, plus an untouched copy of the complementary
    part of C at the identity fiber."""

    spec: PartialActionSpec
    ambient: Ambient
    algebra: AlgebraSpan
    corner_crossed: CrossedProduct
    gamma_e: LinearMap        # C -> ambient, images of x delta_e
    gamma_s: list             # corner -> ambient for s != identity
    convolution_residual: float = 0.0

    def gamma(self, s, x):
        if s == self.spec.ds.G.identity:
            return self.gamma_e(x)
        return self.gamma_s[s](x)


def partial_crossed(spec):
    """Build the Gamma-model of the partial crossed product and verify it
    against the convolution law (x delta_s)(y delta_t) =
    theta_s(theta_{s^-1}(x) y) delta_{st} on all basis pairs."""
    ds, cover, dec = spec.ds, spec.cover, spec.decomposition
    G = ds.G
    corner_c, V = compress_span(spec.corner)
    if V is None:
        V = np.eye(cover.ambient.dim, dtype=complex)
    thetas_c = []
    for th in spec.thetas:
        imgs = np.array([V.conj().T @ th(V @ b @ V.conj().T) @ V
                         for b in corner_c.basis])
        thetas_c.append(LinearMap(dom=corner_c, cod=corner_c.ambient,
                                  images=imgs))
    cp = cstar_crossed(corner_c, G, thetas_c)
    # complementary part (1-p)C on its own support
    q = cover.ambient.identity() - dec.p
    rest = orthonormal_span(cover.ambient,
                            [q @ b for b in cover.C.basis])
    rest = AlgebraSpan(cover.ambient, rest.basis, self_adjoint=True)
    if rest.dim:
        rest_c, W = compress_span(rest)
        amb = cp.ambient.direct_sum(rest_c.ambient)
    else:
        rest_c, W = rest, None
        amb = cp.ambient
    NG = cp.ambient.dim

    def pad(top, bottom=None):
        if rest.dim == 0:
            return top
        b = bottom if bottom is not None \
            else np.zeros((rest_c.ambient.dim,) * 2, dtype=complex)
        return direct_sum(top, b)

    def comp_corner(x):
        return V.conj().T @ x @ V

    def comp_rest(x):
        return W.conj().T @ x @ W if W is not None else x

    ge_imgs = []
    for b in cover.C.basis:
        top = cp.hat(comp_corner(dec.p @ b))
        ge_imgs.append(pad(top, comp_rest(q @ b) if rest.dim else None))
    gamma_e = LinearMap(dom=cover.C, cod=amb, images=np.array(ge_imgs))
    gamma_s = [None] * G.order
    all_mats = list(gamma_e.images)
    for s in range(G.order):
        if s == G.identity:
            continue
        imgs = []
        for b in spec.corner.basis:
            top = cp.hat(comp_corner(b)) @ cp.lambdas[s]
            imgs.append(pad(top))
        gamma_s[s] = LinearMap(dom=spec.corner, cod=amb,
                               images=np.array(imgs))
        all_mats += imgs
    algebra = orthonormal_span(amb, all_mats)
    algebra = AlgebraSpan(amb, algebra.basis, self_adjoint=True, unital=True)
    want = cover.C.dim + spec.corner.dim * (G.order - 1)
    if algebra.dim != want:
        raise SystemError_(
            f"partial crossed product dimension {algebra.dim} != {want}")
    pc = PartialCrossed(spec=spec, ambient=amb, algebra=algebra,
                        corner_crossed=cp, gamma_e=gamma_e, gamma_s=gamma_s)
    res = _convolution_residual(pc)
    if res > 100 * MEMBER_TOL:
        raise SystemError_(
            f"convolution law residual {res:.2e} above tolerance")
    pc.convolution_residual = res
    bad = algebra.verify()
    if bad:
        raise SystemError_("partial crossed product span invalid: " +
                           "; ".join(bad))
    return pc


def _convolution_residual(pc):
    spec = pc.spec
    G = spec.ds.G
    e = G.identity
    corner = spec.corner
    th = spec.thetas
    res = 0.0
    for s in range(G.order):
        xs = list(spec.cover.C.basis) if s == e else list(corner.basis)
        for t in range(G.order):
            ys = list(spec.cover.C.basis) if t == e else list(corner.basis)
            st = G.mul(s, t)
            for x in xs:
                for y in ys:
                    # theta_s(theta_{s^-1}(x) y) delta_{st}
                    xi = x if s == e else th[G.inv(s)](x)
                    prod = xi @ y
                    if s != e:
                        prod = th[s](corner.project(prod))
                    if st != e:
                        prod = corner.project(prod)
                    lhs = pc.gamma(s, x) @ pc.gamma(t, y)
                    rhs = pc.gamma(st, prod)
                    res = max(res, float(np.linalg.norm(lhs - rhs)))
    return res


@dataclass
class RecoveryReport:
    """Outcome of locating A x G inside the partial crossed product."""

    verified: bool
    subalgebra_dim: int
    partial_blocks: tuple
    crossed_blocks: tuple
    residual: float
    diagnostics: dict = field(default_factory=dict)


def verify_partial_recovery(ds, cover):
    """Run the whole pipeline: B = span{j1(a) delta_s} inside the partial
    crossed product, compared with the full crossed product A x G via the
    canonical generator bijection, verified as a completely isometric
    isomorphism in both directions."""
    spec = build_partial_action(ds, cover)
    pc = partial_crossed(spec)
    dec = spec.decomposition
    G = ds.G
    fc = full_crossed(ds)
    gen_b, gen_f = [], []
    for i, a in enumerate(ds.A.span.basis):
        j1a = dec.p @ cover.j(a)
        for s in range(G.order):
            gen_b.append(pc.gamma(s, j1a))
            gen_f.append(fc.generator(i, s))
    B = orthonormal_span(pc.ambient, gen_b)
    B = AlgebraSpan(pc.ambient, B.basis, unital=False)
    diagnostics = {}
    ok = True
    if B.dim != ds.A.dim * G.order:
        ok = False
        diagnostics["reason"] = (f"B has dimension {B.dim}, expected "
                                 f"{ds.A.dim * G.order}")
    residual = 0.0
    if ok:
        fwd = map_from_generators(B, gen_b, gen_f, fc.ambient)
        bwd = map_from_generators(fc.subalgebra, gen_f, gen_b, pc.ambient)
        for b in B.basis:
            residual = max(residual,
                           float(np.linalg.norm(bwd(fwd(b)) - b)))
        for b in fc.subalgebra.basis:
            residual = max(residual,
                           float(np.linalg.norm(fwd(bwd(b)) - b)))
        if residual > 100 * MEMBER_TOL:
            ok = False
            diagnostics["reason"] = "recovery maps are not mutually inverse"
        elif not homomorphism_check(fwd, unital=False):
            ok = False
            diagnostics["reason"] = "recovery map is not a homomorphism"
        else:
            rep = require_decisive(ci_check(fwd), "recovery isomorphism")
            if rep.verdict != CI:
                ok = False
                diagnostics["reason"] = ("recovery map is not completely "
                                         "isometric")
    pb = minimal_central_projections(pc.algebra).block_dims
    cb_ = minimal_central_projections(fc.algebra).block_dims
    return RecoveryReport(verified=ok, subalgebra_dim=B.dim,
                          partial_blocks=pb, crossed_blocks=cb_,
                          residual=residual, diagnostics=diagnostics)
