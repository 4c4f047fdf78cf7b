"""Partial-action recovery: split a C*-cover along the Shilov ideal that
`covers.shilov` decided, build the induced partial action of the group on
the cover, realize the partial crossed product concretely, and verify that
the operator-algebra crossed product sits inside it completely isometrically.

The partial action's domain is C at the identity and the corner pC
elsewhere, where p is the unit of the Shilov ideal's annihilator, so pC is
the C*-envelope, with as many blocks as it has.  The dynamics always
extends to the envelope, so the action on pC is the extension
`dynamics.admissible` finds there, and the partial crossed product is the
envelope's crossed product plus the Shilov part (1-p)C at the identity
fiber.  Both pieces of C are reached through `covers.quotient_map`.

The point of the pipeline: even when a cover is not admissible (the action
does not extend to it globally), the action survives as a partial action
whose crossed product still contains A x G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cb import LinearMap, map_from_generators
from .covers import CstarCover, envelope, quotient_map, shilov
from .crossed import (NOT_ISOMETRIC, CrossedProduct, cstar_crossed,
                      full_crossed, generator_isomorphism)
from .dynamics import ADMISSIBLE, DynamicalSystem, SystemError_, admissible
from .linalg import (MEMBER_TOL, AlgebraSpan, Ambient, hs_orthonormalize,
                     orthonormal_span)
from .structure import minimal_central_projections


@dataclass
class PartialActionSpec:
    """The paper's partial action of G on a cover C: full domain at the
    identity, the annihilator corner pC everywhere else.  pC is the
    C*-envelope, realized as `envelope.C`; q is the quotient of C onto it
    (q . j is the envelope's embedding), r the quotient onto the Shilov
    part (1-p)C, or None when the Shilov ideal is zero, and `betas` the
    envelope's extension of the dynamics."""

    ds: DynamicalSystem
    cover: CstarCover
    q: LinearMap
    r: LinearMap | None
    envelope: CstarCover
    betas: list               # LinearMap on envelope.C per group element

    def domain(self, s):
        return self.cover.C if s == self.ds.G.identity else self.envelope.C


def build_partial_action(ds, cover):
    """The partial action induced on a cover, split along the Shilov set S
    that `shilov` decided, with no cb oracle call of its own.  The dynamics
    always extends to the C*-envelope (Katsoulis & Ramsey), so the action
    on the corner is the envelope's admissibility extension; SystemError_
    when the envelope is not admissible."""
    S = shilov(cover)
    q = quotient_map(cover.C, S)[1]
    r = quotient_map(cover.C, cover.structure().complement(S))[1] \
        if S else None
    env = envelope(cover)
    rep = admissible(ds, env)
    if rep.verdict != ADMISSIBLE:
        raise SystemError_("the action does not extend to the C*-envelope")
    return PartialActionSpec(ds=ds, cover=cover, q=q, r=r, envelope=env,
                             betas=rep.extension)


@dataclass
class PartialCrossed:
    """Concrete model of C x_theta G: the crossed product of the envelope
    by the extended action, plus the Shilov part (1-p)C of C at the
    identity fiber."""

    spec: PartialActionSpec
    ambient: Ambient
    algebra: AlgebraSpan
    envelope_crossed: CrossedProduct
    gamma_e: LinearMap        # C -> ambient, images of x delta_e
    gamma_s: list             # envelope.C -> ambient, z -> z delta_s
    convolution_residual: float = 0.0

    def gamma(self, s, x):
        if s == self.spec.ds.G.identity:
            return self.gamma_e(x)
        return self.gamma_s[s](x)


def partial_crossed(spec):
    """Build the Gamma-model of the partial crossed product and verify it
    against the convolution law (x delta_s)(y delta_t) =
    theta_s(theta_{s^-1}(x) y) delta_{st} on all basis pairs."""
    cover, env, r, G = spec.cover, spec.envelope, spec.r, spec.ds.G
    cp = cstar_crossed(env.C, G, spec.betas)
    NG = cp.ambient.dim
    amb = cp.ambient if r is None else cp.ambient.direct_sum(r.cod)

    def pad(top, bottom=0):
        out = np.zeros((len(top), amb.dim, amb.dim), dtype=complex)
        out[:, :NG, :NG] = top
        out[:, NG:, NG:] = bottom
        return out

    gamma_e = LinearMap(dom=cover.C, cod=amb,
                        images=pad(cp.hat(spec.q.images),
                                   0 if r is None else r.images))
    gamma_s = [LinearMap(dom=env.C, cod=amb, images=pad(cp.hat.images @ lam))
               for lam in cp.lambdas]
    mats = [gamma_e.images] + [g.images for s, g in enumerate(gamma_s)
                               if s != G.identity]
    algebra = AlgebraSpan(amb, hs_orthonormalize(np.concatenate(mats)),
                          self_adjoint=True, unital=True)
    want = cover.C.dim + env.C.dim * (G.order - 1)
    if algebra.dim != want:
        raise SystemError_(
            f"partial crossed product dimension {algebra.dim} != {want}")
    pc = PartialCrossed(spec=spec, ambient=amb, algebra=algebra,
                        envelope_crossed=cp, gamma_e=gamma_e,
                        gamma_s=gamma_s)
    pc.convolution_residual = res = _convolution_residual(pc)
    if res > 100 * MEMBER_TOL:
        raise SystemError_(
            f"convolution law residual {res:.2e} above tolerance")
    bad = algebra.verify()
    if bad:
        raise SystemError_("partial crossed product span invalid: " +
                           "; ".join(bad))
    return pc


def _convolution_residual(pc):
    """Largest HS residual of the convolution law, one x against the whole
    stack of y's per (s, t) block.  Products leaving the identity fiber are
    taken in the envelope, where q carries the identity fiber's C."""
    spec = pc.spec
    G, q, betas = spec.ds.G, spec.q, spec.betas
    e = G.identity
    stacks = [spec.domain(s).basis for s in range(G.order)]
    gammas = [pc.gamma(s, stacks[s]) for s in range(G.order)]
    env_stacks = [q(x) if s == e else x for s, x in enumerate(stacks)]
    res = 0.0
    for s in range(G.order):
        # theta_s(theta_{s^-1}(x) y) delta_{st}
        xis = stacks[s] if s == e else betas[G.inv(s)](stacks[s])
        for i, xi in enumerate(xis):
            for t in range(G.order):
                st = G.mul(s, t)
                if s == e and t == e:
                    want = pc.gamma_e(xi @ stacks[t])
                else:
                    prod = (q(xi) if s == e else xi) @ env_stacks[t]
                    if s != e:
                        prod = betas[s](prod)
                    want = pc.gamma_s[st](prod)
                diff = gammas[s][i] @ gammas[t] - want
                res = max(res, float(np.linalg.norm(
                    diff, axis=(-2, -1)).max(initial=0.0)))
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
    G = ds.G
    fc = full_crossed(ds)
    # j1(a) delta_s is envelope.j(a) delta_s, for s = e too
    gen_b = [pc.gamma_s[s](spec.envelope.j(a)) for a in ds.A.span.basis
             for s in range(G.order)]
    B = orthonormal_span(pc.ambient, gen_b)
    diagnostics = {}
    ok = True
    if B.dim != ds.A.dim * G.order:
        ok = False
        diagnostics["reason"] = (f"B has dimension {B.dim}, expected "
                                 f"{ds.A.dim * G.order}")
    residual = 0.0
    if ok:
        # B does not hold the ambient's identity: no unit to preserve
        fwd, bad = generator_isomorphism(B, gen_b, fc.generators,
                                         fc.subalgebra,
                                         "recovery isomorphism",
                                         unital=False)
        bwd = map_from_generators(fc.subalgebra, fc.generators, gen_b,
                                  pc.ambient)
        residual = max(
            float(np.linalg.norm(g(f(X)) - X, axis=(1, 2)).max())
            for f, g, X in ((fwd, bwd, B.basis),
                            (bwd, fwd, fc.subalgebra.basis)))
        if residual > 100 * MEMBER_TOL:
            ok = False
            diagnostics["reason"] = "recovery maps are not mutually inverse"
        elif bad:
            ok = False
            diagnostics["reason"] = "recovery map is " + (
                bad[0] if bad == [NOT_ISOMETRIC] else "not a homomorphism")
    pb = minimal_central_projections(pc.algebra).block_dims
    cb_ = minimal_central_projections(fc.algebra).block_dims
    return RecoveryReport(verified=ok, subalgebra_dim=B.dim,
                          partial_blocks=pb, crossed_blocks=cb_,
                          residual=residual, diagnostics=diagnostics)
