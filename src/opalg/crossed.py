"""Crossed products of finite-dimensional algebras by finite groups.

Everything is built on the regular covariant representation on l2(G) (x) C^N:
the base algebra embeds block-diagonally via x -> diag_t(beta_{t^-1}(x)) and
the group acts by translation unitaries lambda_s.  For finite groups the full
and reduced crossed products coincide, so this one concrete model serves as
both.  The operator-algebra (relative) crossed product is the span of the
generators j(a)^ lambda_s inside the C*-crossed product of the cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cb import (CI, LinearMap, ci_check, map_from_generators,
                 require_decisive, star_hom_violations)
from .covers import CoverError, CstarCover, envelope, make_cover
from .dynamics import (ADMISSIBLE, DynamicalSystem, admissible,
                       trivial_system)
from .linalg import (MEMBER_TOL, AlgebraSpan, Ambient, generate_algebra,
                     orthonormal_span)


class NotAdmissibleCover(CoverError):
    """Relative crossed product requested over a non-admissible cover; the
    admissibility witness rides along."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


@dataclass
class CrossedProduct:
    """A concrete crossed product on the regular representation.

    `algebra` is the C*-crossed product C x G; `subalgebra` (when a cover
    and system are attached) is the operator-algebra crossed product, the
    span of {j(a)^ lambda_s}.
    """

    G: "FiniteGroup"
    base: AlgebraSpan
    betas: list
    ambient: Ambient
    hat: LinearMap
    lambdas: np.ndarray  # (|G|, NG, NG)
    algebra: AlgebraSpan
    cover: CstarCover | None = None
    system: DynamicalSystem | None = None
    subalgebra: AlgebraSpan | None = None
    generators: dict = field(default_factory=dict)  # (a_index, s) -> matrix

    def jhat(self, a):
        """Embedded copy of j(a) at the identity group element."""
        return self.hat(self.cover.j(a))

    def generator(self, i, s):
        return self.generators[(i, s)]

    def covariance_residual(self):
        out = 0.0
        for s in range(self.G.order):
            ls = self.lambdas[s]
            for c in self.base.basis:
                lhs = ls @ self.hat(c) @ ls.conj().T
                rhs = self.hat(self.betas[s](c))
                out = max(out, float(np.linalg.norm(lhs - rhs)))
        return out


def _lambda_matrices(G, N):
    n = G.order
    out = np.zeros((n, n * N, n * N), dtype=complex)
    eye = np.eye(N)
    for s in range(n):
        for t in range(n):
            src = G.mul(G.inv(s), t)
            out[s, t * N:(t + 1) * N, src * N:(src + 1) * N] = eye
    return out


def cstar_crossed(C, G, betas):
    """C*-crossed product scaffold of a self-adjoint unital span C by G.

    betas[s] must be a validated *-automorphism of C for every s; covariance
    of the regular model is re-verified on all generators.
    """
    N = C.ambient.dim
    NG = N * G.order
    amb = Ambient((NG,))
    lambdas = _lambda_matrices(G, N)

    def embed(c):
        out = np.zeros((NG, NG), dtype=complex)
        for t in range(G.order):
            out[t * N:(t + 1) * N, t * N:(t + 1) * N] = betas[G.inv(t)](c)
        return out

    hat = LinearMap(dom=C, cod=amb,
                    images=np.array([embed(b) for b in C.basis]))
    gens = list(hat.images) + list(lambdas)
    algebra = generate_algebra(amb, gens, self_adjoint=True, unital=True)
    cp = CrossedProduct(G=G, base=C, betas=betas, ambient=amb, hat=hat,
                        lambdas=lambdas, algebra=algebra)
    res = cp.covariance_residual()
    if res > 10 * MEMBER_TOL:
        raise CoverError(f"covariance residual {res:.2e} above tolerance")
    if algebra.dim != C.dim * G.order:
        raise CoverError(
            f"crossed product dimension {algebra.dim} != "
            f"{C.dim} * {G.order}")
    return cp


def relative_crossed(ds, cover, report=None):
    """Operator-algebra crossed product of ds relative to an admissible
    cover.  `report` may carry a precomputed admissibility report."""
    if report is None:
        report = admissible(ds, cover)
    if report.verdict != ADMISSIBLE:
        raise NotAdmissibleCover(
            "cover is not admissible for this action",
            witness=report.witness)
    cp = cstar_crossed(cover.C, ds.G, report.extension)
    cp.cover = cover
    cp.system = ds
    gens = {}
    mats = []
    for i, a in enumerate(ds.A.span.basis):
        ja = cp.hat(cover.j(a))
        for s in range(ds.G.order):
            m = ja @ cp.lambdas[s]
            gens[(i, s)] = m
            mats.append(m)
    sub = orthonormal_span(cp.ambient, mats)
    sub = AlgebraSpan(cp.ambient, sub.basis, unital=True)
    if sub.dim != ds.A.dim * ds.G.order:
        raise CoverError(
            f"relative crossed product dimension {sub.dim} != "
            f"{ds.A.dim} * {ds.G.order}")
    bad = sub.verify()
    if bad:
        raise CoverError("crossed-product subalgebra invalid: " +
                         "; ".join(bad))
    cp.subalgebra = sub
    cp.generators = gens
    return cp


def full_crossed(ds):
    """THE crossed product A x G, computed relative to the C*-envelope (all
    relative crossed products over admissible covers agree for finite G)."""
    span = ds.A.span
    inclusion = make_cover(ds.A, span.ambient, list(span.basis),
                           name="inclusion")
    env = envelope(inclusion)
    return relative_crossed(ds, env)


def trivialization_iso(ds, cover, inner_report):
    """The isomorphism A x_alpha G -> A x_iota G, f(s) -> f(s) U~_s, for a
    system that is inner in itself with exactly-multiplicative unitaries.

    Returns (phi, alpha-crossed, iota-crossed) with phi verified as a
    completely isometric algebra isomorphism on the two subalgebras.
    """
    if not inner_report.found or inner_report.trivialized is None:
        raise CoverError("system is not inner in itself with an exact "
                         "group-law family of unitaries")
    us = inner_report.trivialized
    cp_a = relative_crossed(ds, cover)
    cp_i = relative_crossed(trivial_system(ds.A, ds.G), cover)
    gen_mats, gen_imgs = [], []
    for i, a in enumerate(ds.A.span.basis):
        for s in range(ds.G.order):
            gen_mats.append(cp_a.generator(i, s))
            gen_imgs.append(cp_i.hat(cover.j(a @ us[s])) @ cp_i.lambdas[s])
    phi = map_from_generators(cp_a.subalgebra, gen_mats, gen_imgs,
                              cp_i.ambient)
    bad = star_hom_violations(phi, cp_i.subalgebra)
    if bad:
        raise CoverError("trivialization map is " + "; ".join(bad))
    rep = require_decisive(ci_check(phi), "trivialization isomorphism")
    if rep.verdict != CI:
        raise CoverError("trivialization map is not completely isometric")
    return phi, cp_a, cp_i


def crossed_equivalent(cp1, cp2):
    """Whether the canonical generator bijection j1(a)lambda_s -> j2(a)
    lambda_s between two relative crossed products of the same system
    extends to a completely isometric algebra isomorphism of the
    operator-algebra crossed products."""
    n1, n2 = cp1.system.A.dim, cp2.system.A.dim
    if n1 != n2 or cp1.G.order != cp2.G.order:
        return False
    if cp1.subalgebra.dim != cp2.subalgebra.dim:
        return False
    gen_mats, gen_imgs = [], []
    for i in range(n1):
        for s in range(cp1.G.order):
            gen_mats.append(cp1.generator(i, s))
            gen_imgs.append(cp2.generator(i, s))
    phi = map_from_generators(cp1.subalgebra, gen_mats, gen_imgs,
                              cp2.ambient)
    if star_hom_violations(phi, cp2.subalgebra):
        return False
    rep = require_decisive(ci_check(phi), "crossed-product comparison")
    return rep.verdict == CI
