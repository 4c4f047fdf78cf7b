"""Crossed products of finite-dimensional algebras by finite groups.

Everything is built on the regular covariant representation on l2(G) (x) C^N:
the base algebra embeds block-diagonally via x -> diag_t(beta_{t^-1}(x)) and
the group acts by translation unitaries lambda_s.  For finite groups the full
and reduced crossed products coincide, so this one concrete model serves as
both.  The operator-algebra (relative) crossed product is the span of the
generators j(a)^ lambda_s inside the C*-crossed product of the cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cb import (CI, LinearMap, ci_check, map_from_generators,
                 require_decisive, star_hom_violations)
from .covers import CoverError, CstarCover, envelope, inclusion_cover
from .dynamics import (ADMISSIBLE, DynamicalSystem, admissible,
                       trivial_system)
from .linalg import MEMBER_TOL, AlgebraSpan, Ambient, hs_orthonormalize


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
    # j(a_i)^ lambda_s at row i * |G| + s, for the basis a_i of A
    generators: np.ndarray | None = None

    def covariance_residual(self):
        """Largest HS norm of lambda_s hat(c) lambda_s* - hat(beta_s(c)) over
        the group elements s and the basis elements c of the base."""
        basis = self.base.basis
        hats = self.hat(basis)
        out = 0.0
        for s, ls in enumerate(self.lambdas):
            diff = ls @ hats @ ls.conj().T - self.hat(self.betas[s](basis))
            out = float(np.linalg.norm(diff, axis=(1, 2)).max(initial=out))
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
    of the regular model is re-verified on all generators.  The algebra is
    the span of {hat(c) lambda_s}: covariance makes that span closed under
    products, hat(c) lambda_s hat(d) lambda_t = hat(c beta_s(d)) lambda_st,
    and adjoints, so it is C x G and no closure is generated.
    """
    N = C.ambient.dim
    NG = N * G.order
    amb = Ambient((NG,))
    lambdas = _lambda_matrices(G, N)
    hats = np.zeros((C.dim, NG, NG), dtype=complex)
    for t in range(G.order):
        hats[:, t * N:(t + 1) * N, t * N:(t + 1) * N] = \
            betas[G.inv(t)](C.basis)
    hat = LinearMap(dom=C, cod=amb, images=hats)
    algebra = AlgebraSpan(amb, hs_orthonormalize(
        (hats[:, None] @ lambdas).reshape(-1, NG, NG)),
        self_adjoint=True, unital=True)
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
    NG = cp.ambient.dim
    gens = (cp.hat(cover.j(ds.A.span.basis))[:, None]
            @ cp.lambdas).reshape(-1, NG, NG)
    sub = AlgebraSpan(cp.ambient, hs_orthonormalize(gens), unital=True)
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
    relative crossed products over admissible covers agree for finite G);
    the envelope is that of A's one inclusion_cover.  Kept on the system,
    as no cb oracle or seeded search takes part."""
    if ds._crossed is None:
        ds._crossed = relative_crossed(ds, envelope(inclusion_cover(ds.A)))
    return ds._crossed


NOT_ISOMETRIC = "not completely isometric"


def generator_isomorphism(dom, gens, imgs, onto, what, unital=True):
    """The map on `dom` that sends the spanning family `gens` to `imgs`,
    and the first reason it is not a completely isometric
    *-isomorphism onto the span `onto`: its star_hom_violations, else
    [NOT_ISOMETRIC] when ci_check (decisive, about `what`) says so, else
    []."""
    phi = map_from_generators(dom, gens, imgs, onto.ambient)
    bad = star_hom_violations(phi, onto, unital=unital)
    if not bad and require_decisive(ci_check(phi), what).verdict != CI:
        bad = [NOT_ISOMETRIC]
    return phi, bad


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
    imgs = [cp_i.hat(cover.j(a @ u)) @ lam for a in ds.A.span.basis
            for u, lam in zip(us, cp_i.lambdas)]
    phi, bad = generator_isomorphism(cp_a.subalgebra, cp_a.generators, imgs,
                                     cp_i.subalgebra,
                                     "trivialization isomorphism")
    if bad:
        raise CoverError("trivialization map is " + "; ".join(bad))
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
    _, bad = generator_isomorphism(cp1.subalgebra, cp1.generators,
                                   cp2.generators, cp2.subalgebra,
                                   "crossed-product comparison")
    return not bad
