"""Complete-contractivity and complete-isometry decisions for linear maps
between subspaces of matrix algebras.

Two independent oracles back every verdict:

* a feasibility search for a unital completely positive extension of the
  2x2 off-diagonal (Paulsen) companion map, certified by a PSD Choi matrix
  satisfying the pinning affine constraints; and
* a falsifier search at amplification level k = codomain size, which (when it
  succeeds) returns an element whose norm provably grows, re-verifiable by
  two plain singular-value computations.

Verdicts are three-valued; when neither oracle lands within budget the
result is Inconclusive, with diagnostics, never a silent coercion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (MEMBER_TOL, AlgebraSpan, Ambient, NotInSpan, current,
                     hs_orthonormalize, operator_norm, support_isometry)

FEAS_TOL = 1e-7
FALSIFIER_MARGIN = 1e-6

CC = "CompletelyContractive"
NOT_CC = "NotCC"
CI = "CompletelyIsometric"
NOT_CI = "NotCI"
INCONCLUSIVE = "Inconclusive"


class Undecided(RuntimeError):
    """Raised by callers that need a decisive verdict but got Inconclusive."""


@dataclass
class LinearMap:
    """A linear map defined on a subspace S of a matrix ambient, recorded by
    the images of S's orthonormal basis."""

    dom: AlgebraSpan
    cod: Ambient
    images: np.ndarray  # (dom.dim, n, n)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=complex).reshape(
            self.dom.dim, self.cod.dim, self.cod.dim)

    def __call__(self, x):
        c = self.dom.coeffs(x)
        if len(c) == 0:
            return self.cod.zero()
        return np.tensordot(c, self.images, axes=(0, 0))

    def image_span(self, **flags):
        return AlgebraSpan(self.cod,
                           hs_orthonormalize(list(self.images)), **flags)

    def compose(self, other):
        """self after other."""
        return LinearMap(dom=other.dom, cod=self.cod,
                         images=np.array([self(img) for img in other.images]))

    def is_injective(self):
        if self.dom.dim == 0:
            return True
        flat = self.images.reshape(self.dom.dim, -1)
        if flat.shape[1] < flat.shape[0]:
            return False
        s = np.linalg.svd(flat, compute_uv=False)
        return s[-1] > MEMBER_TOL * max(1.0, float(s[0]))

    def kernel_element(self):
        """A unit-HS-norm domain element annihilated (up to numerics)."""
        flat = self.images.reshape(self.dom.dim, -1)
        # c @ flat = flat.T @ c is smallest for the last right singular
        # vector of flat.T
        _, _, vh = np.linalg.svd(flat.T, full_matrices=True)
        return self.dom.from_coeffs(vh[-1].conj())

    def inverse_on_image(self):
        """Inverse map defined on the orthonormalized image span."""
        return map_from_generators(self.image_span(), self.images,
                                   self.dom.basis, self.dom.ambient)


def map_from_generators(dom_span, gen_mats, gen_images, cod):
    """Linear map on dom_span determined by the images of a (possibly
    non-orthonormal or redundant) family spanning it: each basis element is
    expanded over the family by least squares."""
    flat = np.array([np.ravel(m) for m in gen_mats])
    gen_images = np.asarray(gen_images)
    imgs = []
    for b in dom_span.basis:
        c, *_ = np.linalg.lstsq(flat.T, b.ravel(), rcond=None)
        imgs.append(np.tensordot(c, gen_images, axes=(0, 0)))
    return LinearMap(dom=dom_span, cod=cod, images=np.array(imgs))


@dataclass
class CbReport:
    verdict: str
    certificate: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def decisive(self):
        return self.verdict != INCONCLUSIVE


def homomorphism_check(phi, unital=True):
    """True when phi is multiplicative on its domain, and unit-preserving
    if requested.  A product that leaves the domain counts as a failure."""
    basis = phi.dom.basis
    imgs = [phi(b) for b in basis]
    for a, fa in zip(basis, imgs):
        for b, fb in zip(basis, imgs):
            try:
                if np.linalg.norm(phi(a @ b) - fa @ fb) > MEMBER_TOL * 10:
                    return False
            except NotInSpan:
                return False
    return not unital or _unit_preserved(phi)


def _unit_preserved(phi):
    return np.linalg.norm(phi(phi.dom.ambient.identity())
                          - phi.cod.identity()) <= MEMBER_TOL * 10


def star_hom_violations(phi, onto):
    """Violated properties of phi as a *-homomorphism onto the span `onto`
    (empty when it is one).  Unit preservation is checked when the domain
    is flagged unital, adjoint preservation when it is self-adjoint."""
    bad = []
    if not homomorphism_check(phi, unital=False):
        bad.append("not multiplicative")
    if phi.dom.unital and not _unit_preserved(phi):
        bad.append("not unit-preserving")
    if phi.dom.self_adjoint and any(
            np.linalg.norm(phi(b.conj().T) - phi(b).conj().T)
            > 10 * MEMBER_TOL for b in phi.dom.basis):
        bad.append("not adjoint-preserving")
    img = phi.image_span()
    if img.dim != onto.dim or not onto.contains_span(img):
        bad.append("not onto the target")
    return bad


# ---------------------------------------------------------------------------
# support compression


def _compressed_problem(phi):
    """Compress domain and codomain to their supports.  Returns
    (S_basis, images, N, n, Vdom, Vcod): orthonormal compressed domain basis,
    compressed images, compressed sizes, and the two isometries (or None)."""
    N0, n0 = phi.dom.ambient.dim, phi.cod.dim
    dom_mats = list(phi.dom.basis)
    Vd = support_isometry(dom_mats, N0)
    S = [Vd.conj().T @ b @ Vd for b in dom_mats] if Vd is not None else dom_mats
    img_mats = list(phi.images)
    Vc = support_isometry(img_mats, n0)
    imgs = [Vc.conj().T @ b @ Vc for b in img_mats] if Vc is not None else img_mats
    N = S[0].shape[0] if S else N0
    n = imgs[0].shape[0] if imgs else n0
    return S, imgs, N, n, Vd, Vc


# ---------------------------------------------------------------------------
# feasibility oracle (Choi matrix of a UCP extension of the Paulsen map)


def _paulsen_pins(S, images, N, n):
    """HS-orthonormal basis of the companion operator system in M_{2N} and
    the matching required images in M_{2n}."""
    bs, Rs = [], []

    def corner(N_, top_left, top_right, bot_left, bot_right):
        out = np.zeros((2 * N_, 2 * N_), dtype=complex)
        if top_left is not None:
            out[:N_, :N_] = top_left
        if top_right is not None:
            out[:N_, N_:] = top_right
        if bot_left is not None:
            out[N_:, :N_] = bot_left
        if bot_right is not None:
            out[N_:, N_:] = bot_right
        return out

    bs.append(corner(N, np.eye(N) / np.sqrt(N), None, None, None))
    Rs.append(corner(n, np.eye(n) / np.sqrt(N), None, None, None))
    bs.append(corner(N, None, None, None, np.eye(N) / np.sqrt(N)))
    Rs.append(corner(n, None, None, None, np.eye(n) / np.sqrt(N)))
    for s, img in zip(S, images):
        bs.append(corner(N, None, s, None, None))
        Rs.append(corner(n, None, img, None, None))
        bs.append(corner(N, None, None, s.conj().T, None))
        Rs.append(corner(n, None, None, img.conj().T, None))
    return np.array(bs), np.array(Rs)


def _choi_apply(B, X4):
    """Evaluate the map of Choi tensor X4 on each pin basis element."""
    return np.einsum("lij,iajb->lab", B, X4, optimize=True)


def choi_feasibility(phi, max_iter=None):
    """Search for a PSD Choi matrix of a UCP map pinned to the Paulsen
    companion of phi, by alternating reflections through the PSD cone and
    the affine pinning set (both built from the plain projections), for at
    most `max_iter` iterations (None: the current RunConfig's).

    Returns (certificate | None, diagnostics).  The certificate re-verifies
    independently: PSD to tolerance and affine residual below tolerance.
    """
    if max_iter is None:
        max_iter = current().max_iter
    S, imgs, N, n, _, _ = _compressed_problem(phi)
    if not S:
        return {"type": "choi", "choi": np.zeros((0, 0)), "residual": 0.0,
                "dom_basis": np.zeros((0, 1, 1)), "images": np.zeros((0, 1, 1)),
                "sizes": (0, 0)}, {"iterations": 0}
    B, R = _paulsen_pins(S, imgs, N, n)
    dN, dn = 2 * N, 2 * n
    D = dN * dn

    def p_aff(X4):
        diff = R - _choi_apply(B, X4)
        corr = np.einsum("lij,lab->iajb", B.conj(), diff, optimize=True)
        return X4 + corr, float(np.linalg.norm(diff))

    def p_psd(X4):
        X = X4.reshape(D, D)
        X = (X + X.conj().T) / 2
        w, V = np.linalg.eigh(X)
        Xp = (V * np.clip(w, 0.0, None)) @ V.conj().T
        return Xp.reshape(dN, dn, dN, dn)

    Z, _ = p_aff(np.zeros((dN, dn, dN, dn), dtype=complex))
    best = np.inf
    since_best = 0
    res = np.inf
    for it in range(max_iter):
        Y = p_psd(Z)
        Wr, _ = p_aff(2 * Y - Z)
        Z = Z + Wr - Y
        _, res = p_aff(Y)
        if res < FEAS_TOL:
            cert = {"type": "choi", "choi": Y.reshape(D, D), "residual": res,
                    "dom_basis": np.array(S), "images": np.array(imgs),
                    "sizes": (N, n)}
            return cert, {"iterations": it + 1, "residual": res}
        if res < 0.999 * best:
            best = res
            since_best = 0
        else:
            since_best += 1
            if since_best > 1000 and res > 100 * FEAS_TOL:
                break
    return None, {"iterations": it + 1, "residual": res, "stalled": True}


def verify_choi_certificate(cert):
    """Independent re-check of a feasibility certificate."""
    S = cert["dom_basis"]
    if len(S) == 0:
        return True
    N, n = cert["sizes"]
    B, R = _paulsen_pins(list(S), list(cert["images"]), N, n)
    X = cert["choi"]
    w = np.linalg.eigvalsh((X + X.conj().T) / 2)
    if w[0] < -10 * FEAS_TOL:
        return False
    X4 = X.reshape(2 * N, 2 * n, 2 * N, 2 * n)
    res = float(np.linalg.norm(R - _choi_apply(B, X4)))
    return res < 10 * FEAS_TOL


# ---------------------------------------------------------------------------
# falsifier oracle


def _amplified(coeffs, mats, k, sz):
    """Assemble sum_{a,b,d} c[a,b,d] E_ab (x) mats[d] as a (k*sz, k*sz)
    matrix."""
    blocks = np.tensordot(coeffs, mats, axes=(2, 0))  # (k, k, sz, sz)
    return blocks.transpose(0, 2, 1, 3).reshape(k * sz, k * sz)


def falsifier_search(phi, seed=None, restarts=32):
    """Alternating-ascent search for a matrix-level counterexample to
    complete contractivity at level k = codomain size; the restarts are
    seeded by `seed` (None: the current RunConfig's).

    Returns (best_ratio, certificate | None).  The certificate carries the
    offending element in the original domain coordinates together with both
    operator norms; it re-verifies by recomputing them.
    """
    S, imgs, N, n, Vd, _ = _compressed_problem(phi)
    if not S:
        return 0.0, None
    S = np.array(S)
    imgs_c = np.array(imgs)
    k = n
    d = len(S)
    rng = np.random.default_rng(current().seed if seed is None else seed)
    best_ratio = 0.0
    best_c = None
    for _ in range(restarts):
        c = rng.standard_normal((k, k, d)) + 1j * rng.standard_normal((k, k, d))
        stale = 0
        local_best = 0.0
        for _ in range(40):
            x = _amplified(c, S, k, N)
            nx = operator_norm(x)
            if nx < 1e-14:
                break
            y = _amplified(c, imgs_c, k, n)
            U, sv, Vh = np.linalg.svd(y)
            ratio = float(sv[0]) / nx
            if ratio > best_ratio:
                best_ratio, best_c = ratio, c / nx
            if ratio > local_best * (1 + 1e-9):
                local_best, stale = ratio, 0
            else:
                stale += 1
                if stale > 6:
                    break
            u = U[:, 0].reshape(k, n)
            v = Vh[0].conj().reshape(k, n)
            g = np.einsum("ka,dab,lb->kld", u.conj(), imgs_c, v, optimize=True)
            if np.linalg.norm(g) < 1e-14:
                break
            c = g.conj()
        if best_ratio > 1 + FALSIFIER_MARGIN:
            break
    if best_ratio > 1 + FALSIFIER_MARGIN and best_c is not None:
        x = _amplified(best_c, S, k, N)
        if Vd is not None:
            Ik = np.eye(k)
            W = np.kron(Ik, Vd)
            x = W @ x @ W.conj().T
        nx = operator_norm(x)
        blocks = x.reshape(k, phi.dom.ambient.dim, k, phi.dom.ambient.dim)
        img_blocks = np.array([[phi(blocks[a, :, b, :]) for b in range(k)]
                               for a in range(k)])
        y = img_blocks.transpose(0, 2, 1, 3).reshape(k * phi.cod.dim,
                                                     k * phi.cod.dim)
        ny = operator_norm(y)
        if ny > nx * (1 + FALSIFIER_MARGIN):
            cert = {"type": "falsifier", "level": k, "x": x, "norm_x": nx,
                    "norm_image": ny, "margin": FALSIFIER_MARGIN}
            return best_ratio, cert
    return best_ratio, None


def verify_falsifier(phi, cert):
    """Recompute both operator norms of a falsifier and confirm the gap."""
    k = cert["level"]
    x = cert["x"]
    N, n = phi.dom.ambient.dim, phi.cod.dim
    blocks = x.reshape(k, N, k, N)
    img = np.array([[phi(blocks[a, :, b, :]) for b in range(k)]
                    for a in range(k)])
    y = img.transpose(0, 2, 1, 3).reshape(k * n, k * n)
    nx, ny = operator_norm(x), operator_norm(y)
    if abs(nx - cert["norm_x"]) > 1e-9 \
            or abs(ny - cert["norm_image"]) > 1e-9:
        return False
    return ny > nx * (1 + cert["margin"])


# ---------------------------------------------------------------------------
# verdicts


def cc_check(phi):
    """Decide complete contractivity of phi.  Falsifier search runs first
    (cheap); on failure the feasibility oracle looks for a UCP-extension
    certificate."""
    if phi.dom.dim == 0:
        return CbReport(CC, None, {"trivial": "zero-dimensional domain"})
    ratio, cert = falsifier_search(phi)
    if cert is not None:
        return CbReport(NOT_CC, cert, {"best_ratio": ratio})
    choi, diag = choi_feasibility(phi)
    diag["best_ratio"] = ratio
    if choi is not None:
        return CbReport(CC, choi, diag)
    return CbReport(INCONCLUSIVE, None, diag)


def ci_check(phi):
    """Decide complete isometry: injectivity plus complete contractivity of
    the map and of its inverse on the image."""
    if phi.dom.dim == 0:
        return CbReport(CI, None, {"trivial": "zero-dimensional domain"})
    if not phi.is_injective():
        x = phi.kernel_element()
        nx = operator_norm(x)
        cert = {"type": "falsifier", "level": 1, "x": x, "norm_x": nx,
                "norm_image": operator_norm(phi(x)),
                "margin": FALSIFIER_MARGIN, "direction": "kernel"}
        return CbReport(NOT_CI, cert, {"reason": "not injective"})
    fwd = cc_check(phi)
    if fwd.verdict == NOT_CC:
        return CbReport(NOT_CI, fwd.certificate, fwd.diagnostics)
    inv = phi.inverse_on_image()
    bwd = cc_check(inv)
    if bwd.verdict == NOT_CC:
        d = dict(bwd.diagnostics)
        d["direction"] = "inverse"
        return CbReport(NOT_CI, bwd.certificate, d)
    if fwd.verdict == CC and bwd.verdict == CC:
        return CbReport(CI, {"type": "choi-pair",
                             "forward": fwd.certificate,
                             "inverse": bwd.certificate},
                        {"forward": fwd.diagnostics,
                         "inverse": bwd.diagnostics})
    return CbReport(INCONCLUSIVE, None,
                    {"forward": fwd.diagnostics, "inverse": bwd.diagnostics})


def require_decisive(report, what=""):
    if not report.decisive:
        raise Undecided(f"inconclusive cb verdict {what}: {report.diagnostics}")
    return report
