"""Complete-contractivity and complete-isometry decisions for linear maps
between subspaces of matrix algebras.

Most maps the library asks about are completely contractive because of how
they were built: a *-homomorphism is, and so are its restrictions, its
compositions with completely contractive maps and direct sums of completely
contractive maps (Paulsen 2002, ch. 1 and 3).  `cc_check` first tries three
structural certificates, each re-verified against the map:

* ``homomorphism``: the extension of the map to a *-homomorphism of the
  C*-algebra its domain generates, read off the graph closure;
* ``composition``: a *-homomorphism after a map that carries a certificate
  (`LinearMap.compose` records the two factors);
* ``direct-sum``: the certificates of the summands of j1 (+) j2 (attached by
  `covers.join`).

Two independent oracles back every other verdict:

* a feasibility search for a unital completely positive extension of the
  2x2 off-diagonal (Paulsen) companion map, certified by a PSD Choi matrix
  satisfying the pinning affine constraints.  The search runs on a
  block-diagonal Choi variable: the connected components of the compressed
  domain and codomain coordinates split it into one independent problem
  per codomain block, each with one PSD block per domain block (Smith's
  lemma and Arveson extension; Paulsen 2002, ch. 3, 6, 7).  The certificate
  is the dense Choi matrix assembled from the blocks; and
* a falsifier search at amplification level k = codomain size, which (when it
  succeeds) returns an element whose norm provably grows, re-verifiable by
  two plain singular-value computations.

Verdicts are three-valued; when neither oracle lands within budget, or a
certificate fails its independent re-verification, the result is
Inconclusive, with diagnostics, never a silent coercion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (MEMBER_TOL, RANK_TOL, AlgebraSpan, Ambient, NotInSpan,
                     current, graph_closure, graph_obstruction,
                     hs_orthonormalize, operator_norm, orthonormal_span,
                     support_isometry)

FEAS_TOL = 1e-7
FALSIFIER_MARGIN = 1e-6

CC = "CompletelyContractive"
NOT_CC = "NotCC"
CI = "CompletelyIsometric"
NOT_CI = "NotCI"
INCONCLUSIVE = "Inconclusive"

# certificate types that certify complete contractivity
CC_CERTIFICATES = ("choi", "homomorphism", "composition", "direct-sum")


class Undecided(RuntimeError):
    """Raised by callers that need a decisive verdict but got Inconclusive."""


@dataclass
class LinearMap:
    """A linear map defined on a subspace S of a matrix ambient, recorded by
    the images of S's orthonormal basis.

    `factors` (outer, inner) records a map built by `compose`, and
    `certificate` a certificate of complete contractivity; cc_check
    re-verifies either before it relies on it."""

    dom: AlgebraSpan
    cod: Ambient
    images: np.ndarray  # (dom.dim, n, n)
    factors: tuple | None = field(default=None, repr=False, compare=False)
    certificate: dict | None = field(default=None, repr=False,
                                     compare=False)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=complex).reshape(
            self.dom.dim, self.cod.dim, self.cod.dim)

    def __call__(self, x):
        c = self.dom.coeffs(x)
        if len(c) == 0:
            return self.cod.zero()
        return np.tensordot(c, self.images, axes=(0, 0))

    def image_span(self):
        return AlgebraSpan(self.cod, hs_orthonormalize(list(self.images)))

    def compose(self, other):
        """self after other."""
        return LinearMap(dom=other.dom, cod=self.cod,
                         images=np.array([self(img) for img in other.images]),
                         factors=(self, other))

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


def homomorphism_check(phi, unital=True, gens=None):
    """True when phi is multiplicative on the algebra generated by `gens`
    (default: its domain basis), and unit-preserving if requested.

    phi(b g) = phi(b) phi(g) is checked for every domain basis element b
    and generator g; by induction on word length that makes phi
    multiplicative on every word in the generators.  A generator or a
    product outside the domain counts as a failure."""
    basis = phi.dom.basis
    try:
        imgs = [phi(b) for b in basis]
        gen_imgs = imgs if gens is None else [phi(g) for g in gens]
        gens = basis if gens is None else gens
        for b, fb in zip(basis, imgs):
            for g, fg in zip(gens, gen_imgs):
                if np.linalg.norm(phi(b @ g) - fb @ fg) > MEMBER_TOL * 10:
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


def graph_map(amb1, amb2, pairs, dom=None, unital=True):
    """The map x -> y that the graph closure of `pairs` defines, on `dom`
    (default: the span of the closure's first components, the C*-algebra
    the x generate, with 1 when `unital`).

    Returns (LinearMap | None, obstruction): the obstruction is the span of
    {y : (0, y) in the closure}; when it is nonzero the closure is not a
    graph and the map is None.  This one computation decides the cover
    order, admissibility, the corner maps of the partial action and the
    homomorphism certificates.
    """
    G = graph_closure(amb1, amb2, pairs, unital=unital)
    obstruction = graph_obstruction(amb1, amb2, G)
    if obstruction.dim > 0:
        return None, obstruction
    N1 = amb1.dim
    firsts = G.basis[:, :N1, :N1]
    if dom is None:
        dom = orthonormal_span(amb1, list(firsts))
    return map_from_generators(dom, firsts, G.basis[:, N1:, N1:],
                               amb2), obstruction


# ---------------------------------------------------------------------------
# structural certificates


def _star_hom_on(psi, gens):
    """True when psi is a *-homomorphism on the C*-algebra generated by
    `gens`: multiplicative on words in the generators and their adjoints,
    and adjoint-preserving on the generators, hence on every word."""
    gens = list(gens)
    adjoints = [g.conj().T for g in gens]
    try:
        if any(np.linalg.norm(psi(a) - psi(g).conj().T) > 10 * MEMBER_TOL
               for g, a in zip(gens, adjoints)):
            return False
    except NotInSpan:
        return False
    return homomorphism_check(psi, unital=False, gens=gens + adjoints)


def sends(f, pairs):
    """True when f(x) = y, to 10 * MEMBER_TOL, on every pair (x, y); False
    when f is not defined at some x or its value has another shape."""
    try:
        for x, y in pairs:
            fx = f(x)
            if fx.shape != y.shape \
                    or np.linalg.norm(fx - y) > 10 * MEMBER_TOL:
                return False
    except ValueError:  # NotInSpan, or a domain of another shape
        return False
    return True


def _homomorphism_extension(phi):
    """phi's extension to a *-homomorphism of C*(dom), read off the graph
    closure of {(x, phi(x))}, or None when the closure is not a graph.
    A *-homomorphism sends 1 to a projection, so when 1 is in the domain
    and phi(1) is not one the closure is skipped."""
    one = phi.dom.ambient.identity()
    if phi.dom.contains(one):
        p = phi(one)
        if np.linalg.norm(p @ p - p) > 10 * MEMBER_TOL \
                or np.linalg.norm(p - p.conj().T) > 10 * MEMBER_TOL:
            return None
    ext, _ = graph_map(phi.dom.ambient, phi.cod,
                       zip(phi.dom.basis, phi.images), unital=False)
    return ext


def _structural_certificates(phi):
    """Candidate certificates that phi is completely contractive by
    construction, cheapest first: the one it carries, the composition it
    was built as, and its extension to a *-homomorphism of C*(dom)."""
    if phi.certificate is not None \
            and phi.certificate["type"] in CC_CERTIFICATES:
        yield phi.certificate
    if phi.factors is not None and phi.factors[1].certificate is not None:
        outer, inner = phi.factors
        yield {"type": "composition", "outer": outer, "inner": inner}
    ext = _homomorphism_extension(phi)
    if ext is not None:
        yield {"type": "homomorphism", "extension": ext}


def _certifies_cc(cert, phi):
    return cert is not None and cert["type"] in CC_CERTIFICATES \
        and verify_certificate(cert, phi)


def _summands(phi, cods):
    """The two diagonal corners of phi along the codomain split
    cods[0] (+) cods[1], or None when phi's images leave those corners."""
    N1 = cods[0].dim
    imgs = phi.images
    if N1 + cods[1].dim != phi.cod.dim \
            or np.linalg.norm(imgs[:, :N1, N1:]) > 10 * MEMBER_TOL \
            or np.linalg.norm(imgs[:, N1:, :N1]) > 10 * MEMBER_TOL:
        return None
    return [LinearMap(dom=phi.dom, cod=cods[0],
                      images=imgs[:, :N1, :N1].copy()),
            LinearMap(dom=phi.dom, cod=cods[1],
                      images=imgs[:, N1:, N1:].copy())]


def _verify_kernel(cert, phi):
    """A kernel certificate holds a nonzero domain element that phi sends
    to zero, up to 10 * MEMBER_TOL relative to its norm."""
    x = np.asarray(cert["x"])
    N = phi.dom.ambient.dim
    if x.shape != (N, N) or not phi.dom.contains(x):
        return False
    nx = operator_norm(x)
    return nx > 0 and operator_norm(phi(x)) <= 10 * MEMBER_TOL * nx


def verify_certificate(cert, phi):
    """Re-verify against phi any certificate that cc_check or ci_check
    returns (True when it holds):

    * ``choi``: the Choi matrix re-verifies and pins phi's own problem;
    * ``falsifier``: both norms recomputed, or for ``direction: kernel`` a
      domain element that phi kills;
    * ``homomorphism``: the extension agrees with phi on its domain and is a
      *-homomorphism on C*(dom), checked on basis x generator products;
    * ``composition``: phi = outer . inner, outer a *-homomorphism on the
      C*-algebra of inner's image, and inner's own certificate holds;
    * ``direct-sum``: phi = phi1 (+) phi2 and each part's certificate holds;
    * ``pair``: phi is injective, and the forward and inverse certificates
      hold for phi and its inverse on the image.
    """
    kind = cert["type"]
    if kind == "choi":
        return verify_choi_certificate(cert) and _certifies(cert, phi)
    if kind == "falsifier":
        if cert.get("direction") == "kernel":
            return _verify_kernel(cert, phi)
        return verify_falsifier(phi, cert)
    if kind == "homomorphism":
        ext = cert["extension"]
        return sends(ext, zip(phi.dom.basis, phi.images)) \
            and _star_hom_on(ext, phi.dom.basis)
    if kind == "composition":
        outer, inner = cert["outer"], cert["inner"]
        return sends(lambda x: outer(inner(x)),
                     zip(phi.dom.basis, phi.images)) \
            and _star_hom_on(outer, inner.images) \
            and _certifies_cc(inner.certificate, inner)
    if kind == "direct-sum":
        parts = _summands(phi, cert["cods"])
        return parts is not None and all(
            _certifies_cc(c, part) for c, part in zip(cert["parts"], parts))
    if kind == "pair":
        return phi.is_injective() \
            and _certifies_cc(cert["forward"], phi) \
            and _certifies_cc(cert["inverse"], phi.inverse_on_image())
    raise ValueError(f"unknown certificate type {kind!r}")


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
    return np.tensordot(B, X4, axes=([1, 2], [0, 2]))


def _coordinate_blocks(mats):
    """Connected components of the coordinates of the square matrices
    `mats`: two coordinates are linked when some matrix has an entry
    between them above RANK_TOL (times the largest entry, when above 1).
    Returns one index array per component."""
    mag = np.abs(mats).max(axis=0)
    linked = np.maximum(mag, mag.T) > RANK_TOL * max(1.0, float(mag.max()))
    blocks, free = [], np.ones(len(linked), dtype=bool)
    for start in range(len(linked)):
        if not free[start]:
            continue
        reach = np.zeros(len(linked), dtype=bool)
        reach[start] = True
        while True:
            grown = reach | linked[reach].any(axis=0)
            if (grown == reach).all():
                break
            reach = grown
        free &= ~reach
        blocks.append(np.flatnonzero(reach))
    return blocks


def _pin_layout(X, p, m):
    """(p*m, p*m) Choi block -> (p*p, m*m): rows index the domain entry."""
    return X.reshape(p, m, p, m).transpose(0, 2, 1, 3).reshape(p * p, m * m)


def _choi_layout(V, p, m):
    """Inverse of _pin_layout."""
    return V.reshape(p, p, m, m).transpose(0, 2, 1, 3).reshape(p * m, p * m)


def _psd_part(X):
    """Projection onto the PSD cone, rebuilt from the positive eigenpairs."""
    w, V = np.linalg.eigh((X + X.conj().T) / 2)
    pos = np.searchsorted(w, 0.0, side="right")
    Vp = V[:, pos:]
    return (Vp * w[pos:]) @ Vp.conj().T


def _dr_block(pins, R, max_iter, target):
    """Douglas-Rachford on one codomain block.  The variable is one Choi
    block per domain block; pins[i] (L, p_i, p_i) are the pins restricted to
    domain block i and R (L, m, m) the required images, so A(X) is one GEMM
    per domain block and, the pin rows being orthonormal, the affine
    projection is X + A*(R - A X).  A(Z) is carried along instead of being
    recomputed: Z' = Y + A*(R - 2AY + AZ) gives A(Z') = AZ + R - AY.

    Returns (Choi blocks | None, iterations, residual)."""
    L, m = R.shape[:2]
    sizes = [P.shape[1] for P in pins]
    ops = [P.reshape(L, -1) for P in pins]
    adj = [op.conj().T for op in ops]
    R = R.reshape(L, -1)

    def apply(Xs):
        return sum(op @ _pin_layout(X, p, m)
                   for op, X, p in zip(ops, Xs, sizes))

    Z = [_choi_layout(H @ R, p, m) for H, p in zip(adj, sizes)]
    AZ = apply(Z)
    best, since_best = np.inf, 0
    it, res = -1, np.inf
    for it in range(max_iter):
        Y = [_psd_part(X) for X in Z]
        AY = apply(Y)
        diff = R - AY
        res = float(np.linalg.norm(diff))
        if res < target:
            return Y, it + 1, res
        if res < 0.999 * best:
            best, since_best = res, 0
        else:
            since_best += 1
            if since_best > 1000 and res > 100 * target:
                break
        step = diff - AY + AZ
        Z = [X + _choi_layout(H @ step, p, m)
             for X, H, p in zip(Y, adj, sizes)]
        AZ = AZ + diff
    return None, it + 1, res


def choi_feasibility(phi, max_iter=None):
    """Search for a PSD Choi matrix of a UCP map pinned to the Paulsen
    companion of phi, by Douglas-Rachford splitting between the PSD cone
    and the affine pinning set, for at most `max_iter` iterations per block
    (None: the current RunConfig's).

    The pins never link coordinates in different connected components of
    the compressed domain (resp. codomain) coordinates, so a feasible Choi
    matrix pinched to those blocks stays feasible: the variable is
    block-diagonal, each codomain block is an independent problem with
    residual target FEAS_TOL/sqrt(#blocks), and within it the PSD
    projection is one eigh per domain block.  A single block is the dense
    problem.

    Returns (certificate | None, diagnostics).  The certificate is the dense
    Choi matrix assembled from the blocks (zeros elsewhere), with its pin
    residual recomputed on the dense pins; it re-verifies independently:
    PSD to tolerance and affine residual below tolerance.  `iterations` is
    summed over the blocks.
    """
    if max_iter is None:
        max_iter = current().max_iter
    S, imgs, N, n, _, _ = _compressed_problem(phi)
    if not S:
        return {"type": "choi", "choi": np.zeros((0, 0)), "residual": 0.0,
                "dom_basis": np.zeros((0, 1, 1)), "images": np.zeros((0, 1, 1)),
                "sizes": (0, 0)}, {"iterations": 0}
    B, R = _paulsen_pins(S, imgs, N, n)
    dom_blocks = _coordinate_blocks(B)
    cod_blocks = _coordinate_blocks(R)
    target = FEAS_TOL / np.sqrt(len(cod_blocks))
    pins = [B[:, P][:, :, P] for P in dom_blocks]
    X4 = np.zeros((2 * N, 2 * n, 2 * N, 2 * n), dtype=complex)
    iterations, sq = 0, 0.0
    for Q in cod_blocks:
        Ys, its, res = _dr_block(pins, R[:, Q][:, :, Q], max_iter, target)
        iterations += its
        sq += res ** 2
        if Ys is None:
            return None, {"iterations": iterations,
                          "residual": float(np.sqrt(sq)), "stalled": True}
        for P, Y in zip(dom_blocks, Ys):
            X4[np.ix_(P, Q, P, Q)] = Y.reshape(len(P), len(Q), len(P), len(Q))
    res = float(np.linalg.norm(R - _choi_apply(B, X4)))
    if res >= FEAS_TOL:
        return None, {"iterations": iterations, "residual": res,
                      "stalled": True}
    D = 4 * N * n
    cert = {"type": "choi", "choi": X4.reshape(D, D), "residual": res,
            "dom_basis": np.array(S), "images": np.array(imgs),
            "sizes": (N, n)}
    return cert, {"iterations": iterations, "residual": res}


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


def _pairings(u, mats, v):
    """g[k, l, d] = <u[k], mats[d] v[l]> = sum_ab conj(u[k, a]) mats[d, a, b]
    v[l, b], as two tensordot contractions."""
    return np.tensordot(np.tensordot(u.conj(), mats, axes=(1, 1)),
                        v, axes=(2, 1)).transpose(0, 2, 1)


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
            g = _pairings(u, imgs_c, v)
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
    """Decide complete contractivity of phi.  The structural certificates
    come first (see _structural_certificates); then the falsifier search
    (cheap), and on failure the feasibility oracle looks for a
    UCP-extension certificate.  A decisive verdict is returned only with a
    certificate that re-verifies against phi, and its diagnostics name what
    decided it (`decided_by`: the certificate type, or "falsifier");
    otherwise the verdict is Inconclusive and the diagnostics name the
    failed check."""
    if phi.dom.dim == 0:
        return CbReport(CC, None, {"trivial": "zero-dimensional domain",
                                   "decided_by": "trivial"})
    for cert in _structural_certificates(phi):
        if verify_certificate(cert, phi):
            return CbReport(CC, cert, {"decided_by": cert["type"]})
    ratio, cert = falsifier_search(phi)
    if cert is not None:
        diag = {"best_ratio": ratio}
        if verify_falsifier(phi, cert):
            diag["decided_by"] = "falsifier"
            return CbReport(NOT_CC, cert, diag)
        diag["failed_check"] = "verify_falsifier"
        return CbReport(INCONCLUSIVE, None, diag)
    choi, diag = choi_feasibility(phi)
    diag["best_ratio"] = ratio
    if choi is None:
        return CbReport(INCONCLUSIVE, None, diag)
    if not verify_choi_certificate(choi):
        diag["failed_check"] = "verify_choi_certificate"
    elif not _certifies(choi, phi):
        diag["failed_check"] = "choi_certificate_binding"
    else:
        diag["decided_by"] = "choi"
        return CbReport(CC, choi, diag)
    return CbReport(INCONCLUSIVE, None, diag)


def _certifies(cert, phi):
    """True when a Choi certificate pins phi's own compressed problem, not
    that of another map."""
    S, imgs = _compressed_problem(phi)[:2]
    return np.array_equal(cert["dom_basis"], np.array(S)) \
        and np.array_equal(cert["images"], np.array(imgs))


def ci_check(phi):
    """Decide complete isometry: injectivity plus complete contractivity of
    the map and of its inverse on the image.  A kernel certificate is
    re-verified like the others; the CI certificate is the pair of the two
    directions' certificates, and `decided_by` is recorded per direction."""
    if phi.dom.dim == 0:
        return CbReport(CI, None, {"trivial": "zero-dimensional domain",
                                   "decided_by": "trivial"})
    if not phi.is_injective():
        x = phi.kernel_element()
        nx = operator_norm(x)
        cert = {"type": "falsifier", "level": 1, "x": x, "norm_x": nx,
                "norm_image": operator_norm(phi(x)),
                "margin": FALSIFIER_MARGIN, "direction": "kernel"}
        diag = {"reason": "not injective"}
        if verify_certificate(cert, phi):
            diag["decided_by"] = "kernel"
            return CbReport(NOT_CI, cert, diag)
        diag["failed_check"] = "kernel_certificate"
        return CbReport(INCONCLUSIVE, None, diag)
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
        return CbReport(CI, {"type": "pair",
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
