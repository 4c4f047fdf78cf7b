import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg import cb, corpus, crossed
from opalg.cb import (CC, CI, FEAS_TOL, INCONCLUSIVE, NOT_CC, NOT_CI, CbReport,
                      LinearMap, Undecided, cc_check, ci_check,
                      falsifier_search, choi_feasibility, homomorphism_check,
                      require_decisive, star_hom_violations,
                      verify_choi_certificate, verify_falsifier)
from opalg.corpus import a4_algebra, schur_projection_p
from opalg.covers import join
from opalg.dynamics import inner_in_itself
from opalg.linalg import (Ambient, direct_sum, generate_algebra,
                          orthonormal_span)


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def map_from_images(span, cod, images):
    return LinearMap(dom=span, cod=cod, images=np.array(images))


@pytest.fixture(scope="module")
def m2():
    amb = Ambient((2,))
    return generate_algebra(amb, [amb.matrix_unit(i, j)
                                  for i in range(2) for j in range(2)],
                            self_adjoint=True, unital=True)


class TestLinearMap:
    def test_call_and_compose(self, m2):
        amb = m2.ambient
        ident = map_from_images(m2, amb, list(m2.basis))
        x = rand_mat(np.random.default_rng(0), 2)
        assert np.allclose(ident(x), x)
        assert np.allclose(ident.compose(ident)(x), x)

    def test_inverse_on_image(self, m2):
        rng = np.random.default_rng(4)
        u = np.linalg.qr(rand_mat(rng, 2))[0]
        conj = map_from_images(m2, m2.ambient,
                               [u @ b @ u.conj().T for b in m2.basis])
        inv = conj.inverse_on_image()
        x = rand_mat(rng, 2)
        assert np.allclose(inv(conj(x)), x)

    def test_kernel_element(self, m2):
        amb = m2.ambient
        # Compression to the (0,0) corner kills E01, E10, E11.
        p = amb.matrix_unit(0, 0)
        comp = map_from_images(m2, amb, [p @ b @ p for b in m2.basis])
        assert not comp.is_injective()
        k = comp.kernel_element()
        assert np.linalg.norm(comp(k)) < 1e-9
        assert np.linalg.norm(k) == pytest.approx(1.0)

    def test_kernel_element_of_complex_map(self, m2):
        rng = np.random.default_rng(8)
        x, y = rand_mat(rng, 2), rand_mat(rng, 2)
        c = complex(rng.standard_normal(), rng.standard_normal())
        phi = map_from_images(m2, m2.ambient, [x, y, c * x + 2j * y, y])
        k = phi.kernel_element()
        assert np.linalg.norm(phi(k)) < 1e-9
        assert np.linalg.norm(k) == pytest.approx(1.0)


def test_homomorphism_check(m2):
    amb = m2.ambient
    ident = map_from_images(m2, amb, list(m2.basis))
    assert homomorphism_check(ident)
    # The transpose is linear but anti-multiplicative on M2.
    transpose = map_from_images(m2, amb, [b.T for b in m2.basis])
    assert not homomorphism_check(transpose)


def _doubled(m2):
    return m2, [2 * b for b in m2.basis]


def _similarity(m2):
    S = np.array([[1.0, 1.0], [0.0, 2.0]])
    Si = np.linalg.inv(S)
    return m2, [S @ b @ Si for b in m2.basis]


def _diagonal_into_m2(m2):
    amb = m2.ambient
    D = generate_algebra(amb, [amb.matrix_unit(0, 0), amb.matrix_unit(1, 1)],
                         self_adjoint=True, unital=True)
    return D, list(D.basis)


@pytest.mark.parametrize("build, want", [
    (_doubled, ["not multiplicative", "not unit-preserving"]),
    (_similarity, ["not adjoint-preserving"]),
    (_diagonal_into_m2, ["not onto the target"]),
])
def test_star_hom_violations_names_each_failure(m2, build, want):
    dom, images = build(m2)
    phi = map_from_images(dom, m2.ambient, images)
    assert star_hom_violations(phi, m2) == want
    ident = map_from_images(m2, m2.ambient, list(m2.basis))
    assert star_hom_violations(ident, m2) == []


class TestOracles:
    def test_identity_is_ci(self, m2):
        ident = map_from_images(m2, m2.ambient, list(m2.basis))
        rep = ci_check(ident)
        assert rep.verdict == CI

    def test_scaling_up_is_not_cc(self, m2):
        doubled = map_from_images(m2, m2.ambient, [2 * b for b in m2.basis])
        rep = cc_check(doubled)
        assert rep.verdict == NOT_CC
        assert verify_falsifier(doubled, rep.certificate)

    def test_scaling_down_is_cc_not_ci(self, m2):
        halved = map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])
        assert cc_check(halved).verdict == CC
        assert ci_check(halved).verdict == NOT_CI

    def test_unitary_conjugation_is_ci(self, m2):
        rng = np.random.default_rng(9)
        u = np.linalg.qr(rand_mat(rng, 2))[0]
        conj = map_from_images(m2, m2.ambient,
                               [u @ b @ u.conj().T for b in m2.basis])
        assert ci_check(conj).verdict == CI

    def test_transpose_on_offdiagonal_corner(self):
        # The transpose map is isometric but not completely contractive
        # already on the full M2; the falsifier must find a level-2 witness.
        amb = Ambient((2,))
        full = generate_algebra(amb, [amb.matrix_unit(i, j)
                                      for i in range(2) for j in range(2)],
                                self_adjoint=True, unital=True)
        transpose = map_from_images(full, amb, [b.T for b in full.basis])
        rep = cc_check(transpose)
        assert rep.verdict == NOT_CC
        assert rep.certificate["level"] >= 2

    def test_feasibility_certificate_reverifies(self, m2):
        ident = map_from_images(m2, m2.ambient, list(m2.basis))
        cert, diag = choi_feasibility(ident)
        assert cert is not None
        assert verify_choi_certificate(cert)

    def test_falsifier_absent_for_contraction(self, m2):
        halved = map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])
        ratio, cert = falsifier_search(halved)
        assert cert is None
        assert ratio <= 1 + 1e-6

    def test_require_decisive_raises(self):
        from opalg.cb import CbReport, INCONCLUSIVE
        with pytest.raises(Undecided):
            require_decisive(CbReport(verdict=INCONCLUSIVE))


def test_schur_multiplier_map_is_not_ci():
    """The Schur multiplier with pattern I + E14 + E41 on the 4x4
    triangular-pattern algebra is a unital complete contraction but not a
    complete isometry on its own."""
    A = a4_algebra()
    p = schur_projection_p()
    phi = map_from_images(A.span, A.span.ambient,
                          [p * b for b in A.span.basis])
    assert cc_check(phi).verdict == CC
    rep = ci_check(phi)
    assert rep.verdict == NOT_CI


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_oracles_never_disagree_on_random_maps(seed):
    """Fuzz: on a random map between subspaces of M3 the two oracles must
    never certify opposite verdicts."""
    rng = np.random.default_rng(seed)
    amb = Ambient((3,))
    d = int(rng.integers(1, 4))
    dom = orthonormal_span(amb, [rand_mat(rng, 3) for _ in range(d)])
    scale = float(rng.uniform(0.3, 1.7))
    phi = map_from_images(dom, amb,
                          [scale * rand_mat(rng, 3) for b in dom.basis])
    ratio, fal_cert = falsifier_search(phi, seed=seed % 97, restarts=8)
    feas_cert, _ = choi_feasibility(phi, max_iter=4000)
    if fal_cert is not None:
        assert verify_falsifier(phi, fal_cert)
        assert feas_cert is None
    if feas_cert is not None:
        assert verify_choi_certificate(feas_cert)


def test_pairings_match_the_einsum_reference():
    rng = np.random.default_rng(3)
    u, v = rand_mat(rng, 3)[:, :2], rand_mat(rng, 3)[:, 1:]
    mats = np.array([rand_mat(rng, 2) for _ in range(4)])
    ref = np.einsum("ka,dab,lb->kld", u.conj(), mats, v)
    assert np.allclose(cb._pairings(u, mats, v), ref, rtol=0, atol=1e-13)


def test_zero_iteration_budget_gives_no_certificate(m2):
    ident = map_from_images(m2, m2.ambient, list(m2.basis))
    cert, diag = choi_feasibility(ident, max_iter=0)
    assert cert is None
    assert diag["iterations"] == 0


# ---------------------------------------------------------------------------
# re-verification gate


def _negative_eigenvalue(cert):
    X = cert["choi"]
    w, V = np.linalg.eigh(X)
    v = V[:, :1]
    return dict(cert, choi=X - (w[0] + 1e-3) * (v @ v.conj().T))


def _shifted_pin(cert):
    n = cert["sizes"][1]
    return dict(cert, images=cert["images"] + 1e-3 * np.eye(n))


@pytest.mark.parametrize("spoil", [_negative_eigenvalue, _shifted_pin])
def test_unverified_choi_certificate_is_inconclusive(m2, monkeypatch, spoil):
    halved = map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])
    solve = cb.choi_feasibility

    def corrupted(phi, max_iter=None):
        cert, diag = solve(phi, max_iter)
        return spoil(cert), diag

    monkeypatch.setattr(cb, "choi_feasibility", corrupted)
    rep = cc_check(halved)
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["failed_check"] == "verify_choi_certificate"


def test_choi_certificate_of_another_map_is_inconclusive(monkeypatch):
    span = corpus.t2_algebra().span

    def scaled(t):
        return map_from_images(span, span.ambient, t * span.basis)

    cert, diag = choi_feasibility(scaled(0.5))
    assert verify_choi_certificate(cert)
    monkeypatch.setattr(cb, "falsifier_search", lambda phi: (0.0, None))
    monkeypatch.setattr(cb, "choi_feasibility", lambda phi: (cert, dict(diag)))
    rep = cc_check(scaled(3.0))
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["failed_check"] == "choi_certificate_binding"


def test_unverified_falsifier_is_inconclusive(m2, monkeypatch):
    doubled = map_from_images(m2, m2.ambient, [2 * b for b in m2.basis])
    search = cb.falsifier_search

    def corrupted(phi):
        ratio, cert = search(phi)
        return ratio, dict(cert, norm_image=cert["norm_image"] + 1.0)

    monkeypatch.setattr(cb, "falsifier_search", corrupted)
    rep = cc_check(doubled)
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["failed_check"] == "verify_falsifier"


# ---------------------------------------------------------------------------
# the block-diagonal Choi solver


@pytest.fixture(scope="module")
def trivialization_map():
    """The trivialization map of the T2 sign system over the diagonal
    cover, taken where crossed.trivialization_iso hands it to ci_check."""
    captured = []

    def capture(phi):
        captured.append(phi)
        return CbReport(CI)

    ds = corpus.t2_system()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossed, "ci_check", capture)
        crossed.trivialization_iso(ds, corpus.t2_diag_cover(),
                                   inner_in_itself(ds))
    return captured[0]


def test_choi_solver_splits_along_coordinate_blocks(trivialization_map,
                                                    monkeypatch):
    phi = trivialization_map
    assert (phi.dom.dim, phi.dom.ambient.dim, phi.cod.dim) == (6, 8, 8)
    widths = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        widths.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    cert, diag = choi_feasibility(phi)
    monkeypatch.undo()
    assert cert is not None
    assert cert["choi"].shape == (4 * 8 * 8, 4 * 8 * 8)
    assert cert["residual"] < FEAS_TOL
    assert verify_choi_certificate(cert)
    # Coordinate blocks (4, 2, 2) on both sides, doubled to (8, 4, 4) by
    # the Paulsen companion: no Choi block is wider than 8 * 8.
    assert widths and max(widths) <= 64


def _dense_douglas_rachford(phi, max_iter):
    """Reference: Douglas-Rachford on the dense Choi matrix, with the three
    pin-operator applications per iteration written out."""
    S, imgs, N, n, _, _ = cb._compressed_problem(phi)
    B, R = cb._paulsen_pins(S, imgs, N, n)
    D = 4 * N * n

    def p_aff(X):
        X4 = X.reshape(2 * N, 2 * n, 2 * N, 2 * n)
        diff = R - np.einsum("lij,iajb->lab", B, X4)
        corr = np.einsum("lij,lab->iajb", B.conj(), diff).reshape(D, D)
        return X + corr, np.linalg.norm(diff)

    def p_psd(X):
        w, V = np.linalg.eigh((X + X.conj().T) / 2)
        return (V * np.clip(w, 0.0, None)) @ V.conj().T

    Z, _ = p_aff(np.zeros((D, D), dtype=complex))
    for it in range(max_iter):
        Y = p_psd(Z)
        Z = Z + p_aff(2 * Y - Z)[0] - Y
        if p_aff(Y)[1] < FEAS_TOL:
            return Y, it + 1
    return None, max_iter


def _halved(m2):
    return map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])


def _rotated_diagonal(m2):
    D, basis = _diagonal_into_m2(m2)
    c, s = np.cos(0.3), np.sin(0.3)
    u = np.array([[c, -s], [s, c]])
    return map_from_images(D, m2.ambient, [u @ b @ u.T for b in basis])


@pytest.mark.parametrize("build", [_halved, _rotated_diagonal])
def test_one_codomain_block_matches_dense_reference(m2, build):
    # One codomain block: the split solver runs the dense iteration, with
    # one PSD block per domain block (one for M_2, two for the diagonal).
    phi = build(m2)
    cert, diag = choi_feasibility(phi)
    ref, iterations = _dense_douglas_rachford(phi, 1000)
    assert diag["iterations"] == iterations
    assert np.allclose(cert["choi"], ref, rtol=0, atol=1e-9)


def _identity_plus_compression(m2, t, perm=(0, 1, 2)):
    """psi (+) t chi from M_2 into M_3, coordinates permuted by `perm`:
    psi is the identity and chi the compression to the (0, 0) corner, so
    the cb norm is max(1, t)."""
    P = np.eye(3)[list(perm)]
    images = [P @ direct_sum(b, t * b[:1, :1]) @ P.T for b in m2.basis]
    return map_from_images(m2, Ambient((3,)), images)


def test_direct_sum_with_expanding_summand_is_not_cc(m2):
    phi = _identity_plus_compression(m2, 1.5)
    rep = cc_check(phi)
    assert rep.verdict == NOT_CC
    assert verify_falsifier(phi, rep.certificate)
    cert, diag = choi_feasibility(phi, max_iter=2000)
    assert cert is None
    assert diag["stalled"]


@pytest.mark.parametrize("t, want", [(0.5, CC), (1.5, NOT_CC)])
def test_codomain_permutation_keeps_the_verdict(m2, t, want):
    plain = _identity_plus_compression(m2, t)
    permuted = _identity_plus_compression(m2, t, perm=(2, 0, 1))
    assert cc_check(plain).verdict == want
    assert cc_check(permuted).verdict == want


# ---------------------------------------------------------------------------
# structural certificates


def _identity(span):
    return map_from_images(span, span.ambient, list(span.basis))


def _off_diagonal_corner(m2):
    """span{E12} in M_2; the C*-algebra it generates is all of M_2."""
    amb = m2.ambient
    return orthonormal_span(amb, [amb.matrix_unit(0, 1)])


def test_decided_by_names_each_route(m2):
    ident = _identity(m2)
    halved = map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])
    doubled = map_from_images(m2, m2.ambient, [2 * b for b in m2.basis])
    assert cc_check(ident).diagnostics["decided_by"] == "homomorphism"
    assert cc_check(halved).diagnostics["decided_by"] == "choi"
    assert cc_check(doubled).diagnostics["decided_by"] == "falsifier"
    rep = ci_check(ident)
    assert rep.verdict == CI and rep.certificate["type"] == "pair"
    assert rep.diagnostics["forward"]["decided_by"] == "homomorphism"
    assert rep.diagnostics["inverse"]["decided_by"] == "homomorphism"
    assert cb.verify_certificate(rep.certificate, ident)
    assert not cb.verify_certificate(rep.certificate, doubled)


def test_non_unital_homomorphism_is_cc_by_structure(m2):
    # x -> x (+) 0 sends 1 to a projection that is not the unit
    phi = map_from_images(m2, Ambient((2, 2)),
                          [direct_sum(b, 0 * b) for b in m2.basis])
    rep = cc_check(phi)
    assert rep.verdict == CC
    assert rep.diagnostics["decided_by"] == "homomorphism"
    assert cb.verify_certificate(rep.certificate, phi)


def test_corrupted_extension_falls_back_to_the_oracles(m2, monkeypatch):
    # The identity on span{E12} extends to the identity of M_2.  Read off
    # instead a map that agrees on E12 but swaps E11 and E22: it is not
    # multiplicative, so the certificate must fail and the oracles decide.
    phi = _identity(_off_diagonal_corner(m2))
    assert cc_check(phi).diagnostics["decided_by"] == "homomorphism"

    def swapped_diagonal(dom, gens, imgs, cod):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        return LinearMap(dom=dom, cod=cod, images=np.array(
            [b - np.diag(np.diag(b)) + np.diag(flip @ np.diag(b))
             for b in dom.basis]))

    monkeypatch.setattr(cb, "map_from_generators", swapped_diagonal)
    rep = cc_check(phi)
    assert rep.verdict == CC
    assert rep.diagnostics["decided_by"] == "choi"


def test_composition_with_a_borrowed_inner_certificate_is_not_trusted(m2):
    ident = _identity(m2)
    doubled = map_from_images(m2, m2.ambient, [2 * b for b in m2.basis])
    doubled.certificate = cc_check(ident).certificate
    phi = ident.compose(doubled)
    assert phi.factors == (ident, doubled)
    cert = {"type": "composition", "outer": ident, "inner": doubled}
    assert not cb.verify_certificate(cert, phi)
    rep = cc_check(phi)
    assert rep.verdict == NOT_CC
    assert rep.diagnostics["decided_by"] == "falsifier"
    # the same composition over a certified inner map is cc by structure
    ident.certificate = cc_check(ident).certificate
    rep = cc_check(_identity(m2).compose(ident))
    assert rep.diagnostics["decided_by"] == "composition"


def test_direct_sum_with_a_corrupted_part_falls_back_to_the_oracles():
    joined = join(corpus.t2_diag_cover(), corpus.t2_corner_cover())
    j = joined.j
    assert j.certificate["type"] == "direct-sum"
    rep = cc_check(j)
    assert rep.verdict == CC
    assert rep.diagnostics["decided_by"] == "direct-sum"
    # j1 (+) 2 j2 carrying the certificate of j1 (+) j2
    N1 = corpus.t2_diag_cover().ambient.dim
    images = j.images.copy()
    images[:, N1:, N1:] *= 2
    spoilt = LinearMap(dom=j.dom, cod=j.cod, images=images,
                       certificate=j.certificate)
    assert not cb.verify_certificate(j.certificate, spoilt)
    rep = cc_check(spoilt)
    assert rep.verdict == NOT_CC
    assert rep.diagnostics["decided_by"] == "falsifier"


def test_homomorphism_certificate_of_another_map_is_not_trusted(m2):
    cert = cc_check(_identity(m2)).certificate
    assert cert["type"] == "homomorphism"
    transpose = map_from_images(m2, m2.ambient, [b.T for b in m2.basis])
    assert not cb.verify_certificate(cert, transpose)
    transpose.certificate = cert
    rep = cc_check(transpose)
    assert rep.verdict == NOT_CC
    assert rep.diagnostics["decided_by"] == "falsifier"


def test_contractive_compression_never_enters_the_closure(monkeypatch):
    # x -> t V*xV with t < 1 on a unital subspace of M_4, as in the
    # benchmark's fuzz stream: t 1 is not a projection
    rng = np.random.default_rng(11)
    amb = Ambient((4,))
    dom = orthonormal_span(amb, [np.eye(4)] + [rand_mat(rng, 4)
                                               for _ in range(2)])
    V = np.linalg.qr(rng.standard_normal((4, 2))
                     + 1j * rng.standard_normal((4, 2)))[0]
    phi = map_from_images(dom, Ambient((2,)),
                          [0.9 * V.conj().T @ b @ V for b in dom.basis])
    closures = []
    monkeypatch.setattr(cb, "graph_closure",
                        lambda *args, **kwargs: closures.append(args))
    rep = cc_check(phi)
    assert closures == []
    assert rep.verdict == CC and rep.diagnostics["decided_by"] == "choi"


def test_kernel_certificate_is_reverified(m2, monkeypatch):
    amb = m2.ambient
    p = amb.matrix_unit(0, 0)
    comp = map_from_images(m2, amb, [p @ b @ p for b in m2.basis])
    rep = ci_check(comp)
    assert rep.verdict == NOT_CI
    assert rep.diagnostics["decided_by"] == "kernel"
    assert rep.certificate["direction"] == "kernel"
    assert cb.verify_certificate(rep.certificate, comp)
    # an element the map does not kill is no kernel certificate
    monkeypatch.setattr(LinearMap, "kernel_element", lambda self: p)
    rep = ci_check(comp)
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["failed_check"] == "kernel_certificate"
