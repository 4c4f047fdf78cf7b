import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.cb import (CC, CI, NOT_CC, NOT_CI, LinearMap, Undecided, cc_check,
                      ci_check, falsifier_search, choi_feasibility,
                      homomorphism_check, require_decisive,
                      star_hom_violations, verify_choi_certificate,
                      verify_falsifier)
from opalg.corpus import a4_algebra, schur_projection_p
from opalg.linalg import Ambient, generate_algebra, orthonormal_span


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
