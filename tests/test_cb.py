import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg import cb, corpus, crossed, linalg
from opalg.cb import (CC, CI, FEAS_TOL, INCONCLUSIVE, NOT_CC, NOT_CI, CbReport,
                      LinearMap, Undecided, cc_check, ci_check,
                      falsifier_search, choi_feasibility, require_decisive,
                      star_hom_violations,
                      verify_choi_certificate, verify_falsifier)
from opalg.corpus import a4_algebra, schur_projection_p
from opalg.covers import induced_morphism, join
from opalg.dynamics import inner_in_itself
from opalg.linalg import (ASCENT_GAIN, TINY_NORM, AlgebraSpan, Ambient,
                          direct_sum, generate_algebra, orthonormal_span,
                          using)
from opalg.suite import paper_suite


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def map_from_images(span, cod, images):
    return LinearMap(dom=span, cod=cod, images=np.array(images))


@pytest.fixture(scope="module")
def m2():
    amb = Ambient((2,))
    return generate_algebra(amb, [amb.matrix_unit(i, j)
                                  for i in range(2) for j in range(2)])


class TestLinearMap:
    def test_call_and_compose(self, m2):
        amb = m2.ambient
        ident = map_from_images(m2, amb, list(m2.basis))
        x = rand_mat(np.random.default_rng(0), 2)
        assert np.allclose(ident(x), x)
        assert np.allclose(ident(np.array([x, 2 * x])), [x, 2 * x])
        assert np.allclose(ident.compose(ident)(x), x)

    def test_compose_matches_the_per_image_loop(self, m2):
        rng = np.random.default_rng(5)
        outer, inner = (map_from_images(m2, m2.ambient,
                                        [rand_mat(rng, 2) for _ in m2.basis])
                        for _ in range(2))
        loop = np.array([outer(img) for img in inner.images])
        assert np.allclose(outer.compose(inner).images, loop,
                           rtol=0, atol=1e-12)

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

    def test_kernel(self, m2):
        amb = m2.ambient
        p = amb.matrix_unit(0, 0)
        comp = map_from_images(m2, amb, [p @ b @ p for b in m2.basis])
        ker = comp.kernel()
        assert np.allclose(ker @ ker.conj().T, np.eye(3))
        assert np.linalg.norm(np.tensordot(ker, comp.images, 1)) < 1e-9

    def test_kernel_of_zero_dimensional_domain(self):
        dom = AlgebraSpan(Ambient((2,)), np.zeros((0, 2, 2)))
        phi = map_from_images(dom, Ambient((3,)), np.zeros((0, 3, 3)))
        assert len(phi.kernel()) == 0
        assert phi.is_injective()

    def test_kernel_element_of_complex_map(self, m2):
        rng = np.random.default_rng(8)
        x, y = rand_mat(rng, 2), rand_mat(rng, 2)
        c = complex(rng.standard_normal(), rng.standard_normal())
        phi = map_from_images(m2, m2.ambient, [x, y, c * x + 2j * y, y])
        k = phi.kernel_element()
        assert np.linalg.norm(phi(k)) < 1e-9
        assert np.linalg.norm(k) == pytest.approx(1.0)


def _doubled(m2):
    phi = map_from_images(m2, m2.ambient, [2 * b for b in m2.basis])
    return phi, {"onto": m2, "unital": True}


def _similarity(m2):
    S = np.array([[1.0, 1.0], [0.0, 2.0]])
    Si = np.linalg.inv(S)
    phi = map_from_images(m2, m2.ambient, [S @ b @ Si for b in m2.basis])
    return phi, {"onto": m2}


def _diagonal_into_m2(m2):
    amb = m2.ambient
    D = generate_algebra(amb, [amb.matrix_unit(0, 0), amb.matrix_unit(1, 1)])
    return map_from_images(D, amb, list(D.basis)), {"onto": m2}


def _transpose(m2):
    # linear, but anti-multiplicative on M2
    return map_from_images(m2, m2.ambient, [b.T for b in m2.basis]), {}


def _pair_missed(m2):
    amb = m2.ambient
    pairs = ([amb.matrix_unit(0, 0)], [amb.matrix_unit(1, 1)])
    return _identity(m2), {"onto": m2, "pairs": pairs}


def _adjoint_off_generators(m2):
    # x -> S x S^-1 is multiplicative on every word, but with a non-unitary
    # S it misses phi(g*) = phi(g)* on the generator E01 of M2; the domain
    # is not flagged self-adjoint, so only the generators ask for adjoints
    S = np.array([[1.0, 1.0], [0.0, 2.0]])
    Si = np.linalg.inv(S)
    dom = AlgebraSpan(m2.ambient, m2.basis)
    phi = map_from_images(dom, m2.ambient, [S @ b @ Si for b in m2.basis])
    return phi, {"gens": [m2.ambient.matrix_unit(0, 1)]}


def _non_unital(m2):
    # x -> x (+) 0 is a *-homomorphism that sends 1 to a proper projection
    amb = m2.ambient.direct_sum(Ambient((1,)))
    phi = map_from_images(m2, amb, [direct_sum(b, np.zeros((1, 1)))
                                    for b in m2.basis])
    return phi, {"unital": True}


def _product_outside_domain(m2):
    # the off-diagonal span of M2 is self-adjoint but E01 E10 = E00 leaves it
    amb = m2.ambient
    off = orthonormal_span(amb, [amb.matrix_unit(0, 1), amb.matrix_unit(1, 0)])
    off.self_adjoint = True
    return _identity(off), {}


@pytest.mark.parametrize("build, want", [
    (_doubled, ["not multiplicative", "not unit-preserving"]),
    (_similarity, ["not adjoint-preserving"]),
    (_diagonal_into_m2, ["not onto the target"]),
    (_transpose, ["not multiplicative"]),
    (_pair_missed, ["does not send x to y on every pair"]),
    (_adjoint_off_generators, ["not adjoint-preserving"]),
    (_non_unital, ["not unit-preserving"]),
    (_product_outside_domain, ["not multiplicative"]),
])
def test_star_hom_violations_names_each_failure(m2, build, want):
    phi, kwargs = build(m2)
    assert star_hom_violations(phi, **kwargs) == want
    assert star_hom_violations(_identity(m2), m2, unital=True,
                               pairs=(m2.basis, m2.basis)) == []


def test_star_hom_violations_evaluates_budgeted_product_stacks(monkeypatch):
    """Checking the identity on M4 evaluates its 16 x 16 basis products as
    one stack within PRODUCT_BUDGET: two coefficient calls in all, the
    products and the adjoints.  Cut to one basis row per stack, it takes
    one call per row."""
    amb = Ambient((4,))
    m4 = generate_algebra(amb, [amb.matrix_unit(i, j) for i in range(4)
                                for j in range(4)])
    calls = []
    coeffs = AlgebraSpan.coeffs

    def counting(self, x):
        calls.append(np.size(x))
        return coeffs(self, x)

    monkeypatch.setattr(AlgebraSpan, "coeffs", counting)
    assert star_hom_violations(_identity(m4), onto=m4) == []
    assert m4.dim == 16
    assert calls == [16 * 16 * 16, 16 * 16]
    assert max(calls) <= linalg.PRODUCT_BUDGET
    calls.clear()
    monkeypatch.setattr(linalg, "PRODUCT_BUDGET", 1)
    assert star_hom_violations(_identity(m4), onto=m4) == []
    assert len(calls) == m4.dim + 1


def test_checks_of_the_symmetrized_cover_stay_within_the_budget(
        monkeypatch):
    """Every stack that star_hom_violations and AlgebraSpan.verify
    evaluate while checking the a4-symmetrized cover, its C and its
    projection onto a Schur summand holds at most PRODUCT_BUDGET
    entries, and the products are stacked more than one row at a time."""
    cov = corpus.a4_symmetrized_cover()
    m = induced_morphism(cov, corpus.a4_schur_cover())
    sizes = []
    for name in ("coeffs", "residual"):
        method = getattr(AlgebraSpan, name)

        def recording(self, x, method=method):
            sizes.append(np.size(x))
            return method(self, x)

        monkeypatch.setattr(AlgebraSpan, name, recording)
    assert star_hom_violations(cov.j, unital=True) == []
    assert cov.C.verify() == []
    assert star_hom_violations(m.pi, m.target.C, unital=True,
                               pairs=(cov.j.images, m.target.j.images)) == []
    assert m.kernel.verify() == []
    N = cov.ambient.dim
    assert max(sizes) <= linalg.PRODUCT_BUDGET
    assert max(sizes) > cov.C.dim * N * N


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
                                      for i in range(2) for j in range(2)])
        transpose = map_from_images(full, amb, [b.T for b in full.basis])
        rep = cc_check(transpose)
        assert rep.verdict == NOT_CC
        assert rep.certificate["level"] >= 2

    def test_feasibility_certificate_reverifies(self, m2):
        ident = map_from_images(m2, m2.ambient, list(m2.basis))
        cert, diag = choi_feasibility(ident)
        assert cert is not None
        assert cb.verify_certificate(cert, ident)

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
    with using(seed=seed % 97, max_iter=4000):
        ratio, fal_cert = falsifier_search(phi)
        feas_cert, _ = choi_feasibility(phi)
    if fal_cert is not None:
        assert verify_falsifier(phi, fal_cert)
        assert feas_cert is None
    if feas_cert is not None:
        assert cb.verify_certificate(feas_cert, phi)


def test_pairings_match_the_einsum_reference():
    rng = np.random.default_rng(3)
    u, v = rand_mat(rng, 3)[:, :2], rand_mat(rng, 3)[:, 1:]
    mats = np.array([rand_mat(rng, 2) for _ in range(4)])
    ref = np.einsum("ka,dab,lb->kld", u.conj(), mats, v)
    assert np.allclose(cb._pairings(u, mats, v), ref, rtol=0, atol=1e-13)


def _sequential_falsifier_ratio(phi, seed):
    """Reference search: one restart at a time, each ascending until it
    stalls, stopping after the first restart that exceeds the margin."""
    S, imgs, N, n, _, _ = cb._compressed_problem(phi)
    S, imgs = np.array(S), np.array(imgs)
    k, d = n, len(S)

    def amplified(c, mats):
        return np.block([[np.tensordot(c[a, b], mats, 1) for b in range(k)]
                         for a in range(k)])

    rng = np.random.default_rng(seed)
    best_ratio = 0.0
    for _ in range(cb.FALSIFIER_RESTARTS):
        c = rng.standard_normal((k, k, d)) + 1j * rng.standard_normal((k, k, d))
        stale, local_best = 0, 0.0
        for _ in range(40):
            nx = np.linalg.norm(amplified(c, S), 2)
            if nx < TINY_NORM:
                break
            U, sv, Vh = np.linalg.svd(amplified(c, imgs))
            ratio = float(sv[0]) / nx
            best_ratio = max(best_ratio, ratio)
            if ratio > local_best * (1 + ASCENT_GAIN):
                local_best, stale = ratio, 0
            else:
                stale += 1
                if stale > 6:
                    break
            g = cb._pairings(U[:, 0].reshape(k, n), imgs,
                             Vh[0].conj().reshape(k, n))
            if np.linalg.norm(g) < TINY_NORM:
                break
            c = g.conj()
        if best_ratio > 1 + cb.FALSIFIER_MARGIN:
            break
    return best_ratio


def _unital_subspace(rng, n):
    amb = Ambient((n,))
    span = orthonormal_span(amb, [np.eye(n)] + [
        rand_mat(rng, n) for _ in range(int(rng.integers(2, 5)))])
    return AlgebraSpan(amb, span.basis, unital=True)


def _compression(seed):
    """x -> t V*xV from a unital subspace of M4 into M2; cb norm exactly t,
    within 3-20% of 1 on either side."""
    rng = np.random.default_rng(seed)
    lo, hi = ((0.85, 0.97), (1.03, 1.2))[seed % 2]
    t = float(rng.uniform(lo, hi))
    dom = _unital_subspace(rng, 4)
    V = np.linalg.qr(rng.standard_normal((4, 2))
                     + 1j * rng.standard_normal((4, 2)))[0]
    return map_from_images(dom, Ambient((2,)),
                           [t * V.conj().T @ b @ V for b in dom.basis])


def _random_on_m4(seed):
    """A random map between subspaces of M4, as in the oracle-agreement
    acceptance criterion."""
    rng = np.random.default_rng(seed)
    amb = Ambient((4,))
    dom = orthonormal_span(amb, [rand_mat(rng, 4)
                                 for _ in range(int(rng.integers(1, 9)))])
    scale = float(rng.uniform(0.4, 1.6))
    return map_from_images(dom, amb,
                           [scale * rand_mat(rng, 4) for _ in dom.basis])


def _doubled_on_m2(_seed):
    amb = Ambient((2,))
    m2 = generate_algebra(amb, [amb.matrix_unit(i, j) for i in range(2)
                                for j in range(2)])
    return map_from_images(m2, amb, [2 * b for b in m2.basis])


@pytest.mark.parametrize("build, seed",
                         [(_compression, s) for s in range(10)]
                         + [(_random_on_m4, s) for s in range(6)]
                         + [(_doubled_on_m2, 0)])
def test_stacked_falsifier_matches_sequential_restarts(build, seed):
    phi = build(seed)
    # One codomain block: the search runs at level n, as the reference does.
    assert len(cb._coordinate_blocks(np.array(
        cb._compressed_problem(phi)[1]))) == 1
    ref = _sequential_falsifier_ratio(phi, seed)
    with using(seed=seed):
        ratio, cert = falsifier_search(phi)
    assert (cert is not None) == (ref > 1 + cb.FALSIFIER_MARGIN)
    if cert is not None:
        assert verify_falsifier(phi, cert)
    else:
        assert ratio == pytest.approx(ref, rel=0, abs=1e-12)


def test_falsifier_svd_count_does_not_scale_with_restarts(monkeypatch):
    """The restarts ascend as one stack: at most two stacked (3-D) SVDs per
    step, counting the one inside np.linalg.norm(x, 2), and no certificate
    on a completely contractive map.  The support compression adds exactly
    two 2-D SVDs, one per side, whatever the number of restarts."""
    phi = _compression(2)
    ndims = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        ndims.append(np.ndim(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(sys.modules[np.linalg.norm.__module__], "svd",
                        recording)
    with using(seed=0):
        ratio, cert = falsifier_search(phi)
    assert cert is None and 0.8 < ratio <= 1
    assert 0 < ndims.count(3) <= 2 * 40 and ndims.count(2) == 2
    for restarts in (1, 4 * cb.FALSIFIER_RESTARTS):
        monkeypatch.setattr(cb, "FALSIFIER_RESTARTS", restarts)
        ndims.clear()
        with using(seed=0):
            ratio, cert = falsifier_search(phi)
        assert cert is None
        assert 0 < ndims.count(3) <= 2 * 40 and ndims.count(2) == 2
        assert len(ndims) == ndims.count(2) + ndims.count(3)


def test_falsifier_never_amplifies_beyond_a_codomain_block(m2, monkeypatch):
    """Each codomain block is searched at its own level (Smith's lemma): on
    the a4-schur embedding, blocks [4, 2, 1, 1], no SVD is wider than the
    4-block's level-4 amplification, and on id (+) 1.5 chi the witness is
    found at the level of chi's 1 x 1 block."""
    j = corpus.a4_schur_cover().j
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        if np.ndim(a) == 3:  # the ascent's; the compression's are 2-D
            shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    ratio, cert = falsifier_search(j)
    monkeypatch.undo()
    assert cert is None and shapes
    assert max(max(s) for s in shapes) <= 4 * 4
    phi = _identity_plus_compression(m2, 1.5)
    ratio, cert = falsifier_search(phi)
    assert cert is not None and cert["level"] == 1
    assert verify_falsifier(phi, cert)


def _sum_with_compression(seed, lo, hi):
    """x -> x (+) t V*xV from a unital subspace of M4 into M4 (+) M2, V a
    4x2 isometry and t drawn from [lo, hi]: cb norm max(1, t)."""
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(lo, hi))
    dom = _unital_subspace(rng, 4)
    V = np.linalg.qr(rng.standard_normal((4, 2))
                     + 1j * rng.standard_normal((4, 2)))[0]
    return map_from_images(dom, Ambient((4, 2)),
                           [direct_sum(b, t * V.conj().T @ b @ V)
                            for b in dom.basis])


def test_decisive_near_cb_norm_one_on_direct_sums():
    """Within 3-20% of cb norm 1 on a direct sum: never NotCC below 1, and
    NotCC with a re-verified certificate on every map above it, where
    phi(1) = 1 (+) t 1 has norm t > 1 (the ascent alone finds 6 of these
    8, and a search of the whole codomain at level 6 finds none)."""
    for seed in range(6):
        assert cc_check(_sum_with_compression(seed, 0.85, 0.97)).verdict \
            != NOT_CC
    for seed in range(8):
        phi = _sum_with_compression(seed, 1.03, 1.2)
        rep = cc_check(phi)
        assert rep.verdict == NOT_CC
        assert cb.verify_certificate(rep.certificate, phi)


def test_smallest_codomain_block_is_separated_first():
    """On x -> x (+) t V*xV with t in [1.03, 1.2] the 2 x 2 block is
    infeasible, and it runs before the identity block converges."""
    for seed in range(8):
        cert, diag = choi_feasibility(_sum_with_compression(seed, 1.03, 1.2))
        assert cert is None and diag.get("infeasible")
        assert diag["iterations"] <= 128


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_compression_keeps_a_small_singular_direction(eps):
    # diag(1, eps) has full support; a rank rule on sum b b* + b* b drops it
    amb = Ambient((2,))
    dom = orthonormal_span(amb, [np.diag([1.0, eps])])
    phi = map_from_images(dom, amb, list(dom.basis))
    S, imgs, N, n, Vd, Vc = cb._compressed_problem(phi)
    assert (N, n) == (2, 2) and Vd is None and Vc is None


def test_zero_iteration_budget_gives_no_certificate(m2):
    ident = map_from_images(m2, m2.ambient, list(m2.basis))
    with using(max_iter=0):
        cert, diag = choi_feasibility(ident)
    assert cert is None
    assert diag["iterations"] == 0


# ---------------------------------------------------------------------------
# re-verification gate


def _top(cert):
    """Index of the Kraus term whose factor A_i is largest."""
    return int(np.argmax(np.linalg.norm(cert["A"], axis=(1, 2))))


def _negative_eigenvalue(cert):
    """The largest Kraus term enters with its sign flipped: the Choi matrix
    that the factors spell gains a negative eigenvalue (on S + S*, where
    A = B), and they no longer write phi."""
    B = cert["B"].copy()
    B[_top(cert)] *= -1
    return dict(cert, B=B)


def _shifted_pin(cert):
    """Every factor scaled by sqrt(3): the factorization meets the unit pin
    at 3 1, and writes 3 phi, not phi."""
    return dict(cert, A=np.sqrt(3) * cert["A"], B=np.sqrt(3) * cert["B"])


def _trimmed(cert):
    return dict(cert, A=cert["A"][:, :-1], B=cert["B"][:, :-1])


def _three_by_three(cert):
    return dict(cert, A=np.eye(3)[None], B=np.eye(3)[None])


def _wider_codomain(cert):
    pad = ((0, 0), (0, 0), (0, 1))
    return dict(cert, A=np.pad(cert["A"], pad), B=np.pad(cert["B"], pad))


def _unfolded(cert):
    """A Paulsen certificate in the unfolded layout: the Kraus operators
    [[A_i, 0], [0, B_i]] of the zero-padded Choi matrix, of side 4Nn."""
    A, B = cert["A"], cert["B"]
    r, N, n = A.shape
    K = np.zeros((r, 2 * N, 2 * n), dtype=complex)
    K[:, :N, :n], K[:, N:, n:] = A, B
    return dict(cert, A=K, B=K)


def _assert_spoilt_certificate_is_refused(phi, spoil, monkeypatch):
    """The spoilt certificate fails verify_certificate without raising,
    and cc_check reports Inconclusive for it."""
    solve = cb.choi_feasibility

    def corrupted(phi):
        cert, diag = solve(phi)
        return spoil(cert), diag

    monkeypatch.setattr(cb, "choi_feasibility", corrupted)
    rep = cc_check(phi)
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["failed_check"] == "verify_certificate"
    assert not cb.verify_certificate(corrupted(phi)[0], phi)


@pytest.mark.parametrize("spoil", [_negative_eigenvalue, _shifted_pin,
                                   _trimmed, _three_by_three,
                                   _wider_codomain])
def test_unverified_choi_certificate_is_inconclusive(m2, monkeypatch, spoil):
    halved = map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])
    _assert_spoilt_certificate_is_refused(halved, spoil, monkeypatch)


@pytest.mark.parametrize("spoil", [_negative_eigenvalue, _trimmed,
                                   _wider_codomain, _unfolded])
def test_unverified_paulsen_certificate_is_inconclusive(monkeypatch, spoil):
    phi = _non_unital_kraus_sum(0, (2, 1))
    assert choi_feasibility(phi)[0]["system"] == "paulsen"
    _assert_spoilt_certificate_is_refused(phi, spoil, monkeypatch)


def test_choi_certificate_of_another_map_is_inconclusive(monkeypatch):
    span = corpus.t2_algebra().span

    def scaled(t):
        return map_from_images(span, span.ambient, t * span.basis)

    cert, diag = choi_feasibility(scaled(0.5))
    assert verify_choi_certificate(cert)
    monkeypatch.setattr(cb, "falsifier_search", lambda phi: (0.0, None))
    monkeypatch.setattr(cb, "choi_feasibility", lambda phi: (cert, dict(diag)))
    rep = cc_check(scaled(0.25))
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["failed_check"] == "verify_certificate"
    assert rep.diagnostics["cb_bound"] > 1 + 10 * FEAS_TOL


def test_unverified_falsifier_is_inconclusive(m2, monkeypatch):
    # the transpose fixes 1, so only the ascent can find its witness
    transpose = _transpose(m2)[0]
    search = cb.falsifier_search

    def corrupted(phi):
        ratio, cert = search(phi)
        return ratio, dict(cert, norm_image=cert["norm_image"] + 1.0)

    monkeypatch.setattr(cb, "falsifier_search", corrupted)
    rep = cc_check(transpose)
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["failed_check"] == "verify_falsifier"
    assert rep.diagnostics["witness"] == "ascent"


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
    assert cert is not None and cert["system"] == "unital"
    assert cert["A"].shape[1:] == (8, 8)
    assert diag["residual"] < FEAS_TOL
    assert cb.verify_certificate(cert, phi)
    # The map is unital, so it is solved on S + S* in M_8 (x) M_8, with
    # coordinate blocks (4, 2, 2) on both sides: no Choi block is wider
    # than 4 * 4.
    assert widths and max(widths) <= 16


def _dense_douglas_rachford(phi, system, max_iter):
    """Reference: Douglas-Rachford on the dense Choi matrix of the pinned
    `system`, with the three pin-operator applications per iteration
    written out."""
    S, imgs, N, n, _, _ = cb._compressed_problem(phi)
    B, R, _ = cb._PINS[system](S, imgs, N, n)
    M, m = B.shape[-1], R.shape[-1]
    D = M * m

    def p_aff(X):
        diff = R - _choi_apply(B, X)
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


def _choi_matrix(K):
    """The Choi matrix sum_i v_i v_i* of the Kraus operators
    K_i = conj(v_i) reshaped to (M, m)."""
    V = K.conj().reshape(len(K), -1)
    return V.T @ V.conj()


def _choi_apply(B, X):
    """The map of the Choi matrix X on each pin B_l."""
    M = B.shape[-1]
    m = len(X) // M
    return np.einsum("lij,iajb->lab", B, X.reshape(M, m, M, m))


def _halved(m2):
    return map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])


def _rotated_diagonal(m2):
    D = _diagonal_into_m2(m2)[0].dom
    c, s = np.cos(0.3), np.sin(0.3)
    u = np.array([[c, -s], [s, c]])
    return map_from_images(D, m2.ambient, [u @ b @ u.T for b in D.basis])


@pytest.mark.parametrize("build", [_halved, _rotated_diagonal])
def test_one_codomain_block_matches_dense_reference(m2, build):
    # One codomain block: the split solver runs the dense iteration of the
    # system its certificate pins (S + S*, for the halving divided by its
    # scale 1/2), with one PSD block per domain block (one for M_2, two for
    # the diagonal); its Kraus operators spell the dense run's Choi matrix.
    phi = build(m2)
    cert, diag = choi_feasibility(phi)
    assert cert["system"] == "unital"
    assert diag["scale"] == pytest.approx(
        (0.5, 1.0)[build is _rotated_diagonal], rel=0, abs=1e-15)
    ref, iterations = _dense_douglas_rachford(phi, cert["system"], 1000)
    assert diag["iterations"] == iterations
    S, imgs, N, n, _, _ = cb._compressed_problem(phi)
    K, _ = cb._pinned_choi(*cb._PINS["unital"](S, imgs, N, n)[:2], 1000)
    assert np.allclose(_choi_matrix(K), ref, rtol=0, atol=1e-9)


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
    with using(max_iter=2000):
        cert, diag = choi_feasibility(phi)
    assert cert is None
    assert diag["infeasible"] and diag["iterations"] < 64


def _block_problem(phi, system="paulsen"):
    """The pins and required images of phi's one codomain block in the
    pinned `system`, as choi_feasibility hands them to the Douglas-Rachford
    run."""
    S, imgs, N, n, _, _ = cb._compressed_problem(phi)
    B, R, _ = cb._PINS[system](S, imgs, N, n)
    (Q,) = cb._coordinate_blocks(R)
    return [B[:, P][:, :, P] for P in cb._coordinate_blocks(B)], \
        R[:, Q][:, :, Q]


def _assert_no_separation(phi, system, seed, monkeypatch):
    """phi's problem in `system` has a PSD solution, so no y may separate
    it: neither the residuals of a run of choi_feasibility on that system
    alone nor random ones."""
    pins, R = _block_problem(phi, system)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        y = rng.standard_normal(R.shape) + 1j * rng.standard_normal(R.shape)
        assert not cb._separates(pins, R, y, FEAS_TOL)
    separates = cb._separates
    seen = []

    def recording(*args):
        seen.append(separates(*args))
        return seen[-1]

    monkeypatch.setattr(cb, "_separates", recording)
    monkeypatch.setattr(cb, "_PINS", {system: cb._PINS[system]})
    cert, diag = choi_feasibility(phi)
    monkeypatch.undo()
    assert cert is not None and cert["system"] == system
    assert seen and not any(seen)
    assert "infeasible" not in diag and "stalled" not in diag


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_no_separation_on_a_completely_contractive_map(seed, monkeypatch):
    # t V*xV with t <= 1 sends 1 to t 1: choi_feasibility solves it on
    # S + S* for phi / t, and its Paulsen map, run on its own, has a UCP
    # extension too.
    phi = _compression(seed)
    _assert_no_separation(phi, "unital", seed, monkeypatch)
    _assert_no_separation(phi, "paulsen", seed, monkeypatch)


def _ucp_compression(seed):
    """x -> V*xV: _compression(seed) divided by its t = ||phi(1)||."""
    phi = _compression(seed)
    t = np.linalg.norm(phi(np.eye(4)), 2)
    return map_from_images(phi.dom, phi.cod, phi.images / t)


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_no_separation_on_a_ucp_map_in_the_unital_system(seed, monkeypatch):
    # V*xV is UCP, so its Choi matrix solves the S + S* problem
    _assert_no_separation(_ucp_compression(seed), "unital", seed,
                          monkeypatch)


def test_choi_certified_map_never_runs_the_falsifier(m2, monkeypatch):
    def refuse(phi):
        raise AssertionError("falsifier_search called")

    monkeypatch.setattr(cb, "falsifier_search", refuse)
    halved = map_from_images(m2, m2.ambient, [0.5 * b for b in m2.basis])
    j = corpus.t2_diag_cover().j  # without the certificate it carries
    for phi in (halved, LinearMap(dom=j.dom, cod=j.cod, images=j.images)):
        rep = cc_check(phi)
        assert rep.verdict == CC and rep.diagnostics["decided_by"] == "choi"


def test_separation_without_a_witness_is_inconclusive(m2, monkeypatch):
    # the transpose fixes 1, so no unit witness stands in for the ascent
    monkeypatch.setattr(cb, "falsifier_search", lambda phi: (0.0, None))
    rep = cc_check(_transpose(m2)[0])
    assert rep.verdict == INCONCLUSIVE and rep.certificate is None
    assert rep.diagnostics["infeasible"]
    with pytest.raises(Undecided, match="'infeasible': True"):
        require_decisive(rep)


def _kraus_sum(seed):
    """x -> t sum_i K_i* x K_i from a unital subspace of M4 into M2, for two
    or three 4x2 Kraus operators with sum_i K_i* K_i = 1: t times a unital
    completely positive map, so its cb norm is t = ||phi(1)||, within 3-20%
    of 1 on either side."""
    rng = np.random.default_rng(seed)
    lo, hi = ((0.85, 0.97), (1.03, 1.2))[seed % 2]
    t = float(rng.uniform(lo, hi))
    dom = _unital_subspace(rng, 4)
    k = int(rng.integers(2, 4))
    K = np.linalg.qr(rng.standard_normal((4 * k, 2))
                     + 1j * rng.standard_normal((4 * k, 2)))[0]
    K = K.reshape(k, 4, 2)
    return map_from_images(dom, Ambient((2,)),
                           [t * np.einsum("iba,bc,icd->ad", K.conj(), b, K)
                            for b in dom.basis])


def _falsifier_first(phi):
    """Reference: cc_check with the unit witness and then the falsifier run
    before the Choi solver, returning (verdict, certificate type)."""
    for cert in cb._structural_certificates(phi):
        if cb.verify_certificate(cert, phi):
            return CC, cert["type"]
    one = phi.dom.ambient.identity()
    if phi.dom.contains(one) \
            and np.linalg.norm(phi(one), 2) > 1 + cb.FALSIFIER_MARGIN:
        return NOT_CC, "falsifier"
    _, cert = falsifier_search(phi)
    if cert is not None:
        return (NOT_CC, "falsifier") if verify_falsifier(phi, cert) \
            else (INCONCLUSIVE, None)
    choi, _ = choi_feasibility(phi)
    if choi is not None and cb.verify_certificate(choi, phi):
        return CC, choi["type"]
    return INCONCLUSIVE, None


def test_choi_first_matches_the_falsifier_first_order():
    """Near cb norm 1 both orders give the same verdict and certificate
    type on every map (neither oracle depends on the other, and they never
    both decide), every map is decided (each sends 1 to t 1), and no
    verdict contradicts the construction's cb norm."""
    for build in (_compression, _kraus_sum):
        for seed in range(20):
            phi = build(seed)
            rep = cc_check(phi)
            got = (rep.verdict, rep.certificate and rep.certificate["type"])
            assert got == _falsifier_first(phi)
            assert rep.verdict == (CC, NOT_CC)[seed % 2]


def test_unit_decides_every_kraus_sum():
    """t times a UCP map sends 1 to t 1.  Above 1 the unit is a level-1
    witness, which re-verifies and which the Choi solver cannot contradict
    (the ascent alone misses 8 of these 10); below 1 the S + S* problem of
    phi / t certifies ||phi||_cb <= t."""
    for seed in range(20):
        phi = _kraus_sum(seed)
        rep = cc_check(phi)
        if seed % 2:
            assert rep.verdict == NOT_CC and rep.certificate["level"] == 1
            assert rep.diagnostics["witness"] == "unit"
            assert verify_falsifier(phi, rep.certificate)
            assert choi_feasibility(phi)[0] is None
        else:
            assert rep.verdict == CC and rep.certificate["system"] == "unital"
            assert rep.diagnostics["scale"] == pytest.approx(
                np.linalg.norm(phi(np.eye(4)), 2), abs=1e-12)
            assert cb.verify_certificate(rep.certificate, phi)


def test_unit_witness_is_built_only_above_norm_one(m2, monkeypatch):
    """A map whose ||phi(1)|| is at most 1 + margin pays one norm at the
    unit; one above it pays two more, to re-verify its witness."""
    norm = cb.operator_norm
    calls = []

    def counting(x):
        calls.append(x)
        return norm(x)

    monkeypatch.setattr(cb, "operator_norm", counting)
    assert cc_check(_halved(m2)).verdict == CC
    assert len(calls) == 1
    calls.clear()
    doubled = map_from_images(m2, m2.ambient, [2 * b for b in m2.basis])
    rep = cc_check(doubled)
    assert rep.diagnostics == {"decided_by": "falsifier", "witness": "unit"}
    assert len(calls) == 3


def test_diagnostics_name_the_witness_and_the_scale(m2):
    doubled = map_from_images(m2, m2.ambient, [2 * b for b in m2.basis])
    rep = cc_check(doubled)
    assert rep.certificate["x"].tolist() == np.eye(2).tolist()
    assert rep.diagnostics == {"decided_by": "falsifier", "witness": "unit"}
    rep = cc_check(_transpose(m2)[0])
    assert rep.verdict == NOT_CC and rep.diagnostics["witness"] == "ascent"
    rep = cc_check(_halved(m2))
    assert rep.diagnostics["scale"] == pytest.approx(0.5, rel=0, abs=1e-15)
    assert choi_feasibility(_rotated_diagonal(m2))[1]["scale"] == 1.0
    with using(max_iter=0):  # the S + S* run stops, the Paulsen run is last
        assert choi_feasibility(_halved(m2))[1]["scale"] == 1.0


@pytest.mark.parametrize("t, want", [(0.5, CC), (1.5, NOT_CC)])
def test_codomain_permutation_keeps_the_verdict(m2, t, want):
    plain = _identity_plus_compression(m2, t)
    permuted = _identity_plus_compression(m2, t, perm=(2, 0, 1))
    assert cc_check(plain).verdict == want
    assert cc_check(permuted).verdict == want


# ---------------------------------------------------------------------------
# the unital system S + S*


def test_zero_dimensional_domain_certificate_verifies(m2):
    phi = map_from_images(AlgebraSpan(m2.ambient, np.zeros((0, 2, 2))),
                          m2.ambient, np.zeros((0, 2, 2)))
    cert, diag = choi_feasibility(phi)
    assert cert["A"].shape == cert["B"].shape == cert["images"].shape \
        == (0, 2, 2)
    assert cb.verify_certificate(cert, phi)


def _inconsistent_on_s_cap_s_star(m2):
    """S = span{1, E00} in M_2 with phi(1) = 1 and phi(E00) = E00 + E01:
    unital but not *-consistent (S is self-adjoint and phi(E00) is not),
    and not completely contractive."""
    amb = m2.ambient
    e00, e01 = amb.matrix_unit(0, 0), amb.matrix_unit(0, 1)
    dom = orthonormal_span(amb, [np.eye(2), e00])
    return cb.map_from_generators(dom, [np.eye(2), e00],
                                  [np.eye(2), e00 + e01], amb), {}


@pytest.mark.parametrize("build", [_inconsistent_on_s_cap_s_star, _transpose])
def test_unital_map_that_is_not_cc_falls_through_to_paulsen(m2, build,
                                                           monkeypatch):
    # The transpose is unital, *-consistent and positive but not CP, so its
    # S + S* problem runs and separates; the inconsistent map never runs it.
    phi = build(m2)[0]
    runs = []
    solve = cb._pinned_choi

    def recording(B, R, max_iter):
        X, diag = solve(B, R, max_iter)
        runs.append((B.shape[-1], X is None, diag.get("infeasible")))
        return X, diag

    monkeypatch.setattr(cb, "_pinned_choi", recording)
    rep = cc_check(phi)
    assert rep.verdict == NOT_CC and rep.certificate["type"] == "falsifier"
    assert cb.verify_certificate(rep.certificate, phi)
    N = phi.dom.ambient.dim
    assert runs[-1] == (2 * N, True, True)
    assert runs[:-1] == ([(N, True, True)] if build is _transpose else [])


def _assert_scaled_pins(S, imgs, N, n):
    """phi~(1) = 1: pinned unscaled; 0.5 phi: phi's own pins, at scale
    0.5; 1.5 phi and D phi D with a non-scalar D^2 = phi~(D^2): no pins."""
    B, R, lam = cb._unital_pins(S, imgs, N, n)
    assert lam == 1.0
    B2, R2, lam2 = cb._unital_pins(S, 0.5 * imgs, N, n)
    assert lam2 == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(B2, B, rtol=0, atol=1e-15)
    assert np.allclose(R2, R, rtol=0, atol=1e-14)
    assert cb._unital_pins(S, 1.5 * imgs, N, n) is None
    D = np.diag([1.0, 0.5])
    assert cb._unital_pins(S, D @ imgs @ D, N, n) is None


def test_unital_system_is_tried_on_unital_maps_only(m2):
    _assert_scaled_pins(*cb._compressed_problem(_transpose(m2)[0])[:4])
    S, imgs, N, n, _, _ = cb._compressed_problem(
        _inconsistent_on_s_cap_s_star(m2)[0])
    assert cb._unital_pins(S, imgs, N, n) is None
    # 1 = (a + a*)/2 is in S + S* but not in S = span{a}
    a = np.eye(2) + 1j * np.diag([1.0, -1.0])
    S = orthonormal_span(m2.ambient, [a]).basis
    _assert_scaled_pins(S, S, 2, 2)


@pytest.mark.parametrize("spoil", [_negative_eigenvalue, _shifted_pin])
def test_unverified_unital_choi_certificate_is_inconclusive(monkeypatch,
                                                           spoil):
    phi = _ucp_compression(0)
    assert choi_feasibility(phi)[0]["system"] == "unital"
    _assert_spoilt_certificate_is_refused(phi, spoil, monkeypatch)


def test_unital_certificate_with_inconsistent_images_fails(m2):
    amb = m2.ambient
    dom = orthonormal_span(amb, [np.eye(2), amb.matrix_unit(0, 0)])
    phi = map_from_images(dom, amb, dom.basis)
    cert, _ = choi_feasibility(phi)
    assert cert["system"] == "unital" and verify_choi_certificate(cert)
    # phi'(s) = phi(s) + eps <h, s> E01 for h = diag(1, -1)/sqrt(2) in S:
    # phi'(1) = 1, but phi'(h) = h + eps E01 is not self-adjoint.  The
    # factorization of phi misses phi' on h by eps E01, which the bound
    # weighs by ||h||_1 = sqrt(2): above the acceptance level at eps = 1e-5,
    # against the edited record and against phi' alike.
    eps = 1e-5
    h = np.diag([1.0, -1.0]) / np.sqrt(2)
    shift = eps * dom.coeffs(h).conj()[:, None, None] * amb.matrix_unit(0, 1)
    spoiled = dict(cert, images=cert["images"] + shift)
    assert not verify_choi_certificate(spoiled)
    assert not cb.verify_certificate(cert, map_from_images(
        dom, amb, phi.images + shift))


def test_every_suite_choi_certificate_pins_the_unital_system(monkeypatch):
    """The suite's four Choi-decided maps are solved on S + S* in a few
    iterations, each certified to 1 + 1e-12; their pins are built once
    each, by the solver, and no check builds them again."""
    seen, built = [], []
    solve, pins = cb.choi_feasibility, cb._PINS["unital"]

    def recording(phi):
        cert, diag = solve(phi)
        seen.append((phi, cert, diag))
        return cert, diag

    monkeypatch.setattr(cb, "choi_feasibility", recording)
    monkeypatch.setitem(cb._PINS, "unital",
                        lambda *args: built.append(args) or pins(*args))
    paper_suite()
    assert len(seen) == len(built) == 4
    for phi, cert, diag in seen:
        assert cert["system"] == "unital" and diag["iterations"] <= 20
        assert diag["cb_bound"] <= 1 + 1e-12
        assert verify_choi_certificate(cert)
        assert cb.verify_certificate(cert, phi)


def test_factorization_check_refuses_mutants():
    """A Paulsen certificate proves ||phi||_cb <= 1 to 1e-10 and verifies
    against phi and against its own record.  Refused: the factorization
    checked against another map of the same shapes, the largest A_i scaled
    by 1 + 1e-4, and, by the one-argument check, a recorded image edited
    by 1e-4."""
    phi, other = (_non_unital_kraus_sum(seed, (2, 1)) for seed in (0, 2))
    cert, _ = choi_feasibility(phi)
    assert cert["system"] == "paulsen"
    ok, bound = cb._factorization_check(cert, phi.dom.basis, phi.images)
    assert ok and bound <= 1 + 1e-10
    assert cb.verify_certificate(cert, phi) and verify_choi_certificate(cert)
    assert not cb.verify_certificate(cert, other)
    A = cert["A"].copy()
    A[_top(cert)] *= 1 + 1e-4
    assert not cb.verify_certificate(dict(cert, A=A), phi)
    images = cert["images"].copy()
    images[0, 0, 0] += 1e-4
    assert not verify_choi_certificate(dict(cert, images=images))


def test_every_choi_certificate_of_a_scaled_ucp_map_proves_its_scale():
    """t Phi with Phi UCP and t < 1 (the even seeds of the compressions
    and Kraus sums) is decided by a factorization that verifies against
    the map and proves ||phi||_cb <= scale + 1e-6: t when S + S* decides
    it, 1 when that run stalls and the Paulsen problem decides.  Above 1
    the unit decides."""
    decided = 0
    for build in (_compression, _kraus_sum):
        for seed in range(20):
            phi = build(seed)
            rep = cc_check(phi)
            if rep.diagnostics["decided_by"] != "choi":
                continue
            t = np.linalg.norm(phi(np.eye(4)), 2)
            scale = (t, 1.0)[rep.certificate["system"] == "paulsen"]
            assert rep.diagnostics["scale"] == pytest.approx(scale, abs=1e-12)
            assert rep.diagnostics["cb_bound"] <= scale + 1e-6
            assert cb.verify_certificate(rep.certificate, phi)
            decided += 1
    assert decided == 20


def test_choi_decided_verdict_compresses_the_map_once(monkeypatch):
    """The solver's compression to the supports, one `support` call per
    side, is the only one: the certificate is checked in phi's own
    coordinates."""
    calls, support = [], cb.support
    monkeypatch.setattr(cb, "support",
                        lambda mats: calls.append(1) or support(mats))
    assert cc_check(_compression(0)).diagnostics["decided_by"] == "choi"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the folded Paulsen problem


def _unfolded_paulsen_pins(S, images, N, n):
    """Reference: the Paulsen pins with their images in M_{2n}, each
    required image in the corner of M_{2n} that matches its pin's."""
    def system(T, m):
        out = np.zeros((2 + 2 * len(T), 2 * m, 2 * m), dtype=complex)
        out[0, :m, :m] = out[1, m:, m:] = np.eye(m) / np.sqrt(N)
        out[2::2, :m, m:] = T
        out[3::2, m:, :m] = cb.adjoints(T)
        return out
    return system(S, N), system(images, n), 1.0


def _non_unital_kraus_sum(seed, blocks):
    """x -> sum_i A_i* x B_i (+) ... from a unital subspace of M4 into
    the direct sum of M_m over `blocks`, two 4 x m Kraus pairs per block
    scaled to Haagerup bound t within 3-20% of 1: phi(1) is no multiple of
    1, so choi_feasibility skips S + S* and runs the Paulsen problem."""
    rng = np.random.default_rng(seed)
    lo, hi = ((0.85, 0.97), (1.03, 1.2))[seed % 2]
    t = float(rng.uniform(lo, hi))
    dom = _unital_subspace(rng, 4)
    parts = []
    for m in blocks:
        A, B = (rng.standard_normal((2, 4, m))
                + 1j * rng.standard_normal((2, 4, m)) for _ in range(2))
        row, col = (np.linalg.norm(np.einsum("iba,ibc->ac", K.conj(), K), 2)
                    for K in (A, B))
        parts.append(t / np.sqrt(row * col) * np.einsum(
            "iba,kbc,icd->kad", A.conj(), dom.basis, B))
    return map_from_images(dom, Ambient(tuple(blocks)),
                           [direct_sum(*imgs) for imgs in zip(*parts)])


def _paulsen_problems(m2):
    """Folded and unfolded Paulsen pins of seeded non-unital Kraus sums
    into M_2 and into M_2 (+) M_1, and of the infeasible psi (+) 1.5 chi."""
    maps = [_non_unital_kraus_sum(seed, blocks)
            for blocks in ((2,), (2, 1)) for seed in range(4)]
    maps.append(_identity_plus_compression(m2, 1.5))
    for phi in maps:
        S, imgs, N, n, _, _ = cb._compressed_problem(phi)
        yield (N, n), cb._paulsen_pins(S, imgs, N, n), \
            _unfolded_paulsen_pins(S, imgs, N, n)


def _padded(X, N, n):
    """A folded Choi matrix (side 2Nn) zero-padded to the unfolded layout
    (side 4Nn): pin coordinate p meets codomain coordinate c only when
    both lie in the same half."""
    Y = np.zeros((2 * N, 2 * n, 2 * N, 2 * n), dtype=complex)
    Xf = X.reshape(2 * N, n, 2 * N, n)
    for h in range(2):
        for k in range(2):
            Y[h * N:(h + 1) * N, h * n:(h + 1) * n,
              k * N:(k + 1) * N, k * n:(k + 1) * n] = \
                Xf[h * N:(h + 1) * N, :, k * N:(k + 1) * N, :]
    return Y.reshape(4 * N * n, 4 * N * n)


def test_folded_paulsen_run_is_the_unfolded_run_on_its_principal_block(m2):
    """Every iterate of the unfolded run lies on the principal block W of
    coordinates whose pin and codomain halves agree, so the folded run
    ends the same way after as many iterations, and its Choi matrix padded
    with zeros solves the unfolded problem and equals the unfolded one."""
    outcomes = []
    for (N, n), folded, unfolded in _paulsen_problems(m2):
        K, diag = cb._pinned_choi(*folded[:2], 10000)
        Ku, diag_u = cb._pinned_choi(*unfolded[:2], 10000)
        assert (K is None, diag["iterations"], diag.get("infeasible"),
                diag.get("stalled")) == (Ku is None, diag_u["iterations"],
                                         diag_u.get("infeasible"),
                                         diag_u.get("stalled"))
        outcomes.append(K is None)
        if K is None:
            continue
        X = _choi_matrix(K)
        assert X.shape == (2 * N * n, 2 * N * n)
        Y = _padded(X, N, n)
        B, R, _ = unfolded
        assert np.linalg.norm(R - _choi_apply(B, Y)) < FEAS_TOL
        assert np.allclose(Y, _choi_matrix(Ku), rtol=0, atol=1e-9)
    assert outcomes == [False] * 8 + [True]


def test_paulsen_certificate_has_side_2nn():
    """The folded Choi matrix has side 2Nn, so a Paulsen certificate holds
    at most 2Nn Kraus pairs (A_i, B_i), each N x n in phi's coordinates;
    its pins make sum A_i* A_i = sum B_i* B_i = 1, so it proves
    ||phi||_cb <= 1."""
    for blocks in ((2,), (2, 1)):
        phi = _non_unital_kraus_sum(0, blocks)
        rep = cc_check(phi)
        assert rep.verdict == CC and rep.certificate["system"] == "paulsen"
        N, n = phi.dom.ambient.dim, phi.cod.dim
        A, B = rep.certificate["A"], rep.certificate["B"]
        assert A.shape == B.shape and A.shape[1:] == (N, n)
        assert 0 < len(A) <= 2 * N * n
        assert rep.diagnostics["cb_bound"] == pytest.approx(1, abs=1e-10)
        assert cb.verify_certificate(rep.certificate, phi)


@pytest.mark.parametrize("system, build, fold", [
    ("unital", _ucp_compression, 1),
    ("paulsen", _compression, 2),
    ("paulsen", lambda seed: _non_unital_kraus_sum(seed, (2, 1)), 2)])
def test_trace_of_a_feasible_point_is_read_off_the_pins(system, build, fold):
    """tr X = Re<w, AX> for w_l = tr(B_l) 1_m, the trace bound of
    _separates: at a feasible point it is tr Phi(1) = fold * m (Phi(1) is 1
    on S + S*, 2 1_m on the folded Paulsen system), and ||w|| = sqrt(Mm)."""
    phi = build(0)
    S, imgs, N, n, _, _ = cb._compressed_problem(phi)
    B, R, _ = cb._PINS[system](S, imgs, N, n)
    X = _choi_matrix(cb._pinned_choi(B, R, 10000)[0])
    M, m = B.shape[-1], R.shape[-1]
    w = np.einsum("l,ij->lij", np.trace(B, axis1=1, axis2=2), np.eye(m))
    AX = _choi_apply(B, X)
    assert np.vdot(w, AX).real == pytest.approx(np.trace(X).real, abs=1e-9)
    assert np.vdot(w, R).real == pytest.approx(fold * m, abs=1e-9)
    assert np.linalg.norm(w) == pytest.approx(np.sqrt(M * m), abs=1e-12)


def _separates_in_full(pins, R, y, target):
    """Reference: _separates without its early exit, lam always computed."""
    L, m = R.shape[:2]
    y, R = y.reshape(L, -1), R.reshape(L, -1)
    w = np.outer(sum(np.trace(P, axis1=1, axis2=2) for P in pins),
                 np.eye(m).ravel())
    bound = np.vdot(w, R).real + np.linalg.norm(w) * target
    lam = min(0.0, *(np.linalg.eigvalsh(cb._hermitian(cb._choi_layout(
        P.reshape(L, -1).conj().T @ y, P.shape[1], m)))[0] for P in pins))
    return np.vdot(y, R).real <= lam * bound - np.linalg.norm(y) * target


@pytest.mark.parametrize("system, build", [
    ("unital", lambda m2: _transpose(m2)[0]),
    ("paulsen", lambda m2: _transpose(m2)[0]),
    ("paulsen", lambda m2: _identity_plus_compression(m2, 1.5))])
def test_separator_early_exit_never_changes_the_result(m2, system, build,
                                                       monkeypatch):
    """On 200 random y around a separator that a run of `system` accepted
    (from far inside to far outside the separating cone), _separates
    agrees with its computation in full, and both answers occur."""
    separates = cb._separates
    accepted = []

    def recording(*args):
        got = separates(*args)
        if got:
            accepted.append(args)
        return got

    monkeypatch.setattr(cb, "_separates", recording)
    monkeypatch.setattr(cb, "_PINS", {system: cb._PINS[system]})
    cert, diag = choi_feasibility(build(m2))
    monkeypatch.undo()
    assert cert is None and diag["infeasible"]
    pins, R, y0, target = accepted[-1]
    y0 = y0.reshape(R.shape)
    rng = np.random.default_rng(7)
    seen, exits = set(), 0
    for _ in range(200):
        g = rng.standard_normal(R.shape) + 1j * rng.standard_normal(R.shape)
        y = y0 + 10 ** rng.uniform(-3, 1) * np.linalg.norm(y0) \
            * g / np.linalg.norm(g)
        got = cb._separates(pins, R, y, target)
        assert got == _separates_in_full(pins, R, y, target)
        seen.add(bool(got))
        exits += np.vdot(y, R).real > -np.linalg.norm(y) * target
    assert seen == {True, False} and exits


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
    # nor for a map on a domain outside inner's (no exception either)
    amb3 = Ambient((3,))
    e00 = orthonormal_span(amb3, [amb3.matrix_unit(0, 0)])
    assert not cb.verify_certificate(cert, _identity(e00))
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


def _a4_inclusion_map():
    """A4 -> M4 as given, carrying no certificate: an injective
    *-homomorphism whose extension to C*(A4) = M4 is injective too."""
    A = a4_algebra()
    return map_from_images(A.span, A.ambient, A.span.basis)


def _recorded_closures(monkeypatch):
    closures, closure = [], cb.graph_closure

    def recording(*args, **kwargs):
        closures.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(cb, "graph_closure", recording)
    return closures


def test_inverse_certificate_is_read_off_the_forward_closure(monkeypatch):
    phi = _a4_inclusion_map()
    closures = _recorded_closures(monkeypatch)
    rep = ci_check(phi)
    assert rep.verdict == CI
    assert len(closures) == 1
    assert rep.diagnostics["inverse"]["decided_by"] == "homomorphism"
    assert rep.certificate["inverse"]["type"] == "homomorphism"
    assert cb.verify_certificate(rep.certificate, phi)


def test_spoilt_inverse_certificate_falls_back_to_the_closure(monkeypatch):
    phi = _a4_inclusion_map()
    verdict = ci_check(phi).verdict
    spoilt, inverse_on_image = [], LinearMap.inverse_on_image

    def spoiling(self):
        inv = inverse_on_image(self)
        if self is not phi:  # the forward extension, inverted
            spoilt.append(self)
            inv.images = 2 * inv.images
        return inv

    monkeypatch.setattr(LinearMap, "inverse_on_image", spoiling)
    closures = _recorded_closures(monkeypatch)
    rep = ci_check(phi)
    assert spoilt
    assert len(closures) == 2
    assert rep.verdict == verdict == CI
    assert rep.diagnostics["inverse"]["decided_by"] == "homomorphism"
