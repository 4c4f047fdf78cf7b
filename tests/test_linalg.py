import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.linalg import (RANK_TOL, AlgebraSpan, Ambient, AmbientMismatch,
                          NotInSpan, compress_span, diagonal, direct_sum,
                          generate_algebra, generate_ideal, hs_inner,
                          hs_orthonormalize, intersect_spans, null_space,
                          operator_norm, orthonormal_span, support_isometry)
from opalg.structure import ideal_blocks, minimal_central_projections


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestAmbient:
    def test_block_dims_and_dim(self):
        amb = Ambient((4, 2, 1))
        assert amb.dim == 7
        assert amb.block_dims == (4, 2, 1)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            Ambient(())
        with pytest.raises(ValueError):
            Ambient((2, 0))

    def test_off_block_detection(self):
        amb = Ambient((2, 2))
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = 1.0
        with pytest.raises(AmbientMismatch):
            amb.check(m)

    def test_wrong_shape(self):
        with pytest.raises(AmbientMismatch):
            Ambient((2,)).check(np.eye(3))

    def test_embed_and_extract_block(self):
        amb = Ambient((2, 3))
        x = np.arange(9, dtype=complex).reshape(3, 3)
        m = amb.embed_block(1, x)
        assert np.allclose(amb.block_of(m, 1), x)
        assert np.allclose(amb.block_of(m, 0), 0)

    def test_direct_sum_of_ambients(self):
        assert Ambient((2,)).direct_sum(Ambient((3, 1))).block_dims == (2, 3, 1)


def test_direct_sum_matrices():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5]], dtype=complex)
    m = direct_sum(a, b)
    assert m.shape == (3, 3)
    assert m[2, 2] == 5 and m[0, 1] == 2 and m[0, 2] == 0


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(3)
    x = rand_mat(rng, 5)
    assert operator_norm(x) == pytest.approx(np.linalg.svd(x, compute_uv=False)[0])


class TestOrthonormalize:
    def test_keeps_orthonormal_input_in_order(self):
        amb = Ambient((3,))
        mats = [amb.matrix_unit(0, 1), amb.matrix_unit(2, 2)]
        out = hs_orthonormalize(mats)
        assert np.allclose(out[0], mats[0])
        assert np.allclose(out[1], mats[1])

    def test_rank_detection(self):
        rng = np.random.default_rng(0)
        a, b = rand_mat(rng, 3), rand_mat(rng, 3)
        out = hs_orthonormalize([a, b, a + b, 2 * a])
        assert len(out) == 2
        gram = np.array([[hs_inner(x, y) for y in out] for x in out])
        assert np.allclose(gram, np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6))
    def test_projection_is_idempotent(self, seed, d):
        rng = np.random.default_rng(seed)
        amb = Ambient((4,))
        span = orthonormal_span(amb, [rand_mat(rng, 4) for _ in range(d)])
        x = rand_mat(rng, 4)
        p = span.project(x)
        assert np.allclose(span.project(p), p, atol=1e-10)
        assert span.contains(p)


class TestAlgebraSpan:
    def test_coeffs_roundtrip(self):
        rng = np.random.default_rng(1)
        amb = Ambient((4,))
        span = orthonormal_span(amb, [rand_mat(rng, 4) for _ in range(3)])
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = span.from_coeffs(c)
        assert np.allclose(span.coeffs(x), c)

    def test_coeffs_rejects_outside_element(self):
        amb = Ambient((2,))
        span = orthonormal_span(amb, [amb.matrix_unit(0, 0)])
        with pytest.raises(NotInSpan):
            span.coeffs(amb.matrix_unit(1, 1))

    def test_verify_flags(self):
        amb = Ambient((2,))
        good = AlgebraSpan(amb, hs_orthonormalize(
            [amb.matrix_unit(0, 0), amb.matrix_unit(1, 1)]),
            self_adjoint=True, unital=True)
        assert good.verify() == []
        not_closed = AlgebraSpan(amb, hs_orthonormalize(
            [amb.matrix_unit(0, 1) + amb.matrix_unit(1, 0)]))
        assert "not closed under multiplication" in not_closed.verify()


class TestGeneration:
    def test_full_matrix_algebra_from_shift(self):
        amb = Ambient((3,))
        shift = amb.matrix_unit(0, 1) + amb.matrix_unit(1, 2)
        alg = generate_algebra(amb, [shift], self_adjoint=True, unital=True)
        assert alg.dim == 9

    def test_nonselfadjoint_generation(self):
        amb = Ambient((2,))
        alg = generate_algebra(amb, [amb.matrix_unit(0, 1)],
                               self_adjoint=False, unital=True)
        assert alg.dim == 2  # I and E12
        assert alg.verify() == []

    def test_ideal_generation(self):
        amb = Ambient((2, 1))
        C = generate_algebra(amb, [amb.matrix_unit(0, 1),
                                   amb.matrix_unit(2, 2)],
                             self_adjoint=True, unital=True)
        J = generate_ideal(C, [amb.matrix_unit(0, 0)])
        assert J.dim == 4  # the whole M2 block
        assert J.verify() == []

    def test_ideal_generator_must_lie_in_algebra(self):
        amb = Ambient((2,))
        C = generate_algebra(amb, [amb.matrix_unit(0, 0)],
                             self_adjoint=True, unital=True)
        with pytest.raises(NotInSpan):
            generate_ideal(C, [amb.matrix_unit(0, 1)])


def _naive_span(mats):
    """Orthonormal rows spanning the flattened mats (reference rank rule)."""
    flat = np.array([np.ravel(m) for m in mats])
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    return vh[s > 1e-9 * max(1.0, s[0])]


def _naive_algebra(amb, gens, self_adjoint, unital):
    """Every pairwise product of the basis, until the dimension stops
    growing."""
    N = amb.dim
    seed = list(gens) + ([g.conj().T for g in gens] if self_adjoint else [])
    seed += [amb.identity()] if unital else []
    rows = _naive_span(seed)
    while True:
        basis = rows.reshape(-1, N, N)
        grown = _naive_span(list(basis)
                            + [a @ b for a in basis for b in basis])
        if len(grown) == len(rows):
            return AlgebraSpan(amb, basis)
        rows = grown


def _sparse_generators(rng, amb, count):
    """`count` random elements with one to four nonzero in-block entries."""
    r, c = np.nonzero(amb.mask())
    gens = []
    for _ in range(count):
        g = amb.zero()
        pick = rng.choice(len(r), size=rng.integers(2, 5))
        g[r[pick], c[pick]] = rng.choice([-2, -1, 1, 2], len(pick)) \
            + 1j * rng.integers(-2, 3, len(pick))
        gens.append(g)
    return gens


_ambients = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda dims: Ambient(tuple(dims)))


@settings(max_examples=40, deadline=None)
@given(_ambients, st.integers(0, 10 ** 6), st.integers(1, 3), st.booleans(),
       st.booleans())
def test_generate_algebra_matches_naive_closure(amb, seed, count,
                                                self_adjoint, unital):
    gens = _sparse_generators(np.random.default_rng(seed), amb, count)
    alg = generate_algebra(amb, gens, self_adjoint=self_adjoint, unital=unital)
    ref = _naive_algebra(amb, gens, self_adjoint, unital)
    assert alg.dim == ref.dim
    assert alg.contains_span(ref) and ref.contains_span(alg)
    assert alg.verify() == []


@settings(max_examples=25, deadline=None)
@given(_ambients, st.integers(0, 10 ** 6))
def test_generate_ideal_is_the_ideal_of_the_touched_blocks(amb, seed):
    rng = np.random.default_rng(seed)
    C = generate_algebra(amb, _sparse_generators(rng, amb, 2),
                         self_adjoint=True, unital=True)
    zs = minimal_central_projections(C).projections
    x = C.from_coeffs(rng.standard_normal(C.dim)
                      + 1j * rng.standard_normal(C.dim))
    gen = sum((z for z in zs if rng.random() < 0.5), amb.zero()) @ x
    touched = frozenset(i for i, z in enumerate(zs)
                        if np.linalg.norm(z @ gen) > 1e-6)
    J = generate_ideal(C, [gen])
    ref = ideal_blocks(C, touched)
    assert J.dim == ref.dim
    assert J.contains_span(ref) and ref.contains_span(J)
    assert J.verify() == []


def test_closure_never_orthonormalizes_all_products(monkeypatch):
    """Closing M_6 from the shift and its adjoint multiplies only the
    elements each round adds, so no SVD sees more than 2 * 36 rows.  The
    all-pairs closure stacked the basis, its 36^2 products and its 36
    adjoints: 1,368 rows."""
    rows = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    amb = Ambient((6,))
    shift = sum(amb.matrix_unit(i, i + 1) for i in range(5))
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    alg = generate_algebra(amb, [shift], self_adjoint=True, unital=True)
    monkeypatch.undo()
    assert alg.dim == 36
    assert rows and max(rows) <= 2 * 36


@pytest.mark.parametrize("shape, left, want", [
    ((6, 4), False, 2), ((6, 4), True, 4),   # tall, rank 2
    ((3, 5), False, 3), ((3, 5), True, 1),   # wide, rank 2
])
def test_null_space_of_rank_deficient_matrix(shape, left, want):
    rng = np.random.default_rng(11)
    m, n = shape
    M = (rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))) \
        @ (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    null = null_space(M, left=left)
    assert null.shape == (want, m if left else n)
    assert np.allclose(null @ null.conj().T, np.eye(want))
    residual = null @ M if left else M @ null.T
    assert np.linalg.norm(residual) < RANK_TOL


def test_intersect_spans():
    amb = Ambient((3,))
    rng = np.random.default_rng(5)
    a, b, c = (rand_mat(rng, 3) for _ in range(3))
    V = orthonormal_span(amb, [a, b])
    W = orthonormal_span(amb, [b, c])
    inter = intersect_spans(V, W)
    assert len(inter) == 1
    assert V.contains(inter[0]) and W.contains(inter[0])


def test_diagonal_of_triangular_algebra():
    amb = Ambient((2,))
    A = generate_algebra(amb, [amb.matrix_unit(0, 1), amb.matrix_unit(0, 0)],
                         self_adjoint=False, unital=True)
    D = diagonal(A)
    assert D.dim == 2
    for b in D.basis:
        assert D.contains(b.conj().T)


class TestCompression:
    def test_coordinate_selection_keeps_blocks(self):
        amb = Ambient((2, 2))
        span = orthonormal_span(amb, [amb.matrix_unit(0, 0),
                                      amb.matrix_unit(2, 2)])
        comp, V = compress_span(span)
        assert comp.ambient.block_dims == (1, 1)
        assert V.shape == (4, 2)

    def test_full_support_is_identity(self):
        amb = Ambient((2,))
        span = orthonormal_span(amb, [np.eye(2, dtype=complex),
                                      amb.matrix_unit(0, 1)])
        comp, V = compress_span(span)
        assert V is None and comp is span

    def test_norms_preserved(self):
        rng = np.random.default_rng(7)
        amb = Ambient((4,))
        x = np.zeros((4, 4), dtype=complex)
        x[:2, :2] = rand_mat(rng, 2)
        span = orthonormal_span(amb, [x])
        comp, V = compress_span(span)
        assert operator_norm(comp.basis[0]) == pytest.approx(
            operator_norm(span.basis[0]))

    def test_support_isometry_dense_case(self):
        rng = np.random.default_rng(11)
        u = np.linalg.qr(rand_mat(rng, 3))[0]
        x = u @ np.diag([1.0, 0.0, 0.0]).astype(complex) @ u.conj().T
        V = support_isometry([x], 3)
        assert V.shape == (3, 1)
        assert np.allclose(V.conj().T @ V, np.eye(1))
