import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg import linalg
from opalg.linalg import (RANK_TOL, AlgebraSpan, Ambient, AmbientMismatch,
                          NotInSpan, compress_span, diagonal,
                          direct_sum, generate_algebra, hs_orthonormalize,
                          intersect_spans, intertwiner_space, null_space,
                          operator_norm, orthonormal_span, support)


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
        with pytest.raises(AmbientMismatch):
            Ambient((2,)).check(np.zeros((1, 1, 2, 2)))

    def test_stack_is_checked_in_one_call(self):
        amb = Ambient((2, 1))
        rng = np.random.default_rng(7)
        stack = np.array([rand_mat(rng, 3) for _ in range(4)])
        per_matrix = [amb.off_block_norm(m) for m in stack]
        assert amb.off_block_norm(stack) == pytest.approx(max(per_matrix),
                                                          rel=1e-12)
        clean = np.where(amb.mask(), stack, 0)
        assert amb.check(clean).shape == (4, 3, 3)
        assert amb.check([]).shape == (0, 3, 3)
        with pytest.raises(AmbientMismatch):
            amb.check(np.concatenate([clean, stack[:1]]))

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
        gram = np.array([[np.vdot(x, y) for y in out] for x in out])
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
        cs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        stack = np.array([span.from_coeffs(row) for row in cs])
        assert np.allclose(span.coeffs(stack), cs)

    def test_coeffs_rejects_outside_element(self):
        amb = Ambient((2,))
        span = orthonormal_span(amb, [amb.matrix_unit(0, 0)])
        with pytest.raises(NotInSpan):
            span.coeffs(amb.matrix_unit(1, 1))
        with pytest.raises(NotInSpan):  # one row of a stack is enough
            span.coeffs(np.array([amb.matrix_unit(0, 0),
                                  amb.matrix_unit(1, 1)]))
        with pytest.raises(AmbientMismatch):
            span.coeffs(np.eye(3))

    def test_verify_flags(self):
        amb = Ambient((2,))
        good = AlgebraSpan(amb, hs_orthonormalize(
            [amb.matrix_unit(0, 0), amb.matrix_unit(1, 1)]),
            self_adjoint=True, unital=True)
        assert good.verify() == []
        not_closed = AlgebraSpan(amb, hs_orthonormalize(
            [amb.matrix_unit(0, 1) + amb.matrix_unit(1, 0)]))
        assert "not closed under multiplication" in not_closed.verify()
        M2 = generate_algebra(amb, [amb.matrix_unit(0, 1)])
        assert AlgebraSpan(amb, M2.basis, ideal_in=M2, self_adjoint=True,
                           unital=True).verify() == []

    @pytest.mark.parametrize("basis, flags, in_M2, want", [
        # E01 squares to zero, but its adjoint E10 is not in the span
        ([(0, 1)], dict(self_adjoint=True), False,
         "not closed under adjoint"),
        ([(0, 0)], dict(self_adjoint=True, unital=True), False,
         "does not contain the ambient identity"),
        # a corner, a left ideal (first column), a right ideal (first row)
        ([(0, 0)], dict(self_adjoint=True), True,
         "not an ideal in the enclosing algebra"),
        ([(0, 0), (1, 0)], {}, True, "not an ideal in the enclosing algebra"),
        ([(0, 0), (0, 1)], {}, True, "not an ideal in the enclosing algebra"),
    ])
    def test_verify_names_each_flag(self, basis, flags, in_M2, want):
        amb = Ambient((2,))
        M2 = generate_algebra(amb, [amb.matrix_unit(0, 1)])
        span = AlgebraSpan(amb, hs_orthonormalize(
            [amb.matrix_unit(r, c) for r, c in basis]),
            ideal_in=M2 if in_M2 else None, **flags)
        assert span.verify() == [want]


class TestGeneration:
    def test_full_matrix_algebra_from_shift(self):
        amb = Ambient((3,))
        shift = amb.matrix_unit(0, 1) + amb.matrix_unit(1, 2)
        alg = generate_algebra(amb, [shift])
        assert alg.dim == 9

    @pytest.mark.parametrize("eps", [1.0, 1e-6])
    def test_generator_scale_does_not_matter(self, eps):
        amb = Ambient((2,))
        alg = generate_algebra(amb, [amb.matrix_unit(0, 0),
                                     eps * amb.matrix_unit(0, 1)])
        assert alg.dim == 4

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-8])
    @pytest.mark.parametrize("unital", [True, False])
    def test_small_gaps_inside_one_generator_count(self, eps, unital):
        # The normal matrices square the singular values: a rank decision
        # on them alone took E00 + eps E01 (eps <= 3e-5) for E00, with
        # C*-algebra the diagonal, and diag(1, 1 + eps) for a scalar.
        amb = Ambient((2,))
        g = amb.matrix_unit(0, 0) + eps * amb.matrix_unit(0, 1)
        assert generate_algebra(amb, [g], unital=unital).dim == 4
        two = Ambient((1, 1))
        alg = generate_algebra(two, [np.diag([1, 1 + eps])], unital=unital)
        assert alg.dim == 2
        assert alg.verify() == []


def _naive_span(mats):
    """Orthonormal rows spanning the flattened mats (reference rank rule)."""
    flat = np.array([np.ravel(m) for m in mats])
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    return vh[s > 1e-9 * max(1.0, s[0])]


def _naive_algebra(amb, gens, unital):
    """Every pairwise product of the basis, until the dimension stops
    growing."""
    N = amb.dim
    seed = list(gens) + [g.conj().T for g in gens]
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
@given(_ambients, st.integers(0, 10 ** 6), st.integers(1, 3), st.booleans())
def test_generate_algebra_matches_naive_closure(amb, seed, count, unital):
    gens = _sparse_generators(np.random.default_rng(seed), amb, count)
    alg = generate_algebra(amb, gens, unital=unital)
    ref = _naive_algebra(amb, gens, unital)
    assert alg.dim == ref.dim
    assert alg.contains_span(ref) and ref.contains_span(alg)
    assert alg.verify() == []


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


def test_null_space_of_a_stack_pads_with_zero_rows():
    # each matrix gets its own cutoff; nullities 2 and 0 share 2 rows
    rng = np.random.default_rng(12)
    low = rand_mat(rng, 4)[:, :2] @ rand_mat(rng, 4)[:2]
    stack = np.array([low, 1e6 * rand_mat(rng, 4)])
    null = null_space(stack)
    assert null.shape == (2, 2, 4)
    assert np.allclose(null[0], null_space(low))
    assert not null[1].any()


def test_intertwiner_space_matches_the_per_pair_loop():
    # y_a = u x_a u*: in M3 the intertwiners are the multiples of u
    rng = np.random.default_rng(6)
    amb = Ambient((3,))
    space = orthonormal_span(amb, [amb.matrix_unit(i, j)
                                   for i in range(3) for j in range(3)])
    u = np.linalg.qr(rand_mat(rng, 3))[0]
    xs = [rand_mat(rng, 3) for _ in range(2)]
    ys = [u @ x @ u.conj().T for x in xs]
    loop = null_space(np.vstack(
        [np.array([(b @ x - y @ b).ravel() for b in space.basis]).T
         for x, y in zip(xs, ys)]))
    got = intertwiner_space(xs, ys, space)
    assert got.shape == loop.shape == (1, 9)
    assert np.allclose(got.conj().T @ got, loop.conj().T @ loop,
                       rtol=0, atol=1e-12)


def test_intersect_spans():
    amb = Ambient((3,))
    rng = np.random.default_rng(5)
    a, b, c = (rand_mat(rng, 3) for _ in range(3))
    V = orthonormal_span(amb, [a, b])
    W = orthonormal_span(amb, [b, c])
    inter = intersect_spans(V, W)
    assert len(inter) == 1
    assert np.linalg.norm(inter[0]) == pytest.approx(1.0)
    assert V.contains(inter[0]) and W.contains(inter[0])


def test_diagonal_of_triangular_algebra():
    amb = Ambient((2,))
    # the upper triangular matrices
    A = orthonormal_span(amb, [amb.matrix_unit(0, 0), amb.matrix_unit(0, 1),
                               amb.matrix_unit(1, 1)])
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

    def test_support_dense_case(self):
        rng = np.random.default_rng(11)
        u = np.linalg.qr(rand_mat(rng, 3))[0]
        x = u @ np.diag([1.0, 0.0, 0.0]).astype(complex) @ u.conj().T
        V = support([x])
        assert V.shape == (3, 1)
        assert np.allclose(V.conj().T @ V, np.eye(1))
        assert np.allclose(V @ V.conj().T @ x, x)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    def test_small_singular_value_keeps_its_direction(self, eps):
        # The support of diag(1, eps) is full: a rank rule on sum b b* + b* b
        # squares eps below RANK_TOL and drops it.
        amb = Ambient((2,))
        span = orthonormal_span(amb, [np.diag([1.0, eps])])
        comp, V = compress_span(span)
        assert V is None and comp.ambient.block_dims == (2,)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    def test_support_is_the_unit_of_the_nonunital_algebra(self, eps,
                                                          monkeypatch):
        # support(gens) and the 1 - e generate_algebra reads are
        # complementary projections, in a rotated (non-diagonal) frame too.
        rng = np.random.default_rng(12)
        u = np.linalg.qr(rand_mat(rng, 3))[0]
        gens = np.array([u @ np.diag([1.0, eps, 0.0]) @ u.conj().T,
                         u @ np.diag([0.5, 0.0, 0.0]) @ u.conj().T])
        V = support(gens)
        cosupport = linalg._cosupport
        seen = []

        def recording(S):
            seen.append(cosupport(S))
            return seen[-1]

        monkeypatch.setattr(linalg, "_cosupport", recording)
        alg = generate_algebra(Ambient((3,)), gens, unital=False)
        (c,) = seen
        assert V.shape == (3, 2)
        assert np.allclose(V @ V.conj().T + c.conj().T @ c, np.eye(3),
                           rtol=0, atol=1e-9)
        e = V @ V.conj().T
        assert alg.contains(e)
        assert np.allclose(e @ alg.basis, alg.basis, rtol=0, atol=1e-9)
