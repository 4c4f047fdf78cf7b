import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg import corpus, linalg, structure
from opalg.covers import OperatorAlgebra, make_cover, quotient_map
from opalg.dynamics import make_system
from opalg.linalg import (AlgebraSpan, Ambient, direct_sum, generate_algebra,
                          intertwiner_space, orthonormal_span)
from opalg.partialact import verify_partial_recovery
from opalg.structure import (BlockStructure, BlockStructureError,
                             annihilator, blocks_of_ideal, center,
                             ideal_blocks, is_essential, is_maximal_ideal,
                             minimal_central_projections)


@pytest.fixture(scope="module")
def m2_plus_c2():
    """M2 + C + C realized block-diagonally in M4."""
    amb = Ambient((2, 1, 1))
    return generate_algebra(
        amb, [amb.matrix_unit(0, 1), amb.matrix_unit(2, 2),
              amb.matrix_unit(3, 3)])


def test_center_dimension(m2_plus_c2):
    assert center(m2_plus_c2).dim == 3


def test_center_of_full_matrix_algebra():
    amb = Ambient((3,))
    C = generate_algebra(amb, [amb.matrix_unit(i, j)
                               for i in range(3) for j in range(3)])
    assert center(C).dim == 1


def _reference_center(C):
    """The center as the intertwiners of C's basis with itself, one SVD of
    every commutator row (the rule `center` replaced)."""
    return orthonormal_span(C.ambient, [
        C.from_coeffs(c) for c in intertwiner_space(C.basis, C.basis, C)])


def _same_span(V, W):
    return V.dim == W.dim and V.contains_span(W) and W.contains_span(V)


def _rotated_blocks(sizes, mults, seed):
    """The direct sum of the M_m (x) 1_r in one full block of size
    sum m * r, conjugated by a seeded random unitary."""
    N = sum(m * r for m, r in zip(sizes, mults))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((N, N))
                        + 1j * rng.standard_normal((N, N)))
    units, off = [], 0
    for m, r in zip(sizes, mults):
        for a in range(m):
            for b in range(m):
                e = np.zeros((N, N), dtype=complex)
                for k in range(r):
                    e[off + k * m + a, off + k * m + b] = 1.0
                units.append(u @ e @ u.conj().T)
        off += m * r
    span = orthonormal_span(Ambient((N,)), units)
    return AlgebraSpan(span.ambient, span.basis, self_adjoint=True,
                       unital=True)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                min_size=1, max_size=3),
       st.integers(0, 10 ** 6))
def test_center_matches_the_intertwiner_reference(blocks, seed):
    sizes, mults = zip(*blocks)
    C = _rotated_blocks(sizes, mults, seed)
    Z = center(C)
    assert Z.dim == len(blocks)
    assert _same_span(Z, _reference_center(C))
    assert Z.verify() == []
    bs = minimal_central_projections(C)
    assert sorted(zip(bs.block_dims, bs.mults)) == sorted(blocks)


@pytest.mark.parametrize("name", sorted(corpus.COVER_BUILDERS))
def test_center_of_every_corpus_cover(name):
    C = corpus.COVER_BUILDERS[name]().C
    assert _same_span(center(C), _reference_center(C))


def test_block_sizes_are_read_off_traces(monkeypatch):
    # no corner is built or orthonormalized to size a block
    C = _rotated_blocks((2, 1, 3), (1, 2, 1), 3)
    monkeypatch.setattr("opalg.structure.corner", None)
    bs = minimal_central_projections(C)
    assert bs.block_dims == (3, 2, 1)
    assert bs.verify() == []


def test_a_corner_of_no_square_dimension_is_refused(m2_plus_c2,
                                                    monkeypatch):
    # A commuting family that is not central: diag(1, 0, 0, 0) splits the
    # M2 block, and its "corner" has dimension 2.
    amb = m2_plus_c2.ambient
    fake = orthonormal_span(amb, [np.diag(d).astype(complex) for d in
                                  ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1])])
    monkeypatch.setattr("opalg.structure.center", lambda C: fake)
    C = AlgebraSpan(amb, m2_plus_c2.basis, self_adjoint=True, unital=True)
    with pytest.raises(BlockStructureError, match="dimension 2 is not a "
                                                  "perfect square"):
        minimal_central_projections(C)


def test_minimal_central_projections(m2_plus_c2):
    bs = minimal_central_projections(m2_plus_c2)
    assert sorted(bs.block_dims, reverse=True) == [2, 1, 1]
    assert bs.verify() == []


def test_a_degenerate_central_draw_is_resampled(monkeypatch):
    # A zero combination of the center has one eigenvalue cluster for a
    # center of dimension 3: its one "corner" is all of C (dimension 6).
    amb = Ambient((2, 1, 1))
    C = generate_algebra(amb, [amb.matrix_unit(0, 1), amb.matrix_unit(2, 2),
                               amb.matrix_unit(3, 3)])
    default_rng = np.random.default_rng
    draws = []

    class FirstDrawZero:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size):
            draws.append(size)
            return self.rng.standard_normal(size) if len(draws) > 1 \
                else np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", FirstDrawZero)
    bs = minimal_central_projections(C)
    assert len(draws) == 2
    assert sorted(bs.block_dims, reverse=True) == [2, 1, 1]
    assert bs.verify() == []


def test_block_structure_with_multiplicity():
    # x + x in M4 carries M2 with multiplicity two: one block, mult 2.
    amb = Ambient((4,))
    e = np.zeros((4, 4), dtype=complex)
    e[0, 1] = e[2, 3] = 1.0
    C = generate_algebra(amb, [e])
    bs = minimal_central_projections(C)
    assert bs.block_dims == (2,)
    assert bs.mults == (2,)
    assert bs.verify() == []


def test_ideal_blocks_roundtrip(m2_plus_c2):
    S = frozenset({0})
    J = ideal_blocks(m2_plus_c2, S)
    assert blocks_of_ideal(m2_plus_c2, J) == S


def test_blocks_of_ideal_rejects_non_block_subspace(m2_plus_c2):
    amb = m2_plus_c2.ambient
    # The span of one off-diagonal matrix unit is not an ideal.
    from opalg.linalg import orthonormal_span
    bad = orthonormal_span(amb, [amb.matrix_unit(0, 1)])
    with pytest.raises(BlockStructureError):
        blocks_of_ideal(m2_plus_c2, bad)


def test_quotient_map(m2_plus_c2):
    corner, q = quotient_map(m2_plus_c2, {0})
    assert corner.dim == 2
    # q kills the M2 block and is the identity on the two scalar blocks.
    amb = m2_plus_c2.ambient
    assert np.linalg.norm(q(amb.matrix_unit(0, 1))) < 1e-10
    assert np.linalg.norm(q(amb.matrix_unit(2, 2))) == pytest.approx(1.0)


def test_annihilator_and_essential(m2_plus_c2):
    J = ideal_blocks(m2_plus_c2, {0})
    ann = annihilator(m2_plus_c2, J)
    assert ann.dim == 2
    assert not is_essential(m2_plus_c2, J)
    everything = ideal_blocks(m2_plus_c2, {0, 1, 2})
    assert is_essential(m2_plus_c2, everything)


def test_maximal_ideal(m2_plus_c2):
    two_blocks = ideal_blocks(m2_plus_c2, {0, 1})
    one_block = ideal_blocks(m2_plus_c2, {0})
    assert is_maximal_ideal(m2_plus_c2, two_blocks)
    assert not is_maximal_ideal(m2_plus_c2, one_block)


def test_blocks_of_a_doubled_diagonal_crossed_product():
    """Z/2 swapping points 0 and 3 of the diagonal of M4, over the cover
    a -> a (+) a: the full crossed product's center has dimension 5, and
    the block draw must reach all of its self-adjoint part (the Hermitian
    parts of a complex-orthonormal center basis spanned 4 real dimensions,
    and every resample failed)."""
    amb = Ambient((4,))
    span = orthonormal_span(amb, [amb.matrix_unit(i, i) for i in range(4)])
    A = OperatorAlgebra(AlgebraSpan(amb, span.basis, unital=True), name="D4")
    swap = np.eye(4, dtype=complex)[[3, 1, 2, 0]]
    ds = make_system(A, corpus.Z2, {0: np.eye(4, dtype=complex), 1: swap})
    cov = make_cover(A, Ambient((4, 4)),
                     [direct_sum(a, a) for a in A.span.basis])
    rep = verify_partial_recovery(ds, cov)
    assert rep.verified
    assert rep.partial_blocks == (2, 1, 1, 1, 1)


def _spoiled(bs, projections):
    return BlockStructure(parent=bs.parent, projections=projections,
                          block_dims=bs.block_dims, mults=bs.mults)


def test_verify_names_a_non_central_projection_set(m2_plus_c2):
    """Split the M2 block's unit into its two diagonal units: orthogonal
    idempotents summing to 1, but E11 does not commute with E12."""
    bs = minimal_central_projections(m2_plus_c2)
    amb = m2_plus_c2.ambient
    zs = np.array([amb.matrix_unit(0, 0), amb.matrix_unit(1, 1),
                   amb.matrix_unit(2, 2), amb.matrix_unit(3, 3)])
    assert _spoiled(bs, zs).verify() == ["projection not central"]


def test_verify_names_a_non_orthogonal_projection_set(m2_plus_c2):
    """Move the M2 block's unit onto the first scalar block's: still
    central and self-adjoint, but no longer orthogonal to it."""
    bs = minimal_central_projections(m2_plus_c2)
    zs = bs.projections.copy()
    i = bs.block_dims.index(2)
    j = next(k for k in range(bs.num_blocks) if k != i)
    zs[i] = zs[j]
    bad = _spoiled(bs, zs).verify()
    assert "projections not mutually orthogonal idempotents" in bad
    assert "projection not central" not in bad


def test_verify_at_a_one_row_budget(m2_plus_c2, monkeypatch):
    """With PRODUCT_BUDGET at one row, verify takes z_i z_j one i at a
    time: every stack it evaluates holds one row, a valid structure still
    verifies and both spoils are still named."""
    monkeypatch.setattr(linalg, "PRODUCT_BUDGET", 1)
    stacks = structure.product_stacks
    rows = []

    def recording(*pairs):
        for out in stacks(*pairs):
            rows.append(len(out[0]) // len(pairs[0][1]))
            yield out

    monkeypatch.setattr(structure, "product_stacks", recording)
    bs = minimal_central_projections(m2_plus_c2)
    rows.clear()
    assert bs.verify() == []
    assert rows and set(rows) == {1}
    zs = bs.projections.copy()
    zs[-1] = zs[0]
    bad = _spoiled(bs, zs).verify()
    assert "projections not mutually orthogonal idempotents" in bad
    assert "projection not central" not in bad
    amb = m2_plus_c2.ambient
    units = np.array([amb.matrix_unit(i, i) for i in range(4)])
    assert _spoiled(bs, units).verify() == ["projection not central"]
