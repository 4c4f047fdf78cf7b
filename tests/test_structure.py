import numpy as np
import pytest

from opalg.covers import quotient_map
from opalg.linalg import Ambient, generate_algebra
from opalg.structure import (BlockStructureError, annihilator,
                             blocks_of_ideal, center, ideal_blocks,
                             is_essential, is_maximal_ideal,
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
