from dataclasses import replace

import numpy as np
import pytest

from opalg import crossed
from opalg.corpus import (a4_envelope, a4_schur_cover, a4_symmetrized_cover,
                          a4_system, a4_trivial_system, t2_diag_cover,
                          t2_inclusion_cover, t2_system, t2_trivial_system)
from opalg.crossed import (NotAdmissibleCover, crossed_equivalent,
                           full_crossed, relative_crossed,
                           trivialization_iso)
from opalg.dynamics import inner_in_itself
from opalg.linalg import diagonal, operator_norm
from opalg.structure import minimal_central_projections
from opalg.suite import paper_suite


@pytest.fixture(scope="module")
def swap_crossed():
    return full_crossed(a4_system())


@pytest.fixture(scope="module")
def trivial_crossed():
    return full_crossed(a4_trivial_system())


class TestConstruction:
    def test_cstar_dimension(self, swap_crossed):
        assert swap_crossed.algebra.dim == 32

    def test_cstar_blocks(self, swap_crossed):
        bs = minimal_central_projections(swap_crossed.algebra)
        assert bs.block_dims == (4, 4)

    def test_subalgebra_dimension(self, swap_crossed):
        assert swap_crossed.subalgebra.dim == 16

    def test_covariance(self, swap_crossed):
        assert swap_crossed.covariance_residual() < 1e-9

    @pytest.mark.parametrize("spoil", [False, True])
    def test_covariance_matches_the_per_element_loop(self, swap_crossed,
                                                     spoil):
        cp = swap_crossed
        if spoil:  # lambda_e and lambda_s swapped: covariance fails
            cp = replace(cp, lambdas=cp.lambdas[::-1])
        ref = max(float(np.linalg.norm(
            ls @ cp.hat(c) @ ls.conj().T - cp.hat(cp.betas[s](c))))
            for s, ls in enumerate(cp.lambdas) for c in cp.base.basis)
        assert cp.covariance_residual() == pytest.approx(ref, rel=0,
                                                         abs=1e-12)
        assert (ref > 0.1) == spoil

    def test_lambdas_are_unitary(self, swap_crossed):
        for lam in swap_crossed.lambdas:
            assert np.allclose(lam @ lam.conj().T, np.eye(lam.shape[0]))

    def test_hat_of_j_is_isometric_on_generators(self, swap_crossed):
        ds = a4_system()
        for a in ds.A.span.basis:
            img = swap_crossed.hat(swap_crossed.cover.j(a))
            assert operator_norm(img) == pytest.approx(
                operator_norm(a4_envelope().j(a)), abs=1e-9)


class TestDiagonalComparison:
    def test_swap_diagonal_blocks(self, swap_crossed):
        D = diagonal(swap_crossed.subalgebra)
        assert D.dim == 8
        bs = minimal_central_projections(D)
        assert bs.block_dims == (2, 2)

    def test_trivial_action_diagonal_is_abelian(self, trivial_crossed):
        D = diagonal(trivial_crossed.subalgebra)
        assert D.dim == 8
        bs = minimal_central_projections(D)
        assert bs.block_dims == (1,) * 8

    def test_crossed_products_inequivalent(self, swap_crossed,
                                           trivial_crossed):
        assert not crossed_equivalent(swap_crossed, trivial_crossed)


class TestRelative:
    def test_rejects_non_admissible_cover(self):
        with pytest.raises(NotAdmissibleCover) as exc:
            relative_crossed(a4_system(), a4_schur_cover())
        assert exc.value.witness is not None

    def test_relative_over_admissible_cover_agrees(self, swap_crossed):
        # Invariant agreement with the envelope-relative crossed product;
        # the full isomorphism check at this size is out of test budget.
        rel = relative_crossed(a4_system(), a4_symmetrized_cover())
        assert rel.subalgebra.dim == swap_crossed.subalgebra.dim
        assert rel.covariance_residual() < 1e-9
        D = diagonal(rel.subalgebra)
        bs = minimal_central_projections(D)
        assert bs.block_dims == (2, 2)

    def test_t2_cover_independence(self):
        over_env = full_crossed(t2_system())
        over_diag = relative_crossed(t2_system(), t2_diag_cover())
        assert over_env.subalgebra.dim == 6
        assert crossed_equivalent(over_diag, over_env)


class TestTrivialization:
    def test_t2_inclusion(self):
        ds = t2_system()
        rep = inner_in_itself(ds)
        assert rep.found and rep.exact_group_law
        phi, cp_a, cp_i = trivialization_iso(ds, t2_inclusion_cover(), rep)
        assert cp_a.subalgebra.dim == cp_i.subalgebra.dim == 6
        # phi is isometric on a sample element.
        x = cp_a.subalgebra.basis[3]
        assert operator_norm(phi(x)) == pytest.approx(operator_norm(x),
                                                      abs=1e-8)

    def test_t2_diag_cover(self):
        ds = t2_system()
        rep = inner_in_itself(ds)
        phi, cp_a, cp_i = trivialization_iso(ds, t2_diag_cover(), rep)
        assert cp_a.subalgebra.dim == cp_i.subalgebra.dim

    def test_iota_crossed_matches_trivial_system(self):
        ds = t2_system()
        rep = inner_in_itself(ds)
        _, _, cp_i = trivialization_iso(ds, t2_inclusion_cover(), rep)
        cp_trivial = full_crossed(t2_trivial_system())
        assert crossed_equivalent(cp_i, cp_trivial)


def test_full_crossed_product_is_built_once_per_system(monkeypatch):
    """full_crossed keeps the product on its system (a twin system builds
    its own), so one suite, which asks for the full crossed products of
    three systems six times, builds each once: 3 builds beside the 4 of
    the trivialization checks, where 10 were made when nothing was kept."""
    builds, build = [], crossed.relative_crossed

    def counting(ds, cover):
        builds.append(ds)
        return build(ds, cover)

    monkeypatch.setattr(crossed, "relative_crossed", counting)
    ds = a4_system()
    assert full_crossed(ds) is full_crossed(ds)
    assert full_crossed(replace(ds)) is not full_crossed(ds)
    builds.clear()
    paper_suite()
    assert len(builds) == 7
