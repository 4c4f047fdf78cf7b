import numpy as np
import pytest

from opalg.corpus import (a4_envelope, a4_schur_cover, a4_system, t2_algebra,
                          t2_diag_cover, t2_system)
from opalg import partialact
from opalg.cb import LinearMap
from opalg.linalg import AlgebraSpan, Ambient, orthonormal_span
from opalg.covers import OperatorAlgebra, make_cover
from opalg.dynamics import FiniteGroup, SystemError_, trivial_system
from opalg.partialact import (ShilovNotMaximal, build_partial_action,
                              decompose, partial_crossed,
                              verify_partial_recovery)
from opalg.structure import minimal_central_projections


@pytest.fixture(scope="module")
def schur_spec():
    return build_partial_action(a4_system(), a4_schur_cover())


class TestDecompose:
    def test_schur_cover_split(self):
        dec = decompose(a4_schur_cover())
        # The annihilator unit of the Shilov ideal is the M4 summand.
        want = np.zeros((8, 8), dtype=complex)
        want[:4, :4] = np.eye(4)
        assert np.allclose(dec.p, want)
        assert not dec.shilov_is_essential

    def test_split_maps_reassemble_j(self):
        dec = decompose(a4_schur_cover())
        cov = a4_schur_cover()
        for a in cov.A.span.basis:
            assert np.allclose(dec.j1(a) + dec.j2(a), cov.j(a), atol=1e-10)

    def test_envelope_decomposes_trivially(self):
        dec = decompose(a4_envelope())
        assert np.allclose(dec.p, np.eye(4))
        assert dec.shilov_blocks == frozenset()

    def test_non_maximal_shilov_raises(self):
        # C^2 is its own envelope with two blocks, so the Shilov ideal
        # (zero) is not maximal.
        amb = Ambient((1, 1))
        span = AlgebraSpan(amb, orthonormal_span(
            amb, [amb.matrix_unit(0, 0), amb.matrix_unit(1, 1)]).basis,
            self_adjoint=True, unital=True)
        A = OperatorAlgebra(span, name="C2")
        cov = make_cover(A, amb, list(span.basis), verify=False)
        with pytest.raises(ShilovNotMaximal):
            decompose(cov)


class TestPartialAction:
    def test_corner_and_thetas(self, schur_spec):
        assert schur_spec.corner.dim == 16
        ds = a4_system()
        e = ds.G.identity
        for s, th in enumerate(schur_spec.thetas):
            if s == e:
                continue
            # theta_s matches the action on the embedded copy of A.
            p = schur_spec.decomposition.p
            cov = schur_spec.cover
            for a in ds.A.span.basis:
                got = th(p @ cov.j(a))
                want = p @ cov.j(ds.act(s, a))
                assert np.allclose(got, want, atol=1e-8)

    def test_corner_maps_are_checked_against_their_pairs(self, monkeypatch):
        # Read the identity off every graph: a *-automorphism of the corner
        # obeying the group law, but it does not carry the swap.
        monkeypatch.setattr(
            partialact, "graph_map",
            lambda amb1, amb2, pairs, dom, unital: (
                LinearMap(dom=dom, cod=amb2, images=dom.basis), None))
        with pytest.raises(SystemError_, match="theta_1 does not send"):
            build_partial_action(a4_system(), a4_schur_cover())

    def test_theta_inverse_law(self, schur_spec):
        G = schur_spec.ds.G
        for s in range(G.order):
            if s == G.identity:
                continue
            th, thinv = schur_spec.thetas[s], schur_spec.thetas[G.inv(s)]
            for x in schur_spec.corner.basis:
                assert np.allclose(thinv(th(x)), x, atol=1e-8)


class TestPartialCrossed:
    def test_gamma_model_structure(self, schur_spec):
        pc = partial_crossed(schur_spec)
        bs = minimal_central_projections(pc.algebra)
        assert sorted(bs.block_dims, reverse=True) == [4, 4, 2, 1, 1]
        assert pc.algebra.dim == 38
        assert pc.convolution_residual < 1e-8

    def test_gamma_e_is_injective_on_c(self, schur_spec):
        pc = partial_crossed(schur_spec)
        assert pc.gamma_e.is_injective()

    def test_envelope_partial_crossed_is_full(self):
        spec = build_partial_action(a4_system(), a4_envelope())
        pc = partial_crossed(spec)
        bs = minimal_central_projections(pc.algebra)
        assert bs.block_dims == (4, 4)


class TestRecovery:
    def test_a4_schur_recovery(self):
        rep = verify_partial_recovery(a4_system(), a4_schur_cover())
        assert rep.verified
        assert rep.subalgebra_dim == 16
        assert tuple(sorted(rep.partial_blocks, reverse=True)) \
            == (4, 4, 2, 1, 1)
        assert rep.residual < 1e-6

    def test_t2_diag_recovery(self):
        rep = verify_partial_recovery(t2_system(), t2_diag_cover())
        assert rep.verified
        assert rep.subalgebra_dim == 6
        assert sorted(rep.partial_blocks, reverse=True) == [2, 2, 1, 1]

    def test_trivial_action_recovery(self):
        rep = verify_partial_recovery(trivial_system(t2_algebra(),
                                                     FiniteGroup.cyclic(2)),
                                      t2_diag_cover())
        assert rep.verified
