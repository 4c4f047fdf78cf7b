import numpy as np
import pytest

from opalg.corpus import (a4_envelope, a4_schur_cover, a4_system, t2_algebra,
                          t2_diag_cover, t2_system)
from opalg import cb, corpus, covers, partialact
from opalg.cb import LinearMap
from opalg.linalg import AlgebraSpan, Ambient, orthonormal_span
from opalg.covers import OperatorAlgebra, envelope, make_cover, shilov
from opalg.dynamics import FiniteGroup, trivial_system
from opalg.partialact import (ShilovNotMaximal, build_partial_action,
                              decompose, partial_crossed,
                              verify_partial_recovery)
from opalg.structure import minimal_central_projections


@pytest.fixture(scope="module")
def schur_spec():
    return build_partial_action(a4_system(), a4_schur_cover())


class TestDecompose:
    def test_schur_cover_split(self):
        cov = a4_schur_cover()
        dec = decompose(cov)
        env = envelope(cov)
        # q maps C onto the envelope's M4 summand, carrying j to its j.
        assert dec.q.cod == env.ambient
        assert np.allclose(dec.q(cov.j.images), env.j.images, atol=1e-10)

    def test_split_maps_reassemble_j(self):
        cov = a4_schur_cover()
        dec = decompose(cov)
        # x -> q(x) (+) r(x) is injective on C: 16 + 6 = 22.
        parts = [m(cov.C.basis).reshape(cov.C.dim, -1) for m in (dec.q, dec.r)]
        assert [np.linalg.matrix_rank(x) for x in parts] == [16, 6]
        assert np.linalg.matrix_rank(np.concatenate(parts, axis=1)) == 22

    def test_envelope_decomposes_trivially(self):
        env = a4_envelope()
        dec = decompose(env)
        assert dec.shilov_blocks == frozenset()
        assert dec.r is None
        assert np.allclose(dec.q(env.C.basis), env.C.basis, atol=1e-12)

    def test_split_is_read_off_the_shilov_decision(self, monkeypatch):
        """Once the Shilov set is known, decompose asks no cb oracle."""
        cov = a4_schur_cover()
        shilov(cov)

        def refuse(phi):
            raise AssertionError("decompose called a cb oracle")

        for module in (cb, covers, partialact):
            for name in ("ci_check", "cc_check"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert decompose(cov).shilov_blocks == frozenset({1, 2, 3})

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
        env = schur_spec.envelope
        assert env.C.dim == 16
        ds = a4_system()
        for s, beta in enumerate(schur_spec.betas):
            # beta_s matches the action on the envelope's copy of A.
            for a in ds.A.span.basis:
                assert np.allclose(beta(env.j(a)), env.j(ds.act(s, a)),
                                   atol=1e-8)

    def test_theta_inverse_law(self, schur_spec):
        G = schur_spec.ds.G
        betas = schur_spec.betas
        basis = schur_spec.envelope.C.basis
        for s in range(G.order):
            for t in range(G.order):
                assert np.allclose(betas[s](betas[t](basis)),
                                   betas[G.mul(s, t)](basis), atol=1e-8)

    def test_graph_closures_lie_in_the_envelope(self, monkeypatch):
        """The corner action is the envelope's extension: the action's graph
        closures are taken in the envelope's ambient, not the cover's.  The
        covers are rebuilt, so no stored admissibility report skips them."""
        corpus.clear_caches()
        cov, ds = a4_schur_cover(), a4_system()
        env = envelope(cov)
        seen, closure = [], cb.graph_closure

        def recording(amb1, amb2, pairs, unital=True):
            seen.append((amb1, amb2))
            return closure(amb1, amb2, pairs, unital=unital)

        monkeypatch.setattr(cb, "graph_closure", recording)
        build_partial_action(ds, cov)
        actions = [pair for pair in seen if pair[0] == pair[1]]
        assert actions
        assert all(pair == (env.ambient, env.ambient) for pair in actions)
        assert (cov.ambient, cov.ambient) not in seen


class TestPartialCrossed:
    def test_gamma_model_structure(self, schur_spec):
        pc = partial_crossed(schur_spec)
        bs = minimal_central_projections(pc.algebra)
        assert sorted(bs.block_dims, reverse=True) == [4, 4, 2, 1, 1]
        assert pc.algebra.dim == 38
        assert pc.convolution_residual < 1e-8

    def test_convolution_residual_matches_the_pairwise_law(self, schur_spec):
        """The stacked residual equals the law checked one (x, y) pair at a
        time, also on a model whose gamma_s is broken.  Away from the
        identity fiber the domains are the envelope's C, which q carries the
        identity fiber's C into."""
        def pairwise(pc):
            G, betas = pc.spec.ds.G, pc.spec.betas
            q = pc.spec.decomposition.q
            e, res = G.identity, 0.0
            for s in range(G.order):
                for t in range(G.order):
                    st = G.mul(s, t)
                    for x in pc.spec.domain(s).basis:
                        for y in pc.spec.domain(t).basis:
                            if s == e and t == e:
                                want = pc.gamma_e(x @ y)
                            else:
                                xe = q(x) if s == e else betas[G.inv(s)](x)
                                prod = xe @ (q(y) if t == e else y)
                                if s != e:
                                    prod = betas[s](prod)
                                want = pc.gamma_s[st](prod)
                            res = max(res, float(np.linalg.norm(
                                pc.gamma(s, x) @ pc.gamma(t, y) - want)))
            return res

        pc = partial_crossed(schur_spec)
        assert partialact._convolution_residual(pc) == pytest.approx(
            pairwise(pc), abs=1e-12)
        s = next(s for s in range(pc.spec.ds.G.order)
                 if s != pc.spec.ds.G.identity)
        pc.gamma_s[s] = LinearMap(dom=pc.gamma_s[s].dom, cod=pc.ambient,
                                  images=2 * pc.gamma_s[s].images)
        broken = partialact._convolution_residual(pc)
        assert broken > 1e-3
        assert broken == pytest.approx(pairwise(pc), rel=1e-12)

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
