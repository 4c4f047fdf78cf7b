import numpy as np
import pytest

from opalg.corpus import (a4_envelope, a4_schur_cover, a4_system, t2_algebra,
                          t2_diag_cover, t2_system)
from opalg import cb, corpus, covers, crossed, dynamics, partialact
from opalg.cb import LinearMap
from opalg.linalg import (AlgebraSpan, Ambient, direct_sum,
                          orthonormal_span)
from opalg.covers import (OperatorAlgebra, envelope, inclusion_cover,
                          make_cover, shilov)
from opalg.dynamics import (NOT_ADMISSIBLE, FiniteGroup, admissible,
                            make_system, trivial_system)
from opalg.partialact import (build_partial_action, partial_crossed,
                              verify_partial_recovery)
from opalg.structure import minimal_central_projections


@pytest.fixture(scope="module")
def schur_spec():
    return build_partial_action(a4_system(), a4_schur_cover())


class TestDecompose:
    def test_schur_cover_split(self, schur_spec):
        cov = schur_spec.cover
        env = envelope(cov)
        # q maps C onto the envelope's M4 summand, carrying j to its j.
        assert schur_spec.q.cod == env.ambient
        assert np.allclose(schur_spec.q(cov.j.images), env.j.images,
                           atol=1e-10)

    def test_split_maps_reassemble_j(self, schur_spec):
        cov = schur_spec.cover
        # x -> q(x) (+) r(x) is injective on C: 16 + 6 = 22.
        parts = [m(cov.C.basis).reshape(cov.C.dim, -1)
                 for m in (schur_spec.q, schur_spec.r)]
        assert [np.linalg.matrix_rank(x) for x in parts] == [16, 6]
        assert np.linalg.matrix_rank(np.concatenate(parts, axis=1)) == 22

    def test_envelope_decomposes_trivially(self):
        env = a4_envelope()
        spec = build_partial_action(a4_system(), env)
        assert shilov(env) == frozenset()
        assert spec.r is None
        assert np.allclose(spec.q(env.C.basis), env.C.basis, atol=1e-12)

    def test_split_is_read_off_the_shilov_decision(self, monkeypatch):
        """Once the Shilov set is known, building the partial action asks
        no cb oracle.  The covers are rebuilt, so nothing stored on them
        answers for the envelope's admissibility."""
        corpus.clear_caches()
        cov, ds = a4_schur_cover(), a4_system()
        shilov(cov)

        def refuse(phi):
            raise AssertionError("build_partial_action called a cb oracle")

        for module in (cb, covers, crossed, dynamics, partialact):
            for name in ("ci_check", "cc_check"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        spec = build_partial_action(ds, cov)
        assert shilov(cov) == frozenset({1, 2, 3})
        assert spec.r is not None


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
            q = pc.spec.q
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


def t2_sum_algebra():
    """T2 (+) T2, block-diagonal in M4; its envelope is M2 (+) M2."""
    amb = Ambient((4,))
    span = orthonormal_span(amb, [amb.matrix_unit(i, j) for i, j in (
        (0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (2, 3))])
    return OperatorAlgebra(AlgebraSpan(amb, span.basis, unital=True),
                           name="T2+T2")


def t2_sum_covers(A):
    """a (+) diag(a), a (+) a11 and a (+) a11 (+) a33."""
    def cover(ambient, tail):
        return make_cover(A, Ambient(ambient),
                          [direct_sum(a, *tail(a)) for a in A.span.basis])

    return {"diag": cover((4, 4), lambda a: [np.diag(np.diag(a))]),
            "a11": cover((4, 1), lambda a: [a[:1, :1]]),
            "a11+a33": cover((4, 1, 1), lambda a: [a[:1, :1], a[2:3, 2:3]])}


def t2_sum_systems(A):
    """Z/2 acting by the swap of the two summands or by diag(1,-1,1,-1)."""
    G = FiniteGroup.cyclic(2)
    one, zero = np.eye(2), np.zeros((2, 2))
    units = {"swap": np.block([[zero, one], [one, zero]]),
             "sign": np.diag([1.0, -1.0, 1.0, -1.0])}
    return {name: make_system(A, G, {0: np.eye(4, dtype=complex),
                                     1: u.astype(complex)})
            for name, u in units.items()}


@pytest.fixture(scope="module")
def t2_sum():
    A = t2_sum_algebra()
    return t2_sum_covers(A), t2_sum_systems(A)


class TestRecoveryBeyondASimpleEnvelope:
    """Covers whose envelope has more than one block, and whose Shilov
    ideal is therefore not maximal, recover A x G too."""

    @pytest.mark.parametrize("cover,system,partial,crossed_", [
        ("diag", "swap", (4, 1, 1, 1, 1), (4,)),
        ("diag", "sign", (2, 2, 2, 2, 1, 1, 1, 1), (2, 2, 2, 2)),
        ("a11", "swap", (4, 1), (4,)),
        ("a11", "sign", (2, 2, 2, 2, 1), (2, 2, 2, 2)),
        ("a11+a33", "swap", (4, 1, 1), (4,)),
        ("a11+a33", "sign", (2, 2, 2, 2, 1, 1), (2, 2, 2, 2)),
    ])
    def test_t2_sum_recovery(self, t2_sum, cover, system, partial, crossed_):
        covs, systems = t2_sum
        cov = covs[cover]
        assert envelope(cov).structure().block_dims == (2, 2)
        rep = verify_partial_recovery(systems[system], cov)
        assert rep.verified
        assert rep.subalgebra_dim == 12
        assert rep.partial_blocks == partial
        assert rep.crossed_blocks == crossed_
        assert rep.residual < 1e-6

    def test_swap_on_a11_is_not_admissible(self, t2_sum):
        """The case the paper's claim is about: no global extension of the
        action to the cover, and yet recovery above."""
        covs, systems = t2_sum
        assert admissible(systems["swap"], covs["a11"]).verdict \
            == NOT_ADMISSIBLE

    @pytest.mark.parametrize("action", ["swap", "trivial"])
    def test_c2_recovery(self, action):
        # C^2 is its own envelope with two blocks and a zero Shilov ideal.
        amb = Ambient((1, 1))
        span = AlgebraSpan(amb, orthonormal_span(
            amb, [amb.matrix_unit(0, 0), amb.matrix_unit(1, 1)]).basis,
            self_adjoint=True, unital=True)
        A = OperatorAlgebra(span, name="C2")
        G = FiniteGroup.cyclic(2)
        ds = trivial_system(A, G) if action == "trivial" else make_system(
            A, G, {0: np.eye(2, dtype=complex),
                   1: np.array([[0, 1], [1, 0]], dtype=complex)})
        cov = inclusion_cover(A)
        assert shilov(cov) == frozenset()
        rep = verify_partial_recovery(ds, cov)
        assert rep.verified
        assert rep.subalgebra_dim == 4
