import numpy as np
import pytest

from opalg.corpus import (a4_envelope, a4_inclusion_cover,
                          a4_schur_cover, a4_schur_cover_swapped,
                          a4_symmetrized_cover, t2_algebra, t2_corner_cover,
                          t2_diag_cover, t2_envelope, t2_inclusion_cover)
from opalg import cb
from opalg.cb import LinearMap
from opalg.covers import (CoverMorphism, MorphismAbsence,
                          NotCompletelyIsometric, NotHomomorphism,
                          envelope, equivalent, extension_violations,
                          induced_morphism, is_boundary,
                          join, leq, make_cover, meet, normalize_witness,
                          quotient_cover, shilov, verify_morphism)
from opalg.linalg import (Ambient, generate_algebra, graph_closure,
                          graph_obstruction)


class TestMakeCover:
    def test_rejects_non_homomorphism(self):
        A = t2_algebra()
        with pytest.raises(NotHomomorphism):
            make_cover(A, A.ambient, [b.T for b in A.span.basis])

    def test_rejects_non_isometric_embedding(self):
        A = t2_algebra()
        amb = Ambient((1, 1))
        imgs = [np.diag(np.diag(a)) for a in A.span.basis]
        with pytest.raises(NotCompletelyIsometric):
            make_cover(A, amb, imgs)

    def test_accepts_inclusion(self):
        A = t2_algebra()
        cov = make_cover(A, A.ambient, list(A.span.basis))
        assert cov.C.dim == 4


class TestGraphEngine:
    def test_graph_of_identity_has_no_obstruction(self):
        amb = Ambient((2,))
        pairs = [(amb.matrix_unit(i, j), amb.matrix_unit(i, j))
                 for i in range(2) for j in range(2)]
        G = graph_closure(amb, amb, pairs)
        assert graph_obstruction(amb, amb, G).dim == 0

    def test_obstructed_graph(self):
        # Pair the rank-one projection with a non-normal image; the closure
        # forces elements (0, y).
        amb = Ambient((2,))
        G = graph_closure(amb, amb, [(amb.matrix_unit(0, 0),
                                      amb.matrix_unit(0, 1))])
        assert graph_obstruction(amb, amb, G).dim > 0

    def test_extension_violations_names_the_pair_failure(self):
        amb = Ambient((2,))
        m2 = generate_algebra(amb, [amb.matrix_unit(i, j) for i in range(2)
                                    for j in range(2)],
                              self_adjoint=True, unital=True)
        ident = LinearMap(dom=m2, cod=amb, images=m2.basis)
        assert extension_violations(ident, m2, zip(m2.basis, m2.basis)) == []
        pairs = [(amb.matrix_unit(0, 0), amb.matrix_unit(1, 1))]
        assert extension_violations(ident, m2, pairs) == [
            "does not send x to y on every pair"]


class TestOrder:
    def test_schur_above_inclusion(self):
        m = induced_morphism(a4_schur_cover(), a4_inclusion_cover())
        assert isinstance(m, CoverMorphism)
        assert verify_morphism(m) == []
        assert m.kernel.dim == 22 - 16

    def test_inclusion_not_above_schur(self):
        m = induced_morphism(a4_inclusion_cover(), a4_schur_cover())
        assert isinstance(m, MorphismAbsence)
        assert m.obstruction_dim == 6
        w = normalize_witness(m.witness)
        assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_leq_and_equivalence(self):
        assert leq(a4_inclusion_cover(), a4_schur_cover())
        assert not leq(a4_schur_cover(), a4_inclusion_cover())
        assert equivalent(t2_envelope(), t2_inclusion_cover())
        assert not equivalent(t2_diag_cover(), t2_inclusion_cover())

    @pytest.mark.parametrize("upper, lower", [
        (a4_schur_cover, a4_inclusion_cover),
        (a4_symmetrized_cover, a4_schur_cover),
        (t2_diag_cover, t2_envelope)])
    def test_kernel_is_what_pi_kills(self, upper, lower):
        m = induced_morphism(upper(), lower())
        assert m.kernel.dim == m.source.C.dim - m.target.C.dim
        for k in m.kernel.basis:
            assert np.linalg.norm(m.pi(k)) < 1e-8
        assert m.kernel.verify() == []

    def test_symmetrized_above_both_schur_covers(self):
        c = a4_symmetrized_cover()
        for low in (a4_schur_cover(), a4_schur_cover_swapped()):
            m = induced_morphism(c, low)
            assert isinstance(m, CoverMorphism)
            assert m.kernel.dim == 28 - 22


class TestLattice:
    def test_join_dominates_factors(self):
        v = join(t2_diag_cover(), t2_corner_cover())
        assert leq(t2_diag_cover(), v)
        assert leq(t2_corner_cover(), v)

    def test_join_is_least_upper_bound(self):
        v = join(t2_diag_cover(), t2_corner_cover())
        # Any other upper bound (here: the join with an extra factor)
        # dominates v.
        w = join(v, t2_inclusion_cover())
        assert leq(v, w)

    def test_meet_is_dominated_by_factors(self):
        m = meet(t2_diag_cover(), t2_corner_cover())
        assert leq(m, t2_diag_cover())
        assert leq(m, t2_corner_cover())

    def test_meet_with_envelope_is_envelope(self):
        m = meet(t2_diag_cover(), t2_envelope())
        assert equivalent(m, t2_envelope())

    def test_join_commutes_up_to_equivalence(self):
        a, b = t2_diag_cover(), t2_corner_cover()
        assert equivalent(join(a, b), join(b, a))

    def test_join_idempotent(self):
        a = t2_diag_cover()
        assert equivalent(join(a, a), a)


class TestBoundary:
    def test_shilov_of_schur_cover(self):
        S = shilov(a4_schur_cover())
        bs = a4_schur_cover().structure()
        assert bs.block_dims == (4, 2, 1, 1)
        assert sorted(bs.block_dims[i] for i in S) == [1, 1, 2]

    def test_schur_envelope_is_m4(self):
        env = envelope(a4_schur_cover())
        assert env.C.dim == 16
        assert equivalent(env, a4_envelope())

    def test_envelope_has_empty_shilov(self):
        assert shilov(a4_envelope()) == frozenset()
        assert shilov(t2_envelope()) == frozenset()

    def test_shilov_of_t2_diag(self):
        cov = t2_diag_cover()
        S = shilov(cov)
        bs = cov.structure()
        assert bs.block_dims == (2, 1, 1)
        assert sorted(bs.block_dims[i] for i in S) == [1, 1]

    def test_is_boundary_rejects_the_big_block(self):
        cov = t2_diag_cover()
        bs = cov.structure()
        big = bs.block_dims.index(2)
        assert not is_boundary(cov, {big})

    def test_quotient_cover_by_shilov(self):
        cov = t2_diag_cover()
        q = quotient_cover(cov, shilov(cov))
        assert q.C.dim == 4
        assert equivalent(q, t2_envelope())

    def test_envelope_is_least(self):
        for cov in (t2_diag_cover(), t2_corner_cover(),
                    t2_inclusion_cover()):
            assert leq(t2_envelope(), cov)

    @pytest.mark.parametrize("builder, want", [
        (a4_schur_cover, [1, 1, 2]), (t2_diag_cover, [1, 1])])
    def test_shilov_of_a_built_cover_calls_no_oracle(self, builder, want,
                                                     monkeypatch):
        # Every boundary test is a quotient after the certified embedding
        # (composition) with a *-homomorphism inverse, or not injective.
        cov = builder.__wrapped__()  # a fresh cover, Shilov data not cached
        calls = []
        for name in ("falsifier_search", "choi_feasibility"):
            monkeypatch.setattr(cb, name,
                                lambda *a, name=name, **k: calls.append(name))
        S = shilov(cov)
        assert calls == []
        assert sorted(cov.structure().block_dims[i] for i in S) == want


def test_cover_morphism_composes_with_embedding():
    m = induced_morphism(t2_diag_cover(), t2_envelope())
    A = t2_algebra()
    for b in A.span.basis:
        lhs = m.pi(t2_diag_cover().j(b))
        rhs = t2_envelope().j(b)
        assert np.allclose(lhs, rhs, atol=1e-8)
