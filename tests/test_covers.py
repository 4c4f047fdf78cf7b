import contextlib
import itertools
import types

import numpy as np
import pytest

from opalg.corpus import (a4_envelope, a4_inclusion_cover,
                          a4_schur_cover, a4_schur_cover_swapped,
                          a4_symmetrized_cover, a4_system, t2_algebra,
                          t2_corner_cover, t2_diag_cover, t2_envelope,
                          t2_inclusion_cover, t2_system)
from opalg import cb, corpus, covers, linalg
from opalg.cb import star_hom_violations
from opalg.covers import (CoverError, CoverMorphism, MorphismAbsence,
                          NotCompletelyIsometric, NotHomomorphism,
                          envelope, equivalent, induced_morphism,
                          is_boundary, join, leq, make_cover, meet,
                          normalize_witness, quotient_cover, shilov)
from opalg.crossed import cstar_crossed
from opalg.dynamics import ADMISSIBLE, NOT_ADMISSIBLE, admissible
from opalg.linalg import (RANK_TOL, AlgebraSpan, Ambient, graph_closure,
                          graph_obstruction)


def _fresh(builder):
    """A freshly built corpus object, with nothing stored on it yet."""
    corpus.clear_caches()
    return builder()


@contextlib.contextmanager
def _recording_rank_gaps():
    """Record, over the null spaces that linalg.generate_algebra takes in the
    block, the largest dropped and the smallest kept singular value, each
    relative to the cutoff's scale max(1, largest singular value)."""
    gaps = types.SimpleNamespace(dropped=0.0, kept=np.inf)
    null_space, generate = linalg.null_space, linalg.generate_algebra
    inside = []

    def recording_null_space(M, left=False):
        if inside:
            s = np.linalg.svd(M, compute_uv=False)
            rel = s / np.maximum(1.0, s[..., :1])
            gaps.dropped = max(gaps.dropped,
                               rel[rel <= RANK_TOL].max(initial=0.0))
            gaps.kept = min(gaps.kept, rel[rel > RANK_TOL].min(initial=np.inf))
        return null_space(M, left)

    def generating(*args, **kwargs):
        inside.append(True)
        try:
            return generate(*args, **kwargs)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "null_space", recording_null_space)
        mp.setattr(linalg, "generate_algebra", generating)
        yield gaps


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

    def test_rejects_a_generated_c_that_is_not_an_algebra(self,
                                                          monkeypatch):
        # span{E12, E21} is closed under the adjoint but not under
        # multiplication (E12 E21 = E11): a closure gone wrong.
        A = t2_algebra()
        amb = A.ambient
        broken = AlgebraSpan(amb, np.array([amb.matrix_unit(0, 1),
                                            amb.matrix_unit(1, 0)]),
                             self_adjoint=True, unital=True)
        monkeypatch.setattr(covers, "generate_algebra",
                            lambda *args, **kwargs: broken)
        with pytest.raises(CoverError, match="not closed under "
                                             "multiplication"):
            make_cover(A, amb, list(A.span.basis))

    def test_quotient_of_the_symmetrized_cover_is_a_cstar_algebra(self):
        cov = _fresh(a4_symmetrized_cover)
        assert cov.structure().block_dims == (4, 2, 2, 1, 1, 1, 1)
        q = quotient_cover(cov, {3, 4, 5})
        assert q.C.dim == 25
        assert q.C.verify() == []

    def test_every_quotient_of_the_symmetrized_cover(self):
        # The 64 covers between the symmetrized cover and its envelope.
        # Swap-admissible exactly when S is a union of swapped pairs of
        # blocks.  Every rank decision of the graph closures has an O(1)
        # gap: dropped singular values are round-off, kept ones are not.
        cov = _fresh(a4_symmetrized_cover)
        dims = cov.structure().block_dims
        assert dims == (4, 2, 2, 1, 1, 1, 1)
        assert shilov(cov) == frozenset(range(1, 7))
        want = {frozenset(S) for S in [(), (1, 2), (3, 5), (4, 6),
                                       (1, 2, 3, 5), (1, 2, 4, 6),
                                       (3, 4, 5, 6), range(1, 7)]}
        for r in range(7):
            for S in map(frozenset, itertools.combinations(range(1, 7), r)):
                q = quotient_cover(cov, S)
                assert q.C.dim == sum(d * d for i, d in enumerate(dims)
                                      if i not in S), S
                assert q.C.verify() == [], S
                with _recording_rank_gaps() as gaps:
                    rep = admissible(a4_system(), q)
                assert (rep.verdict == ADMISSIBLE) == (S in want), S
                assert gaps.dropped <= 1e-12 and 1e-3 <= gaps.kept <= 1, S

    def test_swap_closure_on_the_quotient_by_3_4_6(self):
        # The spinning closure built 415 dimensions here, more than the
        # ambient's 90, and admissibility ended Undecided.
        cov = _fresh(a4_symmetrized_cover)
        q = quotient_cover(cov, {3, 4, 6})
        ds = a4_system()
        pairs = [(q.j(a), q.j(ds.act(1, a))) for a in ds.A.span.basis]
        G = graph_closure(q.ambient, q.ambient, pairs)
        assert G.dim == 26
        assert G.verify() == []
        assert admissible(ds, q).verdict == NOT_ADMISSIBLE

    def test_quotients_envelopes_and_crossed_products_generate_nothing(
            self, monkeypatch):
        # Their algebras are the corner q(C) and the span of the
        # hat(c) lambda_s; the closure is left to new embeddings and
        # graph closures.
        cov = _fresh(t2_diag_cover)
        ds = t2_system()
        rep = admissible(ds, cov)
        S = shilov(cov)

        def no_closure(*args, **kwargs):
            raise AssertionError("closure generated")

        monkeypatch.setattr(linalg, "generate_algebra", no_closure)
        monkeypatch.setattr(covers, "generate_algebra", no_closure)
        assert quotient_cover(cov, S).C.dim == 4
        assert envelope(cov).C.dim == 4
        cp = cstar_crossed(cov.C, ds.G, rep.extension)
        assert cp.algebra.dim == cov.C.dim * ds.G.order
        assert cp.algebra.verify() == []


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

    @pytest.mark.parametrize("bad", ["too big", "off the blocks"])
    def test_graph_map_refuses_a_closure_that_is_not_an_algebra(
            self, bad, monkeypatch):
        # Ambient((1,)) (+) Ambient((1,)) holds at most 2 dimensions, all
        # on the diagonal; a closure gone wrong can exceed either bound.
        amb = Ambient((1,))
        big = Ambient((2,))
        E = big.matrix_unit
        basis = [E(0, 0), E(1, 1), (E(0, 0) + E(1, 1)) / np.sqrt(2)] \
            if bad == "too big" else [E(0, 1)]
        monkeypatch.setattr(cb, "graph_closure", lambda *args, **kwargs:
                            AlgebraSpan(big, np.array(basis)))
        with pytest.raises(cb.Undecided, match=r"ambient \(1, 1\)"):
            cb.graph_map(amb, amb, [(amb.identity(), amb.identity())])


class TestOrder:
    def test_schur_above_inclusion(self):
        m = induced_morphism(a4_schur_cover(), a4_inclusion_cover())
        assert isinstance(m, CoverMorphism)
        assert star_hom_violations(
            m.pi, m.target.C, unital=True,
            pairs=(m.source.j.images, m.target.j.images)) == []
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

    def test_join_of_three_takes_the_name(self):
        covs = (t2_diag_cover(), t2_corner_cover(), t2_inclusion_cover())
        assert join(*covs, name="x").name == "x"
        assert join(*covs).name == \
            "join(join(t2-diag,t2-corner),t2-inclusion)"


class TestJoinProjections:
    """The induced morphism of a join onto one of its summands is the
    compression to that summand's range, verified like any other."""

    JOINS = [(lambda: (t2_diag_cover(), t2_corner_cover()), 0),
             (lambda: (t2_diag_cover(), t2_corner_cover()), 1),
             (lambda: (a4_schur_cover(), a4_schur_cover_swapped()), 0),
             (lambda: (a4_schur_cover(), a4_schur_cover_swapped()), 1)]

    @pytest.mark.parametrize("summands, which", JOINS)
    def test_is_the_closure_map_without_a_closure(self, summands, which,
                                                  monkeypatch):
        parts = summands()
        v, low = join(*parts), parts[which]
        ref, _ = cb.graph_map(v.ambient, low.ambient,
                              zip(v.j.images, low.j.images), v.C)

        def refuse(*args, **kwargs):
            raise AssertionError("graph_map called")

        monkeypatch.setattr(covers, "graph_map", refuse)
        m = induced_morphism(v, low)
        assert isinstance(m, CoverMorphism)
        assert np.abs(m.pi.images - ref.images).max() < 1e-12
        assert m.kernel.dim == len(ref.kernel())
        assert m.kernel.verify() == []

    def test_a_twin_of_a_summand_takes_the_closure(self, monkeypatch):
        c1 = t2_diag_cover()
        v = join(c1, t2_corner_cover())
        twin = make_cover(c1.A, c1.ambient, c1.j.images, name=c1.name,
                          verify=False)
        calls = []
        graph_map = covers.graph_map

        def counting(*args, **kwargs):
            calls.append(args)
            return graph_map(*args, **kwargs)

        monkeypatch.setattr(covers, "graph_map", counting)
        m = induced_morphism(v, twin)
        assert len(calls) == 1
        assert np.abs(m.pi.images - induced_morphism(v, c1).pi.images) \
            .max() < 1e-12
        assert len(calls) == 1

    def test_a_join_of_nothing_is_refused(self):
        with pytest.raises(ValueError, match="at least one cover"):
            join()


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
        cov = _fresh(builder)  # Shilov data not cached
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
