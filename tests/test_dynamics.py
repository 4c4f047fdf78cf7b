import dataclasses

import numpy as np
import pytest

from opalg.corpus import (Z2, a4_envelope, a4_inclusion_cover,
                          a4_schur_cover, a4_swap_unitary,
                          a4_symmetrized_cover, a4_system,
                          a4_trivial_system, t2_algebra, t2_diag_cover,
                          t2_envelope, t2_system)
from opalg import corpus, dynamics
from opalg.cb import LinearMap
from opalg.covers import envelope, induced_morphism
from opalg.crossed import full_crossed
from opalg.dynamics import (ADMISSIBLE, NOT_ADMISSIBLE, DynamicalSystem,
                            FiniteGroup, GroupError, SystemError_, admissible,
                            inner_in_itself, invariant_kernel_check,
                            locally_inner, make_system, trivial_system)
from opalg.suite import paper_suite


class TestFiniteGroup:
    def test_cyclic_group(self):
        G = FiniteGroup.cyclic(4)
        assert G.order == 4
        assert G.identity == 0
        assert G.inv(1) == 3
        assert G.generator() is not None

    def test_klein_four_not_cyclic(self):
        # Z/2 x Z/2 as a table over {0, 1, 2, 3} with xor multiplication.
        table = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
        G = FiniteGroup(table)
        assert G.generator() is None
        assert all(G.inv(s) == s for s in range(4))

    def test_rejects_broken_table(self):
        with pytest.raises(GroupError):
            FiniteGroup(((0, 0), (0, 0)))  # not cancellative
        with pytest.raises(GroupError):
            FiniteGroup(((0, 1), (1, 2)))  # entry out of range


class TestMakeSystem:
    def test_unitary_shorthand(self):
        ds = a4_system()
        a = ds.A.span.basis[0]
        u = a4_swap_unitary()
        assert np.allclose(ds.act(1, a), u @ a @ u.conj().T)

    def test_action_must_preserve_algebra(self):
        A = t2_algebra()
        # Conjugation by the swap maps T2 to lower-triangular matrices.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(SystemError_):
            make_system(A, Z2, {0: np.eye(2, dtype=complex), 1: swap})

    def test_action_must_satisfy_group_law(self):
        A = t2_algebra()
        # Scaling E12 by i has order 4, so it cannot be a Z/2 action.
        ident = list(A.span.basis)
        bad = [1j * b if abs(b[0, 1]) > 0.5 else b for b in A.span.basis]
        with pytest.raises(SystemError_):
            make_system(A, Z2, {0: ident, 1: bad})

    def test_trivial_system(self):
        ds = t2_system()
        triv = trivial_system(ds.A, ds.G)
        x = ds.A.span.basis[2]
        assert np.allclose(triv.act(1, x), x)


def _identity_extensions(amb1, amb2, pairs, dom, unital=True):
    """graph_map reading the identity off every graph."""
    return LinearMap(dom=dom, cod=amb2, images=dom.basis), None


class TestAdmissibility:
    def test_schur_cover_not_admissible_for_swap(self):
        rep = admissible(a4_system(), a4_schur_cover())
        assert rep.verdict == NOT_ADMISSIBLE
        s, y = rep.witness
        assert s == 1
        assert np.linalg.norm(y) == pytest.approx(1.0)

    def test_schur_cover_admissible_for_trivial_action(self):
        rep = admissible(a4_trivial_system(), a4_schur_cover())
        assert rep.verdict == ADMISSIBLE

    def test_envelope_always_admissible_here(self):
        rep = admissible(a4_system(), a4_envelope())
        assert rep.verdict == ADMISSIBLE
        assert rep.extension is not None
        # The extension restricts to the action on j(A).
        ds = a4_system()
        env = a4_envelope()
        for a in ds.A.span.basis:
            got = rep.extension[1](env.j(a))
            want = env.j(ds.act(1, a))
            assert np.allclose(got, want, atol=1e-8)

    def test_extension_is_checked_against_its_pairs(self, monkeypatch):
        # Read the identity off every graph: a *-automorphism of C obeying
        # the group law, but it does not carry the swap.  The covers are
        # rebuilt, so no stored report answers instead of the patched map.
        corpus.clear_caches()
        monkeypatch.setattr(dynamics, "graph_map", _identity_extensions)
        with pytest.raises(SystemError_, match="beta_1 does not send"):
            admissible(a4_system(), envelope(a4_schur_cover()))

    def test_symmetrized_cover_admissible(self):
        rep = admissible(a4_system(), a4_symmetrized_cover())
        assert rep.verdict == ADMISSIBLE

    def test_extension_is_unique(self):
        # a twin system object is decided afresh, not read off the memo
        r1 = admissible(t2_system(), t2_diag_cover())
        r2 = admissible(dataclasses.replace(t2_system()), t2_diag_cover())
        assert r1.verdict == r2.verdict == ADMISSIBLE and r2 is not r1
        for b1, b2 in zip(r1.extension, r2.extension):
            assert np.allclose(b1.images, b2.images)

    def test_invariant_kernel_correspondence(self):
        ds = a4_system()
        upper = a4_symmetrized_cover()
        rep = admissible(ds, upper)
        m = induced_morphism(upper, a4_envelope())
        assert invariant_kernel_check(ds, rep, m)
        m_bad = induced_morphism(upper, a4_schur_cover())
        assert not invariant_kernel_check(ds, rep, m_bad)


def _recorded_graph_maps(monkeypatch):
    calls, graph_map = [], dynamics.graph_map

    def recording(*args, **kwargs):
        calls.append(args)
        return graph_map(*args, **kwargs)

    monkeypatch.setattr(dynamics, "graph_map", recording)
    return calls


class TestDecideOnce:
    """Admissibility is decided once per system object and cover, and the
    crossed product reuses the corpus envelope."""

    def test_second_call_returns_the_stored_report(self, monkeypatch):
        ds, cov = a4_system(), a4_symmetrized_cover()
        first = admissible(ds, cov)
        calls = _recorded_graph_maps(monkeypatch)
        assert admissible(ds, cov) is first
        assert calls == []

    def test_another_system_object_is_decided_afresh(self, monkeypatch):
        ds, cov = a4_system(), a4_symmetrized_cover()
        first = admissible(ds, cov)
        twin = DynamicalSystem(A=ds.A, G=ds.G, alpha=ds.alpha)
        calls = _recorded_graph_maps(monkeypatch)
        rep = admissible(twin, cov)
        assert rep is not first and len(calls) == 1
        assert rep.verdict == first.verdict == ADMISSIBLE
        for b1, b2 in zip(rep.extension, first.extension):
            assert np.allclose(b1.images, b2.images)
        assert admissible(twin, cov) is rep

    def test_failed_verification_is_not_stored(self, monkeypatch):
        corpus.clear_caches()
        ds, cov = a4_system(), envelope(a4_schur_cover())
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "graph_map", _identity_extensions)
            with pytest.raises(SystemError_):
                admissible(ds, cov)
        assert admissible(ds, cov).verdict == ADMISSIBLE

    def test_full_crossed_shares_the_corpus_envelope(self):
        cp = full_crossed(a4_system())
        assert cp.cover is a4_envelope() is envelope(a4_inclusion_cover())
        assert full_crossed(a4_trivial_system()).cover is cp.cover

    def test_suite_is_unchanged_by_a_second_run(self):
        assert paper_suite()["verdict_text"] == paper_suite()["verdict_text"]

    @staticmethod
    def _decided_in_suite(monkeypatch):
        """The (system, cover) pairs of the admissibility bodies that one
        paper_suite() runs."""
        decided, decide = [], dynamics._decide_admissible

        def recording(ds, cover):
            decided.append((ds, cover))
            return decide(ds, cover)

        monkeypatch.setattr(dynamics, "_decide_admissible", recording)
        assert paper_suite()["all_pass"]
        return decided

    def test_suite_decides_each_pair_once(self, monkeypatch):
        decided = self._decided_in_suite(monkeypatch)
        repeats = [(ds.A.name, cov.name)
                   for i, (ds, cov) in enumerate(decided)
                   if any(ds is d and cov is c for d, c in decided[:i])]
        assert decided and repeats == []

    def test_suite_decides_the_trivial_t2_action_once(self, monkeypatch):
        # trivialization_iso and full_crossed share one trivial system
        corpus.clear_caches()
        decided = self._decided_in_suite(monkeypatch)
        A = corpus.t2_algebra()
        assert trivial_system(A, Z2) is corpus.t2_trivial_system()
        trivial = [ds for ds, cov in decided
                   if cov is corpus.t2_inclusion_cover() and ds.A is A
                   and all(np.array_equal(a.images, A.span.basis)
                           for a in ds.alpha)]
        assert len(trivial) == 1


class TestInner:
    def test_swap_not_inner_in_a4(self):
        rep = inner_in_itself(a4_system())
        assert not rep.found

    def test_swap_inner_in_envelope(self):
        rep = locally_inner(a4_system(), a4_envelope())
        assert rep.found
        U = rep.unitaries[1]
        env = a4_envelope()
        ds = a4_system()
        for a in ds.A.span.basis:
            assert np.allclose(U @ env.j(a), env.j(ds.act(1, a)) @ U,
                               atol=1e-8)

    def test_sign_action_inner_in_t2(self):
        rep = inner_in_itself(t2_system())
        assert rep.found
        assert rep.exact_group_law
        U = rep.trivialized[1]
        assert np.allclose(np.abs(U), np.eye(2), atol=1e-8)

    def test_inner_in_itself_reverifies_each_unitary(self, monkeypatch):
        # The identity does not implement the sign action on T2.
        monkeypatch.setattr(dynamics, "_unitary_from_space",
                            lambda null, space, seed:
                            np.eye(space.ambient.dim, dtype=complex))
        rep = inner_in_itself(t2_system())
        assert not rep.found
        assert rep.diagnostics == {"verification_failed": 1}

    def test_identity_unitary_is_identity(self):
        rep = locally_inner(t2_system(), t2_envelope())
        assert rep.found
        assert np.allclose(rep.unitaries[0], np.eye(2), atol=1e-10)

    def test_trivialized_satisfy_group_law(self):
        rep = locally_inner(a4_system(), a4_envelope())
        us = rep.trivialized
        G = Z2
        for s in range(2):
            for t in range(2):
                assert np.allclose(us[s] @ us[t], us[G.mul(s, t)],
                                   atol=1e-7)
