import numpy as np
import pytest

from opalg.corpus import (Z2, a4_envelope, a4_schur_cover, a4_swap_unitary,
                          a4_symmetrized_cover, a4_system,
                          a4_trivial_system, t2_algebra, t2_diag_cover,
                          t2_envelope, t2_system)
from opalg import dynamics
from opalg.covers import induced_morphism
from opalg.dynamics import (ADMISSIBLE, NOT_ADMISSIBLE, FiniteGroup,
                            GroupError, SystemError_, admissible,
                            inner_in_itself, invariant_kernel_check,
                            locally_inner, make_system, trivial_system)


class TestFiniteGroup:
    def test_cyclic_group(self):
        G = FiniteGroup.cyclic(4)
        assert G.order == 4
        assert G.identity == 0
        assert G.inv(1) == 3
        assert G.is_cyclic()

    def test_klein_four_not_cyclic(self):
        # Z/2 x Z/2 as a table over {0, 1, 2, 3} with xor multiplication.
        table = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
        G = FiniteGroup(table)
        assert not G.is_cyclic()
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

    def test_symmetrized_cover_admissible(self):
        rep = admissible(a4_system(), a4_symmetrized_cover())
        assert rep.verdict == ADMISSIBLE

    def test_extension_is_unique(self):
        r1 = admissible(t2_system(), t2_diag_cover())
        r2 = admissible(t2_system(), t2_diag_cover())
        assert r1.verdict == ADMISSIBLE
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
