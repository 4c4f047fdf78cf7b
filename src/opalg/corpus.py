"""Worked examples used throughout the test suite and the demo CLI: the
4x4 algebra A4 with the swap action, the upper-triangular algebra T2 with a
diagonal conjugation action, and their standard C*-covers.

Builders are cached; everything is deterministic, so sharing instances
across callers is safe (covers memoize their Shilov data in place).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .covers import (OperatorAlgebra, envelope, inclusion_cover, join,
                     make_cover)
from .dynamics import FiniteGroup, make_system, trivial_system
from .linalg import AlgebraSpan, Ambient, direct_sum, orthonormal_span

Z2 = FiniteGroup.cyclic(2)

SWAP_2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@lru_cache(maxsize=None)
def a4_algebra():
    """Span of {E11, E22, E33, E44, E13, E14, E23, E24} in M4: a 2x2 block
    upper-triangular algebra with diagonal M2 (+) M2 pattern collapsed to
    diagonal matrix units."""
    amb = Ambient((4,))
    E = amb.matrix_unit
    units = [E(0, 0), E(1, 1), E(2, 2), E(3, 3),
             E(0, 2), E(0, 3), E(1, 2), E(1, 3)]
    span = AlgebraSpan(amb, orthonormal_span(amb, units).basis, unital=True)
    return OperatorAlgebra(span, name="A4")


def a4_swap_unitary():
    return direct_sum(SWAP_2, SWAP_2)


@lru_cache(maxsize=None)
def a4_system():
    """(A4, Z/2Z, conjugation by the double swap u (+) u)."""
    A = a4_algebra()
    return make_system(A, Z2, {0: np.eye(4, dtype=complex),
                               1: a4_swap_unitary()})


@lru_cache(maxsize=None)
def a4_trivial_system():
    return trivial_system(a4_algebra(), Z2)


def schur_projection_p():
    """The pattern projection p = I + E14 + E41 (as a Schur multiplier)."""
    p = np.eye(4, dtype=complex)
    p[0, 3] = 1.0
    p[3, 0] = 1.0
    return p


def schur_projection_p_swapped():
    """Conjugate pattern (u+u) p (u+u): I + E23 + E32."""
    q = np.eye(4, dtype=complex)
    q[1, 2] = 1.0
    q[2, 1] = 1.0
    return q


def _schur_cover(pattern, name):
    A = a4_algebra()
    amb = Ambient((4, 4))
    imgs = [direct_sum(a, pattern * a) for a in A.span.basis]
    return make_cover(A, amb, imgs, name=name)


@lru_cache(maxsize=None)
def a4_schur_cover():
    """a -> a (+) S_p(a): a 22-dimensional cover of A4 with blocks
    [4, 2, 1, 1]."""
    return _schur_cover(schur_projection_p(), "a4-schur")


@lru_cache(maxsize=None)
def a4_schur_cover_swapped():
    """Same construction with the swapped pattern projection."""
    return _schur_cover(schur_projection_p_swapped(), "a4-schur-swapped")


@lru_cache(maxsize=None)
def a4_symmetrized_cover():
    """Join of the two Schur covers: a -> a (+) S_p(a) (+) S_p'(a).

    Sits strictly above the plain Schur cover and, unlike it, admits an
    extension of the swap action (the extension interchanges the two Schur
    summands)."""
    return join(a4_schur_cover(), a4_schur_cover_swapped(),
                name="a4-symmetrized")


@lru_cache(maxsize=None)
def a4_inclusion_cover():
    """A4 inside M4 as given (A4's one inclusion_cover)."""
    return inclusion_cover(a4_algebra())


@lru_cache(maxsize=None)
def a4_envelope():
    """The C*-envelope of A4 (all of M4)."""
    return envelope(a4_inclusion_cover())


@lru_cache(maxsize=None)
def t2_algebra():
    """Upper-triangular 2x2 matrices."""
    amb = Ambient((2,))
    E = amb.matrix_unit
    units = [E(0, 0), E(1, 1), E(0, 1)]
    span = AlgebraSpan(amb, orthonormal_span(amb, units).basis, unital=True)
    return OperatorAlgebra(span, name="T2")


@lru_cache(maxsize=None)
def t2_system():
    """(T2, Z/2Z, conjugation by diag(1, -1))."""
    A = t2_algebra()
    d = np.diag([1.0, -1.0]).astype(complex)
    return make_system(A, Z2, {0: np.eye(2, dtype=complex), 1: d})


@lru_cache(maxsize=None)
def t2_trivial_system():
    return trivial_system(t2_algebra(), Z2)


@lru_cache(maxsize=None)
def t2_inclusion_cover():
    """T2 inside M2 (its one inclusion_cover); already the C*-envelope."""
    return inclusion_cover(t2_algebra())


@lru_cache(maxsize=None)
def t2_envelope():
    return envelope(t2_inclusion_cover())


@lru_cache(maxsize=None)
def t2_diag_cover():
    """a -> a (+) diag(a) in M2 (+) C^2: a 6-dimensional cover whose Shilov
    ideal is the two scalar blocks."""
    A = t2_algebra()
    amb = Ambient((2, 2))
    imgs = [direct_sum(a, np.diag(np.diag(a))) for a in A.span.basis]
    return make_cover(A, amb, imgs, name="t2-diag")


@lru_cache(maxsize=None)
def t2_corner_cover():
    """a -> a (+) a_11 in M2 (+) C: a third distinct T2 cover."""
    A = t2_algebra()
    amb = Ambient((2, 1))
    imgs = [direct_sum(a, a[:1, :1]) for a in A.span.basis]
    return make_cover(A, amb, imgs, name="t2-corner")


COVER_BUILDERS = {
    "a4-schur": a4_schur_cover,
    "a4-schur-swapped": a4_schur_cover_swapped,
    "a4-symmetrized": a4_symmetrized_cover,
    "a4-inclusion": a4_inclusion_cover,
    "a4-envelope": a4_envelope,
    "t2-inclusion": t2_inclusion_cover,
    "t2-envelope": t2_envelope,
    "t2-diag": t2_diag_cover,
    "t2-corner": t2_corner_cover,
}

SYSTEM_BUILDERS = {
    "a4-swap": a4_system,
    "a4-trivial": a4_trivial_system,
    "t2-sign": t2_system,
    "t2-trivial": t2_trivial_system,
}


def clear_caches():
    """Forget every memoised corpus object, so that the next builder calls
    rebuild and re-certify their covers from scratch; what is stored on
    them (inclusion covers, trivial systems, envelopes, reports) goes too."""
    for builder in (a4_algebra, t2_algebra, *COVER_BUILDERS.values(),
                    *SYSTEM_BUILDERS.values()):
        builder.cache_clear()
