"""The paper's worked examples, defined once as a scenario: the 4x4
algebra A4 with the swap action, the upper-triangular algebra T2 with a
diagonal conjugation action, their standard C*-covers, and the golden
checks with their expectations (`paper_scenario`).

The builders below are named lookups into one memoised load of that
scenario, so every object is built and certified once and shared across
callers (covers memoize their Shilov data in place); clearing any
builder's cache clears them all.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dynamics import FiniteGroup
from .linalg import Ambient, direct_sum
from .scenario import load_scenario
from .serialize import mat_to_json

Z2 = FiniteGroup.cyclic(2)

SWAP_2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

A4_UNITS = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3)]
T2_UNITS = [(0, 0), (1, 1), (0, 1)]


def _units(N, positions):
    """The matrix units E_rc of M_N at the given positions."""
    return np.array([Ambient((N,)).matrix_unit(r, c) for r, c in positions])


def a4_swap_unitary():
    return direct_sum(SWAP_2, SWAP_2)


def schur_projection_p():
    """The pattern projection p = I + E14 + E41 (as a Schur multiplier)."""
    return np.eye(4, dtype=complex) + _units(4, [(0, 3), (3, 0)]).sum(0)


def _js(mats):
    return [mat_to_json(m) for m in mats]


def _order(upper, lower, name, equivalent=True):
    """A check that `lower` sits below `upper`, by a morphism with zero
    kernel (so the two are equivalent) unless `equivalent` is False."""
    kernel = {"kernel_blocks": []} if equivalent else {}
    return {"name": name, "op": "order", "upper": upper, "lower": lower,
            "expect": {"verdict": "Morphism", **kernel}}


# the golden checks: every claim of the paper that the suite re-derives
PAPER_CHECKS = [
    {"name": "schur-cover-structure", "op": "structure",
     "cover": "a4-schur", "expect": {"dim": 22, "blocks": [4, 2, 1, 1]}},
    {"name": "schur-map-alone-rejected", "op": "check-cover",
     "cover": "a4-schur-map",
     "expect": {"verdict": "NotCompletelyIsometric"}},
    {"name": "t2-diag-cover-structure", "op": "structure",
     "cover": "t2-diag", "expect": {"dim": 6, "blocks": [2, 1, 1]}},
    {"name": "schur-cover-not-admissible", "op": "admissible",
     "system": "a4-swap", "cover": "a4-schur",
     # the witness is the E14 direction of the Schur summand
     "expect": {"verdict": "NotAdmissible", "witness_element": 1,
                "witness": mat_to_json(_units(8, [(4, 7)])[0])}},
    {"name": "envelope-admissible", "op": "admissible",
     "system": "a4-swap", "cover": "a4-envelope",
     "expect": {"verdict": "Admissible"}},
    {"name": "envelope-locally-inner", "op": "inner", "system": "a4-swap",
     "cover": "a4-envelope", "moduli": _js([np.eye(4), a4_swap_unitary()]),
     "expect": {"found": True, "moduli_match": True}},
    {"name": "a4-not-inner-in-itself", "op": "inner",
     "system": "a4-swap", "expect": {"found": False}},
    {"name": "shilov-a4-schur", "op": "shilov", "cover": "a4-schur",
     "expect": {"shilov_block_dims": [1, 1, 2], "essential": False}},
    {"name": "envelope-a4-schur", "op": "envelope", "cover": "a4-schur",
     "expect": {"dim": 16, "blocks": [4]}},
    _order("a4-schur-envelope", "a4-inclusion",
           "envelope-a4-schur-is-inclusion"),
    {"name": "shilov-of-envelope-a4", "op": "shilov",
     "cover": "a4-schur-envelope", "expect": {"shilov_blocks": []}},
    {"name": "shilov-t2-diag", "op": "shilov", "cover": "t2-diag",
     "expect": {"shilov_block_dims": [1, 1], "annihilator_dim": 4,
                "essential": False}},
    {"name": "crossed-a4-swap", "op": "crossed", "system": "a4-swap",
     "expect": {"dim": 16, "diagonal_blocks": [2, 2]}},
    {"name": "crossed-a4-trivial", "op": "crossed",
     "system": "a4-trivial",
     "expect": {"dim": 16, "diagonal_blocks": [1] * 8}},
    {"name": "crossed-a4-swap-vs-trivial", "op": "crossed-equivalent",
     "systems": ["a4-swap", "a4-trivial"],
     "expect": {"equivalent": False}},
    {"name": "t2-inner-in-itself", "op": "inner", "system": "t2-sign",
     "expect": {"found": True, "exact_group_law": True}},
    *({"name": f"trivialization-{cover}", "op": "trivialization",
       "system": "t2-sign", "cover": cover,
       "expect": {"dim": 6, "iota_dim": 6}}
      for cover in ("t2-inclusion", "t2-diag")),
    # the trivial-action crossed product is span{perm_s (x) a}
    {"name": "tensor-model-t2", "op": "crossed", "system": "t2-trivial",
     "members": _js(np.kron(perm, a) for perm in (np.eye(2), SWAP_2)
                    for a in _units(2, T2_UNITS)),
     "expect": {"dim": 6, "members_contained": True,
                "diagonal_blocks": [1, 1, 1, 1]}},
    *({"name": f"correspondence-{ds}/{upper}/{lower}",
       "op": "correspondence", "system": ds, "upper": upper, "lower": lower,
       "expect": {"upper": "Admissible", "morphism": True,
                  "lower_admissible": holds, "kernel_invariant": holds}}
      for ds, upper, lower, holds in (
          ("a4-swap", "a4-symmetrized", "a4-envelope", True),
          ("a4-swap", "a4-symmetrized", "a4-schur", False),
          ("a4-swap", "a4-envelope", "a4-envelope", True),
          ("a4-trivial", "a4-schur", "a4-envelope", True),
          ("t2-sign", "t2-diag", "t2-envelope", True),
          ("t2-sign", "t2-join", "t2-corner", True),
          ("t2-sign", "t2-join", "t2-diag", True))),
    _order("t2-diag-twice", "t2-diag", "lattice-join-idempotent"),
    _order("t2-join", "t2-join-swapped", "lattice-join-commutative"),
    _order("t2-diag-meet-envelope", "t2-envelope",
           "lattice-meet-with-envelope"),
    _order("t2-diag-join-meet", "t2-diag", "lattice-absorption"),
    *(_order(cover, "t2-envelope", f"lattice-envelope-below-{cover}",
             equivalent=False)
      for cover in ("t2-diag", "t2-corner", "t2-join")),
    *({"name": f"lattice-{cover}-admissible", "op": "admissible",
       "system": "t2-sign", "cover": cover,
       "expect": {"verdict": "Admissible"}}
      for cover in ("t2-join", "t2-meet")),
    # the worked example's text calls the boundary summand M2 (+) C;
    # the computed closure says M2 (+) C^2 (shilov-a4-schur)
    {"name": "partial-recovery", "op": "partial", "system": "a4-swap",
     "cover": "a4-schur",
     "expect": {"verified": True, "subalgebra_dim": 16,
                "partial_blocks": [4, 4, 2, 1, 1], "residual": 0.0}},
]


def paper_scenario():
    """The paper's examples and claims as one scenario dict, in the format
    of `scenario.load_scenario` (JSON-ready).

    A4 = span{E11, E22, E33, E44, E13, E14, E23, E24} in M4, Z/2 acting by
    the double swap u (+) u; its Schur cover a -> a (+) S_p(a) (blocks
    [4, 2, 1, 1]) admits no extension of the swap, its symmetrized cover
    a -> a (+) S_p(a) (+) S_p'(a) does.  T2 = upper-triangular 2x2
    matrices, Z/2 acting by diag(1, -1); t2-diag is a -> a (+) diag(a)
    (Shilov ideal: the two scalar blocks), t2-corner a -> a (+) a_11."""
    a4, t2 = _units(4, A4_UNITS), _units(2, T2_UNITS)
    eye2, eye4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    u, p = a4_swap_unitary(), schur_projection_p()
    q = u @ p @ u  # the swapped pattern I + E23 + E32
    covers = {
        "a4-schur": {"algebra": "A4", "ambient": "M4+M4",
                     "j": _js(direct_sum(a, p * a) for a in a4)},
        "a4-schur-swapped": {"algebra": "A4", "ambient": "M4+M4",
                             "j": _js(direct_sum(a, q * a) for a in a4)},
        "a4-schur-map": {"algebra": "A4", "ambient": "M4",
                         "j": _js(p * a for a in a4)},
        "t2-diag": {"algebra": "T2", "ambient": "M2+M2",
                    "j": _js(direct_sum(a, np.diag(np.diag(a))) for a in t2)},
        "t2-corner": {"algebra": "T2", "ambient": "M2+C",
                      "j": _js(direct_sum(a, a[:1, :1]) for a in t2)},
        "a4-symmetrized": {"join": ["a4-schur", "a4-schur-swapped"]},
        "a4-inclusion": {"inclusion": "A4"},
        "a4-envelope": {"envelope": "a4-inclusion"},
        "a4-schur-envelope": {"envelope": "a4-schur"},
        "t2-inclusion": {"inclusion": "T2"},
        "t2-envelope": {"envelope": "t2-inclusion"},
        "t2-join": {"join": ["t2-diag", "t2-corner"]},
        "t2-join-swapped": {"join": ["t2-corner", "t2-diag"]},
        "t2-diag-twice": {"join": ["t2-diag", "t2-diag"]},
        "t2-meet": {"meet": ["t2-diag", "t2-corner"]},
        "t2-diag-meet-envelope": {"meet": ["t2-diag", "t2-envelope"]},
        "t2-diag-join-meet": {"join": ["t2-diag", "t2-meet"]},
    }
    return {
        "ambients": {"M2": [2], "M4": [4], "M2+M2": [2, 2], "M2+C": [2, 1],
                     "M4+M4": [4, 4]},
        "algebras": {"A4": {"ambient": "M4", "basis": _js(a4)},
                     "T2": {"ambient": "M2", "basis": _js(t2)}},
        "covers": covers,
        "group": {"table": [list(row) for row in Z2.table]},
        "systems": {
            "a4-swap": {"algebra": "A4", "action": {
                "type": "ad", "unitaries": _js([eye4, u])}},
            "a4-trivial": {"algebra": "A4", "action": {"type": "trivial"}},
            "t2-sign": {"algebra": "T2", "action": {
                "type": "ad", "unitaries": _js([eye2, np.diag([1.0, -1.0])])}},
            "t2-trivial": {"algebra": "T2", "action": {"type": "trivial"}},
        },
        "checks": list(PAPER_CHECKS),
    }


@lru_cache(maxsize=None)
def paper():
    """The paper scenario, loaded once."""
    return load_scenario(paper_scenario())


def _lookup(kind, name, builder):
    """The builder, named `builder`, of the paper scenario's `kind` named
    `name`; its cache is the scenario's."""
    def build():
        return getattr(paper(), kind)(name)
    build.__name__ = build.__qualname__ = builder
    build.cache_clear, build.cache_info = paper.cache_clear, paper.cache_info
    return build


a4_algebra = _lookup("algebra", "A4", "a4_algebra")
t2_algebra = _lookup("algebra", "T2", "t2_algebra")

COVER_BUILDERS = {name: _lookup("cover", name, builder) for name, builder in (
    ("a4-schur", "a4_schur_cover"),
    ("a4-schur-swapped", "a4_schur_cover_swapped"),
    ("a4-symmetrized", "a4_symmetrized_cover"),
    ("a4-inclusion", "a4_inclusion_cover"), ("a4-envelope", "a4_envelope"),
    ("t2-inclusion", "t2_inclusion_cover"), ("t2-envelope", "t2_envelope"),
    ("t2-diag", "t2_diag_cover"), ("t2-corner", "t2_corner_cover"))}

SYSTEM_BUILDERS = {name: _lookup("system", name, builder)
                   for name, builder in (
    ("a4-swap", "a4_system"), ("a4-trivial", "a4_trivial_system"),
    ("t2-sign", "t2_system"), ("t2-trivial", "t2_trivial_system"))}

a4_schur_cover = COVER_BUILDERS["a4-schur"]
a4_schur_cover_swapped = COVER_BUILDERS["a4-schur-swapped"]
a4_symmetrized_cover = COVER_BUILDERS["a4-symmetrized"]
a4_inclusion_cover = COVER_BUILDERS["a4-inclusion"]
a4_envelope = COVER_BUILDERS["a4-envelope"]
t2_inclusion_cover = COVER_BUILDERS["t2-inclusion"]
t2_envelope = COVER_BUILDERS["t2-envelope"]
t2_diag_cover = COVER_BUILDERS["t2-diag"]
t2_corner_cover = COVER_BUILDERS["t2-corner"]
a4_system = SYSTEM_BUILDERS["a4-swap"]
a4_trivial_system = SYSTEM_BUILDERS["a4-trivial"]
t2_system = SYSTEM_BUILDERS["t2-sign"]
t2_trivial_system = SYSTEM_BUILDERS["t2-trivial"]


def clear_caches():
    """Forget the loaded paper scenario, so that the next builder calls
    rebuild and re-certify their objects from scratch; what is stored on
    them (inclusion covers, trivial systems, envelopes, reports) goes too."""
    paper.cache_clear()
