"""Finite-group actions on operator algebras: validated dynamical systems,
admissibility of C*-covers (with explicit extension or failure witness),
invariant-kernel tests, and inner / locally inner structure.

An action of a finite group G on an operator algebra A assigns to each group
element a completely isometric unital automorphism of A.  A C*-cover (C, j)
is admissible when every automorphism extends to a *-automorphism of C that
commutes with the embedding; the extension, when it exists, is found by the
same graph-closure engine that produces induced cover morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cb import (CI, LinearMap, ci_check, graph_map, require_decisive,
                 star_hom_violations)
from .covers import extension_violations, fix_phase, normalize_witness
from .linalg import MEMBER_TOL, current, diagonal, intertwiner_space

ADMISSIBLE = "Admissible"
NOT_ADMISSIBLE = "NotAdmissible"


class GroupError(ValueError):
    """Multiplication table fails a group axiom."""


class SystemError_(ValueError):
    """A claimed dynamical system violates one of its invariants."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    table[s, t] is the index of the product s*t; element 0 need not be the
    identity (the identity index is located and stored).
    """

    table: tuple  # tuple of tuples of int
    identity: int = field(init=False, default=0)
    inverse: tuple = field(init=False, default=())

    def __post_init__(self):
        tbl = np.asarray(self.table, dtype=int)
        n = tbl.shape[0]
        if tbl.shape != (n, n) or n == 0:
            raise GroupError("table must be square and non-empty")
        if tbl.min() < 0 or tbl.max() >= n:
            raise GroupError("table entries out of range")
        ident = None
        for e in range(n):
            if all(tbl[e, t] == t and tbl[t, e] == t for t in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("no identity element")
        inv = []
        for s in range(n):
            cands = [t for t in range(n)
                     if tbl[s, t] == ident and tbl[t, s] == ident]
            if len(cands) != 1:
                raise GroupError(f"element {s} lacks a unique inverse")
            inv.append(cands[0])
        for s in range(n):
            for t in range(n):
                for u in range(n):
                    if tbl[tbl[s, t], u] != tbl[s, tbl[t, u]]:
                        raise GroupError("table not associative")
        object.__setattr__(self, "table", tuple(tuple(int(x) for x in row)
                                                for row in tbl))
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "inverse", tuple(inv))

    @property
    def order(self):
        return len(self.table)

    def mul(self, s, t):
        return self.table[s][t]

    def inv(self, s):
        return self.inverse[s]

    @staticmethod
    def cyclic(n):
        return FiniteGroup(tuple(tuple((i + j) % n for j in range(n))
                                 for i in range(n)))

    def is_cyclic(self):
        return self.generator() is not None

    def generator(self):
        """Index of a generating element when the group is cyclic."""
        for g in range(self.order):
            seen, cur = set(), self.identity
            for _ in range(self.order):
                cur = self.mul(cur, g)
                seen.add(cur)
            if len(seen) == self.order:
                return g
        return None


@dataclass
class DynamicalSystem:
    """A finite group acting on an operator algebra by completely isometric
    unital automorphisms; alpha[s] is the LinearMap for group element s."""

    A: "OperatorAlgebra"
    G: FiniteGroup
    alpha: list  # list of LinearMap, indexed by group element

    def act(self, s, x):
        return self.alpha[s](x)


def make_system(A, G, actions, verify=True):
    """Build and validate a dynamical system.

    `actions` maps each group element to either a list of basis images, a
    LinearMap, or a unitary matrix u (shorthand for conjugation x -> u x u*).
    Raises SystemError_ naming the violated invariant.
    """
    span = A.span
    amb = span.ambient
    maps = []
    for s in range(G.order):
        act = actions[s]
        if isinstance(act, LinearMap):
            maps.append(act)
        elif isinstance(act, np.ndarray) and act.shape == (amb.dim, amb.dim) \
                and np.linalg.norm(act @ act.conj().T - np.eye(amb.dim)) \
                < MEMBER_TOL:
            imgs = np.array([act @ b @ act.conj().T for b in span.basis])
            maps.append(LinearMap(dom=span, cod=amb, images=imgs))
        else:
            maps.append(LinearMap(dom=span, cod=amb,
                                  images=np.array(act)))
    if verify:
        e = G.identity
        for b in span.basis:
            if np.linalg.norm(maps[e](b) - b) > 10 * MEMBER_TOL:
                raise SystemError_("identity element does not act trivially")
        for s, m in enumerate(maps):
            bad = star_hom_violations(m, span)
            if bad:
                raise SystemError_(f"alpha_{s} " + "; ".join(bad))
        bad = group_law_violations(G, maps, span, "alpha")
        if bad:
            raise SystemError_("; ".join(bad))
        for s, m in enumerate(maps):
            if s == G.identity:
                continue
            rep = require_decisive(ci_check(m), f"action of element {s}")
            if rep.verdict != CI:
                raise SystemError_(
                    f"alpha_{s} is not completely isometric")
    return DynamicalSystem(A=A, G=G, alpha=maps)


def group_law_violations(G, maps, span, name):
    """Pairs (s, t) at which maps[s] . maps[t] != maps[st] on span's
    basis, as messages naming the maps `name`_s."""
    bad = []
    for s in range(G.order):
        for t in range(G.order):
            st = G.mul(s, t)
            if any(np.linalg.norm(maps[s](maps[t](b)) - maps[st](b))
                   > 10 * MEMBER_TOL for b in span.basis):
                bad.append(f"group law fails: {name}_{s} {name}_{t} != "
                           f"{name}_{st}")
    return bad


def trivial_system(A, G):
    span = A.span
    ident = LinearMap(dom=span, cod=span.ambient, images=span.basis.copy())
    return DynamicalSystem(A=A, G=G, alpha=[ident] * G.order)


@dataclass
class AdmissibilityReport:
    verdict: str
    extension: list | None = None  # per-element LinearMap beta_s on C
    witness: tuple | None = None   # (s, y) with (0, y) in the graph closure
    diagnostics: dict = field(default_factory=dict)


def _canonical_witness(ds, cover, s, obstruction):
    """Stable witness for non-admissibility: scan A's basis in order for an
    element whose j-image is clean of the obstruction space while the
    j-image of its alpha_s-translate is not; the translate's obstruction
    component is the witness.  Falls back to the first obstruction basis
    vector."""
    for a in ds.A.span.basis:
        u = obstruction.project(cover.j(a))
        v = obstruction.project(cover.j(ds.act(s, a)))
        if np.linalg.norm(u) < 1e-6 and np.linalg.norm(v) > 1e-6:
            return normalize_witness(v)
    return normalize_witness(obstruction.basis[0])


def admissible(ds, cover):
    """Decide alpha-admissibility of a cover.

    For each group element the candidate extension is the graph closure of
    {(j(a), j(alpha_s(a)))} in C+C; a non-graph closure yields a
    NotAdmissible verdict with a normalized witness, otherwise the
    extensions are assembled and the group law re-verified.
    """
    amb = cover.ambient
    betas, bad = [], []
    for s in range(ds.G.order):
        pairs = [(cover.j(a), cover.j(ds.act(s, a)))
                 for a in ds.A.span.basis]
        if s == ds.G.identity:
            beta = LinearMap(dom=cover.C, cod=amb,
                             images=cover.C.basis.copy())
        else:
            beta, obstruction = graph_map(amb, amb, pairs, cover.C)
            if beta is None:
                y = _canonical_witness(ds, cover, s, obstruction)
                return AdmissibilityReport(
                    verdict=NOT_ADMISSIBLE, witness=(s, y),
                    diagnostics={"element": s,
                                 "obstruction_dim": obstruction.dim})
        bad += [f"beta_{s} {v}"
                for v in extension_violations(beta, cover.C, pairs)]
        betas.append(beta)
    bad += group_law_violations(ds.G, betas, cover.C, "beta")
    if bad:
        raise SystemError_("assembled extension failed verification: " +
                           "; ".join(bad))
    return AdmissibilityReport(verdict=ADMISSIBLE, extension=betas)


def invariant_kernel_check(ds, upper_report, morphism):
    """Whether the kernel of a cover morphism (from an admissible upper
    cover) is invariant under the extended action; by the admissibility
    correspondence this decides admissibility of the lower cover."""
    if upper_report.verdict != ADMISSIBLE:
        raise SystemError_("upper cover must be admissible")
    K = morphism.kernel
    if K.dim == 0:
        return True
    for s, beta in enumerate(upper_report.extension):
        for b in K.basis:
            if K.residual(beta(b)) > MEMBER_TOL:
                return False
    return True


# ---------------------------------------------------------------------------
# inner structure

_UNITARY_RETRIES = 16


@dataclass
class InnerReport:
    """Per-element implementing unitaries, when found.

    exact_group_law records whether s -> U_s is a homomorphism on the nose;
    when it only holds up to phases and the group is cyclic, `trivialized`
    carries rescaled unitaries satisfying the law exactly.
    """

    unitaries: list | None
    exact_group_law: bool = False
    trivialized: list | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def found(self):
        return self.unitaries is not None


def _unitary_from_space(null, space, seed):
    """Polar decomposition of generic solutions; returns a unitary in the
    span or None."""
    if len(null) == 0:
        return None
    rng = np.random.default_rng(seed)
    for k in range(_UNITARY_RETRIES):
        if k == 0 and len(null) == 1:
            c = null[0]
        else:
            w = rng.standard_normal(len(null)) \
                + 1j * rng.standard_normal(len(null))
            c = w @ null
        cand = np.tensordot(c, space.basis, axes=(0, 0))
        try:
            u, _, vh = np.linalg.svd(cand)
        except np.linalg.LinAlgError:
            continue
        U = u @ vh
        if np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0])) \
                > 100 * MEMBER_TOL:
            continue
        if space.residual(U) > 100 * MEMBER_TOL:
            continue
        return U
    return None


def _inner_search(ds, space, e):
    """Unitaries U_s in `space` with U_s e(a) = e(alpha_s(a)) U_s for the
    embedding e of A, each found from a generic solution seeded by the
    RunConfig's seed + s and re-verified against that equation.

    Success certifies that the action is inner in `space`; failure is
    heuristic and reported with the solution-space dimensions."""
    basis = ds.A.span.basis
    dom_imgs = [e(a) for a in basis]
    unitaries, dims = [], []
    for s in range(ds.G.order):
        if s == ds.G.identity:
            dims.append(1)
            unitaries.append(np.eye(space.ambient.dim, dtype=complex))
            continue
        cod_imgs = [e(ds.act(s, a)) for a in basis]
        null = intertwiner_space(dom_imgs, cod_imgs, space)
        dims.append(len(null))
        U = _unitary_from_space(null, space, current().seed + s)
        if U is None:
            return InnerReport(unitaries=None,
                               diagnostics={"solution_space_dims": dims,
                                            "failed_element": s})
        U = fix_phase(U)
        if any(np.linalg.norm(U @ x - y @ U) > 100 * MEMBER_TOL
               for x, y in zip(dom_imgs, cod_imgs)):
            return InnerReport(unitaries=None,
                               diagnostics={"verification_failed": s})
        unitaries.append(U)
    return _group_law_report(ds.G, unitaries)


def locally_inner(ds, cover):
    """Search for unitaries U_s in C with U_s j(a) = j(alpha_s(a)) U_s."""
    return _inner_search(ds, cover.C, cover.j)


def inner_in_itself(ds):
    """Like locally_inner, but the unitaries must lie in the diagonal
    A * A* of the algebra itself (so ad(U_s) makes sense inside A)."""
    return _inner_search(ds, diagonal(ds.A.span), lambda a: a)


def _group_law_report(G, unitaries):
    exact = _law_holds(G, unitaries)
    if exact:
        return InnerReport(unitaries=unitaries, exact_group_law=True,
                           trivialized=list(unitaries))
    triv = _cyclic_trivialize(G, unitaries)
    return InnerReport(unitaries=unitaries, exact_group_law=False,
                       trivialized=triv,
                       diagnostics={} if triv else
                       {"note": "group law holds only projectively"})


def _law_holds(G, us):
    for s in range(G.order):
        for t in range(G.order):
            if np.linalg.norm(us[s] @ us[t] - us[G.mul(s, t)]) \
                    > 100 * MEMBER_TOL:
                return False
    return True


def _cyclic_trivialize(G, us):
    """Rescale the generator of a cyclic group by an n-th root of the phase
    defect so that powers satisfy the group law exactly."""
    g = G.generator()
    if g is None:
        return None
    n = G.order
    N = us[0].shape[0]
    power = np.linalg.matrix_power(us[g], n)
    mu = np.trace(power) / N
    if np.linalg.norm(power - mu * np.eye(N)) > 100 * MEMBER_TOL \
            or abs(abs(mu) - 1) > 100 * MEMBER_TOL:
        return None
    zeta = mu ** (-1.0 / n)
    Ug = zeta * us[g]
    out = [None] * n
    cur_idx, cur = G.identity, np.eye(N, dtype=complex)
    for _ in range(n):
        out[cur_idx] = cur
        cur_idx = G.mul(cur_idx, g)
        cur = cur @ Ug
    if not _law_holds(G, out):
        return None
    return out
