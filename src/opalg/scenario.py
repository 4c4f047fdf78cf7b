"""Scenario files: JSON descriptions of ambients, algebras, covers, group
actions and requested checks, plus the dispatcher that runs the checks and
assembles a report.

Schema sketch::

    {
      "ambients":  {"M8": [4, 4]},
      "algebras":  {"A4": {"ambient": "M4", "basis": [[re, im], ...]}},
      "covers":    {"c": {"algebra": "A4", "ambient": "M8",
                          "j": [[re, im], ...]},
                    "inc": {"inclusion": "A4"}, "env": {"envelope": "c"},
                    "v": {"join": ["c", "inc"]}, "m": {"meet": ["c", "v"]}},
      "group":     {"table": [[0, 1], [1, 0]]},
      "systems":   {"ds": {"algebra": "A4",
                           "action": {"type": "ad", "unitaries": [...]}}},
      "checks":    [{"op": "admissible", "system": "ds", "cover": "c",
                     "name": "c-not-admissible",
                     "expect": {"verdict": "NotAdmissible"}}]
    }

A cover is given by the images "j" of its algebra's basis, or derived from
other entries: the inclusion cover of an algebra, the envelope of a cover,
the join of covers or the meet of two.  Actions may be given as
conjugating unitaries ("ad"), explicit basis images ("matrices") or as the
trivial action ("trivial").  Every check entry may carry an "expect"
object that is matched (recursively, floats to tolerance) against the
result, and a "name" that its report entry repeats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cb import Undecided
from .covers import (CoverError, MorphismAbsence, OperatorAlgebra, envelope,
                     inclusion_cover, induced_morphism, join, make_cover,
                     meet, shilov)
from .crossed import (crossed_equivalent, full_crossed, relative_crossed,
                      trivialization_iso)
from .dynamics import (ADMISSIBLE, FiniteGroup, GroupError, admissible,
                       inner_in_itself, invariant_kernel_check,
                       locally_inner, make_system, trivial_system)
from .linalg import (EXPECT_TOL, MEMBER_TOL, AlgebraSpan, Ambient, current,
                     diagonal, orthonormal_span)
from .partialact import verify_partial_recovery
from .serialize import digest, mat_from_json, mat_to_json
from .structure import (annihilator, block_dims, ideal_blocks,
                        minimal_central_projections)


class ScenarioError(ValueError):
    """Schema violation, unresolved reference, or inconsistent dimensions."""


@dataclass
class Scenario:
    raw: dict
    ambients: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    group: FiniteGroup | None = None
    systems: dict = field(default_factory=dict)
    _covers: dict = field(default_factory=dict)
    _deriving: set = field(default_factory=set)  # derived covers in progress

    def cover(self, name):
        """The named cover.  A CoverError is bad input for a cover given by
        its images, and a failed check for one derived from valid covers."""
        try:
            return self.build_cover(name)
        except CoverError as exc:
            if any(k in self.raw["covers"][name] for k in DERIVED_COVERS):
                raise
            raise ScenarioError(f"cover {name!r}: {exc.args[0]}") from exc

    def build_cover(self, name):
        """Build (and cache) a named cover; CoverError propagates so the
        check-cover op can report structured rejections."""
        spec = _named(self.raw.get("covers", {}), name, "cover")
        if name not in self._covers:
            spec = _object(spec, f"cover {name!r}")
            kinds = [k for k in DERIVED_COVERS if k in spec]
            self._covers[name] = (self._derived_cover(name, kinds, spec)
                                  if kinds else self._given_cover(name, spec))
        return self._covers[name]

    def _given_cover(self, name, spec):
        A = self.algebra(spec.get("algebra"))
        amb = self._ambient(spec.get("ambient"))
        try:
            mats = amb.check([mat_from_json(m) for m in spec["j"]])
        except Exception as exc:
            raise ScenarioError(f"bad j matrices for cover {name!r}: {exc}")
        if len(mats) != A.dim:
            raise ScenarioError(
                f"cover {name!r}: {len(mats)} images for {A.dim} basis "
                f"elements")
        return make_cover(A, amb, mats, name=name)

    def _derived_cover(self, name, kinds, spec):
        """The cover derived as spec says from other entries, each built
        once; refused when it is derived from itself."""
        what = f"cover {name!r}"
        if len(kinds) != 1:
            raise ScenarioError(f"{what}: give one of {DERIVED_COVERS}, "
                                f"not {kinds}")
        if name in self._deriving:
            raise ScenarioError(f"{what} is derived from itself")
        kind, ref = kinds[0], spec[kinds[0]]
        self._deriving.add(name)
        try:
            if kind == "inclusion":
                return inclusion_cover(self.algebra(ref))
            if kind == "envelope":
                return envelope(self.cover(ref), name=name)
            covs = _listed(ref, f"{what}: {kind!r}", self.cover,
                           pair=kind == "meet")
            return (join if kind == "join" else meet)(*covs, name=name)
        finally:
            self._deriving.discard(name)

    def _ambient(self, name):
        return _named(self.ambients, name, "ambient")

    def algebra(self, name):
        return _named(self.algebras, name, "algebra")

    def system(self, name):
        return _named(self.systems, name, "system")


DERIVED_COVERS = ("inclusion", "envelope", "join", "meet")


def _named(table, name, what):
    """table[name], refused with a ScenarioError naming `what` unless name
    is a string that names an entry."""
    if not isinstance(name, str):
        raise ScenarioError(f"{what} must be a name (a string), not {name!r}")
    if name not in table:
        raise ScenarioError(f"unknown {what} {name!r}")
    return table[name]


def _object(value, what):
    """value, refused with a ScenarioError naming `what` unless it is a
    JSON object."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, not {value!r}")
    return value


def load_scenario(source):
    """Parse a scenario from a path to a JSON file, or from a dict."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario: {exc}")
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    sc = Scenario(raw=raw)
    for key in ("ambients", "algebras", "covers", "systems"):
        _object(raw.get(key, {}), key)
    for name, dims in raw.get("ambients", {}).items():
        try:
            sc.ambients[name] = Ambient(tuple(dims))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"ambient {name!r}: {exc}")
    for name, spec in raw.get("algebras", {}).items():
        amb = sc._ambient(_object(spec, f"algebra {name!r}").get("ambient"))
        try:
            mats = amb.check([mat_from_json(m) for m in spec["basis"]])
        except Exception as exc:
            raise ScenarioError(f"algebra {name!r}: {exc}")
        span = orthonormal_span(amb, mats)
        span = AlgebraSpan(amb, span.basis, unital=True)
        alg = OperatorAlgebra(span, name=name)
        bad = alg.verify()
        if bad:
            raise ScenarioError(f"algebra {name!r}: " + "; ".join(bad))
        sc.algebras[name] = alg
    if "group" in raw:
        try:
            sc.group = FiniteGroup(tuple(tuple(r)
                                         for r in raw["group"]["table"]))
        except (GroupError, KeyError, TypeError) as exc:
            raise ScenarioError(f"group: {exc}")
    for name, spec in raw.get("systems", {}).items():
        if sc.group is None:
            raise ScenarioError(f"system {name!r} needs a group table")
        A = sc.algebra(_object(spec, f"system {name!r}").get("algebra"))
        act = _object(spec.get("action", {}), f"system {name!r}: action")
        kind = act.get("type")
        try:
            if kind == "ad":
                actions = {s: mat_from_json(m)
                           for s, m in enumerate(act["unitaries"])}
            elif kind == "matrices":
                actions = {s: [mat_from_json(m) for m in imgs]
                           for s, imgs in enumerate(act["images"])}
            elif kind == "trivial":
                sc.systems[name] = trivial_system(A, sc.group)
                continue
            else:
                raise ScenarioError(f"unknown action type {kind!r}")
            sc.systems[name] = make_system(A, sc.group, actions)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"system {name!r}: {exc}")
    return sc


# ---------------------------------------------------------------------------
# check dispatch


def _message(exc):
    """The message of an exception, without any payload passed after it."""
    return str(exc.args[0]) if exc.args else ""


def _op_check_cover(sc, args):
    try:
        cov = sc.build_cover(args["cover"])
    except CoverError as exc:
        out = {"verdict": type(exc).__name__, "detail": _message(exc)}
        cert = exc.args[1] if len(exc.args) > 1 else None
        if cert is not None:
            out["certificate"] = {"type": cert["type"],
                                  "level": int(cert["level"]),
                                  "norm_x": float(cert["norm_x"]),
                                  "norm_image": float(cert["norm_image"]),
                                  "x_hash": digest(cert["x"])}
        return out
    return {"verdict": "Valid", "dim": cov.C.dim}


def _op_structure(sc, args):
    cov = sc.cover(args["cover"])
    bs = minimal_central_projections(cov.C)
    return {"dim": cov.C.dim, "blocks": list(bs.block_dims),
            "mults": list(bs.mults)}


def _op_shilov(sc, args):
    cov = sc.cover(args["cover"])
    S = shilov(cov)
    bs = cov.structure()
    out = {"shilov_blocks": sorted(S),
           "shilov_block_dims": sorted(bs.block_dims[i] for i in S)}
    if S:
        J = ideal_blocks(cov.C, S)
        ann = annihilator(cov.C, J)
        out["essential"] = ann.dim == 0
        out["annihilator_dim"] = ann.dim
    return out


def _op_envelope(sc, args):
    env = envelope(sc.cover(args["cover"]))
    return {"dim": env.C.dim, "blocks": block_dims(env.C)}


def _op_order(sc, args):
    up, low = _one_algebra(args.what, sc.cover(args["upper"]),
                           sc.cover(args["lower"]))
    m = induced_morphism(up, low)
    if isinstance(m, MorphismAbsence):
        return {"verdict": "Absence", "witness": mat_to_json(m.witness),
                "witness_hash": digest(m.witness)}
    return {"verdict": "Morphism",
            "kernel_blocks": sorted(m.kernel_blocks()),
            "morphism_hash": digest(m.pi.images)}


def _listed(names, what, lookup, pair=False):
    """The covers or systems `lookup` finds for `names`, refused unless it
    is a non-empty list (a pair, when `pair`) of names of objects of one
    algebra; `what` names the list."""
    if not isinstance(names, list) or not names \
            or (pair and len(names) != 2) \
            or not all(isinstance(n, str) for n in names):
        raise ScenarioError(f"{what} must be a "
                            f"{'pair' if pair else 'non-empty list'} of "
                            f"names, not {names!r}")
    return _one_algebra(what, *map(lookup, names))


def _one_algebra(what, *objs):
    """Systems and covers, refused unless they are all of one algebra."""
    if any(o.A is not objs[0].A for o in objs):
        raise ScenarioError(f"{what}: objects of different algebras "
                            f"{[o.A.name for o in objs]}")
    return objs


def _system_and_cover(sc, args):
    ds, cov = sc.system(args["system"]), sc.cover(args["cover"])
    return _one_algebra(args.what, ds, cov)


def _matrices(args, key, N, count=None):
    """The N x N matrices (`count` of them, if given) that argument `key`
    lists in [re, im] form."""
    try:
        mats = np.array([mat_from_json(m) for m in args[key]])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{args.what}: argument {key!r}: {exc}")
    if mats.ndim != 3 or mats.shape[1:] != (N, N) \
            or count not in (None, len(mats)):
        raise ScenarioError(f"{args.what}: argument {key!r} must list "
                            f"{count or 'some'} {N} x {N} matrices")
    return mats


def _lattice_op(combine, pair=False):
    """The op that reports the join or meet of the covers it names."""
    def op(sc, args):
        cov = combine(*_listed(args["covers"], f"{args.what}: argument "
                               f"'covers'", sc.cover, pair))
        return {"dim": cov.C.dim, "blocks": block_dims(cov.C)}
    return op


def _op_admissible(sc, args):
    rep = admissible(*_system_and_cover(sc, args))
    out = {"verdict": rep.verdict}
    if rep.witness is not None:
        s, y = rep.witness
        out["witness_element"] = s
        out["witness"] = mat_to_json(y)
        out["witness_hash"] = digest(y)
    if rep.extension is not None:
        out["extension_hash"] = digest([b.images for b in rep.extension])
    return out


def _op_inner(sc, args):
    if "cover" in args:
        rep = locally_inner(*_system_and_cover(sc, args))
        kind = "locally_inner"
    else:
        rep = inner_in_itself(sc.system(args["system"]))
        kind = "inner_in_itself"
    out = {"kind": kind, "found": rep.found}
    if rep.found:
        out["exact_group_law"] = rep.exact_group_law
        out["unitaries_hash"] = digest(rep.unitaries)
        if "moduli" in args:
            # entrywise |U_s| against the given matrices, one per element
            mods = _matrices(args, "moduli", len(rep.unitaries[0]),
                             len(rep.unitaries))
            diff = np.abs(rep.unitaries) - np.abs(mods)
            out["moduli_match"] = bool(
                np.linalg.norm(diff, axis=(1, 2)).max() < MEMBER_TOL)
    else:
        out["diagnostics"] = {k: v for k, v in rep.diagnostics.items()}
    return out


def _op_crossed(sc, args):
    if "cover" in args:
        cp = relative_crossed(*_system_and_cover(sc, args))
    else:
        cp = full_crossed(sc.system(args["system"]))
    D = diagonal(cp.subalgebra)
    out = {"cstar_dim": cp.algebra.dim,
           "dim": cp.subalgebra.dim,
           "cstar_blocks": block_dims(cp.algebra),
           "diagonal_dim": D.dim,
           "diagonal_blocks": block_dims(D),
           "covariance_residual": cp.covariance_residual()}
    if "members" in args:
        mats = _matrices(args, "members", cp.ambient.dim)
        out["members_contained"] = cp.subalgebra.residual(mats) <= MEMBER_TOL
    return out


def _op_crossed_equivalent(sc, args):
    systems = _listed(args["systems"], f"{args.what}: argument 'systems'",
                      sc.system, pair=True)
    return {"equivalent": crossed_equivalent(*map(full_crossed, systems))}


def _op_trivialization(sc, args):
    ds, cov = _system_and_cover(sc, args)
    _, cp_a, cp_i = trivialization_iso(ds, cov, inner_in_itself(ds))
    return {"dim": cp_a.subalgebra.dim, "iota_dim": cp_i.subalgebra.dim}


def _op_correspondence(sc, args):
    """The admissibility correspondence: below an admissible upper cover,
    the lower cover is admissible exactly when the kernel of the induced
    morphism is invariant under the extended action."""
    ds, up, low = _one_algebra(args.what, sc.system(args["system"]),
                               sc.cover(args["upper"]),
                               sc.cover(args["lower"]))
    rep = admissible(ds, up)
    m = induced_morphism(up, low)
    out = {"upper": rep.verdict,
           "morphism": not isinstance(m, MorphismAbsence)}
    if rep.verdict == ADMISSIBLE and out["morphism"]:
        out["lower_admissible"] = admissible(ds, low).verdict == ADMISSIBLE
        out["kernel_invariant"] = invariant_kernel_check(ds, rep, m)
    return out


def _op_partial(sc, args):
    rep = verify_partial_recovery(*_system_and_cover(sc, args))
    return {"verified": rep.verified,
            "subalgebra_dim": rep.subalgebra_dim,
            "partial_blocks": list(rep.partial_blocks),
            "crossed_blocks": list(rep.crossed_blocks),
            "residual": rep.residual}


OPS = {
    "check-cover": _op_check_cover,
    "structure": _op_structure,
    "shilov": _op_shilov,
    "envelope": _op_envelope,
    "order": _op_order,
    "join": _lattice_op(join),
    "meet": _lattice_op(meet, pair=True),
    "admissible": _op_admissible,
    "inner": _op_inner,
    "crossed": _op_crossed,
    "crossed-equivalent": _op_crossed_equivalent,
    "trivialization": _op_trivialization,
    "correspondence": _op_correspondence,
    "partial": _op_partial,
}


def expect_matches(expected, actual):
    """Recursive containment check of an expectation against a result."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(k in actual and expect_matches(v, actual[k])
                   for k, v in expected.items())
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)) \
                or len(expected) != len(actual):
            return False
        return all(expect_matches(e, a)
                   for e, a in zip(expected, actual))
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(float(expected) - float(actual)) <= EXPECT_TOL
    return expected == actual


class _Args(dict):
    """A check's arguments; a missing one is a ScenarioError."""

    def __init__(self, op, items):
        super().__init__(items)
        self.what = f"op {op!r}"

    def __missing__(self, key):
        raise ScenarioError(f"{self.what} needs argument {key!r}")


def run_check(sc, check):
    """Run one check; its report entry carries the check's name, if any."""
    op = _object(check, "check").get("op")
    if op not in OPS:
        raise ScenarioError(f"unknown op {op!r}")
    args = _Args(op, {k: v for k, v in check.items()
                      if k not in ("op", "expect", "name")})
    entry = {"op": op, "args": dict(args)}
    if "name" in check:
        entry["name"] = check["name"]
    try:
        result = OPS[op](sc, args)
        entry["result"] = result
        entry["status"] = "ok"
        if "expect" in check:
            entry["pass"] = expect_matches(check["expect"], result)
        else:
            entry["pass"] = True
    except Undecided as exc:
        entry["status"] = "inconclusive"
        entry["detail"] = str(exc)
        entry["pass"] = False
    except CoverError as exc:
        entry["status"] = "error"
        entry["error"] = type(exc).__name__
        entry["detail"] = _message(exc)
        entry["pass"] = False
    return entry


def run_scenario(source):
    """Execute every check in a scenario; returns the report dict."""
    sc = load_scenario(source)
    checks = sc.raw.get("checks", [])
    if not isinstance(checks, list):
        raise ScenarioError("checks must be a list")
    entries = [run_check(sc, c) for c in checks]
    report = {
        "seed": current().seed,
        "tol": MEMBER_TOL,
        "checks": entries,
        "all_pass": all(e["pass"] for e in entries),
        "inconclusive": any(e["status"] == "inconclusive" for e in entries),
    }
    return report
