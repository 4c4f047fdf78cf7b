"""Scenario files: JSON descriptions of ambients, algebras, covers, group
actions and requested checks, plus the dispatcher that runs the checks and
assembles a report.

Schema sketch::

    {
      "ambients":  {"M8": [4, 4]},
      "algebras":  {"A4": {"ambient": "M4", "basis": [[re, im], ...]}},
      "covers":    {"c": {"algebra": "A4", "ambient": "M8",
                          "j": [[re, im], ...]}},
      "group":     {"table": [[0, 1], [1, 0]]},
      "systems":   {"ds": {"algebra": "A4",
                           "action": {"type": "ad", "unitaries": [...]}}},
      "checks":    [{"op": "admissible", "system": "ds", "cover": "c",
                     "expect": {"verdict": "NotAdmissible"}}]
    }

Actions may be given as conjugating unitaries ("ad") or explicit basis
images ("matrices").  Every check entry may carry an "expect" object that
is matched (recursively, floats to tolerance) against the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cb import Undecided
from .covers import (CoverError, MorphismAbsence, OperatorAlgebra, envelope,
                     induced_morphism, join, make_cover, meet, shilov)
from .crossed import full_crossed, relative_crossed
from .dynamics import (FiniteGroup, GroupError, admissible, inner_in_itself,
                       locally_inner, make_system)
from .linalg import (MEMBER_TOL, AlgebraSpan, Ambient, current, diagonal,
                     orthonormal_span)
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

    def cover(self, name):
        """The named cover; one failing its own validation is bad input."""
        try:
            return self.build_cover(name)
        except CoverError as exc:
            raise ScenarioError(f"cover {name!r}: {exc.args[0]}") from exc

    def build_cover(self, name):
        """Build (and cache) a named cover; CoverError propagates so the
        check-cover op can report structured rejections."""
        if name in self._covers:
            return self._covers[name]
        spec = self.raw.get("covers", {}).get(name)
        if spec is None:
            raise ScenarioError(f"unknown cover {name!r}")
        A = self._algebra(spec.get("algebra"))
        amb = self._ambient(spec.get("ambient"))
        try:
            mats = [amb.check(mat_from_json(m)) for m in spec["j"]]
        except Exception as exc:
            raise ScenarioError(f"bad j matrices for cover {name!r}: {exc}")
        if len(mats) != A.dim:
            raise ScenarioError(
                f"cover {name!r}: {len(mats)} images for {A.dim} basis "
                f"elements")
        cov = make_cover(A, amb, mats, name=name)
        self._covers[name] = cov
        return cov

    def _ambient(self, name):
        if name not in self.ambients:
            raise ScenarioError(f"unknown ambient {name!r}")
        return self.ambients[name]

    def _algebra(self, name):
        if name not in self.algebras:
            raise ScenarioError(f"unknown algebra {name!r}")
        return self.algebras[name]

    def system(self, name):
        if name not in self.systems:
            raise ScenarioError(f"unknown system {name!r}")
        return self.systems[name]


def load_scenario(source):
    """Parse a scenario from a path, JSON text, or dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if "\n" not in str(source) and not str(source).lstrip().startswith("{"):
            try:
                with open(source) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ScenarioError(f"cannot read scenario: {exc}")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    sc = Scenario(raw=raw)
    for name, dims in raw.get("ambients", {}).items():
        try:
            sc.ambients[name] = Ambient(tuple(dims))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"ambient {name!r}: {exc}")
    for name, spec in raw.get("algebras", {}).items():
        amb = sc._ambient(spec.get("ambient"))
        try:
            mats = [amb.check(mat_from_json(m)) for m in spec["basis"]]
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
        A = sc._algebra(spec.get("algebra"))
        act = spec.get("action", {})
        kind = act.get("type")
        try:
            if kind == "ad":
                actions = {s: mat_from_json(m)
                           for s, m in enumerate(act["unitaries"])}
            elif kind == "matrices":
                actions = {s: [mat_from_json(m) for m in imgs]
                           for s, imgs in enumerate(act["images"])}
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
    up = sc.cover(args["upper"])
    low = sc.cover(args["lower"])
    m = induced_morphism(up, low)
    if isinstance(m, MorphismAbsence):
        return {"verdict": "Absence", "witness": mat_to_json(m.witness),
                "witness_hash": digest(m.witness)}
    return {"verdict": "Morphism",
            "kernel_blocks": sorted(m.kernel_blocks()),
            "morphism_hash": digest(m.pi.images)}


def _op_join(sc, args):
    cov = join(*[sc.cover(n) for n in args["covers"]])
    return {"dim": cov.C.dim, "blocks": block_dims(cov.C)}


def _op_meet(sc, args):
    names = args["covers"]
    if len(names) != 2:
        raise ScenarioError("meet takes exactly two covers")
    cov = meet(sc.cover(names[0]), sc.cover(names[1]))
    return {"dim": cov.C.dim, "blocks": block_dims(cov.C)}


def _op_admissible(sc, args):
    ds = sc.system(args["system"])
    rep = admissible(ds, sc.cover(args["cover"]))
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
    ds = sc.system(args["system"])
    if "cover" in args:
        rep = locally_inner(ds, sc.cover(args["cover"]))
        kind = "locally_inner"
    else:
        rep = inner_in_itself(ds)
        kind = "inner_in_itself"
    out = {"kind": kind, "found": rep.found}
    if rep.found:
        out["exact_group_law"] = rep.exact_group_law
        out["unitaries_hash"] = digest(rep.unitaries)
    else:
        out["diagnostics"] = {k: v for k, v in rep.diagnostics.items()}
    return out


def _op_crossed(sc, args):
    ds = sc.system(args["system"])
    if "cover" in args:
        cp = relative_crossed(ds, sc.cover(args["cover"]))
    else:
        cp = full_crossed(ds)
    D = diagonal(cp.subalgebra)
    return {"cstar_dim": cp.algebra.dim,
            "dim": cp.subalgebra.dim,
            "cstar_blocks": block_dims(cp.algebra),
            "diagonal_dim": D.dim,
            "diagonal_blocks": block_dims(D),
            "covariance_residual": cp.covariance_residual()}


def _op_partial(sc, args):
    ds = sc.system(args["system"])
    rep = verify_partial_recovery(ds, sc.cover(args["cover"]))
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
    "join": _op_join,
    "meet": _op_meet,
    "admissible": _op_admissible,
    "inner": _op_inner,
    "crossed": _op_crossed,
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
        return abs(float(expected) - float(actual)) <= 1e-6
    return expected == actual


def run_check(sc, check):
    op = check.get("op")
    if op not in OPS:
        raise ScenarioError(f"unknown op {op!r}")
    args = {k: v for k, v in check.items() if k not in ("op", "expect")}
    entry = {"op": op, "args": {k: v for k, v in args.items()}}
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
