"""The benchmark's four closed-loop workloads.

Each workload has ``make_inputs(seed, workdir)``, which builds its inputs
without calling a cb oracle, ``run_op(inp)``, the timed call into opalg's
public functions, and ``gate(inp, result)``, which checks the result and
returns ``DECIDED``, ``INCONCLUSIVE`` or a string naming what was wrong.
``run_traced_op`` is ``run_op`` under a tracer; it differs only where the
op runs in a child process.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import runpy
import subprocess
import sys

import numpy as np

import gen
from opalg import cb, corpus, covers, crossed, dynamics, suite
from opalg.linalg import Ambient

DECIDED = "decided"
INCONCLUSIVE = "inconclusive"
HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    name = ""
    # op_s.tail percentile; None means the maximum, for workloads whose runs
    # hold fewer than twenty ops.  A fixed choice keeps runs comparable.
    tail_p = None
    warm_up = True

    def prepare(self, inp):
        """Untimed work before each op."""

    def run_traced_op(self, tracer, inp):
        with tracer.running():
            return self.run_op(inp)


# ---------------------------------------------------------------------------
# suite: one cold paper_suite()


def _reset_corpus():
    """Drop every memoised corpus object, so that covers, Shilov data and
    envelopes are recomputed as on a fresh `opalg paper-suite`."""
    for value in vars(corpus).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


class Suite(Workload):
    name = "suite"
    warm_up = False  # every op is cold by definition

    def make_inputs(self, seed, workdir):
        return [None]

    def prepare(self, inp):
        _reset_corpus()

    def run_op(self, inp):
        return suite.paper_suite()

    def gate(self, inp, report):
        if not report["all_pass"]:
            failing = [e["name"] for e in report["verdicts"]["checks"]
                       if not e["pass"]]
            return "golden checks failed: " + ", ".join(failing)
        return DECIDED

    @staticmethod
    def digest(report):
        return hashlib.sha256(report["verdict_text"].encode()).hexdigest()


# ---------------------------------------------------------------------------
# cb-fuzz: one cc_check on a seeded map near cb norm 1

FUZZ_POOL = 400


class CbFuzz(Workload):
    name = "cb-fuzz"
    # 15-s runs hold 60-110 ops, so p75 keeps ten ops beyond it; a fixed
    # percentile keeps runs comparable, and run.tail lowers it only as far
    # as a shorter run needs
    tail_p = 75

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        return [gen.fuzz_case(rng, i) for i in range(FUZZ_POOL)]

    def run_op(self, case):
        return cb.cc_check(case.phi)

    def gate(self, case, rep):
        truth = case.truth
        if rep.verdict == cb.NOT_CC:
            if truth == "CC":
                return f"NotCC for a {case.kind} map with t={case.t:.4f}"
            if not cb.verify_falsifier(case.phi, rep.certificate):
                return "NotCC certificate does not re-verify"
            return DECIDED
        if rep.verdict == cb.CC:
            if truth == "NotCC":
                return f"CC for a {case.kind} map with t={case.t:.4f}"
            if not cb.verify_choi_certificate(rep.certificate):
                return "CC certificate does not re-verify"
            return DECIDED
        if rep.verdict == cb.INCONCLUSIVE:
            return INCONCLUSIVE
        return f"unexpected verdict {rep.verdict!r}"


# ---------------------------------------------------------------------------
# cover-lattice: one seeded incidence-algebra instance

LATTICE_POOL = 24


class CoverLattice(Workload):
    name = "cover-lattice"

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        return [gen.lattice_case(rng) for _ in range(LATTICE_POOL)]

    def run_op(self, case):
        def cover(subset, name):
            amb = Ambient((gen.POSET_SIZE, len(subset)))
            # completely isometric by construction (see gen), as for the
            # library's own join and inclusion covers
            return covers.make_cover(case.A, amb,
                                     case.compression_images(subset),
                                     name=name, verify=False)

        c_s = cover(case.S, "S")
        c_mirror = cover(case.mirror(case.S), "swap(S)")
        ds = dynamics.make_system(
            case.A, corpus.Z2,
            {0: np.eye(gen.POSET_SIZE, dtype=complex), 1: case.swap},
            verify=False)
        sym = covers.join(c_s, c_mirror, name="symmetrised")
        blocks = sym.structure().block_dims
        rep = dynamics.admissible(ds, sym)
        below = covers.leq(c_s, sym)
        cp = crossed.relative_crossed(ds, sym, report=rep) \
            if rep.verdict == dynamics.ADMISSIBLE else None
        return {"admissible": rep.verdict, "leq_join": below,
                "crossed_dim": None if cp is None else cp.subalgebra.dim,
                "blocks": blocks, "C_dim": sym.C.dim, "A_dim": case.A.dim}

    def gate(self, case, facts):
        bad = []
        if facts["admissible"] != dynamics.ADMISSIBLE:
            bad.append("symmetrised join not Admissible")
        if not facts["leq_join"]:
            bad.append("c not below join(c, c')")
        if facts["crossed_dim"] != facts["A_dim"] * corpus.Z2.order:
            bad.append(f"crossed product dimension {facts['crossed_dim']}")
        if sum(m * m for m in facts["blocks"]) != facts["C_dim"]:
            bad.append("block dims do not account for C.dim")
        return "; ".join(bad) if bad else DECIDED


# ---------------------------------------------------------------------------
# cli-scenario: one `opalg run` of the shipped T2 example, as a child


EXAMPLE_SCRIPT = os.path.join("scripts", "make_example_scenario.py")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


class CliScenario(Workload):
    name = "cli-scenario"

    def make_inputs(self, seed, workdir):
        scenario = runpy.run_path(EXAMPLE_SCRIPT)["build"]()
        path = os.path.join(workdir, "t2.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        return [{"path": path, "seed": seed, "workdir": workdir}]

    def _run(self, argv):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), timeout=120)
        return proc.returncode, proc.stdout

    def run_op(self, inp):
        return self._run([sys.executable, "-m", "opalg.cli", "run",
                          inp["path"], "--seed", str(inp["seed"])])

    def run_traced_op(self, tracer, inp):
        out = os.path.join(inp["workdir"], "trace.json")
        result = self._run([sys.executable, os.path.join(HERE, "cli_child.py"),
                            out, "run", inp["path"],
                            "--seed", str(inp["seed"])])
        with open(out) as fh:
            tracer.merge(json.load(fh))
        os.remove(out)
        return result

    def gate(self, inp, result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON"
        return DECIDED if report.get("all_pass") is True else "all_pass false"


WORKLOADS = {w.name: w for w in (Suite, CbFuzz, CoverLattice, CliScenario)}
