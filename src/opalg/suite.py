"""The golden suite: every worked example and law of the paper, run as
the checks of the paper scenario (`corpus.paper_scenario`) on a freshly
built corpus.  Each check recomputes a fact (structure, admissibility,
Shilov data, crossed products, partial recovery, lattice laws) and matches
it against its frozen expectation.
"""

from __future__ import annotations

import time

from . import corpus
from .linalg import MEMBER_TOL, using
from .scenario import run_check
from .serialize import dumps

# (name, check) in the order of the paper scenario
CHECKS = [(c["name"], c) for c in corpus.PAPER_CHECKS]


def paper_suite(seed=0):
    """Run every golden check on a freshly built corpus, searches seeded
    by `seed`; returns the full report dict.  Covers certified earlier in
    the process are not reused, so the run does the same work, under the
    current RunConfig, wherever it is called.

    report["verdicts"] is the deterministic section: serialize it with
    serialize.dumps for byte-stable comparison across runs."""
    entries, timings = [], {}
    with using(seed=seed):
        corpus.clear_caches()
        sc = corpus.paper()
        for name, check in CHECKS:
            t0 = time.perf_counter()
            entries.append(run_check(sc, check))
            timings[name] = time.perf_counter() - t0
    verdicts = {"seed": seed, "tol": MEMBER_TOL, "checks": entries}
    return {
        "verdicts": verdicts,
        "verdict_text": dumps(verdicts, indent=2),
        "all_pass": all(e["pass"] for e in entries),
        "inconclusive": any(e["status"] == "inconclusive" for e in entries),
        "timings_s": timings,
    }
