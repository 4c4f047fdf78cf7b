"""Span tracer that wraps opalg's layer entry points from outside the library.

Each wrapped function object is rebound in every loaded ``opalg`` and
``numpy.linalg`` module that holds it, so calls made through
``from .cb import ci_check`` are counted as well as calls through the
defining module.  NumPy's ``linalg.eigh``, ``linalg.svd`` and ``einsum`` are
wrapped as the kernel layer; rebinding inside ``numpy.linalg`` counts the
SVD that ``np.linalg.norm(x, 2)`` (opalg's ``operator_norm``) runs through
the bare name ``svd``.

A span's self time is its duration minus the time covered by the spans it
directly encloses.  Inclusive time is counted at the outermost occurrence of
a name only, so recursion is not double counted.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0        # inclusive, outermost occurrences only
    self_s: float = 0.0
    depth: int = 0


def _eigh_n3(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    n = a.shape[-1]
    batch = a.size // (n * n) if n else 0
    return {"n3_sum": batch * n ** 3}


def _rows(args, kwargs, result):
    return {"rows_max": len(args[0]) if args else len(kwargs["mats"])}


def _falsifier(args, kwargs, result):
    return {"found": int(result[1] is not None)}


def _choi(args, kwargs, result):
    cert, diag = result
    return {"iters": diag.get("iterations", 0),
            "converged": int(cert is not None),
            "stalled": int(bool(diag.get("stalled")))}


# modules searched for references to a wrapped function
HOLDER_PREFIXES = ("opalg", "numpy.linalg")
# (module, attribute, span name, observer of (args, kwargs, result))
TARGETS = [
    ("opalg.cb", "cc_check", "cb.cc_check", None),
    ("opalg.cb", "ci_check", "cb.ci_check", None),
    ("opalg.cb", "falsifier_search", "cb.falsifier_search", _falsifier),
    ("opalg.cb", "choi_feasibility", "cb.choi_feasibility", _choi),
    ("opalg.linalg", "generate_algebra", "linalg.generate_algebra", None),
    ("opalg.linalg", "hs_orthonormalize", "linalg.hs_orthonormalize", _rows),
    ("opalg.structure", "center", "structure.center", None),
    ("opalg.structure", "minimal_central_projections",
     "structure.minimal_central_projections", None),
    ("opalg.covers", "make_cover", "covers.make_cover", None),
    ("opalg.covers", "graph_closure", "covers.graph_closure", None),
    ("opalg.covers", "induced_morphism", "covers.induced_morphism", None),
    ("opalg.covers", "shilov", "covers.shilov", None),
    ("opalg.dynamics", "admissible", "dynamics.admissible", None),
    ("opalg.crossed", "cstar_crossed", "crossed.cstar_crossed", None),
    ("opalg.crossed", "relative_crossed", "crossed.relative_crossed", None),
    ("opalg.partialact", "verify_partial_recovery",
     "partialact.verify_partial_recovery", None),
    ("opalg.scenario", "load_scenario", "scenario.load_scenario", None),
    ("opalg.scenario", "run_check", "scenario.run_check", None),
    ("opalg.serialize", "dumps", "serialize.dumps", None),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh", _eigh_n3),
    ("numpy.linalg", "svd", "numpy.linalg.svd", None),
    ("numpy", "einsum", "numpy.einsum", None),
]


class Tracer:
    """Aggregated spans and counters, kept in memory until read."""

    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.active = False
        self._stack = []  # [start, time covered by child spans]

    def _open(self, name):
        st = self.stats[name]
        st.calls += 1
        st.depth += 1
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return st, frame

    def _close(self, st, frame):
        dt = time.perf_counter() - frame[0]
        self._stack.pop()
        st.depth -= 1
        st.self_s += dt - frame[1]
        if st.depth == 0:
            st.s += dt
        if self._stack:
            self._stack[-1][1] += dt

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st, frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(st, frame)
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    if key.endswith("_max"):
                        self.maxima[key] = max(self.maxima[key], value)
                    else:
                        self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around code it runs."""
        st, frame = self._open(name)
        try:
            yield
        finally:
            self._close(st, frame)

    @contextmanager
    def running(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def self_total(self):
        return sum(st.self_s for st in self.stats.values())

    def calls(self):
        return sum(st.calls for st in self.stats.values())

    def merge(self, other):
        """Fold the plain-dict export of another tracer (a child process)
        into this one."""
        for name, d in other["stats"].items():
            st = self.stats[name]
            st.calls += d["calls"]
            st.s += d["s"]
            st.self_s += d["self_s"]
        for k, v in other["counts"].items():
            self.counts[k] += v
        for k, v in other["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)

    def export(self):
        return {"stats": {n: {"calls": st.calls, "s": st.s,
                              "self_s": st.self_s}
                          for n, st in self.stats.items()},
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


@contextmanager
def installed(tracer, targets=TARGETS):
    """Rebind every target in each module that holds it; restore on exit."""
    patches = []
    try:
        for mod_name, attr, name, observe in targets:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            wrapper = tracer.wrap(name, fn, observe)
            holders = [mod] + [m for k, m in list(sys.modules.items())
                               if k.startswith(HOLDER_PREFIXES)
                               and m is not None and m is not mod]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, fn in reversed(patches):
            setattr(holder, key, fn)

