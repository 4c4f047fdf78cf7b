#!/usr/bin/env python3
"""Benchmark for opalg: closed-loop workloads timed from outside the library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cb-fuzz --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One client runs ops back to back until --seconds have passed (at least one
op).  Every op's output is checked; a failed check is a failed op.  With
--trace 0 the last line is a JSON object with the end-to-end metrics; with
--trace 1 each input runs once under the layer tracer and once without it,
and the JSON carries the per-layer metrics of the traced ops, the tracing
overhead measured against their untraced twins and the share of traced
wall time that layer spans cover.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("suite", "cb-fuzz", "cover-lattice", "cli-scenario")
# One BLAS thread: on a 2-vCPU machine a second BLAS thread waits on the
# first whenever the host deschedules a vCPU, which made run-to-run times
# spread far more (see NOTES.md).  One is never more than nproc.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7


def pin_blas_threads():
    """Fix the BLAS thread count before numpy loads; children inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def reference_key(env):
    return f"threads={env['blas_threads']} numpy={env['numpy']} " \
           f"blas={env['blas']}"


def import_probe():
    """Wall time of a fresh interpreter importing opalg."""
    from workloads import child_env
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import opalg"], check=True,
                   env=child_env())
    return time.perf_counter() - t0


def tail(times, p):
    """(percentile, value): the p-th percentile, lowered to keep at least ten
    samples beyond it when a run is short; the maximum when p is None or
    the run holds fewer than twenty ops."""
    n = len(times)
    if p is None or n < 20:
        return 100, max(times)
    p = min(p, 100 * (1 - 10 / n))
    xs = sorted(times)
    h = (n - 1) * p / 100
    lo = int(h)
    return p, xs[lo] + (h - lo) * (xs[min(lo + 1, n - 1)] - xs[lo])


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_one(w, inp, tracer=None):
    """One op and its gate.  With a tracer the layer wrappers are installed
    around the op only, outside its timed region."""
    from tracer import installed
    rec = {"s": None, "digest": None, "traced": tracer is not None}
    t0 = time.perf_counter()
    try:
        w.prepare(inp)
        with installed(tracer) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = (w.run_op(inp) if tracer is None
                      else w.run_traced_op(tracer, inp))
            rec["s"] = time.perf_counter() - t0
        rec["outcome"] = w.gate(inp, result)
        if hasattr(w, "digest"):
            rec["digest"] = w.digest(result)
    except Exception as exc:  # a crash is a failed op, not a failed run
        rec["outcome"] = f"{type(exc).__name__}: {exc}"
        if rec["s"] is None:
            rec["s"] = time.perf_counter() - t0
    return rec


def run_loop(w, inputs, seconds, tracer=None):
    """Closed loop over the inputs; one record per op.  With a tracer each
    input runs twice, traced and untraced, in an order that alternates from
    input to input, so that the tracing overhead is measured on the same
    inputs under the same host conditions."""
    modes = (None,) if tracer is None else (tracer, None)
    records = []
    start = time.perf_counter()
    k = 0
    while not records or time.perf_counter() - start < seconds:
        inp = inputs[k % len(inputs)]
        for mode in (modes if k % 2 == 0 else modes[::-1]):
            records.append(run_one(w, inp, mode))
        k += 1
    return records


def overhead_ratios(records):
    """Traced over untraced time for each input of a traced run."""
    return [a["s"] / b["s"] if a["traced"] else b["s"] / a["s"]
            for a, b in zip(records[::2], records[1::2])]


def end_to_end(records, setup_s, tail_p):
    times = [r["s"] for r in records]
    decided = sum(r["outcome"] == "decided" for r in records)
    p, tail_s = tail(times, tail_p)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "decided_frac": (decided / len(records), "fraction"),
    }
    return metrics, f"p{p:g} of {len(times)} ops"


def per_layer(tracer, records):
    traced = [r["s"] for r in records if r["traced"]]
    n = len(traced)
    st = tracer.stats
    counts = tracer.counts
    metrics = {}

    def per_op(name, value, unit):
        metrics[name] = (value / n, unit)

    for span in ("cb.cc_check", "cb.ci_check", "cb.falsifier_search",
                 "cb.choi_feasibility", "numpy.linalg.eigh",
                 "numpy.linalg.svd", "numpy.einsum",
                 "linalg.generate_algebra", "linalg.hs_orthonormalize",
                 "structure.center", "structure.minimal_central_projections",
                 "dynamics.admissible"):
        per_op(f"{span}.calls", st[span].calls, "count/op")
    for span in ("cb.cc_check", "numpy.linalg.eigh", "numpy.linalg.svd",
                 "numpy.einsum", "linalg.generate_algebra",
                 "structure.center", "structure.minimal_central_projections",
                 "covers.make_cover", "covers.graph_closure",
                 "covers.induced_morphism", "covers.shilov",
                 "dynamics.admissible", "crossed.cstar_crossed",
                 "crossed.relative_crossed",
                 "partialact.verify_partial_recovery",
                 "scenario.load_scenario", "scenario.run_check",
                 "serialize.dumps"):
        per_op(f"{span}.s", st[span].s, "s/op")
    for span in ("cb.falsifier_search", "cb.choi_feasibility",
                 "linalg.hs_orthonormalize"):
        per_op(f"{span}.self_s", st[span].self_s, "s/op")
    for key in ("cb.falsifier_search.found", "cb.choi_feasibility.iters",
                "cb.choi_feasibility.converged", "cb.choi_feasibility.stalled",
                "numpy.linalg.eigh.n3_sum"):
        per_op(key, counts[key], "count/op")
    calls = st["cb.falsifier_search"].calls
    metrics["cb.falsifier_search.hit_frac"] = (
        counts["cb.falsifier_search.found"] / calls if calls else 0.0,
        "fraction")
    metrics["linalg.hs_orthonormalize.rows_max"] = (
        tracer.maxima["linalg.hs_orthonormalize.rows_max"], "rows")
    per_op("cli.import_s", st["cli.import"].s, "s/op")
    metrics["trace.coverage"] = (tracer.self_total() / sum(traced),
                                 "fraction")
    metrics["trace.overhead"] = (
        statistics.median(overhead_ratios(records)) - 1, "fraction")
    metrics["trace.ops"] = (n, "count")
    return metrics


def run_workload(args):
    pin_blas_threads()
    sys.path[:0] = [os.path.abspath("src"), HERE]
    import workloads
    from tracer import Tracer

    env = environment()
    w = workloads.WORKLOADS[args.workload]()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t_import = import_probe()
            t0 = time.perf_counter()
            inputs = w.make_inputs(args.seed, workdir)
            setup_s.append(t_import + time.perf_counter() - t0)
        if w.warm_up:
            # first-call costs (lazy imports, allocator growth) stay out of
            # the timed ops; a failure here shows again in the timed loop
            try:
                w.prepare(inputs[0])
                w.run_op(inputs[0])
            except Exception:
                pass
        tracer = Tracer() if args.trace else None
        records = run_loop(w, inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r["outcome"] for r in records
                if r["outcome"] not in ("decided", "inconclusive")]
    inconclusive = sum(r["outcome"] == "inconclusive" for r in records)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={w.name} seed={args.seed} ops={len(records)} "
          f"inconclusive={inconclusive} failed={len(failures)} "
          f"correct={not failures}")
    for msg in sorted(set(failures))[:10]:
        print(f"  failed: {msg}")
    ref = load_references().get(reference_key(env))
    for d in sorted({r["digest"] for r in records if r["digest"]}):
        status = ("no reference" if ref is None
                  else "match" if d == ref else "MISMATCH")
        print(f"  verdict_text sha256 {d} ({status} for "
              f"{reference_key(env)})")
    if args.trace:
        metrics = per_layer(tracer, records)
        ratios = overhead_ratios(records)
        q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        print(f"  traced/untraced op time over {len(ratios)} inputs: "
              f"quartiles {q[0]:.3f} {q[1]:.3f} {q[2]:.3f}")
    else:
        metrics, tail_note = end_to_end(records, setup_s, w.tail_p)
        print(f"  op_s.tail is the {tail_note}; setup_s is the median of "
              f"{len(setup_s)} set-ups from {min(setup_s):.3f} to "
              f"{max(setup_s):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def load_references():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def run_all(args):
    """Every workload in its own process, one after another."""
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "opalg")):
        print("perfbench: run from the root of an opalg checkout "
              "(src/opalg not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
