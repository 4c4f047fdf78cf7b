"""Tests for the benchmark's own code: generator ground truth, the tracer,
and one small op per workload through its correctness gate.

Run from the root of the checkout: python -m pytest perfbench -q
"""

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("seed", range(5))
def test_compression_norm_at_identity_is_t(seed):
    rng = np.random.default_rng(seed)
    case = gen.fuzz_case(rng, 2 * seed)
    assert case.kind == "compression"
    phi_I = case.phi(np.eye(gen.DOMAIN_SIZE))
    assert np.linalg.norm(phi_I, 2) == pytest.approx(case.t, abs=1e-12)
    assert case.truth == ("CC" if case.t <= 1 else "NotCC")


@pytest.mark.parametrize("seed", range(5))
def test_kraus_haagerup_bound_is_t(seed):
    rng = np.random.default_rng(seed)
    t = gen.draw_t(rng, seed % 2)
    As, Bs = gen.kraus_operators(rng, t, 3, 2)
    assert gen.haagerup_bound(As, Bs) == pytest.approx(t, abs=1e-12)


def test_draws_stay_off_the_boundary():
    rng = np.random.default_rng(0)
    ts = [gen.draw_t(rng, band) for band in (0, 1) * 100]
    assert all(0.85 <= t <= 0.97 or 1.03 <= t <= 1.2 for t in ts)


def test_generators_are_seeded():
    a = gen.fuzz_case(np.random.default_rng(3), 5)
    b = gen.fuzz_case(np.random.default_rng(3), 5)
    assert a.kind == b.kind and a.t == b.t
    assert np.array_equal(a.phi.images, b.phi.images)


def test_lattice_subsets_are_convex_with_distinct_mirrors():
    case = gen.lattice_case(np.random.default_rng(0))
    points = range(gen.POSET_SIZE)
    for S in gen.MOVED:
        # convex: x <= z <= y with x, y in S puts z in S
        assert all(z in S for x in S for y in S for z in points
                   if (x, z) in gen.ORDER and (z, y) in gen.ORDER)
        assert case.mirror(S) != S and case.mirror(S) in gen.MOVED


def test_rebinding_reaches_module_level_imports():
    from opalg import corpus, dynamics
    from opalg.cb import ci_check
    A = corpus.t2_algebra()
    d = np.diag([1.0, -1.0]).astype(complex)
    tracer = Tracer()
    with installed(tracer), tracer.running():
        assert dynamics.ci_check is not ci_check
        dynamics.make_system(A, corpus.Z2, {0: np.eye(2), 1: d})
    assert dynamics.ci_check is ci_check
    # make_system reaches ci_check through `from .cb import ci_check`
    assert tracer.stats["cb.ci_check"].calls == 1
    assert tracer.stats["cb.cc_check"].calls >= 1


def test_rebinding_counts_the_svd_inside_norm():
    x = np.random.default_rng(0).standard_normal((4, 4))
    tracer = Tracer()
    with installed(tracer), tracer.running():
        np.linalg.norm(x, 2)
    assert tracer.stats["numpy.linalg.svd"].calls == 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    with tracer.running():
        traced_outer()
    out, inn = tracer.stats["outer"], tracer.stats["inner"]
    assert out.s == pytest.approx(out.self_s + inn.s, abs=1e-6)
    assert 0.01 <= out.self_s < 0.02 <= inn.self_s
    assert tracer.self_total() == pytest.approx(out.s, abs=1e-6)


def test_traced_run_pairs_each_input():
    class Sleepy(workloads.Workload):
        def run_op(self, inp):
            time.sleep(0.002)
            return inp

        def gate(self, inp, result):
            return workloads.DECIDED if result == inp else "wrong"

    records = run.run_loop(Sleepy(), [1, 2, 3], 0.01, Tracer())
    assert len(records) % 2 == 0
    assert [r["traced"] for r in records[:4]] == [True, False, False, True]
    assert all(r["outcome"] == workloads.DECIDED for r in records)
    assert len(run.overhead_ratios(records)) == len(records) // 2


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([1.0] * 5 + [2.0], None) == (100, 2.0)
    assert run.tail([float(i) for i in range(19)], 75) == (100, 18.0)
    assert run.tail([float(i) for i in range(101)], 75) == (75, 75.0)
    p, value = run.tail([float(i) for i in range(30)], 75)
    assert p == pytest.approx(100 * 2 / 3) and value == pytest.approx(58 / 3)


def _one_op(w, inp):
    w.prepare(inp)
    return w.gate(inp, w.run_op(inp))


def test_cb_fuzz_op_passes_gate(tmp_path):
    w = workloads.CbFuzz()
    rng = np.random.default_rng(0)
    for t in (0.9, 1.1):
        case = gen.compression_case(rng, t=t)
        assert _one_op(w, case) in (workloads.DECIDED, workloads.INCONCLUSIVE)


def test_cb_fuzz_gate_flags_contradictions():
    from opalg import cb
    case = gen.compression_case(np.random.default_rng(0), t=0.9)
    wrong = cb.CbReport(cb.NOT_CC, None)
    assert workloads.CbFuzz().gate(case, wrong).startswith("NotCC for")


def test_cover_lattice_op_passes_gate(tmp_path):
    w = workloads.CoverLattice()
    case = w.make_inputs(0, str(tmp_path))[0]
    assert _one_op(w, case) == workloads.DECIDED


def test_cli_scenario_op_passes_gate(at_root, tmp_path):
    w = workloads.CliScenario()
    inp = w.make_inputs(0, str(tmp_path))[0]
    assert _one_op(w, inp) == workloads.DECIDED


def test_suite_op_passes_gate_on_cheap_checks(monkeypatch):
    from opalg import suite
    cheap = {"schur-map-alone-rejected", "t2-diag-cover-structure"}
    monkeypatch.setattr(suite, "CHECKS",
                        [c for c in suite.CHECKS if c[0] in cheap])
    w = workloads.Suite()
    assert _one_op(w, None) == workloads.DECIDED
    from opalg import corpus
    assert corpus.t2_diag_cover.cache_info().currsize == 1
    w.prepare(None)
    assert corpus.t2_diag_cover.cache_info().currsize == 0


def test_metric_names_match_benchmark_json():
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    records = [{"s": 1.0, "outcome": workloads.DECIDED, "traced": True},
               {"s": 0.9, "outcome": workloads.DECIDED, "traced": False}]
    e2e, _ = run.end_to_end(records, [0.2], None)
    layers = run.per_layer(Tracer(), records)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
