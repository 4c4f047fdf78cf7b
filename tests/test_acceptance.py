"""End-to-end acceptance checks.

Each test covers one headline capability, re-deriving the expected values
with the public API; run with `pytest -v` for one pass/fail line per
criterion (the explicit verdict line below also shows under `-s`)."""

import time

import numpy as np
import pytest

from opalg import corpus
from opalg.cb import (Undecided, choi_feasibility, falsifier_search,
                      LinearMap, verify_certificate, verify_falsifier)
from opalg.covers import (envelope, equivalent, induced_morphism, join, leq,
                          meet, shilov)
from opalg.crossed import crossed_equivalent, full_crossed, \
    trivialization_iso
from opalg.dynamics import (ADMISSIBLE, NOT_ADMISSIBLE, admissible,
                            inner_in_itself, invariant_kernel_check)
from opalg.linalg import Ambient, diagonal, orthonormal_span, using
from opalg.partialact import verify_partial_recovery
from opalg.structure import (annihilator, blocks_of_ideal, ideal_blocks,
                             minimal_central_projections)
from opalg.suite import paper_suite


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _blocks(span):
    return list(minimal_central_projections(span).block_dims)


def test_criterion_1_schur_cover_and_witness():
    """The example cover has C*-structure M4+M2+C+C; the swap action does
    not extend to it, and the canonical witness is the E14 direction of the
    second summand."""
    c = corpus.a4_schur_cover()
    ok = c.C.dim == 22 and _blocks(c.C) == [4, 2, 1, 1]
    rep = admissible(corpus.a4_system(), c)
    ok = ok and rep.verdict == NOT_ADMISSIBLE and rep.witness is not None
    if rep.witness is not None:
        s, y = rep.witness
        target = np.zeros((8, 8), dtype=complex)
        target[4, 7] = 1.0
        overlap = abs(complex(np.vdot(target, y)))
        ok = ok and s == 1 and overlap > 1 - 1e-6
    _report("1 cover-structure-and-witness", ok)


def test_criterion_2_shilov_and_envelope():
    """Shilov data of both worked covers, including essentiality of the
    boundary ideal."""
    c = corpus.a4_schur_cover()
    S = shilov(c)
    bs = c.structure()
    ok = sorted(bs.block_dims[i] for i in S) == [1, 1, 2]
    env = envelope(c)
    ok = ok and env.C.dim == 16 \
        and equivalent(env, corpus.a4_inclusion_cover()) \
        and shilov(env) == frozenset()
    cd = corpus.t2_diag_cover()
    Sd = shilov(cd)
    bsd = cd.structure()
    ok = ok and sorted(bsd.block_dims[i] for i in Sd) == [1, 1]
    J = ideal_blocks(cd.C, Sd)
    ann = annihilator(cd.C, J)
    ann_dims = sorted(bsd.block_dims[i] for i in blocks_of_ideal(cd.C, ann))
    ok = ok and ann.dim == 4 and ann_dims == [2]
    _report("2 shilov-and-envelope", ok)


def test_criterion_3_crossed_product_comparison():
    """Crossed products by the swap action and the trivial action have the
    same dimension but different diagonals and are not isomorphic over the
    identity fiber."""
    cp_a = full_crossed(corpus.a4_system())
    cp_i = full_crossed(corpus.a4_trivial_system())
    ok = cp_a.subalgebra.dim == 16 and cp_i.subalgebra.dim == 16
    ok = ok and _blocks(diagonal(cp_a.subalgebra)) == [2, 2]
    ok = ok and _blocks(diagonal(cp_i.subalgebra)) == [1] * 8
    ok = ok and not crossed_equivalent(cp_a, cp_i)
    _report("3 crossed-product-comparison", ok)


def test_criterion_4_trivialization():
    """An action inner in the algebra itself trivializes: the twisted and
    untwisted crossed products are isomorphic, over both T2 covers, and the
    untwisted one matches the tensor model."""
    ds = corpus.t2_system()
    ii = inner_in_itself(ds)
    ok = ii.found and ii.exact_group_law
    for cov in (corpus.t2_inclusion_cover(), corpus.t2_diag_cover()):
        phi, cp_a, cp_i = trivialization_iso(ds, cov, ii)
        ok = ok and cp_a.subalgebra.dim == cp_i.subalgebra.dim == 6
    cp_t = full_crossed(corpus.t2_trivial_system())
    mats = []
    for s, _ in enumerate(cp_t.lambdas):
        perm = np.zeros((2, 2), dtype=complex)
        for t in range(2):
            perm[t, corpus.Z2.mul(corpus.Z2.inv(s), t)] = 1.0
        for a in corpus.t2_algebra().span.basis:
            mats.append(np.kron(perm, a))
    ok = ok and all(cp_t.subalgebra.contains(m) for m in mats)
    ok = ok and _blocks(diagonal(cp_t.subalgebra)) == [1, 1, 1, 1]
    _report("4 trivialization", ok)


def test_criterion_5_admissibility_correspondence():
    """On every (system, admissible upper cover, lower cover) triple of the
    paper scenario's correspondence checks, kernel invariance of the
    connecting morphism agrees with direct admissibility of the lower
    cover."""
    sc = corpus.paper()
    pairs = [c for c in corpus.paper_scenario()["checks"]
             if c["op"] == "correspondence"]
    ok = len(pairs) >= 6
    disagreements = 0
    for c in pairs:
        ds = sc.system(c["system"])
        upper, lower = sc.cover(c["upper"]), sc.cover(c["lower"])
        expect = c["expect"]["kernel_invariant"]
        up_rep = admissible(ds, upper)
        assert up_rep.verdict == ADMISSIBLE, c["name"]
        m = induced_morphism(upper, lower)
        low_adm = admissible(ds, lower).verdict == ADMISSIBLE
        inv = invariant_kernel_check(ds, up_rep, m)
        if not (low_adm == inv == expect):
            disagreements += 1
    ok = ok and disagreements == 0
    _report("5 admissibility-correspondence", ok)


def test_criterion_6_lattice_laws():
    """Lattice laws over four T2 covers, up to cover equivalence."""
    a, b, c = (corpus.t2_diag_cover(), corpus.t2_corner_cover(),
               corpus.t2_inclusion_cover())
    env = corpus.t2_envelope()
    ds = corpus.t2_system()
    ok = equivalent(join(a, a), a)
    ok = ok and equivalent(join(a, b), join(b, a))
    ok = ok and equivalent(join(join(a, b), c), join(a, join(b, c)))
    ok = ok and equivalent(join(a, meet(a, b)), a)
    ok = ok and equivalent(meet(a, join(a, b)), a)
    for cov in (a, b, c, join(a, b)):
        ok = ok and leq(env, cov)
    ok = ok and admissible(ds, join(a, b)).verdict == ADMISSIBLE
    ok = ok and admissible(ds, meet(a, b)).verdict == ADMISSIBLE
    _report("6 lattice-laws", ok)


def test_criterion_7_partial_recovery():
    """The partial crossed product of the example cover recovers A x G, and
    the boundary summand is reported as computed (M2 + C^2, not the M2 + C
    of the informal description)."""
    ds = corpus.a4_system()
    cov = corpus.a4_schur_cover()
    rep = verify_partial_recovery(ds, cov)
    ok = rep.verified and rep.subalgebra_dim == 16
    ok = ok and sorted(rep.partial_blocks, reverse=True) == [4, 4, 2, 1, 1]
    ok = ok and sum(d * d for d in rep.partial_blocks) == 38
    ok = ok and rep.residual < 1e-6
    boundary = sorted(cov.structure().block_dims[i]
                      for i in shilov(cov))
    ok = ok and boundary == [1, 1, 2]
    _report("7 partial-recovery", ok)


def test_criterion_8_oracle_consistency():
    """The two cb oracles never contradict each other on 100 seeded random
    maps between subspaces of M4, every certificate re-verifies, and the
    boundary tests on the whole corpus stay decisive; all inside a ten
    minute budget."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240814)
    amb = Ambient((4,))
    contradictions = 0
    cert_failures = 0
    decided = 0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        basis = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                 for _ in range(d)]
        dom = orthonormal_span(amb, basis)
        scale = float(rng.uniform(0.4, 1.6))
        imgs = [scale * (rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))
                for _ in range(dom.dim)]
        phi = LinearMap(dom=dom, cod=amb, images=np.array(imgs))
        with using(seed=int(rng.integers(1 << 31)), max_iter=20000):
            _, fal = falsifier_search(phi)
            feas, _ = choi_feasibility(phi)
        if fal is not None and feas is not None:
            contradictions += 1
        if fal is not None and not verify_falsifier(phi, fal):
            cert_failures += 1
        if feas is not None and not verify_certificate(feas, phi):
            cert_failures += 1
        if fal is not None or feas is not None:
            decided += 1
    ok = contradictions == 0 and cert_failures == 0 and decided >= 90
    # decisive boundary verdicts across the whole corpus
    try:
        for builder in corpus.COVER_BUILDERS.values():
            shilov(builder())
    except Undecided:
        ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    _report("8 oracle-consistency", ok)


@pytest.mark.slow
def test_criterion_9_determinism():
    """Two from-scratch runs of the golden suite give byte-identical
    verdict text."""
    first = paper_suite(seed=0)
    for builder in corpus.COVER_BUILDERS.values():
        builder.cache_clear()
    for builder in corpus.SYSTEM_BUILDERS.values():
        builder.cache_clear()
    corpus.a4_algebra.cache_clear()
    corpus.t2_algebra.cache_clear()
    second = paper_suite(seed=0)
    ok = first["all_pass"] and second["all_pass"]
    ok = ok and first["verdict_text"].encode() == second["verdict_text"].encode()
    _report("9 determinism", ok)
