"""The golden suite: every worked example and law in one deterministic run.

Each entry recomputes a fact about the corpus (structure, admissibility,
Shilov data, crossed products, partial recovery, lattice laws) and compares
it with the frozen expectation.  The report's verdict section is fully
deterministic: running twice with the same seed yields byte-identical text.
"""

from __future__ import annotations

import time

import numpy as np

from . import corpus
from .covers import (MorphismAbsence, NotCompletelyIsometric, envelope,
                     equivalent, induced_morphism, join, leq, make_cover,
                     meet, shilov)
from .crossed import crossed_equivalent, full_crossed, trivialization_iso
from .dynamics import (ADMISSIBLE, NOT_ADMISSIBLE, admissible,
                       inner_in_itself, invariant_kernel_check, locally_inner)
from .linalg import MEMBER_TOL, diagonal, using
from .partialact import verify_partial_recovery
from .serialize import digest, dumps
from .structure import annihilator, block_dims, ideal_blocks, is_essential


def _check_schur_cover_structure():
    c = corpus.a4_schur_cover()
    data = {"dim": c.C.dim, "blocks": block_dims(c.C)}
    return data, data == {"dim": 22, "blocks": [4, 2, 1, 1]}


def _check_schur_rejection():
    A = corpus.a4_algebra()
    p = corpus.schur_projection_p()
    try:
        make_cover(A, A.ambient, [p * a for a in A.span.basis])
    except NotCompletelyIsometric:
        return {"verdict": "NotCompletelyIsometric"}, True
    return {"verdict": "accepted"}, False


def _check_t2_diag_cover_structure():
    c = corpus.t2_diag_cover()
    data = {"dim": c.C.dim, "blocks": block_dims(c.C)}
    return data, data == {"dim": 6, "blocks": [2, 1, 1]}


def _witness_direction():
    target = np.zeros((8, 8), dtype=complex)
    target[4, 7] = 1.0
    return target


def _check_schur_not_admissible():
    rep = admissible(corpus.a4_system(), corpus.a4_schur_cover())
    data = {"verdict": rep.verdict}
    if rep.witness is None:
        return data, False
    s, y = rep.witness
    overlap = abs(complex(np.vdot(_witness_direction(), y)))
    data["witness_element"] = s
    data["witness_overlap"] = float(overlap)
    data["witness_hash"] = digest(y)
    return data, rep.verdict == NOT_ADMISSIBLE and overlap > 1 - 1e-6


def _check_envelope_admissible_inner():
    ds = corpus.a4_system()
    env = corpus.a4_envelope()
    rep = admissible(ds, env)
    li = locally_inner(ds, env)
    ii = inner_in_itself(ds)
    data = {"admissible": rep.verdict, "locally_inner_in_envelope": li.found,
            "inner_in_itself": ii.found}
    ok = rep.verdict == ADMISSIBLE and li.found and not ii.found
    if li.found:
        U = li.unitaries[1]
        ok = ok and np.linalg.norm(np.abs(U) - np.abs(corpus.a4_swap_unitary())) < 1e-8
        data["unitary_hash"] = digest(U)
    return data, ok


def _check_shilov_schur():
    c = corpus.a4_schur_cover()
    S = shilov(c)
    bs = c.structure()
    env = envelope(c)
    data = {"shilov_block_dims": sorted(bs.block_dims[i] for i in S),
            "envelope_blocks": block_dims(env.C),
            "envelope_matches_inclusion": equivalent(env,
                                                     corpus.a4_inclusion_cover()),
            "shilov_of_envelope": sorted(shilov(env))}
    ok = (data["shilov_block_dims"] == [1, 1, 2]
          and data["envelope_blocks"] == [4]
          and data["envelope_matches_inclusion"]
          and data["shilov_of_envelope"] == [])
    return data, ok


def _check_shilov_t2_diag():
    c = corpus.t2_diag_cover()
    S = shilov(c)
    bs = c.structure()
    J = ideal_blocks(c.C, S)
    ann = annihilator(c.C, J)
    data = {"shilov_block_dims": sorted(bs.block_dims[i] for i in S),
            "annihilator_dim": ann.dim,
            "essential": ann.dim == 0}
    ok = data["shilov_block_dims"] == [1, 1] and ann.dim == 4 \
        and not data["essential"]
    return data, ok


def _check_crossed_comparison():
    cp_a = full_crossed(corpus.a4_system())
    cp_i = full_crossed(corpus.a4_trivial_system())
    Da = diagonal(cp_a.subalgebra)
    Di = diagonal(cp_i.subalgebra)
    data = {"dim_swap": cp_a.subalgebra.dim,
            "dim_trivial": cp_i.subalgebra.dim,
            "diag_blocks_swap": block_dims(Da),
            "diag_blocks_trivial": block_dims(Di),
            "equivalent": crossed_equivalent(cp_a, cp_i)}
    ok = (data["dim_swap"] == 16 and data["dim_trivial"] == 16
          and data["diag_blocks_swap"] == [2, 2]
          and data["diag_blocks_trivial"] == [1] * 8
          and not data["equivalent"])
    return data, ok


def _check_trivialization():
    ds = corpus.t2_system()
    ii = inner_in_itself(ds)
    data = {"inner_in_itself": ii.found}
    if not ii.found:
        return data, False
    ok = True
    for cov in (corpus.t2_inclusion_cover(), corpus.t2_diag_cover()):
        phi, cp_a, cp_i = trivialization_iso(ds, cov, ii)
        key = cov.name
        data[key] = {"dim": cp_a.subalgebra.dim,
                     "iota_dim": cp_i.subalgebra.dim}
        ok = ok and cp_a.subalgebra.dim == 6
    # tensor comparison: the trivial-action crossed product over the
    # envelope is literally span{perm_s (x) a}
    cp_t = full_crossed(corpus.t2_trivial_system())
    amb = cp_t.ambient
    mats = []
    for s, lam in enumerate(cp_t.lambdas):
        perm = np.zeros((2, 2), dtype=complex)
        for t in range(2):
            perm[t, corpus.Z2.mul(corpus.Z2.inv(s), t)] = 1.0
        for a in corpus.t2_algebra().span.basis:
            mats.append(np.kron(perm, a))
    tensor_ok = all(cp_t.subalgebra.contains(m) for m in mats)
    D = diagonal(cp_t.subalgebra)
    data["tensor_model"] = {"dim": cp_t.subalgebra.dim,
                            "matches": bool(tensor_ok),
                            "diag_blocks": block_dims(D)}
    ok = ok and tensor_ok and cp_t.subalgebra.dim == 6 \
        and data["tensor_model"]["diag_blocks"] == [1, 1, 1, 1]
    return data, ok


def _correspondence_pairs():
    tj = join(corpus.t2_diag_cover(), corpus.t2_corner_cover(),
              name="t2-join")
    return [
        ("a4-swap/symmetrized/envelope", corpus.a4_system(),
         corpus.a4_symmetrized_cover(), corpus.a4_envelope(), True),
        ("a4-swap/symmetrized/schur", corpus.a4_system(),
         corpus.a4_symmetrized_cover(), corpus.a4_schur_cover(), False),
        ("a4-swap/envelope/envelope", corpus.a4_system(),
         corpus.a4_envelope(), corpus.a4_envelope(), True),
        ("a4-trivial/schur/envelope", corpus.a4_trivial_system(),
         corpus.a4_schur_cover(), corpus.a4_envelope(), True),
        ("t2-sign/diag/envelope", corpus.t2_system(),
         corpus.t2_diag_cover(), corpus.t2_envelope(), True),
        ("t2-sign/join/corner", corpus.t2_system(), tj,
         corpus.t2_corner_cover(), True),
        ("t2-sign/join/diag", corpus.t2_system(), tj,
         corpus.t2_diag_cover(), True),
    ]


def _check_correspondence():
    data = {}
    ok = True
    for name, ds, upper, lower, expect in _correspondence_pairs():
        up_rep = admissible(ds, upper)
        if up_rep.verdict != ADMISSIBLE:
            data[name] = {"error": "upper cover not admissible"}
            ok = False
            continue
        m = induced_morphism(upper, lower)
        if isinstance(m, MorphismAbsence):
            data[name] = {"error": "no morphism to lower cover"}
            ok = False
            continue
        low_adm = admissible(ds, lower).verdict == ADMISSIBLE
        inv = invariant_kernel_check(ds, up_rep, m)
        data[name] = {"lower_admissible": low_adm,
                      "kernel_invariant": inv, "expected": expect}
        ok = ok and (low_adm == inv == expect)
    return data, ok


def _check_lattice_laws():
    cd, cc_, env = (corpus.t2_diag_cover(), corpus.t2_corner_cover(),
                    corpus.t2_envelope())
    ds = corpus.t2_system()
    jd = join(cd, cc_)
    laws = {
        "join_idempotent": equivalent(join(cd, cd), cd),
        "join_commutative": equivalent(jd, join(cc_, cd)),
        "meet_with_envelope": equivalent(meet(cd, env), env),
        "absorption": equivalent(join(cd, meet(cd, cc_)), cd),
        "envelope_least": leq(env, cd) and leq(env, cc_) and leq(env, jd),
        "join_admissible": admissible(ds, jd).verdict == ADMISSIBLE,
        "meet_admissible": admissible(ds, meet(cd, cc_)).verdict == ADMISSIBLE,
    }
    return laws, all(laws.values())


def _check_partial_recovery():
    ds = corpus.a4_system()
    cov = corpus.a4_schur_cover()
    rep = verify_partial_recovery(ds, cov)
    S = shilov(cov)
    boundary_blocks = sorted(cov.structure().block_dims[i] for i in S)
    data = {"verified": rep.verified,
            "subalgebra_dim": rep.subalgebra_dim,
            "partial_blocks": list(rep.partial_blocks),
            "partial_dim": sum(b * b for b in rep.partial_blocks),
            "residual_below_tol": bool(rep.residual < 1e-6),
            "shilov_not_essential": not is_essential(
                cov.C, ideal_blocks(cov.C, S)),
            # the boundary summand of the partial crossed product: the text
            # of the worked example calls it M2 (+) C, the computed closure
            # says M2 (+) C^2; the computation wins and is reported here
            "boundary_summand_blocks": boundary_blocks}
    ok = (rep.verified and rep.subalgebra_dim == 16
          and list(rep.partial_blocks) == [4, 4, 2, 1, 1]
          and data["partial_dim"] == 38
          and data["residual_below_tol"]
          and boundary_blocks == [1, 1, 2])
    return data, ok


CHECKS = [
    ("schur-cover-structure", _check_schur_cover_structure),
    ("schur-map-alone-rejected", _check_schur_rejection),
    ("t2-diag-cover-structure", _check_t2_diag_cover_structure),
    ("schur-cover-not-admissible", _check_schur_not_admissible),
    ("envelope-admissible-and-inner", _check_envelope_admissible_inner),
    ("shilov-and-envelope-a4", _check_shilov_schur),
    ("shilov-t2-diag", _check_shilov_t2_diag),
    ("crossed-product-comparison", _check_crossed_comparison),
    ("trivialization-t2", _check_trivialization),
    ("admissibility-correspondence", _check_correspondence),
    ("lattice-laws-t2", _check_lattice_laws),
    ("partial-recovery", _check_partial_recovery),
]


def paper_suite(seed=0):
    """Run every golden check on a freshly built corpus, searches seeded
    by `seed`; returns the full report dict.  Covers certified earlier in
    the process are not reused, so the run does the same work, under the
    current RunConfig, wherever it is called.

    report["verdicts"] is the deterministic section: serialize it with
    serialize.dumps for byte-stable comparison across runs."""
    entries = []
    timings = {}
    with using(seed=seed):
        corpus.clear_caches()
        for name, fn in CHECKS:
            t0 = time.perf_counter()
            data, ok = fn()
            timings[name] = time.perf_counter() - t0
            entries.append({"name": name, "pass": bool(ok), "data": data})
    verdicts = {"seed": seed, "tol": MEMBER_TOL, "checks": entries}
    return {
        "verdicts": verdicts,
        "verdict_text": dumps(verdicts, indent=2),
        "all_pass": all(e["pass"] for e in entries),
        "timings_s": timings,
    }
