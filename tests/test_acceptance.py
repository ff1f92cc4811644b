"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import json
import random
import time

from cycres import cli, cyc_complex, graph_core, intlinalg
from cycres import resolution_verify as rv
from cycres.poly_ring import term_tails

from conftest import (
    CYCLE4,
    INSTANCES,
    WEIGHTED4,
    WEIGHTED4_ECHELON,
    column_elem,
    column_texts,
    columns,
    k4_digraph,
    parse_elem,
    random_icb_digraph,
)


def verdict(name, ok):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


K4_GOLDEN_GB = [
    "x1*x2*x3 - x4^3",
    "x2^2*x3^2 - x1^2*x4^2",
    "x1^2*x3^2 - x2^2*x4^2",
    "x1^2*x2^2 - x3^2*x4^2",
    "x3^3 - x1*x2*x4",
    "x2^3 - x1*x3*x4",
    "x1^3 - x2*x3*x4",
]

CYCLE4_GOLDEN_IMAGES = [
    "x1 - x4",
    "x2 - x4",
    "x1*x3 - x2*x4",
    "x1 - x3",
    "x3 - x4",
    "x2 - x3",
    "x1 - x2",
]


def test_k4_golden_run():
    t0 = time.perf_counter()
    ok = True
    C = cyc_complex.build_complex(
        graph_core.prepare(graph_core.laplacian(k4_digraph()))
    )
    ok &= C.ranks() == (1, 7, 12, 6)
    gb = [column_elem(columns(C, 1)[j]) for j in range(7)]
    golden = [parse_elem(s, C.ctx) for s in K4_GOLDEN_GB]
    ok &= gb == golden  # srle order
    ok &= {frozenset(p.items()) for p in gb} == {frozenset(p.items()) for p in golden}
    minimal, _ = cyc_complex.minimality_check(C)
    ok &= minimal is True
    report = rv.full_verify(C, instance="K4")  # default degree bound = 12
    ok &= report.passed
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    print(f"\n  K4: ranks={C.ranks()}, verify={report.passed}, {elapsed:.2f} s")
    verdict("k4-golden-run", ok)


def test_weighted_pair_enumeration():
    ok = True
    gl = graph_core.digraph_from_matrix(WEIGHTED4)
    L = graph_core.laplacian(gl)
    ok &= graph_core.classify(L) == "ICB"
    ok &= graph_core.block_echelon_structure(L) is None
    mu = intlinalg.adjugate_row(L.signed_rows())
    ok &= mu == (12, 8, 24, 24)
    ok &= intlinalg.grading_vector(mu) == (3, 2, 6, 6)
    M = graph_core.prepare(L)
    ok &= M.signed_rows() == WEIGHTED4_ECHELON
    ok &= graph_core.block_echelon_structure(M) == (3, (1, 1, 1))
    mu_p = intlinalg.adjugate_row(M.signed_rows())
    ok &= mu_p == (8, 12, 24, 24)
    ok &= intlinalg.grading_vector(mu_p) == (2, 3, 6, 6)
    verdict("weighted-pair-enumeration", ok)


def test_four_cycle_non_minimality():
    ok = True
    g = graph_core.digraph_from_matrix(CYCLE4)
    C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    images = column_texts(C.positions[1], term_tails(0, 1), C.ctx)
    ok &= images == CYCLE4_GOLDEN_IMAGES
    report = rv.full_verify(C, instance="cycle4")
    ok &= report.passed
    minimal, witness = cyc_complex.minimality_check(C)
    ok &= minimal is False
    k, j, p, coeff = witness
    ok &= abs(coeff) == 1 and column_elem(columns(C, k)[j])[0, p] == coeff
    verdict("four-cycle-non-minimality", ok)


def test_reducible_rejection(capsys):
    ok = True
    g = graph_core.digraph_from_matrix(
        json.loads((INSTANCES / "reducible.json").read_text())["matrix"]
    )
    ok &= graph_core.classify(graph_core.laplacian(g)) == "CB"
    code = cli.main(["resolve", str(INSTANCES / "reducible.json")])
    capsys.readouterr()
    ok &= code == 3
    verdict("reducible-rejection", ok)


def _verify_instance(C):
    assert sum((-1) ** k * r for k, r in enumerate(C.ranks())) == 0
    for k in range(1, C.n):
        for j, f in enumerate(columns(C, k)):
            for _, mono, p in f:
                assert C.ctx.degree(mono) + C.shifts[k - 1][p] == C.shifts[k][j]
    d_max = min(10, 2 * max(C.shifts[C.n - 1]))
    report = rv.full_verify(C, d_max=d_max)
    assert report.passed, report.to_text()


def test_property_suite_random_instances():
    t0 = time.perf_counter()
    rng = random.Random(20250808)
    count = 0
    for n in (4, 5):
        for _ in range(20):
            g = random_icb_digraph(n, rng)
            C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
            expected = {4: (1, 7, 12, 6), 5: (1, 15, 50, 60, 24)}[n]
            assert C.ranks() == expected
            _verify_instance(C)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = count == 40 and elapsed < 120.0
    print(f"\n  property suite: {count} instances in {elapsed:.1f} s")
    verdict("property-suite-n4-n5", ok)


def test_n6_smoke():
    t0 = time.perf_counter()
    rng = random.Random(606)
    g = random_icb_digraph(6, rng)
    C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    ok = C.ranks() == (1, 31, 180, 390, 360, 120)
    ok &= cyc_complex.check_d_squared(C) == (True, None, {})
    ok &= cyc_complex.check_leading_terms(C) == (True, None, {})
    hom_ok, _, _ = rv.graded_homology_oracle(C, 8)
    ok &= hom_ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    print(f"\n  n=6 smoke: ranks={C.ranks()}, {elapsed:.1f} s")
    verdict("n6-smoke", ok)


def test_k4_hilbert_tail():
    C = cyc_complex.build_complex(
        graph_core.prepare(graph_core.laplacian(k4_digraph()))
    )
    lt = [f[0][1] for f in columns(C, 1)]
    ok = True
    for d in range(6, 13):
        monos = rv.monomials_of_degree(C.ctx, d)
        outside = sum(1 for m in monos if not any(C.ctx.divides(g, m) for g in lt))
        ok &= outside == 16
    verdict("k4-hilbert-tail", ok)
