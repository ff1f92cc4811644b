import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycres import graph_core
from cycres.errors import NotIrreducibleError, ValidationError

import graph_reference
import linalg_reference
from conftest import (
    CYCLE4,
    ECHELON6,
    REDUCIBLE,
    WEIGHTED4,
    WEIGHTED4_ECHELON,
    k4_digraph,
    random_icb_digraph,
)


def arcs_doc(n, arcs):
    return json.dumps({"n": n, "arcs": [{"from": s, "to": t, "w": w} for s, t, w in arcs]})


# ---------------------------------------------------------------------------
# parsing and validation

def test_parse_k4_edge_list():
    g = graph_core.parse_digraph(
        arcs_doc(4, [(i, j, 1) for i in range(1, 5) for j in range(1, 5) if i != j])
    )
    assert g.n == 4
    assert len(g.arcs) == 12


def test_parse_reducible_matrix_has_no_arcs_into_upper_block():
    g = graph_core.parse_digraph(json.dumps({"matrix": REDUCIBLE}))
    assert not [a for a in g.arcs if a[0] in (1, 2) and a[1] in (3, 4)]


def test_parse_rejects_loop():
    with pytest.raises(ValidationError, match="loop at 2"):
        graph_core.parse_digraph(arcs_doc(4, [(1, 2, 1), (2, 2, 1)]))


def test_parse_rejects_small_n():
    with pytest.raises(ValidationError, match="need at least 3 vertices, got 2"):
        graph_core.parse_digraph(arcs_doc(2, [(1, 2, 1), (2, 1, 1)]))


def test_parse_rejects_nonpositive_weight():
    with pytest.raises(ValidationError, match="weight"):
        graph_core.parse_digraph(arcs_doc(3, [(1, 2, 0), (2, 3, 1), (3, 1, 1)]))


def test_parse_rejects_duplicate_arc():
    with pytest.raises(ValidationError, match="duplicate"):
        graph_core.parse_digraph(
            arcs_doc(3, [(1, 2, 1), (1, 2, 2), (2, 3, 1), (3, 1, 1)])
        )


def test_parse_rejects_sink_and_source():
    with pytest.raises(ValidationError, match="sink"):
        graph_core.parse_digraph(arcs_doc(3, [(1, 2, 1), (2, 1, 1), (1, 3, 1)]))
    with pytest.raises(ValidationError, match="source"):
        graph_core.parse_digraph(arcs_doc(3, [(1, 2, 1), (2, 1, 1), (3, 1, 1)]))
    # refused from the arc count alone, before any work of size n
    with pytest.raises(ValidationError, match="3 arcs for 1000000000000 vertices"):
        graph_core.parse_digraph(arcs_doc(10**12, [(1, 2, 1), (2, 3, 1), (3, 1, 1)]))


def test_parse_rejects_bad_json_and_positive_offdiagonal():
    with pytest.raises(ValidationError):
        graph_core.parse_digraph("not json")
    with pytest.raises(ValidationError):
        graph_core.parse_digraph(json.dumps({"matrix": [[1, 1], [1, 1]]}))


def test_matrix_takes_precedence_over_arcs():
    doc = {"matrix": CYCLE4, "n": 4, "arcs": [{"from": 1, "to": 2, "w": 9}]}
    g = graph_core.parse_digraph(json.dumps(doc))
    assert (1, 4, 1) in g.arcs


# ---------------------------------------------------------------------------
# Laplacian and classification

def test_laplacian_k4():
    L = graph_core.laplacian(k4_digraph())
    assert L.signed_rows() == [
        [3, -1, -1, -1],
        [-1, 3, -1, -1],
        [-1, -1, 3, -1],
        [-1, -1, -1, 3],
    ]


def test_laplacian_four_cycle_relabels_into_echelon_form():
    # arcs 1->2->3->4->1; the distance enumeration from vertex 4 renames it
    # into the displayed non-minimality matrix
    g = graph_core.validate_digraph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
    L = graph_core.laplacian(g)
    M = graph_core.prepare(L)
    assert M.signed_rows() == CYCLE4
    assert M.perm == (3, 2, 1, 4)


def test_classify_examples():
    assert graph_core.classify(graph_core.laplacian(k4_digraph())) == "PCB"
    Lp = graph_core.laplacian(graph_core.digraph_from_matrix(WEIGHTED4_ECHELON))
    assert graph_core.classify(Lp) == "ICB"
    Lr = graph_core.laplacian(graph_core.digraph_from_matrix(REDUCIBLE))
    assert graph_core.classify(Lr) == "CB"


def test_is_strongly_complete():
    # strongly complete is PCB: a missing arc makes a strongly connected
    # digraph ICB
    assert graph_core.classify(graph_core.laplacian(k4_digraph())) == "PCB"
    Lc = graph_core.laplacian(graph_core.digraph_from_matrix(CYCLE4))
    assert graph_core.classify(Lc) == "ICB"
    arcs = [(i, j, 1) for i in range(1, 5) for j in range(1, 5) if i != j]
    arcs.remove((2, 3, 1))
    Lm = graph_core.laplacian(graph_core.validate_digraph(4, arcs))
    assert graph_core.classify(Lm) == "ICB"


def test_unweighted_distance():
    assert graph_core.unweighted_distance(graph_core.laplacian(k4_digraph()).a, 4) == (1, 1, 1, 0)
    g = graph_core.validate_digraph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
    assert graph_core.unweighted_distance(graph_core.laplacian(g).a, 4) == (1, 2, 3, 0)
    gp = graph_core.digraph_from_matrix(WEIGHTED4_ECHELON)
    assert max(graph_core.unweighted_distance(graph_core.laplacian(gp).a, 4)) == 3


def test_unweighted_distance_unreachable():
    # vertices 1 and 2 have no arc into 3 or 4
    L = graph_core.laplacian(graph_core.digraph_from_matrix(REDUCIBLE))
    assert graph_core.unweighted_distance(L.a, 1) == (0, 1, None, None)
    with pytest.raises(NotIrreducibleError, match="vertex 3 unreachable from 1"):
        graph_core.omega_delta_enumeration(L, 1)


def test_omega_delta_enumeration_examples():
    Lp = graph_core.laplacian(graph_core.digraph_from_matrix(WEIGHTED4_ECHELON))
    assert graph_core.omega_delta_enumeration(Lp) == (1, 2, 3, 4)
    assert graph_core.omega_delta_enumeration(graph_core.laplacian(k4_digraph())) == (1, 2, 3, 4)
    L = graph_core.laplacian(graph_core.digraph_from_matrix(WEIGHTED4))
    assert graph_core.omega_delta_enumeration(L, 4) == (2, 1, 3, 4)
    M = graph_core.permute_matrix(L, (2, 1, 3, 4))
    assert M.signed_rows() == WEIGHTED4_ECHELON


def test_block_echelon_structure_examples():
    L6 = graph_core.laplacian(graph_core.digraph_from_matrix(ECHELON6))
    assert graph_core.block_echelon_structure(L6) == (3, (1, 2, 2))
    Lp = graph_core.laplacian(graph_core.digraph_from_matrix(WEIGHTED4_ECHELON))
    assert graph_core.block_echelon_structure(Lp) == (3, (1, 1, 1))
    K4 = graph_core.laplacian(k4_digraph())
    assert graph_core.block_echelon_structure(K4) == (1, (3,))
    Lnot = graph_core.laplacian(graph_core.digraph_from_matrix(WEIGHTED4))
    assert graph_core.block_echelon_structure(Lnot) is None


# ---------------------------------------------------------------------------
# randomized structural invariants

def random_cb_digraph(n, rng):
    """Arbitrary no-loop/no-sink/no-source digraph, not necessarily connected."""
    arcs = {}
    for v in range(1, n + 1):
        t = rng.choice([u for u in range(1, n + 1) if u != v])
        arcs[(v, t)] = rng.randint(1, 3)
    for v in range(1, n + 1):
        if not any(t == v for (_, t) in arcs):
            s = rng.choice([u for u in range(1, n + 1) if u != v])
            arcs[(s, v)] = rng.randint(1, 3)
    for s, t in [(s, t) for s in range(1, n + 1) for t in range(1, n + 1) if s != t]:
        if rng.random() < 0.2:
            arcs.setdefault((s, t), rng.randint(1, 3))
    return graph_core.validate_digraph(
        n, [(s, t, w) for (s, t), w in sorted(arcs.items())]
    )


def test_classification_matches_reachability_closure():
    rng = random.Random(99)
    hits = {"CB": 0, "ICB": 0, "PCB": 0}
    for _ in range(150):
        g = random_cb_digraph(rng.randint(3, 6), rng)
        cls = graph_core.classify(graph_core.laplacian(g))
        hits[cls] += 1
        assert (cls in ("ICB", "PCB")) == graph_reference.reachability_closure(g.n, g.arcs)
    assert hits["CB"] > 0 and hits["ICB"] > 0


@st.composite
def arc_sets(draw):
    """(n, free, closed): arbitrary weighted arcs, and one drawn outgoing and
    one drawn incoming arc at every vertex, sometimes with the free ones."""
    n = draw(st.integers(2, 6))
    weight = st.integers(1, 3)
    arc = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda a: a[0] != a[1])
    free = draw(st.dictionaries(arc, weight, max_size=2 * n))
    closed = dict(free) if draw(st.booleans()) else {}
    for v in range(1, n + 1):
        other = st.integers(1, n).filter(lambda u: u != v)
        closed.setdefault((v, draw(other)), draw(weight))
        closed.setdefault((draw(other), v), draw(weight))
    return n, free, closed


@settings(max_examples=300, deadline=None)
@given(arc_sets())
def test_strong_connectivity_matches_reachability_closure(case):
    n, free, closed = case
    for weights in (free, closed):
        g = graph_core.WeightedDigraph(
            n, tuple((s, t, w) for (s, t), w in sorted(weights.items()))
        )
        connected = graph_reference.reachability_closure(g.n, g.arcs)
        assert graph_core.is_strongly_connected(graph_core.laplacian(g)) == connected
    # closed has no sink and no source, so it has a Laplacian to classify
    expected = "PCB" if len(closed) == n * (n - 1) else "ICB" if connected else "CB"
    assert graph_core.classify(graph_core.laplacian(g)) == expected


def test_icb_rows_independent_and_enumeration_reaches_echelon():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(3, 6)
        g = random_icb_digraph(n, rng)
        L = graph_core.laplacian(g)
        rows = L.signed_rows()
        for drop in range(n):
            assert linalg_reference.rank([r for i, r in enumerate(rows) if i != drop]) == n - 1
        M = graph_core.prepare(L)
        structure = graph_core.block_echelon_structure(M)
        assert structure is not None
        delta, sizes = structure
        assert sum(sizes) == n - 1
        # echelon blocks coincide with the distance classes
        dist = graph_core.unweighted_distance(M.a, n)
        pos = 0
        for i, q in enumerate(sizes, start=1):
            block = list(range(pos + 1, pos + 1 + q))
            assert all(dist[v - 1] == delta + 1 - i for v in block)
            pos += q


def test_block_echelon_structure_matches_the_cell_by_cell_reference():
    # the form read off one BFS against the matrix conditions checked cell
    # by cell: on random digraphs, reducible and irreducible, on a random
    # relabelling of each, and on the prepared form for every omega
    rng = random.Random(26)
    hits = Counter()
    for _ in range(400):
        n = rng.randint(3, 7)
        L = graph_core.laplacian(random_cb_digraph(n, rng))
        order = list(range(1, n + 1))
        rng.shuffle(order)
        cls = graph_core.classify(L)
        for M in (L, graph_core.permute_matrix(L, tuple(order))):
            structure = graph_core.block_echelon_structure(M)
            assert structure == graph_reference.block_echelon_structure(M)
            hits[cls, structure is not None] += 1
        if cls == "CB":
            continue
        for omega in range(1, n + 1):
            M = graph_core.prepare(L, omega)
            structure = graph_core.block_echelon_structure(M)
            assert structure == graph_reference.block_echelon_structure(M)
            assert structure[1] == M.echelon
    # both verdicts met on both kinds: a reducible matrix is in the form
    # when n reaches every vertex
    assert {("CB", False), ("CB", True), ("ICB", False), ("ICB", True)} <= set(hits)


def test_rightmost_coordinate_of_column_sums_is_negative():
    from itertools import combinations

    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(3, 5)
        M = graph_core.prepare(graph_core.laplacian(random_icb_digraph(n, rng)))
        rows = M.signed_rows()
        for size in range(1, n):
            for C in combinations(range(n - 1), size):
                v = [sum(rows[i][j] for j in C) for i in range(n)]
                last = max(i for i in range(n) if v[i] != 0)
                assert v[last] < 0
