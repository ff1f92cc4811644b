"""Benchmark instances, generated here so that the workloads never depend on
helpers inside the package under test.

``random_icb_arcs`` repeats, draw for draw, the algorithm of
``resolution_verify.random_icb_digraph``: a shuffled Hamiltonian cycle plus n
extra arcs, weights 1..3.  ``random_icb_arcs(7, 2)`` is therefore the seeded
n = 7 instance the ROADMAP baseline quotes (nu = (6,15,44,65,183,73,63)),
even if that helper is later changed or removed.
"""

import json
import random
from math import factorial


def random_icb_arcs(n, seed, max_weight=3):
    """Arcs (from, to, weight) of a random strongly connected digraph."""
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    arcs = {}
    for a, b in zip(order, order[1:] + order[:1]):
        arcs[(a, b)] = rng.randint(1, max_weight)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
             if a != b and (a, b) not in arcs]
    rng.shuffle(pairs)
    for a, b in pairs[:n]:
        arcs[(a, b)] = rng.randint(1, max_weight)
    return [(a, b, w) for (a, b), w in sorted(arcs.items())]


def complete_arcs(n):
    """Arcs of the complete digraph on n vertices with unit weights."""
    return [(a, b, 1) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]


def instance_bytes(n, arcs):
    """The arc-list JSON document the CLI reads."""
    doc = {"n": n, "arcs": [{"from": a, "to": b, "w": w} for a, b, w in arcs]}
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def stirling2(n, k):
    """Stirling number of the second kind S(n, k)."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def expected_ranks(n):
    """Ranks k!·S(n, k+1) of the cyclic-partition complex, k = 0..n-1."""
    return [factorial(k) * stirling2(n, k + 1) for k in range(n)]
