import io
import pathlib
import random
import sys
from functools import lru_cache
from itertools import repeat

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cycres import cyc_complex, graph_core  # noqa: E402
from cycres.poly_ring import elem_str  # noqa: E402

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

WEIGHTED4 = [[2, -2, 0, 0], [0, 3, -3, 0], [-1, 0, 5, -4], [0, 0, -4, 4]]
WEIGHTED4_ECHELON = [[3, 0, -3, 0], [-2, 2, 0, 0], [0, -1, 5, -4], [0, 0, -4, 4]]
CYCLE4 = [[1, 0, 0, -1], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]]
REDUCIBLE = [[1, -1, 0, 0], [-1, 1, 0, 0], [-1, -1, 3, -1], [-1, -1, -1, 3]]
ECHELON6 = [
    [1, 0, 0, 0, 0, -1],
    [0, 1, -1, 0, 0, 0],
    [-1, 0, 1, 0, 0, 0],
    [0, 0, -1, 1, 0, 0],
    [0, -1, 0, 0, 1, 0],
    [0, 0, 0, -1, -1, 2],
]
# strongly complete with pairwise distinct weights: keeps formulas honest
GENERIC4_WEIGHTS = [
    [0, 1, 2, 3],
    [4, 0, 5, 6],
    [7, 8, 0, 9],
    [10, 11, 12, 0],
]


def random_icb_digraph(n, rng: random.Random, extra=None, max_weight=3):
    """Random strongly connected digraph: a Hamiltonian cycle plus extras.

    The cycle guarantees strong connectivity; extra arcs (default about n of
    them) exercise non-complete shapes.  Weights are 1..max_weight.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    arcs = {}
    for a, b in zip(order, order[1:] + order[:1]):
        arcs[(a, b)] = rng.randint(1, max_weight)
    if extra is None:
        extra = n
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
             if a != b and (a, b) not in arcs]
    rng.shuffle(pairs)
    for a, b in pairs[:extra]:
        arcs[(a, b)] = rng.randint(1, max_weight)
    return graph_core.WeightedDigraph(
        n, tuple((a, b, w) for (a, b), w in sorted(arcs.items()))
    )


def P(*blocks):
    """A partition given by the vertices of its blocks, as the tuple of
    block bitmasks that cyc_complex uses (bit v-1 is vertex v)."""
    return tuple(sum(1 << (v - 1) for v in b) for b in blocks)


def tuples(p):
    """The inverse of P: each block as the sorted tuple of its vertices."""
    return tuple(
        tuple(v for v in range(1, b.bit_length() + 1) if b >> (v - 1) & 1) for b in p
    )


def packed(ctx, poly):
    """{monomial: coeff} given by exponent tuples, packed for ctx."""
    return {ctx.pack(mono): coeff for mono, coeff in poly.items()}


def poly_elem(ctx, poly, idx=0):
    """The Elem c * x^m * e_idx summed over a {exponent tuple: c} dict;
    idx 0 makes it a ring element."""
    return {(mono, idx): coeff for mono, coeff in packed(ctx, poly).items()}


def elem_add_term(elem, idx, coeff, mono):
    """elem += coeff * x^mono * e_idx, in place."""
    key = (mono, idx)
    c = elem.get(key, 0) + coeff
    if c:
        elem[key] = c
    elif key in elem:
        del elem[key]


def column_elem(column):
    """The Elem {(monomial, basis index): coeff} holding the terms of a
    stored column."""
    elem = {}
    for coeff, mono, idx in column:
        elem_add_term(elem, idx, coeff, mono)
    return elem


def elem_scale_term(elem, coeff, mono):
    """coeff * x^mono * elem as a new Elem; coeff is nonzero."""
    return {(mono + m, idx): coeff * c for (m, idx), c in elem.items()}


def elem_terms(elem):
    """The (coeff, monomial, basis index) terms of an Elem, in its order;
    the inverse of column_elem."""
    return [(coeff, mono, idx) for (mono, idx), coeff in elem.items()]


def column_positions(columns):
    """The term positions (sign, monos, targets) of columns of equal
    length, as OrderTower.add_level and elem_str read a level: position i
    holds term i of every column, and the one coefficient those terms
    share as its sign; any int, so that a refused sign can be fed too."""
    columns = [tuple(column) for column in columns]
    assert len({len(column) for column in columns}) <= 1, "columns of unequal lengths"
    positions = []
    for i, terms in enumerate(zip(*columns)):
        coeffs, monos, targets = zip(*terms)
        assert len(set(coeffs)) == 1, f"position {i + 1} holds coefficients {set(coeffs)}"
        positions.append((coeffs[0], monos, targets))
    return positions


def column_texts(positions, tails, ctx):
    """The texts of a level's columns from its term positions: column j's
    text is the join of entry j of every piece elem_str gives."""
    return list(map("".join, zip(*elem_str(positions, tails, ctx))))


def columns(holder, k):
    """The columns of level k of a complex or an order tower, zipped from
    its term positions: column j is the tuple of (sign, monomial, basis
    index) terms, entry j of each position in order.  The package derives
    no level as columns; this is the reference its readings of the
    positions are tested against."""
    return list(zip(*[
        zip(repeat(sign), monos, targets) for sign, monos, targets in holder.positions[k]
    ]))


def set_entry(holder, k, i, j, mono=None, target=None):
    """Put mono and target in place of entry j of position i of level k of
    a complex or an order tower, in copies of that position's lists (the
    build shares target lists between positions and levels); None keeps
    the stored entry.  A fault injected here is term i of column j."""
    level = holder.positions[k]
    sign, monos, targets = level[i]
    monos, targets = list(monos), list(targets)
    if mono is not None:
        monos[j] = mono
    if target is not None:
        targets[j] = target
    level[i] = (sign, monos, targets)


def swap_entries(holder, k, j, a, b):
    """Exchange entries j of positions a and b of level k: column j holds
    its terms a and b in each other's place, each with the sign of the
    position it now stands at."""
    level = holder.positions[k]
    (_, monos_a, targets_a), (_, monos_b, targets_b) = level[a], level[b]
    set_entry(holder, k, a, j, monos_b[j], targets_b[j])
    set_entry(holder, k, b, j, monos_a[j], targets_a[j])


def k4_digraph():
    return graph_core.validate_digraph(
        4, [(i, j, 1) for i in range(1, 5) for j in range(1, 5) if i != j]
    )


def generic4_matrix():
    n = 4
    a = [
        [
            GENERIC4_WEIGHTS[i][j] if i != j else sum(GENERIC4_WEIGHTS[i])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return graph_core.CBMatrix(n, tuple(tuple(r) for r in a))


def export_text(C):
    """The `resolve` document of C, as export_json streams it."""
    buf = io.StringIO()
    cyc_complex.export_json(C, buf)
    return buf.getvalue()


def complex_from_matrix(rows, omega=None):
    g = graph_core.digraph_from_matrix(rows)
    return cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g), omega))


def scrambled_tower(C, seed):
    """Overwrite every level's keys with random ints, most of them shared by
    many positions and some negative, so that no key tells two apart."""
    rng = random.Random(seed)
    for level in C.tower.base:
        level[:] = [rng.choice((0, -3, 7, 1 << 61)) for _ in level]


# every bundled instance with a complex (reducible.json has none)
RESOLVABLE = ["cycle4", "cycle4_arcs", "echelon6", "k4", "weighted4", "weighted4_echelon"]


def bundled_complex(name):
    g = graph_core.parse_digraph((INSTANCES / f"{name}.json").read_text())
    return cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))


@lru_cache(maxsize=None)
def swept_complexes():
    """The bundled complexes and random_icb_digraph(n, Random(seed)) for
    n = 2..7 and seeds 0..2: n = 2 has one level-1 column, whose two merges
    give the same partition; n = 7 has merges s < k-2 on every level up to
    k = 6."""
    return [bundled_complex(name) for name in RESOLVABLE] + [
        cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(
            random_icb_digraph(n, random.Random(seed))
        )))
        for n in range(2, 8)
        for seed in range(3)
    ]


@pytest.fixture(scope="session")
def k4_complex():
    return cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(k4_digraph())))


@pytest.fixture(scope="session")
def cycle4_complex():
    return complex_from_matrix(CYCLE4)


@pytest.fixture(scope="session")
def generic4_complex():
    return cyc_complex.build_complex(graph_core.prepare(generic4_matrix()))


@pytest.fixture(scope="session")
def weighted4_echelon_complex():
    return complex_from_matrix(WEIGHTED4_ECHELON)


# ---------------------------------------------------------------------------
# an independent reader for the polynomial text format of `resolve` output


def _parse_term(text, ctx):
    suffix_idx = None
    if "·" in text:
        text, ref = text.split("·", 1)
        if not (ref.startswith("e[") and ref.endswith("]")):
            raise ValueError(f"bad basis reference {ref!r}")
        _, j = ref[2:-1].split(",")
        suffix_idx = int(j) - 1
    coeff = 1
    mono = [0] * ctx.n
    for factor in text.split("*"):
        if factor.startswith("x"):
            if "^" in factor:
                var, e = factor[1:].split("^")
                mono[int(var) - 1] += int(e)
            else:
                mono[int(factor[1:]) - 1] += 1
        else:
            coeff *= int(factor)
    return coeff, ctx.pack(mono), suffix_idx


def parse_column(text, ctx):
    """Inverse of a column's text (see column_texts): the (coeff, mono,
    idx) terms in text order, monomials packed for ctx (level information
    is discarded; level 0 gives index 0).
    """
    if text.strip() == "0":
        return ()
    pieces = text.replace(" - ", "\x00-").replace(" + ", "\x00").split("\x00")
    terms = []
    for piece in pieces:
        piece = piece.strip()
        sign = 1
        while piece.startswith("-"):
            sign = -sign
            piece = piece[1:]
        coeff, mono, idx = _parse_term(piece, ctx)
        terms.append((sign * coeff, mono, 0 if idx is None else idx))
    return tuple(terms)


def parse_elem(text, ctx):
    """parse_column as an Elem; a level-0 polynomial sits on basis index 0."""
    return column_elem(parse_column(text, ctx))
