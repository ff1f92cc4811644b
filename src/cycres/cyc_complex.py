"""Cyclically ordered partitions and the chain complex they span.

A block is an int bitmask (bit v-1 is vertex v) and a partition is a tuple
of blocks, disjoint and covering {1..n}, with n in the last block (the
canonical representative of the cyclic equivalence class).  A merge of two
cyclic neighbours is the union of their masks and keeps the block holding n
last, so nothing is ever rotated back into canonical form.  The free module
in homological degree k has one basis element per partition into k+1
blocks, in the size-reverse lexicographic order (srle) of the blocks before
the one holding n: bigger blocks first, ties broken by the rightmost
differing vertex.  Each level is built by splitting the last block of every
partition one level down, so merging a partition's last two blocks gives
back the partition it was split from, and the partitions split from one
partition are neighbours.  The build reads the position of every merge off
that structure (merge_targets); only the checks merge partitions and look
them up, which cross-checks those positions.
"""

from functools import cached_property
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from math import comb
from operator import gt

from . import intlinalg
from .errors import InternalError, NotIrreducibleError, ValidationError
from .graph_core import CBMatrix, block_echelon_structure, classify
from .poly_ring import (
    GradedContext,
    OrderTower,
    elem_combine,
    elem_str,
    term_tails,
)


def vertices(b):
    """The vertices of block b, ascending."""
    out = []
    while b:
        out.append((b & -b).bit_length())
        b &= b - 1
    return out


def split_table(n):
    """{t: the splits of t} for every block t holding n: the nonempty subsets
    of t less n, in key order."""
    top = 1 << (n - 1)
    # block key: bigger blocks first; ties: the largest vertex not shared
    # comes first, so the block's vertex bitmask counts against it
    order = sorted(range(1, top), key=lambda b: -(b.bit_count() << n) - b)
    return {t: [b for b in order if b & t == b] for t in range(top, 2 * top)}


def enumerate_basis(n):
    """Every level's basis: bases[k] lists the partitions of {1..n} into k+1
    blocks, canonical, in srle order.

    srle order is lexicographic in the keys of the blocks before the one
    holding n, so level k+1 is level k with each partition's last block split
    in two, in order: the new block runs over the splits of the last block
    (see split_table), and n keeps what is left.  Every block holding n is
    taken from one table, so equal blocks are one int object.
    """
    splits = split_table(n)
    block = list(range(1 << n))
    bases = [[(block[-1],)]]
    for _ in range(1, n):
        bases.append([p[:-1] + (b, block[p[-1] - b]) for p in bases[-1] for b in splits[p[-1]]])
    return bases


def merge_targets(bases):
    """For k = 1, 2, ..., yield level k's merge targets: targets[s][j] is
    the position in bases[k-1] of merge(bases[k][j], s), s = 0..k.  No
    merged partition is built and no partition is looked up.

    Level k is level k-1 with each partition's last block split (see
    enumerate_basis): the partitions split from bases[k-1][i] stand at
    start[i]:start[i+1] of bases[k], in the order of the splits of its last
    block.  Let p = bases[k][j] and P = merge(p, k-1), the partition p was
    split from.  Each other merge of p was split from a merge of P, whose
    position one level further down is already known, so its target is
    that merge's start plus the rank of the split:
      s < k-2  merge(P, s), which keeps P's last block: p's own rank among
               its siblings;
      s = k-2  merge(P, k-2), P's parent: the rank of p[k-2] | p[k-1] among
               the splits of p[k-2] | p[k-1] | p[k];
      s = k-1  P itself;
      s = k    merge(P, k-1): the rank of p[k-1] among the splits of
               p[0] | p[k-1] | p[k].
    Every target is taken from one list of positions, so equal targets are
    one int object on every level, and the generator keeps one level of
    targets.
    """
    n = len(bases)
    splits = split_table(n)
    rank = {t: {b: r for r, b in enumerate(bs)} for t, bs in splits.items()}
    at = list(range(max(map(len, bases))))
    for k in range(1, n):
        parents = bases[k - 1]
        up = [i for i, P in zip(at, parents) for _ in splits[P[-1]]]
        if k == 1:
            targets = [up, up]
        else:
            below = targets
            # merge(P, s) has as many splits as P, so they pair up in order
            targets = [
                [i for t in below[s] for i in at[start[t] : start[t + 1]]] for s in range(k - 2)
            ]
            targets.append([
                at[start[t] + r[P[-2] | b]]
                for t, P in zip(below[k - 2], parents)
                for r in (rank[P[-2] | P[-1]],)
                for b in splits[P[-1]]
            ])
            targets.append(up)
            targets.append([
                at[start[t] + r[b]]
                for t, P in zip(below[k - 1], parents)
                for r in (rank[P[0] | P[-1]],)
                for b in splits[P[-1]]
            ])
            del below
        start = list(accumulate([len(splits[P[-1]]) for P in parents], initial=0))
        yield targets


def arrow_monomial(I, J, L: CBMatrix, ctx: GradedContext):
    """prod_{i in I} x_i^(sum of weights from i into J), packed; I and J are
    disjoint blocks."""
    if I & J:
        raise InternalError(
            f"arrow monomial with overlapping sets {tuple(vertices(I))}, {tuple(vertices(J))}"
        )
    into = vertices(J)
    return sum(ctx.power(i - 1, sum(L.a[i - 1][j - 1] for j in into)) for i in vertices(I))


class ArrowTable(dict):
    """The arrow monomials of one complex by block pair (I, J) of masks, each
    summed once, when first asked for."""

    def __init__(self, L: CBMatrix, ctx: GradedContext):
        super().__init__()
        self.L, self.ctx = L, ctx

    def __missing__(self, pair):
        mono = self[pair] = arrow_monomial(*pair, self.L, self.ctx)
        return mono


def merge(p, s):
    """Join block s of p to its cyclic successor; s = k joins block 0 to the
    last block.  The block holding n stays last, so the result is canonical.
    """
    k = len(p) - 1
    if s == k:
        return p[1:k] + (p[0] | p[k],)
    return p[:s] + (p[s] | p[s + 1],) + p[s + 2 :]


def boundary(basis, arrows: ArrowTable, targets):
    """Images of one level's basis partitions under the differential.

    Each block is merged with its cyclic successor, with arrow-monomial
    coefficients and signs alternating from +1, except that the closing
    merge of the last block into the first is always -1.  ``targets[s][j]``
    is the basis position of merge(basis[j], s) one level down, as
    merge_targets gives it.  Column j is the tuple of (coeff, monomial,
    basis index) terms of basis[j], one per merge position.

    The terms come in the order s = k-1, ..., 0, k, strictly decreasing in
    the module order one level down, so the tower stores them as given and
    the leading_term_formula check keys them all.  Proof, by induction over
    the levels: the columns below lead with their merge s = k-1, so e_q's
    descent reaches acc(q), the product over l of arrow(q[l], the blocks
    after l).  For s < k each term reaches acc(p), so they order by target
    position, which rises with s (merge(p, s) has the bigger block at s: it
    comes first in srle order).  s = k reaches T = arrow(p[k], p[0]) *
    acc(merge(p, k)) = acc(p) * arrow(V - p[0], p[0]) / arrow(p[0], V - p[0]).
    Block echelon form numbers the vertices by falling BFS distance from n,
    so the BFS parent r of the vertex c of p[0] nearest to n, nearer than
    all of p[0], is off p[0] and above it, and its arc into c makes T larger
    at r.  So the highest vertex where T and acc(p) differ is off p[0] and
    larger in T: T < acc(p) in weighted revlex.
    """
    k = len(basis[0]) - 1
    if k < 1:
        raise ValueError("boundary needs at least two blocks")
    positions = []
    for s in (*range(k - 1, -1, -1), k):
        sign, t = (-1, 0) if s == k else ((-1) ** s, s + 1)
        positions.append(
            [(sign, arrows[p[s], p[t]], idx) for p, idx in zip(basis, targets[s])]
        )
    return list(zip(*positions))


class CycComplex:
    def __init__(
        self, L: CBMatrix, ctx: GradedContext, bases, tower: OrderTower, arrows: ArrowTable
    ):
        self.L = L
        self.ctx = ctx
        self.bases = bases      # bases[k]: partitions into k+1 blocks in srle order,
                                # k = 0..n-1, split from bases[k-1] in its order
        self.tower = tower
        self.arrows = arrows
        self.n = L.n
        self.diffs = tower.images   # diffs[k]: the tower's columns, in degree k-1, k >= 1
        self.shifts = tower.shifts  # shifts[k][j]: weighted degree of basis element j in degree k

    @cached_property
    def index(self):
        """index[k]: partition -> position in bases[k].  Built on first use,
        by the checks; the build itself finds positions by merge_targets.
        Every level takes its positions from one list."""
        positions = list(range(max(map(len, self.bases))))
        return [dict(zip(b, positions)) for b in self.bases]

    def ranks(self):
        return tuple(len(b) for b in self.bases)


MAX_VERTICES = 9


def basis_size(n):
    """The basis size over all degrees, sum_j (j-1)! * S(n, j); j! * S(n, j)
    counts the maps of n vertices onto j blocks, by inclusion-exclusion."""
    return sum(
        sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1)) // j
        for j in range(1, n + 1)
    )


def build_complex(L: CBMatrix, degree=0) -> CycComplex:
    """Assemble bases, differentials, degree shifts and the order tower.

    The matrix must be irreducible and already in block echelon form (use
    graph_core.prepare to reach it); the order tower checks each column's
    first and last terms for homogeneity, check_leading_terms the order
    that makes them bound the rest.  The packing also holds
    ``degree``, an explicit oracle bound.  n > MAX_VERTICES is refused.
    """
    cls = classify(L)
    if cls == "CB":
        raise NotIrreducibleError("complex requires an irreducible matrix")
    if block_echelon_structure(L) is None:
        raise ValidationError(
            "matrix is not in block echelon form; apply the distance enumeration"
        )
    n = L.n
    if n > MAX_VERTICES:
        raise ValidationError(
            f"n = {n} has {basis_size(n):,} basis elements; at most n = {MAX_VERTICES} is built"
        )
    nu = intlinalg.grading_vector(intlinalg.adjugate_row(L.signed_rows()))
    ctx = GradedContext.holding(nu, max(degree_bound(L, nu), degree))
    arrows = ArrowTable(L, ctx)
    bases = enumerate_basis(n)
    tower = OrderTower(ctx)
    for k, targets in enumerate(merge_targets(bases), 1):
        tower.add_level(boundary(bases[k], arrows, targets))
    return CycComplex(L, ctx, bases, tower, arrows)


def degree_bound(L: CBMatrix, nu):
    """A weighted degree that no monomial formed on the complex exceeds.

    An arrow monomial raises x_i to at most the weighted out-degree L_ii.
    A homogeneous column's shift is the degree of a product of arrow
    monomials on disjoint vertex sets, so every shift, tower accumulator
    and stored term has degree at most D = sum_i nu_i L_ii.  Verification
    multiplies at most two such monomials (S-vectors, cofactors, keys of
    tail terms), and division never raises a degree.  Hence 2*D, which also
    holds the oracle's default range (at most twice the top shift).
    """
    return 2 * sum(w * L.a[i][i] for i, w in enumerate(nu))


def check_d_squared(C: CycComplex):
    """Direct composition of consecutive differentials is zero.

    This is the one place that sums a column's whole image one level down;
    the tau check relies on it.
    """
    for k in range(2, C.n):
        below = C.diffs[k - 1]
        for j, f in enumerate(C.diffs[k]):
            image = {}
            for coeff, mono, idx in f:
                elem_combine(image, below[idx], coeff, mono)
            if image:
                return False, f"composition nonzero on column {j + 1} in degree {k}", {}
    return True, None, {}


def check_leading_terms(C: CycComplex):
    """Every differential column's keys strictly decrease one level down,
    as boundary's docstring proves (the build keys only a column's first
    and last terms, so this also rules out a repeated term and makes every
    column homogeneous), and its first term matches the closed formula."""
    for k in range(1, C.n):
        bits, base, sign = C.tower.bits[k - 1], C.tower.base[k - 1], (-1) ** (k - 1)
        for j, (p, f) in enumerate(zip(C.bases[k], C.diffs[k])):
            keys = [(mono << bits) + base[idx] for _, mono, idx in f]
            if not all(map(gt, keys, keys[1:])):
                return False, f"column {j + 1} in degree {k} is not in module order", {}
            lead = (sign, C.arrows[p[-2], p[-1]], C.index[k - 1][merge(p, k - 1)])
            if f[0] != lead:
                return False, f"formula mismatch on column {j + 1} in degree {k}", {}
    return True, None, {}


def minimality_check(C: CycComplex):
    """(True, None) when no differential entry has a constant term.

    Otherwise returns (False, (k, source index, target index, coefficient))
    for the first offending entry: lowest k, then source, then target.
    """
    for k in range(1, C.n):
        for j, f in enumerate(C.diffs[k]):
            constants = [(p, coeff) for coeff, mono, p in f if mono == 0]
            if constants:
                return False, (k, j, *min(constants))
    return True, None


def _write_list(write, depth, items):
    """Write a list at nesting depth `depth`, laid out as the json module
    lays it out with indent=2.  An item is the JSON text of one value,
    written at once with the separator before it, or an iterable of items,
    written as a nested list."""
    pad = "\n" + "  " * (depth + 1)
    sep = "["
    for item in items:
        if isinstance(item, str):
            write(sep + pad + item)
        else:
            write(sep + pad)
            _write_list(write, depth + 1, item)
        sep = ","
    write("[]" if sep == "[" else "\n" + "  " * depth + "]")


def _column_entries(C: CycComplex, k):
    """The JSON text of each column entry of level k, rendered when asked.
    The term tails of the level below are built and JSON-escaped once, for
    this level; the term texts are plain ASCII with no quote or backslash,
    and JSON escapes character by character, so quoting the rendered poly
    is the same as escaping it."""
    level = k - 1
    tails = term_tails(level, len(C.diffs[level]) if level else 1)
    # in place, so the level's tails are held once
    for i, tail in enumerate(tails):
        tails[i] = encode_basestring_ascii(tail)[1:-1]
    head, mid, end = '{\n        "basis": ', ',\n        "poly": "', '"\n      }'
    for j, f in enumerate(C.diffs[k], 1):
        yield f"{head}{j}{mid}{elem_str(f, tails, C.ctx)}{end}"


def export_json(C: CycComplex, fh):
    """Write the complex to the text stream fh as the JSON document
    {"diffs", "n", "nu", "ranks", "shifts"}, laid out byte for byte as the
    json module lays it out with indent=2 and sorted keys, with no trailing
    newline.  Each column is rendered and written on its own, so the whole
    document is never held in memory.  A column's poly is rendered by
    elem_str with its level's suffixes already JSON-escaped and quoted as
    it stands (see _column_entries), so no text is escaped twice.
    """
    write = fh.write
    write('{\n  "diffs": ')
    _write_list(write, 1, (_column_entries(C, k) for k in range(1, C.n)))
    write(f',\n  "n": {C.n},\n  "nu": ')
    _write_list(write, 1, map(str, C.ctx.nu))
    write(',\n  "ranks": ')
    _write_list(write, 1, map(str, C.ranks()))
    write(',\n  "shifts": ')
    _write_list(write, 1, (map(str, level) for level in C.shifts))
    write("\n}")
