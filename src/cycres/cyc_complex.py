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

from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from math import comb
from operator import add, itemgetter, le, ne, or_

from . import intlinalg
from .errors import InternalError, NotIrreducibleError, ValidationError
from .graph_core import CBMatrix, block_echelon_structure, classify
from .poly_ring import (
    GradedContext,
    OrderTower,
    elem_combine,
    elem_str,
    first,
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
    The siblings of every partition one level down are sliced once per
    level (kids), so each target list for s < k-2 is the siblings of the
    parent's targets, chained a whole list at a time.  Every target is
    taken from one list of positions, so equal targets are one int object
    on every level, and the generator keeps one level of targets.
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
            # kids[t]: the positions in bases[k-1] of the partitions split
            # from bases[k-2][t]; merge(P, s) has as many splits as P, so
            # they pair up in order
            kids = [at[a:b] for a, b in zip(start, start[1:])]
            targets = [
                list(chain.from_iterable(map(kids.__getitem__, below[s]))) for s in range(k - 2)
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
            del below, kids
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


def boundary(basis, arrows: ArrowTable, targets, below):
    """Images of one level's basis partitions under the differential, as
    the level's term positions.

    Each block is merged with its cyclic successor, with arrow-monomial
    coefficients and signs alternating from +1, except that the closing
    merge of the last block into the first is always -1.  ``targets[s][j]``
    is the basis position of merge(basis[j], s) one level down, as
    merge_targets gives it, and ``below`` is that level's positions, as
    this function gave them.  The position of merge s is (sign, monos,
    targets[s]): that merge's term of every column at once, its one sign
    the int +-1 above, monos[j] the arrow monomial of basis[j] from block s
    into its successor, and the targets list stored as given.  Column j is
    entry j of each position, in the order of the positions.

    For s < k-2 the monomials are copied from the parent, a whole list at a
    time: blocks s and s+1 of p = basis[j] are blocks s and s+1 of the
    partition it was split from, merge(p, k-1), which stands at
    targets[k-1][j] one level down, so p's arrow monomial of merge s is
    entry targets[k-1][j] of that level's position of merge s,
    below[k-2-s].  Only the merges s >= k-2, which read the split block,
    look up the arrow table.

    The positions come in the order s = k-1, ..., 0, k, strictly decreasing
    in the module order one level down, so the tower stores them as given
    and the leading_term_formula check keys every term.  Proof, by
    induction over the levels: the columns below lead with their merge
    s = k-1, so e_q's descent reaches acc(q), the product over l of
    arrow(q[l], the blocks after l).  For s < k each term reaches acc(p),
    so they order by target position, which rises with s (merge(p, s) has
    the bigger block at s: it comes first in srle order).  s = k reaches
    T = arrow(p[k], p[0]) * acc(merge(p, k))
      = acc(p) * arrow(V - p[0], p[0]) / arrow(p[0], V - p[0]).
    Block echelon form numbers the vertices by falling BFS distance from n,
    so the BFS parent r of the vertex c of p[0] nearest to n, nearer than
    all of p[0], is off p[0] and above it, and its arc into c makes T larger
    at r.  So the highest vertex where T and acc(p) differ is off p[0] and
    larger in T: T < acc(p) in weighted revlex.
    """
    k = len(basis[0]) - 1
    if k < 1:
        raise InternalError("boundary needs at least two blocks")
    positions = []
    for s in (*range(k - 1, -1, -1), k):
        sign, t = (-1, 0) if s == k else ((-1) ** s, s + 1)
        if s < k - 2:
            monos = list(map(below[k - 2 - s][1].__getitem__, targets[k - 1]))
        else:
            monos = list(map(arrows.__getitem__, map(itemgetter(s, t), basis)))
        positions.append((sign, monos, targets[s]))
    return positions


class CycComplex:
    """The built complex: bases, differential, degree shifts and the order
    tower that holds them.  d_k is kept only as the tower stores it, its
    term positions: column j of d_k is entry j of each position of
    positions[k].  No level is kept as columns; the build, the export and
    every check read the positions, a whole list at a time or entry j of
    the few they need."""

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
        self.positions = tower.positions  # positions[k]: d_k as term positions, k >= 1
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
        tower.add_level(boundary(bases[k], arrows, targets, tower.positions[k - 1]))
    return CycComplex(L, ctx, bases, tower, arrows)


def degree_bound(L: CBMatrix, nu):
    """A weighted degree that no monomial formed on the complex exceeds.

    An arrow monomial raises x_i to at most the weighted out-degree L_ii.
    A homogeneous column's shift is the degree of a product of arrow
    monomials on disjoint vertex sets, so every shift, tower accumulator
    and stored term has degree at most D = sum_i nu_i L_ii.  Verification
    multiplies at most two such monomials (S-vectors, cofactors, keys of
    tail terms), and division never raises a degree.  Hence 2*D.  The
    oracle's lead identity only divides stored monomials; its graded
    pieces need the packing to hold an explicit degree bound as well.
    """
    return 2 * sum(w * L.a[i][i] for i, w in enumerate(nu))


def composite(level, below, a, b):
    """Position a of a level followed by position b of the level below at
    its target, for every column at once: (sign, monos, targets) of the
    term that merge a and then merge b give in each column's image."""
    sign, monos, targets = level[a]
    sign_b, monos_b, targets_b = below[b]
    return (
        sign * sign_b,
        list(map(add, monos, map(monos_b.__getitem__, targets))),
        list(map(targets_b.__getitem__, targets)),
    )


def composed_column(level, below, j):
    """The image one level further down of column j of a level, given with
    the level below as term positions, summed one column of the level below
    per term (elem_combine): {(monomial, basis index): coefficient}."""
    image = {}
    for sign, monos, targets in level:
        elem_combine(image, below, targets[j], sign, monos[j])
    return image


def check_d_squared(C: CycComplex):
    """Direct composition of consecutive differentials is zero.

    The paper's cancellation has a fixed shape: three neighbouring blocks
    merge in two orders, and two disjoint merges in either order, so the
    composite (a, b), position a of d_k followed by position b of d_(k-1)
    (see composite), meets composite (b + 1, a) with the opposite sign, for
    every a <= b < k in stored order.  These k(k+1)/2 pairs cover each of
    the k(k+1) composites once, and are compared as whole lists: where a
    pair is equal with opposite signs, its terms cancel in every column, so
    a level whose pairs all hold has d∘d = 0 column by column.  A column
    where some pair differs (every column, for a pair of equal signs or a
    level of another length) is summed term by term (composed_column),
    lowest first, and the first nonzero one is the witness; a column that
    cancels some other way passes.

    This is the one place that sums a column's image one level down; the
    tau check relies on it.
    """
    for k in range(2, C.n):
        level, below = C.positions[k], C.positions[k - 1]
        width = len(level[0][1])
        if len(level) != k + 1 or len(below) != k:
            suspects = range(width)
        else:
            suspects = set()
            for b in range(k):
                for a in range(b + 1):
                    sign, monos, targets = composite(level, below, a, b)
                    partner, monos_p, targets_p = composite(level, below, b + 1, a)
                    if sign != -partner:
                        suspects.update(range(width))
                    elif monos != monos_p or targets != targets_p:
                        suspects.update(compress(count(), map(ne, monos, monos_p)))
                        suspects.update(compress(count(), map(ne, targets, targets_p)))
        for j in sorted(suspects):
            if composed_column(level, below, j):
                return False, f"composition nonzero on column {j + 1} in degree {k}", {}
    return True, None, {}


def check_leading_terms(C: CycComplex):
    """Every differential column's keys strictly decrease one level down,
    as boundary's docstring proves (the build keys only a column's first
    and last terms, so this also rules out a repeated term and makes every
    column homogeneous), and on level 1 its first term matches the closed
    formula: sign +1, the arrow monomial of its two blocks, on level 0's
    one basis element.  Above level 1 the lead is the τ check's
    (resolution_verify.verify_tau_level).

    Each position is keyed once, a whole list at a time, by the tower
    (OrderTower.keys), and consecutive key lists compared.  The witness is
    the lowest column with either fault, a fault of order first.
    """
    for k in range(1, C.n):
        level = C.positions[k]
        unordered, upper = None, None
        for _, monos, targets in level:
            keys = C.tower.keys(k - 1, monos, targets)
            if upper is not None:
                j = first(map(le, upper, keys))
                if j is not None and (unordered is None or j < unordered):
                    unordered = j
            upper = keys
        mismatch = None
        if k == 1:
            sign, monos, targets = level[0]
            leads = map(C.arrows.__getitem__, C.bases[1])
            mismatch = 0 if sign != 1 else first(
                map(or_, map(ne, monos, leads), map(ne, targets, repeat(0)))
            )
        if unordered is not None and (mismatch is None or unordered <= mismatch):
            return False, f"column {unordered + 1} in degree {k} is not in module order", {}
        if mismatch is not None:
            return False, f"formula mismatch on column {mismatch + 1} in degree {k}", {}
    return True, None, {}


def minimality_check(C: CycComplex):
    """(True, None) when no differential entry has a constant term.

    Otherwise returns (False, (k, source index, target index, coefficient))
    for the first offending entry: lowest k, then source, then target.
    Reads the term positions: a constant term is a monomial 0, and its
    coefficient is its position's sign.
    """
    for k in range(1, C.n):
        level = C.positions[k]
        sources = [monos.index(0) for _, monos, _ in level if 0 in monos]
        if sources:
            j = min(sources)
            constants = [
                (targets[j], sign) for sign, monos, targets in level if monos[j] == 0
            ]
            return False, (k, j, *min(constants))
    return True, None


def _write_list(write, depth, items):
    """Write a list at nesting depth `depth`, laid out as the json module
    lays it out with indent=2.  An item is the JSON text of one value,
    written at once with the separator before it, or a function that
    writes a nested list, called with write after the separator."""
    pad = "\n" + "  " * (depth + 1)
    sep = "["
    for item in items:
        if isinstance(item, str):
            write(sep + pad + item)
        else:
            write(sep + pad)
            item(write)
        sep = ","
    write("[]" if sep == "[" else "\n" + "  " * depth + "]")


def _list_text(depth, items):
    """The JSON text of a list of JSON texts at nesting depth `depth`, laid
    out as _write_list writes it, for writing at once."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


# the "·e[" that opens every term tail of level >= 1, JSON-escaped
TAIL_PREFIX = encode_basestring_ascii("·e[")[1:-1]
# the JSON text around a column entry of a level in "diffs", at its depth:
# the opening of the first entry and of each later one, up to the basis
# number; the poly key after the number; the close after the poly's text
ENTRY_OPEN = '[\n      {\n        "basis": ', ',\n      {\n        "basis": '
POLY_OPEN = ',\n        "poly": "'
ENTRY_CLOSE = '"\n      }'


def _write_columns(C: CycComplex, k, write):
    """Write level k's list of column entries, as _write_list would write
    it at its depth in "diffs", one write per column: the entry's opening,
    its basis number, the poly key, the pieces of its poly as elem_str
    gives them and its close, zipped and joined once.  The term tails of
    the level below are built once for this level, with their "·e[" prefix
    JSON-escaped once; the term texts are plain ASCII with no quote or
    backslash, and JSON escapes character by character, so the joined
    poly is its own JSON-escaped text."""
    positions = C.positions[k]
    width = len(positions[0][1]) if positions else 0
    if not width:
        write("[]")
        return
    level = k - 1
    tails = term_tails(level, len(C.bases[level]) if level else 1, TAIL_PREFIX)
    entries = zip(
        chain(ENTRY_OPEN[:1], repeat(ENTRY_OPEN[1])),
        map(str, range(1, width + 1)),
        repeat(POLY_OPEN),
        *elem_str(positions, tails, C.ctx),
        repeat(ENTRY_CLOSE),
    )
    for entry in map("".join, entries):
        write(entry)
    write("\n    ]")


def export_json(C: CycComplex, fh):
    """Write the complex to the text stream fh as the JSON document
    {"diffs", "n", "nu", "ranks", "shifts"}, laid out byte for byte as the
    json module lays it out with indent=2 and sorted keys, with no trailing
    newline.  Each column entry is joined from the term positions' pieces
    and written on its own (see _write_columns), and each level of shifts
    in one write, so neither the whole document nor a level of column
    texts is ever held in memory, no column is derived and no text is
    escaped twice.
    """
    write = fh.write
    write('{\n  "diffs": ')
    _write_list(write, 1, (partial(_write_columns, C, k) for k in range(1, C.n)))
    write(f',\n  "n": {C.n},\n  "nu": ')
    _write_list(write, 1, map(str, C.ctx.nu))
    write(',\n  "ranks": ')
    _write_list(write, 1, map(str, C.ranks()))
    write(',\n  "shifts": ')
    _write_list(write, 1, (_list_text(2, list(map(str, level))) for level in C.shifts))
    write("\n}")
