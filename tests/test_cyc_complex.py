import json
import random
import textwrap
from functools import lru_cache, reduce
from itertools import product
from operator import or_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_reference as ref
from arrow_reference import arrow_monomial
from boundary_reference import lookup_boundary
from export_reference import to_json_dict
from tower_reference import key
from cycres import cyc_complex as cc
from cycres import graph_core
from cycres import resolution_verify as rv
from cycres.errors import InternalError, NotIrreducibleError, ValidationError
from cycres.poly_ring import GradedContext, OrderTower, s_vector
from conftest import (
    ECHELON6,
    REDUCIBLE,
    WEIGHTED4,
    P,
    RESOLVABLE,
    bundled_complex,
    column_elem,
    columns,
    complex_from_matrix,
    elem_add_term,
    export_text,
    generic4_matrix,
    parse_column,
    poly_elem,
    random_icb_digraph,
    set_entry,
    swap_entries,
    swept_complexes,
    tuples,
)

# 6-bit fields: exponents up to 31, above every row sum of generic4_matrix
# but x4's, 33; 8-bit fields hold them all
CTX4 = GradedContext(4, (1, 1, 1, 1), 6)
CTX8 = GradedContext(4, (1, 1, 1, 1), 8)


# ---------------------------------------------------------------------------
# independent enumeration oracles

def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def brute_force_basis(n, k):
    """Ordered partitions via surjective block assignments, n pinned last."""
    m = k + 1
    found = set()
    for assign in product(range(m), repeat=n - 1):
        labels = assign + (m - 1,)
        if len(set(labels)) != m:
            continue
        blocks = tuple(
            tuple(v for v in range(1, n + 1) if labels[v - 1] == b)
            for b in range(m)
        )
        found.add(blocks)
    return found


# ---------------------------------------------------------------------------
# srle order and bases

@lru_cache
def basis_positions(n):
    """position[k][p]: where the partition p stands in enumerate_basis(n)[k]."""
    return [{p: i for i, p in enumerate(basis)} for basis in cc.enumerate_basis(n)]


def test_srle_compare_examples():
    def pos(p):
        return basis_positions(4)[len(p) - 1][p]

    def key(p):
        return ref.srle_key(tuples(p), 4)

    for lo, hi in [
        (P([1, 2, 3], [4]), P([2, 3], [1, 4])),
        (P([3], [2], [1], [4]), P([1], [2], [3], [4])),
    ]:
        assert pos(lo) < pos(hi)
        assert key(lo) < key(hi)
    p = P([2], [1, 3], [4])
    assert pos(p) == pos(P([2], [1, 3], [4]))
    assert key(p) == key(P([2], [1, 3], [4]))
    assert pos(p) != pos(P([1], [2, 3], [4]))
    assert key(p) != key(P([1], [2, 3], [4]))


def test_srle_enumeration_orders_like_the_tuple_keys():
    for n in range(1, 8):
        for basis in cc.enumerate_basis(n):
            keys = [ref.srle_key(tuples(p), n) for p in basis]
            assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_basis_matches_the_partition_reference():
    # every level at once, against every set partition in every block order,
    # sorted by the tuple key
    for n in range(1, 9):
        bases = cc.enumerate_basis(n)
        assert len(bases) == n
        for k, basis in enumerate(bases):
            assert [tuples(p) for p in basis] == ref.enumerate_basis(n, k), (n, k)


def test_enumerate_basis_n4_k1_full_listing():
    got = cc.enumerate_basis(4)[1]
    assert got == [
        P([1, 2, 3], [4]),
        P([2, 3], [1, 4]),
        P([1, 3], [2, 4]),
        P([1, 2], [3, 4]),
        P([3], [1, 2, 4]),
        P([2], [1, 3, 4]),
        P([1], [2, 3, 4]),
    ]


def test_enumerate_basis_n4_k3():
    got = cc.enumerate_basis(4)[3]
    assert len(got) == 6
    assert got[0] == P([3], [2], [1], [4])
    assert got[-1] == P([1], [2], [3], [4])


def test_enumerate_basis_trivial():
    assert cc.enumerate_basis(4)[0] == [P([1, 2, 3, 4])]
    assert cc.enumerate_basis(1) == [[P([1])]]


def test_enumerate_basis_matches_brute_force_and_stirling():
    for n in range(3, 7):
        for k, basis in enumerate(cc.enumerate_basis(n)):
            expected = brute_force_basis(n, k)
            assert len(basis) == len(expected)
            assert {tuples(p) for p in basis} == expected
            fact = 1
            for i in range(1, k + 1):
                fact *= i
            assert len(basis) == fact * stirling2(n, k + 1)


@pytest.mark.parametrize("rows", [None, ECHELON6, WEIGHTED4], ids=["k4", "echelon6", "weighted4"])
def test_merge_is_canonical_and_hits_the_basis(rows, k4_complex):
    # a merge of cyclic neighbours keeps the block holding n last, so the
    # merged partition is a basis element as it stands, with no rotation
    C = k4_complex if rows is None else complex_from_matrix(rows)
    n = C.n
    assert cc.merge(P([2], [3], [1, 4]), 2) == P([3], [1, 2, 4])
    assert cc.merge(P([2], [3], [1, 4]), 0) == P([2, 3], [1, 4])
    for k in range(1, n):
        for p in C.bases[k]:
            targets = []
            for s in range(k + 1):
                q = cc.merge(p, s)
                assert n in tuples(q)[-1]
                # nonempty disjoint blocks covering {1..n}
                assert all(q) and sum(q) == reduce(or_, q) == (1 << n) - 1
                assert q in C.index[k - 1]
                targets.append(q)
            if k >= 2:
                assert len(set(targets)) == k + 1


def test_lead_targets_never_fall_and_siblings_stand_together():
    # each partition is split from its parent, the partition with its last
    # two blocks merged, which is its lead target; so along a level the
    # targets never fall and the partitions with one parent form one run
    def complexes():
        for name in RESOLVABLE:
            yield bundled_complex(name)
        for n in range(2, 8):
            g = random_icb_digraph(n, random.Random(n))
            yield cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))

    for C in complexes():
        for k in range(1, C.n):
            basis = C.bases[k]
            targets = [C.index[k - 1][cc.merge(p, k - 1)] for p in basis]
            assert targets == [C.index[k - 1][p[: k - 1] + (p[k - 1] | p[k],)] for p in basis]
            assert targets == sorted(targets)
            assert targets == [f[0][2] for f in columns(C, k)]
            prefixes = [p[: k - 1] for p in basis]
            starts = [q for i, q in enumerate(prefixes) if i == 0 or q != prefixes[i - 1]]
            assert len(starts) == len(set(starts)) == len(set(targets))


def test_merge_targets_are_the_positions_of_the_merges():
    # the offsets that build the columns, against merging every partition
    # and looking the merge up
    for n in range(2, 9):
        bases = cc.enumerate_basis(n)
        index = basis_positions(n)
        levels = list(cc.merge_targets(bases))
        assert len(levels) == n - 1
        for k, targets in enumerate(levels, 1):
            assert len(targets) == k + 1
            for s, target in enumerate(targets):
                assert target == [index[k - 1][cc.merge(p, s)] for p in bases[k]], (n, k, s)


def test_the_build_and_export_look_up_no_partition(monkeypatch):
    # resolve builds no merged partition and no partition -> index dict;
    # the checks build the dicts on first use
    calls = []
    original = cc.merge

    def counting(p, s):
        calls.append((p, s))
        return original(p, s)

    monkeypatch.setattr(cc, "merge", counting)
    C = bundled_complex("echelon6")
    text = export_text(C)
    assert calls == []
    assert "index" not in vars(C)
    assert text == reference_text(C)
    assert C.index[2][C.bases[2][7]] == 7
    assert "index" in vars(C)


def test_resolve_derives_no_columns():
    # resolve builds, checks minimality and exports from the term
    # positions, and derives no column; a full verification reads them
    # too, division and S-vectors included, and derives no column either:
    # it adds only the partition index the checks build on first use
    complexes = [bundled_complex(name) for name in RESOLVABLE]
    complexes += [cc.build_complex(C.L) for C in swept_complexes()[-3:]]
    built = {"L", "ctx", "bases", "tower", "arrows", "n", "positions", "shifts"}
    tables = {"ctx", "bits", "base", "positions", "shifts"}
    for C in complexes:
        cc.minimality_check(C)
        export_text(C)
        assert set(vars(C)) == built
        assert set(vars(C.tower)) == tables
        assert rv.full_verify(C, d_max=2).passed
        assert set(vars(C)) == built | {"index"}
        assert set(vars(C.tower)) == tables


@st.composite
def partition_pairs(draw):
    """Two random canonical partitions of one {1..n}, n <= 7, into the same
    number (at least two) of blocks, as sorted vertex tuples."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(2, n))

    def partition():
        # the first m-1 blocks cut a shuffle of 1..n-1; the rest joins n
        order = draw(st.permutations(range(1, n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1)))
        blocks = [tuple(sorted(order[a:b])) for a, b in zip([0] + cuts, cuts + [None])]
        return tuple(blocks[:-1]) + (blocks[-1] + (n,),)

    return n, partition(), partition()


@settings(max_examples=200, deadline=None)
@given(partition_pairs())
def test_mask_operations_match_the_tuple_reference(case):
    n, p, q = case
    k = len(p) - 1
    assert [tuples(cc.merge(P(*p), s)) for s in range(k + 1)] == [
        ref.merge(p, s) for s in range(k + 1)
    ]
    # rho_image reads only the level-k basis
    C = SimpleNamespace(bases={k: [P(*p), P(*q)]})
    assert tuples(rv.rho_image(C, k, 0, 1)) == ref.rho_image(p, q, k)
    position = basis_positions(n)[k]
    assert (position[P(*p)] < position[P(*q)]) == (ref.srle_key(p, n) < ref.srle_key(q, n))
    assert (position[P(*p)] == position[P(*q)]) == (p == q)


# ---------------------------------------------------------------------------
# arrow monomials and boundaries

def disjoint_pairs(n):
    """Every pair (I, J) of disjoint vertex masks of {1..n}, 3^n of them."""
    return [(I, J) for I in range(1 << n) for J in range(1 << n) if not I & J]


def test_arrow_monomial_empty_sets():
    L = generic4_matrix()
    assert arrow_monomial(*P([], [1, 2]), L, CTX4) == CTX4.pack((0, 0, 0, 0))
    assert arrow_monomial(*P([1, 2], []), L, CTX4) == CTX4.pack((0, 0, 0, 0))
    arrows = cc.arrow_table(L, CTX8)
    assert arrows[0] == [0] * 16
    assert [row[0] for row in arrows] == [0] * 16


def test_arrow_monomial_k4(k4_complex):
    C = k4_complex
    assert arrow_monomial(*P([1, 2, 3], [4]), C.L, C.ctx) == C.ctx.pack((1, 1, 1, 0))
    assert C.arrows[0b0111][0b1000] == C.ctx.pack((1, 1, 1, 0))


def test_arrow_monomial_generic():
    L = generic4_matrix()
    a = L.a
    got = arrow_monomial(*P([2, 3], [1, 4]), L, CTX4)
    assert got == CTX4.pack((0, a[1][0] + a[1][3], a[2][0] + a[2][3], 0))
    with pytest.raises(InternalError, match=r"overlapping sets \(1, 2\), \(2, 3\)"):
        arrow_monomial(*P([1, 2], [2, 3]), L, CTX4)
    # a row sum past the fields is refused, not wrapped into another variable
    with pytest.raises(InternalError, match="exponent 33 of x4 does not fit 6-bit fields"):
        arrow_monomial(*P([4], [1, 2, 3]), L, CTX4)
    # the table refuses it too, when it is built: x4's weight into
    # {1, 2, 3} is 33, past the cap of 31, and every other row sum fits
    with pytest.raises(InternalError, match="exponent 33 of x4 does not fit 6-bit fields"):
        cc.arrow_table(L, CTX4)
    arrows = cc.arrow_table(L, CTX8)
    assert arrows[0b0110][0b1001] == CTX8.pack((0, a[1][0] + a[1][3], a[2][0] + a[2][3], 0))
    assert arrows[0b1000][0b0111] == CTX8.pack((0, 0, 0, 33))
    # a pair that meets has no entry
    assert arrows[0b0011][0b0110] is None


def test_arrow_table_is_the_reference_on_every_disjoint_pair():
    # 3^n pairs per complex: the bundled instances and n = 2..7, seeds 0..2
    for C in swept_complexes():
        size = 1 << C.n
        assert len(C.arrows) == size and {len(row) for row in C.arrows} == {size}
        pairs = disjoint_pairs(C.n)
        assert len(pairs) == 3**C.n
        for I, J in pairs:
            assert C.arrows[I][J] == arrow_monomial(I, J, C.L, C.ctx), (C.ctx.nu, I, J)
        meet = [(I, J) for I in range(size) for J in range(size) if I & J]
        assert all(C.arrows[I][J] is None for I, J in meet)


@pytest.mark.parametrize("rows", [None, ECHELON6], ids=["k4", "echelon6"])
def test_arrow_table_belongs_to_one_complex(rows, k4_complex):
    # the table holds every disjoint block pair, summed in the complex's
    # own packing, and every column's monomials are its entries; another
    # complex in the same process has its own table
    C = complex_from_matrix(rows or [[3, -1, -1, -1], [-1, 3, -1, -1],
                                     [-1, -1, 3, -1], [-1, -1, -1, 3]])
    entries = {(I, J): C.arrows[I][J] for I, J in disjoint_pairs(C.n)}
    assert entries == {(I, J): arrow_monomial(I, J, C.L, C.ctx) for I, J in entries}
    for k in range(1, C.n):
        for p, f in zip(C.bases[k], columns(C, k)):
            pairs = [(p[s], p[(s + 1) % (k + 1)]) for s in range(k + 1)]
            assert sorted(m for _, m, _ in f) == sorted(entries[pair] for pair in pairs)
    assert C.arrows is not k4_complex.arrows
    other = complex_from_matrix(WEIGHTED4)
    assert other.arrows is not C.arrows
    assert all(
        other.arrows[I][J] == arrow_monomial(I, J, other.L, other.ctx)
        for I, J in disjoint_pairs(other.n)
    )


def test_boundary_level2_generic_example(generic4_complex):
    # image of (23,1,4) combines (123,4), (23,14) and (1,234)
    C = generic4_complex
    a = C.L.a
    f = columns(C, 2)[0]
    assert C.bases[2][0] == P([2, 3], [1], [4])
    expected = {
        **poly_elem(C.ctx, {(0, a[1][0], a[2][0], 0): 1}, C.index[1][P([1, 2, 3], [4])]),
        **poly_elem(C.ctx, {(a[0][3], 0, 0, 0): -1}, C.index[1][P([2, 3], [1, 4])]),
        **poly_elem(C.ctx, {(0, 0, 0, a[3][1] + a[3][2]): -1}, C.index[1][P([1], [2, 3, 4])]),
    }
    assert column_elem(f) == expected


def test_boundary_level3_signs(generic4_complex):
    # image of (3,2,1,4) has signs +,-,+,- on its four partners
    C = generic4_complex
    a = C.L.a
    f = columns(C, 3)[0]
    assert C.bases[3][0] == P([3], [2], [1], [4])
    expected = {
        **poly_elem(C.ctx, {(0, 0, a[2][1], 0): 1}, C.index[2][P([2, 3], [1], [4])]),
        **poly_elem(C.ctx, {(0, a[1][0], 0, 0): -1}, C.index[2][P([3], [1, 2], [4])]),
        **poly_elem(C.ctx, {(a[0][3], 0, 0, 0): 1}, C.index[2][P([3], [2], [1, 4])]),
        **poly_elem(C.ctx, {(0, 0, 0, a[3][2]): -1}, C.index[2][P([2], [1], [3, 4])]),
    }
    assert column_elem(f) == expected


def test_boundary_singletons_give_column_binomials(generic4_complex):
    C = generic4_complex
    rows = C.L.signed_rows()
    n = C.n
    for i in range(1, n):
        p = P([i], [v for v in range(1, n + 1) if v != i])
        f = columns(C, 1)[C.index[1][p]]
        col = [rows[r][i - 1] for r in range(n)]
        plus = tuple(max(x, 0) for x in col)
        minus = tuple(max(-x, 0) for x in col)
        assert column_elem(f) == poly_elem(C.ctx, {plus: 1, minus: -1})


def summed_boundary(p, arrows, index_below):
    """The image of p as its merge terms summed into an Elem, the definition
    that boundary's term positions are checked against."""
    k = len(p) - 1
    elem = {}
    for s in range(k + 1):
        sign = -1 if s == k else (-1) ** s
        mono = arrows[p[s]][p[(s + 1) % (k + 1)]]
        elem_add_term(elem, index_below[cc.merge(p, s)], sign, mono)
    return elem


def position_columns(positions):
    """Column j of a level's term positions: the sign and entry j of every
    position."""
    width = len(positions[0][1])
    return [
        tuple((sign, monos[j], targets[j]) for sign, monos, targets in positions)
        for j in range(width)
    ]


def test_boundary_columns_sum_the_merge_terms():
    # boundary's positions, and the columns zipped from the stored ones,
    # against merging every partition and looking the merge up
    for C in swept_complexes():
        with pytest.raises(InternalError, match="boundary needs at least two blocks"):
            cc.boundary(C.bases[0], C.arrows, {}, None)
        for k, targets in enumerate(cc.merge_targets(C.bases), 1):
            positions = cc.boundary(C.bases[k], C.arrows, targets, C.positions[k - 1])
            # k + 1 positions, each one int sign +-1 and a monomial and a
            # target per basis element: merge s = k-1, ..., 0 alternates
            # from +1, the closing merge is -1
            assert len(positions) == k + 1
            for sign, monos, position_targets in positions:
                assert type(sign) is int and sign in (1, -1)
                assert len(monos) == len(position_targets) == len(C.bases[k])
            assert [sign for sign, _, _ in positions] == [
                (-1) ** s for s in range(k - 1, -1, -1)
            ] + [-1]
            built = position_columns(positions)
            assert len(built) == len(C.bases[k]) == len(columns(C, k))
            for p, column, stored in zip(C.bases[k], built, columns(C, k)):
                # one term per merge position: no two share a monomial and
                # an index, so the sum cancels none of them
                expected = summed_boundary(p, C.arrows, C.index[k - 1])
                assert len(column) == len(stored) == len(expected) == k + 1
                assert column_elem(column) == expected
                assert column_elem(stored) == expected


def test_boundary_hands_the_tower_its_columns_in_module_order():
    # the positions come as s = k-1, ..., 0, k, which is the stored order
    # term for term, and the tower keeps the given positions; the
    # leading_term_formula check confirms that every column's keys
    # strictly decrease
    for C in swept_complexes():
        assert cc.check_leading_terms(C) == (True, None, {}), C.ctx.nu
        tower = OrderTower(C.ctx)
        for k, targets in enumerate(cc.merge_targets(C.bases), 1):
            positions = cc.boundary(C.bases[k], C.arrows, targets, tower.positions[k - 1])
            built = position_columns(positions)
            assert built == columns(C, k), (C.ctx.nu, k)
            for p, column in zip(C.bases[k], built):
                order = [*range(k - 1, -1, -1), k]
                assert [idx for _, _, idx in column] == [
                    C.index[k - 1][cc.merge(p, s)] for s in order
                ]
            tower.add_level(positions)
            assert tower.positions[k] is positions
            assert columns(tower, k) == built


def test_boundary_equals_the_arrow_table_lookup():
    # the build copies the monomials of the merges s < k-2 from the level
    # below; the reference looks every monomial up in the arrow table, and
    # each target is found here by merging and looking the merge up
    for C in swept_complexes():
        for k in range(1, C.n):
            basis = C.bases[k]
            targets = [[C.index[k - 1][cc.merge(p, s)] for p in basis] for s in range(k + 1)]
            assert C.positions[k] == lookup_boundary(basis, C.arrows, targets), (C.ctx.nu, k)


def test_boundary_copies_the_parent_monomials_from_the_level_below():
    # one monomial of the parent t's position of merge s < k-2 altered one
    # level down: at merge s exactly t's children follow it, and every
    # other entry of every position is the built one
    for C in swept_complexes():
        for k, targets in enumerate(cc.merge_targets(C.bases), 1):
            built, below = C.positions[k], C.positions[k - 1]
            for s in range(k - 2):
                i = k - 2 - s  # merge s's position one level down
                for t in {targets[k - 1][0], targets[k - 1][-1]}:
                    sign, monos, parents = below[i]
                    altered = list(monos)
                    altered[t] += C.ctx.variables[0]
                    mutated = [*below[:i], (sign, altered, parents), *below[i + 1 :]]
                    positions = cc.boundary(C.bases[k], C.arrows, targets, mutated)
                    children = [j for j, parent in enumerate(targets[k - 1]) if parent == t]
                    assert children
                    moved = positions[i + 1][1]
                    assert [
                        j for j, (a, b) in enumerate(zip(moved, built[i + 1][1])) if a != b
                    ] == children
                    assert {moved[j] for j in children} == {altered[t]}
                    assert positions[: i + 1] == built[: i + 1]
                    assert positions[i + 2 :] == built[i + 2 :]


def test_the_closing_merge_reaches_a_smaller_monomial():
    # the lemma of boundary's docstring, from the weights alone: for every
    # partition p, T = arrow(p[k], p[0]) * acc(merge(p, k)) and acc(p) first
    # differ, from the highest vertex down, off p[0], where T is larger;
    # so T < acc(p) in weighted revlex and the merge s = k comes last
    for C in swept_complexes():
        n, a = C.n, C.L.a

        def acc(blocks):
            exps = [0] * n
            for l, block in enumerate(blocks):
                after = [u - 1 for b in blocks[l + 1 :] for u in cc.vertices(b)]
                for v in cc.vertices(block):
                    exps[v - 1] += sum(a[v - 1][u] for u in after)
            return exps

        for k in range(1, n):
            for p in C.bases[k]:
                T = acc(cc.merge(p, k))
                for v in cc.vertices(p[k]):
                    T[v - 1] += sum(a[v - 1][u - 1] for u in cc.vertices(p[0]))
                A = acc(p)
                top = max(v for v in range(n) if T[v] != A[v])
                assert not p[0] >> top & 1 and T[top] > A[top], (C.ctx.nu, p)


# ---------------------------------------------------------------------------
# the assembled complex

def test_build_complex_ranks(k4_complex):
    assert k4_complex.ranks() == (1, 7, 12, 6)


def test_differential_coefficients_are_int(k4_complex):
    for C in (k4_complex, complex_from_matrix(ECHELON6)):
        coeffs = [c for k in range(1, C.n) for f in columns(C, k) for c, _, _ in f]
        assert coeffs and all(type(c) is int for c in coeffs)


def test_build_complex_ranks_n3_and_n5():
    g3 = graph_core.validate_digraph(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 3, 2)])
    C3 = cc.build_complex(graph_core.prepare(graph_core.laplacian(g3)))
    assert C3.ranks() == (1, 3, 2)

    g5 = random_icb_digraph(5, random.Random(1))
    C5 = cc.build_complex(graph_core.prepare(graph_core.laplacian(g5)))
    assert C5.ranks() == (1, 15, 50, 60, 24)


def test_build_complex_rejects_reducible():
    g = graph_core.digraph_from_matrix(REDUCIBLE)
    with pytest.raises(NotIrreducibleError):
        cc.build_complex(graph_core.laplacian(g))


def test_build_complex_rejects_non_echelon():
    g = graph_core.digraph_from_matrix(WEIGHTED4)
    with pytest.raises(ValidationError):
        cc.build_complex(graph_core.laplacian(g))


def test_build_packing_holds_an_explicit_oracle_degree():
    # the unit 3-cycle (D = 3) needs exponents up to 2*D = 6, in 4-bit
    # fields; asked for 40, the build packs wider and the complex reads
    # the same
    g = graph_core.digraph_from_matrix([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
    M = graph_core.prepare(graph_core.laplacian(g))
    narrow, wide = cc.build_complex(M), cc.build_complex(M, 40)
    assert (narrow.ctx.width, narrow.ctx.cap) == (4, 7)
    assert narrow.ctx.cap < 40 <= wide.ctx.cap
    seven = cc.build_complex(M, 7).ctx
    for attr in ("n", "nu", "width", "cap", "shift", "guard"):
        assert getattr(seven, attr) == getattr(narrow.ctx, attr), attr
    assert export_text(wide) == export_text(narrow)


def test_degree_bound_holds_every_shift_and_degree0_s_vector():
    # every shift is at most D = sum_i nu_i L_ii, and every term of every
    # degree-0 S-vector, a product of two monomials of degree at most D,
    # has degree at most degree_bound = 2*D and fits its fields
    for C in swept_complexes():
        nu, ctx = C.ctx.nu, C.ctx
        D = sum(w * C.L.a[i][i] for i, w in enumerate(nu))
        bound = cc.degree_bound(C.L, nu)
        assert bound == 2 * D
        assert max(max(level) for level in C.shifts) <= D
        r1 = len(columns(C, 1))
        for i in range(r1):
            for j in range(i + 1, r1):
                s = s_vector(C.tower, 0, i, j)
                for mono, _ in s:
                    assert ctx.degree(mono) <= bound
                    assert not (-mono & ctx.mask) & ctx.guard


def test_basis_size_counts_every_degree():
    for n in range(1, 7):
        assert ref.basis_size(n) == sum(map(len, cc.enumerate_basis(n)))
    assert [ref.basis_size(n) for n in (8, 9, 10)] == [94_586, 1_091_670, 14_174_522]


def test_ten_vertices_are_refused_before_any_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("a basis was enumerated")

    monkeypatch.setattr(cc, "enumerate_basis", refuse)
    g = graph_core.validate_digraph(10, [(v, v % 10 + 1, 1) for v in range(1, 11)])
    L = graph_core.laplacian(g)
    assert graph_core.classify(L) == "ICB"
    with pytest.raises(ValidationError) as e:
        cc.build_complex(graph_core.prepare(L))
    assert str(e.value) == "n = 10 is past the vertex cap: at most n = 9 is built"


def test_shifts_are_homogeneous_degrees(generic4_complex):
    C = generic4_complex
    assert C.shifts[0] == [0]
    for k in range(1, C.n):
        for j, f in enumerate(columns(C, k)):
            for _, mono, p in f:
                assert C.ctx.degree(mono) + C.shifts[k - 1][p] == C.shifts[k][j]


def test_euler_characteristic_vanishes(k4_complex, generic4_complex, cycle4_complex):
    for C in (k4_complex, generic4_complex, cycle4_complex):
        assert sum((-1) ** k * r for k, r in enumerate(C.ranks())) == 0


def test_check_d_squared(k4_complex):
    assert cc.check_d_squared(k4_complex) == (True, None, {})


def test_check_d_squared_random_n5():
    g = random_icb_digraph(5, random.Random(23))
    C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    assert cc.check_d_squared(C) == (True, None, {})
    assert cc.check_leading_terms(C) == (True, None, {})


def pairing_instances():
    """The bundled complexes and random_icb_digraph(n, Random(seed)) for
    n = 3..6 and seeds 0..19."""
    yield from (bundled_complex(name) for name in RESOLVABLE)
    for n in range(3, 7):
        for seed in range(20):
            g = random_icb_digraph(n, random.Random(seed))
            yield cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))


def test_the_fixed_pairing_holds_exactly(monkeypatch):
    # on every complex as built, composite (a, b) equals composite
    # (b + 1, a) with the opposite sign, list for list, for a <= b < k: the
    # check passes without summing a single column
    def refuse(*args):
        raise AssertionError("a column was summed")

    monkeypatch.setattr(cc, "composed_column", refuse)
    count = 0
    for C in pairing_instances():
        for k in range(2, C.n):
            level, below = C.positions[k], C.positions[k - 1]
            assert (len(level), len(below)) == (k + 1, k)
            for b in range(k):
                for a in range(b + 1):
                    sign, monos, targets = cc.composite(level, below, a, b)
                    assert cc.composite(level, below, b + 1, a) == (-sign, monos, targets)
        assert cc.check_d_squared(C) == (True, None, {})
        count += 1
    assert count == 86


def reference_d_squared(C, k, j):
    """d_(k-1) of column j of d_k, summed from the columns one term at a
    time: the definition the fixed pairing is checked against."""
    below = columns(C, k - 1)
    image = {}
    for coeff, mono, idx in columns(C, k)[j]:
        for c, m, p in below[idx]:
            elem_add_term(image, p, coeff * c, mono + m)
    return image


def test_composed_column_sums_as_the_reference():
    # every column of levels 2..n-1 composes to zero, summed by the package
    # one column of the level below per term (elem_combine) and by the
    # reference one term at a time
    count = 0
    for C in pairing_instances():
        for k in range(2, C.n):
            level, below = C.positions[k], C.positions[k - 1]
            for j in range(len(C.bases[k])):
                assert cc.composed_column(level, below, j) == {} == reference_d_squared(C, k, j)
                count += 1
    assert count == 25220


def test_tower_keys_match_the_reference_key():
    # the whole-list keys of every position of every level, given as lists
    # (check_leading_terms) or as iterators (the τ walk), equal the
    # reference key of each term, entry for entry
    for C in pairing_instances():
        for k in range(1, C.n):
            for _, monos, targets in C.positions[k]:
                want = [key(C.tower, k - 1, m, t) for m, t in zip(monos, targets)]
                assert C.tower.keys(k - 1, monos, targets) == want
                assert C.tower.keys(k - 1, iter(monos), iter(targets)) == want


def recorded_sums(monkeypatch):
    """The (level, column) pairs check_d_squared sums, in order, as it sums
    them; a level is its list of positions."""
    summed = []
    composed_column = cc.composed_column

    def recording(level, below, j):
        summed.append((level, j))
        return composed_column(level, below, j)

    monkeypatch.setattr(cc, "composed_column", recording)
    return summed


def test_d_squared_names_a_changed_monomial_on_its_level(monkeypatch):
    # one term of one column times x1, or moved to the next target, at
    # every level from 2 up and at every position: the pairs that read it
    # differ only in that column, which alone is summed and named
    summed = recorded_sums(monkeypatch)
    g = random_icb_digraph(6, random.Random(4))
    built = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    for k in range(2, built.n):
        for i in range(k + 1):
            for change in ("monomial", "target"):
                C = cc.build_complex(built.L)
                j = (7 * i + 3) % len(C.bases[k])
                _, mono, target = columns(C, k)[j][i]
                if change == "monomial":
                    set_entry(C, k, i, j, mono=mono + C.ctx.variables[0])
                else:
                    set_entry(C, k, i, j, target=(target + 1) % len(C.bases[k - 1]))
                # the package's sum is the reference's, and nonzero
                image = reference_d_squared(C, k, j)
                assert image and cc.composed_column(C.positions[k], C.positions[k - 1], j) == image
                del summed[:]
                assert cc.check_d_squared(C) == (
                    False, f"composition nonzero on column {j + 1} in degree {k}", {}
                ), (k, i, change)
                assert summed == [(C.positions[k], j)], (k, i, change)


def test_d_squared_names_the_first_column_under_a_flipped_sign():
    # a position's sign flipped at level k: no composite through it meets
    # its partner with the opposite sign, every column is summed, and the
    # first is named
    g = random_icb_digraph(6, random.Random(4))
    built = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    for k in range(2, built.n):
        for i in range(k + 1):
            C = cc.build_complex(built.L)
            sign, monos, targets = C.positions[k][i]
            C.positions[k][i] = (-sign, monos, targets)
            assert reference_d_squared(C, k, 0)
            assert cc.check_d_squared(C) == (
                False, f"composition nonzero on column 1 in degree {k}", {}
            ), (k, i)


def test_d_squared_compares_targets_as_well_as_monomials():
    # K4 with a copy r of degree-0 column 1, and a copy t' of a degree-1
    # column t that has a term on e[1,1], with that term moved onto e[1,r]:
    # t and t' have equal monomials and differ in a target, and d∘d is
    # still 0 on both.  A degree-2 column whose term on t is moved onto t'
    # changes no monomial of any composite, only a target, and its image
    # no longer cancels
    C = complex_from_matrix([[3, -1, -1, -1], [-1, 3, -1, -1],
                             [-1, -1, 3, -1], [-1, -1, -1, 3]])

    def append_copy(k, j, retarget=None):
        for i, (sign, monos, targets) in enumerate(C.positions[k]):
            target = targets[j]
            if retarget is not None and target == retarget[0]:
                target = retarget[1]
            C.positions[k][i] = (sign, [*monos, monos[j]], [*targets, target])
        return len(C.positions[k][0][1]) - 1

    r = append_copy(1, 0)
    t = next(j for j, f in enumerate(columns(C, 2)) if any(p == 0 for _, _, p in f))
    t_copy = append_copy(2, t, retarget=(0, r))
    assert [m for _, m, _ in columns(C, 2)[t_copy]] == [m for _, m, _ in columns(C, 2)[t]]
    assert cc.check_d_squared(C) == (True, None, {})
    j, i = next((j, i) for j, f in enumerate(columns(C, 3)) for i, (_, _, p) in enumerate(f)
                if p == t)
    set_entry(C, 3, i, j, target=t_copy)
    assert reference_d_squared(C, 3, j)
    assert cc.check_d_squared(C) == (
        False, f"composition nonzero on column {j + 1} in degree 3", {}
    )


def test_d_squared_sums_every_column_of_a_level_of_another_length():
    # the pairing covers k + 1 positions over k: a level with one position
    # more, a copy of its first, is summed column by column and fails at its
    # first column; one with two more that cancel each other is summed, as
    # is the level above, which reads it as the level below, and passes
    for k in (2, 3):
        C = complex_from_matrix(ECHELON6)
        C.positions[k].append(C.positions[k][0])
        assert reference_d_squared(C, k, 0)
        assert cc.check_d_squared(C) == (
            False, f"composition nonzero on column 1 in degree {k}", {}
        )
        C = complex_from_matrix(ECHELON6)
        C.positions[k - 1].append(C.positions[k - 1][0])
        C.positions[k - 1].append((-C.positions[k - 1][0][0], *C.positions[k - 1][0][1:]))
        assert cc.check_d_squared(C) == (True, None, {})


def test_d_squared_sums_a_column_that_cancels_another_way(monkeypatch):
    # column j's entries exchanged between the first and third positions,
    # of one sign (the merges k - 1 and k - 3, or at degree 2 the merge 1
    # and the closing one): the column is the same sum, so d∘d = 0, but the
    # pairs through those positions differ in that column.  It is summed,
    # cancels and passes, while leading_term_formula finds it out of order;
    # a real fault in a later column of the level is then the witness.  The
    # level above reads the exchanged entries too, and sums the columns
    # that reach them, which cancel as well
    summed = recorded_sums(monkeypatch)
    for k, j, later in ((2, 3, 8), (3, 5, 17), (4, 2, 40)):
        C = complex_from_matrix(ECHELON6)
        assert C.positions[k][0][0] == C.positions[k][2][0]
        swap_entries(C, k, j, 0, 2)
        assert not reference_d_squared(C, k, j)
        del summed[:]
        assert cc.check_d_squared(C) == (True, None, {})
        assert [column for level, column in summed if level is C.positions[k]] == [j]
        assert cc.check_leading_terms(C) == (
            False, f"column {j + 1} in degree {k} is not in module order", {}
        )
        _, mono, _ = columns(C, k)[later][1]
        set_entry(C, k, 1, later, mono=mono + C.ctx.variables[0])
        del summed[:]
        assert cc.check_d_squared(C) == (
            False, f"composition nonzero on column {later + 1} in degree {k}", {}
        )
        assert [column for level, column in summed if level is C.positions[k]] == [j, later]


def test_corrupted_sign_breaks_d_squared():
    # the sign of the last position of degree 2 flipped: every column's
    # image changes, and the first is named
    C = complex_from_matrix([[3, -1, -1, -1], [-1, 3, -1, -1],
                             [-1, -1, 3, -1], [-1, -1, -1, 3]])
    sign, monos, targets = C.positions[2][-1]
    C.positions[2][-1] = (-sign, monos, targets)
    ok, witness, counters = cc.check_d_squared(C)
    assert not ok
    assert witness == "composition nonzero on column 1 in degree 2"
    assert counters == {}


def test_d_squared_witness_names_the_corrupted_column():
    # the last term of column 5 of degree 2 times x1: d_1 of that column
    # is no longer zero, and no earlier column fails
    C = complex_from_matrix([[3, -1, -1, -1], [-1, 3, -1, -1],
                             [-1, -1, 3, -1], [-1, -1, -1, 3]])
    assert cc.check_d_squared(C) == (True, None, {})
    _, mono, _ = columns(C, 2)[4][-1]
    set_entry(C, 2, 2, 4, mono=mono + C.ctx.variables[0])
    assert cc.check_d_squared(C) == (
        False, "composition nonzero on column 5 in degree 2", {}
    )


def test_leading_terms_witness_names_the_first_mismatch():
    # a lead times x1 stays above the terms after it, so the column stays
    # in module order.  On level 1 the closed formula is this check's, and
    # the fault names the column
    rows = [[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]]
    C = complex_from_matrix(rows)
    _, mono, _ = columns(C, 1)[3][0]
    set_entry(C, 1, 0, 3, mono=mono + C.ctx.variables[0])
    assert cc.check_leading_terms(C) == (
        False, "formula mismatch on column 4 in degree 1", {}
    )
    assert not rv.full_verify(C).passed
    # above level 1 the τ check owns the lead: the same fault in column 7
    # of degree 2 passes here, fails there and fails the report
    C = complex_from_matrix(rows)
    _, mono, _ = columns(C, 2)[6][0]
    set_entry(C, 2, 0, 6, mono=mono + C.ctx.variables[0])
    assert cc.check_leading_terms(C) == (True, None, {})
    assert rv.verify_tau_level(C, 1) == (
        False, "leading component mismatch at (2,13,4)", {"elements": 6}
    )
    assert not rv.full_verify(C).passed


def test_first_differential_image_in_kernel_of_projection(k4_complex):
    # degree-1 images are differences of monomials with equal weighted degree,
    # the defining property of lattice-ideal membership
    C = k4_complex
    for f in columns(C, 1):
        elem = column_elem(f)
        assert len(elem) == 2
        (m0, i0), (m1, i1) = elem
        assert i0 == i1 == 0
        assert C.ctx.degree(m0) == C.ctx.degree(m1)
        assert elem[m0, 0] + elem[m1, 0] == 0


def test_minimality_check(k4_complex, cycle4_complex):
    assert cc.minimality_check(k4_complex) == (True, None)
    ok, witness = cc.minimality_check(cycle4_complex)
    assert not ok
    k, j, p, coeff = witness
    assert abs(coeff) == 1
    unit = 0
    assert column_elem(columns(cycle4_complex, k)[j])[unit, p] == coeff
    # a column with two constant terms: the witness names the lower target
    g = random_icb_digraph(4, random.Random(2))
    C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    assert cc.minimality_check(C) == (False, (2, 1, 0, 1))
    assert sorted(p for _, mono, p in columns(C, 2)[1] if mono == unit) == [0, 2]


def test_minimality_weighted_complete_graph():
    a = [[0, 2, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    rows = [
        [sum(a[i]) if i == j else -a[i][j] for j in range(4)]
        for i in range(4)
    ]
    C = complex_from_matrix(rows)
    assert cc.minimality_check(C) == (True, None)


def test_leading_terms_match_formula(k4_complex, generic4_complex, cycle4_complex):
    for C in (k4_complex, generic4_complex, cycle4_complex):
        assert cc.check_leading_terms(C) == (True, None, {})


def test_boundary_xn_marker():
    # all terms except the closing one avoid the last variable; with a
    # positive last row the closing term must contain it
    C = complex_from_matrix([[3, -1, -1, -1], [-1, 3, -1, -1],
                             [-1, -1, 3, -1], [-1, -1, -1, 3]])
    n = C.n
    assert all(C.L.a[n - 1][i] > 0 for i in range(n - 1))
    for k in range(1, n):
        for j, p in enumerate(C.bases[k]):
            f = column_elem(columns(C, k)[j])
            rotate = cc.merge(p, k)
            ridx = C.index[k - 1][rotate]
            on_ridx = sum(1 for _, idx in f if idx == ridx)
            for mono, idx in f:
                if idx == ridx and on_ridx == 1:
                    assert C.ctx.unpack(mono)[n - 1] > 0
                elif idx != ridx:
                    assert C.ctx.unpack(mono)[n - 1] == 0


# ---------------------------------------------------------------------------
# export

def test_export_round_trip(k4_complex):
    C = k4_complex
    doc = json.loads(export_text(C))
    assert doc["n"] == 4
    assert doc["nu"] == [1, 1, 1, 1]
    assert doc["ranks"] == [1, 7, 12, 6]
    assert doc["shifts"][0] == [0]
    for k in range(1, 4):
        cols = doc["diffs"][k - 1]
        assert [c["basis"] for c in cols] == list(range(1, len(C.bases[k]) + 1))
        for j, col in enumerate(cols):
            assert parse_column(col["poly"], C.ctx) == columns(C, k)[j]


def test_export_is_deterministic(k4_complex):
    assert export_text(k4_complex) == export_text(k4_complex)


def reference_text(C):
    return json.dumps(to_json_dict(C), indent=2, sort_keys=True)


@pytest.mark.parametrize("name", RESOLVABLE)
def test_export_matches_the_reference_document(name):
    C = bundled_complex(name)
    assert export_text(C) == reference_text(C)


def test_export_matches_the_reference_document_on_random_instances():
    # n = 2 gives a differential level of width 1; level 0 of the shifts
    # always has width 1
    widths = set()
    for n in range(2, 7):
        for seed in range(3):
            g = random_icb_digraph(n, random.Random(seed))
            C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
            assert export_text(C) == reference_text(C), (n, seed)
            widths.update(len(C.bases[k]) for k in range(1, C.n))
    assert 1 in widths


def test_export_writes_empty_lists_as_json_does():
    # no buildable complex has an empty list; these stand-ins have one at
    # every depth the document streams
    no_nu, one_nu = SimpleNamespace(nu=()), SimpleNamespace(nu=(1,))
    for C in (
        SimpleNamespace(n=1, ctx=no_nu, ranks=tuple, shifts=[[]], positions=[]),
        SimpleNamespace(n=2, ctx=one_nu, ranks=tuple, shifts=[], positions=[None, []]),
    ):
        assert export_text(C) == reference_text(C)


def test_export_streams_one_column_at_a_time(k4_complex):
    # no write holds more than one column entry, and none is longer than
    # the longest column entry or level of shifts as the document lays
    # them out, with the separator before them
    for C in (k4_complex, bundled_complex("echelon6")):
        doc = to_json_dict(C)
        entries = [
            textwrap.indent(json.dumps(entry, indent=2), " " * 6)
            for level in doc["diffs"]
            for entry in level
        ]
        levels = [textwrap.indent(json.dumps(level, indent=2), " " * 4) for level in doc["shifts"]]
        bound = 2 + max(map(len, entries + levels))
        chunks = []
        cc.export_json(C, SimpleNamespace(write=chunks.append))
        assert "".join(chunks) == reference_text(C)
        assert max(map(len, chunks)) <= bound
        assert max(chunk.count('"poly"') for chunk in chunks) == 1
        assert sum(chunk.count('"poly"') for chunk in chunks) == len(entries)


# ---------------------------------------------------------------------------
# full differential tables for n = 4, frozen from the generic displayed form

def _expected_elem(C, terms):
    """terms: (sign, {var: [targets]}, partition string) -> Elem."""
    a = C.L.a
    out = {}
    for sign, exps, part in terms:
        mono = [0, 0, 0, 0]
        for v, targets in exps.items():
            mono[v - 1] = sum(a[v - 1][t - 1] for t in targets)
        blocks = P(*(map(int, b) for b in part.split(",")))
        out.update(poly_elem(C.ctx, {tuple(mono): sign}, C.index[len(blocks) - 1][blocks]))
    return out


LEVEL2_TABLE = [
    ("23,1,4", [(1, {2: [1], 3: [1]}, "123,4"), (-1, {1: [4]}, "23,14"),
                (-1, {4: [2, 3]}, "1,234")]),
    ("13,2,4", [(1, {1: [2], 3: [2]}, "123,4"), (-1, {2: [4]}, "13,24"),
                (-1, {4: [1, 3]}, "2,134")]),
    ("12,3,4", [(1, {1: [3], 2: [3]}, "123,4"), (-1, {3: [4]}, "12,34"),
                (-1, {4: [1, 2]}, "3,124")]),
    ("3,12,4", [(1, {3: [1, 2]}, "123,4"), (-1, {1: [4], 2: [4]}, "3,124"),
                (-1, {4: [3]}, "12,34")]),
    ("3,2,14", [(1, {3: [2]}, "23,14"), (-1, {2: [1, 4]}, "3,124"),
                (-1, {1: [3], 4: [3]}, "2,134")]),
    ("3,1,24", [(1, {3: [1]}, "13,24"), (-1, {1: [2, 4]}, "3,124"),
                (-1, {2: [3], 4: [3]}, "1,234")]),
    ("2,13,4", [(1, {2: [1, 3]}, "123,4"), (-1, {1: [4], 3: [4]}, "2,134"),
                (-1, {4: [2]}, "13,24")]),
    ("2,3,14", [(1, {2: [3]}, "23,14"), (-1, {3: [1, 4]}, "2,134"),
                (-1, {1: [2], 4: [2]}, "3,124")]),
    ("2,1,34", [(1, {2: [1]}, "12,34"), (-1, {1: [3, 4]}, "2,134"),
                (-1, {3: [2], 4: [2]}, "1,234")]),
    ("1,23,4", [(1, {1: [2, 3]}, "123,4"), (-1, {2: [4], 3: [4]}, "1,234"),
                (-1, {4: [1]}, "23,14")]),
    ("1,3,24", [(1, {1: [3]}, "13,24"), (-1, {3: [2, 4]}, "1,234"),
                (-1, {2: [1], 4: [1]}, "3,124")]),
    ("1,2,34", [(1, {1: [2]}, "12,34"), (-1, {2: [3, 4]}, "1,234"),
                (-1, {3: [1], 4: [1]}, "2,134")]),
]

LEVEL3_TABLE = [
    ("3,2,1,4", [(1, {3: [2]}, "23,1,4"), (-1, {2: [1]}, "3,12,4"),
                 (1, {1: [4]}, "3,2,14"), (-1, {4: [3]}, "2,1,34")]),
    ("3,1,2,4", [(1, {3: [1]}, "13,2,4"), (-1, {1: [2]}, "3,12,4"),
                 (1, {2: [4]}, "3,1,24"), (-1, {4: [3]}, "1,2,34")]),
    ("2,3,1,4", [(1, {2: [3]}, "23,1,4"), (-1, {3: [1]}, "2,13,4"),
                 (1, {1: [4]}, "2,3,14"), (-1, {4: [2]}, "3,1,24")]),
    ("2,1,3,4", [(1, {2: [1]}, "12,3,4"), (-1, {1: [3]}, "2,13,4"),
                 (1, {3: [4]}, "2,1,34"), (-1, {4: [2]}, "1,3,24")]),
    ("1,3,2,4", [(1, {1: [3]}, "13,2,4"), (-1, {3: [2]}, "1,23,4"),
                 (1, {2: [4]}, "1,3,24"), (-1, {4: [1]}, "3,2,14")]),
    ("1,2,3,4", [(1, {1: [2]}, "12,3,4"), (-1, {2: [3]}, "1,23,4"),
                 (1, {3: [4]}, "1,2,34"), (-1, {4: [1]}, "2,3,14")]),
]


def _check_table(C, k, table):
    assert len(table) == len(C.bases[k])
    for pos, (part, terms) in enumerate(table):
        assert tuples(C.bases[k][pos]) == tuple(tuple(map(int, b)) for b in part.split(","))
        assert column_elem(columns(C, k)[pos]) == _expected_elem(C, terms)


def test_level2_differential_matches_published_table(generic4_complex):
    _check_table(generic4_complex, 2, LEVEL2_TABLE)


def test_level3_differential_matches_published_table(generic4_complex):
    _check_table(generic4_complex, 3, LEVEL3_TABLE)


def test_differential_tables_hold_for_k4(k4_complex):
    _check_table(k4_complex, 2, LEVEL2_TABLE)
    _check_table(k4_complex, 3, LEVEL3_TABLE)
