import json
import random
import textwrap
from functools import lru_cache, reduce
from itertools import product
from operator import is_, or_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_reference as ref
from export_reference import to_json_dict
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
    complex_from_matrix,
    elem_add_term,
    export_text,
    generic4_matrix,
    parse_column,
    poly_elem,
    random_icb_digraph,
    swept_complexes,
    tuples,
)

# 6-bit fields: exponents up to 31, above every row sum of generic4_matrix
CTX4 = GradedContext(4, (1, 1, 1, 1), 6)


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
            assert targets == [f[0][2] for f in C.diffs[k]]
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

def test_arrow_monomial_empty_sets():
    L = generic4_matrix()
    assert cc.arrow_monomial(*P([], [1, 2]), L, CTX4) == CTX4.pack((0, 0, 0, 0))
    assert cc.arrow_monomial(*P([1, 2], []), L, CTX4) == CTX4.pack((0, 0, 0, 0))


def test_arrow_monomial_k4(k4_complex):
    C = k4_complex
    assert cc.arrow_monomial(*P([1, 2, 3], [4]), C.L, C.ctx) == C.ctx.pack((1, 1, 1, 0))


def test_arrow_monomial_generic():
    L = generic4_matrix()
    a = L.a
    got = cc.arrow_monomial(*P([2, 3], [1, 4]), L, CTX4)
    assert got == CTX4.pack((0, a[1][0] + a[1][3], a[2][0] + a[2][3], 0))
    with pytest.raises(InternalError, match=r"overlapping sets \(1, 2\), \(2, 3\)"):
        cc.arrow_monomial(*P([1, 2], [2, 3]), L, CTX4)
    # a row sum past the fields is refused, not wrapped into another variable
    with pytest.raises(InternalError, match="exponent 33 of x4 does not fit 6-bit fields"):
        cc.arrow_monomial(*P([4], [1, 2, 3]), L, CTX4)


@pytest.mark.parametrize("rows", [None, ECHELON6], ids=["k4", "echelon6"])
def test_arrow_table_belongs_to_one_complex(rows, k4_complex, monkeypatch):
    # every block pair is summed once, by the complex's own table; another
    # complex in the same process has its own table and its own packing
    calls = []
    original = cc.arrow_monomial

    def counting(I, J, L, ctx):
        calls.append((I, J))
        return original(I, J, L, ctx)

    monkeypatch.setattr(cc, "arrow_monomial", counting)
    C = complex_from_matrix(rows or [[3, -1, -1, -1], [-1, 3, -1, -1],
                                     [-1, -1, 3, -1], [-1, -1, -1, 3]])
    assert len(calls) == len(set(calls)) == len(C.arrows)
    for (I, J), mono in C.arrows.items():
        assert mono == original(I, J, C.L, C.ctx)
    for k in range(1, C.n):
        for p, f in zip(C.bases[k], C.diffs[k]):
            pairs = [(p[s], p[(s + 1) % (k + 1)]) for s in range(k + 1)]
            assert sorted(m for _, m, _ in f) == sorted(C.arrows[pair] for pair in pairs)
    assert C.arrows is not k4_complex.arrows
    other = complex_from_matrix(WEIGHTED4)
    assert other.arrows is not C.arrows and other.arrows.ctx is other.ctx


def test_boundary_level2_generic_example(generic4_complex):
    # image of (23,1,4) combines (123,4), (23,14) and (1,234)
    C = generic4_complex
    a = C.L.a
    f = C.diffs[2][0]
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
    f = C.diffs[3][0]
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
        f = C.diffs[1][C.index[1][p]]
        col = [rows[r][i - 1] for r in range(n)]
        plus = tuple(max(x, 0) for x in col)
        minus = tuple(max(-x, 0) for x in col)
        assert column_elem(f) == poly_elem(C.ctx, {plus: 1, minus: -1})


def summed_boundary(p, arrows, index_below):
    """The image of p as its merge terms summed into an Elem, the definition
    that boundary's term tuples are checked against."""
    k = len(p) - 1
    elem = {}
    for s in range(k + 1):
        sign = -1 if s == k else (-1) ** s
        mono = arrows[p[s], p[(s + 1) % (k + 1)]]
        elem_add_term(elem, index_below[cc.merge(p, s)], sign, mono)
    return elem


def test_boundary_columns_sum_the_merge_terms():
    for C in swept_complexes():
        with pytest.raises(ValueError):
            cc.boundary(C.bases[0], C.arrows, {})
        for k, targets in enumerate(cc.merge_targets(C.bases), 1):
            columns = cc.boundary(C.bases[k], C.arrows, targets)
            assert len(columns) == len(C.bases[k]) == len(C.diffs[k])
            for p, column, stored in zip(C.bases[k], columns, C.diffs[k]):
                # one term per merge position: no two share a monomial and
                # an index, so the sum cancels none of them
                expected = summed_boundary(p, C.arrows, C.index[k - 1])
                assert len(column) == len(expected) == k + 1
                assert column_elem(column) == expected
                assert column_elem(stored) == expected


def test_boundary_hands_the_tower_its_columns_in_module_order():
    # the terms come as s = k-1, ..., 0, k, which is the stored order term
    # for term, and the tower keeps each given tuple; the leading_term_formula
    # check confirms that every column's keys strictly decrease
    for C in swept_complexes():
        assert cc.check_leading_terms(C) == (True, None, {}), C.ctx.nu
        tower = OrderTower(C.ctx)
        for k, targets in enumerate(cc.merge_targets(C.bases), 1):
            columns = cc.boundary(C.bases[k], C.arrows, targets)
            assert columns == C.diffs[k], (C.ctx.nu, k)
            for p, column in zip(C.bases[k], columns):
                order = [*range(k - 1, -1, -1), k]
                assert [idx for _, _, idx in column] == [
                    C.index[k - 1][cc.merge(p, s)] for s in order
                ]
            tower.add_level(columns)
            assert all(map(is_, tower.images[k], columns))


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
        coeffs = [c for k in range(1, C.n) for f in C.diffs[k] for c, _, _ in f]
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
        r1 = len(C.diffs[1])
        for i in range(r1):
            for j in range(i + 1, r1):
                s, _, _ = s_vector(C.tower, 0, i, j)
                for mono, _ in s:
                    assert ctx.degree(mono) <= bound
                    assert not (-mono & ctx.mask) & ctx.guard


def test_basis_size_counts_every_degree():
    for n in range(1, 7):
        assert cc.basis_size(n) == sum(map(len, cc.enumerate_basis(n)))
    assert [cc.basis_size(n) for n in (8, 9, 10)] == [94_586, 1_091_670, 14_174_522]


def test_ten_vertices_are_refused_before_any_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("a basis was enumerated")

    monkeypatch.setattr(cc, "enumerate_basis", refuse)
    g = graph_core.validate_digraph(10, [(v, v % 10 + 1, 1) for v in range(1, 11)])
    L = graph_core.laplacian(g)
    assert graph_core.classify(L) == "ICB"
    with pytest.raises(ValidationError, match="n = 10 has 14,174,522 basis elements"):
        cc.build_complex(graph_core.prepare(L))


def test_shifts_are_homogeneous_degrees(generic4_complex):
    C = generic4_complex
    assert C.shifts[0] == [0]
    for k in range(1, C.n):
        for j, f in enumerate(C.diffs[k]):
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


def negate_last_term(column):
    coeff, mono, idx = column[-1]
    return column[:-1] + ((-coeff, mono, idx),)


def test_corrupted_sign_breaks_d_squared():
    C = complex_from_matrix([[3, -1, -1, -1], [-1, 3, -1, -1],
                             [-1, -1, 3, -1], [-1, -1, -1, 3]])
    C.diffs[2][0] = negate_last_term(C.diffs[2][0])
    ok, witness, counters = cc.check_d_squared(C)
    assert not ok
    assert witness == "composition nonzero on column 1 in degree 2"
    assert counters == {}


def test_d_squared_witness_names_the_corrupted_column():
    # one flipped sign in column 5 of degree 2: d_1 of that column is no
    # longer zero, and no earlier column fails
    C = complex_from_matrix([[3, -1, -1, -1], [-1, 3, -1, -1],
                             [-1, -1, 3, -1], [-1, -1, -1, 3]])
    assert cc.check_d_squared(C) == (True, None, {})
    C.diffs[2][4] = negate_last_term(C.diffs[2][4])
    assert cc.check_d_squared(C) == (
        False, "composition nonzero on column 5 in degree 2", {}
    )


def test_leading_terms_witness_names_the_first_mismatch():
    C = complex_from_matrix([[3, -1, -1, -1], [-1, 3, -1, -1],
                             [-1, -1, 3, -1], [-1, -1, -1, 3]])
    # a flipped sign keeps the column in module order
    (c, m, idx), *rest = C.diffs[2][6]
    C.diffs[2][6] = ((-c, m, idx), *rest)
    assert cc.check_leading_terms(C) == (
        False, "formula mismatch on column 7 in degree 2", {}
    )


def test_first_differential_image_in_kernel_of_projection(k4_complex):
    # degree-1 images are differences of monomials with equal weighted degree,
    # the defining property of lattice-ideal membership
    C = k4_complex
    for f in C.diffs[1]:
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
    assert column_elem(cycle4_complex.diffs[k][j])[unit, p] == coeff
    # a column with two constant terms: the witness names the lower target
    g = random_icb_digraph(4, random.Random(2))
    C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    assert cc.minimality_check(C) == (False, (2, 1, 0, 1))
    assert sorted(p for _, mono, p in C.diffs[2][1] if mono == unit) == [0, 2]


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
            f = column_elem(C.diffs[k][j])
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
            assert parse_column(col["poly"], C.ctx) == C.diffs[k][j]


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
            widths.update(len(level) for level in C.diffs[1:])
    assert 1 in widths


def test_export_writes_empty_lists_as_json_does():
    # no buildable complex has an empty list; these stand-ins have one at
    # every depth the document streams
    no_nu, one_nu = SimpleNamespace(nu=()), SimpleNamespace(nu=(1,))
    for C in (
        SimpleNamespace(n=1, ctx=no_nu, ranks=tuple, shifts=[[]], diffs=[]),
        SimpleNamespace(n=2, ctx=one_nu, ranks=tuple, shifts=[], diffs=[None, []]),
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
        assert column_elem(C.diffs[k][pos]) == _expected_elem(C, terms)


def test_level2_differential_matches_published_table(generic4_complex):
    _check_table(generic4_complex, 2, LEVEL2_TABLE)


def test_level3_differential_matches_published_table(generic4_complex):
    _check_table(generic4_complex, 3, LEVEL3_TABLE)


def test_differential_tables_hold_for_k4(k4_complex):
    _check_table(k4_complex, 2, LEVEL2_TABLE)
    _check_table(k4_complex, 3, LEVEL3_TABLE)
