import random
from itertools import permutations
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divide_reference
import monomial_reference as ref
from cycres import cyc_complex, graph_core
from cycres import poly_ring as pr
from cycres import resolution_verify as rv
from cycres.errors import InternalError, ZeroElementError
from tower_reference import TupleTower

from conftest import (
    ECHELON6,
    INSTANCES,
    WEIGHTED4,
    column_elem,
    complex_from_matrix,
    elem_add_term,
    elem_scale_term,
    elem_terms,
    generic4_matrix,
    parse_column,
    parse_elem,
    poly_elem,
    random_icb_digraph,
)

COMPLEX_ROWS = {
    "k4": [[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]],
    "echelon6": ECHELON6,
    "weighted4": WEIGHTED4,
}

monos4 = st.tuples(*([st.integers(0, 5)] * 4))
WEIGHTS4 = [(1, 1, 1, 1), (2, 3, 6, 6), (3, 2, 6, 6), (1, 2, 3, 5)]
# 5-bit fields hold exponents up to 15, so products of two monos4 fit
contexts = st.sampled_from([pr.GradedContext(4, nu, 5) for nu in WEIGHTS4])


def cmp(a, b):
    """-1, 0 or +1 as a <, =, > b."""
    return (a > b) - (a < b)


def test_wrlo_weighted_example():
    # with weights (3,2,6,6): y^3 and x^2 both have degree 6, and the
    # rightmost nonzero coordinate of (0,3,0,0)-(2,0,0,0) is +3, so y^3 is smaller
    ctx = pr.GradedContext(4, (3, 2, 6, 6), 4)
    assert ctx.pack((0, 3, 0, 0)) < ctx.pack((2, 0, 0, 0))


def test_wrlo_equal_and_unit_weights():
    ctx = pr.GradedContext(4, (1, 1, 1, 1), 4)
    assert ctx.pack((1, 2, 0, 1)) == ctx.pack((1, 2, 0, 1))
    # x1*x2 vs x3^2: equal degree, difference (1,1,-2,0) has rightmost -2
    assert ctx.pack((1, 1, 0, 0)) > ctx.pack((0, 0, 2, 0))


@settings(max_examples=150, deadline=None)
@given(contexts, monos4, monos4, monos4)
def test_wrlo_total_order_properties(ctx, a, b, c):
    key = ctx.pack

    cab = cmp(key(a), key(b))
    # total: the key separates distinct monomials
    assert (cab == 0) == (a == b)
    # transitivity
    if cab >= 0 and cmp(key(b), key(c)) >= 0:
        assert cmp(key(a), key(c)) >= 0
    # multiplicativity
    assert cmp(key(a) + key(c), key(b) + key(c)) == cab


@st.composite
def packed_cases(draw):
    """A context, narrow fields included, and three exponent vectors that
    fit it, up to the largest exponent its fields hold."""
    ctx = pr.GradedContext(4, draw(st.sampled_from(WEIGHTS4)), draw(st.integers(1, 5)))
    mono = st.tuples(*([st.integers(0, ctx.cap)] * 4))
    return ctx, draw(mono), draw(mono), draw(mono)


@settings(max_examples=300, deadline=None)
@given(packed_cases())
def test_packed_monomials_agree_with_the_tuple_reference(case):
    ctx, a, b, c = case
    nu = ctx.nu
    pa, pb, pc = ctx.pack(a), ctx.pack(b), ctx.pack(c)
    # round trip and degree
    assert ctx.unpack(pa) == a
    assert ctx.degree(pa) == ref.degree(a, nu)
    assert ctx.pack((0, 0, 0, 0)) == 0
    # order, also after multiplying both sides by the same monomial, whose
    # sums may fill a field up to its guard bit
    assert cmp(pa, pb) == cmp(ref.wrlo_key(a, nu), ref.wrlo_key(b, nu))
    assert cmp(pa + pc, pb + pc) == cmp(
        ref.wrlo_key(ref.mono_mul(a, c), nu), ref.wrlo_key(ref.mono_mul(b, c), nu)
    )
    product = ref.mono_mul(a, b)
    if max(product) <= ctx.cap:
        assert pa + pb == ctx.pack(product)
        assert ctx.degree(pa + pb) == ref.degree(product, nu)
    # divisibility, the quotient and the S-pair cofactor lcm(a, b) / a
    assert ctx.divides(pa, pb) == ref.mono_divides(a, b)
    if ref.mono_divides(a, b):
        assert pb - pa == ctx.pack(ref.mono_div(b, a))
    assert ctx.cofactor(pa, pb) == ctx.pack(ref.mono_div(ref.mono_lcm(a, b), a))
    # the support mask: the guard bit of every field with a nonzero exponent
    w = ctx.width
    assert ctx.support(pa) == sum(1 << (w * i + w - 1) for i, e in enumerate(a) if e)


@settings(max_examples=200, deadline=None)
@given(packed_cases())
def test_memoised_cofactor_agrees_with_the_tuple_reference(case):
    # a fresh context per example: the first call computes, every later
    # call on the same pair reads the memo, and both agree with lcm(a, b) / a
    ctx, a, b, c = case
    pairs = [(a, b), (b, a), (a, c), (c, c), (a, b), (b, a), (a, c), (c, c)]
    for x, y in pairs:
        expected = ctx.pack(ref.mono_div(ref.mono_lcm(x, y), x))
        assert ctx.cofactor(ctx.pack(x), ctx.pack(y)) == expected
    assert len(ctx._cofactors) == len({(x, y) for x, y in pairs})


def test_an_exponent_past_the_fields_raises_and_never_aliases():
    ctx = pr.GradedContext(4, (1, 1, 1, 1), 3)
    assert ctx.cap == 3
    assert ctx.unpack(ctx.pack((3, 0, 0, 3))) == (3, 0, 0, 3)
    # x1^4 would carry into the field of x2 and read as x2
    for exps in ((4, 0, 0, 0), (0, 0, 0, 4), (-1, 0, 0, 0)):
        with pytest.raises(InternalError, match="does not fit 3-bit fields"):
            ctx.pack(exps)
    with pytest.raises(InternalError, match="does not fit 4 3-bit fields"):
        ctx.pack((0, 0, 0))
    # the tower refuses an accumulated level-0 monomial past the fields
    tower = pr.OrderTower(ctx)
    tower.add_level([elem_terms(poly_elem(ctx, {(3, 0, 0, 0): 1}))])
    with pytest.raises(InternalError, match="overflows 3-bit fields"):
        tower.add_level([elem_terms(poly_elem(ctx, {(1, 0, 0, 0): 1}))])
    assert tower.levels == 2


def test_context_holding_a_degree():
    ctx = pr.GradedContext.holding((2, 3, 6, 6), 20)
    assert ctx.cap >= 10 and ctx.width == 5
    assert ctx.unpack(ctx.pack((10, 0, 0, 0))) == (10, 0, 0, 0)
    assert pr.GradedContext.holding((1, 1, 1, 1), 20).cap == 31


def test_leading_term_poly():
    ctx = pr.GradedContext(4, (1, 1, 1, 1), 4)
    tower = pr.OrderTower(ctx)
    f = poly_elem(ctx, {(1, 1, 1, 0): 1, (0, 0, 0, 3): -1})
    assert tower.leading_module_term(f, 0) == (1, ctx.pack((1, 1, 1, 0)), 0)
    assert tower.leading_module_term(poly_elem(ctx, {(2, 0, 0, 0): 5}), 0) == (
        5, ctx.pack((2, 0, 0, 0)), 0
    )
    with pytest.raises(ZeroElementError):
        tower.leading_module_term({}, 0)


def test_module_compare_k4_example(k4_complex):
    key, P = k4_complex.tower.key, k4_complex.ctx.pack
    # x*e_{1,7} maps to x^4, e_{1,1} maps to x1*x2*x3; degree 4 beats 3
    assert key(1, P((1, 0, 0, 0)), 6) > key(1, P((0, 0, 0, 0)), 0)
    assert key(1, P((1, 0, 0, 0)), 2) == key(1, P((1, 0, 0, 0)), 2)


def test_module_compare_tie_breaks_by_larger_index(k4_complex):
    key, P = k4_complex.tower.key, k4_complex.ctx.pack
    # x1^2 * Lm(f_{0,2}) = x2^2 * Lm(f_{0,3}) = x1^2x2^2x3^2; index decides
    assert key(1, P((2, 0, 0, 0)), 1) < key(1, P((0, 2, 0, 0)), 2)
    assert key(1, P((0, 2, 0, 0)), 2) > key(1, P((2, 0, 0, 0)), 1)


def test_leading_module_term_of_degree0_images(weighted4_echelon_complex):
    # in echelon form every subset binomial leads with its positive part
    C = weighted4_echelon_complex
    for j, p in enumerate(C.bases[1]):
        coeff, mono, idx = C.diffs[1][j][0]
        from cycres.cyc_complex import arrow_monomial

        assert idx == 0
        assert coeff == 1
        assert mono == arrow_monomial(p[0], p[1], C.L, C.ctx)


def assert_standard_expression(g, basis, quotient, remainder, tower, level):
    """quotient is the Elem {(monomial, i): coeff} on the positions of basis."""
    assert all(quotient.values()) and all(remainder.values())
    recomposed = dict(remainder)
    for (mono, i), coeff in quotient.items():
        pr.elem_combine(recomposed, basis[i], coeff, mono)
    assert recomposed == g
    if g:
        _, gm, gi = tower.leading_module_term(g, level)
        gkey = tower.key(level, gm, gi)
        for mono, i in quotient:
            _, bm, bi = tower.leading_module_term(column_elem(basis[i]), level)
            assert gkey >= tower.key(level, mono + bm, bi)
    basis_lts = [tower.leading_module_term(column_elem(b), level) for b in basis]
    for mono, idx in remainder:
        for _, bm, bi in basis_lts:
            assert not (bi == idx and tower.ctx.divides(bm, mono))


def test_divide_basis_element_is_exact(k4_complex):
    C = k4_complex
    g0 = C.diffs[1]
    q, r = pr.divide(column_elem(g0[3]), C.tower, 0)
    assert r == {}
    # the unit on position 4 and nothing on any other position
    assert q == poly_elem(C.ctx, {(0, 0, 0, 0): 1}, 3)


def test_divide_k4_s_pair_reduces_to_zero(k4_complex):
    C = k4_complex
    g0 = C.diffs[1]
    s, _, _ = pr.s_vector(C.tower, 0, 1, 0)
    q, r = pr.divide(s, C.tower, 0)
    assert r == {}
    assert_standard_expression(s, g0, q, r, C.tower, 0)


def test_divide_coprime_leading_terms_leave_remainder(k4_complex):
    C = k4_complex
    g = poly_elem(C.ctx, {(0, 0, 0, 2): 1})  # x4^2: no leading term divides it
    q, r = pr.divide(g, C.tower, 0)
    assert r == g
    assert q == {}
    assert_standard_expression(g, C.diffs[1], q, r, C.tower, 0)


def test_divide_prefers_lowest_index_divisor(k4_complex):
    # x1^3*x2^3 is divisible by three leading terms; the reduction must take
    # x1^2*x2^2 (position 4 in srle order) first, pinning the whole run
    C = k4_complex
    g = poly_elem(C.ctx, {(3, 3, 0, 0): 1})
    q, r = pr.divide(g, C.tower, 0)
    assert q == {
        **poly_elem(C.ctx, {(1, 1, 0, 0): 1}, 3),
        **poly_elem(C.ctx, {(0, 0, 1, 2): 1}, 0),
    }
    assert r == poly_elem(C.ctx, {(0, 0, 1, 5): 1})
    assert_standard_expression(g, C.diffs[1], q, r, C.tower, 0)


def test_divide_random_standard_expressions(k4_complex):
    C = k4_complex
    rng = random.Random(3)
    for _ in range(25):
        g = {}
        for _ in range(rng.randint(1, 4)):
            mono = C.ctx.pack([rng.randint(0, 3) for _ in range(4)])
            elem_add_term(g, 0, rng.choice([-2, -1, 1, 2]), mono)
        q, r = pr.divide(g, C.tower, 0)
        assert_standard_expression(g, C.diffs[1], q, r, C.tower, 0)


def test_divide_refuses_a_lead_that_is_not_its_columns_first_term(monkeypatch):
    # the generator of {3}, x3^3 - x1*x2*x4, stored reversed: division takes
    # x1*x2*x4 for its leading term, subtracting the column then leaves
    # x3^3 above the reduced term, so the leading terms stop decreasing and
    # division must stop, not loop.
    # A division that loops fails here after 1000 steps instead of hanging
    steps = []
    original = pr.elem_combine

    def bounded(*args):
        steps.append(1)
        assert len(steps) < 1000, "division does not stop"
        return original(*args)

    monkeypatch.setattr(pr, "elem_combine", bounded)
    C = complex_from_matrix(COMPLEX_ROWS["k4"])
    assert [C.ctx.unpack(m) for _, m, _ in C.diffs[1][4]] == [(0, 0, 3, 0), (1, 1, 0, 1)]
    C.diffs[1][4] = C.diffs[1][4][::-1]
    s, _, _ = pr.s_vector(C.tower, 0, 0, 3)
    with pytest.raises(InternalError, match=r"division at level 0 does not descend: image 5 "):
        pr.divide(s, C.tower, 0)


def test_divide_homogeneous_input_gives_homogeneous_parts(generic4_complex):
    C = generic4_complex
    for i, j in [(1, 0), (4, 2), (6, 5)]:
        s, _, _ = pr.s_vector(C.tower, 0, i, j)
        if not s:
            continue
        assert {idx for _, idx in s} == {0}
        degs = {C.ctx.degree(m) for m, _ in s}
        assert len(degs) == 1
        q, r = pr.divide(s, C.tower, 0)
        assert r == {}
        d = degs.pop()
        assert all(C.ctx.degree(m) + C.shifts[1][i] == d for m, i in q)


def test_s_vector_same_element_is_zero(k4_complex):
    C = k4_complex
    s, m_ji, m_ij = pr.s_vector(C.tower, 0, 0, 0)
    assert s == {}
    assert m_ji == m_ij == (1, C.ctx.pack((0, 0, 0, 0)))


def test_s_vector_nested_subsets_generic(generic4_complex):
    # C = {2,3} inside D = {1,2,3}: the quotient monomial is x1^(weight 1->4)
    C = generic4_complex
    a14 = C.L.a[0][3]
    x1_a14 = C.ctx.pack((a14, 0, 0, 0))
    s, m_ji, m_ij = pr.s_vector(C.tower, 0, 1, 0)
    assert m_ji == (1, x1_a14)
    lt = C.tower.leading_module_term(s, 0)
    lcm_key = C.tower.key(0, x1_a14 + C.diffs[1][1][0][1], 0)
    assert C.tower.key(0, lt[1], lt[2]) < lcm_key


def test_s_vector_level_one_pair_from_worked_example(generic4_complex):
    # pair (f_{1,5}, f_{1,4}): quotient monomial -x1^(weight 1->4)
    C = generic4_complex
    a14 = C.L.a[0][3]
    s, m_ji, m_ij = pr.s_vector(C.tower, 1, 4, 3)
    assert m_ji == (-1, C.ctx.pack((a14, 0, 0, 0)))
    assert s


def test_s_vector_disjoint_leading_basis_elements_no_pair(k4_complex):
    C = k4_complex
    # f_{1,1} leads on e_{1,2}, f_{1,2} on e_{1,3}: no common basis element
    assert pr.s_vector(C.tower, 1, 0, 1) is None


@pytest.mark.parametrize("i,j", [(i, j) for i in range(7) for j in range(i)])
def test_s_vector_drops_below_lcm_k4_pairs(k4_complex, i, j):
    # the leading monomial of an S-vector is strictly below the cancelled lcm
    C = k4_complex
    s, m_ji, m_ij = pr.s_vector(C.tower, 0, i, j)
    ctx = C.ctx
    lcm = ctx.pack(ref.mono_lcm(ctx.unpack(C.diffs[1][i][0][1]), ctx.unpack(C.diffs[1][j][0][1])))
    if s:
        _, sm, si = C.tower.leading_module_term(s, 0)
        assert C.tower.key(0, sm, si) < C.tower.key(0, lcm, 0)


def test_combining_a_column_and_its_negative_leaves_nothing(k4_complex):
    # cancelled terms are deleted, so no zero coefficient is left behind
    C = k4_complex
    mono = C.ctx.pack((1, 0, 2, 0))
    other = column_elem(C.diffs[1][2])
    for k in (1, 2, 3):
        for column in C.diffs[k]:
            acc = {}
            pr.elem_combine(acc, column, -1, mono)
            assert acc == {(mono + m, idx): -c for c, m, idx in column}
            pr.elem_combine(acc, column, 1, mono)
            assert acc == {}
            if k == 1:
                acc = dict(other)
                pr.elem_combine(acc, column, 1, 0)
                pr.elem_combine(acc, column, -1, 0)
                assert acc == other and all(acc.values())
    elem = {}
    elem_add_term(elem, 3, 2, mono)
    elem_add_term(elem, 3, -2, mono)
    assert elem == {}


# ---------------------------------------------------------------------------
# integer coefficients: building the tower refuses a non-unit leading term

def test_add_level_rejects_non_unit_leading_coefficient(k4_complex):
    C = k4_complex
    g0 = list(C.diffs[1])
    doubled = elem_terms(elem_scale_term(column_elem(g0[0]), 2, 0))
    for images in ([doubled], g0 + [doubled]):
        tower = pr.OrderTower(C.ctx)
        with pytest.raises(InternalError):
            tower.add_level(images)
        assert tower.levels == 1


def test_add_level_rejects_non_unit_leading_coefficient_at_any_position(k4_complex):
    C = k4_complex
    g0 = list(C.diffs[1])
    doubled = elem_terms(elem_scale_term(column_elem(g0[0]), 2, 0))
    for images in ([doubled, g0[1]], [g0[1], doubled]):
        with pytest.raises(InternalError):
            pr.OrderTower(C.ctx).add_level(images)
    # one level up, inside the list of boundary columns
    tower = pr.OrderTower(C.ctx)
    tower.add_level(g0)
    g1 = list(C.diffs[2])
    doubled = elem_terms(elem_scale_term(column_elem(g1[3]), -2, 0))
    with pytest.raises(InternalError):
        tower.add_level(g1[:3] + [doubled] + g1[4:])
    assert tower.levels == 2


def test_add_level_rejects_an_inhomogeneous_column(k4_complex):
    C = k4_complex
    tower = pr.OrderTower(C.ctx)
    with pytest.raises(InternalError, match="inhomogeneous differential column 1 in degree 1"):
        tower.add_level([elem_terms(poly_elem(C.ctx, {(1, 0, 0, 0): 1, (0, 0, 0, 2): -1}))])
    assert tower.levels == 1
    with pytest.raises(ZeroElementError):
        tower.add_level([elem_terms({})])
    assert tower.levels == 1
    # one level up: a term on e[1,1] one degree too high in column 4
    tower.add_level(C.diffs[1])
    g1 = [column_elem(f) for f in C.diffs[2]]
    elem_add_term(g1[3], 0, 1, C.ctx.pack((0, 0, 0, 3)))
    g1 = [elem_terms(elem) for elem in g1]
    with pytest.raises(InternalError, match="inhomogeneous differential column 4 in degree 2"):
        tower.add_level(g1)
    assert tower.levels == 2


def stored_as_given(C, k, column):
    """True when add_level, on a copy of C's tower up to level k - 1, stores
    ``column``, the one column of a new level k, as given."""
    tower = pr.OrderTower(C.ctx)
    for table in ("bits", "base", "images", "shifts"):
        setattr(tower, table, getattr(C.tower, table)[:k])
    tower.add_level([column])
    return tower.images[k][0] is column


def test_a_repeated_term_is_stored_and_fails_leading_terms():
    # a column is fed as terms, not summed, and stored as given: two terms
    # on one monomial and index, whether their coefficients add up or
    # cancel, are found by the leading_term_formula check, not the build
    diffs = complex_from_matrix(COMPLEX_ROWS["k4"]).diffs
    for k, j, term in ((1, 1, diffs[1][1][1]), (2, 4, diffs[2][4][0])):
        for extra in (term, (-term[0],) + term[1:]):
            column = diffs[k][j] + (extra,)
            C = complex_from_matrix(COMPLEX_ROWS["k4"])
            assert stored_as_given(C, k, column)
            C.diffs[k][j] = column
            witness = f"column {j + 1} in degree {k} is not in module order"
            assert cyc_complex.check_leading_terms(C) == (False, witness, {})
            check = rv.full_verify(C).checks[1]
            assert (check.name, check.ok, check.witness) == (
                "leading_term_formula", False, witness
            )


@pytest.mark.parametrize("name", ["k4", "echelon6"])
def test_columns_in_any_other_order_are_stored_and_fail_leading_terms(name):
    # boundary hands the tower its columns in module order, and the tower
    # stores whatever order it is given; every other order of the terms of
    # a column, at every level, fails the leading_term_formula check, whose
    # witness names the column and degree
    C = complex_from_matrix(COMPLEX_ROWS[name])
    assert cyc_complex.check_leading_terms(C) == (True, None, {})
    for k in range(1, C.n):
        for turn, order in enumerate(permutations(range(k + 1))):
            j = turn % len(C.diffs[k])
            stored = C.diffs[k][j]
            column = tuple(stored[i] for i in order)
            assert stored_as_given(C, k, column)
            C.diffs[k][j] = column
            expected = (True, None, {}) if order == tuple(range(k + 1)) else (
                False, f"column {j + 1} in degree {k} is not in module order", {}
            )
            assert cyc_complex.check_leading_terms(C) == expected, order
            C.diffs[k][j] = stored


@pytest.mark.parametrize("name", ["k4", "echelon6", "weighted4"])
def test_stored_columns_are_strictly_decreasing(name):
    C = complex_from_matrix(COMPLEX_ROWS[name])
    for k in range(1, C.n):
        assert len(C.diffs[k]) == len(C.bases[k])
        for j, column in enumerate(C.diffs[k]):
            assert type(column) is tuple
            keys = [C.tower.key(k - 1, mono, idx) for _, mono, idx in column]
            assert all(a > b for a, b in zip(keys, keys[1:]))
            assert {C.ctx.degree(key >> C.tower.bits[k - 1]) for key in keys} == {C.shifts[k][j]}


# ---------------------------------------------------------------------------
# text format

def test_elem_str_round_trip(k4_complex):
    C = k4_complex
    assert pr.elem_str((), pr.term_tails(0, 1), C.ctx) == "0"
    assert parse_elem("0", C.ctx) == {}
    assert parse_column("0", C.ctx) == ()
    for k in (1, 2, 3):
        for f in C.diffs[k]:
            s = pr.elem_str(f, pr.term_tails(k - 1, len(C.bases[k - 1])), C.ctx)
            assert parse_column(s, C.ctx) == f


def test_elem_str_level0_is_plain_polynomial(k4_complex):
    C = k4_complex
    assert pr.elem_str(C.diffs[1][0], pr.term_tails(0, 1), C.ctx) == "x1*x2*x3 - x4^3"


def test_elem_str_pins_hand_built_columns():
    # built columns only have coefficients +-1, so these are the only
    # columns that reach the non-unit branch
    ctx = pr.GradedContext(4, (1, 1, 1, 1), 4)
    x1, x2, x3, x4 = ctx.variables
    column = ((2, x1 + 2 * x3, 0), (-2, 0, 1), (1, 0, 2), (-1, x2, 0), (-2, x4, 3), (2, 0, 0))
    assert pr.elem_str(column, pr.term_tails(0, 4), ctx) == "2*x1*x3^2 - 2 + 1 - x2 - 2*x4 + 2"
    assert pr.elem_str(column, pr.term_tails(1, 4), ctx) == (
        "2*x1*x3^2·e[1,1] - 2·e[1,2] + 1·e[1,3] - x2·e[1,1] - 2*x4·e[1,4] + 2·e[1,1]"
    )
    assert pr.elem_str(column, pr.term_tails(12, 4), ctx).endswith(" - 2*x4·e[12,4] + 2·e[12,1]")
    for level, texts in (
        (0, ["-2", "-1", "-x1 + 2", "2*x4^3", "1 - 1"]),
        (2, ["-2·e[2,1]", "-1·e[2,5]", "-x1·e[2,1] + 2·e[2,3]", "2*x4^3·e[2,2]",
             "1·e[2,1] - 1·e[2,2]"]),
    ):
        columns = [
            ((-2, 0, 0),),
            ((-1, 0, 4),),
            ((-1, x1, 0), (2, 0, 2)),
            ((2, 3 * x4, 1),),
            ((1, 0, 0), (-1, 0, 1)),
        ]
        assert [pr.elem_str(f, pr.term_tails(level, 5), ctx) for f in columns] == texts
        for text, f in zip(texts, columns):
            assert parse_column(text, ctx) == (f if level else tuple((c, m, 0) for c, m, _ in f))


def test_elem_str_renders_each_distinct_monomial_once(monkeypatch):
    # text is kept per context: a second rendering unpacks nothing, and a
    # fresh complex renders its own monomials again
    C = complex_from_matrix(COMPLEX_ROWS["echelon6"])
    unpacked = []
    original = pr.GradedContext.unpack

    def counting(self, mono):
        unpacked.append(mono)
        return original(self, mono)

    monkeypatch.setattr(pr.GradedContext, "unpack", counting)
    tails = {k: pr.term_tails(k - 1, len(C.bases[k - 1])) for k in range(1, C.n)}
    texts = [pr.elem_str(f, tails[k], C.ctx) for k in range(1, C.n) for f in C.diffs[k]]
    distinct = {m for k in range(1, C.n) for f in C.diffs[k] for _, m, _ in f}
    assert sorted(unpacked) == sorted(distinct)
    assert [pr.elem_str(f, tails[k], C.ctx) for k in range(1, C.n) for f in C.diffs[k]] == texts
    assert len(unpacked) == len(distinct)
    D = complex_from_matrix(COMPLEX_ROWS["echelon6"])
    assert pr.elem_str(D.diffs[1][0], tails[1], D.ctx) == texts[0]
    assert len(unpacked) > len(distinct)


def test_elem_str_with_escaped_tails_is_the_escaped_text():
    # export_json renders with its tails JSON-escaped once per level and
    # quotes the result; JSON escapes character by character, so that is the
    # escaped rendering, for every column of the verifiable bundled
    # instances and the seeded n = 7 instance
    graphs = [
        graph_core.parse_digraph((INSTANCES / f"{name}.json").read_text())
        for name in ("cycle4", "cycle4_arcs", "echelon6", "k4", "weighted4", "weighted4_echelon")
    ] + [random_icb_digraph(7, random.Random(2))]
    for g in graphs:
        C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
        for k in range(1, C.n):
            tails = pr.term_tails(k - 1, len(C.bases[k - 1]))
            escaped = [encode_basestring_ascii(tail)[1:-1] for tail in tails]
            assert k == 1 or escaped != tails
            for f in C.diffs[k]:
                assert '"' + pr.elem_str(f, escaped, C.ctx) + '"' == encode_basestring_ascii(
                    pr.elem_str(f, tails, C.ctx)
                )


# ---------------------------------------------------------------------------
# the flattened tower keys agree with the recursive order definition

def _rec_compare(C, level, m1, i, m2, j):
    """Induced-order comparison straight from the definition: map both
    monomials through the images one level down, compare there, break ties
    by the larger basis index."""
    if level == 0:
        ctx = C.ctx
        return cmp(ref.wrlo_key(ctx.unpack(m1), ctx.nu), ref.wrlo_key(ctx.unpack(m2), ctx.nu))
    lt1 = _rec_leading(C, level - 1, elem_scale_term(column_elem(C.diffs[level][i]), 1, m1))
    lt2 = _rec_leading(C, level - 1, elem_scale_term(column_elem(C.diffs[level][j]), 1, m2))
    c = _rec_compare(C, level - 1, lt1[0], lt1[1], lt2[0], lt2[1])
    if c:
        return c
    return (i > j) - (i < j)


def _rec_leading(C, level, elem):
    best = None
    for mono, idx in elem:
        if best is None or _rec_compare(C, level, mono, idx, best[0], best[1]) > 0:
            best = (mono, idx)
    return best


def test_tower_keys_agree_with_recursive_definition(generic4_complex):
    C = generic4_complex
    rng = random.Random(12)
    for level in (1, 2, 3):
        r = len(C.bases[level])
        for _ in range(40):
            m1 = C.ctx.pack([rng.randint(0, 4) for _ in range(4)])
            m2 = C.ctx.pack([rng.randint(0, 4) for _ in range(4)])
            i, j = rng.randrange(r), rng.randrange(r)
            got = cmp(C.tower.key(level, m1, i), C.tower.key(level, m2, j))
            assert got == _rec_compare(C, level, m1, i, m2, j)


def test_tower_leading_terms_agree_with_recursive_definition(k4_complex):
    C = k4_complex
    for level in (1, 2, 3):
        for j, f in enumerate(C.diffs[level]):
            mono, idx = _rec_leading(C, level - 1, column_elem(f))
            assert f[0][1:] == (mono, idx)


@pytest.mark.parametrize("name", ["k4", "echelon6", "weighted4"])
def test_int_keys_order_column_terms_as_the_tuple_keys(name):
    # the keys of one level are injective, so equal sorted orders mean that
    # every pair of column terms compares the same way under both keys
    C = complex_from_matrix(COMPLEX_ROWS[name])
    old = TupleTower(C.tower.images)
    for k in range(1, C.n):
        terms = {(mono, idx) for column in C.diffs[k] for _, mono, idx in column}
        keys = {t: C.tower.key(k - 1, *t) for t in terms}
        assert all(type(key) is int for key in keys.values())
        assert len(set(keys.values())) == len(terms)
        assert sorted(terms, key=keys.get) == sorted(terms, key=lambda t: old.key(k - 1, *t))
        assert [C.ctx.degree(a) for a in old.acc[k]] == C.shifts[k]


def test_add_level_refuses_a_lead_that_falls_back():
    # on the cyclic complexes each lead sits on its column's parent, so the
    # leads never fall along a level and the basis index orders the descents;
    # here e[2,1] leads on e[1,2] and e[2,2] on e[1,1]: both reach x1*x2 and
    # the descent (1, 2, 1) beats (1, 1, 2), against the index order, so the
    # level is refused and nothing is appended
    ctx = pr.GradedContext(2, (1, 1), 3)
    x1, x2 = ctx.variables
    tower = pr.OrderTower(ctx)
    tower.add_level([elem_terms({(x1, 0): 1}), elem_terms({(x2, 0): 1})])
    columns = [elem_terms({(x1, 1): 1}), elem_terms({(x2, 0): -1})]
    old = TupleTower([None, tower.images[1], columns])
    assert old.path[2] == [(0, 1, 0), (0, 0, 1)]
    assert old.key(2, 0, 0) > old.key(2, 0, 1)
    with pytest.raises(InternalError, match="column 2 in degree 2 falls back to basis index 1"):
        tower.add_level(columns)
    assert tower.levels == 2
    assert [len(t) for t in (tower.bits, tower.images, tower.shifts)] == [2] * 3
    # in the other order the leads rise, and the keys follow the descents
    tower.add_level(columns[::-1])
    old = TupleTower(tower.images)
    assert old.path[2] == [(0, 0, 0), (0, 1, 1)]
    for level in (1, 2):
        terms = [(m, i) for m in (0, x1, x2, x1 + x2) for i in range(2)]
        assert sorted(terms, key=lambda t: tower.key(level, *t)) == sorted(
            terms, key=lambda t: old.key(level, *t)
        )


def test_s_leading_key_walks_past_a_column_that_cancels_entirely():
    # columns of one cyclic level have one length; on hand-built columns of
    # different lengths the shorter one can cancel term by term, and the
    # longer one's next term is Lt(S), in either order of the pair
    ctx = pr.GradedContext(2, (1, 1), 3)
    x1, x2 = ctx.variables
    tower = pr.OrderTower(ctx)
    tower.add_level([
        elem_terms({(2 * x1, 0): 1}),
        elem_terms({(2 * x1, 0): 1, (x1 + x2, 0): 1, (2 * x2, 0): -1}),
        elem_terms({(x1, 0): 1, (x2, 0): 1}),
        elem_terms({(x1, 0): 1, (x2, 0): 1}),
    ])
    leads = {}
    for i, j in [(0, 1), (1, 0), (2, 1), (1, 2), (2, 3), (0, 0)]:
        s, m_ji, m_ij = pr.s_vector(tower, 0, i, j)
        walked = pr.s_leading_key(tower, 0, i, j, m_ji, m_ij)
        if s:
            _, mono, idx = tower.leading_module_term(s, 0)
            assert walked == tower.key(0, mono, idx), (i, j)
            leads[i, j] = mono
        else:
            assert walked is None, (i, j)
    # positions 1 and 2: S = f_1 - x1*f_2 = -x2^2, every term of x1*f_2 cancels
    assert leads == {(0, 1): x1 + x2, (1, 0): x1 + x2, (2, 1): 2 * x2, (1, 2): 2 * x2}


def test_int_keys_agree_with_the_tuple_keys_on_random_pairs(generic4_complex):
    C = generic4_complex
    old = TupleTower(C.tower.images)
    rng = random.Random(31)
    ties = 0
    for level in (1, 2, 3):
        r = len(C.bases[level])
        acc = old.acc[level]
        for _ in range(200):
            m1, m2 = (C.ctx.pack([rng.randint(0, 4) for _ in range(4)]) for _ in range(2))
            i, j = rng.randrange(r), rng.randrange(r)
            pairs = [(m1, m2)]
            # a pair whose level-0 monomials tie, so the paths decide
            if C.ctx.divides(acc[j], m1 + acc[i]):
                pairs.append((m1, m1 + acc[i] - acc[j]))
                ties += 1
            for a, b in pairs:
                got = cmp(C.tower.key(level, a, i), C.tower.key(level, b, j))
                assert got == cmp(old.key(level, a, i), old.key(level, b, j))
    assert ties > 0


def test_divide_at_level_one_standard_expressions(k4_complex):
    C = k4_complex
    rng = random.Random(9)
    g1 = C.diffs[2]
    for _ in range(15):
        g = {}
        for _ in range(rng.randint(1, 4)):
            idx = rng.randrange(7)
            mono = C.ctx.pack([rng.randint(0, 2) for _ in range(4)])
            elem_add_term(g, idx, rng.choice([-1, 1]), mono)
        q, r = pr.divide(g, C.tower, 1)
        assert_standard_expression(g, g1, q, r, C.tower, 1)


def _wide_complexes():
    """Complexes packed for degree 40, so random terms with exponents up to 3
    and everything a division makes from them fit the fields."""
    rng = random.Random(5)
    digraphs = [graph_core.digraph_from_matrix(COMPLEX_ROWS[name]) for name in sorted(COMPLEX_ROWS)]
    digraphs += [random_icb_digraph(n, rng) for n in (4, 5)]
    out = [cyc_complex.build_complex(graph_core.prepare(generic4_matrix()), 40)]
    for g in digraphs:
        out.append(cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)), 40))
    return out


def test_divide_agrees_with_the_linear_scan_reference():
    # the support-mask candidates pick the same divisor at every step as the
    # scan of all leading terms: same quotients and remainders, at levels 0
    # and 1, on elements with coefficients +-1 and +-2
    rng = random.Random(11)
    remainders = quotients = 0
    for C in _wide_complexes():
        for level in (0, 1):
            positions = len(C.bases[level])
            for _ in range(40):
                g = {}
                for _ in range(rng.randint(1, 5)):
                    mono = C.ctx.pack([rng.randint(0, 3) for _ in range(C.n)])
                    elem_add_term(g, rng.randrange(positions), rng.choice([-2, -1, 1, 2]), mono)
                got = pr.divide(g, C.tower, level)
                assert got == divide_reference.divide(g, C.tower, level)
                assert_standard_expression(g, C.diffs[level + 1], *got, C.tower, level)
                quotients += bool(got[0])
                remainders += bool(got[1])
    assert quotients > 100 and remainders > 100
