import random
from functools import partial
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
from cycres.errors import InternalError
from export_reference import column_str
from standard_expression_reference import s_leading_key
from tower_reference import TupleTower, key, leading_module_term

from conftest import (
    ECHELON6,
    INSTANCES,
    WEIGHTED4,
    column_elem,
    column_positions,
    column_texts,
    columns,
    complex_from_matrix,
    elem_add_term,
    elem_scale_term,
    elem_terms,
    generic4_matrix,
    parse_column,
    parse_elem,
    poly_elem,
    random_icb_digraph,
    set_entry,
    swap_entries,
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
    tower.add_level(column_positions([elem_terms(poly_elem(ctx, {(3, 0, 0, 0): 1}))]))
    with pytest.raises(InternalError, match="overflows 3-bit fields"):
        tower.add_level(column_positions([elem_terms(poly_elem(ctx, {(1, 0, 0, 0): 1}))]))
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
    assert leading_module_term(tower, f, 0) == (1, ctx.pack((1, 1, 1, 0)), 0)
    assert leading_module_term(tower, poly_elem(ctx, {(2, 0, 0, 0): 5}), 0) == (
        5, ctx.pack((2, 0, 0, 0)), 0
    )
    with pytest.raises(ValueError, match="leading term of zero module element"):
        leading_module_term(tower, {}, 0)


def test_module_compare_k4_example(k4_complex):
    at, P = partial(key, k4_complex.tower), k4_complex.ctx.pack
    # x*e_{1,7} maps to x^4, e_{1,1} maps to x1*x2*x3; degree 4 beats 3
    assert at(1, P((1, 0, 0, 0)), 6) > at(1, P((0, 0, 0, 0)), 0)
    assert at(1, P((1, 0, 0, 0)), 2) == at(1, P((1, 0, 0, 0)), 2)


def test_module_compare_tie_breaks_by_larger_index(k4_complex):
    at, P = partial(key, k4_complex.tower), k4_complex.ctx.pack
    # x1^2 * Lm(f_{0,2}) = x2^2 * Lm(f_{0,3}) = x1^2x2^2x3^2; index decides
    assert at(1, P((2, 0, 0, 0)), 1) < at(1, P((0, 2, 0, 0)), 2)
    assert at(1, P((0, 2, 0, 0)), 2) > at(1, P((2, 0, 0, 0)), 1)


def test_leading_module_term_of_degree0_images(weighted4_echelon_complex):
    # in echelon form every subset binomial leads with its positive part
    C = weighted4_echelon_complex
    for j, p in enumerate(C.bases[1]):
        coeff, mono, idx = columns(C, 1)[j][0]
        from cycres.cyc_complex import arrow_monomial

        assert idx == 0
        assert coeff == 1
        assert mono == arrow_monomial(p[0], p[1], C.L, C.ctx)


def assert_standard_expression(g, quotient, remainder, tower, level):
    """quotient is the Elem {(monomial, i): coeff} on the columns of level
    level + 1 of the tower."""
    assert all(quotient.values()) and all(remainder.values())
    positions, basis = tower.positions[level + 1], columns(tower, level + 1)
    recomposed = dict(remainder)
    for (mono, i), coeff in quotient.items():
        pr.elem_combine(recomposed, positions, i, coeff, mono)
    assert recomposed == g
    if g:
        _, gm, gi = leading_module_term(tower, g, level)
        gkey = key(tower, level, gm, gi)
        for mono, i in quotient:
            _, bm, bi = leading_module_term(tower, column_elem(basis[i]), level)
            assert gkey >= key(tower, level, mono + bm, bi)
    basis_lts = [leading_module_term(tower, column_elem(b), level) for b in basis]
    for mono, idx in remainder:
        for _, bm, bi in basis_lts:
            assert not (bi == idx and tower.ctx.divides(bm, mono))


def divided(g, tower):
    """(quotient, remainder) of the reference division at level 0, whose
    remainder pr.divide must give as well."""
    q, r = divide_reference.divide(g, tower, 0)
    assert pr.divide(g, tower, pr.divisor_table(tower)) == r
    return q, r


def test_divide_basis_element_is_exact(k4_complex):
    C = k4_complex
    g0 = columns(C, 1)
    q, r = divided(column_elem(g0[3]), C.tower)
    assert r == {}
    # the unit on position 4 and nothing on any other position
    assert q == poly_elem(C.ctx, {(0, 0, 0, 0): 1}, 3)


def test_divide_k4_s_pair_reduces_to_zero(k4_complex):
    C = k4_complex
    g0 = columns(C, 1)
    s = pr.s_vector(C.tower, 0, 1, 0)
    q, r = divided(s, C.tower)
    assert r == {}
    assert_standard_expression(s, q, r, C.tower, 0)


def test_divide_coprime_leading_terms_leave_remainder(k4_complex):
    C = k4_complex
    g = poly_elem(C.ctx, {(0, 0, 0, 2): 1})  # x4^2: no leading term divides it
    q, r = divided(g, C.tower)
    assert r == g
    assert q == {}
    assert_standard_expression(g, q, r, C.tower, 0)


def test_divide_prefers_lowest_index_divisor(k4_complex):
    # x1^3*x2^3 is divisible by three leading terms; the reduction must take
    # x1^2*x2^2 (position 4 in srle order) first, pinning the whole run
    C = k4_complex
    g = poly_elem(C.ctx, {(3, 3, 0, 0): 1})
    q, r = divided(g, C.tower)
    assert q == {
        **poly_elem(C.ctx, {(1, 1, 0, 0): 1}, 3),
        **poly_elem(C.ctx, {(0, 0, 1, 2): 1}, 0),
    }
    assert r == poly_elem(C.ctx, {(0, 0, 1, 5): 1})
    assert_standard_expression(g, q, r, C.tower, 0)
    # the K4 columns are a Groebner basis, so any choice leaves that
    # remainder.  x1^2 - x3^2 and x1*x2 - x3^2 are not one: x1^2*x2 keeps
    # x2*x3^2 after the first and x1*x3^2 after the second
    ctx = pr.GradedContext(3, (1, 1, 1), 4)
    x1, x2, x3 = ctx.variables
    tower = pr.OrderTower(ctx)
    tower.add_level(column_positions([
        elem_terms({(2 * x1, 0): 1, (2 * x3, 0): -1}),
        elem_terms({(x1 + x2, 0): 1, (2 * x3, 0): -1}),
    ]))
    assert divided({(2 * x1 + x2, 0): 1}, tower) == ({(x2, 0): 1}, {(x2 + 2 * x3, 0): 1})


def test_divide_random_standard_expressions(k4_complex):
    C = k4_complex
    rng = random.Random(3)
    for _ in range(25):
        g = {}
        for _ in range(rng.randint(1, 4)):
            mono = C.ctx.pack([rng.randint(0, 3) for _ in range(4)])
            elem_add_term(g, 0, rng.choice([-2, -1, 1, 2]), mono)
        q, r = divided(g, C.tower)
        assert_standard_expression(g, q, r, C.tower, 0)


def test_divide_refuses_a_lead_that_is_not_its_columns_first_term(monkeypatch):
    # the generator of {3}, x3^3 - x1*x2*x4, with its two monomials
    # exchanged between the positions: division takes x1*x2*x4 for its
    # leading term, subtracting the column then leaves x3^3 above the
    # reduced term, so the leading terms stop decreasing and division must
    # stop, not loop.
    # A division that loops fails here after 1000 steps instead of hanging
    steps = []
    original = pr.elem_combine

    def bounded(*args):
        steps.append(1)
        assert len(steps) < 1000, "division does not stop"
        return original(*args)

    monkeypatch.setattr(pr, "elem_combine", bounded)
    C = complex_from_matrix(COMPLEX_ROWS["k4"])
    assert [C.ctx.unpack(m) for _, m, _ in columns(C, 1)[4]] == [(0, 0, 3, 0), (1, 1, 0, 1)]
    swap_entries(C, 1, 4, 0, 1)
    s = pr.s_vector(C.tower, 0, 0, 3)
    with pytest.raises(InternalError, match=r"division at level 0 does not descend: image 5 "):
        pr.divide(s, C.tower, pr.divisor_table(C.tower))


def test_divide_homogeneous_input_gives_homogeneous_parts(generic4_complex):
    C = generic4_complex
    for i, j in [(1, 0), (4, 2), (6, 5)]:
        s = pr.s_vector(C.tower, 0, i, j)
        if not s:
            continue
        assert {idx for _, idx in s} == {0}
        degs = {C.ctx.degree(m) for m, _ in s}
        assert len(degs) == 1
        q, r = divided(s, C.tower)
        assert r == {}
        d = degs.pop()
        assert all(C.ctx.degree(m) + C.shifts[1][i] == d for m, i in q)


def test_s_vector_same_element_is_zero(k4_complex):
    C = k4_complex
    assert pr.s_vector(C.tower, 0, 0, 0) == {}
    assert pr.s_cofactor(C.tower, 0, 0, 0) == (1, C.ctx.pack((0, 0, 0, 0)))


def test_s_vector_nested_subsets_generic(generic4_complex):
    # C = {2,3} inside D = {1,2,3}: the quotient monomial is x1^(weight 1->4)
    C = generic4_complex
    a14 = C.L.a[0][3]
    x1_a14 = C.ctx.pack((a14, 0, 0, 0))
    s = pr.s_vector(C.tower, 0, 1, 0)
    assert pr.s_cofactor(C.tower, 0, 1, 0) == (1, x1_a14)
    lt = leading_module_term(C.tower, s, 0)
    lcm_key = key(C.tower, 0, x1_a14 + columns(C, 1)[1][0][1], 0)
    assert key(C.tower, 0, lt[1], lt[2]) < lcm_key


def test_s_vector_level_one_pair_from_worked_example(generic4_complex):
    # pair (f_{1,5}, f_{1,4}): quotient monomial -x1^(weight 1->4)
    C = generic4_complex
    a14 = C.L.a[0][3]
    assert pr.s_cofactor(C.tower, 1, 4, 3) == (-1, C.ctx.pack((a14, 0, 0, 0)))
    assert pr.s_vector(C.tower, 1, 4, 3)


def test_s_vector_disjoint_leading_basis_elements_no_pair(k4_complex):
    C = k4_complex
    # f_{1,1} leads on e_{1,2}, f_{1,2} on e_{1,3}: no common basis element
    assert pr.s_vector(C.tower, 1, 0, 1) is None


@pytest.mark.parametrize("i,j", [(i, j) for i in range(7) for j in range(i)])
def test_s_vector_drops_below_lcm_k4_pairs(k4_complex, i, j):
    # the leading monomial of an S-vector is strictly below the cancelled lcm
    C = k4_complex
    s = pr.s_vector(C.tower, 0, i, j)
    ctx = C.ctx
    leads = [f[0][1] for f in columns(C, 1)]
    lcm = ctx.pack(ref.mono_lcm(ctx.unpack(leads[i]), ctx.unpack(leads[j])))
    if s:
        _, sm, si = leading_module_term(C.tower, s, 0)
        assert key(C.tower, 0, sm, si) < key(C.tower, 0, lcm, 0)


def test_combining_a_column_and_its_negative_leaves_nothing(k4_complex):
    # cancelled terms are deleted, so no zero coefficient is left behind
    C = k4_complex
    mono = C.ctx.pack((1, 0, 2, 0))
    other = column_elem(columns(C, 1)[2])
    for k in (1, 2, 3):
        positions = C.positions[k]
        for j, column in enumerate(columns(C, k)):
            acc = {}
            pr.elem_combine(acc, positions, j, -1, mono)
            assert acc == {(mono + m, idx): -c for c, m, idx in column}
            pr.elem_combine(acc, positions, j, 1, mono)
            assert acc == {}
            if k == 1:
                acc = dict(other)
                pr.elem_combine(acc, positions, j, 1, 0)
                pr.elem_combine(acc, positions, j, -1, 0)
                assert acc == other and all(acc.values())
    elem = {}
    elem_add_term(elem, 3, 2, mono)
    elem_add_term(elem, 3, -2, mono)
    assert elem == {}


# ---------------------------------------------------------------------------
# integer coefficients: building the tower refuses a sign other than +-1

def test_add_level_rejects_non_unit_leading_coefficient(k4_complex):
    C = k4_complex
    g0 = list(columns(C, 1))
    for images in ([g0[0]], g0):
        doubled = [elem_terms(elem_scale_term(column_elem(f), 2, 0)) for f in images]
        tower = pr.OrderTower(C.ctx)
        with pytest.raises(InternalError, match="sign 2 of term position 1 in degree 1"):
            tower.add_level(column_positions(doubled))
        assert tower.levels == 1


def with_sign(positions, i, sign):
    """The term positions with position i's sign replaced."""
    positions = list(positions)
    positions[i] = (sign, *positions[i][1:])
    return positions


def test_add_level_refuses_a_sign_other_than_plus_or_minus_one(k4_complex):
    # a position carries one sign, that of every term it holds; any sign
    # but +-1, at the lead position or at a tail position, is named with
    # its degree and nothing is appended
    C = k4_complex
    for bad in (2, -2):
        for i in (0, 1):
            tower = pr.OrderTower(C.ctx)
            with pytest.raises(
                InternalError, match=f"sign {bad} of term position {i + 1} in degree 1 is not a unit"
            ):
                tower.add_level(with_sign(C.positions[1], i, bad))
            assert tower.levels == 1
        # one level up, at the lead position and at the closing merge
        tower = pr.OrderTower(C.ctx)
        tower.add_level(C.positions[1])
        for i in (0, 2):
            with pytest.raises(
                InternalError, match=f"sign {bad} of term position {i + 1} in degree 2 is not a unit"
            ):
                tower.add_level(with_sign(C.positions[2], i, bad))
            assert tower.levels == 2
            assert [len(t) for t in (tower.bits, tower.base, tower.positions, tower.shifts)] == [2] * 4


def test_add_level_rejects_an_inhomogeneous_column(k4_complex):
    C = k4_complex
    tower = pr.OrderTower(C.ctx)
    with pytest.raises(InternalError, match="inhomogeneous differential column 1 in degree 1"):
        tower.add_level(column_positions(
            [elem_terms(poly_elem(C.ctx, {(1, 0, 0, 0): 1, (0, 0, 0, 2): -1}))]
        ))
    assert tower.levels == 1
    with pytest.raises(InternalError, match="zero differential column 1 in degree 1"):
        tower.add_level(column_positions([elem_terms({})]))
    assert tower.levels == 1
    # one level up: the last term of column 4 on e[1,1], one degree too high
    tower.add_level(C.positions[1])
    g1 = list(columns(C, 2))
    g1[3] = g1[3][:-1] + ((-1, C.ctx.pack((0, 0, 0, 3)), 0),)
    with pytest.raises(InternalError, match="inhomogeneous differential column 4 in degree 2"):
        tower.add_level(column_positions(g1))
    assert tower.levels == 2
    # positions of unequal lengths: a ragged level, whose columns zip
    # would cut short, is refused before anything is keyed
    ragged = [tuple(position) for position in C.positions[2]]
    ragged[1] = (ragged[1][0], ragged[1][1], ragged[1][2][:-1])
    with pytest.raises(InternalError, match="term positions of unequal lengths in degree 2"):
        tower.add_level(ragged)
    assert tower.levels == 2


def test_add_level_names_the_lowest_refused_column(k4_complex):
    # a level with faults in several columns names the lowest of them, and
    # of that column's faults the first of: inhomogeneous, falling lead,
    # overflow.  On degree 2 of K4 the leads sit on e[1,2], e[1,3], e[1,4],
    # ...; a copy of column 1 as column 3 leads on e[1,2], below the lead
    # before it, and a last term times x4 tilts a column
    C = k4_complex
    g1 = list(columns(C, 2))
    x4 = C.ctx.variables[3]

    def tilt(f):
        c, m, idx = f[-1]
        return f[:-1] + ((c, m + x4, idx),)

    falls = "leading term of differential column 3 in degree 2 falls back to basis index 2"
    for third, sixth, witness in (
        (tilt(g1[2]), g1[0], "inhomogeneous differential column 3 in degree 2"),
        (g1[0], tilt(g1[5]), falls),
        (tilt(g1[0]), g1[5], "inhomogeneous differential column 3 in degree 2"),
    ):
        level = g1[:2] + [third] + g1[3:5] + [sixth] + g1[6:]
        tower = pr.OrderTower(C.ctx)
        tower.add_level(C.positions[1])
        with pytest.raises(InternalError, match=witness):
            tower.add_level(column_positions(level))
        assert tower.levels == 2
        # a sign other than +-1 is named before any column is keyed
        with pytest.raises(InternalError, match="sign 2 of term position 3 in degree 2"):
            tower.add_level(with_sign(column_positions(level), 2, 2))
        assert tower.levels == 2


def stored_as_given(C, k, column):
    """True when add_level, on a copy of C's tower up to level k - 1, stores
    the positions of ``column``, the one column of a new level k, as given,
    and the column zips back from them."""
    tower = pr.OrderTower(C.ctx)
    for table in ("bits", "base", "positions", "shifts"):
        setattr(tower, table, getattr(C.tower, table)[:k])
    positions = column_positions([column])
    tower.add_level(positions)
    return tower.positions[k] is positions and columns(tower, k) == [column]


def test_a_repeated_term_is_stored_and_fails_leading_terms():
    # a column is fed as term positions, not summed, and stored as given:
    # two terms on one monomial and index, whether their coefficients add up
    # or cancel, are found by the leading_term_formula check, not the build.
    # A column with an extra term is handed to the tower as a level of its
    # own.  Among the other columns of its level, where every column has
    # one length, the repeated term takes the place of a later term of the
    # same column: at a position of the opposite sign it cancels, at one of
    # its own sign it adds up.  Degree 2 of K4 has the signs -, +, -
    built = complex_from_matrix(COMPLEX_ROWS["k4"])
    for k, j, i, places in ((1, 1, 0, (1,)), (2, 4, 0, (1, 2))):
        term = columns(built, k)[j][i]
        for extra in (term, (-term[0],) + term[1:]):
            assert stored_as_given(built, k, columns(built, k)[j] + (extra,))
        for place in places:
            C = complex_from_matrix(COMPLEX_ROWS["k4"])
            set_entry(C, k, place, j, *term[1:])
            assert columns(C, k)[j][place] == (C.positions[k][place][0], *term[1:])
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
    # witness names the column and degree.  In a level of the complex the
    # terms of column j are put in that order by moving entry j of each
    # position; the check keys the entries, whatever the signs
    C = complex_from_matrix(COMPLEX_ROWS[name])
    assert cyc_complex.check_leading_terms(C) == (True, None, {})
    for k in range(1, C.n):
        level = list(C.positions[k])
        for turn, order in enumerate(permutations(range(k + 1))):
            j = turn % len(C.bases[k])
            stored = columns(C, k)[j]
            column = tuple(stored[i] for i in order)
            assert stored_as_given(C, k, column)
            for i, (_, mono, target) in enumerate(column):
                set_entry(C, k, i, j, mono, target)
            expected = (True, None, {}) if order == tuple(range(k + 1)) else (
                False, f"column {j + 1} in degree {k} is not in module order", {}
            )
            assert cyc_complex.check_leading_terms(C) == expected, order
            C.positions[k][:] = level


@pytest.mark.parametrize("name", ["k4", "echelon6", "weighted4"])
def test_stored_columns_are_strictly_decreasing(name):
    C = complex_from_matrix(COMPLEX_ROWS[name])
    for k in range(1, C.n):
        assert len(columns(C, k)) == len(C.bases[k])
        for j, column in enumerate(columns(C, k)):
            assert type(column) is tuple
            keys = [key(C.tower, k - 1, mono, idx) for _, mono, idx in column]
            assert all(a > b for a, b in zip(keys, keys[1:]))
            assert {C.ctx.degree(key >> C.tower.bits[k - 1]) for key in keys} == {C.shifts[k][j]}


# ---------------------------------------------------------------------------
# text format

def test_elem_str_round_trip(k4_complex):
    C = k4_complex
    assert pr.elem_str([], pr.term_tails(0, 1), C.ctx) == []
    assert column_texts([], pr.term_tails(0, 1), C.ctx) == []
    assert column_str((), pr.term_tails(0, 1), C.ctx) == "0"
    assert parse_elem("0", C.ctx) == {}
    assert parse_column("0", C.ctx) == ()
    for k in (1, 2, 3):
        tails = pr.term_tails(k - 1, len(C.bases[k - 1]))
        texts = column_texts(C.positions[k], tails, C.ctx)
        assert len(texts) == len(columns(C, k))
        for s, f in zip(texts, columns(C, k)):
            assert parse_column(s, C.ctx) == f
            assert s == column_str(f, tails, C.ctx)


def test_elem_str_gives_each_position_two_lazy_pieces(k4_complex):
    # level k's pieces are 2 * (k + 1) iterators, position i's term texts
    # (its sign and monomial) and then their tails, entry j of each
    # belonging to column j; nothing is rendered into a column until read
    C = k4_complex
    for k in range(1, C.n):
        tails = pr.term_tails(k - 1, len(C.bases[k - 1]))
        pieces = pr.elem_str(C.positions[k], tails, C.ctx)
        assert len(pieces) == 2 * (k + 1) == 2 * len(C.positions[k])
        assert all(iter(piece) is piece for piece in pieces)
        entries = list(zip(*pieces))
        assert len(entries) == len(columns(C, k))
        for entry, f in zip(entries, columns(C, k)):
            assert len(entry) == 2 * (k + 1)
            for i, (coeff, mono, idx) in enumerate(f):
                sign = (" + " if coeff > 0 else " - ") if i else ("" if coeff > 0 else "-")
                assert entry[2 * i] == sign + (C.ctx.text(mono) or "1")
                assert entry[2 * i + 1] == tails[idx]


def test_elem_str_level0_is_plain_polynomial(k4_complex):
    C = k4_complex
    assert column_texts(C.positions[1], pr.term_tails(0, 1), C.ctx)[0] == "x1*x2*x3 - x4^3"


def test_elem_str_pins_hand_built_columns():
    # a level's positions carry one sign each, +-1 as add_level requires;
    # each column is a level of its own, and the last levels hold two
    # columns whose positions are shared
    ctx = pr.GradedContext(4, (1, 1, 1, 1), 4)
    x1, x2, x3, x4 = ctx.variables

    def rendered(columns, tails):
        texts = column_texts(column_positions(columns), tails, ctx)
        assert texts == [column_str(f, tails, ctx) for f in columns]
        return texts

    column = ((1, x1 + 2 * x3, 0), (-1, 0, 1), (1, 0, 2), (-1, x2, 0), (-1, x4, 3), (1, 0, 0))
    assert rendered([column], pr.term_tails(0, 4)) == ["x1*x3^2 - 1 + 1 - x2 - x4 + 1"]
    assert rendered([column], pr.term_tails(1, 4)) == [
        "x1*x3^2·e[1,1] - 1·e[1,2] + 1·e[1,3] - x2·e[1,1] - x4·e[1,4] + 1·e[1,1]"
    ]
    assert rendered([column], pr.term_tails(12, 4))[0].endswith(" - x4·e[12,4] + 1·e[12,1]")
    for level, texts in (
        (0, ["-1", "-x1 + 1", "x4^3", "1 - 1", "-1 + x1"]),
        (2, ["-1·e[2,5]", "-x1·e[2,1] + 1·e[2,3]", "x4^3·e[2,2]", "1·e[2,1] - 1·e[2,2]",
             "-1·e[2,5] + x1·e[2,1]"]),
    ):
        columns = [
            ((-1, 0, 4),),
            ((-1, x1, 0), (1, 0, 2)),
            ((1, 3 * x4, 1),),
            ((1, 0, 0), (-1, 0, 1)),
            ((-1, 0, 4), (1, x1, 0)),
        ]
        tails = pr.term_tails(level, 5)
        assert [text for f in columns for text in rendered([f], tails)] == texts
        for text, f in zip(texts, columns):
            assert parse_column(text, ctx) == (f if level else tuple((c, m, 0) for c, m, _ in f))
        # the columns of one length as one level: one sign per position
        assert rendered([columns[1], columns[4]], tails) == [texts[1], texts[4]]
        assert rendered([columns[0], columns[0]], tails) == texts[:1] * 2


def test_column_str_renders_any_coefficient():
    # the reference renderer writes |coeff| before the monomial when it is
    # not 1, joined by "*", and parse_column reads every such text back
    ctx = pr.GradedContext(4, (1, 1, 1, 1), 4)
    x1, x2, x3, x4 = ctx.variables

    def rendered(column, tails):
        text = column_str(column, tails, ctx)
        level = tails[0] != ""
        assert parse_column(text, ctx) == (
            column if level else tuple((c, m, 0) for c, m, _ in column)
        )
        return text

    column = ((2, x1 + 2 * x3, 0), (-2, 0, 1), (1, 0, 2), (-1, x2, 0), (-2, x4, 3), (2, 0, 0))
    assert rendered(column, pr.term_tails(0, 4)) == "2*x1*x3^2 - 2 + 1 - x2 - 2*x4 + 2"
    assert rendered(column, pr.term_tails(1, 4)) == (
        "2*x1*x3^2·e[1,1] - 2·e[1,2] + 1·e[1,3] - x2·e[1,1] - 2*x4·e[1,4] + 2·e[1,1]"
    )
    assert rendered(column, pr.term_tails(12, 4)).endswith(" - 2*x4·e[12,4] + 2·e[12,1]")
    assert rendered(column[::-1], pr.term_tails(0, 4)) == "2 - 2*x4 - x2 + 1 - 2 + 2*x1*x3^2"
    for level, texts in (
        (0, ["-2", "-x1 + 2", "2*x4^3", "-3*x2 - 1"]),
        (2, ["-2·e[2,1]", "-x1·e[2,1] + 2·e[2,3]", "2*x4^3·e[2,2]", "-3*x2·e[2,4] - 1·e[2,5]"]),
    ):
        columns = [
            ((-2, 0, 0),),
            ((-1, x1, 0), (2, 0, 2)),
            ((2, 3 * x4, 1),),
            ((-3, x2, 3), (-1, 0, 4)),
        ]
        tails = pr.term_tails(level, 5)
        assert [rendered(f, tails) for f in columns] == texts


def test_elem_str_renders_each_distinct_monomial_once(monkeypatch):
    # text is kept per context: a second rendering unpacks nothing, and a
    # fresh complex renders its own monomials again.  Each position asks
    # ctx.text once per distinct monomial it holds
    C = complex_from_matrix(ECHELON6)
    unpacked = []
    original = pr.GradedContext.unpack

    def counting(self, mono):
        unpacked.append(mono)
        return original(self, mono)

    def rendered(C):
        return [
            text for k in range(1, C.n) for text in column_texts(C.positions[k], tails[k], C.ctx)
        ]

    monkeypatch.setattr(pr.GradedContext, "unpack", counting)
    tails = {k: pr.term_tails(k - 1, len(C.bases[k - 1])) for k in range(1, C.n)}
    asked = []
    text = C.ctx.text
    monkeypatch.setattr(C.ctx, "text", lambda mono: asked.append(mono) or text(mono))
    texts = rendered(C)
    distinct = {m for k in range(1, C.n) for _, monos, _ in C.positions[k] for m in monos}
    assert sorted(unpacked) == sorted(distinct)
    per_position = sum(len(set(monos)) for k in range(1, C.n) for _, monos, _ in C.positions[k])
    assert len(asked) == per_position > len(distinct)
    assert rendered(C) == texts
    assert len(asked) == 2 * per_position
    assert texts == [
        column_str(f, tails[k], C.ctx) for k in range(1, C.n) for f in columns(C, k)
    ]
    assert len(unpacked) == len(distinct)
    D = complex_from_matrix(ECHELON6)
    assert column_texts(D.positions[1], tails[1], D.ctx)[0] == texts[0]
    assert len(unpacked) > len(distinct)


def test_elem_str_with_escaped_tails_is_the_escaped_text():
    # export_json renders with the tails' prefix JSON-escaped once per
    # level and quotes the result; JSON escapes character by character, so
    # that is the escaped rendering, for every column of the verifiable
    # bundled instances and the seeded n = 7 instance
    graphs = [
        graph_core.parse_digraph((INSTANCES / f"{name}.json").read_text())
        for name in ("cycle4", "cycle4_arcs", "echelon6", "k4", "weighted4", "weighted4_echelon")
    ] + [random_icb_digraph(7, random.Random(2))]
    for g in graphs:
        C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
        for k in range(1, C.n):
            size = len(C.bases[k - 1])
            tails = pr.term_tails(k - 1, size)
            escaped = pr.term_tails(k - 1, size, cyc_complex.TAIL_PREFIX)
            assert escaped == [encode_basestring_ascii(tail)[1:-1] for tail in tails]
            assert k == 1 or escaped != tails
            plain = iter(column_texts(C.positions[k], tails, C.ctx))
            for text, f in zip(column_texts(C.positions[k], escaped, C.ctx), columns(C, k)):
                assert '"' + text + '"' == encode_basestring_ascii(next(plain))
                assert text == column_str(f, escaped, C.ctx)


# ---------------------------------------------------------------------------
# the flattened tower keys agree with the recursive order definition

def tower_columns(tower):
    """Every level's columns, zipped from the tower's positions, as
    TupleTower reads them; level 0 has none."""
    return [None] + [columns(tower, k) for k in range(1, tower.levels)]


def _rec_compare(C, level, m1, i, m2, j):
    """Induced-order comparison straight from the definition: map both
    monomials through the images one level down, compare there, break ties
    by the larger basis index."""
    if level == 0:
        ctx = C.ctx
        return cmp(ref.wrlo_key(ctx.unpack(m1), ctx.nu), ref.wrlo_key(ctx.unpack(m2), ctx.nu))
    lt1 = _rec_leading(C, level - 1, elem_scale_term(column_elem(columns(C, level)[i]), 1, m1))
    lt2 = _rec_leading(C, level - 1, elem_scale_term(column_elem(columns(C, level)[j]), 1, m2))
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
            got = cmp(key(C.tower, level, m1, i), key(C.tower, level, m2, j))
            assert got == _rec_compare(C, level, m1, i, m2, j)


def test_tower_leading_terms_agree_with_recursive_definition(k4_complex):
    C = k4_complex
    for level in (1, 2, 3):
        for j, f in enumerate(columns(C, level)):
            mono, idx = _rec_leading(C, level - 1, column_elem(f))
            assert f[0][1:] == (mono, idx)


@pytest.mark.parametrize("name", ["k4", "echelon6", "weighted4"])
def test_int_keys_order_column_terms_as_the_tuple_keys(name):
    # the keys of one level are injective, so equal sorted orders mean that
    # every pair of column terms compares the same way under both keys
    C = complex_from_matrix(COMPLEX_ROWS[name])
    old = TupleTower(tower_columns(C.tower))
    for k in range(1, C.n):
        terms = {(mono, idx) for column in columns(C, k) for _, mono, idx in column}
        keys = {t: key(C.tower, k - 1, *t) for t in terms}
        assert all(type(key) is int for key in keys.values())
        assert len(set(keys.values())) == len(terms)
        assert sorted(terms, key=keys.get) == sorted(terms, key=lambda t: old.key(k - 1, *t))
        assert [C.ctx.degree(a) for a in old.acc[k]] == C.shifts[k]


def test_add_level_refuses_a_lead_that_falls_back():
    # on the cyclic complexes each lead sits on its column's parent, so the
    # leads never fall along a level and the basis index orders the descents;
    # here e[2,1] leads on e[1,2] and e[2,2] on e[1,1]: both reach x1*x2 and
    # the descent (1, 2, 1) beats (1, 1, 2), against the index order, so the
    # level is refused and nothing is appended.  Both leads carry the sign
    # of their one position, +1
    ctx = pr.GradedContext(2, (1, 1), 3)
    x1, x2 = ctx.variables
    tower = pr.OrderTower(ctx)
    tower.add_level(column_positions([elem_terms({(x1, 0): 1}), elem_terms({(x2, 0): 1})]))
    above = [elem_terms({(x1, 1): 1}), elem_terms({(x2, 0): 1})]
    old = TupleTower([None, columns(tower, 1), above])
    assert old.path[2] == [(0, 1, 0), (0, 0, 1)]
    assert old.key(2, 0, 0) > old.key(2, 0, 1)
    with pytest.raises(InternalError, match="column 2 in degree 2 falls back to basis index 1"):
        tower.add_level(column_positions(above))
    assert tower.levels == 2
    assert [len(t) for t in (tower.bits, tower.positions, tower.shifts)] == [2] * 3
    # in the other order the leads rise, and the keys follow the descents
    tower.add_level(column_positions(above[::-1]))
    old = TupleTower(tower_columns(tower))
    assert old.path[2] == [(0, 0, 0), (0, 1, 1)]
    for level in (1, 2):
        terms = [(m, i) for m in (0, x1, x2, x1 + x2) for i in range(2)]
        assert sorted(terms, key=lambda t: key(tower, level, *t)) == sorted(
            terms, key=lambda t: old.key(level, *t)
        )


def test_tower_keys_of_a_hand_built_tower_match_the_reference_key():
    # every monomial up to degree 2 on every basis index of each level,
    # keyed as one list, equals the reference key entry for entry; level 1
    # has three basis elements, so its index field is 2 bits wide
    ctx = pr.GradedContext(2, (1, 1), 3)
    x1, x2 = ctx.variables
    tower = pr.OrderTower(ctx)
    tower.add_level(column_positions([
        elem_terms({(x1, 0): 1}), elem_terms({(x2, 0): 1}), elem_terms({(x1 + x2, 0): 1}),
    ]))
    tower.add_level(column_positions([
        elem_terms({(x2, 0): 1}), elem_terms({(x1, 1): 1}), elem_terms({(x1, 2): 1}),
    ]))
    assert tower.bits == [0, 2, 2]
    monos = [0, x1, x2, 2 * x1, x1 + x2, 2 * x2]
    for level in range(3):
        terms = [(m, t) for m in monos for t in range(len(tower.base[level]))]
        want = [key(tower, level, m, t) for m, t in terms]
        assert tower.keys(level, [m for m, _ in terms], [t for _, t in terms]) == want
        assert tower.keys(level, [], []) == []


def test_s_leading_key_walks_past_positions_that_cancel():
    # every column of a level has one term per position, and the two terms
    # at a position share its sign: on hand-built columns of one level the
    # walk passes the positions where the pair's terms cancel, and the
    # first where they do not gives Lt(S), in either order of the pair; a
    # pair that cancels at every position has S = 0.  The positions carry
    # the signs +, +, -, and each column's terms strictly decrease
    ctx = pr.GradedContext(2, (1, 1), 4)
    x1, x2 = ctx.variables
    tower = pr.OrderTower(ctx)
    tower.add_level(column_positions([
        ((1, 3 * x1, 0), (1, 2 * x1 + x2, 0), (-1, 3 * x2, 0)),
        ((1, 3 * x1, 0), (1, 2 * x1 + x2, 0), (-1, x1 + 2 * x2, 0)),
        ((1, 3 * x1, 0), (1, x1 + 2 * x2, 0), (-1, 3 * x2, 0)),
        ((1, 2 * x1 + x2, 0), (1, x1 + 2 * x2, 0), (-1, 3 * x2, 0)),
    ]))
    leads = {}
    for i, j in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 3), (0, 0)]:
        s = pr.s_vector(tower, 0, i, j)
        m_ji, m_ij = pr.s_cofactor(tower, 0, i, j), pr.s_cofactor(tower, 0, j, i)
        walked = s_leading_key(tower, 0, i, j, m_ji, m_ij)
        if s:
            _, mono, idx = leading_module_term(tower, s, 0)
            assert walked == key(tower, 0, mono, idx), (i, j)
            leads[i, j] = mono
        else:
            assert walked is None, (i, j)
    # f_0 - f_1 = x1*x2^2 - x2^3: the first two positions cancel and the
    # third leads; f_0 - f_2 and f_1 - f_2 lead at the second position with
    # x1^2*x2, and x2*f_2 - x1*f_3 with x1^2*x2^2 after its leads cancel
    assert leads == {
        (0, 1): x1 + 2 * x2, (1, 0): x1 + 2 * x2, (0, 2): 2 * x1 + x2, (2, 0): 2 * x1 + x2,
        (1, 2): 2 * x1 + x2, (2, 3): 2 * x1 + 2 * x2,
    }


def test_int_keys_agree_with_the_tuple_keys_on_random_pairs(generic4_complex):
    C = generic4_complex
    old = TupleTower(tower_columns(C.tower))
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
                got = cmp(key(C.tower, level, a, i), key(C.tower, level, b, j))
                assert got == cmp(old.key(level, a, i), old.key(level, b, j))
    assert ties > 0


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
    # scan of all leading terms: the same remainders at level 0, on elements
    # with coefficients +-1 and +-2, which the reference's quotients
    # complete to standard expressions
    rng = random.Random(11)
    remainders = quotients = 0
    for C in _wide_complexes():
        table = pr.divisor_table(C.tower)
        for _ in range(80):
            g = {}
            for _ in range(rng.randint(1, 5)):
                mono = C.ctx.pack([rng.randint(0, 3) for _ in range(C.n)])
                elem_add_term(g, 0, rng.choice([-2, -1, 1, 2]), mono)
            q, r = divide_reference.divide(g, C.tower, 0)
            assert pr.divide(g, C.tower, table) == r
            assert_standard_expression(g, q, r, C.tower, 0)
            quotients += bool(q)
            remainders += bool(r)
    assert quotients > 100 and remainders > 100
