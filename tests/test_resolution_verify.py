import gc
import random
from itertools import product

import pytest

from cycres import cyc_complex as cc
from cycres import graph_core
from cycres import resolution_verify as rv
from cycres.errors import InternalError, ValidationError
from cycres.poly_ring import (
    GradedContext,
    OrderTower,
    divide,
    s_leading_key,
    s_vector,
)

import linalg_reference
import oracle_reference
from standard_expression_reference import below_leading_term
from conftest import (
    ECHELON6,
    INSTANCES,
    WEIGHTED4,
    P,
    column_elem,
    complex_from_matrix,
    elem_scale_term,
    generic4_matrix,
    poly_elem,
    random_icb_digraph,
    swept_complexes,
    tuples,
)


K4_ROWS = [[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]]
# the unit 3-cycle 1 -> 2 -> 3 -> 1
CYCLE3 = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
VERIFIABLE = ["cycle4", "cycle4_arcs", "echelon6", "k4", "weighted4", "weighted4_echelon"]


def test_degree0_gb_k4(k4_complex):
    ok, witness, counters = rv.verify_degree0_gb(k4_complex)
    assert ok, witness
    assert counters["pairs"] == 21


def test_partition_str_on_hand_written_partitions():
    # no complex is built; vertices run together while every one is a
    # single digit, and are dot-separated once one has two
    assert rv.partition_str(P([3], [2], [1], [4])) == "(3,2,1,4)"
    assert rv.partition_str(P([2, 3], [1, 4])) == "(23,14)"
    assert rv.partition_str(P(range(1, 10))) == "(123456789)"
    assert rv.partition_str(P([10], [1, 2], [3, 11])) == "(10,1.2,3.11)"
    assert rv.partition_str(P([2, 9], [1, 3, 10])) == "(2.9,1.3.10)"


@pytest.mark.parametrize("pos, witness", [
    (3, "closed form mismatch for C, D = (123,12)"),
    (4, "leading bound fails for C, D = (123,12)"),
])
def test_degree0_gb_witness_renders_the_subsets_like_partitions(pos, witness):
    # generator pos + 1 of K4 corrupted breaks the pair C = {1,2,3},
    # D = {1,2}: x1 times the head of the generator of D takes the
    # S-polynomial off the closed form, and the generator of C - D = {3}
    # stored reversed keeps it on the closed form but fails the bound on its
    # leading term
    C = complex_from_matrix(K4_ROWS)
    if pos == 3:
        _times_head(C, 1, pos, (1, 0, 0, 0))
    else:
        C.diffs[1][pos] = C.diffs[1][pos][::-1]
    assert rv.verify_degree0_gb(C) == (False, witness, {"pairs": 2})


def test_s_poly_closed_form_nested(generic4_complex):
    # C = {2,3} strictly inside D = {1,2,3}: only the G-piece survives and
    # its coefficient is the arrow monomial from the outside V into C
    C = generic4_complex
    a = C.L.a
    s, m_ji, m_ij = s_vector(C.tower, 0, 1, 0)
    formula, l_cd, l_dc = rv.s_poly_closed_form(*P([2, 3], [1, 2, 3]), C)
    assert s == formula
    assert l_dc == C.ctx.pack((0, 0, 0, a[3][1] + a[3][2]))
    f7 = C.diffs[1][6]
    assert s == elem_scale_term(column_elem(f7), -1, l_dc)


def test_colon_stability_examines_every_degree0_leading_term():
    for C in swept_complexes():
        ok, witness, counters = rv.verify_colon_stability(C)
        assert ok, witness
        assert counters == {"leading_terms": 2 ** (C.n - 1) - 1}
        # no leading term involves the last variable
        assert all(C.ctx.unpack(f[0][1])[-1] == 0 for f in C.diffs[1])


@pytest.mark.parametrize("pos", [0, 3, 6])
def test_colon_stability_fails_on_a_leading_term_with_the_last_variable(pos):
    # x4 times the head of generator pos + 1 of K4: the first such term is
    # the witness, and the terms before it were examined
    C = complex_from_matrix(K4_ROWS)
    _times_head(C, 1, pos, (0, 0, 0, 1))
    assert rv.verify_colon_stability(C) == (
        False, f"x4 divides leading term of generator {pos + 1}", {"leading_terms": pos + 1}
    )


def test_colon_manual_member_and_nonmember(k4_complex):
    C = k4_complex
    g0 = C.diffs[1]
    t = C.ctx.pack((0, 0, 0, 1))
    tg = elem_scale_term(column_elem(g0[0]), 1, t)
    _, rem = divide(tg, C.tower, 0)
    assert rem == {}
    h = poly_elem(C.ctx, {(1, 0, 0, 0): 1})  # x1 alone is not in the ideal
    _, rem_h = divide(h, C.tower, 0)
    assert rem_h
    _, rem_th = divide(elem_scale_term(h, 1, t), C.tower, 0)
    assert rem_th


def quotients_at(C, k, i):
    return rv.module_quotients(C, k, i, dict(rv.quotient_sources(C, k))[i])


def test_module_quotients_worked_example_level1(generic4_complex):
    C = generic4_complex
    a = C.L.a
    P = C.ctx.pack
    gens = quotients_at(C, 1, 4)
    retained = {(j, c, m) for j, c, m, pruned in gens if not pruned}
    assert retained == {
        (0, 1, P((a[0][3], a[1][3], 0, 0))),
        (1, 1, P((0, a[1][0] + a[1][3], 0, 0))),
        (2, 1, P((a[0][1] + a[0][3], 0, 0, 0))),
    }
    pruned = [g for g in gens if g[3]]
    assert [g[0] for g in pruned] == [3]


def test_module_quotients_worked_example_level2(generic4_complex):
    C = generic4_complex
    a = C.L.a
    gens = quotients_at(C, 2, 4)
    assert [(j, c, m) for j, c, m, pruned in gens if not pruned] == [
        (3, -1, C.ctx.pack((a[0][3], 0, 0, 0)))
    ]


def test_module_quotients_empty_when_last_block_is_n(generic4_complex):
    C = generic4_complex
    assert C.bases[1][0] == P([1, 2, 3], [4])
    assert dict(rv.quotient_sources(C, 1))[0] == []
    gens = quotients_at(C, 1, 1)
    assert all(not pruned for *_, pruned in gens)


def test_verify_module_quotients_all(k4_complex, generic4_complex, cycle4_complex):
    for C in (k4_complex, generic4_complex, cycle4_complex):
        ok, witness, _ = rv.verify_module_quotients(C)
        assert ok, witness


QUOTIENT_INSTANCES = {
    "k4": lambda: complex_from_matrix(K4_ROWS),
    "generic4": lambda: cc.build_complex(graph_core.prepare(generic4_matrix())),
    "echelon6": lambda: complex_from_matrix(ECHELON6),
    "weighted4": lambda: complex_from_matrix(WEIGHTED4),
    "random6": lambda: cc.build_complex(graph_core.prepare(graph_core.laplacian(
        random_icb_digraph(6, random.Random(2))))),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_INSTANCES))
def test_quotient_sources_match_all_pairs_scan(name):
    C = QUOTIENT_INSTANCES[name]()
    for k in range(1, C.n):
        basis = C.bases[k]
        expected = [
            (i, [
                (j, set(tuples(basis[j])[k - 1]) > set(tuples(p)[k - 1]))
                for j in range(i)
                if basis[j][: k - 1] == p[: k - 1]
            ])
            for i, p in enumerate(basis)
        ]
        assert list(rv.quotient_sources(C, k)) == expected


def test_module_quotients_catch_a_target_across_prefixes():
    C = complex_from_matrix(K4_ROWS)
    k = 2
    i = len(C.bases[k]) - 1
    assert C.bases[k][0][: k - 1] != C.bases[k][i][: k - 1]
    ok, witness, _ = rv.verify_module_quotients(C)
    assert ok, witness
    target = C.diffs[k][0][0][2]
    _change_head(C, k, i, lambda t: (t[0], t[1], target))
    ok, witness, _ = rv.verify_module_quotients(C)
    assert not ok
    assert witness == f"nonzero quotient across different prefixes at level {k}: 1, {i + 1}"


def test_module_quotients_witness_spells_out_exponents():
    # x1 times the head of generator 5 of K4: the cofactor read from the
    # column no longer matches the closed formula, and the witness shows
    # both as exponent vectors
    C = complex_from_matrix(K4_ROWS)
    assert C.ctx.unpack(C.diffs[1][4][0][1]) == (0, 0, 3, 0)
    _times_head(C, 1, 4, (1, 0, 0, 0))
    assert rv.verify_module_quotients(C) == (
        False,
        "closed formula mismatch at level 1, pair (1,5): "
        "direct (1, (0, 1, 0, 0)), formula (1, (1, 1, 0, 0))",
        {"generators": 6},
    )


def test_tau_identity_worked_examples(generic4_complex):
    C = generic4_complex
    a = C.L.a
    e1 = P([2, 3], [1], [4])
    i, j = rv.tau_pair(C, 1, e1)
    assert (C.bases[1][i], C.bases[1][j]) == (P([2, 3], [1, 4]), P([1, 2, 3], [4]))
    pos1 = C.index[2][e1]
    ok, witness = rv.verify_tau_identity(C, 1, pos1)
    assert ok, witness
    de = column_elem(C.diffs[2][pos1])
    # -tau leads with +x1^a14
    on_i = {t: c for t, c in de.items() if t[1] == i}
    assert on_i == poly_elem(C.ctx, {(a[0][3], 0, 0, 0): -1}, i)

    e2 = P([3], [2], [1], [4])
    i2, j2 = rv.tau_pair(C, 2, e2)
    assert (C.bases[2][i2], C.bases[2][j2]) == (
        P([3], [2], [1, 4]),
        P([3], [1, 2], [4]),
    )
    pos2 = C.index[3][e2]
    ok, witness = rv.verify_tau_identity(C, 2, pos2)
    assert ok, witness
    de2 = column_elem(C.diffs[3][pos2])
    # m^2_{4,5} = -x1^a14
    on_i2 = {t: c for t, c in de2.items() if t[1] == i2}
    assert on_i2 == poly_elem(C.ctx, {(a[0][3], 0, 0, 0): 1}, i2)


def _tau_target(k=2, e=P([3], [2], [1], [4])):
    # a fresh generic4 complex to corrupt, the tau element e at level k, its
    # merge partners and its position
    C = cc.build_complex(graph_core.prepare(generic4_matrix()))
    i, j = rv.tau_pair(C, k, e)
    col = C.index[k + 1][e]
    assert rv.verify_tau_identity(C, k, col) == (True, None)
    return C, k, i, j, col


def _replace_term(C, level, col, which, change):
    column = C.diffs[level][col]
    pos = next(n for n, term in enumerate(column) if which(term))
    C.diffs[level][col] = column[:pos] + (change(column[pos]),) + column[pos + 1 :]


def _change_head(C, level, col, change):
    # the stored column with change(term) in place of its first term
    head, *rest = C.diffs[level][col]
    C.diffs[level][col] = (change(head), *rest)


def _times_head(C, level, col, exps):
    _change_head(C, level, col, lambda t: (t[0], t[1] + C.ctx.pack(exps), t[2]))


def test_tau_identity_catches_a_wrong_m_coefficient():
    # the head of f_j with the wrong sign gives the S-pair a cofactor that
    # the closed formula does not predict
    C, k, i, j, col = _tau_target()
    _change_head(C, k, j, lambda t: (-t[0], t[1], t[2]))
    assert rv.verify_tau_identity(C, k, col) == (False, "m-coefficients differ at (3,2,1,4)")


def test_tau_identity_catches_a_wrong_leading_component():
    C, k, i, j, col = _tau_target()
    _replace_term(C, k + 1, col, lambda t: t[2] == i, lambda t: (-t[0], t[1], t[2]))
    assert rv.verify_tau_identity(C, k, col) == (
        False, "leading component mismatch at (3,2,1,4)"
    )


def test_tau_identity_catches_a_wrong_second_component():
    C, k, i, j, col = _tau_target()
    _replace_term(C, k + 1, col, lambda t: t[2] == j, lambda t: (-t[0], t[1], t[2]))
    assert rv.verify_tau_identity(C, k, col) == (
        False, "second component mismatch at (3,2,1,4)"
    )


def test_tau_identity_catches_a_tail_term_above_the_s_vector():
    # a tail term raised by x1^10 lies above every term of S
    C, k, i, j, col = _tau_target()
    assert [t for t in C.diffs[k + 1][col] if t[2] not in (i, j)]
    _replace_term(
        C, k + 1, col, lambda t: t[2] not in (i, j),
        lambda t: (t[0], t[1] + C.ctx.pack((10, 0, 0, 0)), t[2]),
    )
    assert rv.verify_tau_identity(C, k, col) == (
        False, "standard-expression bound fails at (3,2,1,4)"
    )


def test_tau_identity_catches_a_lowered_first_tail_term():
    # x3^8 * e_1 lowered to x3^7 * e_1 keeps every tail term below Lt(S), so
    # the all-terms bound holds, but the tail no longer leads at Lt(S)
    C, k, i, j, col = _tau_target()
    _, mono, idx = C.diffs[k + 1][col][2]
    assert (C.ctx.unpack(mono), idx) == ((0, 0, 8, 0), 0)
    x3 = C.ctx.pack((0, 0, 1, 0))
    _replace_term(C, k + 1, col, lambda t: t[2] == idx, lambda t: (t[0], t[1] - x3, t[2]))
    _, m_ji, m_ij = s_vector(C.tower, k - 1, i, j)
    s_key = s_leading_key(C.tower, k - 1, i, j, m_ji, m_ij)
    tail = [(mono, idx) for _, mono, idx in C.diffs[k + 1][col][2:]]
    assert below_leading_term(C.tower, k - 1, s_key, tail)
    assert rv.verify_tau_identity(C, k, col) == (
        False, "standard-expression bound fails at (3,2,1,4)"
    )


def test_tau_identity_catches_a_column_cut_to_its_merge_partners():
    # an empty tail meets the all-terms bound, but S is not zero
    C, k, i, j, col = _tau_target()
    C.diffs[k + 1][col] = C.diffs[k + 1][col][:2]
    assert rv.verify_tau_identity(C, k, col) == (
        False, "standard-expression bound fails at (3,2,1,4)"
    )
    # shorter columns fail with a witness too, not an IndexError
    C.diffs[k + 1][col] = C.diffs[k + 1][col][:1]
    assert rv.verify_tau_identity(C, k, col) == (
        False, "second component mismatch at (3,2,1,4)"
    )
    C.diffs[k + 1][col] = ()
    assert rv.verify_tau_identity(C, k, col) == (
        False, "leading component mismatch at (3,2,1,4)"
    )


def test_tau_identity_catches_a_tail_term_moved_onto_the_leading_partner():
    C, k, i, j, col = _tau_target()
    _replace_term(C, k + 1, col, lambda t: t[2] not in (i, j), lambda t: (t[0], t[1], i))
    assert rv.verify_tau_identity(C, k, col) == (
        False, "leading component mismatch at (3,2,1,4)"
    )


def test_degree0_gb_catches_a_lowered_closed_form_lead():
    # the generator of {3}, x3^3 - x1*x2*x4, stored reversed: for
    # C = {1,2,3}, D = {1,2} the closed-form term on it then leads below
    # Lt(S), which the all-terms bound allows.  The check returns on the
    # lead equality before it divides
    C = complex_from_matrix(K4_ROWS)
    assert [C.ctx.unpack(m) for _, m, _ in C.diffs[1][4]] == [(0, 0, 3, 0), (1, 1, 0, 1)]
    C.diffs[1][4] = C.diffs[1][4][::-1]
    ci, cj = C.bases[1][0][0], C.bases[1][3][0]
    assert (ci, cj) == P([1, 2, 3], [1, 2])
    _, m_ji, m_ij = s_vector(C.tower, 0, 0, 3)
    _, l_cd, _ = rv.s_poly_closed_form(ci, cj, C)
    s_key = s_leading_key(C.tower, 0, 0, 3, m_ji, m_ij)
    assert below_leading_term(C.tower, 0, s_key, [(l_cd, 4)])
    assert rv.verify_degree0_gb(C) == (
        False, "leading bound fails for C, D = (123,12)", {"pairs": 2}
    )


def test_tau_check_sums_no_column_image(k4_complex, monkeypatch):
    # d∘d is summed only by check_d_squared, and Lt(S) is read off the two
    # stored columns: the tau check combines no column and builds no S-vector
    from cycres import poly_ring

    calls = []
    for name in ("elem_combine", "s_vector"):
        original = getattr(poly_ring, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(poly_ring, name, counting)
        monkeypatch.setattr(rv, name, counting)
    ok, witness, counters = rv.verify_tau_identities(k4_complex)
    assert ok, witness
    assert counters["elements"] == 18
    assert calls == []


@pytest.mark.parametrize(
    "case", VERIFIABLE + [(n, seed) for n in range(2, 8) for seed in range(3)], ids=str
)
def test_walked_s_leading_key_is_the_lead_of_the_built_s_vector(case):
    # every degree-0 pair (i < j, as verify_degree0_gb takes them, and i = j,
    # whose S is 0) and every tau pair: the key walked off the two stored
    # columns is the key of the leading term of the S-vector built as a dict.
    # Each standard expression of S meets the all-terms bound of the
    # reference, and its largest term is Lt(S): for i < j the larger of the
    # two closed-form terms, for tau the first tail term, after the terms on
    # i and j, with the one on j second
    if isinstance(case, str):
        g = graph_core.parse_digraph((INSTANCES / f"{case}.json").read_text())
    else:
        g = random_icb_digraph(case[0], random.Random(case[1]))
    C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    tower = C.tower

    def walked_lead(level, i, j):
        s, m_ji, m_ij = s_vector(tower, level, i, j)
        walked = s_leading_key(tower, level, i, j, m_ji, m_ij)
        if s:
            _, mono, idx = tower.leading_module_term(s, level)
            assert walked == tower.key(level, mono, idx), (level, i, j)
        else:
            assert walked is None, (level, i, j)
        return walked

    def image_key(level, mono, j):
        _, lm, idx = tower.images[level + 1][j][0]
        return tower.key(level, mono + lm, idx)

    r1 = len(C.bases[1])
    full = (1 << C.n) - 1
    zero = 0
    for i in range(r1):
        for j in range(i, r1):
            walked = walked_lead(0, i, j)
            if i == j:
                zero += walked is None
                continue
            ci, cj = C.bases[1][i][0], C.bases[1][j][0]
            _, l_cd, l_dc = rv.s_poly_closed_form(ci, cj, C)
            terms = [
                (mono, C.index[1][piece, full ^ piece])
                for mono, piece in ((l_cd, ci & ~cj), (l_dc, cj & ~ci)) if piece
            ]
            assert below_leading_term(tower, 0, walked, terms), (i, j)
            assert max(image_key(0, *t) for t in terms) == walked, (i, j)
    assert zero == r1
    for k in range(1, C.n - 1):
        for e in C.bases[k + 1]:
            i, j = rv.tau_pair(C, k, e)
            walked = walked_lead(k - 1, i, j)
            de = C.diffs[k + 1][C.index[k + 1][e]]
            tail = [(mono, idx) for _, mono, idx in de if idx not in (i, j)]
            assert below_leading_term(tower, k - 1, walked, tail), e
            assert de[1][2] == j, e
            assert tail and image_key(k - 1, *tail[0]) == walked, e


def test_tau_identities_all(k4_complex, generic4_complex, cycle4_complex):
    for C in (k4_complex, generic4_complex, cycle4_complex):
        ok, witness, counters = rv.verify_tau_identities(C)
        assert ok, witness
        assert counters["elements"] == sum(len(b) for b in C.bases[2:])


def test_schreyer_coverage_counts(k4_complex):
    C = k4_complex
    assert rv.verify_schreyer_coverage(C, 1) == (True, None, {"generators": 12})
    assert rv.verify_schreyer_coverage(C, 2) == (True, None, {"generators": 6})
    # empty quotient sets force an injective top map
    assert rv.verify_schreyer_coverage(C, 3) == (True, None, {"generators": 0})


def test_schreyer_coverage_witnesses(k4_complex, monkeypatch):
    # rho images sent to one basis element collide on the second generator;
    # images off the next basis are named before any collision
    C = k4_complex
    first = C.bases[2][0]
    monkeypatch.setattr(rv, "rho_image", lambda C, k, i, j: first)
    assert rv.verify_schreyer_coverage(C, 1) == (
        False, f"rho images collide on {rv.partition_str(first)}", {"generators": 1}
    )
    off = C.bases[1][0]
    monkeypatch.setattr(rv, "rho_image", lambda C, k, i, j: off)
    assert rv.verify_schreyer_coverage(C, 1) == (
        False, f"rho image {rv.partition_str(off)} not a basis element", {"generators": 0}
    )


def test_schreyer_coverage_counts_the_basis_above():
    # a partition in the next basis that no retained generator maps to: the
    # images are distinct and match, but too few to cover that basis
    C = complex_from_matrix(K4_ROWS)
    C.bases[2].append(P([1], [2], [3], [4]))
    assert rv.verify_schreyer_coverage(C, 1) == (
        False, "generator count 12 != rank 13", {"generators": 12}
    )
    assert rv.verify_coverage_all(C) == (
        False, "level 1: generator count 12 != rank 13", {"generators": 0}
    )


def test_distinct_images(k4_complex, cycle4_complex):
    assert rv.verify_distinct_images(k4_complex)[0]
    assert rv.verify_distinct_images(cycle4_complex)[0]


def test_minimal_gb_divisibility(k4_complex, cycle4_complex):
    k4_leads = [f[0][1] for f in k4_complex.diffs[1]]
    assert not any(
        k4_complex.ctx.divides(a, b)
        for i, a in enumerate(k4_leads)
        for j, b in enumerate(k4_leads)
        if i != j
    )
    cyc_leads = [f[0][1] for f in cycle4_complex.diffs[1]]
    assert any(
        cycle4_complex.ctx.divides(a, b)
        for i, a in enumerate(cyc_leads)
        for j, b in enumerate(cyc_leads)
        if i != j
    )


# ---------------------------------------------------------------------------
# homology oracle

def test_monomials_of_degree():
    ctx = GradedContext(2, (1, 1), 3)
    assert rv.monomials_of_degree(ctx, 2) == [ctx.pack(m) for m in [(0, 2), (1, 1), (2, 0)]]
    ctx = GradedContext(2, (2, 3), 3)
    assert rv.monomials_of_degree(ctx, 7) == [ctx.pack((2, 1))]
    ctx = GradedContext(3, (1, 1, 1), 3)
    assert rv.monomials_of_degree(ctx, 0) == [ctx.pack((0, 0, 0))]
    # degree 3 fits 3-bit fields, in lexicographic order of the exponent
    # vectors; the refusal of a degree past the fields is the oracle's
    assert len(rv.monomials_of_degree(ctx, 3)) == 10
    lex = sorted(e for e in product(range(4), repeat=3) if sum(e) == 3)
    assert rv.monomials_of_degree(ctx, 3) == [ctx.pack(e) for e in lex]
    assert rv.monomials_of_degree(ctx, -1) == []


def test_oracle_refuses_a_degree_past_the_packing_before_any_piece(monkeypatch):
    C = complex_from_matrix(CYCLE3)
    assert (C.ctx.width, C.ctx.cap) == (4, 7)
    assert rv.graded_homology_oracle(C, 7) == (True, None, {"degrees": 8})

    def refuse(*args):
        raise AssertionError("a graded piece was built")

    for name in ("monomials_of_degree", "graded_piece_rank", "rank_sparse"):
        monkeypatch.setattr(rv, name, refuse)
    with pytest.raises(InternalError, match="degree 8 does not fit 4-bit fields"):
        rv.graded_homology_oracle(C, 8)


def test_graded_pieces_vanish_at_degree_zero(k4_complex):
    cache = {}
    for k in range(1, 4):
        rank, ncols = rv.graded_piece_rank(k4_complex, k, 0, cache)
        assert ncols == 0 and rank == 0
    assert cache == {}


def test_homology_oracle_k4_small_degrees(k4_complex):
    ok, witness, counters = rv.graded_homology_oracle(k4_complex, 6)
    assert ok, witness
    assert counters["degrees"] == 7


def test_homology_oracle_catches_corruption():
    # erase one differential column: the complex property survives trivially
    # at that column but exactness fails in its degrees, on a scrambled
    # tower too (scrambled_tower, below)
    for scramble in (False, True):
        C = complex_from_matrix(K4_ROWS)
        if scramble:
            scrambled_tower(C, 2)
        C.diffs[3] = C.diffs[3][:5]
        C.bases[3] = C.bases[3][:5]
        C.shifts[3] = C.shifts[3][:5]
        ok, witness, _ = rv.graded_homology_oracle(C, 6)
        assert not ok
        assert witness.startswith("homology at position")


def test_hilbert_tail_k4(k4_complex):
    # frozen via the monomial-counting oracle: 16 standard monomials per
    # degree once the degree passes the generator range
    lt = [f[0][1] for f in k4_complex.diffs[1]]
    divides = k4_complex.ctx.divides
    for d in range(6, 13):
        all_d = rv.monomials_of_degree(k4_complex.ctx, d)
        outside = [m for m in all_d if not any(divides(g, m) for g in lt)]
        assert len(outside) == 16


def test_full_verify_leaves_no_reference_cycles():
    # every object of a build and a full verify is freed by reference
    # counting alone: nothing is left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for name in VERIFIABLE:
            g = graph_core.parse_digraph((INSTANCES / f"{name}.json").read_text())
            C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
            passed = rv.full_verify(C).passed
            del C
            assert passed, name
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_full_verify_k4(k4_complex):
    report = rv.full_verify(k4_complex, d_max=6, instance="K4")
    assert report.passed, report.to_text()
    names = [c.name for c in report.checks]
    assert names == [
        "d_squared",
        "leading_term_formula",
        "basis_images_distinct",
        "degree0_groebner",
        "colon_stability",
        "module_quotients",
        "tau_syzygies",
        "schreyer_coverage",
        "minimality_vs_completeness",
        "graded_homology",
    ]


def test_full_verify_cycle4(cycle4_complex):
    report = rv.full_verify(cycle4_complex, instance="cycle4")
    assert report.passed, report.to_text()
    assert cc.minimality_check(cycle4_complex)[0] is False


def test_full_verify_flags_corruption():
    # the flipped term is in the tail of the tau element behind column 1;
    # the tau check leaves the tail's sum to d_squared, which must catch it
    C = complex_from_matrix(K4_ROWS)
    coeff, mono, idx = C.diffs[2][0][-1]
    assert idx not in rv.tau_pair(C, 1, C.bases[2][0])
    C.diffs[2][0] = C.diffs[2][0][:-1] + ((-coeff, mono, idx),)
    report = rv.full_verify(C, d_max=4, instance="corrupted")
    assert not report.passed
    failed = {c.name: c.witness for c in report.checks if not c.ok}
    assert "d_squared" in failed
    assert failed["d_squared"] == "composition nonzero on column 1 in degree 2"


def test_full_verify_calls_checks_by_module_name(k4_complex, monkeypatch):
    # a profiler times each check by replacing its module attribute
    calls = []
    monkeypatch.setattr(rv, "check_d_squared", lambda C: (False, "composition nonzero", {}))
    monkeypatch.setattr(rv, "verify_distinct_images", lambda C: (False, "replaced", {}))
    monkeypatch.setattr(rv, "graded_homology_oracle",
                        lambda *args: calls.append(args) or (True, None, {}))
    report = rv.full_verify(k4_complex, d_max=3)
    failed = [(c.name, c.witness) for c in report.checks if not c.ok]
    assert failed == [("d_squared", "composition nonzero"), ("basis_images_distinct", "replaced")]
    assert calls == [(k4_complex, 3)]


@pytest.mark.parametrize("rows", [K4_ROWS, ECHELON6], ids=["k4", "echelon6"])
def test_column_leading_terms_are_computed_only_by_the_tower(rows, monkeypatch):
    # each column is stored with its leading term first; verification reads
    # it there and never derives one again
    C = complex_from_matrix(rows)
    columns = {id(f) for level in C.diffs[1:] for f in level}
    seen = []
    original = OrderTower.leading_module_term

    def recording(self, elem, level):
        seen.append(elem)
        return original(self, elem, level)

    monkeypatch.setattr(OrderTower, "leading_module_term", recording)
    report = rv.full_verify(C, d_max=2)
    assert report.passed, report.to_text()
    assert seen
    assert not [elem for elem in seen if id(elem) in columns]


def test_report_json_shape(k4_complex):
    report = rv.full_verify(k4_complex, d_max=2, instance="K4")
    doc = report.to_json_dict()
    assert set(doc) == {"instance", "checks"}
    for check in doc["checks"]:
        assert check["status"] == "pass"
        assert {"name", "status", "millis"} <= set(check)


# the widest oracle piece of the pinned wide runs, and of oracle-k5
WIDEST_PIECES = {"k4": (20, 9792), "cycle3": (40, 2460), "k5": (13, 7980)}


@pytest.mark.parametrize("name", sorted(WIDEST_PIECES))
def test_piece_widths_count_the_oracle_pieces(name, monkeypatch):
    # the widths counted from the shifts are the sizes of the pieces the
    # oracle numbers, degree by degree; the budget admits a piece as wide
    # as itself and refuses a wider one, naming it
    d_max, widest = WIDEST_PIECES[name]
    if name == "cycle3":
        rows = CYCLE3
    else:
        n = int(name[1])
        rows = [[n - 1 if i == j else -1 for j in range(n)] for i in range(n)]
    g = graph_core.digraph_from_matrix(rows)
    C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)), d_max)
    widths = list(rv.piece_widths(C, d_max))
    pieces = []
    graded_piece_rank = rv.graded_piece_rank

    def recording(C, k, d, mono_cache):
        result = graded_piece_rank(C, k, d, mono_cache)
        pieces.append((d, result[1]))
        return result

    monkeypatch.setattr(rv, "graded_piece_rank", recording)
    assert rv.graded_homology_oracle(C, d_max) == (True, None, {"degrees": d_max + 1})
    assert len(pieces) == (d_max + 1) * (C.n - 1)
    assert widths == [
        max(ncols for degree, ncols in pieces if degree == d) for d in range(d_max + 1)
    ]
    assert max(widths) == widest
    rv.refuse_oversized_oracle(C, d_max)
    monkeypatch.setattr(rv, "MAX_ORACLE_COLS", widest)
    rv.refuse_oversized_oracle(C, d_max)
    monkeypatch.setattr(rv, "MAX_ORACLE_COLS", widest - 1)
    with pytest.raises(ValidationError, match=f"piece of {widest:,} columns"):
        rv.refuse_oversized_oracle(C, d_max)


def test_default_d_max(k4_complex):
    assert rv.default_d_max(k4_complex) == 12


def test_random_icb_instances_fully_verify():
    rng = random.Random(77)
    for _ in range(3):
        g = random_icb_digraph(4, rng)
        C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
        report = rv.full_verify(C, d_max=min(rv.default_d_max(C), 8))
        assert report.passed, report.to_text()


def dense_piece(C, k, d):
    """The degree-d piece of the k-th differential as dense rows, numbered
    as oracle_reference.piece_index numbers them, with repeated terms of a
    column summed; and its number of columns."""
    row_ids = {}
    for p in range(len(C.shifts[k - 1])):
        for beta in rv.monomials_of_degree(C.ctx, d - C.shifts[k - 1][p]):
            row_ids[(p, beta)] = len(row_ids)
    assert oracle_reference.piece_index(C, k - 1, d, {}) == row_ids
    cols = []
    for j, f in enumerate(C.diffs[k]):
        for alpha in rv.monomials_of_degree(C.ctx, d - C.shifts[k][j]):
            col = [0] * len(row_ids)
            for coeff, mono, p in f:
                col[row_ids[(p, alpha + mono)]] += coeff
            cols.append(col)
    return [list(row) for row in zip(*cols)] if cols else [], len(cols)


def assert_pieces_match_the_references(C, d_max):
    # column-wise pieces, the row-wise reference and dense elimination over
    # Q agree on every piece up to d_max; returns the nonempty pieces seen
    nonempty = 0
    for d in range(d_max + 1):
        cache = {}
        for k in range(1, C.n):
            dense, ncols = dense_piece(C, k, d)
            piece = rv.graded_piece_rank(C, k, d, cache)
            assert piece == oracle_reference.graded_piece_rank(C, k, d), (k, d)
            assert piece == (linalg_reference.rank(dense), ncols), (k, d)
            nonempty += ncols > 0
    return nonempty


def test_graded_piece_ranks_match_dense_oracle():
    # same matrices, assembled densely and ranked by fraction-free
    # elimination over Q, for a random weighted instance and K4
    rng = random.Random(31)
    instances = [
        cc.build_complex(
            graph_core.prepare(graph_core.laplacian(random_icb_digraph(4, rng)))
        ),
        complex_from_matrix(K4_ROWS),
    ]
    for C in instances:
        assert_pieces_match_the_references(C, 6)


# the widest piece the reference comparison assembles densely
REFERENCE_PIECE_COLS = 120


def reference_instances():
    for name in VERIFIABLE:
        g = graph_core.parse_digraph((INSTANCES / f"{name}.json").read_text())
        yield pytest.param(g, id=name)
    # unit arc weights keep the shifts, and so the first pieces, small
    rng = random.Random(5)
    for n in (4, 5):
        for i in range(3):
            yield pytest.param(random_icb_digraph(n, rng, max_weight=1), id=f"random{n}.{i}")


@pytest.mark.parametrize("g", list(reference_instances()))
def test_piece_ranks_match_the_row_wise_reference(g):
    C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    d_max = -1
    for d, widest in enumerate(rv.piece_widths(C, 40)):
        if widest > REFERENCE_PIECE_COLS:
            break
        d_max = d
    assert d_max >= 2
    assert assert_pieces_match_the_references(C, d_max) > 0


def test_repeated_terms_of_a_column_are_summed():
    # a column holding one term twice is one with that term doubled, and a
    # term repeated with the opposite sign cancels it; either raises this
    # piece's rank from 42 to 44
    C = complex_from_matrix(K4_ROWS)
    d = C.shifts[2][0] + 1
    assert rv.graded_piece_rank(C, 2, d, {}) == (42, 48)
    f = C.diffs[2][0]
    for repeat in (f[-1], (-f[-1][0],) + f[-1][1:]):
        C.diffs[2][0] = f + (repeat,)
        dense, ncols = dense_piece(C, 2, d)
        piece = rv.graded_piece_rank(C, 2, d, {})
        assert piece == (linalg_reference.rank(dense), ncols) == (44, 48)
        assert piece == oracle_reference.graded_piece_rank(C, 2, d)


def scrambled_tower(C, seed):
    # overwrite every level's keys with random ints, most of them shared by
    # many positions and some negative, so that no key tells two apart
    rng = random.Random(seed)
    for level in C.tower.base:
        level[:] = [rng.choice((0, -3, 7, 1 << 61)) for _ in level]


@pytest.mark.parametrize("rows, d_max", [(K4_ROWS, 8), (WEIGHTED4, 14)], ids=["k4", "weighted4"])
def test_oracle_reads_the_tower_only_to_pick_pivots(rows, d_max):
    # the same pieces, ranks and verdict whatever the tower's keys hold
    C = complex_from_matrix(rows)
    before = [
        [rv.graded_piece_rank(C, k, d, {}) for k in range(1, C.n)] for d in range(d_max + 1)
    ]
    result = rv.graded_homology_oracle(C, d_max)
    assert result == (True, None, {"degrees": d_max + 1})
    # position 0 takes the larger monomial of each degree-0 column, in
    # whatever order the column holds its two terms
    C.diffs[1][:] = [f[::-1] for f in C.diffs[1]]
    assert rv.graded_homology_oracle(C, d_max) == result
    scrambled_tower(C, 1)
    assert rv.graded_homology_oracle(C, d_max) == result
    assert before == [
        [rv.graded_piece_rank(C, k, d, {}) for k in range(1, C.n)] for d in range(d_max + 1)
    ]

