import gc
from collections import Counter
import random
from itertools import combinations, groupby, product
from types import SimpleNamespace

import pytest

from cycres import cyc_complex as cc
from cycres import graph_core
from cycres import resolution_verify as rv
from cycres.errors import InternalError, ValidationError
from cycres.poly_ring import (
    GradedContext,
    divide,
    divisor_table,
    s_cofactor,
    s_vector,
)

import graph_reference
import lead_ideal_reference
import linalg_reference
import oracle_reference
from degree0_reference import verify_degree0_gb_by_pair
from quotient_reference import arrow_plus, run_key, verify_module_quotients_by_level
from standard_expression_reference import (
    below_leading_term,
    s_leading_key,
    tau_pair,
    verify_tau_identity,
)
from tower_reference import key, leading_module_term
from conftest import (
    ECHELON6,
    INSTANCES,
    WEIGHTED4,
    P,
    RESOLVABLE,
    bundled_complex,
    column_elem,
    columns,
    complex_from_matrix,
    elem_scale_term,
    generic4_matrix,
    poly_elem,
    random_icb_digraph,
    scrambled_tower,
    set_entry,
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


def test_degree0_gb_reports_a_nonzero_remainder(monkeypatch):
    # no correct complex leaves a remainder, so division is stubbed to leave
    # x1 behind on the third pair, C = {1,2,3}, D = {1,2}: that pair is
    # counted, and every division reads the one table the check built
    C = complex_from_matrix(K4_ROWS)
    tables = []

    def leaves_x1(s, tower, table):
        tables.append(table)
        rem = divide(s, tower, table)
        return rem if len(tables) != 3 else {**rem, (C.ctx.variables[0], 0): 1}

    monkeypatch.setattr(rv, "divide", leaves_x1)
    assert rv.verify_degree0_gb(C) == (
        False, "nonzero remainder for C, D = (123,12)", {"pairs": 3}
    )
    assert len(tables) == 3 and all(t is tables[0] for t in tables)


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
    # stored with its smaller monomial first keeps it on the closed form
    # but fails the bound on its leading term
    C = complex_from_matrix(K4_ROWS)
    if pos == 3:
        _times_head(C, 1, pos, (1, 0, 0, 0))
    else:
        _smaller_monomial_first(C, pos)
    assert rv.verify_degree0_gb(C) == (False, witness, {"pairs": 2})


def _smaller_monomial_first(C, j):
    # degree-0 generator j, x^a - x^b, stored with x^b first and the same
    # polynomial: a column has one term per position, so after the level's
    # positions of signs +, - come two more of signs -, +.  Column j holds
    # b, b, b, a there, and every other column a, b, b, b, so the last
    # three cancel to -x^b
    (sign, leads, on), (last_sign, lasts, at) = C.positions[1]
    assert (sign, last_sign) == (1, -1)
    first = list(leads)
    first[j] = lasts[j]
    closing = list(lasts)
    closing[j] = leads[j]
    C.positions[1][:] = [
        (sign, first, on), (last_sign, lasts, at), (last_sign, lasts, at), (sign, closing, at)
    ]


def test_s_poly_closed_form_nested(generic4_complex):
    # C = {2,3} strictly inside D = {1,2,3}: only the G-piece survives and
    # its coefficient is the arrow monomial from the outside V into C
    C = generic4_complex
    a = C.L.a
    s = s_vector(C.tower, 0, 1, 0)
    formula, l_cd, l_dc, heads = rv.s_poly_closed_form(*P([2, 3], [1, 2, 3]), C)
    assert s == formula
    assert l_dc == C.ctx.pack((0, 0, 0, a[3][1] + a[3][2]))
    f7 = columns(C, 1)[6]
    assert s == elem_scale_term(column_elem(f7), -1, l_dc)
    # the one piece's head is read off its stored column
    assert heads == [(l_dc + f7[0][1], f7[0][2])]


def test_closed_formulas_read_the_cofactor_of_two_block_arrow_monomials():
    # the positive part of two arrow monomials from one block, taken one
    # vertex at a time, is the cofactor of the two block arrow monomials:
    # checked on every triple (A, B, Cs) the closed formulas read, those of
    # every degree-0 pair and of every source pair of every sibling run
    triples = 0
    for C in swept_complexes():
        read = set()
        for ci, cj in combinations([p[0] for p in C.bases[1]], 2):
            E, F, G = ci & cj, ci & ~cj, cj & ~ci
            read |= {(E, G, F), (E, F, G)}
        for k in range(1, C.n):
            basis = C.bases[k]
            for run in rv.sibling_runs(C, k):
                for i, sources in rv.quotient_sources(C, k, run):
                    ik, ik1 = basis[i][k - 1 :]
                    for j, _ in sources:
                        jk, jk1 = basis[j][k - 1 :]
                        read.add((jk & ik, jk1, ik1))
        arrows, cofactor = C.arrows, C.ctx.cofactor
        for A, B, Cs in read:
            assert cofactor(arrows[A][Cs], arrows[A][B]) == arrow_plus(C, A, B, Cs), (A, B, Cs)
        triples += len(read)
    assert triples == 42561


def test_colon_stability_examines_every_degree0_leading_term():
    for C in swept_complexes():
        ok, witness, counters = rv.verify_colon_stability(C)
        assert ok, witness
        assert counters == {"leading_terms": 2 ** (C.n - 1) - 1}
        # no leading term involves the last variable
        assert all(C.ctx.unpack(f[0][1])[-1] == 0 for f in columns(C, 1))


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
    g0 = columns(C, 1)
    t = C.ctx.pack((0, 0, 0, 1))
    tg = elem_scale_term(column_elem(g0[0]), 1, t)
    table = divisor_table(C.tower)
    assert divide(tg, C.tower, table) == {}
    h = poly_elem(C.ctx, {(1, 0, 0, 0): 1})  # x1 alone is not in the ideal
    assert divide(h, C.tower, table)
    assert divide(elem_scale_term(h, 1, t), C.tower, table)


def level_sources(C, k):
    # the sources of every level-k position in a run of two or more, run by
    # run, in order
    return [
        source
        for run in rv.sibling_runs(C, k)
        for source in rv.quotient_sources(C, k, run)
    ]


def quotients_at(C, k, i):
    gens, witness = rv.module_quotients(C, k, i, dict(level_sources(C, k)).get(i, []))
    assert witness is None, witness
    return gens


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
    assert dict(level_sources(C, 1))[0] == []
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


def _sources_by_scan(C, k):
    # the sources of every level-k position by a scan of all pairs: the
    # positions before it with its first k-1 blocks, retained when their
    # k-th block holds its own
    basis = C.bases[k]
    return [
        (i, [
            (j, set(tuples(basis[j])[k - 1]) > set(tuples(p)[k - 1]))
            for j in range(i)
            if basis[j][: k - 1] == p[: k - 1]
        ])
        for i, p in enumerate(basis)
    ]


@pytest.mark.parametrize("name", sorted(QUOTIENT_INSTANCES))
def test_quotient_sources_match_all_pairs_scan(name):
    C = QUOTIENT_INSTANCES[name]()
    for k in range(1, C.n):
        basis = C.bases[k]
        expected = _sources_by_scan(C, k)
        # the runs are the groups of neighbours with one prefix; a position
        # alone in its group has no sources, and its run is not listed
        groups = [list(g) for _, g in groupby(range(len(basis)), key=lambda i: basis[i][: k - 1])]
        runs = rv.sibling_runs(C, k)
        assert [list(run) for run in runs] == [g for g in groups if len(g) > 1]
        found = dict(level_sources(C, k))
        assert [(i, found.get(i, [])) for i in range(len(basis))] == expected


def test_module_quotients_catch_a_target_across_prefixes():
    C = complex_from_matrix(K4_ROWS)
    k = 2
    i = len(C.bases[k]) - 1
    assert C.bases[k][0][: k - 1] != C.bases[k][i][: k - 1]
    ok, witness, _ = rv.verify_module_quotients(C)
    assert ok, witness
    target = columns(C, k)[0][0][2]
    _change_head(C, k, i, lambda t: (t[0], t[1], target))
    ok, witness, _ = rv.verify_module_quotients(C)
    assert not ok
    assert witness == f"nonzero quotient across different prefixes at level {k}: 1, {i + 1}"


def test_module_quotients_witness_spells_out_exponents():
    # x1 times the head of generator 5 of K4: the cofactor read from the
    # column no longer matches the closed formula, and the witness shows
    # both as exponent vectors
    C = complex_from_matrix(K4_ROWS)
    assert C.ctx.unpack(columns(C, 1)[4][0][1]) == (0, 0, 3, 0)
    _times_head(C, 1, 4, (1, 0, 0, 0))
    assert rv.verify_module_quotients(C) == (
        False,
        "closed formula mismatch at level 1, pair (1,5): "
        "direct (1, (0, 1, 0, 0)), formula (1, (1, 1, 0, 0))",
        {"generators": 6},
    )


def _module_quotients_pair_by_pair(C):
    # the module_quotients check with no run memo: every position's
    # quotients computed from all its sources, position by position
    total, alone = 0, 1 << (C.n - 1)
    for k in range(1, C.n):
        owner = {}
        for i, target in enumerate(C.positions[k][0][2]):
            j = owner.setdefault(target, i)
            if C.bases[k][j][: k - 1] != C.bases[k][i][: k - 1]:
                return False, (
                    f"nonzero quotient across different prefixes at level {k}: {j + 1}, {i + 1}"
                ), {"generators": total}
        for (i, sources), p in zip(_sources_by_scan(C, k), C.bases[k]):
            gens, witness = rv.module_quotients(C, k, i, sources)
            if witness is not None:
                return False, witness, {"generators": total}
            total += len(gens)
            if p[k] == alone and gens:
                return False, (
                    f"expected empty quotient set at level {k}, index {i + 1}"
                ), {"generators": total}
    return True, None, {"generators": total}


def _repeated_run(C):
    # the first run of a level whose key an earlier run of that level had:
    # its level, the first run with the key and itself
    for k in range(1, C.n):
        first_of = {}
        for run in rv.sibling_runs(C, k):
            earlier = first_of.setdefault(run_key(C, k, run), run)
            if earlier is not run:
                return k, earlier, run
    raise AssertionError("no repeated run")


def _pair_in(witness, run):
    # the 0-based positions of the pair a closed-formula witness names,
    # both inside the run
    j, i = map(int, witness.split("pair (")[1].split(")")[0].split(","))
    return j - 1 in run and i - 1 in run


def _reverse_run(C, k, run):
    # the run's partitions and leads stored in the opposite order: every
    # lead stays its own partition's, on the one target, but no later
    # k-th block lies inside an earlier one, so no source is retained
    a, b = run.start, run.stop
    C.bases[k][a:b] = C.bases[k][a:b][::-1]
    sign, leads, targets = C.positions[k][0]
    C.positions[k][0] = (sign, leads[:a] + leads[a:b][::-1] + leads[b:], targets)


@pytest.mark.parametrize("name", ["echelon6", "random6"])
def test_a_lead_changed_in_a_repeated_run_is_not_read_from_the_memo(name):
    # a run whose last blocks an earlier run of its level had, the key
    # memoised, with one lead times x1: the run is computed, and the
    # witness and counter are those of the check without the memo
    C = QUOTIENT_INSTANCES[name]()
    k, earlier, run = _repeated_run(C)
    assert [p[k - 1 :] for p in C.bases[k][run.start : run.stop]] == [
        p[k - 1 :] for p in C.bases[k][earlier.start : earlier.stop]
    ]
    i = run.start + 1
    set_entry(C, k, 0, i, mono=C.positions[k][0][1][i] + C.ctx.variables[0])
    expected = _module_quotients_pair_by_pair(C)
    assert not expected[0] and expected[1].startswith(f"closed formula mismatch at level {k}")
    assert _pair_in(expected[1], run)
    assert rv.verify_module_quotients(C) == expected


@pytest.mark.parametrize("name", ["echelon6", "random6"])
def test_a_repeated_run_on_two_targets_fails_with_no_cofactor(name):
    # the last lead of a repeated run moved to a partition with nothing
    # split from it: the run key is unchanged, no target is shared across
    # prefixes, and the run fails as it does without the memo, on the
    # first pair it splits, whose cofactor is None
    C = QUOTIENT_INSTANCES[name]()
    k, _, run = _repeated_run(C)
    key = run_key(C, k, run)
    targets = C.positions[k][0][2]
    free = min(set(range(len(C.bases[k - 1]))) - set(targets))
    set_entry(C, k, 0, run.stop - 1, target=free)
    assert run_key(C, k, run) == key
    expected = _module_quotients_pair_by_pair(C)
    assert not expected[0] and "direct None" in expected[1]
    assert _pair_in(expected[1], run) and f",{run.stop})" in expected[1]
    assert rv.verify_module_quotients(C) == expected


@pytest.mark.parametrize("which", ["first", "repeated"])
@pytest.mark.parametrize("name", ["echelon6", "random6"])
def test_a_pruned_generator_left_undivided_fails_in_any_run(name, which):
    # a run stored in reverse retains no source, so its first pruned
    # generator is divisible by no retained one; whether the run is the
    # first with its key or one the memo would have read, the check names
    # it with the counter of the check without the memo
    C = QUOTIENT_INSTANCES[name]()
    k, earlier, repeated = _repeated_run(C)
    run = earlier if which == "first" else repeated
    _reverse_run(C, k, run)
    expected = _module_quotients_pair_by_pair(C)
    assert expected[:2] == (
        False,
        f"superfluous generator {run.start + 1} at level {k} not divisible by a "
        f"retained one (target {run.start + 2})",
    )
    assert rv.verify_module_quotients(C) == expected


def _run_met_below(C):
    # the first run of a level whose run key a run of a lower level had:
    # its level and the run.  The cross-level memo reads its quotients
    met = set()
    for k in range(1, C.n):
        runs = rv.sibling_runs(C, k)
        for run in runs:
            if run_key(C, k, run) in met:
                return k, run
        met.update(run_key(C, k, run) for run in runs)
    raise AssertionError("no run met on a lower level")


@pytest.mark.parametrize("name", sorted(QUOTIENT_INSTANCES))
def test_a_flipped_level_sign_fails_as_with_a_memo_per_level(name):
    # the sign of level k's first position flipped, for every k >= 2 in
    # turn: the first run of the level fails on its closed formula, as the
    # check with a memo per level finds, although runs of the level have
    # keys of blocks and leads that a lower level met and passed
    C = QUOTIENT_INSTANCES[name]()
    hits = 0
    for k in range(2, C.n):
        runs = rv.sibling_runs(C, k)
        below = {
            run_key(C, low, run) for low in range(1, k) for run in rv.sibling_runs(C, low)
        }
        hits += any(run_key(C, k, run) in below for run in runs)
        positions = C.positions[k]
        stored = positions[0]
        positions[0] = (-stored[0], *stored[1:])
        expected = verify_module_quotients_by_level(C)
        if runs:
            assert not expected[0] and expected[1].startswith(
                f"closed formula mismatch at level {k}, pair ({runs[0].start + 1},"
            ), (k, expected)
        assert rv.verify_module_quotients(C) == expected, k
        positions[0] = stored
    assert rv.verify_module_quotients(C) == (True, None, verify_module_quotients_by_level(C)[2])
    # no run of n = 4 recurs on a higher level
    assert hits if C.n > 4 else not hits


@pytest.mark.parametrize("name", ["echelon6", "random6"])
def test_a_lead_changed_in_a_run_met_below_is_not_read_from_the_memo(name):
    # a run whose key a lower level met, with one lead times x1: the run is
    # computed, and the witness and counter are those of the check with a
    # memo per level
    C = QUOTIENT_INSTANCES[name]()
    k, run = _run_met_below(C)
    assert k >= 2
    i = run.start + 1
    set_entry(C, k, 0, i, mono=C.positions[k][0][1][i] + C.ctx.variables[0])
    expected = verify_module_quotients_by_level(C)
    assert not expected[0] and expected[1].startswith(f"closed formula mismatch at level {k}")
    assert _pair_in(expected[1], run)
    assert rv.verify_module_quotients(C) == expected


@pytest.mark.parametrize("name", ["echelon6", "random6"])
def test_each_run_key_is_computed_once_for_all_levels(name, monkeypatch):
    # the positions whose quotients are computed are those of the first run
    # of each key over all levels, lowest level first, and there are fewer
    # of them than with a memo per level; the verdict and counter are the
    # same
    C = QUOTIENT_INSTANCES[name]()
    computed = []
    original = rv.module_quotients

    def recording(C, k, i, sources):
        computed.append((k, i))
        return original(C, k, i, sources)

    monkeypatch.setattr(rv, "module_quotients", recording)
    result = rv.verify_module_quotients(C)
    assert result == verify_module_quotients_by_level(C) and result[0]
    firsts, per_level = {}, 0
    for k in range(1, C.n):
        runs = rv.sibling_runs(C, k)
        per_level += sum(len(run) for run in {run_key(C, k, run): run for run in runs}.values())
        for run in runs:
            firsts.setdefault(run_key(C, k, run), (k, run))
    assert computed == [(k, i) for k, run in firsts.values() for i in run]
    assert len(computed) < per_level


def test_tau_identity_worked_examples(generic4_complex):
    C = generic4_complex
    a = C.L.a
    e1 = P([2, 3], [1], [4])
    i, j = tau_pair(C, 1, e1)
    assert (C.bases[1][i], C.bases[1][j]) == (P([2, 3], [1, 4]), P([1, 2, 3], [4]))
    pos1 = C.index[2][e1]
    ok, witness = verify_tau_identity(C, 1, pos1)
    assert ok, witness
    de = column_elem(columns(C, 2)[pos1])
    # -tau leads with +x1^a14
    on_i = {t: c for t, c in de.items() if t[1] == i}
    assert on_i == poly_elem(C.ctx, {(a[0][3], 0, 0, 0): -1}, i)

    e2 = P([3], [2], [1], [4])
    i2, j2 = tau_pair(C, 2, e2)
    assert (C.bases[2][i2], C.bases[2][j2]) == (
        P([3], [2], [1, 4]),
        P([3], [1, 2], [4]),
    )
    pos2 = C.index[3][e2]
    ok, witness = verify_tau_identity(C, 2, pos2)
    assert ok, witness
    de2 = column_elem(columns(C, 3)[pos2])
    # m^2_{4,5} = -x1^a14
    on_i2 = {t: c for t, c in de2.items() if t[1] == i2}
    assert on_i2 == poly_elem(C.ctx, {(a[0][3], 0, 0, 0): 1}, i2)


def _tau_target(k=2, e=P([3], [2], [1], [4])):
    # a fresh generic4 complex to corrupt, the tau element e at level k, its
    # merge partners and its position
    C = cc.build_complex(graph_core.prepare(generic4_matrix()))
    i, j = tau_pair(C, k, e)
    col = C.index[k + 1][e]
    assert verify_tau_identity(C, k, col) == (True, None)
    return C, k, i, j, col


def _caught(C, k, col, witness):
    # the element of col fails with witness, and the whole-list level
    # check names it with the same witness, the elements before it passed
    assert verify_tau_identity(C, k, col) == (False, witness)
    assert rv.verify_tau_level(C, k) == (False, witness, {"elements": col})


def _replace_term(C, level, col, which, change):
    # the first term of the stored column that `which` picks replaced by
    # change(term), which keeps the sign of the term's position
    column = columns(C, level)[col]
    pos = next(n for n, term in enumerate(column) if which(term))
    coeff, mono, idx = change(column[pos])
    assert coeff == column[pos][0], "a term takes the sign of its position"
    set_entry(C, level, pos, col, mono, idx)


def _change_head(C, level, col, change):
    # the stored column with change(term) in place of its first term
    _replace_term(C, level, col, lambda term: True, change)


def _times_head(C, level, col, exps):
    _change_head(C, level, col, lambda t: (t[0], t[1] + C.ctx.pack(exps), t[2]))


def test_tau_identity_catches_a_wrong_m_coefficient():
    # the head of f_j times x1 gives the S-pair a cofactor that the closed
    # formula does not predict
    C, k, i, j, col = _tau_target()
    _times_head(C, k, j, (1, 0, 0, 0))
    _caught(C, k, col, "m-coefficients differ at (3,2,1,4)")


def test_tau_identity_catches_a_wrong_leading_component():
    # the term on partner i times x1
    C, k, i, j, col = _tau_target()
    x1 = C.ctx.variables[0]
    _replace_term(C, k + 1, col, lambda t: t[2] == i, lambda t: (t[0], t[1] + x1, t[2]))
    _caught(C, k, col, "leading component mismatch at (3,2,1,4)")


def test_tau_identity_catches_a_wrong_second_component():
    # the term on partner j times x1
    C, k, i, j, col = _tau_target()
    x1 = C.ctx.variables[0]
    _replace_term(C, k + 1, col, lambda t: t[2] == j, lambda t: (t[0], t[1] + x1, t[2]))
    _caught(C, k, col, "second component mismatch at (3,2,1,4)")


def test_tau_identity_catches_a_tail_term_above_the_s_vector():
    # a tail term raised by x1^10 lies above every term of S
    C, k, i, j, col = _tau_target()
    assert [t for t in columns(C, k + 1)[col] if t[2] not in (i, j)]
    _replace_term(
        C, k + 1, col, lambda t: t[2] not in (i, j),
        lambda t: (t[0], t[1] + C.ctx.pack((10, 0, 0, 0)), t[2]),
    )
    _caught(C, k, col, "standard-expression bound fails at (3,2,1,4)")


def test_tau_identity_catches_a_lowered_first_tail_term():
    # x3^8 * e_1 lowered to x3^7 * e_1 keeps every tail term below Lt(S), so
    # the all-terms bound holds, but the tail no longer leads at Lt(S)
    C, k, i, j, col = _tau_target()
    _, mono, idx = columns(C, k + 1)[col][2]
    assert (C.ctx.unpack(mono), idx) == ((0, 0, 8, 0), 0)
    x3 = C.ctx.pack((0, 0, 1, 0))
    _replace_term(C, k + 1, col, lambda t: t[2] == idx, lambda t: (t[0], t[1] - x3, t[2]))
    m_ji, m_ij = s_cofactor(C.tower, k - 1, i, j), s_cofactor(C.tower, k - 1, j, i)
    s_key = s_leading_key(C.tower, k - 1, i, j, m_ji, m_ij)
    tail = [(mono, idx) for _, mono, idx in columns(C, k + 1)[col][2:]]
    assert below_leading_term(C.tower, k - 1, s_key, tail)
    _caught(C, k, col, "standard-expression bound fails at (3,2,1,4)")


def test_tau_identity_leaves_a_cancelled_tail_to_d_squared():
    # every column of a level has one term per position, so no column is
    # cut to its merge partners; the nearest fault is a tail that sums to
    # zero: its last term, at a position of the opposite sign, repeats its
    # first.  The first tail term still maps to Lt(S), so the tau check
    # passes, and d_squared, which proves tail = S, names the column
    C, k, i, j, col = _tau_target()
    (_, _, first, last) = C.positions[k + 1]
    assert first[0] == -last[0] == 1
    set_entry(C, k + 1, 3, col, first[1][col], first[2][col])
    assert verify_tau_identity(C, k, col) == (True, None)
    assert rv.verify_tau_level(C, k) == (True, None, {"elements": len(C.bases[k + 1])})
    assert cc.check_d_squared(C) == (
        False, f"composition nonzero on column {col + 1} in degree {k + 1}", {}
    )


def test_tau_identity_catches_a_tail_term_moved_onto_the_leading_partner():
    C, k, i, j, col = _tau_target()
    _replace_term(C, k + 1, col, lambda t: t[2] not in (i, j), lambda t: (t[0], t[1], i))
    _caught(C, k, col, "leading component mismatch at (3,2,1,4)")


def test_tau_identities_count_the_elements_before_a_level3_witness():
    # a fault at level 3 stops the check there: it counts every element of
    # level 2, which passed, and those of level 3 before the witness
    C, k, i, j, col = _tau_target(e=P([2], [1], [3], [4]))
    assert (k + 1, col, len(C.bases[2])) == (3, 3, 12)
    x1 = C.ctx.variables[0]
    _replace_term(C, k + 1, col, lambda t: t[2] == j, lambda t: (t[0], t[1] + x1, t[2]))
    assert rv.verify_tau_identities(C) == (
        False, "second component mismatch at (2,1,3,4)", {"elements": 12 + 3}
    )


def test_degree0_gb_catches_a_lowered_closed_form_lead():
    # the generator of {3}, x3^3 - x1*x2*x4, stored with x1*x2*x4 first:
    # for C = {1,2,3}, D = {1,2} the closed-form term on it then leads
    # below Lt(S), which the all-terms bound allows.  The check returns on
    # the lead equality before it divides
    C = complex_from_matrix(K4_ROWS)
    assert [C.ctx.unpack(m) for _, m, _ in columns(C, 1)[4]] == [(0, 0, 3, 0), (1, 1, 0, 1)]
    _smaller_monomial_first(C, 4)
    assert column_elem(columns(C, 1)[4]) == column_elem(
        columns(complex_from_matrix(K4_ROWS), 1)[4]
    )
    ci, cj = C.bases[1][0][0], C.bases[1][3][0]
    assert (ci, cj) == P([1, 2, 3], [1, 2])
    m_ji, m_ij = s_cofactor(C.tower, 0, 0, 3), s_cofactor(C.tower, 0, 3, 0)
    _, l_cd, _, _ = rv.s_poly_closed_form(ci, cj, C)
    s_key = s_leading_key(C.tower, 0, 0, 3, m_ji, m_ij)
    assert below_leading_term(C.tower, 0, s_key, [(l_cd, 4)])
    assert rv.verify_degree0_gb(C) == (
        False, "leading bound fails for C, D = (123,12)", {"pairs": 2}
    )


DEGREE0_CASES = {
    **{name: lambda name=name: bundled_complex(name) for name in RESOLVABLE},
    "r5s0": lambda: cc.build_complex(graph_core.prepare(graph_core.laplacian(
        random_icb_digraph(5, random.Random(0))))),
}


def _degree0_faults(C):
    # each fault in turn put into column j of level 1, for every j, yielding
    # (j, its name) while it is in, and undone after: the lead or the tail
    # (the second monomial) times x1, and the target of either moved to the
    # next basis element, one past level 0's only one
    level, x1 = C.positions[1], C.ctx.variables[0]
    for j in range(len(C.bases[1])):
        for name, t, change in (
            ("lead times x1", 0, {"mono": level[0][1][j] + x1}),
            ("tail times x1", 1, {"mono": level[1][1][j] + x1}),
            ("lead target moved", 0, {"target": level[0][2][j] + 1}),
            ("tail target moved", 1, {"target": level[1][2][j] + 1}),
        ):
            stored = level[t]
            set_entry(C, 1, t, j, **change)
            yield j, name
            level[t] = stored


@pytest.mark.parametrize("name", sorted(DEGREE0_CASES))
def test_degree0_gb_names_the_witness_of_the_per_pair_walk(name):
    # every fault of _degree0_faults at every level-1 column: the check,
    # which looks each closed-form piece up once, names the witness and
    # counter of the per-pair reference, which looks each up twice.  Where
    # the reference raises out of divide, the check fails that pair
    C = DEGREE0_CASES[name]()
    assert rv.verify_degree0_gb(C) == verify_degree0_gb_by_pair(C)
    outcomes = Counter()
    for j, fault in _degree0_faults(C):
        got = rv.verify_degree0_gb(C)
        try:
            expected = verify_degree0_gb_by_pair(C)
        except InternalError as err:
            assert not got[0] and got[1].startswith(f"{err}, for C, D = ("), (j, fault, got)
            outcomes[fault, "raised"] += 1
            continue
        assert got == expected, (j, fault)
        outcomes[fault, expected[0]] += 1
    assert rv.verify_degree0_gb(C) == verify_degree0_gb_by_pair(C)
    # every fault fails
    assert {ok for _, ok in outcomes} <= {False, "raised"}


@pytest.mark.parametrize("name, column", [
    ("cycle4", 5), ("weighted4", 4), ("weighted4", 6), ("r5s0", 6), ("r5s0", 12),
])
def test_a_division_that_does_not_descend_fails_degree0_in_the_report(name, column):
    # the tail of a level-1 binomial times x1 lies above its lead, so a
    # division by it does not descend: the per-pair reference raises out of
    # divide, and full_verify gives its report of every check, in which
    # degree0_groebner fails on the pair it was dividing
    C = DEGREE0_CASES[name]()
    j = column - 1
    set_entry(C, 1, 1, j, mono=C.positions[1][1][1][j] + C.ctx.variables[0])
    with pytest.raises(InternalError, match=f"does not descend: image {column} "):
        verify_degree0_gb_by_pair(C)
    report = rv.full_verify(C)
    assert len(report.checks) == 10 and not report.passed
    [check] = [c for c in report.checks if c.name == "degree0_groebner"]
    assert not check.ok
    assert check.witness.startswith(
        f"division at level 0 does not descend: image {column} left a leading term "
        "at or above the one it reduced, for C, D = ("
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
    levels = [None] + [columns(C, k) for k in range(1, C.n)]

    def walked_lead(level, i, j):
        s = s_vector(tower, level, i, j)
        m_ji, m_ij = s_cofactor(tower, level, i, j), s_cofactor(tower, level, j, i)
        walked = s_leading_key(tower, level, i, j, m_ji, m_ij)
        if s:
            _, mono, idx = leading_module_term(tower, s, level)
            assert walked == key(tower, level, mono, idx), (level, i, j)
        else:
            assert walked is None, (level, i, j)
        return walked

    def image_key(level, mono, j):
        _, lm, idx = levels[level + 1][j][0]
        return key(tower, level, mono + lm, idx)

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
            _, l_cd, l_dc, heads = rv.s_poly_closed_form(ci, cj, C)
            terms = [
                (mono, C.index[1][piece, full ^ piece])
                for mono, piece in ((l_cd, ci & ~cj), (l_dc, cj & ~ci)) if piece
            ]
            assert below_leading_term(tower, 0, walked, terms), (i, j)
            assert max(image_key(0, *t) for t in terms) == walked, (i, j)
            assert max(key(tower, 0, *head) for head in heads) == walked, (i, j)
    assert zero == r1
    for k in range(1, C.n - 1):
        for e in C.bases[k + 1]:
            i, j = tau_pair(C, k, e)
            walked = walked_lead(k - 1, i, j)
            de = levels[k + 1][C.index[k + 1][e]]
            tail = [(mono, idx) for _, mono, idx in de if idx not in (i, j)]
            assert below_leading_term(tower, k - 1, walked, tail), e
            assert de[1][2] == j, e
            assert tail and image_key(k - 1, *tail[0]) == walked, e


def test_tau_identities_all(k4_complex, generic4_complex, cycle4_complex):
    for C in (k4_complex, generic4_complex, cycle4_complex):
        ok, witness, counters = rv.verify_tau_identities(C)
        assert ok, witness
        assert counters["elements"] == sum(len(b) for b in C.bases[2:])


def _tau_faults(C, k, pos):
    # each fault in turn put into column pos of level k + 1, yielding its
    # name while it is in, and undone after: the lead or the second
    # monomial times x1, a target moved to the next basis element (named
    # apart at positions 0 and 1, the merge partners), the leading partner
    # i repeated at a later position, and a tail monomial times x1.  The
    # later position runs over the tail as pos does, and the moved target
    # over every position
    level = C.positions[k + 1]
    x1 = C.ctx.variables[0]
    i, _ = tau_pair(C, k, C.bases[k + 1][pos])
    moved, later = pos % len(level), 2 + pos % (len(level) - 2)
    for name, t, seq, value in (
        ("lead times x1", 0, 1, level[0][1][pos] + x1),
        ("second times x1", 1, 1, level[1][1][pos] + x1),
        ("partner target moved" if moved < 2 else "target moved", moved, 2,
         (level[moved][2][pos] + 1) % len(C.bases[k])),
        ("i repeated", later, 2, i),
        ("tail times x1", later, 1, level[later][1][pos] + x1),
    ):
        entries = level[t][seq]
        entries[pos], stored = value, entries[pos]
        yield name
        entries[pos] = stored


@pytest.mark.parametrize(
    "case", VERIFIABLE + [(n, seed) for n in range(3, 7) for seed in range(10)], ids=str
)
def test_tau_level_names_the_first_failing_element(case):
    # every fault of _tau_faults at every element of every level, the last
    # element of the last level included: the whole-list level check names
    # the witness and the count of the first element verify_tau_identity
    # fails, or passes with them all.  A fault in column pos of level k + 1
    # changes nothing another element reads (each reads its own column and
    # level k), and on the built complex every element passes, so that
    # first element is pos when it fails and none fails otherwise
    if isinstance(case, str):
        C = bundled_complex(case)
    else:
        C = cc.build_complex(graph_core.prepare(graph_core.laplacian(
            random_icb_digraph(case[0], random.Random(case[1])))))
    faults = Counter()
    for k in range(1, C.n - 1):
        # private lists: the build shares target lists between positions
        C.positions[k + 1][:] = [(s, list(m), list(t)) for s, m, t in C.positions[k + 1]]
        width = len(C.bases[k + 1])
        assert rv.verify_tau_level(C, k) == (True, None, {"elements": width})
        for pos in range(width):
            for name in _tau_faults(C, k, pos):
                ok, witness = verify_tau_identity(C, k, pos)
                expected = (True, None, {"elements": width}) if ok else (
                    False, witness, {"elements": pos}
                )
                assert rv.verify_tau_level(C, k) == expected, (k, pos, name)
                faults[name, ok] += 1
        assert rv.verify_tau_level(C, k) == (True, None, {"elements": width})
    assert (k, pos) == (C.n - 2, len(C.bases[C.n - 1]) - 1)
    # every fault but a later tail term or target is caught everywhere; a
    # lead's target moved off I is this check's to catch, since
    # schreyer_coverage reads no lead
    caught = ("lead times x1", "second times x1", "partner target moved")
    assert not any(ok for (name, ok) in faults if name in caught)
    assert faults["partner target moved", False] > 0
    assert faults["i repeated", True] == 0


def _tau_level_reference(C, k):
    # verify_tau_identity at every element of level k + 1 in turn, stopping
    # at the first that fails, with the elements before it counted
    for pos in range(len(C.bases[k + 1])):
        ok, witness = verify_tau_identity(C, k, pos)
        if not ok:
            return False, witness, {"elements": pos}
    return True, None, {"elements": len(C.bases[k + 1])}


@pytest.mark.parametrize(
    "case", VERIFIABLE + [(n, seed) for n in range(3, 7) for seed in range(10)], ids=str
)
def test_tau_level_names_the_first_sign_fault(case):
    # the sign of level k's first position, and of level k + 1's positions
    # 0 and 1, flipped in turn: each fails every element, so the first
    # element is the witness, as the reference names it.  Position 2's
    # sign is d_squared's to check (tail = S), so its flip passes here
    if isinstance(case, str):
        C = bundled_complex(case)
    else:
        C = cc.build_complex(graph_core.prepare(graph_core.laplacian(
            random_icb_digraph(case[0], random.Random(case[1])))))
    for k in range(1, C.n - 1):
        e = rv.partition_str(C.bases[k + 1][0])
        for level, t, witness in (
            (k, 0, f"m-coefficients differ at {e}"),
            (k + 1, 0, f"leading component mismatch at {e}"),
            (k + 1, 1, f"second component mismatch at {e}"),
            (k + 1, 2, None),
        ):
            positions = C.positions[level]
            stored = positions[t]
            positions[t] = (-stored[0], *stored[1:])
            expected = _tau_level_reference(C, k)
            if witness is None:
                assert expected == (True, None, {"elements": len(C.bases[k + 1])})
            else:
                assert expected == (False, witness, {"elements": 0}), (k, level, t)
            assert rv.verify_tau_level(C, k) == expected, (k, level, t)
            positions[t] = stored


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


@pytest.mark.parametrize("collide, off", [(3, 7), (7, 3)])
def test_schreyer_coverage_names_the_earlier_of_a_collision_and_an_image_off_the_basis(
    collide, off, monkeypatch
):
    # every retained pair keeps its own image but two: pair `collide` is
    # sent onto the image of the first pair, and pair `off` off the basis
    # above.  Whichever comes first is the witness, with the pairs before
    # it counted, as in the walk of one pair at a time
    C = complex_from_matrix(K4_ROWS)
    k, rho = 1, rv.rho_image
    retained = [(i, j) for i, sources in _sources_by_scan(C, k) for j, kept in sources if kept]
    images = {pair: rho(C, k, *pair) for pair in retained}
    images[retained[collide]] = images[retained[0]]
    images[retained[off]] = C.bases[k][0]
    monkeypatch.setattr(rv, "rho_image", lambda C, k, i, j: images[i, j])
    h = rv.partition_str(images[retained[min(collide, off)]])
    witness = f"rho images collide on {h}" if collide < off else f"rho image {h} not a basis element"
    expected = (False, witness, {"generators": min(collide, off)})
    assert _schreyer_coverage_pair_by_pair(C, k) == expected
    assert rv.verify_schreyer_coverage(C, k) == expected


def test_schreyer_coverage_leaves_the_lead_to_the_tau_check():
    # the lead of a rho image is the τ check's to compare: coverage reads
    # only where the images fall, and passes with its full count, while
    # the τ level above names the element.  A lead with its sign flipped
    # has the same absolute value and is still refused; the sign is its
    # position's, shared by every column of the level, so the first
    # element is named.  A lead monomial times x1 is refused on its own
    # column, however late it stands
    for k, flip, j, h, count in ((1, True, 0, "(23,1,4)", 12),
                                 (2, True, 0, "(3,2,1,4)", 6),
                                 (1, False, 0, "(23,1,4)", 12),
                                 (1, False, 11, "(1,2,34)", 12),
                                 (2, False, 5, "(1,2,3,4)", 6)):
        C = complex_from_matrix(K4_ROWS)
        assert rv.partition_str(C.bases[k + 1][j]) == h
        sign, monos, targets = C.positions[k + 1][0]
        if flip:
            C.positions[k + 1][0] = (-sign, monos, targets)
        else:
            set_entry(C, k + 1, 0, j, mono=monos[j] + C.ctx.variables[0])
        assert rv.verify_schreyer_coverage(C, k) == (True, None, {"generators": count})
        assert rv.verify_tau_level(C, k) == (
            False, f"leading component mismatch at {h}", {"elements": j}
        )


def test_every_retained_pair_is_the_tau_pair_of_its_rho_image():
    # p = bases[k][i] and q = bases[k][j] share their first k - 1 blocks
    # and p's k-th block lies inside q's, so rho(i, j) merges back to p at
    # its last two blocks and to q at the two before: coverage's bijection
    # hands every image's lead to the τ comparison of the pair (i, j)
    pairs = 0
    for C in swept_complexes():
        for k in range(1, C.n - 1):
            for run in rv.sibling_runs(C, k):
                for i, sources in rv.quotient_sources(C, k, run):
                    for j in (j for j, retained in sources if retained):
                        assert tau_pair(C, k, rv.rho_image(C, k, i, j)) == (i, j)
                        pairs += 1
    assert pairs == 32658


def _schreyer_coverage_pair_by_pair(C, k):
    # the coverage check with no memo of retained offsets: every retained
    # pair of every run, one at a time, in order
    above, index = (C.bases[k + 1], C.index[k + 1]) if k + 1 < C.n else ([], {})
    seen, total = set(), 0
    for i, sources in _sources_by_scan(C, k):
        for j in (j for j, retained in sources if retained):
            h = rv.rho_image(C, k, i, j)
            hi = index.get(h)
            if hi is None:
                return False, f"rho image {rv.partition_str(h)} not a basis element", {
                    "generators": total
                }
            if hi in seen:
                return False, f"rho images collide on {rv.partition_str(h)}", {"generators": total}
            seen.add(hi)
            total += 1
    if total != len(above):
        return False, f"generator count {total} != rank {len(above)}", {"generators": total}
    return True, None, {"generators": total}


@pytest.mark.parametrize("which", ["first", "repeated"])
@pytest.mark.parametrize("name", ["echelon6", "random6"])
def test_schreyer_coverage_takes_each_runs_own_retained_pairs(name, which):
    # a run stored in reverse retains no source, though a run of the same
    # length and shape retains some: the check reads the run's own blocks,
    # and fails as it does pair by pair
    C = QUOTIENT_INSTANCES[name]()
    k, earlier, repeated = _repeated_run(C)
    assert all(
        rv.verify_schreyer_coverage(C, level) == _schreyer_coverage_pair_by_pair(C, level)
        for level in range(1, C.n)
    )
    _reverse_run(C, k, earlier if which == "first" else repeated)
    expected = _schreyer_coverage_pair_by_pair(C, k)
    assert not expected[0]
    assert rv.verify_schreyer_coverage(C, k) == expected


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


def first_equal_pair(holder, k):
    """The lowest column of level k equal to an earlier one, and that one,
    found by a dict of whole columns; None when the columns are distinct."""
    seen = {}
    for j, f in enumerate(columns(holder, k)):
        if f in seen:
            return seen[f], j
        seen[f] = j
    return None


def test_distinct_images_name_the_first_equal_pair(monkeypatch):
    # equal columns injected into a copy of one level: the witness is the
    # lowest column equal to an earlier one, with that one.  With every
    # hash equal, each column is compared exactly with every earlier one,
    # and the verdicts and witnesses are the same
    complexes = [bundled_complex(name) for name in RESOLVABLE]
    for constant in (False, True):
        if constant:
            monkeypatch.setattr(rv, "hash", lambda f: 0, raising=False)
        for C in complexes:
            assert rv.verify_distinct_images(C) == (True, None, {})
            for k in range(1, C.n):
                w = len(C.bases[k])
                if w < 4:
                    continue
                for pairs, witness in (
                    ([(0, w - 1)], (0, w - 1)),
                    ([(w - 2, w - 1)], (w - 2, w - 1)),
                    ([(1, w - 1), (0, 2)], (0, 2)),
                    ([(0, 2), (0, 3)], (0, 2)),
                    ([(2, 3), (1, 2)], (1, 2)),
                ):
                    positions = [
                        [(sign, list(monos), list(targets)) for sign, monos, targets in level]
                        for level in C.positions[1:]
                    ]
                    D = SimpleNamespace(n=C.n, positions=[None, *positions])
                    for _, monos, targets in D.positions[k]:
                        for i, j in pairs:
                            monos[j], targets[j] = monos[i], targets[i]
                    assert first_equal_pair(D, k) == witness
                    assert rv.verify_distinct_images(D) == (
                        False, f"equal images at level {k}: {witness[0] + 1}, {witness[1] + 1}", {}
                    ), (C.ctx.nu, k, pairs)


def test_minimal_gb_divisibility(k4_complex, cycle4_complex):
    k4_leads = [f[0][1] for f in columns(k4_complex, 1)]
    assert not any(
        k4_complex.ctx.divides(a, b)
        for i, a in enumerate(k4_leads)
        for j, b in enumerate(k4_leads)
        if i != j
    )
    cyc_leads = [f[0][1] for f in columns(cycle4_complex, 1)]
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

    def vectors(nu, d):
        # every exponent vector of weighted degree d, one variable at a time
        if not nu:
            return [()] if d == 0 else []
        v, rest = nu[0], nu[1:]
        return [(e, *tail) for e in range(d // v + 1) for tail in vectors(rest, d - e * v)]

    # seeded weights 1..7 on 2..5 variables, every degree to 25: the packed
    # exponent vectors of that degree, sorted lexicographically
    rng = random.Random(40)
    for n in range(2, 6):
        for _ in range(4):
            nu = tuple(rng.randint(1, 7) for _ in range(n))
            ctx = GradedContext.holding(nu, 25)
            for d in range(26):
                want = [ctx.pack(e) for e in sorted(vectors(nu, d))]
                assert rv.monomials_of_degree(ctx, d) == want, (nu, d)


def test_oracle_refuses_a_degree_past_the_packing_before_any_piece(monkeypatch):
    # only pieces need the packing: the identity proves the unit 3-cycle
    # past its 4-bit fields, and on a scrambled tower, where the count
    # falls short from degree 2, elimination is refused before any piece
    C = complex_from_matrix(CYCLE3)
    assert (C.ctx.width, C.ctx.cap) == (4, 7)
    assert rv.graded_homology_oracle(C, 7) == (True, None, {"degrees": 8})

    def refuse(*args):
        raise AssertionError("a graded piece was built")

    for name in ("monomials_of_degree", "graded_piece_rank", "rank_sparse"):
        monkeypatch.setattr(rv, name, refuse)
    assert rv.graded_homology_oracle(C, 40) == (True, None, {"degrees": 41})
    scrambled_tower(C, 0)
    with pytest.raises(InternalError, match="degree 8 does not fit 4-bit fields"):
        rv.graded_homology_oracle(C, 8)


def test_oracle_refuses_the_first_degree_whose_widest_power_overflows(monkeypatch):
    # a weighted 3-cycle, nu = (3, 6, 2), in 6-bit fields (exponents to 31):
    # degree 63 holds x3^31 and degree 64 needs x3^32.  On a scrambled tower
    # the count falls short, so 63 is eliminated piece by piece through its
    # last degree, and 64 is refused before any piece
    C = complex_from_matrix([[1, -1, 0], [0, 2, -2], [-3, 0, 3]])
    assert (C.ctx.nu, C.ctx.width) == ((3, 6, 2), 6)
    scrambled_tower(C, 0)
    ranked = []
    graded_piece_rank = rv.graded_piece_rank

    def recording(C, k, d, mono_cache):
        ranked.append(d)
        return graded_piece_rank(C, k, d, mono_cache)

    monkeypatch.setattr(rv, "graded_piece_rank", recording)
    assert rv.graded_homology_oracle(C, 63) == (True, None, {"degrees": 64})
    assert max(ranked) == 63
    del ranked[:]
    with pytest.raises(InternalError, match="^degree 64 does not fit 6-bit fields$"):
        rv.graded_homology_oracle(C, 64)
    assert ranked == []


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
    # tower too (conftest.scrambled_tower)
    for scramble in (False, True):
        C = complex_from_matrix(K4_ROWS)
        if scramble:
            scrambled_tower(C, 2)
        C.positions[3][:] = [
            (sign, monos[:5], targets[:5]) for sign, monos, targets in C.positions[3]
        ]
        C.bases[3] = C.bases[3][:5]
        C.shifts[3] = C.shifts[3][:5]
        ok, witness, _ = rv.graded_homology_oracle(C, 6)
        assert not ok
        assert witness.startswith("homology at position")


def oracle_pieces(monkeypatch):
    """Record the (level, degree) of every graded_piece_rank call and the
    row count of every rank_sparse call the oracle makes."""
    pieces, ranks = [], []
    graded_piece_rank, rank_sparse = rv.graded_piece_rank, rv.rank_sparse

    def recording_piece(C, k, d, mono_cache):
        pieces.append((k, d))
        return graded_piece_rank(C, k, d, mono_cache)

    def recording_rank(rows):
        ranks.append(len(rows))
        return rank_sparse(rows)

    monkeypatch.setattr(rv, "graded_piece_rank", recording_piece)
    monkeypatch.setattr(rv, "rank_sparse", recording_rank)
    return pieces, ranks


def k5_complex(d_max):
    g = graph_core.digraph_from_matrix([[4 if i == j else -1 for j in range(5)] for i in range(5)])
    return cc.build_complex(graph_core.prepare(graph_core.laplacian(g)), d_max)


@pytest.mark.parametrize("name", VERIFIABLE + ["k5"])
def test_identity_builds_no_piece(name, monkeypatch):
    # on the towers as built the leads count every rank in every degree:
    # with no bound the identity is checked whole, up to the top shift
    # (echelon6 7, weighted4 36), where brute-force lead counts agree; and
    # on K5 to degree 13 (oracle-k5).  No piece is built or ranked
    C = k5_complex(13) if name == "k5" else bundled_complex(name)
    top = max(max(level) for level in C.shifts)
    pieces, ranks = oracle_pieces(monkeypatch)
    assert rv.graded_homology_oracle(C, None) == (True, None, {"degrees": top + 1})
    assert lead_ideal_reference.short_degree(C, top) is None
    report = rv.full_verify(C)
    assert report.passed, report.to_text()
    assert report.checks[-1].counters == {"degrees": top + 1}
    if name == "k5":
        assert rv.graded_homology_oracle(C, 13) == (True, None, {"degrees": 14})
    assert pieces == ranks == []


def lead_count_instances():
    for name in VERIFIABLE:
        yield pytest.param(name, id=name)
    for n in (4, 5):
        for seed in range(3):
            yield pytest.param((n, seed), id=f"random{n}.{seed}")


# the random instances' identities reach degrees 65 to 291; brute force
# counts their leads to this degree (at degree 177, random5.1 takes 19 s)
RANDOM_LEAD_COUNT_DEGREE = 60


@pytest.mark.parametrize("which", list(lead_count_instances()))
def test_lead_counts_match_the_k_polynomial_sums(which):
    # sum_p t^s_p K_p over level k, divided by prod (1 - t^nu_i), is the
    # Hilbert series of F_k / N_(k+1): in every degree it is
    # dim F_(k,d) - L_(k+1,d), the brute-force count of distinct leads,
    # checked through the identity's top degree on the bundled instances.
    # Cut at a bound, the series is the complete one cut there
    if isinstance(which, str):
        C = bundled_complex(which)
    else:
        n, seed = which
        g = random_icb_digraph(n, random.Random(1000 * n + seed))
        C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    ok, _, counters = rv.graded_homology_oracle(C, None)
    top = counters["degrees"] - 1
    assert ok and top == max(max(level) for level in C.shifts)
    if not isinstance(which, str):
        top = min(top, RANDOM_LEAD_COUNT_DEGREE)
    counts = rv.count_monomials(C.ctx.nu, top)
    memo = {}
    for k in range(C.n):
        series = rv.quotient_series(C, k, None, memo)
        for d in range(top + 1):
            above = lead_ideal_reference.lead_count(C, k + 1, d) if k + 1 < C.n else 0
            quotient = sum(series.get(e, 0) * counts[d - e] for e in range(d + 1))
            assert quotient == lead_ideal_reference.free_rank(C, k, d) - above, (k, d)
        cut = rv.quotient_series(C, k, top // 2, {})
        assert cut == {d: c for d, c in series.items() if d <= top // 2}
    assert lead_ideal_reference.short_degree(C, top) is None


def test_k_polynomial_counts_standard_monomials():
    # K(S/J) is the count of monomials outside J, degree by degree, times
    # prod (1 - t^nu_i): checked on the unit ideal (K = 0, whatever else
    # generates it), the zero ideal (K = 1) and random weighted ideals,
    # against the brute-force count and the dense reference.  No zero
    # coefficient is stored, and none lies above the lowest degree of a
    # common multiple of the generators (Taylor's resolution of J ends
    # there), so the complete K needs no cut
    ctx = GradedContext(3, (1, 2, 3), 6)
    x1, x2, x3 = ctx.variables
    assert rv.k_polynomial(ctx, (0,), {}) == {}
    assert rv.k_polynomial(ctx, rv.minimal_generators(ctx, [x1, 0, x2 + x3]), {}) == {}
    assert rv.k_polynomial(ctx, (), {}) == {0: 1}
    assert rv.k_polynomial(ctx, (x1,), {}) == {0: 1, 1: -1}
    # (x1^2, x1*x2): 1 - t^2 - t^3 + t^4
    assert rv.k_polynomial(ctx, (2 * x1, x1 + x2), {}) == {0: 1, 2: -1, 3: -1, 4: 1}
    rng = random.Random(8)
    # past every lcm of the ideals drawn, at most x1^3 x2^3 x3^3 (degree 18)
    top = 24
    below = [rv.monomials_of_degree(ctx, d) for d in range(top + 1)]
    memo, reference_memo = {}, {}
    for _ in range(60):
        gens = [
            ctx.pack([rng.randrange(4) for _ in range(3)]) for _ in range(rng.randrange(1, 6))
        ]
        minimal = rv.minimal_generators(ctx, gens)
        assert all(any(ctx.divides(m, g) for m in minimal) for g in gens)
        assert not any(ctx.divides(a, b) for a in minimal for b in minimal if a != b)
        outside = [
            sum(1 for m in monos if not any(ctx.divides(g, m) for g in gens)) for monos in below
        ]
        # K = (outside series) * prod (1 - t^nu_i), cut at top
        k_poly = outside[:]
        for v in ctx.nu:
            for d in range(top, v - 1, -1):
                k_poly[d] -= k_poly[d - v]
        assert lead_ideal_reference.k_polynomial(ctx, minimal, top, reference_memo) == k_poly
        sparse = rv.k_polynomial(ctx, minimal, memo)
        assert 0 not in sparse.values(), gens
        assert sparse == {d: c for d, c in enumerate(k_poly) if c}, gens
        # the lowest degree of a monomial every generator divides
        lcm = min(
            d for d, monos in enumerate(below)
            if any(all(ctx.divides(g, m) for g in minimal) for m in monos)
        )
        assert max(sparse, default=0) <= lcm, gens


@pytest.mark.parametrize("which", ["echelon6", (6, 1)], ids=["echelon6", "random6.1"])
def test_a_shared_memo_is_read_not_grown_on_a_second_pass(which):
    # the memo holds one K-polynomial per generator set: a second pass over
    # every level with the same memo computes none, and every series is the
    # one the first pass gave
    if isinstance(which, str):
        C = bundled_complex(which)
    else:
        n, seed = which
        g = random_icb_digraph(n, random.Random(1000 * n + seed))
        C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    memo = {}
    first = [rv.quotient_series(C, k, None, memo) for k in range(C.n)]
    size = len(memo)
    assert size > 1
    assert [rv.quotient_series(C, k, None, memo) for k in range(C.n)] == first
    assert len(memo) == size


@pytest.mark.parametrize("name, d_max, short", [("k5", 13, 8), ("echelon6", 5, 3)])
def test_tie_break_by_monomial_sends_the_count_to_elimination(name, d_max, short, monkeypatch):
    # leads taken with ties of beta + w_p broken by the monomial, not the
    # position, are still a sound count, but not the Schreyer order the
    # columns were built in: it falls short, and elimination gives the
    # verdict the identity gives
    C = k5_complex(d_max) if name == "k5" else bundled_complex(name)
    monkeypatch.setattr(rv, "lead_ideals", lead_ideal_reference.monomial_tie_break_ideals)
    pieces, _ = oracle_pieces(monkeypatch)
    assert rv.graded_homology_oracle(C, d_max) == (True, None, {"degrees": d_max + 1})
    assert min(d for _, d in pieces) == short
    assert lead_ideal_reference.short_degree(C, d_max, "monomial") == short


def test_a_lead_that_is_not_a_unit_goes_to_elimination(monkeypatch):
    # doubling one top-level column of K4 keeps d∘d = 0 and the ranks over
    # Q, but its lead, 2 times a monomial, proves nothing over a field of
    # characteristic 2: it is not counted, the identity falls short at the
    # column's degree 6, and elimination from there passes as it does over Q
    C = k4_doubled()
    assert rv.check_d_squared(C) == (True, None, {})
    assert C.shifts[C.n - 1][0] == 6
    pieces, ranks = oracle_pieces(monkeypatch)
    assert rv.graded_homology_oracle(C, 8) == (True, None, {"degrees": 9})
    assert min(d for _, d in pieces) == 6 and len(pieces) == 9 and len(ranks) == 9


def test_hilbert_tail_k4(k4_complex):
    # frozen via the monomial-counting oracle: 16 standard monomials per
    # degree once the degree passes the generator range
    lt = [f[0][1] for f in columns(k4_complex, 1)]
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


def test_every_strongly_connected_shape_on_four_vertices(monkeypatch):
    # all 83 shapes (1,606 labelled digraphs; OEIS A035512, A003030), with
    # unit weights and with one seeded weighting each; the lead identity
    # proves every degree of each, so no oracle piece is built
    def refuse(*args):
        raise AssertionError("an oracle piece was built")

    monkeypatch.setattr(rv, "graded_piece_rank", refuse)
    labelled, shapes = graph_reference.strongly_connected_shapes(4)
    assert (labelled, len(shapes)) == (1606, 83)
    complete_arcs = tuple((s, t) for s in range(1, 5) for t in range(1, 5) if s != t)
    rng = random.Random(4)
    minimal = []
    for arcs in shapes:
        complete = arcs == complete_arcs
        for weights in ([1] * len(arcs), [rng.randint(1, 3) for _ in arcs]):
            g = graph_core.validate_digraph(4, [(s, t, w) for (s, t), w in zip(arcs, weights)])
            L = graph_core.laplacian(g)
            # every shape is strongly connected by the reachability closure
            assert graph_core.classify(L) == ("PCB" if complete else "ICB")
            for omega in range(1, 5):
                M = graph_core.prepare(L, omega)
                assert graph_reference.block_echelon_structure(M)[1] == M.echelon
            # M is now the form at omega = n
            C = cc.build_complex(M)
            report = rv.full_verify(C)
            assert report.passed and len(report.checks) == 10, (arcs, weights)
            top = max(max(level) for level in C.shifts)
            assert report.checks[-1].counters == {"degrees": top + 1}, (arcs, weights)
            check = report.checks[-2]
            assert check.name == "minimality_vs_completeness"
            if check.witness is None:
                minimal.append(arcs)
    # only the complete digraph, under both of its weightings
    assert minimal == [complete_arcs, complete_arcs]


def test_full_verify_cycle4(cycle4_complex):
    report = rv.full_verify(cycle4_complex, instance="cycle4")
    assert report.passed, report.to_text()
    assert cc.minimality_check(cycle4_complex)[0] is False


def test_full_verify_flags_corruption():
    # the term times x1 is in the tail of the tau element behind column 1;
    # the tau check leaves the tail's sum to d_squared, which must catch it
    C = complex_from_matrix(K4_ROWS)
    _, mono, idx = columns(C, 2)[0][-1]
    assert idx not in tau_pair(C, 1, C.bases[2][0])
    set_entry(C, 2, 2, 0, mono=mono + C.ctx.variables[0])
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
    # it there and never derives one again: the only leading terms taken by
    # max are those division takes of the elements it divides, each an
    # S-vector summed into an Elem, and no column is among them
    C = complex_from_matrix(rows)
    seen = []

    def recording(g, tower, table):
        seen.append(g)
        return divide(g, tower, table)

    monkeypatch.setattr(rv, "divide", recording)
    report = rv.full_verify(C, d_max=2)
    assert report.passed, report.to_text()
    assert seen
    assert all(type(g) is dict for g in seen)


def tower_shape(tower):
    """Each attribute of an OrderTower: the object itself, its length and
    the lengths of its per-level lists."""
    return {
        name: (value, *(
            (len(value), [len(v) for v in value if isinstance(v, list)])
            if isinstance(value, list) else ()
        ))
        for name, value in vars(tower).items()
    }


@pytest.mark.parametrize("rows", [K4_ROWS, ECHELON6], ids=["k4", "echelon6"])
def test_full_verify_leaves_the_tower_as_built(rows):
    # every table of the tower is complete once add_level returns: a full
    # verification divides, walks S-pairs and ranks pieces, and adds to no
    # table, replaces none and adds none.  Division and S-vectors read the
    # degree-0 columns off the positions, so no level is derived and the
    # tower holds its five tables and nothing else
    C = complex_from_matrix(rows)
    before = tower_shape(C.tower)
    report = rv.full_verify(C, d_max=2)
    assert report.passed, report.to_text()
    after = tower_shape(C.tower)
    assert list(vars(C.tower)) == ["ctx", "bits", "base", "positions", "shifts"]
    assert after.keys() == before.keys()
    for name, (value, *lengths) in before.items():
        assert after[name][0] is value, name
        assert after[name][1:] == tuple(lengths), name


def test_report_json_shape(k4_complex):
    report = rv.full_verify(k4_complex, d_max=2, instance="K4")
    doc = report.to_json_dict()
    assert set(doc) == {"instance", "checks"}
    for check in doc["checks"]:
        assert check["status"] == "pass"
        assert {"name", "status", "millis"} <= set(check)


# the widest oracle piece of the pinned wide runs, and of oracle-k5, and
# the degree from which the lead count falls short on scrambled_tower(C, 0)
WIDEST_PIECES = {"k4": (20, 9792, 6), "cycle3": (40, 2460, 2), "k5": (13, 7980, 8)}


@pytest.mark.parametrize("name", sorted(WIDEST_PIECES))
def test_piece_widths_count_the_oracle_pieces(name, monkeypatch):
    # the widths counted from the shifts are the sizes of the pieces the
    # oracle numbers, degree by degree.  On a scrambled tower the oracle
    # eliminates every degree from the first short one (the pieces below
    # it are numbered directly), and its budget admits a piece as wide as
    # itself and refuses a wider one, naming it, before any piece is built
    d_max, widest, short = WIDEST_PIECES[name]
    if name == "cycle3":
        rows = CYCLE3
    else:
        n = int(name[1])
        rows = [[n - 1 if i == j else -1 for j in range(n)] for i in range(n)]
    g = graph_core.digraph_from_matrix(rows)
    C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)), d_max)
    scrambled_tower(C, 0)
    widths = list(rv.piece_widths(C, 0, d_max))
    assert list(rv.piece_widths(C, short, d_max)) == widths[short:]
    pieces = [
        (d, rv.graded_piece_rank(C, k, d, {})[1]) for d in range(short) for k in range(1, C.n)
    ]
    graded_piece_rank = rv.graded_piece_rank

    def recording(C, k, d, mono_cache):
        result = graded_piece_rank(C, k, d, mono_cache)
        pieces.append((d, result[1]))
        return result

    monkeypatch.setattr(rv, "graded_piece_rank", recording)
    monkeypatch.setattr(rv, "MAX_ORACLE_COLS", widest)
    assert rv.graded_homology_oracle(C, d_max) == (True, None, {"degrees": d_max + 1})
    assert len(pieces) == (d_max + 1) * (C.n - 1)
    assert [d for d, _ in pieces[short * (C.n - 1) :: C.n - 1]] == list(range(short, d_max + 1))
    assert widths == [
        (d, max(ncols for degree, ncols in pieces if degree == d)) for d in range(d_max + 1)
    ]
    assert max(w for _, w in widths) == widest
    del pieces[:]
    monkeypatch.setattr(rv, "MAX_ORACLE_COLS", widest - 1)
    with pytest.raises(ValidationError, match=f"piece of {widest:,} columns"):
        rv.graded_homology_oracle(C, d_max)
    assert pieces == []


def test_random_icb_instances_fully_verify():
    rng = random.Random(77)
    for _ in range(3):
        g = random_icb_digraph(4, rng)
        C = cc.build_complex(graph_core.prepare(graph_core.laplacian(g)))
        report = rv.full_verify(C)
        assert report.passed, report.to_text()
        assert report.checks[-1].counters == {"degrees": max(C.shifts[-1]) + 1}


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
    for j, f in enumerate(columns(C, k)):
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
    for d, widest in rv.piece_widths(C, 0, 40):
        if widest > REFERENCE_PIECE_COLS:
            break
        d_max = d
    assert d_max >= 2
    assert assert_pieces_match_the_references(C, d_max) > 0


def test_repeated_terms_of_a_column_are_summed():
    # a column holding one term twice is one with that term doubled, and a
    # term repeated with the opposite sign cancels it; either raises this
    # piece's rank from 42 to 44.  Degree 2 has the signs -, +, -: the lead
    # of column 1 put in place of its last term doubles, in place of its
    # second term it cancels
    C = complex_from_matrix(K4_ROWS)
    d = C.shifts[2][0] + 1
    assert rv.graded_piece_rank(C, 2, d, {}) == (42, 48)
    level = list(C.positions[2])
    _, mono, target = columns(C, 2)[0][0]
    for place in (2, 1):
        C.positions[2][:] = level
        set_entry(C, 2, place, 0, mono, target)
        dense, ncols = dense_piece(C, 2, d)
        piece = rv.graded_piece_rank(C, 2, d, {})
        assert piece == (linalg_reference.rank(dense), ncols) == (44, 48)
        assert piece == oracle_reference.graded_piece_rank(C, 2, d)


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
    # whatever order the column holds its two terms: the two positions
    # exchange their entries, each keeping its sign, so every column is
    # negated and holds its smaller monomial first
    (lead_sign, leads, on), (last_sign, lasts, at) = C.positions[1]
    C.positions[1][:] = [(lead_sign, lasts, at), (last_sign, leads, on)]
    assert rv.graded_homology_oracle(C, d_max) == result
    scrambled_tower(C, 1)
    assert rv.graded_homology_oracle(C, d_max) == result
    assert before == [
        [rv.graded_piece_rank(C, k, d, {}) for k in range(1, C.n)] for d in range(d_max + 1)
    ]



def test_oracle_fails_where_d_squared_still_holds(monkeypatch):
    # multiply echelon6's first top-level column by x1 and raise its shift
    # by nu_1: d∘d stays 0, but the image of the level below no longer
    # fills the kernel at position 4 from degree 6 on, on any tower
    assert rv.graded_homology_oracle(complex_from_matrix(ECHELON6), 6) == (
        True, None, {"degrees": 7}
    )
    C = echelon6_times_x1()
    assert rv.check_d_squared(C) == (True, None, {})
    failed = (False, "homology at position 4, degree 6: kernel 1294, image 1293", {"degrees": 6})
    # the lead count first falls short there too, so only degree 6 is
    # eliminated
    assert lead_ideal_reference.short_degree(C, 6) == 6
    pieces, _ = oracle_pieces(monkeypatch)
    assert rv.graded_homology_oracle(C, 6) == failed
    assert pieces == [(k, 6) for k in range(1, C.n)]
    scrambled_tower(C, 1)
    assert rv.graded_homology_oracle(C, 6) == failed


def echelon6_times_x1():
    """echelon6 with its first top-level column multiplied by x1 and its
    shift raised by nu_1: d∘d stays 0, but position 4 is not exact in
    degree 6."""
    C = complex_from_matrix(ECHELON6)
    top, x1 = C.n - 1, C.ctx.variables[0]
    for i, (_, mono, _) in enumerate(columns(C, top)[0]):
        set_entry(C, top, i, 0, mono=mono + x1)
    C.shifts[top][0] += C.ctx.nu[0]
    return C


def k4_doubled():
    """K4 with its first top-level column doubled: exact over Q, but over
    F_2 that column is zero, and positions 2 and 3 are not exact in its
    degree 6.  A column has one term per position, so the top level, with
    the signs +, -, +, -, gets four more positions of those signs: in the
    first column they repeat its terms, in every other column the first
    two hold one term and the last two another, and each pair cancels."""
    C = complex_from_matrix(K4_ROWS)
    level = C.positions[C.n - 1]
    assert [sign for sign, _, _ in level] == [1, -1, 1, -1]
    level += [
        (sign, monos[:1] + level[i & 2][1][1:], targets[:1] + level[i & 2][2][1:])
        for i, (sign, monos, targets) in enumerate(level)
    ]
    return C


@pytest.mark.parametrize("mutate, short, witness", [
    (echelon6_times_x1, [4], "position 4, degree 6: 4928 distinct unit leads for dimension 4929"),
    (k4_doubled, [2, 3], "position 2, degree 6: 47 distinct unit leads for dimension 48"),
], ids=["echelon6_times_x1", "k4_doubled"])
def test_the_complete_identity_fails_where_the_count_falls_short(mutate, short, witness,
                                                                  monkeypatch):
    # with no bound a short count is the verdict: it names the lowest
    # degree and, there, the lowest position where the unit leads fall
    # short, the brute-force counts agree, and no piece is built
    C = mutate()
    assert rv.check_d_squared(C) == (True, None, {})
    pieces, ranks = oracle_pieces(monkeypatch)
    assert rv.graded_homology_oracle(C, None) == (
        False, f"lead count at {witness}", {"degrees": 6}
    )
    assert pieces == ranks == []
    counts = {
        d: [lead_ideal_reference.lead_count(C, k, d, units=True) for k in range(1, C.n)] + [0]
        for d in range(7)
    }
    for d, count in counts.items():
        assert [
            k for k in range(1, C.n)
            if count[k - 1] + count[k] != lead_ideal_reference.free_rank(C, k, d)
        ] == (short if d == 6 else []), d

