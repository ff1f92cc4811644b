import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycres import graph_core, intlinalg
from cycres.errors import InternalError, NotIrreducibleError, ValidationError

import linalg_reference
from conftest import (
    INSTANCES,
    REDUCIBLE,
    WEIGHTED4,
    WEIGHTED4_ECHELON,
    k4_digraph,
    random_icb_digraph,
)


def cofactor_det(m):
    """Laplace expansion along the first row; the independent oracle."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            total += (-1) ** j * m[0][j] * cofactor_det(linalg_reference.minor(m, 0, j))
    return total


K4_LAPLACIAN = [
    [3, -1, -1, -1],
    [-1, 3, -1, -1],
    [-1, -1, 3, -1],
    [-1, -1, -1, 3],
]


def test_det_1x1():
    assert linalg_reference.det([[5]]) == 5


def test_det_k4_principal_minor():
    m = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert cofactor_det(m) == 16
    assert linalg_reference.det(m) == 16


def test_det_repeated_row():
    assert linalg_reference.det([[1, 2, 3], [1, 2, 3], [0, 1, 4]]) == 0


def test_det_non_square():
    with pytest.raises(ValueError, match="square matrix required"):
        linalg_reference.det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValidationError, match="square matrix required"):
        intlinalg.adjugate_row([[1, -1], [1, -1, 0]])


def test_det_matches_cofactor_oracle_randomized():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert linalg_reference.det(m) == cofactor_det(m)


def test_full_adjugate_identity_randomized():
    rng = random.Random(5)
    for _ in range(25):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        adj = linalg_reference.adjugate(m)
        d = linalg_reference.det(m)
        prod = [
            [sum(m[i][k] * adj[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        assert prod == [[d if i == j else 0 for j in range(4)] for i in range(4)]


def test_adjugate_row_weighted_pair():
    assert intlinalg.adjugate_row(WEIGHTED4_ECHELON) == (8, 12, 24, 24)
    assert intlinalg.adjugate_row(WEIGHTED4) == (12, 8, 24, 24)


def test_adjugate_row_k4():
    mu = intlinalg.adjugate_row(K4_LAPLACIAN)
    assert mu == (16, 16, 16, 16)
    # oracle: each entry is the principal minor determinant
    for i in range(4):
        assert mu[i] == cofactor_det(linalg_reference.minor(K4_LAPLACIAN, i, i))


def test_adjugate_row_agrees_with_the_per_minor_reference():
    # one elimination against one determinant per principal minor: on the
    # bundled instances (the reducible one included), on random strongly
    # connected Laplacians, and on random zero-row-sum matrices, where
    # the last principal minor or the whole adjugate may vanish
    matrices = [
        graph_core.laplacian(graph_core.parse_digraph(path.read_text())).signed_rows()
        for path in sorted(INSTANCES.glob("*.json"))
    ]
    rng = random.Random(17)
    for _ in range(60):
        g = random_icb_digraph(rng.randint(2, 8), rng, extra=rng.randint(0, 12))
        matrices.append(graph_core.laplacian(g).signed_rows())
    for _ in range(120):
        n = rng.randint(2, 6)
        rows = [[rng.choice([0, 0, -1, 1, -2, 3]) for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] -= sum(row)
        matrices.append(rows)
    anchored_elsewhere = 0
    for m in matrices:
        expected = linalg_reference.adjugate_row(m)
        assert intlinalg.adjugate_row(m) == expected, m
        anchored_elsewhere += expected[-1] == 0 and any(expected)
    assert anchored_elsewhere > 0


def test_adjugate_row_of_a_long_directed_cycle():
    # each vertex of the 240-cycle roots one spanning arborescence; the
    # per-minor form takes minutes here, one elimination well under a second
    n = 240
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i], rows[i][(i + 1) % n] = 1, -1
    assert intlinalg.adjugate_row(rows) == (1,) * n


def test_grading_vector_examples():
    assert intlinalg.grading_vector((8, 12, 24, 24)) == (2, 3, 6, 6)
    assert intlinalg.grading_vector((16, 16, 16, 16)) == (1, 1, 1, 1)
    assert intlinalg.grading_vector((7, 7, 7, 7)) == (1, 1, 1, 1)


def test_grading_vector_rejects_nonpositive():
    with pytest.raises(NotIrreducibleError):
        intlinalg.grading_vector((0, 3, 6))
    # the reducible instance really produces zeros in the adjugate row
    mu = intlinalg.adjugate_row(REDUCIBLE)
    assert any(x == 0 for x in mu)
    with pytest.raises(NotIrreducibleError):
        intlinalg.grading_vector(mu)


def test_rank_examples():
    assert linalg_reference.rank([[0, 0], [0, 0]]) == 0
    assert linalg_reference.rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert linalg_reference.rank([[1, 2], [2, 4]]) == 1
    assert linalg_reference.rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]) == 1


def test_mu_is_left_kernel_of_icb():
    for rows in (WEIGHTED4, WEIGHTED4_ECHELON, K4_LAPLACIAN):
        mu = intlinalg.adjugate_row(rows)
        n = len(rows)
        assert all(
            sum(mu[i] * rows[i][j] for i in range(n)) == 0 for j in range(n)
        )
        nu = intlinalg.grading_vector(mu)
        assert all(
            sum(nu[i] * rows[i][j] for i in range(n)) == 0 for j in range(n)
        )


def test_icb_any_three_rows_independent():
    L = graph_core.laplacian(k4_digraph()).signed_rows()
    for drop in range(4):
        sub = [row for i, row in enumerate(L) if i != drop]
        assert linalg_reference.rank(sub) == 3


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 4),
    st.data(),
)
def test_rank_sparse_matches_dense(nrows, ncols, nbase, data):
    # rows are freshly drawn, integer combinations of a few drawn rows,
    # repeats or zero, so that most matrices are rank-deficient and rows
    # reduce to zero
    def drawn_row():
        row = [0] * ncols
        entries = data.draw(
            st.lists(
                st.tuples(st.integers(0, ncols - 1), st.integers(-3, 3)),
                max_size=ncols,
            )
        )
        for c, v in entries:
            row[c] = v
        return row

    base = [drawn_row() for _ in range(nbase)]
    dense = []
    for _ in range(nrows):
        kind = data.draw(st.sampled_from(["drawn", "combination", "repeat", "zero"]))
        if kind == "drawn":
            row = drawn_row()
        elif kind == "combination":
            coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=nbase, max_size=nbase))
            row = [sum(a * b[c] for a, b in zip(coeffs, base)) for c in range(ncols)]
        elif kind == "repeat" and dense:
            row = list(data.draw(st.sampled_from(dense)))
        else:
            row = [0] * ncols
        dense.append(row)
    sparse = [
        {c: v for c, v in enumerate(row) if v} for row in dense
    ]
    before = [dict(row) for row in sparse]
    assert intlinalg.rank_sparse(sparse) == linalg_reference.rank(dense)
    assert sparse == before


def test_rank_sparse_after_a_unit_pivot_leaves_a_common_factor():
    # the unit pivot on column 0 leaves the second row as {1: 2, 2: 4},
    # with no gcd pass; that row becomes the non-unit pivot of column 1,
    # and the third row is cross-multiplied by it and divided by its gcd
    for third, expected in (({1: 1, 2: 4}, 3), ({1: 1, 2: 2}, 2), ({1: 3, 2: 6}, 2)):
        sparse = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 5}, third]
        before = [dict(row) for row in sparse]
        dense = [[row.get(c, 0) for c in range(3)] for row in sparse]
        assert intlinalg.rank_sparse(sparse) == linalg_reference.rank(dense) == expected
        assert sparse == before
    # a -1 pivot subtracts its negated multiple
    assert intlinalg.rank_sparse([{0: -1, 1: 2}, {0: 3, 1: -6}, {0: 2, 1: 1}]) == 2
    # stored zeros are no entries, so never a pivot
    assert intlinalg.rank_sparse([{0: 0, 1: 2}, {1: 1, 0: 0}, {0: 0}]) == 1


class FalseUnit(int):
    """An int that passes for 1 in the unit test of rank_sparse, so that a
    reduction by it subtracts the wrong multiple; multiplying by it is
    counted, and a run past 1000 products fails instead of hanging."""

    products = 0

    def __eq__(self, other):
        return other == 1 or int(self) == other

    __hash__ = int.__hash__

    def __rmul__(self, other):
        FalseUnit.products += 1
        assert FalseUnit.products < 1000, "rank_sparse does not stop"
        return other * int(self)


def test_rank_sparse_refuses_a_step_that_keeps_its_pivot_column():
    # the pivot 2 on column 0 is taken for a unit: the second row's entry
    # 1 becomes 1 - 2*2 = -3, not 0, and reducing again would go on forever
    FalseUnit.products = 0
    rows = [{0: FalseUnit(2), 1: 1}, {0: 1, 1: 1}]
    with pytest.raises(InternalError, match="pivot on column 0 left that column in the row"):
        intlinalg.rank_sparse(rows)
    # one step: the multiplier times the pivot, then times its entry
    assert FalseUnit.products == 2


def test_no_package_module_imports_fractions():
    # one coefficient type: Python int; the Fraction references live in tests
    import ast
    import pathlib

    import cycres

    offenders = []
    for path in sorted(pathlib.Path(cycres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                offenders.append(path.name)
    assert offenders == []
