"""The exactness oracle's graded pieces assembled row by row: the reference
for ``resolution_verify.graded_piece_rank``.

``piece_index`` numbers the degree-d piece of a level by (position,
monomial) pairs in basis order; ``graded_piece_rank`` scatters every term of
every column into one dict per row through those numbers and ranks the
rows.  It reads no order tower, so its ranks and column counts are the ones
the package's column-wise assembly must reproduce.
"""

from conftest import columns
from cycres.intlinalg import rank_sparse
from cycres.resolution_verify import monomials_of_degree


def piece_index(C, k, d, mono_cache):
    """{(position, monomial): index} numbering the degree-d piece of level k.

    Positions go in basis order, each followed by the monomials of degree d
    minus its shift; mono_cache holds the monomial lists by degree.
    """
    index = {}
    for p, shift in enumerate(C.shifts[k]):
        e = d - shift
        if e not in mono_cache:
            mono_cache[e] = monomials_of_degree(C.ctx, e)
        for beta in mono_cache[e]:
            index[(p, beta)] = len(index)
    return index


def graded_piece_rank(C, k, d):
    """(rank, number of columns) of the degree-d piece of the k-th
    differential, from one {column: coeff} dict per row; repeated terms of
    a column are summed."""
    cache = {}
    row_index, col_index = piece_index(C, k - 1, d, cache), piece_index(C, k, d, cache)
    rows = [dict() for _ in row_index]
    level = columns(C, k)
    for col, (j, alpha) in enumerate(col_index):
        for coeff, mono, p in level[j]:
            row = rows[row_index[(p, alpha + mono)]]
            row[col] = row.get(col, 0) + coeff
    return rank_sparse(rows), len(col_index)
