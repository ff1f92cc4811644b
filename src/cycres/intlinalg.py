"""Exact integer linear algebra.

Matrices are lists of rows of Python ints (arbitrary precision).
Determinants use Bareiss elimination; ``rank_sparse`` is the rank over the
rationals of {column: int} rows by a fraction-free row echelon that skips
the gcd pass after a +-1 pivot.  Nothing here ever touches floating point
or a fraction.
"""

from math import gcd

from .errors import DimensionError, InternalError, NotIrreducibleError


def _check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise DimensionError("square matrix required")
    return n


def det(m):
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss one-step elimination: every intermediate entry is a minor of the
    input, so the arithmetic stays in the integers.
    """
    n = _check_square(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def minor(m, i, j):
    """Submatrix with row i and column j removed (0-based)."""
    return [
        [row[c] for c in range(len(row)) if c != j]
        for r, row in enumerate(m)
        if r != i
    ]


def adjugate_row(m):
    """The row (|L_{1,1}|, ..., |L_{n,n}|) of principal (n-1)-minors.

    For a Laplacian-type matrix with zero row sums all rows of the adjugate
    agree, so this single row carries the whole adjugate; the diagonal
    cofactor signs are +1.
    """
    n = _check_square(m)
    return tuple(det(minor(m, i, i)) for i in range(n))


def grading_vector(mu):
    """Divide a positive integer vector by its gcd.

    Raises NotIrreducibleError when some entry is not positive, which is the
    signature of a reducible input matrix.
    """
    if any(x <= 0 for x in mu):
        raise NotIrreducibleError(f"adjugate row {tuple(mu)} is not strictly positive")
    d = 0
    for x in mu:
        d = gcd(d, x)
    return tuple(x // d for x in mu)


def rank_sparse(rows):
    """Exact rank over the rationals of a sparse integer matrix.

    ``rows`` is an iterable of {column: int} dicts; they are not modified.
    Fraction-free row echelon: the pivot rows are kept by their smallest
    column.  Each incoming row is reduced by the pivot on its smallest
    column until its smallest column holds no pivot, when it becomes one,
    or it vanishes.  A +-1 pivot is its own inverse, so its multiple is
    subtracted as it stands; any other pivot is cross-multiplied and the
    row divided by its gcd.  A reduction that leaves its pivot column in
    the row raises InternalError instead of looping on that column.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            a, b = pivot[c], row[c]
            unit = a == 1 or a == -1
            if unit:
                b *= a
            else:
                for cc in row:
                    row[cc] *= a
            for cc, pv in pivot.items():
                nv = row.get(cc, 0) - b * pv
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
            if c in row:
                raise InternalError(
                    f"sparse elimination does not progress: the pivot on column {c} "
                    f"left that column in the row it reduced"
                )
            if not unit:
                g = gcd(*row.values())
                if g > 1:
                    for cc in row:
                        row[cc] //= g
    return len(pivots)
