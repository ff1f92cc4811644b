"""Exact integer linear algebra.

Matrices are lists of rows of Python ints (arbitrary precision).
``adjugate_row`` solves one system by Bareiss elimination; ``rank_sparse``
is the rank over the rationals of {column: int} rows by a fraction-free row
echelon that skips the gcd pass after a +-1 pivot.  Nothing here ever
touches floating point or a fraction.
"""

from math import gcd

from .errors import InternalError, NotIrreducibleError, ValidationError


def _check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValidationError("square matrix required")
    return n


def adjugate_row(m):
    """The row (|L_{1,1}|, ..., |L_{n,n}|) of principal (n-1)-minors of a
    square integer matrix L with zero row sums, by one fraction-free
    elimination.

    L times its adjugate is det(L) * I = 0, so every column of the adjugate
    lies in the kernel of L, which holds the all-ones vector: all rows of
    the adjugate agree, and that row mu, its diagonal, has mu * L = 0.  So
    with mu_k = |L_{k,k}| nonzero, the other entries are the one solution
    of the transposed (n-1)-system sum_{i != k} mu_i L_{i,j} = -mu_k L_{k,j},
    j != k, whose determinant is mu_k: Bareiss elimination gives mu_k, and
    back substitution with exact division gives the rest, all in Z.  The
    anchor k is the last index first; when every principal minor vanishes,
    L has rank below n-1 and its adjugate is zero.
    """
    n = _check_square(m)
    for k in reversed(range(n)):
        row = _anchored_kernel_row(m, k)
        if row is not None:
            return row
    return (0,) * n


def _anchored_kernel_row(m, k):
    """The mu of adjugate_row from the anchor mu_k = |L_{k,k}|, or None
    when that minor is 0."""
    others = [i for i in range(len(m)) if i != k]
    size = len(others)
    # column j of L on the other indices, then the right-hand side -L_{k,j}
    a = [[m[i][j] for i in others] + [-m[k][j]] for j in others]
    sign = prev = 1
    for c in range(size):
        p = next((r for r in range(c, size) if a[r][c]), None)
        if p is None:
            return None
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        top = a[c]
        pivot = top[c]
        # Bareiss: every entry stays a minor of the system, the division exact
        for r in range(c + 1, size):
            row, f = a[r], a[r][c]
            row[c:] = [(pivot * x - f * y) // prev for x, y in zip(row[c:], top[c:])]
        prev = pivot
    det = sign * prev
    # the rows are combinations of the system's, so the triangle holds the
    # solution times det, which is integral (Cramer), and each division is exact
    mu = [0] * size
    for i in reversed(range(size)):
        row = a[i]
        mu[i] = (det * row[size] - sum(row[j] * mu[j] for j in range(i + 1, size))) // row[i]
    mu.insert(k, det)
    return tuple(mu)


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
