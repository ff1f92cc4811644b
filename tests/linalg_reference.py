"""Dense reference linear algebra for the tests.

Determinants by Bareiss elimination, the adjugate row by one determinant
per principal minor (O(n^4): the form that the single elimination of
``cycres.intlinalg.adjugate_row`` replaces), the full adjugate by the
cofactor formula and the rank by dense elimination over ``Fraction``:
slow, but simple enough to trust as oracles for the integer routines of
``cycres.intlinalg``.
"""

from fractions import Fraction


def _check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("square matrix required")
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
    """(|L_{1,1}|, ..., |L_{n,n}|), one determinant per principal minor."""
    n = _check_square(m)
    return tuple(det(minor(m, i, i)) for i in range(n))


def adjugate(m):
    """Full adjugate by the cofactor formula (O(n^5))."""
    n = _check_square(m)
    return [
        [(-1) ** (i + j) * det(minor(m, j, i)) for j in range(n)]
        for i in range(n)
    ]


def rank(m):
    """Exact rank over the rationals of a dense matrix (int or Fraction)."""
    if not m or not m[0]:
        return 0
    rows = [[Fraction(x) for x in row] for row in m]
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                fi = f / pv
                ri, rr = rows[i], rows[r]
                for j in range(c, ncols):
                    ri[j] -= rr[j] * fi
        r += 1
        if r == len(rows):
            break
    return r
