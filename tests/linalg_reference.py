"""Dense reference linear algebra for the tests.

The adjugate by the cofactor formula and the rank by dense elimination over
``Fraction``: slow, but simple enough to trust as oracles for the integer
routines of ``cycres.intlinalg``.
"""

from fractions import Fraction

from cycres.errors import DimensionError
from cycres.intlinalg import det, minor


def adjugate(m):
    """Full adjugate by the cofactor formula (O(n^5))."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise DimensionError("square matrix required")
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
        raise DimensionError("ragged matrix")
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
