"""The arrow monomial of one block pair, summed vertex by vertex.  The
build fills every disjoint pair at once by subset recursion (see
cyc_complex.arrow_table); this is the reference that table is tested
against.
"""

from cycres.cyc_complex import vertices
from cycres.errors import InternalError


def arrow_monomial(I, J, L, ctx):
    """prod_{i in I} x_i^(sum of weights from i into J), packed; I and J are
    disjoint blocks."""
    if I & J:
        raise InternalError(
            f"arrow monomial with overlapping sets {tuple(vertices(I))}, {tuple(vertices(J))}"
        )
    into = vertices(J)
    return sum(ctx.power(i - 1, sum(L.a[i - 1][j - 1] for j in into)) for i in vertices(I))
