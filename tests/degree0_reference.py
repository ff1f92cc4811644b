"""Reference for the degree-0 Groebner check: the per-pair walk that
resolution_verify.verify_degree0_gb replaces, which looks up the level-1
position of each closed-form piece once for the closed form and again for
its leading term, read by image_key, and walks Lt(S) off the two stored
columns (s_leading_key) where the check reads it off the built S.  A
division that does not descend raises InternalError here, from divide.
"""

from cycres.poly_ring import divide, divisor_table, s_cofactor, s_vector
from cycres.resolution_verify import partition_str, s_poly_closed_form

from standard_expression_reference import image_key, s_leading_key


def verify_degree0_gb_by_pair(C):
    """(ok, witness, {"pairs": the pairs divided}), as verify_degree0_gb."""
    r1 = len(C.bases[1])
    full = (1 << C.n) - 1
    table = divisor_table(C.tower)
    pairs = 0
    for i in range(r1):
        for j in range(i + 1, r1):
            ci, cj = C.bases[1][i][0], C.bases[1][j][0]
            s = s_vector(C.tower, 0, i, j)
            if s is None:
                return False, f"no S-pair for ({i + 1},{j + 1})", {"pairs": pairs}
            m_ji, m_ij = s_cofactor(C.tower, 0, i, j), s_cofactor(C.tower, 0, j, i)
            formula, l_cd, l_dc, _ = s_poly_closed_form(ci, cj, C)
            if s != formula:
                return False, (
                    f"closed form mismatch for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
            lead = max(
                image_key(C.tower, 0, mono, C.index[1][piece, full ^ piece])
                for mono, piece in ((l_cd, ci & ~cj), (l_dc, cj & ~ci)) if piece
            )
            if lead != s_leading_key(C.tower, 0, i, j, m_ji, m_ij):
                return False, (
                    f"leading bound fails for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
            rem = divide(s, C.tower, table)
            pairs += 1
            if rem:
                return False, (
                    f"nonzero remainder for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
    return True, None, {"pairs": pairs}
