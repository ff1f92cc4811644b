"""References for the standard-expression checks of resolution_verify: the
all-terms bound on a standard expression, which the single key equality
replaces (as divide_reference keeps the linear scan), the τ check of one
element at a time, which the whole-list verify_tau_level replaces, and the
walk of Lt(S) along two stored columns of one pair, the rule that
verify_tau_level follows for a whole level at once.
"""

from cycres.cyc_complex import merge
from cycres.poly_ring import s_cofactor
from cycres.resolution_verify import partition_str
from tower_reference import key


def image_key(tower, level, mono, j):
    """The key of x^mono * Lt(g_j), the leading term of the image of
    x^mono * e_j under the columns g_j of tower.positions[level + 1]: entry
    j of their first position."""
    _, monos, targets = tower.positions[level + 1][0]
    return key(tower, level, mono + monos[j], targets[j])


def below_leading_term(tower, level, s_key, terms):
    """True when S is zero (s_key is None) or no x^mono * Lt(g_j), for
    (mono, j) in terms and the columns g_j of tower.positions[level + 1],
    whose leading terms are entry j of the first position, lies above Lt(S),
    whose key is s_key: the bound on every term of a standard expression of
    S."""
    if s_key is None:
        return True
    _, monos, targets = tower.positions[level + 1][0]
    return all(s_key >= key(tower, level, mono + monos[j], targets[j]) for mono, j in terms)


def s_leading_key(tower, level, i, j, m_ji, m_ij):
    """The int key of Lt(S) for S = m_ji*f_i - m_ij*f_j, the columns f_i, f_j
    of tower.positions[level + 1] and their cofactors as s_cofactor gives
    them, or None when S = 0.  S itself is not built.

    Both columns are stored in strictly decreasing key order (the
    leading_term_formula check proves it), and multiplying by x^m adds
    m << bits to every key, so entries i and j of the positions are walked
    together from the top: the first key whose terms do not cancel is
    Lt(S).  Every column of a level has one term per position, and the two
    terms at a position share its sign, so they cancel exactly when their
    keys and cofactor coefficients are equal; no column has a term left
    over when the other runs out, and S = 0 when every term cancels.
    """
    bits, base = tower.bits[level], tower.base[level]
    (ci, mi), (cj, mj) = m_ji, m_ij
    up_i, up_j = mi << bits, mj << bits
    for _, monos, targets in tower.positions[level + 1]:
        ka = up_i + (monos[i] << bits) + base[targets[i]]
        kb = up_j + (monos[j] << bits) + base[targets[j]]
        if ka != kb:
            return max(ka, kb)
        if ci != cj:
            return ka
    return None


def tau_pair(C, k, e):
    """The two merge partners whose S-vector the boundary of e represents."""
    return C.index[k][merge(e, k)], C.index[k][merge(e, k - 1)]


def verify_tau_identity(C, k, pos):
    """Check that -boundary(e) is a syzygy recording a standard expression,
    for the one element e = C.bases[k + 1][pos]: (ok, witness).

    e has k+2 blocks, and its column de is entry pos of the k+2 positions
    of its level.  de must lead with the cofactor of merge partner i in
    their S-vector S, hold that of partner j second and no other term on
    either, and its first tail term, at the third position, must map one
    level down to Lt(S) exactly (read off the two stored columns by
    s_leading_key).  The comparisons are made in that order, and the first
    that fails names the witness.
    """
    e, level = C.bases[k + 1][pos], C.positions[k + 1]
    i, j = tau_pair(C, k, e)
    if j >= i:
        return False, f"pair order violated for {partition_str(e)}"
    m_ji = s_cofactor(C.tower, k - 1, i, j)
    if m_ji is None:
        return False, f"no S-pair behind {partition_str(e)}"
    m_ij = s_cofactor(C.tower, k - 1, j, i)
    sign = (-1) ** (k - 1)
    expect_ji = (sign, C.arrows[e[k]][e[k + 1]])
    expect_ij = (sign, C.arrows[e[k - 1]][e[k]])
    if m_ji != expect_ji or m_ij != expect_ij:
        return False, f"m-coefficients differ at {partition_str(e)}"
    on = [targets[pos] for _, _, targets in level]
    (lead_sign, leads, _), (second_sign, seconds, _), (_, tails, _) = level[:3]
    if (lead_sign, leads[pos], on[0]) != (-m_ji[0], m_ji[1], i) or on.count(i) != 1:
        return False, f"leading component mismatch at {partition_str(e)}"
    if (second_sign, seconds[pos], on[1]) != (m_ij[0], m_ij[1], j) or on.count(j) != 1:
        return False, f"second component mismatch at {partition_str(e)}"
    s_key = s_leading_key(C.tower, k - 1, i, j, m_ji, m_ij)
    if image_key(C.tower, k - 1, tails[pos], on[2]) != s_key:
        return False, f"standard-expression bound fails at {partition_str(e)}"
    return True, None
