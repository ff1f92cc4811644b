"""The all-terms bound on a standard expression: the check that the
single key equality of resolution_verify replaces, kept as the reference
it is tested against (as divide_reference keeps the linear scan).
"""


def below_leading_term(tower, level, s_key, terms):
    """True when S is zero (s_key is None) or no x^mono * Lt(g_j), for
    (mono, j) in terms and the columns g_j of tower.images[level + 1], lies
    above Lt(S), whose key is s_key: the bound on every term of a standard
    expression of S."""
    if s_key is None:
        return True
    leads = [f[0] for f in tower.images[level + 1]]
    return all(
        s_key >= tower.key(level, mono + leads[j][1], leads[j][2]) for mono, j in terms
    )
