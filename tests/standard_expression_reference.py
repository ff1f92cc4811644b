"""The all-terms bound on a standard expression: the check that the
single key equality of resolution_verify replaces, kept as the reference
it is tested against (as divide_reference keeps the linear scan).
"""


def below_leading_term(tower, level, s_key, terms):
    """True when S is zero (s_key is None) or no x^mono * Lt(g_j), for
    (mono, j) in terms and the columns g_j of tower.positions[level + 1],
    whose leading terms are entry j of the first position, lies above Lt(S),
    whose key is s_key: the bound on every term of a standard expression of
    S."""
    if s_key is None:
        return True
    _, monos, targets = tower.positions[level + 1][0]
    return all(s_key >= tower.key(level, mono + monos[j], targets[j]) for mono, j in terms)
