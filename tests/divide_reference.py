"""Division by a linear scan of the leading terms, at any level and with
its quotient: the form that the support-mask candidates of poly_ring.divide
replace, kept as the reference that divide's remainders are tested against
(as monomial_reference keeps exponent tuples).
"""

from cycres.poly_ring import elem_combine
from tower_reference import leading_module_term


def divide(g, tower, level):
    """(quotient, remainder) of g by the columns of level + 1 of the tower,
    each step reducing by the lowest-index image whose leading term, entry
    bi of the first position, divides."""
    positions = tower.positions[level + 1]
    sign, leads, on = positions[0]
    guard = tower.ctx.guard
    quotient, remainder = {}, {}
    work = dict(g)
    while work:
        coeff, mono, idx = leading_module_term(tower, work, level)
        for bi, (bm, bidx) in enumerate(zip(leads, on)):
            if bidx == idx and not (bm - mono) & guard:
                q = coeff * sign
                qm = mono - bm
                quotient[qm, bi] = q
                elem_combine(work, positions, bi, -q, qm)
                break
        else:
            remainder[mono, idx] = coeff
            del work[mono, idx]
    return quotient, remainder
