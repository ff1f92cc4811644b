"""Division by a linear scan of the leading terms, at any level and with
its quotient: the form that the support-mask candidates of poly_ring.divide
replace, kept as the reference that divide's remainders are tested against
(as monomial_reference keeps exponent tuples).
"""

from conftest import columns
from cycres.poly_ring import elem_combine
from tower_reference import leading_module_term


def divide(g, tower, level):
    """(quotient, remainder) of g by columns(tower, level + 1), each step
    reducing by the lowest-index image whose leading term divides."""
    basis = columns(tower, level + 1)
    guard = tower.ctx.guard
    quotient, remainder = {}, {}
    work = dict(g)
    while work:
        coeff, mono, idx = leading_module_term(tower, work, level)
        for bi, (bc, bm, bidx) in enumerate(f[0] for f in basis):
            if bidx == idx and not (bm - mono) & guard:
                q = coeff * bc
                qm = mono - bm
                quotient[qm, bi] = q
                elem_combine(work, basis[bi], -q, qm)
                break
        else:
            remainder[mono, idx] = coeff
            del work[mono, idx]
    return quotient, remainder
