"""Lead counts by brute force: the reference for the exactness identity of
``resolution_verify.graded_homology_oracle``.

``lead_count(C, k, d)`` is L_(k,d), the number of distinct leading rows
among the columns x^alpha * f_j of the degree-d piece of the k-th
differential.  Each column's terms are keyed in the order of the row ids
of ``resolution_verify.graded_piece_rank``, repeated terms summed, and its
lead is its largest key with a nonzero coefficient: the smallest row id,
the pivot ``rank_sparse`` takes.  No lead ideal, colon or K-polynomial is
formed; the degree-d dimension of the lead submodule N_k is just counted.

``k_polynomial(ctx, gens, top, memo)`` is the dense reference for the
sparse ``resolution_verify.k_polynomial``: the same pivot recursion on a
list of coefficients 0..top.
"""

from conftest import columns
from cycres.resolution_verify import minimal_generators, monomials_of_degree


def lead_count(C, k, d, tie_break=None, units=False):
    """L_(k,d) over the degree-d piece of d_k.

    The row x^beta * e_p one level down is ordered by (beta + w_p, then p),
    w_p the accumulated monomial of e_p in the order tower.  With
    ``tie_break="monomial"``, equal beta + w_p are ordered by beta instead
    of p: a sound order too, but not the Schreyer order the columns were
    built in.  With ``units``, only leads with coefficient +-1 count, as in
    the oracle: a lead 2*x^m proves nothing over a field of characteristic 2.
    """
    base, bits = C.tower.base[k - 1], C.tower.bits[k - 1]
    b = (len(C.shifts[k - 1]) - 1).bit_length()
    leads = set()
    for f, shift in zip(columns(C, k), C.shifts[k]):
        if shift > d:
            continue
        for alpha in monomials_of_degree(C.ctx, d - shift):
            terms = {}
            for coeff, mono, p in f:
                w = base[p] >> bits
                if tie_break == "monomial":
                    row = (alpha + mono + w, alpha + mono, p)
                else:
                    row = (alpha + mono + w, p)
                terms[row] = terms.get(row, 0) + coeff
            lead = max((row for row, coeff in terms.items() if coeff), default=None)
            if lead is not None and (not units or terms[lead] in (1, -1)):
                leads.add(lead)
    return len(leads)


def free_rank(C, k, d):
    """dim F_(k,d): the monomials x^beta * e_p of degree d at level k."""
    return sum(
        len(monomials_of_degree(C.ctx, d - shift)) for shift in C.shifts[k] if shift <= d
    )


def short_degree(C, d_max, tie_break=None):
    """The lowest degree d <= d_max where L_(k,d) + L_(k+1,d) falls short of
    dim F_(k,d) at some position k = 1..n-1 (L_(n,d) = 0), or None."""
    for d in range(d_max + 1):
        counts = [lead_count(C, k, d, tie_break) for k in range(1, C.n)] + [0]
        for k in range(1, C.n):
            if counts[k - 1] + counts[k] != free_rank(C, k, d):
                return d
    return None


def monomial_tie_break_ideals(C, k, d_max):
    """``resolution_verify.lead_ideals`` with the leads taken in the order
    (beta + w_p, then beta, then p): ties of beta + w_p go to the larger
    monomial instead of the larger position."""
    ideals = {}
    if k + 1 == C.n:
        return ideals
    base, bits = C.tower.base[k], C.tower.bits[k]
    for f, shift in zip(columns(C, k + 1), C.shifts[k + 1]):
        if shift > d_max:
            continue
        terms = {}
        for coeff, mono, p in f:
            key = (mono + (base[p] >> bits), mono, p)
            terms[key] = terms.get(key, 0) + coeff
        _, mono, p = max(key for key, coeff in terms.items() if coeff)
        ideals.setdefault(p, []).append(mono)
    return {p: minimal_generators(C.ctx, monos) for p, monos in ideals.items()}


def k_polynomial(ctx, gens, top, memo):
    """Coefficients 0..top of the K-polynomial of S/J, the Hilbert series of
    S/J times prod_i (1 - t^nu_i), for J with the minimal generators gens,
    an ascending tuple: () is J = 0, and (0,), the unit, is J = S.

    A generator of degree above top changes no coefficient up to top, so
    it is dropped.  Pairwise coprime generators g give prod (1 - t^deg g),
    which is 0 for the unit.  Otherwise a variable x_i in the most
    generators is the pivot:
        K(S/J) = K(S/(J + x_i)) + t^nu_i K(S/(J : x_i))
    (Bigatti, JPAA 1997), where K(S/(J + x_i)) = (1 - t^nu_i) K(S/J') for
    J' generated by the generators x_i does not divide.  memo holds every
    K met, by (gens, top).
    """
    if top < 0:
        return []
    degree, support = ctx.degree, ctx.support
    gens = tuple(g for g in gens if degree(g) <= top)
    out = memo.get((gens, top))
    if out is not None:
        return out
    out = [0] * (top + 1)
    masks = [support(g) for g in gens]
    union = shared = 0
    for mask in masks:
        shared |= mask & union
        union |= mask
    if not shared:
        out[0] = 1
        for g in gens:
            e = degree(g)
            for d in range(top, e - 1, -1):
                out[d] -= out[d - e]
    else:
        # the variable in the most generators; some two share it
        w = ctx.width
        i = max(
            (i for i in range(ctx.n) if shared >> (w * i + w - 1) & 1),
            key=lambda i: sum(mask >> (w * i + w - 1) & 1 for mask in masks),
        )
        bit, x, v = 1 << (w * i + w - 1), ctx.variables[i], ctx.nu[i]
        rest = k_polynomial(
            ctx, tuple(g for g, mask in zip(gens, masks) if not mask & bit), top, memo
        )
        colon = minimal_generators(
            ctx, [g - x if mask & bit else g for g, mask in zip(gens, masks)]
        )
        for d in range(top + 1):
            out[d] = rest[d] - (rest[d - v] if d >= v else 0)
        for d, c in enumerate(k_polynomial(ctx, colon, top - v, memo), v):
            out[d] += c
    memo[gens, top] = out
    return out
