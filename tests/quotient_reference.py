"""References for the module-quotient check: the run memo kept per level,
which resolution_verify.verify_module_quotients replaces with one memo for
every level, keyed also by whether the level's first-position sign is
(-1)^(k-1); and the positive part of two arrow monomials taken one vertex
at a time, which the closed formulas read as the cofactor of two block
arrow monomials.
"""

from itertools import count
from operator import itemgetter, ne

from cycres.poly_ring import first
from cycres.resolution_verify import module_quotients, quotient_sources, sibling_runs


def arrow_plus(C, A, B, Cs):
    """prod over i in block A of x_i^((sum weights into B) - (sum weights into Cs))^+.

    Each factor is the difference of two single-vertex arrow monomials: a
    packed power of one variable is positive exactly when its exponent is.
    """
    arrows, out = C.arrows, 0
    while A:
        v = A & -A
        out += max(arrows[v, B] - arrows[v, Cs], 0)
        A ^= v
    return out


def run_key(C, k, run):
    """The key a run of level k is memoised by within its level: the tuple
    of its last-two-block pairs and the tuple of its lead monomials."""
    a, b = run.start, run.stop
    return tuple(p[k - 1 :] for p in C.bases[k][a:b]), tuple(C.positions[k][0][1][a:b])


def verify_module_quotients_by_level(C):
    """(ok, witness, {"generators": ...}), as verify_module_quotients, with
    a memo that starts empty on every level."""
    total, alone = 0, 1 << (C.n - 1)
    for k in range(1, C.n):
        basis, prefix = C.bases[k], itemgetter(slice(0, k - 1))
        _, leads, targets = C.positions[k][0]
        owners = map(basis.__getitem__, map({}.setdefault, targets, count()))
        i = first(map(ne, map(prefix, owners), map(prefix, basis)))
        if i is not None:
            return False, (
                f"nonzero quotient across different prefixes at level {k}: "
                f"{targets.index(targets[i]) + 1}, {i + 1}"
            ), {"generators": total}
        seen = {}
        for run in sibling_runs(C, k):
            a, b = run.start, run.stop
            key = run_key(C, k, run)
            gens = seen.get(key) if len(set(targets[a:b])) == 1 else None
            if gens is None:
                gens = 0
                for i, sources in quotient_sources(C, k, run):
                    found, witness = module_quotients(C, k, i, sources)
                    if witness is not None:
                        return False, witness, {"generators": total + gens}
                    gens += len(found)
                    if basis[i][k] == alone and found:
                        return False, (
                            f"expected empty quotient set at level {k}, index {i + 1}"
                        ), {"generators": total + gens}
                seen[key] = gens
            total += gens
    return True, None, {"generators": total}
