"""The differential as it was first built, every merge's arrow monomial
looked up in the arrow table, arrows[I][J], for every basis element of a
level.  The build copies the monomials of the merges s < k-2 from the
level below (see cyc_complex.boundary); this is the reference those copies
are tested against.
"""


def lookup_boundary(basis, arrows, targets):
    """One level's term positions, in the order s = k-1, ..., 0, k, as
    cyc_complex.boundary gives them: (sign, monos, targets[s]) for merge s,
    with monos[j] the arrow monomial of basis[j] from block s into its
    cyclic successor, looked up for every j."""
    k = len(basis[0]) - 1
    positions = []
    for s in (*range(k - 1, -1, -1), k):
        sign, t = (-1, 0) if s == k else ((-1) ** s, s + 1)
        monos = [arrows[p[s]][p[t]] for p in basis]
        positions.append((sign, monos, targets[s]))
    return positions
