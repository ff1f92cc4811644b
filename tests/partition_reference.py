"""Partitions as tuples of sorted vertex tuples: the plain operations that
block bitmasks replace, and the basis enumeration that building each level
from the one below replaces, kept as the reference the mask ones are tested
against (as monomial_reference keeps the exponent-tuple monomials), and the
closed count of a basis over all degrees.
"""

from itertools import permutations
from math import comb


def srle_key(p, n):
    """The srle key as it was first written, a tuple per block: bigger
    blocks first; ties: the largest element not shared comes first."""
    def block_key(block):
        present = [0] * n
        for v in block:
            present[n - v] = -1
        return (-len(block), tuple(present))

    return tuple(block_key(b) for b in p)


def merge(p, s):
    """Join block s of p to its cyclic successor; s = k joins block 0 to the
    last block, which keeps the block holding n last."""
    k = len(p) - 1
    if s == k:
        return p[1:k] + (tuple(sorted(p[0] + p[k])),)
    return p[:s] + (tuple(sorted(p[s] + p[s + 1])),) + p[s + 2 :]


def rho_image(p, q, k):
    """The level-(k+1) partition behind the retained generator of position p
    at source q: p's first k blocks, then q's k-th block less p's, then q's
    last block."""
    return p[:k] + (tuple(sorted(set(q[k - 1]) - set(p[k - 1]))), q[k])


def set_partitions(m, parts):
    """All partitions of {1..m} into `parts` nonempty unordered blocks, as
    lists of sorted vertex tuples with the block holding m last."""
    if parts == 1:
        yield [tuple(range(1, m + 1))]
        return
    if m < parts:
        return
    # m alone in a block, or joined to any block of a partition of {1..m-1}
    for sub in set_partitions(m - 1, parts - 1):
        yield sub + [(m,)]
    for sub in set_partitions(m - 1, parts):
        for i in range(parts):
            yield sub[:i] + sub[i + 1 :] + [sub[i] + (m,)]


def enumerate_basis(n, k):
    """All partitions of {1..n} into k+1 blocks, canonical, in srle order: each
    set partition in every order of the blocks before the last, one sort."""
    keyed = []
    for *others, last in set_partitions(n, k + 1):
        # the last block is fixed, so the keys of the others order the
        # partitions; they are computed once and permuted with the blocks
        keys = srle_key(others, n)
        keyed += zip(permutations(keys), (perm + (last,) for perm in permutations(others)))
    keyed.sort()
    return [p for _, p in keyed]


def basis_size(n):
    """The basis size over all degrees, sum_j (j-1)! * S(n, j); j! * S(n, j)
    counts the maps of n vertices onto j blocks, by inclusion-exclusion."""
    return sum(
        sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1)) // j
        for j in range(1, n + 1)
    )
