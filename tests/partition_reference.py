"""Partitions as tuples of sorted vertex tuples: the plain operations that
block bitmasks replace, kept as the reference the mask ones are tested
against (as monomial_reference keeps the exponent-tuple monomials).
"""


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
