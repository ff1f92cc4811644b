"""The module order as the tuple key (acc + mono, path): the flattened form
the int tower keys replace, kept as the reference they are tested against
(as monomial_reference keeps the exponent-tuple monomials).  Also the int
key of one module monomial, and the leading term of any module element at
any level by those keys: the package keys whole lists of positions at
once, reads each column's leading term off its first term and takes the
leading term of a degree-0 element as a bare max, so only the tests need
them in general.

Per level and basis index, acc is the level-0 monomial met at the end of
the descent through leading terms and path is the tuple of basis indices
met on the way, the index itself last.  Both are rebuilt here from the
terms of the columns alone, each column's leading term chosen by this key.
"""


def key(tower, level, mono, idx):
    """The int key of the module monomial x^mono * e_idx at a level of an
    OrderTower: (mono << bits) + base[idx], whose integer order is the
    module order."""
    return (mono << tower.bits[level]) + tower.base[level][idx]


def leading_module_term(tower, elem, level):
    """(coefficient, monomial, basis index) of the largest term of an Elem
    at a level of an OrderTower."""
    if not elem:
        raise ValueError("leading term of zero module element")
    mono, idx = max(elem, key=lambda t: key(tower, level, *t))
    return elem[mono, idx], mono, idx


class TupleTower:
    def __init__(self, images):
        """images[level][j]: the terms (coeff, monomial, basis index) of
        column j one level down, in any order; images[0] is unused."""
        self.acc = [[0]]
        self.path = [[(0,)]]
        for level, columns in enumerate(images[1:]):
            acc, path = [], []
            for j, column in enumerate(columns):
                _, mono, idx = max(column, key=lambda t: self.key(level, t[1], t[2]))
                acc.append(mono + self.acc[level][idx])
                path.append(self.path[level][idx] + (j,))
            self.acc.append(acc)
            self.path.append(path)

    def key(self, level, mono, idx):
        return (mono + self.acc[level][idx], self.path[level][idx])
