"""Graded polynomial arithmetic and induced module orders.

The lattice ideal lives in Q[x], but every computation here stays in Z:
every differential coefficient is +-1 and the order tower refuses any other
leading coefficient, so division and S-vectors never produce a fraction.

Representation conventions (kept deliberately plain for speed):

    monomial   tuple of n nonnegative ints (the exponent vector)
    Poly       dict {monomial: int}, no zero coefficients stored
    Elem       dict {basis index: Poly}, no zero polynomials stored
    column     tuple of (coeff, monomial, basis index) terms, strictly
               decreasing in the module order one level down

Elems are the mutable accumulators (division work and remainders, S-vectors,
sampled ideal members); each differential column is stored once, as a
column, by the order tower, so its first term is its leading term.
Free-module elements of the degree-0 ring live on basis index 0.
The monomial order is the weighted reverse lexicographic order with positive
integer weights nu: higher weighted degree wins, ties broken by the
rightmost nonzero coordinate of the difference being negative.  Module
orders are induced level by level through a fixed list of images, with ties
broken by the larger basis index.
"""

from dataclasses import dataclass

from .errors import InternalError, ZeroElementError


@dataclass(frozen=True)
class GradedContext:
    n: int
    nu: tuple  # positive integer weights, gcd 1

    def degree(self, mono):
        return sum(e * w for e, w in zip(mono, self.nu))

    def unit(self):
        return (0,) * self.n


# ---------------------------------------------------------------------------
# monomials

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))

def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))

def mono_div(a, b):
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))

def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def wrlo_key(mono, ctx: GradedContext):
    """Sort key realizing the weighted reverse lexicographic order."""
    return (ctx.degree(mono), tuple(-e for e in reversed(mono)))


# ---------------------------------------------------------------------------
# polynomials and module elements

def poly_add_term(poly, coeff, mono):
    c = poly.get(mono, 0) + coeff
    if c:
        poly[mono] = c
    elif mono in poly:
        del poly[mono]


def elem_add_term(elem, idx, coeff, mono):
    poly = elem.setdefault(idx, {})
    poly_add_term(poly, coeff, mono)
    if not poly:
        del elem[idx]


def elem_combine(acc, column, coeff, mono):
    """acc += coeff * x^mono * column, in place."""
    for c, m, idx in column:
        elem_add_term(acc, idx, coeff * c, mono_mul(mono, m))


def elem_scale_term(elem, coeff, mono):
    """coeff * x^mono * elem as a new Elem."""
    out = {}
    for idx, poly in elem.items():
        out[idx] = {mono_mul(mono, m): coeff * c for m, c in poly.items()}
    return out


def elem_copy(elem):
    return {idx: dict(poly) for idx, poly in elem.items()}


# ---------------------------------------------------------------------------
# the tower of induced module orders

class OrderTower:
    """Monomial orders on the free modules of a resolution chain.

    Level 0 is the ring itself (a free module of rank 1) ordered by wrlo.
    Level k >= 1 is ordered through the differential columns of its basis
    in level k-1: a module monomial m*e_i maps to m * Lm(column_i), compared
    one level down, ties resolved by the larger basis index.  The comparison
    is flattened at construction time into, per basis index, an accumulated
    level-0 monomial and the path of basis indices met during the descent,
    its own index last.  The tower owns the columns, their leading terms and
    the degree shifts; every table is immutable after add_level, so
    concurrent readers are safe.
    """

    def __init__(self, ctx: GradedContext):
        self.ctx = ctx
        self.acc = [[ctx.unit()]]   # acc[level][idx]: level-0 monomial
        self.path = [[(0,)]]        # path[level][idx]: descent indices, idx last
        self.images = [None]        # images[level][idx]: column one level down
        self.lms = [None]           # lms[level][idx]: images[level][idx][0]
        self.shifts = [[0]]         # shifts[level][idx]: degree of acc[level][idx]

    @property
    def levels(self):
        return len(self.acc)

    def key(self, level, mono, idx):
        """Sortable key for the module monomial x^mono * e_idx at a level."""
        return (
            wrlo_key(mono_mul(mono, self.acc[level][idx]), self.ctx),
            self.path[level][idx],
        )

    def leading_module_term(self, elem, level):
        """(coefficient, monomial, basis index) of the largest term."""
        if not elem:
            raise ZeroElementError("leading term of zero module element")
        best = None
        best_key = None
        for idx, poly in elem.items():
            for mono, coeff in poly.items():
                k = self.key(level, mono, idx)
                if best_key is None or k > best_key:
                    best_key = k
                    best = (coeff, mono, idx)
        return best

    def add_level(self, elems):
        """Append the order induced by the next level's differential columns.

        ``elems`` are nonzero Elems of the current top level.  Each term is
        keyed once; each Elem is stored as a column, its first term is its
        leading term, whose coefficient must be +-1, and the degree part
        of its keys, which must be one value, is its shift.  Nothing is
        appended when a column is refused.
        """
        level = self.levels - 1
        images, acc, path, shifts = [], [], [], []
        for j, elem in enumerate(elems):
            keyed = sorted(
                ((self.key(level, mono, idx), (coeff, mono, idx))
                 for idx, poly in elem.items() for mono, coeff in poly.items()),
                reverse=True,
            )
            if not keyed:
                raise ZeroElementError(f"zero differential column {j + 1} in degree {level + 1}")
            # keys order by degree first, so the first and last terms bound it
            degree = keyed[0][0][0][0]
            if keyed[-1][0][0][0] != degree:
                raise InternalError(
                    f"inhomogeneous differential column {j + 1} in degree {level + 1}"
                )
            column = tuple(term for _, term in keyed)
            coeff, mono, p = column[0]
            if coeff not in (1, -1):
                raise InternalError(f"leading coefficient {coeff} of image {j + 1} is not a unit")
            images.append(column)
            acc.append(mono_mul(mono, self.acc[level][p]))
            path.append(self.path[level][p] + (j,))
            shifts.append(degree)
        self.acc.append(acc)
        self.path.append(path)
        self.images.append(images)
        self.lms.append([column[0] for column in images])
        self.shifts.append(shifts)


# ---------------------------------------------------------------------------
# division and S-vectors

def divide(g, tower: OrderTower, level):
    """Standard expression g = sum q_i * image_i + remainder at a level.

    The images are tower.images[level + 1].  At every step the current
    leading term is reduced by the lowest-index image whose stored leading
    term divides it; irreducible leading terms move to the remainder.
    Quotients are plain polynomials; every leading coefficient is +-1, its
    own inverse, so all coefficients stay in Z.
    """
    basis = tower.images[level + 1]
    basis_lts = tower.lms[level + 1]
    quotients = [{} for _ in basis]
    remainder = {}
    work = elem_copy(g)
    while work:
        coeff, mono, idx = tower.leading_module_term(work, level)
        for bi, (bc, bm, bidx) in enumerate(basis_lts):
            if bidx == idx and mono_divides(bm, mono):
                q = coeff * bc
                qm = mono_div(mono, bm)
                poly_add_term(quotients[bi], q, qm)
                elem_combine(work, basis[bi], -q, qm)
                break
        else:
            elem_add_term(remainder, idx, coeff, mono)
            elem_add_term(work, idx, -coeff, mono)
    return quotients, remainder


def s_cofactor(tower: OrderTower, level, i, j):
    """m_ji = Lc(f_i) * LCM(Lm f_i, Lm f_j) / Lm f_i for the images f_i, f_j
    in tower.images[level + 1], or None when their leading terms sit on
    different basis elements (the least common multiple is zero).
    """
    ci, mi, ii = tower.lms[level + 1][i]
    _, mj, ij = tower.lms[level + 1][j]
    if ii != ij:
        return None
    return ci, mono_div(mono_lcm(mi, mj), mi)


def s_vector(tower: OrderTower, level, i, j):
    """(S, m_ji, m_ij) with S = m_ji*f_i - m_ij*f_j cancelling the leading
    terms of the images f_i, f_j (cofactors as in s_cofactor), or None when
    those sit on different basis elements.
    """
    m_ji = s_cofactor(tower, level, i, j)
    if m_ji is None:
        return None
    m_ij = s_cofactor(tower, level, j, i)
    images = tower.images[level + 1]
    s = {}
    elem_combine(s, images[i], m_ji[0], m_ji[1])
    elem_combine(s, images[j], -m_ij[0], m_ij[1])
    return s, m_ji, m_ij


# ---------------------------------------------------------------------------
# text format

def _term_str(coeff, mono, suffix=""):
    factors = []
    for v, e in enumerate(mono):
        if e == 0:
            continue
        factors.append(f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}")
    c = abs(coeff)
    if c != 1 or not factors:
        factors.insert(0, str(c))
    return "*".join(factors) + suffix


def elem_str(column, level):
    """Render a column in its stored order, e[k,j] 1-based.

    Level 0 is the ring itself, so its single basis element is left implicit.
    """
    if not column:
        return "0"
    out = []
    for coeff, mono, idx in column:
        sep = "" if not out else (" + " if coeff > 0 else " - ")
        if not out and coeff < 0:
            sep = "-"
        suffix = "" if level == 0 else f"·e[{level},{idx + 1}]"
        out.append(sep + _term_str(coeff, mono, suffix))
    return "".join(out)
