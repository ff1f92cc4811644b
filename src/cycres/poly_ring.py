"""Graded polynomial arithmetic and induced module orders.

The lattice ideal lives in Q[x], but every computation here stays in Z:
every differential coefficient is +-1 and the order tower refuses any other
leading coefficient, so division and S-vectors never produce a fraction.

Representation conventions (kept deliberately plain for speed):

    monomial   one int, its packed key K (see GradedContext); x^a * x^b
               is K(a) + K(b), x^a / x^b is K(a) - K(b), the unit is 0
    Elem       dict {(monomial, basis index): int}, one entry per term
               c * x^m * e_i, no zero coefficient stored
    column     tuple of (coeff, monomial, basis index) terms, strictly
               decreasing in the module order one level down

Elems are the mutable accumulators (division work and remainders,
S-vectors); each differential column is stored once, as a column, by the
order tower, in the order the build gives its terms in, which
cyc_complex.boundary proves strictly decreasing and the
leading_term_formula check verifies term by term.  So a column's first
term is its leading term, and the leading term of an S-vector is read off
its two columns without building it.  The quotients of a division form
one Elem a level up, on the basis indices of the columns divided by;
divisors are looked up by the support mask of the term to reduce, in the
one table the tower builds lazily.
Elements of the degree-0 ring live on basis index 0.
The monomial order is the weighted reverse lexicographic order with positive
integer weights nu: higher weighted degree wins, ties broken by the
rightmost nonzero coordinate of the difference being negative.  Integer
order on packed monomials is exactly that order.  Module orders are induced
level by level through a fixed list of images, with ties broken by the
larger basis index.  Exponent vectors are unpacked only to read input and
to write text; the text of each signed term is rendered once per context
(TermText) and joined with per-level basis suffixes by elem_str.
"""

from weakref import ref

from .errors import InternalError, ZeroElementError


class GradedContext:
    """The weights nu and the packing of monomials into ints.

    With fields of w = ``width`` bits and s = n*w, the exponent vector e is
    the int K(e) = deg(e)*2^s - sum_i e_i*2^(w*(i-1)).  The top bit of each
    field is a guard, clear in every packed monomial, so an exponent is at
    most ``cap`` = 2^(w-1) - 1.  K is additive, and integer order on K is the
    weighted reverse lexicographic order: the degree decides first, then
    the exponent of x_n (smaller wins), then x_(n-1), and so on.
    """

    def __init__(self, n, nu, width):
        w = width
        if len(nu) != n or w < 1:
            raise InternalError(f"no packing of {len(nu)} weights into {w}-bit fields")
        self.n = n
        self.nu = nu                    # positive integer weights, gcd 1
        self.width = w
        self.cap = (1 << (w - 1)) - 1
        self.shift = n * w              # s = n * width
        self.mask = (1 << (n * w)) - 1  # the exponent part, 2^s - 1
        # the top bit of every field, and 2^(w-1) - 1 in every field
        self.guard = sum(1 << (w * i + w - 1) for i in range(n))
        self.ones = self.guard - sum(1 << (w * i) for i in range(n))
        self.variables = tuple(         # x_1, ..., x_n packed
            (v << (n * w)) - (1 << (w * i)) for i, v in enumerate(nu)
        )
        self._text = {}
        self._cofactors = {}
        self.terms = TermText(self)

    @classmethod
    def holding(cls, nu, degree):
        """The narrowest context holding every monomial of weighted degree
        at most ``degree`` (x_i^(degree // nu_i) is the widest of them)."""
        cap = max(degree // w for w in nu)
        return cls(len(nu), tuple(nu), cap.bit_length() + 1)

    def pack(self, exps):
        """The key of an exponent vector; InternalError past ``cap``."""
        if len(exps) != self.n:
            raise InternalError(
                f"exponent vector {tuple(exps)} does not fit {self.n} {self.width}-bit fields"
            )
        return sum(self.power(i, e) for i, e in enumerate(exps))

    def power(self, i, e):
        """The key of x_(i+1)^e; InternalError past ``cap``."""
        if not 0 <= e <= self.cap:
            raise InternalError(f"exponent {e} of x{i + 1} does not fit {self.width}-bit fields")
        return e * self.variables[i]

    def unpack(self, mono):
        low, w, cap = -mono & self.mask, self.width, self.cap
        return tuple((low >> (w * i)) & cap for i in range(self.n))

    def degree(self, mono):
        return -(-mono >> self.shift)

    def divides(self, a, b):
        """True when x^a divides x^b: no field of b - a borrows."""
        return not (a - b) & self.guard

    def support(self, mono):
        """The guard bits of the fields where mono's exponent is nonzero:
        x^a divides x^b only if support(a) lies inside support(b)."""
        # a field e in [0, cap] plus cap carries into its guard bit iff e > 0
        return ((-mono & self.mask) + self.ones) & self.guard

    def cofactor(self, a, b):
        """x^lcm(a,b) / x^a, that is x^max(b - a, 0) field by field; each
        distinct pair of the context is computed once."""
        out = self._cofactors.get((a, b))
        if out is None:
            guard, w = self.guard, self.width
            # every field of t is 2^(w-1) + b_i - a_i in [1, 2^w - 1]: no
            # borrow, and its guard bit is set exactly where b_i >= a_i
            t = ((-b & self.mask) | guard) - (-a & self.mask)
            keep = t & guard
            low = t & (keep - (keep >> (w - 1)))
            degree, rest, cap = 0, low, self.cap
            for v in self.nu:
                degree += v * (rest & cap)
                rest >>= w
            out = self._cofactors[a, b] = (degree << self.shift) - low
        return out

    def text(self, mono):
        """x1*x3^2 style text of a monomial, "" for the unit; each distinct
        monomial of the context is rendered once."""
        out = self._text.get(mono)
        if out is None:
            out = self._text[mono] = "*".join(
                f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}"
                for v, e in enumerate(self.unpack(mono))
                if e
            )
        return out


class TermText(dict):
    """The text of each signed term c*x^m of one context by (c, m), with the
    separator before it: " + x1*x3^2", " - 2*x4", " + 1".  Each is rendered
    once, when first asked for.  The context holds this table, so the table
    holds the context weakly and leaves no reference cycle."""

    def __init__(self, ctx: GradedContext):
        super().__init__()
        self.ctx = ref(ctx)

    def __missing__(self, term):
        coeff, mono = term
        text = self.ctx().text(mono)
        if coeff not in (1, -1):
            text = f"{abs(coeff)}*{text}" if text else str(abs(coeff))
        elif not text:
            text = "1"
        out = self[term] = f"{' + ' if coeff > 0 else ' - '}{text}"
        return out


# ---------------------------------------------------------------------------
# module elements

def elem_combine(acc, column, coeff, mono):
    """acc += coeff * x^mono * column, in place; coeff is nonzero."""
    get = acc.get
    for c, m, idx in column:
        key = (mono + m, idx)
        total = get(key, 0) + coeff * c
        if total:
            acc[key] = total
        else:
            del acc[key]


# ---------------------------------------------------------------------------
# the tower of induced module orders

class OrderTower:
    """Monomial orders on the free modules of a resolution chain.

    Level 0 is the ring itself (a free module of rank 1) ordered by wrlo.
    Level k >= 1 is ordered through the differential columns of its basis
    in level k-1: a module monomial m*e_i maps to m * Lm(column_i), compared
    one level down, ties resolved by the larger basis index.  The comparison
    is flattened at construction time into one int per basis index,
    base = (acc << bits) + idx, from the level-0 monomial acc the descent
    reaches and the index itself: a level is accepted only if the basis
    indices of its leading terms never fall along it, so the lists of indices
    met on the way order as the indices do, and integer order on the keys
    (m << bits) + base[i] of x^m * e_i is the module order.  The tower owns
    the columns and the degree shifts.  Each column is kept as boundary
    emits it, strictly decreasing, so its first term is its leading term
    and the one record of it.  Every table is immutable after add_level.
    The one table built lazily is the divisor table of a level (see
    divisors), on the first division there; it reads the first terms.
    """

    def __init__(self, ctx: GradedContext):
        self.ctx = ctx
        self.bits = [0]             # bits[level]: width of the index field
        self.base = [[0]]           # base[level][idx]: key of x^0 * e_idx
        self.images = [None]        # images[level][idx]: column one level down, lead first
        self.shifts = [[0]]         # shifts[level][idx]: degree of its acc
        self._divisors = {}         # level: its divisor table, on first use

    @property
    def levels(self):
        return len(self.base)

    def key(self, level, mono, idx):
        """The int key of the module monomial x^mono * e_idx at a level."""
        return (mono << self.bits[level]) + self.base[level][idx]

    def leading_module_term(self, elem, level):
        """(coefficient, monomial, basis index) of the largest term."""
        if not elem:
            raise ZeroElementError("leading term of zero module element")
        bits, base = self.bits[level], self.base[level]
        mono, idx = max(elem, key=lambda t: (t[0] << bits) + base[t[1]])
        return elem[mono, idx], mono, idx

    def divisors(self, level):
        """{(idx << shift) + support mask: the ascending positions j of the
        columns in images[level + 1] whose first term (the leading term) is
        on e_idx with its support inside that mask}, built on first use.

        A leading term divides x^m * e_idx only if it is listed under m's
        support (see GradedContext.support), so these are the candidate
        divisors in index order: each position is listed under every
        superset of its support.
        """
        table = self._divisors.get(level)
        if table is None:
            ctx = self.ctx
            table = self._divisors[level] = {}
            for j, (_, mono, idx) in enumerate(f[0] for f in self.images[level + 1]):
                inside = ctx.support(mono)
                free = ctx.guard ^ inside
                key, sub = (idx << ctx.shift) + inside, free
                while True:
                    table.setdefault(key + sub, []).append(j)
                    if not sub:
                        break
                    sub = (sub - 1) & free
        return table

    def add_level(self, columns):
        """Append the order induced by the next level's differential columns.

        ``columns`` hold, per basis element of the next level, its image as
        a sequence of (coeff, monomial, basis index) terms of the current
        top level, in strictly decreasing module order as boundary emits
        them (its docstring proves the order; the leading_term_formula check
        keys every term).  Each column is stored as given, as a tuple, and
        only its first and last terms are keyed.  The first is its leading
        term, whose coefficient must be +-1; the degree of the level-0
        monomial it reaches is the shift, and that monomial is base[j] above
        the index j.  The last must reach the same degree, so that in that
        order the two bound every term.  Nothing is appended when a column
        is refused: an empty one, one whose first and last terms differ in
        degree, a non-unit lead, a lead on a lower basis index than the lead
        before it or an accumulated monomial past the fields.
        """
        level = self.levels - 1
        bits, below = self.bits[level], self.base[level]
        degree_of, guard = self.ctx.degree, self.ctx.guard
        images, tops, shifts = [], [], []
        target = 0
        for j, column in enumerate(columns):
            if not column:
                raise ZeroElementError(f"zero differential column {j + 1} in degree {level + 1}")
            column = tuple(column)
            (coeff, mono, idx), (_, last, at) = column[0], column[-1]
            # the level-0 monomials the first and last terms reach
            top = mono + (below[idx] >> bits)
            degree = degree_of(top)
            if degree_of(last + (below[at] >> bits)) != degree:
                raise InternalError(
                    f"inhomogeneous differential column {j + 1} in degree {level + 1}"
                )
            if coeff not in (1, -1):
                raise InternalError(f"leading coefficient {coeff} of image {j + 1} is not a unit")
            if idx < target:
                raise InternalError(
                    f"leading term of differential column {j + 1} in degree {level + 1} "
                    f"falls back to basis index {idx + 1}"
                )
            target = idx
            if -top & guard:
                raise InternalError(
                    f"accumulated monomial of image {j + 1} in degree {level + 1} "
                    f"overflows {self.ctx.width}-bit fields"
                )
            images.append(column)
            tops.append(top)
            shifts.append(degree)
        up = (len(tops) - 1).bit_length()
        base = [(top << up) + j for j, top in enumerate(tops)]
        self.bits.append(up)
        self.base.append(base)
        self.images.append(images)
        self.shifts.append(shifts)


# ---------------------------------------------------------------------------
# division and S-vectors

def divide(g, tower: OrderTower, level):
    """(quotient, remainder) of the standard expression
    g = sum q_i * image_i + remainder at a level.

    The images are tower.images[level + 1].  At every step the current
    leading term is reduced by the lowest-index image whose leading term,
    its first, divides it, taken from the candidates tower.divisors lists
    under its support; irreducible leading terms move to the remainder.
    The quotient is one Elem a level up, {(monomial, i): q_i's
    coefficient}.  Every leading coefficient is +-1, its own inverse, so
    all coefficients stay in Z.  The leading terms met strictly decrease,
    so each key of the quotient and of the remainder is written once; a
    step that breaks this (a column whose first term is not its largest)
    raises InternalError naming the level and the image divided by,
    instead of looping.
    """
    basis = tower.images[level + 1]
    candidates = tower.divisors(level)
    support, guard, shift = tower.ctx.support, tower.ctx.guard, tower.ctx.shift
    bits, base = tower.bits[level], tower.base[level]
    quotient, remainder = {}, {}
    work = dict(g)
    reduced = None  # the key of the term the last step reduced by image bi
    while work:
        coeff, mono, idx = tower.leading_module_term(work, level)
        key = (mono << bits) + base[idx]
        if reduced is not None and key >= reduced:
            raise InternalError(
                f"division at level {level} does not descend: image {bi + 1} "
                f"left a leading term at or above the one it reduced"
            )
        for bi in candidates.get((idx << shift) + support(mono), ()):
            bc, bm, _ = basis[bi][0]
            if not (bm - mono) & guard:
                q = coeff * bc
                qm = mono - bm
                quotient[qm, bi] = q
                elem_combine(work, basis[bi], -q, qm)
                reduced = key
                break
        else:
            # moving the leading term away leaves only smaller ones
            remainder[mono, idx] = coeff
            del work[mono, idx]
            reduced = None
    return quotient, remainder


def s_cofactor(tower: OrderTower, level, i, j):
    """m_ji = Lc(f_i) * LCM(Lm f_i, Lm f_j) / Lm f_i for the images f_i, f_j
    in tower.images[level + 1], or None when their leading terms sit on
    different basis elements (the least common multiple is zero).
    """
    ci, mi, ii = tower.images[level + 1][i][0]
    _, mj, ij = tower.images[level + 1][j][0]
    if ii != ij:
        return None
    return ci, tower.ctx.cofactor(mi, mj)


def s_leading_key(tower: OrderTower, level, i, j, m_ji, m_ij):
    """The int key of Lt(S) for S = m_ji*f_i - m_ij*f_j, the images f_i, f_j
    in tower.images[level + 1] and their cofactors as s_cofactor gives them,
    or None when S = 0.  S itself is not built.

    Both columns are stored in strictly decreasing key order (the
    leading_term_formula check proves it), and multiplying by x^m adds
    m << bits to every key, so the two are walked together from the top:
    the first key whose terms do not cancel is Lt(S).
    """
    bits, base = tower.bits[level], tower.base[level]
    f_i, f_j = tower.images[level + 1][i], tower.images[level + 1][j]
    (ci, mi), (cj, mj) = m_ji, m_ij
    up_i, up_j = mi << bits, mj << bits
    for (a, ma, ia), (b, mb, ib) in zip(f_i, f_j):
        ka = up_i + (ma << bits) + base[ia]
        kb = up_j + (mb << bits) + base[ib]
        if ka != kb:
            return max(ka, kb)
        if ci * a != cj * b:
            return ka
    # every term of the shorter column cancelled: the longer one's next
    # term leads, if there is one
    common = min(len(f_i), len(f_j))
    for column, up in ((f_i, up_i), (f_j, up_j)):
        if len(column) > common:
            _, mono, idx = column[common]
            return up + (mono << bits) + base[idx]
    return None


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

def term_tails(level, size):
    """The text that follows a term's monomial, by basis index, for ``size``
    basis elements of a level: ·e[level,j], j 1-based.  Level 0 is the ring
    itself, so its single basis element is left implicit."""
    if not level:
        return [""] * size
    return [f"·e[{level},{j}]" for j in range(1, size + 1)]


def elem_str(column, tails, ctx: GradedContext):
    """Render a column in its stored order, each term's text (ctx.terms)
    followed by tails[basis index] (see term_tails)."""
    if not column:
        return "0"
    terms, out = ctx.terms, []
    for coeff, mono, idx in column:
        out += terms[coeff, mono], tails[idx]
    text = "".join(out)
    # the first term carries its sign alone
    return text[3:] if column[0][0] > 0 else "-" + text[3:]
