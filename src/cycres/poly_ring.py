"""Graded polynomial arithmetic and induced module orders.

The lattice ideal lives in Q[x], but every computation here stays in Z:
every differential term carries the sign +-1 of its position, and the order
tower refuses any other, so division and S-vectors never produce a fraction.

Representation conventions (kept deliberately plain for speed):

    monomial   one int, its packed key K (see GradedContext); x^a * x^b
               is K(a) + K(b), x^a / x^b is K(a) - K(b), the unit is 0
    Elem       dict {(monomial, basis index): int}, one entry per term
               c * x^m * e_i, no zero coefficient stored
    position   (sign, monos, targets): term i of every column of one
               level at once, sign * x^monos[j] * e_targets[j] in column
               j, with sign the one +-1 of that merge; a level is its
               positions, in term order, all of one length
    column     column j of a level is entry j of each of its positions,
               in order, strictly decreasing in the module order one
               level down; no column is built as a tuple

Elems are the mutable accumulators (division work and remainders,
S-vectors).  The differential is stored once, as each level's positions,
by the order tower, in the order the build gives its terms in, which
cyc_complex.boundary proves strictly decreasing and the
leading_term_formula check verifies position by position, so a column's
first term is its leading term.  The checks read the positions a whole
list at a time, or entry j of the few they need, and so does the text
output (elem_str).  Only S-vectors, division and d∘d's fallback sum
columns, adding column j straight off a level's positions (elem_combine):
no level is derived as columns.  Only the degree-0 Groebner check
divides, and it reads nothing but the remainder of a degree-0 element by
the degree-0 columns; the divisors are looked up by the support mask of
the term to reduce, in a table that check builds once (divisor_table).
Elements of the degree-0 ring live on basis index 0.
The monomial order is the weighted reverse lexicographic order with positive
integer weights nu: higher weighted degree wins, ties broken by the
rightmost nonzero coordinate of the difference being negative.  Integer
order on packed monomials is exactly that order.  Module orders are induced
level by level through a fixed list of images, with ties broken by the
larger basis index.  Exponent vectors are unpacked only to read input and
to write text; the text of each monomial is rendered once per context
(GradedContext.text) and prefixed with a position's sign once per
position; elem_str hands out a level's term texts and basis suffixes as
pieces, and its caller joins each column's pieces once.
"""

from itertools import compress, count, repeat
from operator import add, and_, lshift, lt, ne, neg, rshift

from .errors import InternalError


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


# ---------------------------------------------------------------------------
# module elements

def elem_combine(acc, positions, j, coeff, mono):
    """acc += coeff * x^mono * column j of a level given as its term
    positions (entry j of each), in place; coeff is nonzero."""
    get = acc.get
    for sign, monos, targets in positions:
        key = (mono + monos[j], targets[j])
        total = get(key, 0) + coeff * sign
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
    (m << bits) + base[i] of x^m * e_i, which keys gives for a whole list
    of terms, is the module order.  The tower owns the differential, stored
    as each level's term positions, one sign +-1 per position, and the
    degree shifts.  Each column is kept in the order boundary emits its
    terms, strictly decreasing, so its first term is its leading term and
    the one record of it.  Every table is immutable once add_level returns.
    Every position of a level has one length, and column j is entry j of
    each; no level is derived as columns, and the sums of columns read the
    positions too (elem_combine).
    """

    def __init__(self, ctx: GradedContext):
        self.ctx = ctx
        self.bits = [0]             # bits[level]: width of the index field
        self.base = [[0]]           # base[level][idx]: key of x^0 * e_idx
        self.positions = [None]     # positions[level]: (sign, monos, targets) per term position
        self.shifts = [[0]]         # shifts[level][idx]: degree of its acc

    @property
    def levels(self):
        return len(self.base)

    def keys(self, level, monos, targets):
        """The keys, as a list, of the terms x^m * e_t of a level, m and t in step."""
        bits, base = self.bits[level], self.base[level]
        return list(map(add, map(lshift, monos, repeat(bits)), map(base.__getitem__, targets)))

    def add_level(self, positions):
        """Append the order induced by the next level's differential.

        ``positions`` hold the next level's columns as term positions, as
        boundary gives them: position i is (sign, monos, targets), and
        term i of column j is sign * x^monos[j] * e_targets[j] on the
        current top level.  Every sign must be +-1, so every coefficient
        of the differential, leads included, is a unit.  Every column's
        terms come in strictly decreasing module order (boundary's
        docstring proves it; the leading_term_formula check keys every
        term).  The positions are stored as given and only the first and
        last are keyed, a whole list at a time.  The first holds the
        leading terms; the degree of the level-0 monomial each reaches is
        its column's shift, and that monomial is base[j] above the index j.
        The last must reach the same degrees, so that in that order the two
        bound every term.  Nothing is appended when the level is refused:
        no position (a zero column), positions of unequal lengths or the
        lowest position with a sign other than +-1, named before anything
        is keyed; or a column whose first and last terms differ in degree,
        with a lead on a lower basis index than the lead before it or with
        an accumulated monomial past the fields, the lowest such column
        named, and of its faults the first in that order.
        """
        level = self.levels - 1
        if not positions:
            raise InternalError(f"zero differential column 1 in degree {level + 1}")
        if len({len(seq) for position in positions for seq in position[1:]}) != 1:
            raise InternalError(f"term positions of unequal lengths in degree {level + 1}")
        for i, (sign, _, _) in enumerate(positions):
            if sign not in (1, -1):
                raise InternalError(
                    f"sign {sign} of term position {i + 1} in degree {level + 1} is not a unit"
                )
        ctx = self.ctx
        acc = list(map(rshift, self.base[level], repeat(self.bits[level])))
        (_, monos, targets), (_, last, at) = positions[0], positions[-1]
        # the level-0 monomials the first and last terms reach, and degrees
        tops = list(map(add, monos, map(acc.__getitem__, targets)))
        ends = map(add, last, map(acc.__getitem__, at))
        # ctx.degree, ceil(mono / 2^shift), as (mono + mask) >> shift
        shifts = list(map(rshift, map(add, tops, repeat(ctx.mask)), repeat(ctx.shift)))
        degrees = map(rshift, map(add, ends, repeat(ctx.mask)), repeat(ctx.shift))
        inhomogeneous = first(map(ne, shifts, degrees))
        falls_back = first(map(lt, targets[1:], targets), 1)
        overflow = first(map(and_, map(neg, tops), repeat(ctx.guard)))
        faults = [j for j in (inhomogeneous, falls_back, overflow) if j is not None]
        if faults:
            j = min(faults)
            if j == inhomogeneous:
                raise InternalError(
                    f"inhomogeneous differential column {j + 1} in degree {level + 1}"
                )
            if j == falls_back:
                raise InternalError(
                    f"leading term of differential column {j + 1} in degree {level + 1} "
                    f"falls back to basis index {targets[j] + 1}"
                )
            raise InternalError(
                f"accumulated monomial of image {j + 1} in degree {level + 1} "
                f"overflows {ctx.width}-bit fields"
            )
        up = (len(tops) - 1).bit_length()
        self.bits.append(up)
        self.base.append(list(map(add, map(lshift, tops, repeat(up)), count())))
        self.positions.append(positions)
        self.shifts.append(shifts)


def first(flags, start=0):
    """The position of the first true flag, counted from ``start``, or None."""
    return next(compress(count(start), flags), None)


# ---------------------------------------------------------------------------
# division and S-vectors

def divisor_table(tower: OrderTower):
    """{support mask: the ascending positions j of the degree-0 columns,
    level 1 of the tower, whose first term (the leading term, entry j of
    the first position) has its support inside that mask}.

    A leading monomial divides x^m only if it is listed under m's support
    (see GradedContext.support), so these are the candidate divisors in
    index order: each position is listed under every superset of its
    support.  Every term of degree 0 sits on basis index 0, so the mask
    alone is the key.
    """
    ctx = tower.ctx
    table = {}
    for j, lead in enumerate(tower.positions[1][0][1]):
        inside = ctx.support(lead)
        free = sub = ctx.guard ^ inside
        while True:
            table.setdefault(inside + sub, []).append(j)
            if not sub:
                break
            sub = (sub - 1) & free
    return table


def divide(g, tower: OrderTower, table):
    """The remainder of the degree-0 element g on division by the degree-0
    columns, level 1 of the tower, whose candidate divisors ``table`` lists
    as divisor_table(tower) builds it.

    At level 0 the module key of a term is its monomial, so the leading
    term of the work is max(work).  At every step it is reduced by the
    lowest-index column whose leading term, its first, divides it, taken
    from the candidates listed under its support, and the column is added
    straight off the level's term positions; an irreducible leading term
    moves to the remainder.  Every leading coefficient is +-1, its own
    inverse, so all coefficients stay in Z.  The leading terms met strictly
    decrease, so each key of the remainder is written once; a step that
    breaks this (a column whose first term is not its largest) raises
    InternalError naming the column divided by, instead of looping.
    """
    positions = tower.positions[1]
    sign, leads, _ = positions[0]
    support, guard = tower.ctx.support, tower.ctx.guard
    remainder = {}
    work = dict(g)
    reduced = None  # the monomial the last step reduced by column bi
    while work:
        lead = max(work)
        mono, coeff = lead[0], work[lead]
        if reduced is not None and mono >= reduced:
            raise InternalError(
                f"division at level 0 does not descend: image {bi + 1} "
                f"left a leading term at or above the one it reduced"
            )
        for bi in table.get(support(mono), ()):
            bm = leads[bi]
            if not (bm - mono) & guard:
                elem_combine(work, positions, bi, -coeff * sign, mono - bm)
                reduced = mono
                break
        else:
            # moving the leading term away leaves only smaller ones
            remainder[lead] = coeff
            del work[lead]
            reduced = None
    return remainder


def s_cofactor(tower: OrderTower, level, i, j):
    """m_ji = Lc(f_i) * LCM(Lm f_i, Lm f_j) / Lm f_i for the columns f_i, f_j
    of tower.positions[level + 1], or None when their leading terms sit on
    different basis elements (the least common multiple is zero).  Reads
    entries i and j of the first position, which holds the leading terms.
    """
    sign, monos, targets = tower.positions[level + 1][0]
    if targets[i] != targets[j]:
        return None
    return sign, tower.ctx.cofactor(monos[i], monos[j])


def s_vector(tower: OrderTower, level, i, j):
    """S = m_ji*f_i - m_ij*f_j, cancelling the leading terms of the columns
    f_i, f_j of tower.positions[level + 1] (cofactors as in s_cofactor),
    each added straight off the positions, or None when those leading terms
    sit on different basis elements.
    """
    m_ji = s_cofactor(tower, level, i, j)
    if m_ji is None:
        return None
    m_ij = s_cofactor(tower, level, j, i)
    positions = tower.positions[level + 1]
    s = {}
    elem_combine(s, positions, i, m_ji[0], m_ji[1])
    elem_combine(s, positions, j, -m_ij[0], m_ij[1])
    return s


# ---------------------------------------------------------------------------
# text format

def term_tails(level, size, prefix="·e["):
    """The text that follows a term's monomial, by basis index, for ``size``
    basis elements of a level: ·e[level,j], j 1-based, with ``prefix`` in
    place of "·e[" (export_json passes it JSON-escaped).  Level 0 is the
    ring itself, so its single basis element is left implicit."""
    if not level:
        return [""] * size
    head = f"{prefix}{level},"
    return [f"{head}{j}]" for j in range(1, size + 1)]


def elem_str(positions, tails, ctx: GradedContext):
    """The pieces of one level's column texts, given as its term positions
    (see OrderTower.add_level): a list of two iterators per position, the
    text of each column's term there and its tail, so that column j's text
    is the join of entry j of every piece, in order, rendered when asked
    for.  Each term renders as its position's sign, its monomial's text
    (ctx.text, "1" for the unit) and then tails[basis index] (see
    term_tails), in the stored order.  Each position renders its sign and
    monomial once per distinct monomial; the first position carries its
    sign alone, "-" or nothing, and the others " - " or " + ".  The caller
    zips the pieces with whatever surrounds each text, so a column is
    joined once."""
    parts = []
    for i, (sign, monos, targets) in enumerate(positions):
        head = (" + " if sign > 0 else " - ") if i else ("" if sign > 0 else "-")
        text = {mono: head + (ctx.text(mono) or "1") for mono in set(monos)}
        parts += map(text.__getitem__, monos), map(tails.__getitem__, targets)
    return parts
