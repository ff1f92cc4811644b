"""Machine verification of the structural claims on a built complex.

Each check returns (ok, witness, counters); on failure the witness names
the first fault found.  full_verify is the one place that names and times
the checks, chaining them into a VerificationReport of CheckResults without
aborting early.  The exactness oracle at the end (graded_homology_oracle)
proves exactness in every degree from the leads of the stored columns, by
one identity of K-polynomials per level, and under a degree bound ranks
graded pieces over Q from the lowest degree where the lead count falls
short.  Either way its verdict rests on the d_squared check: equal
dimensions prove exactness only where d∘d = 0.
"""

import time
from collections import Counter
from itertools import compress, count, islice, repeat
from operator import add, eq, ge, gt, itemgetter, lshift, ne, rshift, sub

from .errors import InternalError, ValidationError
from .graph_core import classify
from .cyc_complex import (
    CycComplex,
    check_d_squared,
    check_leading_terms,
    merge,
    minimality_check,
    vertices,
)
from .intlinalg import rank_sparse
from .poly_ring import (
    GradedContext,
    divide,
    divisor_table,
    elem_combine,
    first,
    s_cofactor,
    s_vector,
)


class CheckResult:
    def __init__(self, name, ok, witness, counters, millis=0):
        self.name = name
        self.ok = ok
        self.witness = witness
        self.counters = counters
        self.millis = millis


class VerificationReport:
    def __init__(self, instance, checks):
        self.instance = instance
        self.checks = checks

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def to_text(self):
        lines = [f"instance: {self.instance}"]
        for c in self.checks:
            extra = ""
            if c.counters:
                extra = " (" + ", ".join(f"{k}={v}" for k, v in sorted(c.counters.items())) + ")"
            wit = "" if c.ok or c.witness is None else f"  witness: {c.witness}"
            lines.append(f"{'PASS' if c.ok else 'FAIL'}  {c.name}{extra} [{c.millis} ms]{wit}")
        lines.append("result: " + ("all checks passed" if self.passed else "FAILURES PRESENT"))
        return "\n".join(lines)

    def to_json_dict(self):
        checks = []
        for c in self.checks:
            rec = {"name": c.name, "status": "pass" if c.ok else "fail", "millis": c.millis}
            if c.witness is not None:
                rec["witness"] = str(c.witness)
            if c.counters:
                rec["counters"] = c.counters
            checks.append(rec)
        return {"instance": self.instance, "checks": checks}


def partition_str(p):
    # the largest mask holds the highest vertex
    sep = "" if max(p).bit_length() <= 9 else "."
    return "(" + ",".join(sep.join(map(str, vertices(b))) for b in p) + ")"


# ---------------------------------------------------------------------------
# degree-0 checks

def s_poly_closed_form(C, D, complex_: CycComplex):
    """(S, l_cd, l_dc, heads): the S-polynomial of the degree-0 columns of
    two subsets by the set-splitting identity, S = l_cd * f_F - l_dc * f_G,
    its two monomial coefficients, and the leading terms of its pieces
    l_cd * f_F and l_dc * f_G, as (monomial, basis index) pairs.

    Splits the subsets into E = C&D, F = C-E, G = D-E, V = complement of the
    union, and combines the degree-0 columns f_F and f_G of F and G, each
    looked up once and added straight off level 1's term positions, with
    explicit monomial coefficients; a piece whose subset is empty is left
    out.  l_cd is x^(a(E,G) - a(E,F))^+ * a(F,G) * a(V,D), for the arrow
    monomials a of block pairs, and l_dc the same with C, F and D, G
    swapped.  The arrow monomials from E hold only E's variables, so the
    positive part of their quotient, taken field by field, is the cofactor
    of the two (ctx.cofactor).  The heads are read off the first position,
    which holds the leading terms, with no leading-term computation.
    """
    arrows, cofactor, positions = complex_.arrows, complex_.ctx.cofactor, complex_.positions[1]
    _, leads, on = positions[0]
    full = (1 << complex_.n) - 1
    E, F, G, V = C & D, C & ~D, D & ~C, full & ~(C | D)
    l_cd = cofactor(arrows[E, F], arrows[E, G]) + arrows[F, G] + arrows[V, D]
    l_dc = cofactor(arrows[E, G], arrows[E, F]) + arrows[G, F] + arrows[V, C]
    out, heads = {}, []
    for piece, mono, coeff in ((F, l_cd, 1), (G, l_dc, -1)):
        if piece:
            f = complex_.index[1][piece, full ^ piece]
            elem_combine(out, positions, f, coeff, mono)
            heads.append((mono + leads[f], on[f]))
    return out, l_cd, l_dc, heads


def verify_degree0_gb(C: CycComplex):
    """Buchberger criterion plus the closed-form S-polynomial identity.

    For every pair i < j of level 1 the S-vector S of the stored columns
    must equal the closed form (s_poly_closed_form); the two closed-form
    pieces lead on different monomials, so the larger of their leading
    terms must be Lt(S), read off the S just built: at level 0 the module
    key of a term is its monomial, so Lt(S) is max(S), and nothing is
    keyed; and S must divide to remainder 0 by the degree-0 columns.  A
    division that does not descend (a column whose first term is not its
    largest) fails the pair it divides, as a remainder would.  Counts the
    pairs divided.
    """
    tower, blocks = C.tower, [p[0] for p in C.bases[1]]
    table = divisor_table(tower)
    pairs = 0
    for i, ci in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            cj = blocks[j]
            s = s_vector(tower, 0, i, j)
            if s is None:
                return False, f"no S-pair for ({i + 1},{j + 1})", {"pairs": pairs}
            formula, _, _, heads = s_poly_closed_form(ci, cj, C)
            if s != formula:
                return False, (
                    f"closed form mismatch for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
            if max(heads) != max(s, default=None):
                return False, (
                    f"leading bound fails for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
            try:
                rem = divide(s, tower, table)
            except InternalError as err:
                return False, f"{err}, for C, D = {partition_str((ci, cj))}", {"pairs": pairs}
            pairs += 1
            if rem:
                return False, (
                    f"nonzero remainder for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
    return True, None, {"pairs": pairs}


def verify_distinct_images(C: CycComplex):
    """Differential images of basis elements are pairwise distinct, per level.

    The terms of a level at one position share its sign, so two columns are
    equal exactly when their entries are, position by position: each column
    is compared as the tuple of its monomials and targets.  Only the hash
    of each tuple is kept, mapped to the column's position, or to the list
    of positions whose tuples share it; a column whose hash is held is
    compared exactly with each of those, and the witness is the first
    column equal to an earlier one, with that one."""
    for k in range(1, C.n):
        seqs = [seq for _, monos, targets in C.positions[k] for seq in (monos, targets)]
        seen = {}
        for j, f in enumerate(zip(*seqs)):
            h = hash(f)
            held = seen.get(h)
            if held is None:
                seen[h] = j
                continue
            if type(held) is int:
                held = seen[h] = [held]
            for i in held:
                if f == tuple(seq[i] for seq in seqs):
                    return False, f"equal images at level {k}: {i + 1}, {j + 1}", {}
            held.append(j)
    return True, None, {}


def verify_colon_stability(C: CycComplex):
    """I : x_n = I for the ideal I of the degree-0 columns, exactly.

    The verdict rests on degree0_groebner, which proves those columns a
    Groebner basis G under weighted revlex with x_n last.  If no leading
    term of G involves x_n, then Lt(g) | x_n * x^m implies Lt(g) | x^m, so
    in(I : x_n) = in(I) and hence I : x_n = I (Bayer-Stillman; Eisenbud,
    Prop. 15.12).  Counts the leading terms examined.
    """
    n, ctx = C.n, C.ctx
    xn = ctx.pack([0] * (n - 1) + [1])
    leads = C.positions[1][0][1]
    for j, lead in enumerate(leads, 1):
        if ctx.divides(xn, lead):
            return False, f"x{n} divides leading term of generator {j}", {"leading_terms": j}
    return True, None, {"leading_terms": len(leads)}


# ---------------------------------------------------------------------------
# module quotients and Schreyer structure

def sibling_runs(C: CycComplex, k):
    """The sibling runs of two positions or more of level k, as ranges of
    its positions in order, found from the prefixes p[:k-1] of its
    partitions p, two neighbours at a time.  Each level is built by
    splitting the last block of every partition one level down (see
    cyc_complex.enumerate_basis), so the positions split from one
    partition stand together, and they are the positions with its first
    k-1 blocks.  A position alone in its run has no source (see
    quotient_sources), so it has no quotient and no retained pair."""
    basis, prefix = C.bases[k], itemgetter(slice(0, k - 1))
    splits = map(ne, map(prefix, islice(basis, 1, None)), map(prefix, basis))
    starts = [0, *compress(count(1), splits), len(basis)]
    stops = starts[1:]
    return list(compress(map(range, starts, stops), map(gt, map(sub, stops, starts), repeat(1))))


def quotient_sources(C: CycComplex, k, run):
    """Yield (i, [(j, retained), ...]) for every level-k position i of a
    sibling run (see sibling_runs), in order.

    The sources are the positions j < i of the run, those with the same
    first k-1 blocks; j is retained when its k-th block contains that of i
    (two such blocks differ).  The sources of each position depend on the
    run's k-th blocks alone, and the quotients at them (module_quotients)
    on the run's last two blocks and stored leads: see
    verify_module_quotients for the run key this gives.
    """
    blocks = [C.bases[k][i][k - 1] for i in run]
    for m, (i, ik) in enumerate(zip(run, blocks)):
        yield i, [(j, ik & ~jk == 0) for j, jk in zip(run, blocks[:m])]


def _readable(C: CycComplex, term):
    """A (coefficient, monomial) term, or None, with its exponent vector
    spelled out."""
    return term and (term[0], C.ctx.unpack(term[1]))


def module_quotients(C: CycComplex, k, i, sources):
    """(gens, witness): the generators (j, coeff, mono, pruned) of the colon
    ideal of leading terms at the sources (j, retained) of position i, as
    quotient_sources gives them, and None; or None and the first fault.

    Computes each quotient from the stored leading terms and checks the
    closed product formula: for the last two blocks (j_k, j_k1) of j and
    (i_k, i_k1) of i, the quotient is (-1)^(k-1) times
    x^(a(E,j_k1) - a(E,i_k1))^+ * a(j_k & i_k1, j_k1), for E = j_k & i_k
    and the arrow monomials a of block pairs, and the positive part is the
    cofactor of the two arrow monomials from E (ctx.cofactor).  A pruned
    generator (its source is not retained) must be divisible by a retained
    one.
    """
    basis, tower, arrows, cofactor = C.bases[k], C.tower, C.arrows, C.ctx.cofactor
    ik, ik1 = basis[i][k - 1 :]
    sign = (-1) ** (k - 1)
    gens = []
    for j, retained in sources:
        jk, jk1 = basis[j][k - 1 :]
        E = jk & ik
        direct = s_cofactor(tower, k - 1, i, j)
        expected = (sign, cofactor(arrows[E, ik1], arrows[E, jk1]) + arrows[jk & ik1, jk1])
        if direct != expected:
            return None, (
                f"closed formula mismatch at level {k}, pair ({j + 1},{i + 1}): "
                f"direct {_readable(C, direct)}, formula {_readable(C, expected)}"
            )
        gens.append((j, direct[0], direct[1], not retained))
    kept = [m for _, _, m, pruned in gens if not pruned]
    divides = C.ctx.divides
    for j, _, mono, pruned in gens:
        if pruned and not any(map(divides, kept, repeat(mono))):
            return None, (
                f"superfluous generator {j + 1} at level {k} not divisible "
                f"by a retained one (target {i + 1})"
            )
    return gens, None


def verify_module_quotients(C: CycComplex):
    """module_quotients at every position, one sibling run at a time, with
    no nonzero quotient across prefixes and none at a position whose last
    block is {n} alone.  Counts the generators.

    The quotients at the positions of a run read nothing but the run's last
    two blocks (the closed formula, which sources are retained, the last
    block), its stored leads and their targets, and whether the sign of
    its level's first position is (-1)^(k-1).  So once the leads of a run
    sit on one target, checked for every run, the run key (that sign
    test, the tuple of its last-two-block pairs, the tuple of its lead
    monomials) fixes every quotient of the run up to the shift of its
    positions, whatever its level: a run whose key an earlier run had, on
    its own level or one below, passes as that one did, with as many
    generators, and only the first run of each key is computed, in one
    memo for the whole check.  The memo is exact, and small: on a correct
    complex the key follows from the last block the run was split from,
    which recurs on every level, so the check has at most 2^(n-1) keys,
    and n = 7 computes 6,783 of its 18,303 generators.  A run with leads
    on two targets is computed, and fails there (no cofactor), and so does
    every run of a level whose sign is wrong.
    """
    total, alone, seen = 0, 1 << (C.n - 1), {}
    for k in range(1, C.n):
        basis, prefix = C.bases[k], itemgetter(slice(0, k - 1))
        sign, leads, targets = C.positions[k][0]
        # A quotient is nonzero exactly when the two leading terms share a
        # target, so no pair across prefixes has one if every position shares
        # the prefix of the first position with its target.
        owners = map(basis.__getitem__, map({}.setdefault, targets, count()))
        i = first(map(ne, map(prefix, owners), map(prefix, basis)))
        if i is not None:
            return False, (
                f"nonzero quotient across different prefixes at level {k}: "
                f"{targets.index(targets[i]) + 1}, {i + 1}"
            ), {"generators": total}
        last_two, signed = itemgetter(slice(k - 1, None)), sign == (-1) ** (k - 1)
        for run in sibling_runs(C, k):
            a, b = run.start, run.stop
            key = (signed, tuple(map(last_two, basis[a:b])), tuple(leads[a:b]))
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
                # a run on two targets has failed above: every run kept has one
                seen[key] = gens
            total += gens
    return True, None, {"generators": total}


def verify_tau_level(C: CycComplex, k):
    """Check that every element of level k + 1 is a τ-syzygy, a whole list
    at a time: (ok, witness, {"elements": the elements passed}).

    The column de of an element e (k+2 blocks) must be minus a syzygy that
    records a standard expression of the S-vector S = m_ji*f_i - m_ij*f_j
    of its merge partners, the columns f_i, f_j of level k.  I and J come
    from merge and the index, not from the build's merge_targets, and must
    order J < I; the cofactors m_ji, m_ij from the leads of level k, which
    must share a target, and they must equal their arrow monomials under
    the sign (-1)^(k-1) of level k's first position.  Position 0 of de must
    hold -m_ji on I and position 1 m_ij on J, and no other position either
    partner.  S is not built: Lt(S) is walked for every element at once,
    one position of level k at a time from the top, for the elements whose
    terms have cancelled at every position before.  Both columns strictly
    decrease, so the first position whose two terms do not cancel holds
    Lt(S), the larger of them; both cofactors carry that sign, so the two
    terms at a position cancel exactly when their keys are equal.  Each
    element still walking is keyed once at a position, position 0 like
    every other, by the tower a whole list at a time (OrderTower.keys): its
    two keys go to the comparison and to max, and the larger is kept
    whether or not they cancel, until the element stops.  The first tail
    term, at position 2 (every column has k+2 >= 3 terms), must map one
    level down to Lt(S) exactly; the column's keys strictly decrease (the
    leading_term_formula check), so it bounds the rest.  "tail = S" is
    exactly d(de) = 0, which check_d_squared proves, so it is not summed.

    Each comparison flags the elements it fails, as a whole list, and a
    sign fault flags them all.  The flags fall into six fault classes, in
    the order above; the witness is the lowest element any class flags,
    named by the first class whose own first flag is that element.

    This check owns the lead of every column above level 1: its sign, its
    target I and its monomial m_ji, with m_ji the closed formula's arrow
    monomial and I found by merge and the index, not by the build.
    Neither leading_term_formula (level 1 only) nor schreyer_coverage
    compares it again: the rho image of a retained pair (j, i) merges back
    to i and j, so once coverage has shown rho a bijection, its lead
    comparison would be this one.
    """
    basis, level = C.bases[k + 1], C.positions[k + 1]
    width = len(basis)
    index, arrows, cofactor = C.index[k], C.arrows, C.ctx.cofactor
    I = list(map(index.__getitem__, map(merge, basis, repeat(k))))
    J = list(map(index.__getitem__, map(merge, basis, repeat(k - 1))))
    sign, monos, targets = C.positions[k][0]
    m_ji = list(map(cofactor, map(monos.__getitem__, I), map(monos.__getitem__, J)))
    m_ij = list(map(cofactor, map(monos.__getitem__, J), map(monos.__getitem__, I)))
    (lead_sign, leads, on_i), (second_sign, seconds, on_j), (_, tails, on_tail) = level[:3]

    def term_keys(ms, ts, m, c):
        # x^m times the term (ms, ts) of column c, keyed one level down
        return C.tower.keys(k - 1, map(add, m, map(ms.__getitem__, c)), map(ts.__getitem__, c))

    s_keys = [None] * width
    walking = [range(width), I, J, m_ji, m_ij]
    for _, ms, ts in C.positions[k]:
        elems, ii, jj, mi, mj = walking
        # the larger key goes to s_keys, cancelled or not
        a, b = term_keys(ms, ts, mi, ii), term_keys(ms, ts, mj, jj)
        ended = map(s_keys.__setitem__, elems, map(max, a, b))
        cancel = bytearray(map(itemgetter(0), zip(map(eq, a, b), ended)))
        if not any(cancel):
            break
        if not all(cancel):
            walking = [list(compress(seq, cancel)) for seq in walking]
    else:
        # S = 0 for an element whose terms cancel at every position
        for e in walking[0]:
            s_keys[e] = None
    classes = [
        ("pair order violated for", [map(ge, J, I)]),
        ("no S-pair behind", [
            map(ne, map(targets.__getitem__, I), map(targets.__getitem__, J)),
        ]),
        ("m-coefficients differ at", [
            repeat(sign != (-1) ** (k - 1), width),
            map(ne, m_ji, map(arrows.__getitem__, map(itemgetter(k, k + 1), basis))),
            map(ne, m_ij, map(arrows.__getitem__, map(itemgetter(k - 1, k), basis))),
        ]),
        ("leading component mismatch at", [
            repeat(lead_sign != -sign, width),
            map(ne, leads, m_ji),
            map(ne, on_i, I),
            *(map(eq, on, I) for _, _, on in level[1:]),
        ]),
        ("second component mismatch at", [
            repeat(second_sign != sign, width),
            map(ne, seconds, m_ij),
            map(ne, on_j, J),
            *(map(eq, on, J) for _, _, on in level[2:]),
        ]),
        ("standard-expression bound fails at", [
            map(ne, term_keys(monos, targets, tails, on_tail), s_keys),
        ]),
    ]
    # min keeps the first of equal positions, so the earliest class names it
    found = [(pos, name) for name, flags in classes
             for pos in map(first, flags) if pos is not None]
    if found:
        pos, name = min(found, key=itemgetter(0))
        return False, f"{name} {partition_str(basis[pos])}", {"elements": pos}
    return True, None, {"elements": width}


def verify_tau_identities(C: CycComplex):
    """verify_tau_level for levels 2..n-1, lowest level first.  Counts the
    elements passed: on a failure, those of the levels below and those of
    its level before the witness.
    """
    total = 0
    for k in range(1, C.n - 1):
        ok, witness, counters = verify_tau_level(C, k)
        total += counters["elements"]
        if not ok:
            return False, witness, {"elements": total}
    return True, None, {"elements": total}


def rho_image(C: CycComplex, k, i, j):
    p, q = C.bases[k][i], C.bases[k][j]
    return p[:k] + (q[k - 1] & ~p[k - 1], q[k])


def verify_schreyer_coverage(C: CycComplex, k) -> tuple:
    """Retained generators biject with the next level's basis: no rho image
    is off the basis or met twice, and there are as many as the basis has
    elements.  At the top level every quotient set must be empty.  Counts
    the generators matched.  The lead of each image is verify_tau_level's
    to compare: rho(i, j) has the τ pair (i, j).

    One pass takes the retained pairs (j, i) from the sibling runs in
    order, sends each to its rho image and looks it up, and stops at the
    first pair whose image is off the basis or already met: that pair is
    the witness, off the basis before met twice, and the pairs before it
    are counted.  The retained pairs of a run, as offsets into it, depend
    on its k-th blocks alone, so they are found once for each tuple of
    them."""
    above, index = (C.bases[k + 1], C.index[k + 1]) if k + 1 < C.n else ([], {})
    blocks = list(map(itemgetter(k - 1), C.bases[k]))
    offsets, met, total = {}, bytearray(len(above)), 0
    for run in sibling_runs(C, k):
        a = run.start
        key = tuple(blocks[a:run.stop])
        pairs = offsets.get(key)
        if pairs is None:
            pairs = offsets[key] = [
                (i - a, j - a)
                for i, sources in quotient_sources(C, k, run)
                for j, retained in sources
                if retained
            ]
        for i, j in pairs:
            h = rho_image(C, k, i + a, j + a)
            hi = index.get(h)
            if hi is None:
                witness = f"rho image {partition_str(h)} not a basis element"
                return False, witness, {"generators": total}
            if met[hi]:
                return False, f"rho images collide on {partition_str(h)}", {"generators": total}
            met[hi] = 1
            total += 1
    # every image counted is distinct, so as many as the basis above cover it
    if total != len(above):
        return False, f"generator count {total} != rank {len(above)}", {"generators": total}
    return True, None, {"generators": total}


def verify_coverage_all(C: CycComplex):
    grand = 0
    for k in range(1, C.n):
        ok, witness, counters = verify_schreyer_coverage(C, k)
        if not ok:
            return False, f"level {k}: {witness}", {"generators": grand}
        grand += counters["generators"]
    return True, None, {"generators": grand}


# ---------------------------------------------------------------------------
# independent exactness oracle

def monomials_of_degree(ctx: GradedContext, d):
    """All monomials with the given weighted degree, as sums of packed
    variables, in the order of their exponent vectors read
    lexicographically.  The caller makes sure the packing holds degree d."""
    if d < 0:
        return []
    (*nu, v), (*xs, x) = ctx.nu, ctx.variables
    # (degree left, monomial so far), one variable at a time
    partial = [(d, 0)]
    for v_i, x_i in zip(nu, xs):
        partial = [
            (rem - e * v_i, mono + e * x_i)
            for rem, mono in partial
            for e in range(rem // v_i + 1)
        ]
    return [mono + rem // v * x for rem, mono in partial if rem % v == 0]


def cached_monomials(ctx: GradedContext, e, mono_cache):
    """monomials_of_degree(ctx, e), kept in mono_cache by degree."""
    monos = mono_cache.get(e)
    if monos is None:
        monos = mono_cache[e] = monomials_of_degree(ctx, e)
    return monos


def graded_piece_rank(C: CycComplex, k, d, mono_cache):
    """Exact rank of the degree-d graded piece of the k-th differential.

    Each column x^alpha * e_j of the piece is read straight off entry j of
    the term positions C.positions[k] as one {row id: coeff} dict, and the
    columns go to rank_sparse as the rows of the transpose.  The row
    x^beta * e_p one level down has id -(((beta + w_p) << b) + p), where
    w_p is the accumulated monomial of e_p in the order tower and b is the
    width of the position numbers of level k-1: on a consistent tower that
    is minus the module-order key, so each column's smallest id is its
    leading term, the pivot rank_sparse takes.  The position fills the low
    bits, so distinct rows get distinct ids whatever the tower holds: the
    tower only picks pivots and never changes a rank.  Repeated terms of a
    column are summed.  Positions whose shift exceeds d have no column.
    Returns (rank, number of columns).
    """
    shifts = C.shifts[k]
    cols = []
    if min(shifts) <= d:
        base, bits = C.tower.base[k - 1], C.tower.bits[k - 1]
        b = (len(C.shifts[k - 1]) - 1).bit_length()
        level = C.positions[k]
        for j, shift in enumerate(shifts):
            if shift > d:
                continue
            terms = {}
            for sign, monos, targets in level:
                p = targets[j]
                row = -(((monos[j] + (base[p] >> bits)) << b) + p)
                terms[row] = terms.get(row, 0) + sign
            terms = terms.items()
            for alpha in cached_monomials(C.ctx, d - shift, mono_cache):
                a = alpha << b
                cols.append({row - a: coeff for row, coeff in terms})
    return rank_sparse(cols), len(cols)


def minimal_generators(ctx: GradedContext, monos):
    """The minimal generators of the monomial ideal the monos generate, as
    an ascending tuple.  Integer order puts every divisor of a monomial
    before it (the degree decides first), so each monomial is kept when no
    kept one divides it."""
    divides, kept = ctx.divides, []
    for m in sorted(set(monos)):
        if not any(divides(g, m) for g in kept):
            kept.append(m)
    return tuple(kept)


def add_shifted(out, poly, e, c=1):
    """out += c * t^e * poly, for polynomials kept as {degree: coeff} dicts
    with no zero coefficient; returns out."""
    for d, a in poly.items():
        a = out.get(d + e, 0) + c * a
        if a:
            out[d + e] = a
        else:
            del out[d + e]
    return out


def k_polynomial(ctx: GradedContext, gens, memo):
    """{degree: coeff}, no coefficient zero: the K-polynomial of S/J, the
    Hilbert series of S/J times prod_i (1 - t^nu_i), for J with the minimal
    generators gens, an ascending tuple: () is J = 0, and (0,), the unit,
    is J = S.

    Pairwise coprime generators g give prod (1 - t^deg g), which is 0 for
    the unit.  Otherwise a variable x_i in the most generators is the pivot:
        K(S/J) = K(S/(J + x_i)) + t^nu_i K(S/(J : x_i))
    (Bigatti, JPAA 1997), where K(S/(J + x_i)) = (1 - t^nu_i) K(S/J') for
    J' generated by the generators x_i does not divide, x_i's field its
    support mask.  memo holds every K met, by gens.
    """
    out = memo.get(gens)
    if out is not None:
        return out
    masks = [ctx.support(g) for g in gens]
    union = shared = 0
    for mask in masks:
        shared |= mask & union
        union |= mask
    if not shared:
        out = {0: 1}
        for g in gens:
            out = add_shifted(dict(out), out, ctx.degree(g), -1)
    else:
        # the variable in the most generators; some two share it
        fields = list(map(ctx.support, ctx.variables))
        i = max(
            (i for i, bit in enumerate(fields) if shared & bit),
            key=lambda i: sum(1 for mask in masks if mask & fields[i]),
        )
        bit, x, v = fields[i], ctx.variables[i], ctx.nu[i]
        rest = k_polynomial(
            ctx, tuple(g for g, mask in zip(gens, masks) if not mask & bit), memo
        )
        colon = minimal_generators(
            ctx, [g - x if mask & bit else g for g, mask in zip(gens, masks)]
        )
        out = add_shifted(dict(rest), rest, v, -1)
        add_shifted(out, k_polynomial(ctx, colon, memo), v)
    memo[gens] = out
    return out


def lead_ideals(C: CycComplex, k, d_max):
    """{p: J_p}: the minimal generators of the monomial ideal J_p of the
    leads on e_p of the columns of d_(k+1), for each level-k position p
    with one; under a degree bound d_max, of the columns whose shift is at
    most d_max.

    A column's lead is its largest summed nonzero term in the order of
    graded_piece_rank's rows, (beta + w_p, then p).  It counts only when its
    coefficient is +-1 and its degree is the column's shift: a column left
    out lowers the count the identity checks, never raises it.  Columns of
    higher shift change no coefficient at or below d_max, where the series
    is cut.

    Each position is keyed in that order a whole list at a time, and each
    column's lead is the largest of its keys.  Where that maximum occurs
    once, it is the lead, with its position's sign, +-1 (add_level refuses
    any other); only a column where it occurs more than once is summed.
    Equal sets of leads have one set of minimal generators, found once.
    """
    ideals = {}
    if k + 1 == C.n:
        return ideals
    base, bits, shifts = C.tower.base[k], C.tower.bits[k], C.shifts[k]
    b = (len(shifts) - 1).bit_length()
    degree = C.ctx.degree
    level, above = C.positions[k + 1], C.shifts[k + 1]
    cols = range(len(above)) if d_max is None else [
        j for j, shift in enumerate(above) if shift <= d_max
    ]
    acc = list(map(rshift, base, repeat(bits)))
    keylists = []
    for _, monos, targets in level:
        if d_max is not None:
            monos, targets = map(monos.__getitem__, cols), list(map(targets.__getitem__, cols))
        beta = map(add, monos, map(acc.__getitem__, targets))
        keylists.append(list(map(add, map(lshift, beta, repeat(b)), targets)))
    leads = list(map(max, *keylists))
    hits = [0] * len(leads)
    for keys in keylists:
        hits = list(map(add, hits, map(eq, keys, leads)))
    for i in [i for i, h in enumerate(hits) if h > 1]:
        terms = {}
        for keys, (sign, _, _) in zip(keylists, level):
            terms[keys[i]] = terms.get(keys[i], 0) + sign
        key = max((key for key, coeff in terms.items() if coeff), default=None)
        leads[i] = key if key is not None and terms[key] in (1, -1) else None
    # the key lists, one per position, are the bulk of this level's
    # memory: freed before the leads are decoded into new monomials
    del keylists
    mask = (1 << b) - 1
    for key, shift in zip(leads, map(above.__getitem__, cols)):
        if key is None:
            continue
        p = key & mask
        mono = (key >> b) - acc[p]
        if degree(mono) + shifts[p] == shift:
            ideals.setdefault(p, []).append(mono)
    minimal = {}
    for p, monos in ideals.items():
        found = frozenset(monos)
        if found not in minimal:
            minimal[found] = minimal_generators(C.ctx, found)
        ideals[p] = minimal[found]
    return ideals


def quotient_series(C: CycComplex, k, d_max, memo):
    """{d: c}, no coefficient zero: the coefficients of sum_p t^(s_p) K_p
    over the level-k positions p, K_p the K-polynomial of S/J_p
    (lead_ideals), all of them, or those of degree at most d_max: the
    Hilbert series of F_k / N_(k+1) times prod_i (1 - t^nu_i), where
    N_(k+1) is the monomial submodule the leads of d_(k+1) generate.  Each
    distinct (J_p, s_p) is added once, times the positions it covers."""
    ideals = lead_ideals(C, k, d_max)
    out = {}
    for (gens, s), m in Counter(
        (ideals.get(p, ()), s) for p, s in enumerate(C.shifts[k]) if d_max is None or s <= d_max
    ).items():
        add_shifted(out, k_polynomial(C.ctx, gens, memo), s, m)
    return out if d_max is None else {d: c for d, c in out.items() if d <= d_max}


def graded_homology_oracle(C: CycComplex, d_max):
    """Vanishing homology on every graded piece, proved from the leads of
    the stored columns; under a degree bound d_max, up to d_max, and by
    elimination from the lowest degree where their count falls short.

    The count.  graded_piece_rank orders the rows x^beta * e_p one level
    down by (beta + w_p, then p); multiplying by x^alpha keeps that order,
    whatever the tower holds, so the lead of x^alpha * f is x^alpha times
    the lead of f, and columns with distinct leads are independent.  So
    L_(k,d), the number of distinct leads in the degree-d piece of d_k, is
    the degree-d dimension of the monomial submodule N_k the leads generate,
    and at most the rank.  With d∘d = 0, rank d_k + rank d_(k+1) is at most
    dim F_(k,d); so L_(k,d) + L_(k+1,d) = dim F_(k,d) proves position k
    exact in degree d.  For every degree at once that is one identity of
    K-polynomials per level k = 1..n-1 (quotient_series):
        sum_(p in level k) t^s_p K_p = sum_(q in level k-1) t^s_q (1 - K_q);
    dividing by prod_i (1 - t^nu_i) keeps the lowest degree where the two
    sides differ, and the difference there.  Only leads with coefficient
    +-1 are counted (lead_ideals), so the proof holds over every field.  At
    position 1 it also gives rank d_1 = L_(1,d), the count of monomials in
    the ideal of the degree-0 leads, which is what elimination compares at
    position 0.  On a correct complex the columns are a Groebner basis of
    their image in the Schreyer order (the frames of
    Erocal-Motsak-Schreyer-Steenpass), and the identity holds.  With no
    bound the whole identity is the verdict: it passes with "degrees" one
    past its highest nonzero coefficient, or fails at the lowest degree,
    and there the lowest position, where the count falls short; on the
    tower as built the columns are then not a Groebner basis of their
    image, and the proof would not hold over every field.

    Elimination.  Under a bound the identity is cut at t^(d_max+1), and
    from the lowest degree d0 where it fails, every piece is ranked over Q
    (graded_piece_rank).  Position 0 compares the rank of the first
    differential with the count of monomials inside the leading-term ideal
    of the degree-0 basis, the union of the degree-d multiples of the
    larger monomial of each degree-0 column, read off the column itself;
    higher positions compare kernel dimensions with the rank one step up.
    The degrees below d0 count as checked, so verdict, witness and counter
    are those of elimination in every degree.  A d_max past the complex's
    packing, and a piece of degree d0..d_max wider than MAX_ORACLE_COLS
    columns, are refused before any piece is built.

    Either way, equal dimensions prove exactness only because the image
    lies inside the kernel, that is d∘d = 0: the verdict rests on the
    d_squared check.
    """
    n, ctx = C.n, C.ctx
    memo = {}
    quotients = [quotient_series(C, k, d_max, memo) for k in range(n)]
    shorts = []
    for k in range(1, n):
        # Counter.update and subtract keep zero and negative counts
        excess = Counter(quotients[k])
        excess.update(quotients[k - 1])
        excess.subtract(s for s in C.shifts[k - 1] if d_max is None or s <= d_max)
        shorts += [(d, k, c) for d, c in excess.items() if c]
    if d_max is None:
        if not shorts:
            top = max(d for series in quotients for d in series)
            return True, None, {"degrees": top + 1}
        d, k, excess = min(shorts)
        counts = count_monomials(ctx.nu, d)
        dim = sum(counts[d - s] for s in C.shifts[k] if s <= d)
        return False, (
            f"lead count at position {k}, degree {d}: "
            f"{dim - excess} distinct unit leads for dimension {dim}"
        ), {"degrees": d}
    d0 = min(shorts)[0] if shorts else d_max + 1
    if d0 <= d_max:
        if GradedContext.holding(ctx.nu, d_max).width > ctx.width:
            raise InternalError(f"degree {d_max} does not fit {ctx.width}-bit fields")
        for d, widest in piece_widths(C, d0, d_max):
            if widest > MAX_ORACLE_COLS:
                raise ValidationError(
                    f"--max-degree {d_max} needs a degree-{d} piece of {widest:,} columns, "
                    f"over the oracle's budget of {MAX_ORACLE_COLS:,}"
                )
    leads = [(g, ctx.degree(g)) for g in map(max, *(monos for _, monos, _ in C.positions[1]))]
    degrees = d0
    for d in range(d0, d_max + 1):
        mono_cache = {}
        ranks = {n: 0}
        cols = {}
        for k in range(1, n):
            ranks[k], cols[k] = graded_piece_rank(C, k, d, mono_cache)
        in_lt = set()
        for g, e in leads:
            if e <= d:
                in_lt.update([g + m for m in cached_monomials(ctx, d - e, mono_cache)])
        if ranks[1] != len(in_lt):
            return False, (
                f"degree {d}: rank {ranks[1]} of the first map, "
                f"{len(in_lt)} monomials in the leading-term ideal"
            ), {"degrees": degrees}
        for k in range(1, n):
            if cols[k] - ranks[k] != ranks[k + 1]:
                return False, (
                    f"homology at position {k}, degree {d}: "
                    f"kernel {cols[k] - ranks[k]}, image {ranks[k + 1]}"
                ), {"degrees": degrees}
        degrees += 1
    return True, None, {"degrees": degrees}


def count_monomials(nu, d_top):
    """counts[d] = number of exponent vectors of weighted degree d."""
    counts = [0] * (d_top + 1)
    counts[0] = 1
    for w in nu:
        for d in range(w, d_top + 1):
            counts[d] += counts[d - w]
    return counts


def piece_widths(C: CycComplex, d_lo, d_hi):
    """Yield (d, the number of columns of the widest degree-d piece over
    levels 1..n-1) for d = d_lo..d_hi in turn, counted from the shifts
    alone."""
    counts = count_monomials(C.ctx.nu, d_hi)
    levels = [Counter(C.shifts[k]).items() for k in range(1, C.n)]
    for d in range(d_lo, d_hi + 1):
        yield d, max(sum(m * counts[d - s] for s, m in level if s <= d) for level in levels)


MAX_ORACLE_COLS = 250_000


# ---------------------------------------------------------------------------
# driver

def refuse_oversized_span(d_max):
    """Raise ValidationError when a degree bound spans more degrees than
    MAX_ORACLE_COLS.  Each degree of the range is one more piece per level,
    and counting the widths takes a list as long as the range; the check
    needs no complex, so it runs before the build."""
    if d_max > MAX_ORACLE_COLS:
        raise ValidationError(
            f"--max-degree {d_max} spans more degrees than the oracle's budget "
            f"of {MAX_ORACLE_COLS:,}"
        )


def minimality_vs_completeness(C: CycComplex):
    """The complex is minimal exactly when the digraph is strongly complete."""
    minimal, witness = minimality_check(C)
    complete = classify(C.L) == "PCB"
    if minimal != complete:
        return False, f"minimality flag {minimal} but strongly complete is {complete}", {}
    return True, (None if minimal else f"non-minimal witness {witness}"), {}


def run_check(name, check):
    """Call check(), which returns (ok, witness, counters), and time it."""
    t0 = time.perf_counter()
    ok, witness, counters = check()
    return CheckResult(name, ok, witness, counters, int((time.perf_counter() - t0) * 1000))


def full_verify(C: CycComplex, d_max=None, instance="") -> VerificationReport:
    """Run every structural check and the exactness oracle; never stops early.

    Each check function is looked up by its module-level name when it runs,
    so a wrapper put in its place (a profiler's span) is the one called.
    """
    checks = [
        ("d_squared", lambda: check_d_squared(C)),
        ("leading_term_formula", lambda: check_leading_terms(C)),
        ("basis_images_distinct", lambda: verify_distinct_images(C)),
        ("degree0_groebner", lambda: verify_degree0_gb(C)),
        ("colon_stability", lambda: verify_colon_stability(C)),
        ("module_quotients", lambda: verify_module_quotients(C)),
        ("tau_syzygies", lambda: verify_tau_identities(C)),
        ("schreyer_coverage", lambda: verify_coverage_all(C)),
        ("minimality_vs_completeness", lambda: minimality_vs_completeness(C)),
        ("graded_homology", lambda: graded_homology_oracle(C, d_max)),
    ]
    return VerificationReport(
        instance or f"n={C.n}", [run_check(name, check) for name, check in checks]
    )

