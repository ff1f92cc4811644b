"""Machine verification of the structural claims on a built complex.

Each check returns (ok, witness, counters); on failure the witness names
the first fault found.  full_verify is the one place that names and times
the checks, chaining them into a VerificationReport of CheckResults without
aborting early.  The exactness oracle at the end assembles every graded
piece as an explicit integer matrix and compares kernel dimensions with
ranks over Q.  It reads the stored columns column by column, as the rows
of the transpose, numbered in the module order one level down so that each
column's pivot is its leading term; the order tower only picks those
pivots, and a rank does not depend on anything the tower holds.
"""

import time
from collections import Counter

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
    elem_combine,
    s_cofactor,
    s_leading_key,
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

def _arrow_plus(A, B, Cs, C: CycComplex):
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


def s_poly_closed_form(C, D, complex_: CycComplex):
    """The S-polynomial of the two subset binomials, by the set-splitting identity.

    Splits the subsets into E = C&D, F = C-E, G = D-E, V = complement of the
    union, and combines the degree-0 binomials of F and G with explicit
    monomial coefficients.  Entirely bypasses leading-term computations.
    """
    arrows = complex_.arrows
    full = (1 << complex_.n) - 1
    E, F, G, V = C & D, C & ~D, D & ~C, full & ~(C | D)
    l_cd = _arrow_plus(E, G, F, complex_) + arrows[F, G] + arrows[V, D]
    l_dc = _arrow_plus(E, F, G, complex_) + arrows[G, F] + arrows[V, C]
    out = {}
    if F:
        fF = complex_.diffs[1][complex_.index[1][F, full ^ F]]
        elem_combine(out, fF, 1, l_cd)
    if G:
        fG = complex_.diffs[1][complex_.index[1][G, full ^ G]]
        elem_combine(out, fG, -1, l_dc)
    return out, l_cd, l_dc


def image_key(tower, level, mono, j):
    """The key of x^mono * Lt(g_j), the leading term of the image of
    x^mono * e_j under the columns g_j of tower.images[level + 1]."""
    _, lm, idx = tower.images[level + 1][j][0]
    return tower.key(level, mono + lm, idx)


def verify_degree0_gb(C: CycComplex):
    """Buchberger criterion plus the closed-form S-polynomial identity."""
    r1 = len(C.diffs[1])
    full = (1 << C.n) - 1
    pairs = 0
    for i in range(r1):
        for j in range(i + 1, r1):
            ci, cj = C.bases[1][i][0], C.bases[1][j][0]
            sv = s_vector(C.tower, 0, i, j)
            if sv is None:
                return False, f"no S-pair for ({i + 1},{j + 1})", {"pairs": pairs}
            s, m_ji, m_ij = sv
            formula, l_cd, l_dc = s_poly_closed_form(ci, cj, C)
            if s != formula:
                return False, (
                    f"closed form mismatch for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
            # S = l_cd * f_F - l_dc * f_G: the two leads differ, so the
            # larger is Lt(S)
            lead = max(
                image_key(C.tower, 0, mono, C.index[1][piece, full ^ piece])
                for mono, piece in ((l_cd, ci & ~cj), (l_dc, cj & ~ci)) if piece
            )
            if lead != s_leading_key(C.tower, 0, i, j, m_ji, m_ij):
                return False, (
                    f"leading bound fails for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
            _, rem = divide(s, C.tower, 0)
            pairs += 1
            if rem:
                return False, (
                    f"nonzero remainder for C, D = {partition_str((ci, cj))}"
                ), {"pairs": pairs}
    return True, None, {"pairs": pairs}


def verify_distinct_images(C: CycComplex):
    """Differential images of basis elements are pairwise distinct, per level."""
    for k in range(1, C.n):
        seen = {}
        for j, f in enumerate(C.diffs[k]):
            if f in seen:
                return False, f"equal images at level {k}: {seen[f] + 1}, {j + 1}", {}
            seen[f] = j
    return True, None, {}


def verify_colon_stability(C: CycComplex):
    """I : x_n = I for the ideal I of the degree-0 binomials, exactly.

    The verdict rests on degree0_groebner, which proves the binomials a
    Groebner basis G under weighted revlex with x_n last.  If no leading
    term of G involves x_n, then Lt(g) | x_n * x^m implies Lt(g) | x^m, so
    in(I : x_n) = in(I) and hence I : x_n = I (Bayer-Stillman; Eisenbud,
    Prop. 15.12).  Counts the leading terms examined.
    """
    n, ctx = C.n, C.ctx
    xn = ctx.pack([0] * (n - 1) + [1])
    for j, f in enumerate(C.diffs[1], 1):
        if ctx.divides(xn, f[0][1]):
            return False, f"x{n} divides leading term of generator {j}", {"leading_terms": j}
    return True, None, {"leading_terms": len(C.diffs[1])}


# ---------------------------------------------------------------------------
# module quotients and Schreyer structure

def quotient_sources(C: CycComplex, k):
    """Yield (i, [(j, retained), ...]) for every level-k position i in order.

    The sources are the positions j < i with the same first k-1 blocks; j is
    retained when its k-th block contains that of i (two such blocks differ).
    The positions with one prefix stand together, split from one partition
    one level down (see cyc_complex.enumerate_basis), so only the current
    run of them is kept.
    """
    prefix, run = None, []
    for i, p in enumerate(C.bases[k]):
        if p[: k - 1] != prefix:
            prefix, run = p[: k - 1], []
        ik = p[k - 1]
        yield i, [(j, ik & ~jk == 0) for j, jk in run]
        run.append((i, ik))


def _readable(C: CycComplex, term):
    """A (coefficient, monomial) term, or None, with its exponent vector
    spelled out."""
    return term and (term[0], C.ctx.unpack(term[1]))


def module_quotients(C: CycComplex, k, i, sources):
    """Generators (j, coeff, mono, pruned) of the colon ideal of leading terms
    at the sources (j, retained) of position i, as quotient_sources gives them.

    Computes each quotient from the stored leading terms and checks the
    closed product formula; a pruned generator (its source is not retained)
    must be divisible by a retained one.
    """
    ik, ik1 = C.bases[k][i][k - 1 :]
    sign = (-1) ** (k - 1)
    gens = []
    for j, retained in sources:
        jk, jk1 = C.bases[k][j][k - 1 :]
        direct = s_cofactor(C.tower, k - 1, i, j)
        expected = (sign, _arrow_plus(jk & ik, jk1, ik1, C) + C.arrows[jk & ik1, jk1])
        if direct != expected:
            raise AssertionError(
                f"closed formula mismatch at level {k}, pair ({j + 1},{i + 1}): "
                f"direct {_readable(C, direct)}, formula {_readable(C, expected)}"
            )
        gens.append((j, direct[0], direct[1], not retained))
    kept = [m for _, _, m, pruned in gens if not pruned]
    divides = C.ctx.divides
    for j, _, mono, pruned in gens:
        if pruned and not any(divides(m, mono) for m in kept):
            raise AssertionError(
                f"superfluous generator {j + 1} at level {k} not divisible "
                f"by a retained one (target {i + 1})"
            )
    return gens


def verify_module_quotients(C: CycComplex):
    count = 0
    for k in range(1, C.n):
        # A quotient is nonzero exactly when the two leading terms share a
        # target, so no pair across prefixes has one if every position shares
        # the prefix of the first position with its target.
        first = {}
        for i, f in enumerate(C.diffs[k]):
            j = first.setdefault(f[0][2], i)
            if C.bases[k][j][: k - 1] != C.bases[k][i][: k - 1]:
                return False, (
                    f"nonzero quotient across different prefixes at level {k}: "
                    f"{j + 1}, {i + 1}"
                ), {"generators": count}
        for i, sources in quotient_sources(C, k):
            try:
                gens = module_quotients(C, k, i, sources)
            except AssertionError as e:
                return False, str(e), {"generators": count}
            count += len(gens)
            if C.bases[k][i][k] == 1 << (C.n - 1) and gens:
                return False, (
                    f"expected empty quotient set at level {k}, index {i + 1}"
                ), {"generators": count}
    return True, None, {"generators": count}


def tau_pair(C: CycComplex, k, e):
    """The two merge partners whose S-vector the boundary of e represents."""
    return C.index[k][merge(e, k)], C.index[k][merge(e, k - 1)]


def verify_tau_identity(C: CycComplex, k, pos) -> tuple:
    """Check that -boundary(e) is a syzygy recording a standard expression.

    Returns (ok, witness).  e = C.bases[k + 1][pos] has k+2 blocks.  Its
    stored column must lead with the cofactor of merge partner i in their
    S-vector S, hold that of partner j second and no other term on either,
    and its first tail term must map one level down to Lt(S) exactly (read
    off the two stored columns by s_leading_key); the column's keys strictly
    decrease (the leading_term_formula check), so that term bounds the
    rest.  "tail = S" is exactly d(de) = 0, which check_d_squared proves,
    so the tail is not summed here.
    """
    e, de = C.bases[k + 1][pos], C.diffs[k + 1][pos]
    i, j = tau_pair(C, k, e)
    if j >= i:
        return False, f"pair order violated for {partition_str(e)}"
    m_ji = s_cofactor(C.tower, k - 1, i, j)
    if m_ji is None:
        return False, f"no S-pair behind {partition_str(e)}"
    m_ij = s_cofactor(C.tower, k - 1, j, i)
    sign = (-1) ** (k - 1)
    expect_ji = (sign, C.arrows[e[k], e[k + 1]])
    expect_ij = (sign, C.arrows[e[k - 1], e[k]])
    if m_ji != expect_ji or m_ij != expect_ij:
        return False, f"m-coefficients differ at {partition_str(e)}"
    on = [idx for _, _, idx in de]
    if de[:1] != ((-m_ji[0], m_ji[1], i),) or on.count(i) != 1:
        return False, f"leading component mismatch at {partition_str(e)}"
    if de[1:2] != ((m_ij[0], m_ij[1], j),) or on.count(j) != 1:
        return False, f"second component mismatch at {partition_str(e)}"
    # the tail writes S as a standard expression: it sums to S because
    # d(de) = 0 (check_d_squared), and its first term leads it, at Lt(S)
    s_key = s_leading_key(C.tower, k - 1, i, j, m_ji, m_ij)
    if len(de) < 3 or image_key(C.tower, k - 1, de[2][1], de[2][2]) != s_key:
        return False, f"standard-expression bound fails at {partition_str(e)}"
    return True, None


def verify_tau_identities(C: CycComplex):
    count = 0
    for k in range(1, C.n - 1):
        for pos in range(len(C.bases[k + 1])):
            ok, witness = verify_tau_identity(C, k, pos)
            if not ok:
                return False, witness, {"elements": count}
            count += 1
    return True, None, {"elements": count}


def rho_image(C: CycComplex, k, i, j):
    p, q = C.bases[k][i], C.bases[k][j]
    return p[:k] + (q[k - 1] & ~p[k - 1], q[k])


def verify_schreyer_coverage(C: CycComplex, k) -> tuple:
    """Retained generators biject with the next level's basis, with matching
    leading components; at the top level every quotient set must be empty.
    Counts the generators matched."""
    n = C.n
    above, index = (C.bases[k + 1], C.index[k + 1]) if k + 1 < n else ([], {})
    # one byte per basis element reached, not a dict of the images
    seen = bytearray(len(above))
    total = 0
    sign = (-1) ** (k - 1)
    for i, sources in quotient_sources(C, k):
        for j, retained in sources:
            if not retained:
                continue
            h = rho_image(C, k, i, j)
            hi = index.get(h)
            if hi is None:
                witness = f"rho image {partition_str(h)} not a basis element"
                return False, witness, {"generators": total}
            if seen[hi]:
                return False, f"rho images collide on {partition_str(h)}", {"generators": total}
            seen[hi] = 1
            total += 1
            lc, lm, lidx = C.diffs[k + 1][hi][0]
            m = s_cofactor(C.tower, k - 1, i, j)
            if m is None or lidx != i or lm != m[1] or abs(lc) != abs(m[0]) or m[0] != sign:
                return False, (
                    f"leading component of {partition_str(h)} does not match "
                    f"generator ({j + 1},{i + 1})"
                ), {"generators": total}
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
    """All monomials with the given weighted degree, packed, in the order
    of their exponent vectors read lexicographically.  The caller makes
    sure the packing holds degree d."""
    if d < 0:
        return []
    nu, w = ctx.nu, ctx.width
    # (degree left, packed exponents so far), one variable at a time
    partial = [(d, 0)]
    for i, v in enumerate(nu[:-1]):
        partial = [
            (rem - e * v, low + (e << (w * i)))
            for rem, low in partial
            for e in range(rem // v + 1)
        ]
    top, last, v = d << ctx.shift, w * (len(nu) - 1), nu[-1]
    return [top - low - ((rem // v) << last) for rem, low in partial if rem % v == 0]


def cached_monomials(ctx: GradedContext, e, mono_cache):
    """monomials_of_degree(ctx, e), kept in mono_cache by degree."""
    monos = mono_cache.get(e)
    if monos is None:
        monos = mono_cache[e] = monomials_of_degree(ctx, e)
    return monos


def graded_piece_rank(C: CycComplex, k, d, mono_cache):
    """Exact rank of the degree-d graded piece of the k-th differential.

    Each column x^alpha * e_j of the piece is read straight off the stored
    column C.diffs[k][j] as one {row id: coeff} dict, and the columns go to
    rank_sparse as the rows of the transpose.  The row x^beta * e_p one
    level down has id -(((beta + w_p) << b) + p), where w_p is the
    accumulated monomial of e_p in the order tower and b is the width of
    the position numbers of level k-1: on a consistent tower that is minus
    the module-order key, so each column's smallest id is its leading
    term, the pivot rank_sparse takes.  The position fills the low bits,
    so distinct rows get distinct ids whatever the tower holds: the tower
    only picks pivots and never changes a rank.  Repeated terms of a
    column are summed.  Positions whose shift exceeds d have no column.
    Returns (rank, number of columns).
    """
    shifts = C.shifts[k]
    cols = []
    if min(shifts) <= d:
        base, bits = C.tower.base[k - 1], C.tower.bits[k - 1]
        b = (len(C.shifts[k - 1]) - 1).bit_length()
        for f, shift in zip(C.diffs[k], shifts):
            if shift > d:
                continue
            terms = {}
            for coeff, mono, p in f:
                row = -(((mono + (base[p] >> bits)) << b) + p)
                terms[row] = terms.get(row, 0) + coeff
            terms = terms.items()
            for alpha in cached_monomials(C.ctx, d - shift, mono_cache):
                a = alpha << b
                cols.append({row - a: coeff for row, coeff in terms})
    return rank_sparse(cols), len(cols)


def graded_homology_oracle(C: CycComplex, d_max):
    """Vanishing homology on every graded piece up to the degree bound.

    Position 0 compares the rank of the first differential with the count of
    monomials inside the leading-term ideal of the degree-0 basis, the union
    of the degree-d multiples of each leading monomial, the larger monomial
    of each degree-0 column, read off the column itself; higher positions
    compare kernel dimensions with the rank one step up.  Every monomial of
    a piece has degree at most d_max, so a d_max past the complex's packing
    is refused before any piece is built.
    """
    n, ctx = C.n, C.ctx
    if max(d_max // v for v in ctx.nu) > ctx.cap:
        raise InternalError(f"degree {d_max} does not fit {ctx.width}-bit fields")
    leads = [(g, ctx.degree(g)) for g in (max(m for _, m, _ in f) for f in C.diffs[1])]
    degrees = 0
    for d in range(d_max + 1):
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


# ---------------------------------------------------------------------------
# driver

def count_monomials(nu, d_top):
    """counts[d] = number of exponent vectors of weighted degree d."""
    counts = [0] * (d_top + 1)
    counts[0] = 1
    for w in nu:
        for d in range(w, d_top + 1):
            counts[d] += counts[d - w]
    return counts


def piece_widths(C: CycComplex, d_top):
    """Yield, for d = 0..d_top in turn, the number of columns of the widest
    degree-d piece over levels 1..n-1, counted from the shifts alone."""
    counts = count_monomials(C.ctx.nu, d_top)
    levels = [Counter(C.shifts[k]).items() for k in range(1, C.n)]
    for d in range(d_top + 1):
        yield max(sum(m * counts[d - s] for s, m in level if s <= d) for level in levels)


DEGREE_CAP = 12
MAX_PIECE_COLS = 6000
MAX_ORACLE_COLS = 250_000


def default_d_max(C: CycComplex):
    """Degree bound for the exactness oracle: twice the top shift, capped.

    Degrees whose graded pieces would exceed MAX_PIECE_COLS columns in some
    position are dropped from the default range; an explicit --max-degree
    overrides this guard, within MAX_ORACLE_COLS (refuse_oversized_oracle).
    """
    bound = min(2 * max(C.shifts[C.n - 1]), DEGREE_CAP)
    safe = -1
    for d, widest in enumerate(piece_widths(C, bound)):
        if widest > MAX_PIECE_COLS:
            break
        safe = d
    return max(safe, 0)


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


def refuse_oversized_oracle(C: CycComplex, d_max):
    """Raise ValidationError, before any piece is built, when an explicit
    degree bound asks for a piece of more than MAX_ORACLE_COLS columns."""
    refuse_oversized_span(d_max)
    for d, widest in enumerate(piece_widths(C, d_max)):
        if widest > MAX_ORACLE_COLS:
            raise ValidationError(
                f"--max-degree {d_max} needs a degree-{d} piece of {widest:,} columns, "
                f"over the oracle's budget of {MAX_ORACLE_COLS:,}"
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
    if d_max is None:
        d_max = default_d_max(C)
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

