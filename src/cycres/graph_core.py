"""Weighted digraphs, their Laplacians, and block echelon structure.

Vertices are numbered 1..n.  A digraph here always means: finite, weighted,
directed, with no loops, no sources and no sinks.  Its Laplacian has positive
diagonal equal to the weighted out-degree, nonpositive off-diagonal entries,
and zero row sums; such matrices are classified as

    CB   -- the general case,
    ICB  -- additionally irreducible (digraph strongly connected),
    PCB  -- all off-diagonal weights positive (digraph strongly complete).

Input is validated at the parse boundary (validate_digraph,
digraph_from_matrix), so every Laplacian built here, and every relabelling
of one, has these properties; CBMatrix stores what it is given.  Questions
about the graph are answered by BFS over the matrix rows.
"""

import json

from .errors import InternalError, NotIrreducibleError, ValidationError


class WeightedDigraph:
    def __init__(self, n, arcs):
        self.n = n
        self.arcs = arcs  # tuple of (source, target, weight), 1-based vertices

    def out_weights(self):
        """n x n array w[i][j] = weight of arc i+1 -> j+1, zero if absent."""
        w = [[0] * self.n for _ in range(self.n)]
        for s, t, wt in self.arcs:
            w[s - 1][t - 1] = wt
        return w


class CBMatrix:
    """Laplacian-type matrix stored as nonnegative weights.

    a[i][j] for i != j is the arc weight; a[i][i] is the diagonal (weighted
    out-degree).  The signed matrix entry is -a[i][j] off the diagonal.
    echelon / perm are filled in by prepare().
    """

    def __init__(self, n, a, echelon=None, perm=None):
        self.n = n
        self.a = a  # tuple of tuples, nonnegative ints
        self.echelon = echelon
        self.perm = perm

    def signed_rows(self):
        """The actual integer matrix: diagonal positive, off-diagonal negated."""
        return [
            [self.a[i][i] if i == j else -self.a[i][j] for j in range(self.n)]
            for i in range(self.n)
        ]


def _is_int(x):
    # bool is a subclass of int, but true/false are not weights or vertices
    return isinstance(x, int) and not isinstance(x, bool)


def validate_digraph(n, arcs):
    if not _is_int(n):
        raise ValidationError(f"vertex count {n!r} is not an integer")
    if n < 3:
        raise ValidationError(f"need at least 3 vertices, got {n}")
    seen = set()
    for s, t, w in arcs:
        if not (_is_int(s) and _is_int(t) and _is_int(w)):
            raise ValidationError(
                f"arc ({s!r},{t!r}) weight {w!r}: endpoints and weight must be integers"
            )
        if not (1 <= s <= n and 1 <= t <= n):
            raise ValidationError(f"arc ({s},{t}) out of vertex range 1..{n}")
        if s == t:
            raise ValidationError(f"loop at {s}")
        if w <= 0:
            raise ValidationError(f"arc ({s},{t}) has nonpositive weight {w}")
        if (s, t) in seen:
            raise ValidationError(f"duplicate arc ({s},{t})")
        seen.add((s, t))
    # each vertex needs an outgoing arc; refuse a vertex count the arcs
    # cannot cover before any work of size n
    if len(arcs) < n:
        raise ValidationError(
            f"{len(arcs)} arcs for {n} vertices: each vertex needs an outgoing arc"
        )
    has_out = {s for s, _ in seen}
    has_in = {t for _, t in seen}
    for v in range(1, n + 1):
        if v not in has_out:
            raise ValidationError(f"sink at {v} (no outgoing arc)")
        if v not in has_in:
            raise ValidationError(f"source at {v} (no incoming arc)")
    return WeightedDigraph(n, tuple(arcs))


def digraph_from_matrix(rows):
    """Digraph of a signed Laplacian-type matrix; entry (i,j) = -weight."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError("matrix must be a list of rows")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValidationError("matrix is not square")
    if not all(_is_int(v) for r in rows for v in r):
        raise ValidationError("matrix entries must be integers")
    arcs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = rows[i][j]
            if v > 0:
                raise ValidationError(
                    f"positive off-diagonal entry at ({i + 1},{j + 1})"
                )
            if v != 0:
                arcs.append((i + 1, j + 1, -v))
    g = validate_digraph(n, arcs)
    lap = laplacian(g)
    if lap.signed_rows() != [list(r) for r in rows]:
        raise ValidationError("diagonal does not equal the weighted out-degree")
    return g


def parse_digraph(text):
    """Parse a JSON document: {"matrix": [[..]]} or {"n":., "arcs":[..]}.

    A matrix key takes precedence when both are present.
    """
    try:
        doc = json.loads(text)
    # ValueError covers JSONDecodeError and an integer literal longer than
    # the interpreter's int-string digit limit
    except (ValueError, RecursionError) as e:
        raise ValidationError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError("top-level JSON must be an object")
    if "matrix" in doc:
        return digraph_from_matrix(doc["matrix"])
    if "n" in doc and "arcs" in doc:
        if not isinstance(doc["arcs"], list):
            raise ValidationError('"arcs" must be a list of arc records')
        arcs = []
        for rec in doc["arcs"]:
            try:
                arcs.append((rec["from"], rec["to"], rec["w"]))
            except (TypeError, KeyError) as e:
                raise ValidationError(f"bad arc record {rec!r}") from e
        return validate_digraph(doc["n"], arcs)
    raise ValidationError('expected keys "matrix" or "n"+"arcs"')


def laplacian(g: WeightedDigraph) -> CBMatrix:
    w = g.out_weights()
    for i in range(g.n):
        w[i][i] = sum(w[i])
    return CBMatrix(g.n, tuple(tuple(row) for row in w))


def is_strongly_connected(L: CBMatrix) -> bool:
    """Every vertex is reached from vertex n and reaches it."""
    reverse = tuple(zip(*L.a))
    return None not in unweighted_distance(L.a, L.n) + unweighted_distance(reverse, L.n)


def classify(L: CBMatrix) -> str:
    """Return "PCB", "ICB" or "CB"."""
    n = L.n
    if all(L.a[i][j] > 0 for i in range(n) for j in range(n) if i != j):
        return "PCB"
    if is_strongly_connected(L):
        return "ICB"
    return "CB"


def unweighted_distance(a, omega: int):
    """Directed BFS distances (ignoring weights) from omega to every vertex,
    None for a vertex omega does not reach.  a holds the weight rows: there
    is an arc i -> j wherever a[i-1][j-1] > 0."""
    dist = [None] * len(a)
    dist[omega - 1] = 0
    queue = [omega - 1]
    while queue:
        nxt = []
        for v in queue:
            for u, w in enumerate(a[v]):
                if w > 0 and dist[u] is None:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        queue = nxt
    return tuple(dist)


def omega_delta_enumeration(L: CBMatrix, omega: int = None):
    """Relabelling that sorts vertices by decreasing distance from omega.

    Returns perm with perm[v-1] = new index of vertex v (1-based); omega
    becomes vertex n, vertices at equal distance keep their original
    relative order.
    """
    n = L.n
    if omega is None:
        omega = n
    if not 1 <= omega <= n:
        raise ValidationError(f"omega {omega} out of range 1..{n}")
    dist = unweighted_distance(L.a, omega)
    if None in dist:
        raise NotIrreducibleError(f"vertex {dist.index(None) + 1} unreachable from {omega}")
    order = sorted(
        (v for v in range(1, n + 1) if v != omega),
        key=lambda v: (-dist[v - 1], v),
    )
    order.append(omega)
    perm = [0] * n
    for new, old in enumerate(order, start=1):
        perm[old - 1] = new
    return tuple(perm)


def permute_matrix(L: CBMatrix, perm) -> CBMatrix:
    """Apply the same permutation to rows and columns; perm[old-1] = new."""
    n = L.n
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new - 1] = old
    a = tuple(
        tuple(L.a[inv[i]][inv[j]] for j in range(n)) for i in range(n)
    )
    return CBMatrix(n, a)


def block_echelon_structure(L: CBMatrix):
    """(delta, (q_1, ..., q_delta)) if L is in block echelon form, else None.

    L is in block echelon form exactly when a BFS from vertex n reaches
    every vertex and the distances weakly fall along 1..n-1.  The blocks
    I_1, ..., I_delta are then the distance classes, farthest first, and
    I_{delta+1} = {n}.  The form's matrix conditions hold for these blocks
    without a check:
    - an arc r -> c gives dist(c) <= dist(r) + 1, so L[I_i, I_j] = 0 for
      i >= j+2;
    - each vertex at distance d >= 1 has a BFS parent at distance d-1 with
      an arc into it, so every column of L[I_{j+1}, I_j] is nonzero.
    """
    dist = unweighted_distance(L.a, L.n)
    if None in dist or any(dist[v] < dist[v + 1] for v in range(L.n - 2)):
        return None
    delta = dist[0]
    return (delta, tuple(dist.count(d) for d in range(delta, 0, -1)))


def prepare(L: CBMatrix, omega: int = None) -> CBMatrix:
    """Permute an irreducible matrix into block echelon form.

    Returns a copy with the echelon block sizes and the applied permutation
    recorded.
    """
    if classify(L) == "CB":
        raise NotIrreducibleError("matrix is reducible")
    perm = omega_delta_enumeration(L, omega)
    M = permute_matrix(L, perm)
    structure = block_echelon_structure(M)
    if structure is None:
        raise InternalError("enumeration did not produce echelon form")
    return CBMatrix(M.n, M.a, echelon=structure[1], perm=perm)
