"""Block echelon form checked cell by cell, as it was first written: the
package reads the form off one BFS from vertex n, whose distances prove the
matrix conditions, so only the tests check them.  Also the reachability
closure and every strongly connected digraph shape on a few vertices, the
references the graph layer is swept against.  Nothing here imports the
package.
"""

from itertools import permutations


def distances(a, root):
    """BFS distances from root over the arcs s -> t (s != t, weight
    a[s-1][t-1] > 0), built as an arc list; None where root does not reach."""
    n = len(a)
    adj = {v: [t for t in range(1, n + 1) if t != v and a[v - 1][t - 1] > 0]
           for v in range(1, n + 1)}
    dist = {root: 0}
    queue = [root]
    for v in queue:
        for t in adj[v]:
            if t not in dist:
                dist[t] = dist[v] + 1
                queue.append(t)
    return [dist.get(v) for v in range(1, n + 1)]


def block_echelon_structure(L):
    """(delta, (q_1, ..., q_delta)) if L is in block echelon form, else None.

    The only candidate blocks are the distance classes from the last vertex
    (farthest class first); the matrix conditions are then checked directly:
    L[I_i, I_j] = 0 for j <= delta-1, i >= j+2, and every column of
    L[I_{j+1}, I_j] nonzero.
    """
    n = L.n
    dist = distances(L.a, n)
    if None in dist:
        return None
    delta = max(dist)
    blocks = []
    pos = 0
    for i in range(1, delta + 1):
        cls = [v for v in range(1, n) if dist[v - 1] == delta + 1 - i]
        if cls != list(range(pos + 1, pos + 1 + len(cls))):
            return None
        blocks.append(cls)
        pos += len(cls)
    if pos != n - 1:
        return None
    blocks.append([n])
    a = L.a
    for j in range(delta - 1):
        for i in range(j + 2, delta + 1):
            for r in blocks[i]:
                for c in blocks[j]:
                    if a[r - 1][c - 1] != 0:
                        return None
    for j in range(delta):
        for c in blocks[j]:
            if all(a[r - 1][c - 1] == 0 for r in blocks[j + 1]):
                return None
    return (delta, tuple(len(b) for b in blocks[:delta]))


def reachability_closure(n, arcs):
    """Whether every vertex reaches every other along arcs (s, t, ...), by
    Warshall's transitive closure."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for s, t, *_ in arcs:
        reach[s - 1][t - 1] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return all(all(row) for row in reach)


def strongly_connected_shapes(n):
    """(labelled, shapes) over the loopless digraphs on vertices 1..n:
    labelled counts the strongly connected arc sets, shapes holds one per
    isomorphism class, the least sorted arc list among its relabellings."""
    pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1) if s != t]
    relabellings = list(permutations(range(1, n + 1)))
    labelled = 0
    shapes = set()
    for bits in range(1 << len(pairs)):
        arcs = [pair for i, pair in enumerate(pairs) if bits >> i & 1]
        if not reachability_closure(n, arcs):
            continue
        labelled += 1
        shapes.add(min(
            tuple(sorted((pi[s - 1], pi[t - 1]) for s, t in arcs)) for pi in relabellings
        ))
    return labelled, sorted(shapes)
