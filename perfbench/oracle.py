"""Independent answers for the response checks.

Nothing here imports circmix: graphs are plain (n, edge list) pairs and
every answer is recomputed from definitions, so a check cannot share a bug
with the code it checks.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations, product


def digest(text: str) -> str:
    """Short content digest used for the golden outputs."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def circ_edges(k: int, q: int) -> list[tuple[int, int]]:
    """Edges of the circular clique G_{k,q}: q <= |i-j| <= k-q."""
    return [(i, j) for i in range(k) for j in range(i + 1, k)
            if q <= j - i <= k - q]


def ladder_edges(m: int) -> list[tuple[int, int]]:
    """K2 x P_m as the extension product: (a, b) -> a*m + b, joined when
    a != a' and |b - b'| <= 1."""
    return [(b, m + c) for b in range(m) for c in range(m) if abs(b - c) <= 1]


def closed_walks(length: int, n: int, edges) -> int:
    """trace(A^length): the number of homomorphisms from C_length."""
    adj = adjacency(n, edges)
    total = 0
    for s in range(n):
        counts = [0] * n
        counts[s] = 1
        for _ in range(length):
            nxt = [0] * n
            for v, c in enumerate(counts):
                if c:
                    for u in adj[v]:
                        nxt[u] += c
            counts = nxt
        total += counts[s]
    return total


def is_hom(edges, target_adj: list[set[int]], image) -> bool:
    return all(image[v] in target_adj[image[u]] for u, v in edges)


def homs(n: int, edges, target_n: int, target_edges) -> list[tuple[int, ...]]:
    """Every homomorphism by filtering the full product, sorted."""
    adj = adjacency(target_n, target_edges)
    return [im for im in product(range(target_n), repeat=n)
            if is_hom(edges, adj, im)]


def has_colouring(n: int, edges, k: int, q: int) -> bool:
    """Is there a (k, q)-colouring?  Plain backtracking, small graphs only."""
    adj = adjacency(n, edges)
    if any(v in adj[v] for v in range(n)):
        return False
    col = [-1] * n

    def ok(v: int, c: int) -> bool:
        return all(col[u] < 0 or q <= (c - col[u]) % k <= k - q for u in adj[v])

    def walk(v: int) -> bool:
        if v == n:
            return True
        for c in range(k):
            if ok(v, c):
                col[v] = c
                if walk(v + 1):
                    return True
        col[v] = -1
        return False

    return walk(0)


def colouring_number(n: int, edges) -> int:
    """One more than the largest minimum degree over subgraphs."""
    adj = adjacency(n, edges)
    alive = set(range(n))
    worst = 0
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        worst = max(worst, len(adj[v] & alive))
        alive.discard(v)
    return worst + 1


def is_bipartite(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def clique_number(n: int, edges) -> int:
    """Brute force over vertex subsets; for the small sweep graphs and cycles."""
    adj = adjacency(n, edges)
    if n > 12:
        raise ValueError("brute-force clique number needs n <= 12")
    best = 1 if n else 0
    for r in range(2, n + 1):
        if any(all(b in adj[a] for a, b in combinations(s, 2))
               for s in combinations(range(n), r)):
            best = r
    return best


def forced_verdict(n: int, edges, k: int, q: int) -> str | None:
    """The verdict the mixing bounds force, if any.

    Mixing at or above twice the colouring number, at integer k above the
    colouring number, and strictly above twice the maximum degree; not mixing
    for non-bipartite graphs strictly below max(4, omega + 1) (when colourings
    exist at all).  None when no bound decides.
    """
    adj = adjacency(n, edges)
    value = Fraction(k, q)
    col = colouring_number(n, edges)
    dmax = max((len(a) for a in adj), default=0)
    if value >= 2 * col or (q == 1 and k >= col + 1) or (edges and value > 2 * dmax):
        return "Mixing"
    if not is_bipartite(n, edges) and value < max(4, clique_number(n, edges) + 1):
        return "NotMixing"
    return None


def replay_folds(n: int, rows: list[set[int]], steps) -> list[set[int]]:
    """Apply fold steps (removed, absorber) in current labels; raise on a
    step that is not a fold.  Returns the terminal adjacency."""
    for removed, absorber in steps:
        if not (0 <= removed < len(rows) and 0 <= absorber < len(rows)) \
                or removed == absorber:
            raise ValueError(f"fold ({removed}, {absorber}) out of range")
        if not rows[removed] <= rows[absorber]:
            raise ValueError(f"({removed}, {absorber}) is not a fold")
        keep = [v for v in range(len(rows)) if v != removed]
        pos = {v: i for i, v in enumerate(keep)}
        rows = [{pos[u] for u in rows[v] if u in pos} for v in keep]
    return rows


def fold_free(rows: list[set[int]]) -> bool:
    return not any(u != v and rows[v] <= rows[u]
                   for v in range(len(rows)) for u in range(len(rows)))


def hom_graph_distances(images, edges, target_adj, start: int) -> list[int]:
    """BFS distances from images[start] in the homomorphism graph.

    f and g are adjacent when f(u) g(v) and f(v) g(u) are target edges for
    every source edge uv.  -1 marks an unreachable map.
    """
    index = {im: i for i, im in enumerate(images)}
    n = len(images[0])
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dist = [-1] * len(images)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            f = images[i]
            # g(v) must neighbour f(u) for every neighbour u of v
            allowed = [set.intersection(*(target_adj[f[u]] for u in nbrs[v]))
                       if nbrs[v] else set(range(len(target_adj)))
                       for v in range(n)]
            for g in product(*allowed):
                j = index.get(g)
                if j is not None and dist[j] < 0:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = nxt
    return dist
