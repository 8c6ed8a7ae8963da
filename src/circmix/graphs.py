"""Graphs with packed bitmask adjacency, plus generators, products and parameters.

Vertices are always 0..n-1.  Loops are allowed and live on the diagonal:
a loop at v sets bit v of row v.  The neighbour set N(v) uses set semantics,
so a loop contributes v itself to N(v) and adds exactly 1 to deg(v).

Every traversal in the package is ``_bfs``, a breadth-first search over any
hashable vertices given a neighbour function: components, bipartiteness and
odd cycles here, search orders, host distances, and walks in the
homomorphism graph elsewhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, islice, permutations

from .config import max_vertices
from .errors import CapExceededError, GraphFormatError


class Graph:
    """An undirected graph on vertices 0..n-1, loops allowed.

    Adjacency is one packed integer per vertex: bit u of ``rows[v]`` means
    uv is an edge.  Instances are treated as immutable; all editing helpers
    return new graphs.  Equality compares n and adjacency, never the name.
    """

    __slots__ = ("n", "rows", "name")

    def __init__(self, n: int, edges=(), name: str | None = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > max_vertices():
            raise ValueError(f"vertex count {n} exceeds the configured limit {max_vertices()}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self.name = name

    @classmethod
    def from_rows(cls, rows, name: str | None = None) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g.name = name
        return g

    # --- basic queries ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def has_loop(self, v: int) -> bool:
        return bool(self.rows[v] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbours(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def edges(self):
        """Yield each edge once as (u, v) with u <= v; loops appear as (v, v)."""
        for u in range(self.n):
            m = self.rows[u] >> u
            while m:
                b = m & -m
                yield (u, u + b.bit_length() - 1)
                m ^= b

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def loops(self) -> list[int]:
        return [v for v in range(self.n) if self.has_loop(v)]

    @property
    def is_loop_free(self) -> bool:
        return not any(self.rows[v] >> v & 1 for v in range(self.n))

    def reflexive_mask(self) -> int:
        m = 0
        for v in range(self.n):
            if self.rows[v] >> v & 1:
                m |= 1 << v
        return m

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by least vertex."""
        seen: set[int] = set()
        out = []
        for s in range(self.n):
            if s not in seen:
                *_, (_, reached) = _bfs([s], self.neighbours)
                seen.update(reached)
                out.append(sorted(reached))
        return out

    # --- derived graphs ---------------------------------------------------

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices in induced subgraph")
        pos = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for i, v in enumerate(vs):
            for u in _bits(self.rows[v]):
                j = pos.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph.from_rows(rows)

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; remaining vertices keep their relative order."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self.induced([u for u in range(self.n) if u != v])

    def relabel(self, perm) -> "Graph":
        """Apply the bijection old -> perm[old] to vertex labels."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("relabelling must be a permutation of the vertices")
        rows = [0] * self.n
        for v in range(self.n):
            for u in _bits(self.rows[v]):
                rows[perm[v]] |= 1 << perm[u]
        return Graph.from_rows(rows)

    def with_all_loops(self) -> "Graph":
        rows = [self.rows[v] | (1 << v) for v in range(self.n)]
        return Graph.from_rows(rows)

    # --- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.n} edges={self.edge_count()}>"


def _bits(m: int) -> list[int]:
    out = []
    while m:
        b = m & -m
        out.append(b.bit_length() - 1)
        m ^= b
    return out


def _bfs(starts, neighbours, cap: int | None = None, detail: str = ""):
    """Breadth-first search from ``starts``, one layer at a time.

    Yields ``(layer, parent)`` once per depth, the starts first: ``layer``
    lists the vertices first reached at that depth, in the order reached,
    and ``parent`` maps every vertex reached so far to the one it was first
    reached from, each start to None.  Layers expand in the order reached,
    taking ``neighbours(x)`` as given.  With ``cap`` set, raises
    CapExceededError(cap, detail) after the expansion that brings the
    vertices reached past ``cap``.
    """
    limit = sys.maxsize if cap is None else cap  # an int compares faster
    parent = dict.fromkeys(starts)
    layer = list(parent)
    while layer:
        yield layer, parent
        nxt = []
        for x in layer:
            for y in neighbours(x):
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
            if len(parent) > limit:
                raise CapExceededError(cap, detail)
        layer = nxt


def _path(parent: dict, x) -> list:
    """The path of a ``_bfs`` parent map from its start to ``x``."""
    path = [x]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


# --- generators -------------------------------------------------------------


def complete_graph(r: int) -> Graph:
    if r < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(r, ((i, j) for i in range(r) for j in range(i + 1, r)), name=f"K_{r}")


def cycle_graph(r: int, reflexive: bool = False) -> Graph:
    if r < 3:
        raise ValueError("cycle needs at least three vertices")
    edges = ((i, (i + 1) % r) for i in range(r))
    if reflexive:
        edges = chain(edges, ((i, i) for i in range(r)))
    return Graph(r, edges, name=f"C_{r}")


def path_graph(n: int, reflexive: bool = False) -> Graph:
    """Path on n vertices, 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    edges = ((i, i + 1) for i in range(n - 1))
    if reflexive:
        edges = chain(edges, ((i, i) for i in range(n)))
    return Graph(n, edges, name=f"P_{n}")


def circular_clique(k: int, q: int) -> Graph:
    """G_{k,q}: vertices 0..k-1, edge ij iff q <= |i-j| <= k-q.

    Requires k >= 2q >= 2; no coprimality is assumed, and (k, q) is never
    reduced behind the caller's back.  G_{k,1} is the complete graph K_k.
    """
    if q < 1 or k < 2 * q:
        raise ValueError(f"circular clique needs k >= 2q >= 2, got ({k}, {q})")
    edges = ((i, j) for i in range(k) for j in range(i + q, min(k, i + k - q + 1)))
    return Graph(k, edges, name=f"G_{{{k},{q}}}")


def frozen_regular_graph(d: int, q: int) -> Graph:
    """The d-regular subgraph of G_{k,q}, k = (2q-1)d + 1, whose identity
    colouring admits no single-vertex recolouring.

    N(i) = {i+q, i+q+(2q-1), ..., i+q+(d-1)(2q-1)} mod k.
    """
    if d < 2 or q < 1:
        raise ValueError("need d >= 2 and q >= 1")
    k = (2 * q - 1) * d + 1
    edges = ((i, (i + q + j * (2 * q - 1)) % k) for i in range(k) for j in range(d))
    g = Graph(k, edges, name=f"F_{{{d},{q}}}")
    if any(g.degree(v) != d for v in range(k)):
        raise AssertionError("frozen graph construction is not d-regular")
    return g


# --- products ----------------------------------------------------------------


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Categorical product: (a,b)(a',b') is an edge iff aa' in E(g) and bb' in E(h).

    Vertex (a, b) gets index a * h.n + b.
    """
    rows = [0] * (g.n * h.n)
    for a in range(g.n):
        base = a * h.n
        for ap in _bits(g.rows[a]):
            off = ap * h.n
            for b in range(h.n):
                rows[base + b] |= h.rows[b] << off
    return Graph.from_rows(rows)


def extension_product(g: Graph, f: Graph) -> Graph:
    """Product used for precolouring extension: edge between (a,b) and (a',b')
    iff aa' in E(g) and (bb' in E(f) or b = b').

    Identical to the categorical product against f with all loops added, with
    the same (a, b) -> a * f.n + b indexing.
    """
    return tensor_product(g, f.with_all_loops())


# --- classical parameters ----------------------------------------------------


def degrees(g: Graph) -> tuple[int, int, list[int]]:
    """(max degree, min degree, per-vertex list); loops count once."""
    per = [g.degree(v) for v in range(g.n)]
    if not per:
        return (0, 0, [])
    return (max(per), min(per), per)


def degeneracy_order(g: Graph) -> tuple[int, list[int]]:
    """Iterated minimum-degree removal.

    Returns (col, order) where col is the colouring number, one more than the
    largest minimum degree over subgraphs, and order lists the vertices so
    that order[i] has at most col-1 neighbours among order[:i].  Ties pick
    the least vertex, so the result is deterministic.  The graph with no
    vertex has no subgraph with a vertex, and col 0.  A heap of (degree,
    vertex) finds each removal.  A decrement pushes a new entry and leaves
    the old one behind; it is larger, so it surfaces only once its vertex is
    gone, and is skipped.
    """
    deg = [g.degree(v) for v in range(g.n)]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapify(heap)
    alive = (1 << g.n) - 1
    removal = []
    worst = -1
    while heap:
        d, v = heappop(heap)
        if not alive >> v & 1:
            continue
        worst = max(worst, d)
        removal.append(v)
        alive ^= 1 << v
        for u in _bits(g.rows[v] & alive):
            deg[u] -= 1
            heappush(heap, (deg[u], u))
    return (worst + 1, removal[::-1])


def colouring_number(g: Graph) -> int:
    return degeneracy_order(g)[0]


def max_clique(g: Graph, cap: int = 2_000_000) -> list[int]:
    """Lexicographically least maximum clique of a loop-free graph.

    Branch and bound over an explicit stack of candidate masks, smallest
    vertex first; ``cap`` bounds the number of search nodes.  Cliques are
    reached in lexicographic order and a branch is cut only when it cannot
    beat the best size so far, so the first clique of each new best size is
    the least one of that size.
    """
    if not g.is_loop_free:
        raise ValueError("clique search requires a loop-free graph")
    nodes = 0
    best: list[int] = []
    picked: list[int] = []
    stack = [(1 << g.n) - 1]  # candidates at each depth; len(picked) + 1 entries
    while stack:
        cand = stack[-1]
        if len(picked) + cand.bit_count() <= len(best):
            stack.pop()
            if picked:
                picked.pop()
            continue
        nodes += 1
        if nodes > cap:
            raise CapExceededError(cap, "clique search")
        b = cand & -cand
        stack[-1] = cand ^ b
        v = b.bit_length() - 1
        picked.append(v)
        if len(picked) > len(best):
            best = picked.copy()
        stack.append(cand & g.rows[v])
    return best


def clique_number(g: Graph, cap: int = 2_000_000) -> int:
    return len(max_clique(g, cap))


def chromatic_number(g: Graph, cap: int | None = None) -> int:
    """Least k with a homomorphism into K_k.  Loop-free graphs only."""
    from .homs import hom_exists

    if not g.is_loop_free:
        raise ValueError("chromatic number requires a loop-free graph")
    if g.n == 0:
        return 0
    upper = colouring_number(g)
    for k in range(1, upper + 1):
        if hom_exists(g, complete_graph(k), budget=cap):
            return k
    raise AssertionError("greedy bound violated")  # unreachable


def circular_chromatic_number(g: Graph, max_q: int | None = None, cap: int | None = None) -> Fraction:
    """Least k/q with a homomorphism into G_{k,q}.

    The minimum is attained with q <= |V(g)|, so the default max_q = |V(g)|
    gives the exact value; smaller max_q gives an upper approximation.
    Edgeless graphs return 1 by convention, matching the chromatic number.
    """
    from .homs import hom_exists

    if not g.is_loop_free:
        raise ValueError("circular chromatic number requires a loop-free graph")
    if g.n == 0:
        return Fraction(0)
    if all(r == 0 for r in g.rows):
        return Fraction(1)
    if max_q is None:
        max_q = g.n
    chi = chromatic_number(g, cap)
    lo = Fraction(chi - 1)
    candidates = set()
    for q in range(1, max_q + 1):
        kmin = max(2 * q, int(lo * q) + 1)
        for k in range(kmin, chi * q + 1):
            frac = Fraction(k, q)
            if lo < frac <= chi:
                candidates.add(frac)
    for frac in sorted(candidates):
        if hom_exists(g, circular_clique(frac.numerator, frac.denominator), budget=cap):
            return frac
    raise AssertionError("chromatic bound violated")  # unreachable


def is_bipartite(g: Graph) -> bool:
    """Two-colourability; any loop makes a graph non-bipartite.

    Searched breadth-first from the least vertex of each component, a graph
    is bipartite iff no edge joins two vertices at depths of equal parity.
    """
    if not g.is_loop_free:
        return False
    seen = odd = 0
    for s in range(g.n):
        if seen >> s & 1:
            continue
        for depth, (layer, _) in enumerate(_bfs([s], g.neighbours)):
            for v in layer:
                seen |= 1 << v
                if depth & 1:
                    odd |= 1 << v
    even = seen ^ odd
    return not any(g.rows[v] & (odd if odd >> v & 1 else even) for v in range(g.n))


def shortest_odd_cycle(g: Graph) -> list[int] | None:
    """A shortest odd cycle of a loop-free graph as a vertex list, or None.

    From each vertex s, a breadth-first search over (vertex, parity) pairs
    reaches (s, 1) first along a shortest odd closed walk through s.  Ties
    break toward the least starting vertex, so the answer is deterministic,
    and a search stops short of the depth of the best cycle so far, since
    only a strictly shorter one can replace it.  A shortest odd closed walk
    is always a simple cycle.
    """
    if not g.is_loop_free:
        raise ValueError("odd cycle search requires a loop-free graph")

    def flips(node):
        v, p = node
        return [(u, p ^ 1) for u in _bits(g.rows[v])]

    best: list[int] | None = None
    for s in range(g.n):
        goal = (s, 1)
        layers = _bfs([(s, 0)], flips)
        if best is not None:
            layers = islice(layers, len(best))  # depths below len(best)
        parent = next((parent for _, parent in layers if goal in parent), None)
        if parent is None:
            continue
        cycle = [v for v, _ in _path(parent, goal)[:-1]]
        # a non-simple odd walk through s is strictly longer than the
        # globally shortest odd cycle, so it can never be the answer
        if len(set(cycle)) < len(cycle):
            continue
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


# --- brute-force isomorphism (small graphs only) ------------------------------


def canonical_key(g: Graph) -> tuple:
    """Label-invariant key by minimising over all permutations; n <= 10."""
    if g.n > 10:
        raise ValueError("canonical form is brute force, n <= 10 only")
    best = None
    for perm in permutations(range(g.n)):
        rows = [0] * g.n
        for v in range(g.n):
            for u in _bits(g.rows[v]):
                rows[perm[v]] |= 1 << perm[u]
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return (g.n, best)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test for graphs with at most 10 vertices."""
    if g.n != h.n:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    return canonical_key(g) == canonical_key(h)


# --- text format ---------------------------------------------------------------
#
# One graph per file:
#   c <comment>      (optional; the first comment is kept as the name)
#   p <n>            (exactly once, before any edge)
#   e <u> <v>        (0-based; a loop is "e v v"; duplicates are rejected)


def parse_graph(text: str) -> Graph:
    n = None
    name = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "c":
            if name is None and rest.strip():
                name = rest.strip()
            continue
        if kind == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: repeated p line")
            try:
                n = int(rest)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count {rest!r}") from None
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
            if n > max_vertices():
                raise GraphFormatError(f"line {lineno}: vertex count {n} exceeds "
                                       f"the configured limit {max_vertices()}")
            continue
        if kind == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before p line")
            parts = rest.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: edge needs two endpoints")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad edge {rest!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
            seen.add(key)
            edges.append(key)
            continue
        raise GraphFormatError(f"line {lineno}: unknown line type {kind!r}")
    if n is None:
        raise GraphFormatError("missing p line")
    return Graph(n, edges, name=name)


def format_graph(g: Graph) -> str:
    lines = []
    if g.name:
        lines.append(f"c {g.name}")
    lines.append(f"p {g.n}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
