"""Graphs with packed bitmask adjacency, plus generators, products and parameters.

Vertices are always 0..n-1.  Loops are allowed and live on the diagonal:
a loop at v sets bit v of row v.  The neighbour set N(v) uses set semantics,
so a loop contributes v itself to N(v) and adds exactly 1 to deg(v).

Every traversal in the package is ``_bfs``, a breadth-first search over any
hashable vertices given a neighbour function: components and odd cycles
here, search orders, host distances, and homotopy paths elsewhere.  Two
kinds of walk run on bitsets instead: the layers of ``_odd_layer``, which
decide bipartiteness and pick where a shortest odd cycle starts, and
``homindex``'s walks of an enumerated homomorphism graph.
"""

from __future__ import annotations

import json
import re
import sys
from functools import lru_cache, wraps
from itertools import chain, permutations

from .config import hom_cap, max_vertices
from .errors import CapExceededError, GraphFormatError


class Graph:
    """An undirected graph on vertices 0..n-1, loops allowed.

    Adjacency is one packed integer per vertex: bit u of ``rows[v]`` means
    uv is an edge.  Instances are treated as immutable; all editing helpers
    return new graphs.  Equality compares n and adjacency, never the name.
    ``_facts`` keeps what ``_kept`` functions work out from the rows and
    name; a pickle or copy of a graph holds its rows and name, not its
    facts.
    """

    __slots__ = ("n", "rows", "name", "_facts")

    def __init__(self, n: int, edges=(), name: str | None = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self.name = name
        self._facts = None

    @classmethod
    def from_rows(cls, rows, name: str | None = None) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g.name = name
        g._facts = None
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
        return not _loop_mask(self)

    def reflexive_mask(self) -> int:
        return _loop_mask(self)

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

    def __getstate__(self):
        # the kept facts are keyed on functions and are rebuilt on use
        return self.n, self.rows, self.name

    def __setstate__(self, state):
        if state[0] is None:  # the slots state that pickles once held
            state = state[1]["n"], state[1]["rows"], state[1].get("name")
        self.n, self.rows, self.name = state
        self._facts = None

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.n} edges={self.edge_count()}>"


def _check_order(n: int) -> None:
    """Raise before a graph on n vertices is built, if n is over the limit."""
    if n > max_vertices():
        raise ValueError(f"vertex count {n} exceeds the configured limit {max_vertices()}")


def _kept(build):
    """``build(g)`` for a fact that depends only on g's rows and name,
    which are fixed at construction, worked out on g's first call and kept
    in ``g._facts`` for g's lifetime;
    ``__wrapped__`` works it out afresh.  Threads that race on a graph's
    first call each build the fact, and one is kept."""
    @wraps(build)
    def kept(g):
        facts = g._facts
        if facts is None:
            facts = g._facts = {}
        try:
            return facts[build]
        except KeyError:
            fact = facts[build] = build(g)
            return fact
    return kept


@_kept
def _loop_mask(g: Graph) -> int:
    """The mask of g's looped vertices."""
    return sum(1 << v for v, m in enumerate(g.rows) if m >> v & 1)


@lru_cache(maxsize=32, typed=True)
def _shared(build, *args) -> "Graph":
    """``build(*args)``, one instance per argument tuple, from a cache of
    the 32 graphs last asked for: the named graphs that requests ask of
    again and again keep their ``_kept`` facts between calls.  Callers
    check the arguments and the order limit first, on every call."""
    return build(*args)


def _rotate(m: int, k: int, n: int) -> int:
    """The colour mask m shifted by c -> c + k (mod n), for 0 <= k < n."""
    return (m << k | m >> (n - k)) & ((1 << n) - 1) if k else m


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


def _folds(rows) -> tuple[list[tuple[int, int]], int]:
    """Fold the least pair until no fold remains: ``(pairs, alive)``, each
    fold as (removed, absorber) in the labels current at that fold (a
    vertex's label is the number of live vertices below it), and the mask
    of the vertices left.

    A fold removes v when N(v) lies within another vertex's N(u), loops
    included.  Deleting a vertex only shrinks neighbourhoods, so it can
    give a fold only to a live neighbour.  ``todo`` holds every live vertex
    that may have a fold: a vertex leaves it when it has no absorber, and
    comes back only when a neighbour is folded away.  Its least vertex with
    an absorber is thus the least foldable live vertex, the pair a rescan
    from vertex 0 would take, in O(n + m) absorber tests.  N(v) lies within
    N(u) exactly when u is adjacent to every neighbour of v, so a test
    intersects the rows of v's live neighbours until that is empty.
    """
    alive = todo = (1 << len(rows)) - 1
    pairs = []
    while todo:
        b = todo & -todo
        todo ^= b
        v = b.bit_length() - 1
        cand = alive ^ b
        nbrs = rows[v] & alive
        while nbrs and cand:
            low = nbrs & -nbrs
            cand &= rows[low.bit_length() - 1]
            nbrs ^= low
        if cand:
            pairs.append(((alive & b - 1).bit_count(), (alive & (cand & -cand) - 1).bit_count()))
            alive ^= b
            todo |= rows[v] & alive
    return pairs, alive


# --- generators -------------------------------------------------------------


def complete_graph(r: int) -> Graph:
    """K_r, one shared instance per r (``_shared``)."""
    if r < 1:
        raise ValueError("complete graph needs at least one vertex")
    _check_order(r)
    return _shared(_complete, r)


def _complete(r: int) -> Graph:
    full = (1 << r) - 1
    return Graph.from_rows([full ^ 1 << v for v in range(r)], name=f"K_{r}")


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
    One instance is shared per (k, q) (``_shared``).
    """
    if q < 1 or k < 2 * q:
        raise ValueError(f"circular clique needs k >= 2q >= 2, got ({k}, {q})")
    _check_order(k)
    return _shared(_circular, k, q)


def _circular(k: int, q: int) -> Graph:
    row = _clique_row(k, q)
    return Graph.from_rows([_rotate(row, i, k) for i in range(k)],
                           name=f"G_{{{k},{q}}}")


def _clique_row(k: int, q: int) -> int:
    """Colour 0's row of G_{k,q}: the colours q, ..., k - q."""
    return ((1 << (k - 2 * q + 1)) - 1) << q


def _lower_parent(k: int, q: int) -> tuple[int, int]:
    """The lower parent (k', q') of the coprime k/q, k >= 2q: its Farey
    predecessor, kq' - k'q = 1 with 1 <= q' <= q."""
    qp = 1 if q == 1 else pow(k, -1, q)
    return (k * qp - 1) // q, qp


_CLIQUE_NAME = re.compile(r"G_\{(\d+),(\d+)\}\Z")


@_kept
def _clique_parameters(g: Graph) -> tuple[int, int] | None:
    """(k, q) when g is named G_{k,q} and equals ``circular_clique(k, q)``,
    checked row by row without building it: colour c's row is
    ``_clique_row`` rotated by c."""
    m = _CLIQUE_NAME.match(g.name or "")
    if not m:
        return None
    k, q = int(m.group(1)), int(m.group(2))
    if not k >= 2 * q >= 2 or g.n != k:
        return None
    row = _clique_row(k, q)
    if all(r == _rotate(row, c, k) for c, r in enumerate(g.rows)):
        return (k, q)
    return None


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

    Vertex (a, b) gets index a * h.n + b; past the vertex limit, ValueError.
    """
    _check_order(g.n * h.n)
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
    vertex has no subgraph with a vertex, and col 0.  Each current degree
    keeps a bitmask of the live vertices of that degree; a removal takes
    the least vertex of the lowest nonempty one, and moves each live
    neighbour down one.
    """
    rows = g.rows
    deg = [m.bit_count() for m in rows]
    buckets = [0] * (g.n + 1)
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    alive = (1 << g.n) - 1
    removal, worst, d = [], -1, 0
    for _ in range(g.n):
        while not buckets[d]:
            d += 1
        bit = buckets[d] & -buckets[d]
        buckets[d] ^= bit
        alive ^= bit
        v = bit.bit_length() - 1
        if d > worst:
            worst = d
        removal.append(v)
        for u in _bits(rows[v] & alive):
            b = 1 << u
            buckets[deg[u]] ^= b
            deg[u] -= 1
            buckets[deg[u]] |= b
        if d:
            d -= 1  # a removal lowers degrees by one at most
    return (worst + 1, removal[::-1])


def colouring_number(g: Graph) -> int:
    return degeneracy_order(g)[0]


def max_clique(g: Graph, cap: int | None = None) -> list[int]:
    """Lexicographically least maximum clique of a loop-free graph.

    Branch and bound over an explicit stack of candidate masks, smallest
    vertex first; ``cap`` (``config.hom_cap``) bounds the number of search
    nodes.  Cliques are reached in lexicographic order and a branch is cut
    only when it cannot beat the best size so far, so the first clique of
    each new best size is the least one of that size.
    """
    if not g.is_loop_free:
        raise ValueError("clique search requires a loop-free graph")
    cap, nodes = hom_cap(cap), 0
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


def clique_number(g: Graph, cap: int | None = None) -> int:
    return len(max_clique(g, cap))


def is_bipartite(g: Graph) -> bool:
    """Two-colourability; any loop makes a graph non-bipartite.

    A loop-free graph is bipartite iff no breadth-first layer from the
    least vertex of each component holds an edge (``_odd_layer``).  An
    edge joins vertices whose depths differ by at most one, so an edge
    between two depths of one parity lies inside a layer, and it closes an
    odd walk; with no such edge, the parity of the depth two-colours the
    component.
    """
    if not g.is_loop_free:
        return False
    rest = (1 << g.n) - 1
    while rest:
        layer, seen = _odd_layer(g.rows, (rest & -rest).bit_length() - 1)
        if layer is not None:
            return False
        rest &= ~seen
    return True


def _odd_layer(rows, s: int, depth: int | None = None) -> tuple[int | None, int]:
    """``(t, seen)``: the least depth t, up to ``depth`` when given, at
    which an edge joins two vertices at distance t from s, or None, and the
    mask of the vertices reached by then.  The breadth-first layers are
    masks over the loop-free rows ``rows``, one layer at a time."""
    seen = layer = 1 << s
    t = 0
    while layer:
        reach, m = 0, layer
        while m:
            b = m & -m
            row = rows[b.bit_length() - 1]
            if row & layer:
                return t, seen
            reach |= row
            m ^= b
        if t == depth:
            break
        layer = reach & ~seen
        seen |= layer
        t += 1
    return None, seen


def shortest_odd_cycle(g: Graph) -> list[int] | None:
    """A shortest odd cycle of a loop-free graph as a vertex list, or None.

    The cycle is the one that a breadth-first search over (vertex, parity)
    pairs from (s, 0) first reaches (s, 1) along, for the least vertex s on
    a shortest odd closed walk; ties among equal paths break as ``_bfs``
    meets them, so the answer is deterministic.  A shortest odd closed walk
    is a simple cycle, since a repeated vertex would split it into two
    shorter closed walks, one of them odd.

    Which s that is comes from searches on bitsets (``_odd_layer``).  The
    shortest odd closed walk through s has length 2t + 1 for the least t at
    which two adjacent vertices both lie at distance t from s.  Going out
    to such an edge and back is such a walk; and along any odd closed walk
    through s the distance from s changes by at most one a step and not
    always by exactly one, as the steps are odd in number, so the walk
    crosses an edge uv with d(u) = d(v) = t and is at least 2t + 1 long.
    Starts are searched in increasing order, each only to the depth that
    could beat the best so far, and a triangle ends the search; the one
    search over pairs then runs from the start found.
    """
    if not g.is_loop_free:
        raise ValueError("odd cycle search requires a loop-free graph")
    depth = start = None  # the least t so far, and the start it came from
    for s in range(g.n):
        if depth == 1:  # a triangle: no start can do better
            break
        t, _ = _odd_layer(g.rows, s, None if depth is None else depth - 1)
        if t is not None:
            depth, start = t, s
    if start is None:
        return None

    def flips(node):
        v, p = node
        return [(u, p ^ 1) for u in _bits(g.rows[v])]

    goal = (start, 1)
    parent = next(parent for _, parent in _bfs([(start, 0)], flips) if goal in parent)
    return [v for v, _ in _path(parent, goal)[:-1]]


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

_BULK = 256  # characters; shorter text reads faster line by line from a cold cache
_HEAD = r"(?:c ([ -~]*)\n)?p ([0-9]{1,9})\n"  # format_graph's lines before the edges


def parse_graph(text: str) -> Graph:
    """Read the text format straight into adjacency rows; a duplicate edge
    is one whose bit is already set.  Text of ``_BULK`` or more characters
    as ``format_graph`` writes it is read in bulk: without their ASCII
    digits its edge lines are all "e  ", and with a comma for each "\\ne "
    and space they are one JSON array of integers.  Other text, and an
    edge out of range or repeated, goes to the line reader, which alone
    words the errors."""
    if (len(text) >= _BULK and (m := re.match(_HEAD, text))
            and (n := int(m[2])) <= max_vertices()):
        rows = [0] * n
        edges = text[m.end():]
        shape = edges.encode().translate(None, b"0123456789")
        nums = [n]  # out of range, so the line reader reads the text
        if shape == b"e  \n" * shape.count(b"\n"):
            try:
                nums = json.loads(
                    "[" + ("\n" + edges[:-1]).replace("\ne ", ",").replace(" ", ",")[1:] + "]")
            except ValueError:  # a leading zero, or an "e" before a digit
                pass
        if not nums or max(nums) < n:
            it = iter(nums)
            for u, v in zip(it, it):
                if rows[u] >> v & 1:
                    break
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            else:
                return Graph.from_rows(rows, name=(m[1] or "").strip() or None)
    n = None
    name = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
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
            if rows[u] >> v & 1:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            continue
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
            rows = [0] * n
            continue
        raise GraphFormatError(f"line {lineno}: unknown line type {kind!r}")
    if n is None:
        raise GraphFormatError("missing p line")
    return Graph.from_rows(rows, name=name)


def format_graph(g: Graph) -> str:
    lines = []
    if g.name:
        lines.append(f"c {g.name}")
    lines.append(f"p {g.n}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def read_graph(path) -> Graph:
    """Read a graph file as bytes and decode it as UTF-8.  No newline
    translation is needed: ``parse_graph`` splits lines with
    ``str.splitlines``, which ends a line at "\\r\\n" or a lone "\\r" as
    text mode would."""
    with open(path, "rb") as fh:
        return parse_graph(fh.read().decode("utf-8"))


def write_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
