"""Independent oracles and generators shared by the test modules.

The oracles deliberately avoid the package's search code: homomorphisms are
found by filtering the full assignment product, adjacency is recomputed from
definitions, and components come from a plain BFS over explicit edge lists.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from circmix.graphs import Graph, _bits, canonical_key
from circmix.homs import Hom, enumerate_homs
from circmix.structure import FoldStep, apply_fold


def directed_edges(g: Graph) -> list[tuple[int, int]]:
    out = []
    for u in range(g.n):
        for v in range(g.n):
            if g.has_edge(u, v):
                out.append((u, v))
    return out


def naive_homs(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """Every map V(g) -> V(h) preserving all edges, by brute product filter."""
    arcs = directed_edges(g)
    found = []
    for image in itertools.product(range(h.n), repeat=g.n):
        if all(h.has_edge(image[u], image[v]) for u, v in arcs):
            found.append(image)
    return found


def colour_adjacent_naive(a, b) -> bool:
    return sum(x != y for x, y in zip(a, b)) == 1


def hom_adjacent_naive(a, b, g: Graph, h: Graph, arcs=None) -> bool:
    """The cross condition over every arc of g; callers comparing many pairs
    pass ``arcs = directed_edges(g)`` once."""
    if arcs is None:
        arcs = directed_edges(g)
    return all(h.has_edge(a[u], b[v]) for u, v in arcs)


def components_naive(images, adjacent) -> list[list[tuple[int, ...]]]:
    """BFS components of the given adjacency over the image list."""
    images = sorted(images)
    unseen = set(range(len(images)))
    classes = []
    while unseen:
        start = min(unseen)
        unseen.discard(start)
        queue, members = [start], [start]
        while queue:
            i = queue.pop()
            near = [j for j in unseen if adjacent(images[i], images[j])]
            unseen.difference_update(near)
            members.extend(near)
            queue.extend(near)
        classes.append(sorted(images[i] for i in members))
    return sorted(classes)


def colour_components_by_steps(images, colours: int,
                               step=None) -> list[list[tuple[int, ...]]]:
    """Components of the colour graph over the image list, by a BFS that
    tries every single-coordinate change and looks it up; classes sorted,
    in order of least member.  Linear in the images, for spaces too large
    for the pairwise ``components_naive``.  With ``step`` given, changing
    coordinate v of a to c is tried only when ``step(a, v, c)`` holds."""
    members = set(images)
    seen = set()
    classes = []
    for start in sorted(members):
        if start in seen:
            continue
        seen.add(start)
        queue, cls = [start], [start]
        while queue:
            a = queue.pop()
            for v in range(len(a)):
                for c in range(colours):
                    b = a[:v] + (c,) + a[v + 1:]
                    if b in members and b not in seen and (
                            step is None or step(a, v, c)):
                        seen.add(b)
                        queue.append(b)
                        cls.append(b)
        classes.append(sorted(cls))
    return classes


def hom_components_by_steps(images, g: Graph, h: Graph) -> list[list[tuple[int, ...]]]:
    """Components over the image list under single-vertex steps, where a
    step at a looped vertex v of g must join the old and new colours of v
    in h; as ``colour_components_by_steps`` gives them."""
    return colour_components_by_steps(
        images, h.n, lambda a, v, c: not g.has_loop(v) or h.has_edge(a[v], c))


def degeneracy_order_naive(g: Graph) -> tuple[int, list[int]]:
    """Iterated minimum-degree removal, each step a scan of every live
    vertex for the least (degree, vertex); (col, order) as in
    ``graphs.degeneracy_order``."""
    alive = (1 << g.n) - 1
    deg = [g.degree(v) for v in range(g.n)]
    removal = []
    worst = -1
    for _ in range(g.n):
        v = min((u for u in range(g.n) if alive >> u & 1), key=lambda u: (deg[u], u))
        worst = max(worst, deg[v])
        removal.append(v)
        alive ^= 1 << v
        for u in _bits(g.rows[v] & alive):
            deg[u] -= 1
    return (worst + 1, removal[::-1])


def vertex_components_naive(g: Graph) -> list[list[int]]:
    """Connected components of g by ``components_naive`` over its vertices,
    sorted, in order of least vertex, as ``Graph.components`` gives them."""
    classes = components_naive([(v,) for v in range(g.n)],
                               lambda a, b: g.has_edge(a[0], b[0]))
    return [[v for (v,) in cls] for cls in classes]


def search_order_naive(g: Graph) -> list[int]:
    """A queue search rooted at a maximum-degree vertex of each component,
    least vertex on ties, neighbours in increasing order; the order of
    ``homs._search_order``."""
    order = []
    seen = [False] * g.n
    for comp in vertex_components_naive(g):
        root = max(comp, key=lambda v: (g.degree(v), -v))
        queue = [root]
        seen[root] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in range(g.n):
                if g.has_edge(v, u) and not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def shortest_odd_cycle_naive(g: Graph) -> list[int] | None:
    """``graphs.shortest_odd_cycle`` by a search from each vertex s over
    (vertex, parity) pairs that stops the moment it reaches (s, 1)."""
    best = None
    for s in range(g.n):
        dist = {(s, 0): 0}
        parent = {}
        frontier = [(s, 0)]
        found = None
        while frontier and found is None:
            nxt = []
            for v, p in frontier:
                for u in range(g.n):
                    node = (u, p ^ 1)
                    if not g.has_edge(v, u) or node in dist:
                        continue
                    dist[node] = dist[(v, p)] + 1
                    parent[node] = (v, p)
                    if node == (s, 1):
                        found = node
                        break
                    nxt.append(node)
                if found:
                    break
            frontier = nxt
        if found is None:
            continue
        walk = []
        node = found
        while node != (s, 0):
            walk.append(node[0])
            node = parent[node]
        walk.append(s)
        cycle = walk[::-1][:-1]
        if len(set(cycle)) != len(cycle):
            continue
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def distances_naive(g: Graph, sources) -> list[int | None]:
    """Host distance from the nearest of ``sources`` to each vertex, None
    when unreachable, by expanding one frontier at a time."""
    dist: list[int | None] = [None] * g.n
    frontier = sorted(set(sources))
    for v in frontier:
        dist[v] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in range(g.n):
                if g.has_edge(u, v) and dist[v] is None:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def hom_graph(g: Graph, h: Graph) -> tuple[Graph, list[tuple[int, ...]]]:
    """The homomorphism graph as an explicit Graph, plus its vertex order.

    Every homomorphism is self-adjacent, so the result is reflexive.
    """
    images = list(enumerate_homs(g, h).images)
    arcs = directed_edges(g)
    edges = [(i, i) for i in range(len(images))]
    for i, a in enumerate(images):
        for j in range(i + 1, len(images)):
            if hom_adjacent_naive(a, images[j], g, h, arcs):
                edges.append((i, j))
    return Graph(len(images), edges), images


def hom_graph_radius_naive(g: Graph, h: Graph) -> int:
    """Radius of the homomorphism graph, by BFS from every naive hom.

    Raises ValueError when the homomorphism graph is disconnected.
    """
    images = naive_homs(g, h)
    arcs = directed_edges(g)
    eccentricities = []
    for start in images:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for a in frontier:
                for b in images:
                    if b not in dist and hom_adjacent_naive(a, b, g, h, arcs):
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if len(dist) < len(images):
            raise ValueError("homomorphism graph is disconnected")
        eccentricities.append(max(dist.values()))
    return min(eccentricities)


def all_graphs(n: int, loops: bool = False):
    """Every graph on n labelled vertices, optionally with loops."""
    slots = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    for bits in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        yield Graph(n, edges)


def iso_reps(max_n: int, loops: bool = False, min_n: int = 1) -> list[Graph]:
    """One representative per isomorphism class, up to max_n vertices."""
    reps = {}
    for n in range(min_n, max_n + 1):
        for g in all_graphs(n, loops=loops):
            reps.setdefault(canonical_key(g), g)
    return list(reps.values())


def random_graph(rng: random.Random, n: int, p: float = 0.5,
                 loops: bool = False) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u if loops else u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


@st.composite
def graphs_with_loops(draw, max_n: int = 10, min_n: int = 1):
    """A hypothesis strategy: any graph with loops on min_n..max_n vertices."""
    n = draw(st.integers(min_n, max_n))
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    return Graph(n, draw(st.sets(st.sampled_from(slots))) if slots else [])


def idempotent_endos(g: Graph) -> list[Hom]:
    """Endomorphisms f with f(f(v)) = f(v); each one witnesses a retract."""
    out = []
    for f in enumerate_homs(g, g).homs():
        if all(f.image[f.image[v]] == f.image[v] for v in range(g.n)):
            out.append(f)
    return out


def retract_from_endo(g: Graph, endo: Hom) -> tuple[Graph, Hom]:
    """The retract induced by an idempotent endo, with the retraction map."""
    fixed = sorted(set(endo.image))
    rank = {v: i for i, v in enumerate(fixed)}
    small = g.induced(fixed)
    retraction = Hom(g.n, small.n, tuple(rank[endo.image[v]] for v in range(g.n)))
    return small, retraction


def fold_pairs_naive(g: Graph) -> list[tuple[int, int]]:
    """Every (removed, absorber) pair with N(removed) within N(absorber),
    loops included, in lexicographic order, by scanning all n² pairs."""
    return [(v, u) for v in range(g.n) for u in range(g.n)
            if u != v and g.rows[v] | g.rows[u] == g.rows[u]]


def stiff_reduction_naive(g: Graph) -> tuple[list[tuple[int, int]], Graph]:
    """Fold the least pair until no fold remains; the steps and terminal."""
    steps = []
    while pairs := fold_pairs_naive(g):
        steps.append(pairs[0])
        g = apply_fold(g, FoldStep(*pairs[0]))
    return steps, g


def is_rigid_naive(g: Graph) -> bool:
    """No endomorphism besides the identity, by plain recursion over the
    vertices in index order, checking each new colour against the earlier
    ones."""
    img: list[int] = []

    def other_endo_below() -> bool:
        v = len(img)
        if v == g.n:
            return img != list(range(g.n))
        for c in range(g.n):
            if g.has_loop(v) and not g.has_loop(c):
                continue
            if any(g.has_edge(v, u) and not g.has_edge(c, img[u]) for u in range(v)):
                continue
            img.append(c)
            if other_endo_below():
                return True
            img.pop()
        return False

    return not other_endo_below()
