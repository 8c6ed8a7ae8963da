"""Independent oracles and generators shared by the test modules.

The oracles deliberately avoid the package's search code: homomorphisms are
found by filtering the full assignment product, adjacency is recomputed from
definitions, and components come from a plain BFS over explicit edge lists.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from circmix.config import max_vertices
from circmix.errors import CapExceededError, GraphFormatError
from circmix.graphs import Graph, _bits, format_graph
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
    """Every map V(g) -> V(h) preserving all edges, by brute product filter,
    in lexicographic order.  The product is filtered a vertex at a time:
    a prefix that breaks an arc among its vertices is not extended."""
    arcs = directed_edges(g)
    found = [()]
    for v in range(g.n):
        back = [u for u, w in arcs if w == v and u < v]
        loop = (v, v) in arcs
        found = [image + (c,) for image in found for c in range(h.n)
                 if (not loop or h.has_edge(c, c))
                 and all(h.has_edge(image[u], c) for u in back)]
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


def missing_zero_naive(n: int, k: int, q: int) -> set[int]:
    """The winding totals of the colourings of C_n into G_{k,q} that miss
    colour 0: from each start c in 1..k-1, a walk of n steps in [q, k-q]
    on the integers, one bit per place reached, that never stands on a
    multiple of k; a place c + s that closes the walk (s a multiple of k)
    gives the total s."""
    top = k * (n + 1)
    zeros = sum(1 << x for x in range(0, top + 1, k))
    totals = set()
    for c in range(1, k):
        reach = 1 << c
        for _ in range(n):
            spread = 0
            for step in range(q, k - q + 1):
                spread |= reach << step
            reach = spread & ~zeros
        totals.update(x - c for x in _bits(reach) if (x - c) % k == 0)
    return totals


def least_member_naive(walk, k: int, q: int, sigma: int) -> tuple[int, ...]:
    """The least colouring of the cycle ``walk`` into G_{k,q} with winding
    total sigma and vertex 0 at colour 0: vertices are pinned greedily in
    index order, each to the least colour a bitset DP allows.  Bit x of a
    position's set is a lift x of its colour on the integers.  From 0 at
    position 0, each step shifts the set by every step in [q, k-q] and
    masks it to the position's pinned residue; back from sigma at position
    n, each step shifts it down alike.  A vertex may take colour c iff both
    sets at its position hold a lift that is c mod k."""
    n = len(walk)
    at = {v: i for i, v in enumerate(walk)}
    residue = [sum(1 << x for x in range(c, sigma + 1, k)) for c in range(k)]
    anywhere = (1 << sigma + 1) - 1
    pinned = {0: 0}  # position -> colour

    def spread(reach, i, shift):
        out = 0
        for step in range(q, k - q + 1):
            out |= shift(reach, step)
        return out & residue[pinned[i]] if i in pinned else out & anywhere

    image = [0] * n
    for v in range(1, n):
        p = at[v]
        ahead, back = 1, 1 << sigma
        for i in range(1, p + 1):
            ahead = spread(ahead, i, lambda r, s: r << s)
        for i in range(n - 1, p - 1, -1):
            back = spread(back, i, lambda r, s: r >> s)
        both = ahead & back
        image[v] = pinned[p] = min(c for c in range(k) if both & residue[c])
    return tuple(image)


def join_pairwise_naive(source: Graph, target: Graph, boxed, boxes,
                        homotopy: bool = False) -> list[int]:
    """``homgraph._join`` by testing every pair of boxes that differ at one
    free vertex w only: they join when all their boxed masks meet (off w's
    boxed neighbours, masks of one box, or components of one mask, as
    ``homgraph._split`` cuts them) and, with ``homotopy`` set and a loop at
    w, w's two colours are adjacent in the target.  A root per box, the
    least box of its class."""
    parent = list(range(len(boxes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    free = [v for v in range(source.n) if v not in boxed]
    for w in free:
        groups = {}
        for i, (im, _, _) in enumerate(boxes):
            groups.setdefault(tuple(im[v] for v in free if v != w), []).append(i)
        for group in groups.values():
            for a, i in enumerate(group):
                for j in group[a + 1:]:
                    ci, cj = boxes[i][0][w], boxes[j][0][w]
                    if all(x & y for x, y in zip(boxes[i][1], boxes[j][1])) and (
                            not (homotopy and source.has_loop(w))
                            or target.has_edge(ci, cj)):
                        ri, rj = sorted((find(i), find(j)))
                        parent[rj] = ri
    return [find(i) for i in range(len(boxes))]


def lift_boxes(boxed, boxes, n: int, r: int):
    """The r shifts of each orbit box of ``homs._boxes`` into a target on
    n colours, box by box, shift t of box i at position i*r + t: every box
    of the space once, as ``(image, masks, size)``.  Shift t adds t*n/r to
    each free colour and rotates each mask with it; a boxed vertex's image
    is the least colour of its rotated mask."""
    d = n // r
    out = []
    for im, masks, size in boxes:
        for t in range(r):
            k = t * d
            rotated = tuple(sum(1 << (c + k) % n for c in _bits(m)) for m in masks)
            img = [(c + k) % n for c in im]
            for v, m in zip(boxed, rotated):
                img[v] = min(_bits(m))
            out.append((tuple(img), rotated, size))
    return out


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


def radius_centre_naive(g: Graph, h: Graph) -> tuple[int, tuple[int, ...]]:
    """Radius of the homomorphism graph and its least centre, by a search
    from every naive hom over the pairwise cross condition, each layer one
    bit mask over the homs; the centre is the first hom of least
    eccentricity in lexicographic order.

    Raises ValueError when there is no hom or the graph is disconnected.
    """
    images = naive_homs(g, h)
    if not images:
        raise ValueError("no homomorphisms")
    arcs = directed_edges(g)
    rows = h.rows
    adjacent = [0] * len(images)
    for i, a in enumerate(images):  # the cross condition is symmetric
        for j in range(i, len(images)):
            b = images[j]
            if all(rows[a[u]] >> b[v] & 1 for u, v in arcs):
                adjacent[i] |= 1 << j
                adjacent[j] |= 1 << i
    everything = (1 << len(images)) - 1
    eccentricities = []
    for start in range(len(images)):
        reached = frontier = 1 << start
        depth = 0
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= adjacent[i]
            frontier = nxt & ~reached
            reached |= frontier
            depth += 1
        if reached != everything:
            raise ValueError("homomorphism graph is disconnected")
        eccentricities.append(depth - 1)
    radius = min(eccentricities)
    return radius, images[eccentricities.index(radius)]


def homotopy_path_naive(a, b, g: Graph, h: Graph, cap: int | None = None,
                        images=None):
    """Shortest walk from image a to image b in the homomorphism graph, by
    a plain first-reached BFS over ``naive_homs``: layer by layer, each
    map's neighbours in lexicographic order, b looked for between layers.
    None when b is unreachable.  Raises CapExceededError as soon as the
    neighbours of one map bring the maps reached past ``cap``.  Callers
    walking one space many times pass ``images = naive_homs(g, h)`` once."""
    if images is None:
        images = naive_homs(g, h)
    arcs = directed_edges(g)
    parent = {a: None}
    layer = [a]
    while layer:
        if b in parent:
            path = [b]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        nxt = []
        for x in layer:
            for y in images:
                if y not in parent and hom_adjacent_naive(x, y, g, h, arcs):
                    parent[y] = x
                    nxt.append(y)
            if cap is not None and len(parent) > cap:
                raise CapExceededError(cap, "maps reached by the naive search")
        layer = nxt
    return None


def all_graphs(n: int, loops: bool = False):
    """Every graph on n labelled vertices, optionally with loops."""
    slots = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    for bits in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        yield Graph(n, edges)


def iso_reps(max_n: int, loops: bool = False, min_n: int = 1) -> list[Graph]:
    """One representative per isomorphism class, up to max_n vertices: the
    first graph of each class in ``all_graphs`` order.  Each new one marks
    every relabelling of itself as seen."""
    reps = []
    for n in range(min_n, max_n + 1):
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for g in all_graphs(n, loops=loops):
            if g.rows not in seen:
                reps.append(g)
                seen.update(g.relabel(perm).rows for perm in perms)
    return reps


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


def parse_graph_naive(text: str) -> Graph:
    """The graph text format read line by line, as ``graphs.parse_graph``
    read every text before it read the form ``format_graph`` writes in
    bulk; its error texts are the ones ``parse_graph`` must give."""
    n = None
    name = None
    rows: list[int] = []
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
            rows = [0] * n
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
            if rows[u] >> v & 1:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            continue
        raise GraphFormatError(f"line {lineno}: unknown line type {kind!r}")
    if n is None:
        raise GraphFormatError("missing p line")
    return Graph.from_rows(rows, name=name)


def _renumber(token: str, how: str) -> str:
    """A numeral of the same value that only the line reader reads."""
    if how == "+":
        return "+" + token
    if how == "0":
        return "0" + token
    if how == "arabic":
        return "".join(chr(0x660 + int(d)) for d in token)
    return token[0] + "_" + token[1:] if len(token) > 1 else "0_" + token


@st.composite
def graph_texts(draw):
    """``(text, limit)``: ``format_graph`` of a drawn graph, loops allowed
    and maybe named, then mutated, and a vertex limit to read it under
    (None for the default).  The mutations cover line endings, spacing,
    comments, numerals the bulk reader leaves to the line reader,
    repeated and out-of-range edges, and the p line."""
    if draw(st.booleans()):
        g = draw(graphs_with_loops(max_n=8))
    else:  # long enough for the bulk read
        g = random_graph(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(12, 40)),
                         p=draw(st.sampled_from([0.1, 0.3, 0.6])), loops=draw(st.booleans()))
    name = draw(st.none() | st.text(st.sampled_from("ab x\t\u00e9"), max_size=5))
    lines = format_graph(Graph.from_rows(g.rows, name)).splitlines()
    p_at = lines.index(f"p {g.n}")
    edges = [tuple(map(int, line.split()[1:])) for line in lines[p_at + 1:]]
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    ending, final = "\n", True
    for how in mutations:
        at = draw(st.integers(0, len(lines)))
        if how in ("crlf", "cr"):
            ending = "\r\n" if how == "crlf" else "\r"
        elif how == "no final newline":
            final = False
        elif how == "blank line":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
        elif how in ("tab", "extra space") and lines:
            i = draw(st.integers(0, len(lines) - 1))
            pad = "\t" if how == "tab" else " "
            if " " in lines[i] and draw(st.booleans()):
                lines[i] = lines[i].replace(" ", pad + " ", 1)
            else:
                lines[i] = draw(st.sampled_from([pad + lines[i], lines[i] + pad]))
        elif how == "comment":
            lines.insert(at, draw(st.sampled_from(["c", "c ", "c note", "c two words"])))
        elif how == "numeral" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            words = lines[i].split(" ")
            spots = [j for j, w in enumerate(words) if w.isdigit()]
            if spots:
                j = draw(st.sampled_from(spots))
                words[j] = _renumber(words[j], draw(st.sampled_from(["+", "0", "arabic", "_"])))
                lines[i] = " ".join(words)
        elif how == "repeated edge" and edges:
            u, v = draw(st.sampled_from(edges))
            lines.insert(max(at, p_at + 1), f"e {u} {v}" if draw(st.booleans()) else f"e {v} {u}")
        elif how == "edge out of range":
            u = draw(st.integers(0, g.n + 2))
            lines.append(f"e {u} {g.n + draw(st.integers(0, 2))}")
        elif how == "repeated p line":
            lines.insert(at, f"p {draw(st.integers(0, 9))}")
        elif how == "p line after an edge" and edges:
            lines.append(lines.pop(lines.index(f"p {g.n}")) if f"p {g.n}" in lines else "p 1")
        elif how == "no p line":
            lines = [line for line in lines if not line.startswith("p ")]
    limit = draw(st.none() | st.integers(1, 9))
    return ending.join(lines) + (ending if final else ""), limit


MUTATIONS = ("crlf", "cr", "no final newline", "blank line", "tab", "extra space",
             "comment", "numeral", "repeated edge", "edge out of range",
             "repeated p line", "p line after an edge", "no p line")
