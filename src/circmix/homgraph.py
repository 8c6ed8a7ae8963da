"""Connectivity analysis of HOM(G, H) under two adjacency notions.

Colour adjacency links homomorphisms that differ at exactly one vertex;
the colour graph being connected is what "H-mixing" means.  Homomorphism
adjacency is the cross condition f(u)g(v) in E(H) over every edge uv of G
in both orientations; it is reflexive on homomorphisms and its walks define
homotopy between them.  For loop-free G both notions give the same
connectivity classes, but not for sources with loops: two reflexive
isolated vertices mapped to themselves form a connected colour graph whose
homomorphism graph has no edges at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .config import hom_cap
from .errors import CapExceededError, DisconnectedError, NoColouringsError
from .graphs import Graph
from .homs import (Hom, HomSpace, _search, _search_order, enumerate_homs,
                   format_image, is_hom)


@dataclass(frozen=True)
class ClassSummary:
    """One connectivity class: lexicographically least member, size, flags."""

    rep: Hom
    size: int
    contains_non_surjective: bool
    contains_frozen: bool


@dataclass(frozen=True)
class ComponentReport:
    """Connectivity classes of HOM(G, H) under the requested adjacency."""

    kind: str  # "colour" or "homomorphism"
    total: int
    classes: tuple[ClassSummary, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def mixing(self) -> bool | None:
        """Connectedness; None when there are no homomorphisms at all."""
        if self.total == 0:
            return None
        return len(self.classes) == 1

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "total": self.total,
            "classes": [
                {
                    "size": c.size,
                    "rep": format_image(c.rep.image),
                    "non_surjective": c.contains_non_surjective,
                    "frozen": c.contains_frozen,
                }
                for c in self.classes
            ],
            "mixing": self.mixing,
        }


@dataclass(frozen=True)
class MixingVerdict:
    status: str  # "mixing" | "not_mixing" | "no_colourings"
    hom_count: int
    class_count: int
    witness: tuple[Hom, Hom] | None

    @property
    def is_mixing(self) -> bool:
        return self.status == "mixing"

    @property
    def name(self) -> str:
        """The report spelling: Mixing, NotMixing or NoColourings."""
        return self.status.title().replace("_", "")


def colour_adjacent(f: Hom, g: Hom) -> bool:
    """Exactly one coordinate differs.  Callers supply members of HOM(G, H)."""
    if f.source_n != g.source_n or f.target_n != g.target_n:
        raise ValueError("homomorphisms live in different spaces")
    return sum(a != b for a, b in zip(f.image, g.image)) == 1


def hom_adjacent(f: Hom, g: Hom, source: Graph, target: Graph) -> bool:
    """Cross condition over all source edges, both orientations.

    Reflexive: every homomorphism is adjacent to itself.
    """
    if f.source_n != g.source_n or f.target_n != g.target_n:
        raise ValueError("homomorphisms live in different spaces")
    if f.source_n != source.n or f.target_n != target.n:
        raise ValueError("graphs do not match the homomorphisms")
    fi, gi = f.image, g.image
    for u, v in source.edges():
        if not target.has_edge(fi[u], gi[v]):
            return False
        if not target.has_edge(fi[v], gi[u]):
            return False
    return True


def _recolour_mask(image, v: int, source: Graph, target: Graph) -> int:
    """Bitmask of colours c != image[v] such that changing v to c stays a hom.

    A loop at v forces the new colour to carry a loop in the target and drops
    the constraint against the old colour at v; edges to other neighbours
    constrain as usual.  Isolated vertices may take any colour.
    """
    if source.has_loop(v):
        m = target.reflexive_mask()
    else:
        m = (1 << target.n) - 1
    for u in source.neighbours(v):
        if u != v:
            m &= target.rows[image[u]]
    return m & ~(1 << image[v])


def recolour_neighbours(f: Hom, source: Graph, target: Graph):
    """Yield every homomorphism at colour distance one from f.

    Order: increasing vertex, then increasing new colour.
    """
    if not is_hom(source, target, f.image):
        raise ValueError("not a homomorphism")
    image = f.image
    for v in range(source.n):
        m = _recolour_mask(image, v, source, target)
        while m:
            b = m & -m
            m ^= b
            c = b.bit_length() - 1
            yield Hom(f.source_n, f.target_n, image[:v] + (c,) + image[v + 1:])


def _avail_masks(image, source: Graph, target: Graph) -> list[int]:
    """Per-vertex masks A[v] with: g hom-adjacent to f  iff  g[v] in A[v] for all v.

    A[v] intersects the target neighbourhoods of f over all source
    neighbours of v, the vertex itself included when it carries a loop.
    """
    full = (1 << target.n) - 1
    out = []
    for v in range(source.n):
        m = full
        for u in source.neighbours(v):
            m &= target.rows[image[u]]
        out.append(m)
    return out


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _independent_sets(g: Graph) -> list[list[int]]:
    """A cover of g by disjoint independent sets, loops ignored.

    Greedy colouring in search order: each vertex takes the least set that
    holds none of its other neighbours.  The search order is breadth-first,
    so a connected bipartite graph gives two sets and an odd cycle three.
    """
    colour = [-1] * g.n
    sets: list[list[int]] = []
    for v in _search_order(g):
        taken = {colour[u] for u in g.neighbours(v)}
        c = 0
        while c in taken:
            c += 1
        colour[v] = c
        if c == len(sets):
            sets.append([])
        sets[c].append(v)
    return sets


def _colour_partition(images: list[tuple[int, ...]], source: Graph) -> list[int]:
    """Union-find over the implicit colour adjacency; root per index.

    One grouping pass per independent set I of the source.  The vertices of
    I recolour independently: each one's allowed colours depend only on the
    colours off I (a loop at v only narrows v's own colours).  So the
    members that agree off I form a box, the product of per-vertex colour
    sets, and single-vertex steps inside the box join all of it.  A
    colour-adjacent pair differs at one vertex v, so it agrees off the set
    holding v and falls in one box.  Each pass keys the members by their
    colours off I and unions each with the first member of its key.  Roots
    are least indices.
    """
    uf = _UnionFind(len(images))
    for ind in _independent_sets(source):
        off = set(ind)
        kept = [v for v in range(source.n) if v not in off]
        key = itemgetter(*kept) if kept else (lambda im: ())
        first: dict = {}
        for i, k in enumerate(map(key, images)):
            j = first.setdefault(k, i)
            if j != i:
                uf.union(j, i)
    return [uf.find(i) for i in range(len(images))]


def _hom_neighbours(image, source: Graph, target: Graph, order: list[int],
                    limit: int | None = None) -> list[tuple[int, ...]]:
    """The homomorphisms hom-adjacent to ``image``, itself included, sorted.

    The homomorphisms inside the box of ``_avail_masks`` are exactly the
    neighbours, so one search over that box finds them all; ``order`` is
    the source's search order.  With ``limit`` set, the search stops after
    that many, so a list of that length may be missing some.
    """
    domains = _avail_masks(image, source, target)
    return sorted(islice(_search(source, target, order, [0] * source.n, domains),
                         limit))


def _hom_partition(space: HomSpace, source: Graph, target: Graph) -> list[int]:
    """Union-find over homomorphism adjacency; root per index."""
    order = _search_order(source)
    uf = _UnionFind(space.count)
    for i, im in enumerate(space.images):
        for nb in _hom_neighbours(im, source, target, order):
            j = space.index(nb)
            if j > i:  # adjacency is symmetric: each edge once
                uf.union(i, j)
    return [uf.find(i) for i in range(space.count)]


def _group(roots: list[int]) -> dict[int, list[int]]:
    """Members per root, in index order."""
    grouped: dict[int, list[int]] = {}
    for i, r in enumerate(roots):
        grouped.setdefault(r, []).append(i)
    return grouped


def components(source: Graph, target: Graph, kind: str = "colour",
               cap: int | None = None) -> ComponentReport:
    """Connectivity classes of HOM(source, target).

    kind="colour" uses single-vertex recolouring steps; kind="homomorphism"
    uses the cross condition.  For loop-free sources the partitions agree,
    and the homomorphism kind reuses the colour partition.  A class is
    frozen when it has a member with no neighbour but itself in the
    homomorphism graph, that is, a member alone in its homomorphism class.
    """
    if kind not in ("colour", "homomorphism"):
        raise ValueError(f"unknown kind {kind!r}")
    space = enumerate_homs(source, target, cap)
    if space.count == 0:
        return ComponentReport(kind=kind, total=0, classes=())
    images = space.images

    if source.is_loop_free:
        grouped = hom_classes = _group(_colour_partition(images, source))
    else:
        hom_classes = _group(_hom_partition(space, source, target))
        grouped = (_group(_colour_partition(images, source))
                   if kind == "colour" else hom_classes)
    lone = {r for r, members in hom_classes.items() if len(members) == 1}

    # union-find roots are least indices, hence least images: the class reps
    classes = []
    for r in sorted(grouped):
        members = grouped[r]
        non_surj = any(len(set(images[i])) < target.n for i in members)
        classes.append(ClassSummary(space.hom(r), len(members), non_surj,
                                    not lone.isdisjoint(members)))
    return ComponentReport(kind=kind, total=space.count, classes=tuple(classes))


def is_mixing(source: Graph, target: Graph, cap: int | None = None) -> MixingVerdict:
    """Is the colour graph of HOM(source, target) connected?

    NotMixing verdicts carry the least members of the two least classes.
    """
    space = enumerate_homs(source, target, cap)
    if space.count == 0:
        return MixingVerdict("no_colourings", 0, 0, None)
    roots = sorted(set(_colour_partition(space.images, source)))
    if len(roots) == 1:
        return MixingVerdict("mixing", space.count, 1, None)
    witness = (space.hom(roots[0]), space.hom(roots[1]))
    return MixingVerdict("not_mixing", space.count, len(roots), witness)


def is_frozen(f: Hom, source: Graph, target: Graph) -> bool:
    """No single-vertex recolouring applies to f.  Loop-free sources only.

    For sources with loops the colour test misreads isolation; ask
    components(kind="homomorphism") for singleton classes instead.
    """
    if not source.is_loop_free:
        raise ValueError(
            "frozen test requires a loop-free source; use homomorphism components")
    if not is_hom(source, target, f.image):
        raise ValueError("not a homomorphism")
    return next(recolour_neighbours(f, source, target), None) is None


def _bfs(start, neighbours, cap: int | None = None):
    """Breadth-first search from ``start``, one layer at a time.

    Yields the parent map once per depth, the start alone first; the last
    yield maps the start to None and every other vertex reached to the one
    it was first reached from.  Layers expand in the order reached, taking
    ``neighbours(x)`` as given.  With ``cap`` set, raises CapExceededError
    once more than ``cap`` vertices are reached.
    """
    parent = {start: None}
    frontier = [start]
    while frontier:
        yield parent
        nxt = []
        for x in frontier:
            for y in neighbours(x):
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
            if cap is not None and len(parent) > cap:
                raise CapExceededError(cap, "maps reached by the homotopy search")
        frontier = nxt


def homotopy_path(f: Hom, g: Hom, source: Graph, target: Graph,
                  cap: int | None = None) -> list[Hom] | None:
    """Shortest walk from f to g in the homomorphism graph, both ends included.

    BFS expands homomorphisms in the order reached and takes their
    neighbours in lexicographic order, so the returned path is
    deterministic.  None if g is unreachable from f.  Raises
    CapExceededError once it reaches more than ``cap`` maps.
    """
    for x in (f, g):
        if not is_hom(source, target, x.image):
            raise ValueError("not a homomorphism")
    cap = hom_cap(cap)
    order = _search_order(source)
    goal = g.image
    # cap + 1 neighbours of one map already overflow the cap once reached,
    # so no neighbour search needs to go further
    for parent in _bfs(f.image,
                       lambda im: _hom_neighbours(im, source, target, order, cap + 1),
                       cap):
        if goal in parent:
            chain = [goal]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            return [Hom(source.n, target.n, im) for im in reversed(chain)]
    return None


def homotopy_distance(f: Hom, g: Hom, source: Graph, target: Graph,
                      cap: int | None = None) -> int | None:
    """BFS distance from f to g in the homomorphism graph; None if unreachable."""
    path = homotopy_path(f, g, source, target, cap)
    return None if path is None else len(path) - 1


def radius_centre(source: Graph, target: Graph, cap: int | None = None) -> tuple[int, Hom]:
    """Radius of the homomorphism graph and a lexicographically least centre.

    Raises NoColouringsError on an empty space and DisconnectedError when
    some pair is unreachable.
    """
    space = enumerate_homs(source, target, cap)
    m = space.count
    if m == 0:
        raise NoColouringsError("no homomorphisms to measure")
    order = _search_order(source)
    adjacent = [[space.index(nb) for nb in _hom_neighbours(im, source, target, order)]
                for im in space.images]
    eccs = []
    for i in range(m):
        # one yield per depth: the eccentricity counts those before the last
        *shallower, reached = _bfs(i, adjacent.__getitem__)
        if len(reached) < m:
            raise DisconnectedError("homomorphism graph is disconnected")
        eccs.append(len(shallower))
    best = min(eccs)
    return (best, space.hom(eccs.index(best)))
