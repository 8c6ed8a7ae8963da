"""Connectivity analysis of HOM(G, H) under two adjacency notions.

Colour adjacency links homomorphisms that differ at exactly one vertex;
the colour graph being connected is what "H-mixing" means.  Homomorphism
adjacency is the cross condition f(u)g(v) in E(H) over every edge uv of G
in both orientations; it is reflexive on homomorphisms and its walks define
homotopy between them.  For loop-free G both notions give the same
connectivity classes, but not for sources with loops: two reflexive
isolated vertices mapped to themselves form a connected colour graph whose
homomorphism graph has no edges at all.

Both kinds of classes are computed on boxes, not members: the colourings
that agree off an independent set of G form a product of per-vertex colour
sets, which single-vertex steps connect (the recolouring argument of
Cereceda, van den Heuvel and Johnson, applied to a whole independent set at
once).  Homomorphism classes are the classes of single-vertex steps where a
step at a looped vertex follows an edge of H: changing the vertices from f
to a neighbour g one at a time meets only homomorphisms, each adjacent to
the last, since every pair of colours an edge uv of G then meets is one of
f(u)g(v), g(u)f(v), f(u)f(v) or g(u)g(v).  So a box that boxes no looped
vertex is connected in the homomorphism graph too.  Homotopy paths and
radii walk the homomorphism graph with ``graphs._bfs``, finding each map's
neighbours by one search over its neighbour box.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .config import hom_cap
from .errors import DisconnectedError, NoColouringsError
from .graphs import Graph, _bfs, _path
from .homs import (Hom, _boxes, _search, _search_order, enumerate_homs,
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


def _box_partition(source: Graph, target: Graph, cap: int | None = None):
    """``(boxed, boxes, roots)``: the boxes of ``homs._boxes`` and a colour
    class root per box from ``_join``.  Raises as ``_boxes`` does."""
    boxed, found = _boxes(source, target, cap)
    boxes = list(found)
    return boxed, boxes, _join(source, target, boxed, boxes)


def _join(source: Graph, target: Graph, boxed: list[int], boxes,
          homotopy: bool = False) -> list[int]:
    """A root per box: the least box of its colour class or, with
    ``homotopy`` set and no looped vertex boxed, of its homomorphism class.

    A box is connected, and a step at a boxed vertex stays in its box.  Two
    boxes that differ at one other vertex w are joined by a step exactly
    when the masks of w's boxed neighbours meet, and, with ``homotopy`` set
    and a loop at w, w's two colours are adjacent in the target: the
    homomorphism classes are those of single-vertex steps where a step at
    a looped vertex follows an edge of the target.
    """
    if len(boxes) < 2:  # nothing to join
        return list(range(len(boxes)))
    uf = _UnionFind(len(boxes))
    slot = {v: j for j, v in enumerate(boxed)}
    # a box's free colours as one integer, a bit field per free vertex, so
    # the key off w is the code with w's field cleared
    width = (target.n - 1).bit_length()
    free = [v for v in range(source.n) if v not in slot]
    shift = {w: width * p for p, w in enumerate(free)}
    codes = [sum(im[w] << s for w, s in shift.items()) for im, _, _ in boxes]
    for w, s in shift.items():
        near = [slot[u] for u in source.neighbours(w) if u in slot]
        step = homotopy and source.has_loop(w)
        groups: dict = {}
        for i, (code, (im, masks, _)) in enumerate(zip(codes, boxes)):
            groups.setdefault(code ^ im[w] << s, []).append(
                (i, [masks[j] for j in near]))
        for group in groups.values():
            for a, (i, mi) in enumerate(group):
                for j, mj in group[a + 1:]:
                    if all(map(int.__and__, mi, mj)) and (
                            not step or target.has_edge(boxes[i][0][w], boxes[j][0][w])):
                        uf.union(i, j)
    return [uf.find(i) for i in range(len(boxes))]


def _class_reps(boxes, roots) -> dict[int, tuple[int, ...]]:
    """Least member per root, in increasing order of that member."""
    least: dict[int, tuple[int, ...]] = {}
    for (im, _, _), r in zip(boxes, roots):
        if r not in least or im < least[r]:
            least[r] = im
    return dict(sorted(least.items(), key=itemgetter(1)))


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


def components(source: Graph, target: Graph, kind: str = "colour",
               cap: int | None = None) -> ComponentReport:
    """Connectivity classes of HOM(source, target).

    kind="colour" uses single-vertex recolouring steps; kind="homomorphism"
    uses the cross condition.  For loop-free sources the partitions agree.
    Both kinds read the classes off boxes that box no looped vertex, joined
    by ``_join``, and build no member but the representatives.  A class is
    frozen when it has a member with no neighbour but itself in the
    homomorphism graph, that is, when it holds a homomorphism class of one
    member.  A box has a member that misses some colour c exactly when its
    other vertices miss c and no boxed vertex is held to c alone.
    """
    if kind not in ("colour", "homomorphism"):
        raise ValueError(f"unknown kind {kind!r}")
    boxed, found = _boxes(source, target, cap, loops=False)
    boxes = list(found)
    hom_roots = roots = _join(source, target, boxed, boxes, homotopy=True)
    if kind == "colour" and not source.is_loop_free:
        roots = _join(source, target, boxed, boxes)
    # a root is a box of its class, so a class of one box is rooted there
    frozen = {roots[h] for h, count in Counter(hom_roots).items()
              if count == 1 and boxes[h][2] == 1}
    free = set(range(source.n)).difference(boxed)
    full = (1 << target.n) - 1
    sizes: dict[int, int] = {}
    non_surj: set[int] = set()
    for (im, masks, size), r in zip(boxes, roots):
        sizes[r] = sizes.get(r, 0) + size
        if r in non_surj:
            continue
        missing = full
        for c in set(map(im.__getitem__, free)):
            missing &= ~(1 << c)
        for m in masks:
            if m & (m - 1) == 0:
                missing &= ~m
        if missing:
            non_surj.add(r)
    classes = tuple(
        ClassSummary(Hom(source.n, target.n, rep), sizes[r], r in non_surj,
                     r in frozen)
        for r, rep in _class_reps(boxes, roots).items())
    return ComponentReport(kind=kind, total=sum(sizes.values()), classes=classes)


def is_mixing(source: Graph, target: Graph, cap: int | None = None) -> MixingVerdict:
    """Is the colour graph of HOM(source, target) connected?

    Reads the classes off the boxes of ``_box_partition``, building no
    member but the class representatives.  NotMixing verdicts carry the
    least members of the two least classes.
    """
    _, boxes, roots = _box_partition(source, target, cap)
    total = sum(size for _, _, size in boxes)
    if total == 0:
        return MixingVerdict("no_colourings", 0, 0, None)
    count = len(set(roots))
    if count == 1:
        return MixingVerdict("mixing", total, 1, None)
    reps = list(_class_reps(boxes, roots).values())
    witness = (Hom(source.n, target.n, reps[0]), Hom(source.n, target.n, reps[1]))
    return MixingVerdict("not_mixing", total, count, witness)


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
    for _, parent in _bfs([f.image],
                          lambda im: _hom_neighbours(im, source, target, order, cap + 1),
                          cap, "maps reached by the homotopy search"):
        if goal in parent:
            return [Hom(source.n, target.n, im) for im in _path(parent, goal)]
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
        *shallower, (_, reached) = _bfs([i], adjacent.__getitem__)
        if len(reached) < m:
            raise DisconnectedError("homomorphism graph is disconnected")
        eccs.append(len(shallower))
    best = min(eccs)
    return (best, space.hom(eccs.index(best)))
