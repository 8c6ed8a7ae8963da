"""Homomorphisms between graphs: validation, composition, enumeration.

A homomorphism f: G -> H maps every edge of G (loops included) to an edge
of H.  Images are tuples indexed by source vertex; the text form used by
the CLI is the comma-separated colour list "c0,c1,...".

One backtracking kernel, ``_search``, serves every search.  It yields
images one by one for early-exit questions, or boxes for counting and
enumeration: the homomorphisms that agree off an independent set of G,
given as one candidate mask per vertex of the set.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate, product

from .config import hom_cap, node_cap
from .errors import CapExceededError
from .graphs import Graph, _bfs, _bits


@dataclass(frozen=True)
class Hom:
    """A vertex map between graphs of the recorded sizes.

    Plain data: validity against particular graphs is checked by is_hom.
    """

    source_n: int
    target_n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.source_n:
            raise ValueError("image length does not match source size")
        if any(not 0 <= c < self.target_n for c in self.image):
            raise ValueError("image colour out of range")

    def __call__(self, v: int) -> int:
        return self.image[v]


def is_hom(g: Graph, h: Graph, image) -> bool:
    """Does the map send every edge of g (loops included) to an edge of h?"""
    image = tuple(image)
    if len(image) != g.n:
        raise ValueError(f"image has {len(image)} entries for {g.n} vertices")
    if any(not 0 <= c < h.n for c in image):
        raise ValueError("image colour out of range for the target")
    for u, v in g.edges():
        if not h.has_edge(image[u], image[v]):
            return False
    return True


def identity_hom(g: Graph) -> Hom:
    return Hom(g.n, g.n, tuple(range(g.n)))


def compose(f: Hom, g: Hom) -> Hom:
    """f then g: the composite v -> g(f(v))."""
    if f.target_n != g.source_n:
        raise ValueError("composition shapes do not match")
    return Hom(f.source_n, g.target_n, tuple(g.image[c] for c in f.image))


def format_image(image) -> str:
    return ",".join(str(c) for c in image)


def parse_image(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad colour list {text!r}") from None


@dataclass
class HomSpace:
    """All homomorphisms from a source to a target, lexicographically sorted."""

    source_n: int
    target_n: int
    images: list[tuple[int, ...]]

    @property
    def count(self) -> int:
        return len(self.images)

    def hom(self, i: int) -> Hom:
        return Hom(self.source_n, self.target_n, self.images[i])

    def homs(self):
        for im in self.images:
            yield Hom(self.source_n, self.target_n, im)

    def index(self, image) -> int:
        try:
            return self._index[tuple(image)]
        except AttributeError:
            self._index = {im: i for i, im in enumerate(self.images)}
            return self._index[tuple(image)]


def _search_order(g: Graph) -> list[int]:
    """BFS order rooted at a maximum-degree vertex of each component."""
    order = []
    for comp in g.components():
        root = max(comp, key=lambda v: (g.degree(v), -v))
        for layer, _ in _bfs([root], g.neighbours):
            order += layer
    return order


def _independent_sets(g: Graph, order: list[int]) -> list[list[int]]:
    """A cover of g by disjoint independent sets, loops ignored.

    Greedy colouring in ``order``, the search order: each vertex takes the
    least set that holds none of its other neighbours.  The search order is
    breadth-first, so a connected bipartite graph gives two sets and an odd
    cycle three.
    """
    colour = [-1] * g.n
    sets: list[list[int]] = []
    for v in order:
        taken = {colour[u] for u in g.neighbours(v)}
        c = 0
        while c in taken:
            c += 1
        colour[v] = c
        if c == len(sets):
            sets.append([])
        sets[c].append(v)
    return sets


def _box_order(g: Graph) -> list[int]:
    """The search order with the largest of ``_independent_sets`` moved.

    Each vertex of that set goes right after its last neighbour, or to the
    front if it has none, so box mode prunes on its colours as soon as they
    are known and never branches on them.
    """
    search = _search_order(g)
    sets = _independent_sets(g, search)
    lifted = set(max(sets, key=len)) if sets else set()
    rest = [v for v in search if v not in lifted]
    pos = {v: i for i, v in enumerate(rest)}
    after: list[list[int]] = [[] for _ in range(len(rest) + 1)]
    for v in sorted(lifted):
        after[1 + max((pos[u] for u in g.neighbours(v) if u != v), default=-1)].append(v)
    order = after[0]
    for v, tail in zip(rest, after[1:]):
        order.append(v)
        order += tail
    return order


def _closed(g: Graph, order: list[int]) -> list[bool]:
    """Per level of ``order``: do the vertex's other neighbours in ``order``
    all come before it?  No two such vertices are adjacent."""
    level = {w: i for i, w in enumerate(order)}
    return [all(level.get(u, i) <= i for u in g.neighbours(w))
            for i, w in enumerate(order)]


def _search(g: Graph, h: Graph, order: list[int], img: list[int],
            domains: list[int] | None = None, budget: int | None = None,
            boxes: list[bool] | None = None):
    """Yield every homomorphism g -> h completing ``img``, as image tuples.

    The vertices in ``order`` are assigned in that order, each one trying
    its colours in ascending order; every other vertex keeps the colour it
    already has in ``img``, and the edges among those are not checked.
    ``domains[v]`` narrows the colours allowed at v.  The budget counts
    assignments of vertices in ``order``; running out raises
    CapExceededError.  Backtracking keeps one candidate mask per level on
    an explicit stack, so the depth of the search is unbounded.

    With ``boxes`` given, one flag per level, the search does not branch on
    the levels flagged, each of them closed in the sense of ``_closed``.
    No two are adjacent, so any colours from their candidate masks complete
    a homomorphism: each assignment of the other vertices with all those
    masks nonempty is a box, yielded as ``(image, masks)``, the masks in
    level order and the image the box's least member.  The budget counts
    only branching.
    """
    rows = h.rows
    full = (1 << h.n) - 1
    refl = h.reflexive_mask()
    level = {w: i for i, w in enumerate(order)}
    base: list[int] = []
    earlier: list[list[int]] = []
    for i, w in enumerate(order):
        m = refl if g.has_loop(w) else full
        if domains is not None:
            m &= domains[w]
        prior = []
        for u in g.neighbours(w):
            j = level.get(u)
            if j is None:
                m &= rows[img[u]]
            elif j < i:
                prior.append(u)
        base.append(m)
        earlier.append(prior)

    depth = len(order)
    if depth == 0:
        yield tuple(img) if boxes is None else (tuple(img), ())
        return
    limit = sys.maxsize if budget is None else budget  # an int compares faster
    visited = 0
    last = depth - 1
    leaf = order[last]
    cand = [0] * depth
    cand[0] = base[0]
    if boxes is not None:
        slot = list(accumulate(boxes, initial=0))  # boxed levels before each
        masks = [0] * slot[-1]
    i = 0
    while i >= 0:
        m = cand[i]
        if i == last:
            if boxes is not None:
                if not boxes[i]:  # a branched leaf: one box per colour
                    visited += m.bit_count()
                    if visited > limit:
                        raise CapExceededError(budget, "partial assignments")
                    for c in _bits(m):
                        img[leaf] = c
                        yield tuple(img), tuple(masks)
                elif m:
                    masks[-1] = m
                    img[leaf] = (m & -m).bit_length() - 1
                    yield tuple(img), tuple(masks)
                i -= 1
                continue
            # most nodes sit on the last level: sweep it and count it at once
            visited += m.bit_count()
            over = visited > limit
            if over:
                m = _lowest_bits(m, m.bit_count() - (visited - limit))
            while m:
                b = m & -m
                m ^= b
                img[leaf] = b.bit_length() - 1
                yield tuple(img)
            if over:
                raise CapExceededError(budget, "partial assignments")
            i -= 1
            continue
        if not m:
            i -= 1
            continue
        if boxes is not None and boxes[i]:
            masks[slot[i]] = m
            cand[i] = 0
            img[order[i]] = (m & -m).bit_length() - 1
        else:
            b = m & -m
            cand[i] = m ^ b
            visited += 1
            if visited > limit:
                raise CapExceededError(budget, "partial assignments")
            img[order[i]] = b.bit_length() - 1
        i += 1
        m = base[i]
        for u in earlier[i]:
            m &= rows[img[u]]
        cand[i] = m


def _lowest_bits(m: int, count: int) -> int:
    """The ``count`` lowest set bits of m."""
    out = 0
    for _ in range(count):
        b = m & -m
        out |= b
        m ^= b
    return out


def _boxes(g: Graph, h: Graph, cap: int | None = None, loops: bool = True):
    """``(boxed, boxes)``: the vertices box mode does not branch on in
    ``_box_order``, and an iterator of the boxes of HOM(g, h) as
    ``(image, masks, size)``.  The boxes partition HOM(g, h); the iterator
    raises CapExceededError before the box that passes ``cap`` members.
    With ``loops`` false, no looped vertex is boxed.
    """
    cap = hom_cap(cap)
    order = _box_order(g)
    flags = [c and (loops or not g.has_loop(w))
             for w, c in zip(order, _closed(g, order))]
    boxed = [w for w, c in zip(order, flags) if c]

    def sized():
        total = 0
        for im, masks in _search(g, h, order, [0] * g.n, boxes=flags):
            size = 1
            for m in masks:
                size *= m.bit_count()
            total += size
            if total > cap:
                raise CapExceededError(cap, f"homomorphism count for n={g.n}")
            yield im, masks, size

    return boxed, sized()


def enumerate_homs(g: Graph, h: Graph, cap: int | None = None) -> HomSpace:
    """Every homomorphism g -> h, sorted by image tuple.

    Raises CapExceededError if more than ``cap`` homomorphisms exist, before
    building the members of the box that passes the cap; an empty result
    is an answer, not an error.
    """
    boxed, boxes = _boxes(g, h, cap)
    out: list[tuple[int, ...]] = []
    for im, masks, _ in boxes:
        img = list(im)
        for colours in product(*map(_bits, masks)):
            for v, c in zip(boxed, colours):
                img[v] = c
            out.append(tuple(img))
    out.sort()
    return HomSpace(g.n, h.n, out)


def hom_count(g: Graph, h: Graph, cap: int | None = None) -> int:
    """The number of homomorphisms g -> h, without building any of them.

    Raises CapExceededError exactly when enumerate_homs would: when more
    than ``cap`` homomorphisms exist.
    """
    return sum(size for _, _, size in _boxes(g, h, cap)[1])


def iter_homs(g: Graph, h: Graph, budget: int | None = None):
    """Yield image tuples in search order, visiting at most ``budget`` nodes.

    For early-exit questions (is there a second endomorphism?); the order is
    the backtracking order, not lexicographic.
    """
    return _search(g, h, _search_order(g), [0] * g.n, budget=node_cap(budget))


def _broken_pin_edge(g: Graph, h: Graph,
                     pins: dict[int, int]) -> tuple[int, int] | None:
    """First edge (u, v) of g, loops included, whose pinned ends have
    colours not adjacent in h, or None.  Pins go in dict order; each one's
    loop comes first, then its other neighbours ascending."""
    for u, cu in pins.items():
        if g.has_loop(u) and not h.has_edge(cu, cu):
            return (u, u)
        for v in g.neighbours(u):
            if v in pins and not h.has_edge(cu, pins[v]):
                return (u, v)
    return None


def first_hom(g: Graph, h: Graph, pins: dict[int, int] | None = None,
              budget: int | None = None) -> Hom | None:
    """Lexicographically least homomorphism extending ``pins``, or None.

    Pins are fixed vertex -> colour assignments; they are checked for
    internal consistency first.  None certifies that the search space was
    exhausted.  Raises CapExceededError if the node budget runs out.
    """
    budget = node_cap(budget)
    pins = dict(pins or {})
    for v, c in pins.items():
        if not (0 <= v < g.n and 0 <= c < h.n):
            raise ValueError(f"pin {v}={c} out of range")
    broken = _broken_pin_edge(g, h, pins)
    if broken is not None:
        u, v = broken
        if u == v:
            raise ValueError(f"pin {u}={pins[u]} breaks the loop at {u}")
        raise ValueError(f"pins {u}={pins[u]} and {v}={pins[v]} break an edge")

    img = [pins.get(v, 0) for v in range(g.n)]
    free = [v for v in range(g.n) if v not in pins]
    image = next(_search(g, h, free, img, budget=budget), None)
    return None if image is None else Hom(g.n, h.n, image)


def hom_exists(g: Graph, h: Graph, budget: int | None = None) -> bool:
    return first_hom(g, h, budget=budget) is not None
