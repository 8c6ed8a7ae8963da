"""Homomorphisms between graphs: validation, composition, enumeration.

A homomorphism f: G -> H maps every edge of G (loops included) to an edge
of H.  Images are tuples indexed by source vertex; the text form used by
the CLI is the comma-separated colour list "c0,c1,...".  The chromatic
and circular chromatic numbers are existence questions: the least K_k and
G_{k,q} that a graph maps to.

One backtracking kernel, ``_search``, serves every search, and it yields
boxes: the homomorphisms that agree off an independent set of G, each as
its least member followed by one candidate mask per vertex of the set.
Counting and enumeration box the largest such set; early-exit questions
box none, so their boxes are single images.  What it needs of the source,
a ``_Source``, is built once per graph and kept on it
(``graphs._kept``): the box source, the search source of early-exit
questions and walks, and the shift symmetries of a target.  Where
``homgraph`` drains the boxes, ``stats`` records them as phase ``boxes``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, product
from typing import NamedTuple

from .config import hom_cap
from .errors import CapExceededError
from .graphs import (Graph, _bfs, _bits, _kept, _rotate, circular_clique,
                     colouring_number, complete_graph)


class _HomFields(NamedTuple):
    source_n: int
    target_n: int
    image: tuple[int, ...]


class Hom(_HomFields):
    """A vertex map between graphs of the recorded sizes.

    Plain data: validity against particular graphs is checked by is_hom.
    """

    __slots__ = ()

    def __new__(cls, source_n: int, target_n: int, image: tuple[int, ...]):
        if len(image) != source_n:
            raise ValueError("image length does not match source size")
        if any(not 0 <= c < target_n for c in image):
            raise ValueError("image colour out of range")
        return super().__new__(cls, source_n, target_n, image)

    @classmethod
    def _make(cls, fields):  # what _replace builds with: check there too
        return cls(*fields)

    def __call__(self, v: int) -> int:
        return self.image[v]


def is_hom(g: Graph, h: Graph, image) -> bool:
    """Does the map send every edge of g (loops included) to an edge of h?

    Tested on rows: each vertex u's row, from u up, against the target's
    row of u's colour."""
    image = tuple(image)
    if len(image) != g.n:
        raise ValueError(f"image has {len(image)} entries for {g.n} vertices")
    if image and not (0 <= min(image) and max(image) < h.n):
        raise ValueError("image colour out of range for the target")
    rows = h.rows
    for u, (row, c) in enumerate(zip(g.rows, image)):
        ok, m = rows[c], row >> u
        while m:
            b = m & -m
            if not ok >> image[u + b.bit_length() - 1] & 1:
                return False
            m ^= b
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


class HomSpace(NamedTuple):
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
    front if it has none, so a box search prunes on its colours as soon as
    they are known and never branches on them.
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


class _Source:
    """What ``_search`` needs of the source g, built once and shared by
    every search over ``order``, whatever its target, image and domains.
    ``looped`` lists the levels whose vertex carries a loop, ``earlier[i]``
    the neighbours of ``order[i]`` that come before it, and ``fixed`` the
    levels with neighbours outside ``order``, whose colours the image
    gives, as pairs ``(i, outside)``.  ``boxes[i]`` is 0 when the search
    branches on level i, and otherwise the index of the level's mask in
    the boxes the search yields; by default every entry is 0."""

    __slots__ = ("graph", "order", "looped", "earlier", "fixed", "boxes")

    def __init__(self, g: Graph, order: list[int], boxes: list[int] | None = None):
        self.graph, self.order = g, order
        self.boxes = boxes or [0] * len(order)
        self.looped = looped = []
        self.earlier = earlier = []
        self.fixed = fixed = []
        inside = placed = 0  # the vertices of order, and of its first i levels
        for w in order:
            inside |= 1 << w
        for i, w in enumerate(order):
            row = g.rows[w]
            if row >> w & 1:
                looped.append(i)
            earlier.append(_bits(row & placed))
            if row & ~inside:
                fixed.append((i, _bits(row & ~inside)))
            placed |= 1 << w


@_kept
def _box_source(g: Graph) -> _Source:
    """The source of a box search of g: ``_box_order`` with every level
    ``_closed`` flagged, looped ones too, the masks of the flagged levels
    following the image in level order."""
    order = _box_order(g)
    closed = _closed(g, order)
    return _Source(g, order, [k if c else 0
                              for c, k in zip(closed, accumulate(closed, initial=g.n))])


@_kept
def _search_source(g: Graph) -> _Source:
    """The ``_Source`` over ``_search_order(g)``, which early-exit
    questions and walks of the homomorphism graph search."""
    return _Source(g, _search_order(g))


def _search(src: _Source, h: Graph, img: list[int],
            domains: list[int] | None = None, budget: int | None = None):
    """Yield the homomorphisms g -> h completing ``img``, g being
    ``src.graph``, one box at a time.

    The vertices in ``src.order`` are assigned in that order, each one
    trying its colours in ascending order; every other vertex keeps the
    colour it already has in ``img``, and the edges among those are not
    checked.  ``domains[v]`` narrows the colours allowed at v.
    Backtracking keeps one candidate mask per level on an explicit stack,
    so the depth of the search is unbounded.

    The search does not branch on the levels with a nonzero ``src.boxes``
    entry, each of them closed in the sense of ``_closed``.  No two are
    adjacent, so any colours from their candidate masks complete a
    homomorphism: each assignment of the other vertices with all those
    masks nonempty is a box.  It is yielded as one tuple, ``img`` holding
    the box's least member and, at the index ``src.boxes`` gives, the mask
    of each such level, so ``img`` has one more entry per such level.  A
    search that branches on every level yields bare images.

    The budget counts branched assignments; running out raises
    CapExceededError.  The last level is counted whole, and when it passes
    the budget its colours within the budget are yielded before the raise.
    """
    rows = h.rows
    full = (1 << h.n) - 1
    order, earlier, boxes = src.order, src.earlier, src.boxes
    base = [full] * len(order) if domains is None else [domains[w] & full for w in order]
    if src.looped:
        refl = h.reflexive_mask()
        for i in src.looped:
            base[i] &= refl
    for i, outside in src.fixed:
        for u in outside:
            base[i] &= rows[img[u]]

    depth = len(order)
    if depth == 0:
        yield tuple(img)
        return
    limit = sys.maxsize if budget is None else budget  # an int compares faster
    visited = 0
    last = depth - 1
    leaf = order[last]
    cand = [0] * depth
    cand[0] = base[0]
    i = 0
    while i >= 0:
        m = cand[i]
        if i == last:
            if boxes[i]:
                if m:
                    img[boxes[i]] = m
                    img[leaf] = (m & -m).bit_length() - 1
                    yield tuple(img)
            else:  # most nodes sit here: sweep the level and count it at once
                visited += m.bit_count()
                over = visited > limit
                if over:  # keep only the colours within the budget
                    for _ in range(visited - limit):
                        m ^= 1 << m.bit_length() - 1
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
        if boxes[i]:
            img[boxes[i]] = m
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


@_kept
def _shift_period(h: Graph) -> int:
    """The least d dividing n = h.n such that c -> c + d (mod n) is an
    automorphism of h: for every c, ``rows[(c + d) % n]`` is ``rows[c]``
    rotated by d.  The shifts by multiples of d are then a group of order
    n / d.  Every circular clique, K_n and C_n have d = 1; a target with no
    shift symmetry has d = n.
    """
    n, rows = h.n, h.rows
    for d in range(1, n):
        if n % d == 0 and all(rows[(c + d) % n] == _rotate(rows[c], d, n)
                              for c in range(n)):
            return d
    return n


@_kept
def _reflection(h: Graph) -> int | None:
    """The least a below ``_shift_period(h)`` such that c -> a - c is an
    automorphism of h, or None."""
    n, rows = h.n, h.rows
    for a in range(_shift_period(h) or 1):
        flip = [(a - c) % n for c in range(n)]
        if all(rows[flip[c]] == sum(1 << flip[x] for x in _bits(rows[c]))
               for c in range(n)):
            return a
    return None


def _boxes(src: _Source, h: Graph, cap: int | None = None):
    """``(boxed, boxes, root, r)`` for the ``_box_source`` of g: the
    vertices the search does not branch on, in ``_box_order``, an iterator of
    one box of HOM(g, h) per orbit of the target's cyclic shifts, as
    ``(image, masks, size)``, the free vertex whose colour picks the
    orbit's box, and the order r of the shift group.

    With d = ``_shift_period(h)``, the shifts c -> c + t*d (mod n), t in
    Z_r, r = n / d, map HOM(g, h) onto itself and a box onto a box, its
    free colours shifted and its masks rotated with them.  They act freely
    on the colour of ``root``, the first free vertex of ``_box_order``, so
    holding that colour below d yields exactly one box per orbit, and the
    search is cut r-fold at its root.  The shifts of the boxes yielded
    partition HOM(g, h), which has r times their total size; the iterator
    raises CapExceededError before the box that brings that count past
    ``cap``.  A source with no free vertex has root None and r = 1.
    """
    cap = hom_cap(cap)
    g = src.graph
    boxed = [w for w, c in zip(src.order, src.boxes) if c]
    root = next((w for w, c in zip(src.order, src.boxes) if not c), None)
    d = _shift_period(h) if root is not None else h.n
    r = h.n // d if d else 1
    domains = None
    if r > 1:
        domains = [(1 << h.n) - 1] * g.n
        domains[root] = (1 << d) - 1

    def sized():
        n, total = g.n, 0
        for box in _search(src, h, [0] * (n + len(boxed)), domains):
            masks = box[n:]
            size = 1
            for m in masks:
                size *= m.bit_count()
            total += r * size
            if total > cap:
                raise CapExceededError(cap, f"homomorphism count for n={g.n}")
            yield box[:n], masks, size

    return boxed, sized(), root, r


def _orbit_reps(g: Graph, h: Graph, cap: int | None = None):
    """``(reps, root, r)``: the members of the boxes of ``_boxes``, one map
    per orbit of the target's r cyclic shifts, sorted, and the free vertex
    whose colour, held below n / r, picks each orbit's member.

    Raises CapExceededError as ``_boxes`` does, before building the members
    of the box that brings HOM(g, h) past ``cap``.
    """
    boxed, boxes, root, r = _boxes(_box_source(g), h, cap)
    reps: list[tuple[int, ...]] = []
    for im, masks, _ in boxes:
        img = list(im)
        for colours in product(*map(_bits, masks)):
            for v, c in zip(boxed, colours):
                img[v] = c
            reps.append(tuple(img))
    reps.sort()
    return reps, root, r


def enumerate_homs(g: Graph, h: Graph, cap: int | None = None) -> HomSpace:
    """Every homomorphism g -> h, sorted by image tuple.

    Raises CapExceededError if more than ``cap`` homomorphisms exist, before
    building the members of the box that passes the cap; an empty result
    is an answer, not an error.
    """
    out, _, r = _orbit_reps(g, h, cap)
    # a shift keeps most of a sorted list in order, so the final sort
    # merges long runs
    orbit = len(out)
    for t in range(1, r):
        shifted = [(c + t * h.n // r) % h.n for c in range(h.n)]
        out += [tuple(map(shifted.__getitem__, im)) for im in out[:orbit]]
    out.sort()
    return HomSpace(g.n, h.n, out)


def hom_count(g: Graph, h: Graph, cap: int | None = None) -> int:
    """The number of homomorphisms g -> h, without building any of them:
    r times the total size of the boxes of ``_boxes``, one box per orbit of
    the target's r cyclic shifts, so the search is about 1/r of one over
    every box.

    Raises CapExceededError exactly when enumerate_homs would: when more
    than ``cap`` homomorphisms exist.
    """
    _, boxes, _, r = _boxes(_box_source(g), h, cap)
    return r * sum(size for _, _, size in boxes)


def iter_homs(g: Graph, h: Graph, budget: int | None = None):
    """Yield image tuples in search order, visiting at most ``budget`` nodes.

    For early-exit questions (is there a second endomorphism?); the order is
    the backtracking order, not lexicographic.
    """
    return _search(_search_source(g), h, [0] * g.n, budget=hom_cap(budget))


def _broken_pin_edge(g: Graph, h: Graph,
                     pins: dict[int, int]) -> tuple[int, int] | None:
    """First edge (u, v) of g, loops included, whose pinned ends have
    colours not adjacent in h, or None.  Pins go in dict order; each one's
    loop comes first, then its other neighbours ascending.

    Tested on rows: the pinned neighbours of u are ``g.rows[u] & pinned``,
    each against the target row of u's colour."""
    pinned = 0
    for v in pins:
        pinned |= 1 << v
    for u, cu in pins.items():
        m, ok = g.rows[u] & pinned, h.rows[cu]
        if m >> u & 1 and not ok >> cu & 1:
            return (u, u)
        while m:
            b = m & -m
            v = b.bit_length() - 1
            if not ok >> pins[v] & 1:
                return (u, v)
            m ^= b
    return None


def first_hom(g: Graph, h: Graph, pins: dict[int, int] | None = None,
              budget: int | None = None) -> Hom | None:
    """Lexicographically least homomorphism extending ``pins``, or None.

    Pins are fixed vertex -> colour assignments; they are checked for
    internal consistency first.  None certifies that the search space was
    exhausted.  Raises CapExceededError past ``budget`` partial assignments.
    """
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
    return _first_extension(g, h, pins, budget)


def _first_extension(g: Graph, h: Graph, pins: dict[int, int],
                     budget: int | None = None) -> Hom | None:
    """``first_hom`` for pins already checked: in range, and with no edge
    that ``_broken_pin_edge`` finds."""
    img = [pins.get(v, 0) for v in range(g.n)]
    free = [v for v in range(g.n) if v not in pins]
    image = next(_search(_Source(g, free), h, img, budget=hom_cap(budget)), None)
    return None if image is None else Hom(g.n, h.n, image)


def hom_exists(g: Graph, h: Graph, budget: int | None = None) -> bool:
    return first_hom(g, h, budget=budget) is not None


def chromatic_number(g: Graph, cap: int | None = None) -> int:
    """Least k with a homomorphism into K_k.  Loop-free graphs only."""
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
    if not g.is_loop_free:
        raise ValueError("circular chromatic number requires a loop-free graph")
    if max_q is not None and max_q < 1:
        raise ValueError(f"max_q must be at least 1, got {max_q}")
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
