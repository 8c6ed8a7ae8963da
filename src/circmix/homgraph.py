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
vertex is connected in the homomorphism graph too.  Joining boxes is
local: whether two boxes that differ at one unboxed vertex w are linked by
a step depends only on the colours of the unboxed vertices adjacent to w or
to a boxed neighbour of w, so ``_join`` decides it once per colouring of
those vertices, not once per pair of boxes.

The target's cyclic shifts act on all of this.  When c -> c + d (mod n)
is an automorphism of H (``homs._shift_period``), so is f -> f + d on
HOM(G, H): it keeps both adjacencies, since it keeps every edge of H, so it
maps classes to classes, boxes to boxes and groups to groups.  The boxes
are enumerated one per orbit of the r = n / d shifts, and ``_join`` joins
them with a union-find whose links carry a shift in Z_r: a class of the
whole space is a root and a residue of the shift modulo the gcd of r and
the root's cycle voltages.  Sizes, flags and least members are read off
that quotient, so the work is about 1/r of a join over all boxes.

Two families of spaces skip the join, both into a target named G_{k,q}
(``circular._clique_parameters``) with k, q coprime.  When the source is
a cycle C_n and 2q < k < 4q, the classes are read off the winding total
of ``winding.cycle_trace``: one class per total strictly between nq and
n(k-q), plus the 2k frozen colourings when k divides n
(``winding._cycle_classes``, which carries the proof), and no box is
built.  When a mixing theorem covers k/q for a loop-free source
(``circular._theorem_covers``, the rule of ``circular.mixing_scan``), the
space is one class: its boxes are still searched, for the count, the cap
and the non-surjective flag, but not joined.  Every other pair is joined
on boxes.

Homotopy paths walk the homomorphism graph with ``graphs._bfs`` and never
enumerate the space, finding each map's neighbours by one search over its
neighbour box; the source side of those searches is prepared once per walk
(``homs._Source``).

Radii enumerate the space instead and walk it on bitsets (``homindex``),
as does the layered check of ``extension``.  The target's shifts and
reflections (``homs._symmetries``) act on the homomorphism graph too, so a
radius takes one search per orbit, and those searches run together as one
multi-source sweep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import nsmallest
from itertools import islice
from math import gcd
from operator import itemgetter

from .config import hom_cap
from .errors import DisconnectedError, NoColouringsError
from .graphs import Graph, _bfs, _path
from .homs import (Hom, _box_source, _boxes, _rotate, _search, _search_order,
                   _Source, _symmetries, first_hom, format_image, is_hom)


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
    """Cross condition over all source edges, both orientations, loops
    included: g(v) lies in f's mask ``_avail_masks`` at every vertex v.

    Reflexive: every homomorphism is adjacent to itself.
    """
    if f.source_n != g.source_n or f.target_n != g.target_n:
        raise ValueError("homomorphisms live in different spaces")
    if f.source_n != source.n or f.target_n != target.n:
        raise ValueError("graphs do not match the homomorphisms")
    masks = _avail_masks(f.image, source, target)
    return all(m >> c & 1 for m, c in zip(masks, g.image))


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
    """Union-find over boxes whose shifts carry a potential in Z_r: shift
    t of box x lies in the class of shift t + pot[x] of parent[x].  A root
    also keeps ``split``, the gcd of r and of the voltages of the cycles
    its unions closed, so its shifts t and t + split share a class."""

    def __init__(self, n: int, r: int):
        self.parent = list(range(n))
        self.pot = [0] * n
        self.split = [r] * n
        self.r = r

    def find(self, x: int) -> int:
        """x's root, leaving pot[x] the potential from x to it."""
        p = self.parent
        y = p[x]
        if p[y] == y:  # x is a root or a child of one
            return y
        pot, root = self.pot, p[y]
        if p[root] == root:  # a grandchild, the commonest deeper case
            pot[x] = (pot[x] + pot[y]) % self.r
            p[x] = root
            return root
        root, total = y, pot[x]
        while p[root] != root:
            total += pot[root]
            root = p[root]
        while y != root:  # point the path at the root
            pot[x], total = total % self.r, total - pot[x]
            p[x] = root
            x, y = y, p[y]
        return root

    def union(self, a: int, b: int, delta: int = 0) -> None:
        """Join shift t of a with shift t + delta of b, for every t.  b's
        root goes under a's: the group loops pass one box as a again and
        again, and it stays next to its root."""
        ra, rb = self.find(a), self.find(b)
        pot, r = self.pot, self.r
        gap = (delta + pot[b] - pot[a]) % r  # a root's potential is 0
        if ra == rb:
            if gap:
                self.split[ra] = gcd(self.split[ra], gap)
            return
        self.parent[rb] = ra
        pot[rb] = -gap % r
        if self.split[rb] < r:
            self.split[ra] = gcd(self.split[ra], self.split[rb])


def _join(source: Graph, target: Graph, boxed: list[int], boxes, root, r: int,
          homotopy: bool = False):
    """The classes of the shifts of ``boxes``, as ``(roots, pots, splits)``:
    shift t of box i lies in class (roots[i], (t + pots[i]) % s) for
    s = splits[roots[i]], one of the s classes of that root.  These are the
    colour classes or, with ``homotopy`` set and no looped vertex boxed,
    the homomorphism classes; ``boxes``, ``root`` and r are those of
    ``homs._boxes``.

    A box is connected, and a step at a boxed vertex stays in its box.  Two
    boxes that differ at one other vertex w, a group off w, are joined by a
    step exactly when the masks of w's boxed neighbours meet, and, with
    ``homotopy`` set and a loop at w, w's two colours are adjacent in the
    target: the homomorphism classes are those of single-vertex steps where
    a step at a looped vertex follows an edge of the target.

    The test is local.  Boxed vertices are independent and closed, so each
    boxed neighbour's mask, and which colours of w the group holds, are
    functions of the colours of w's free neighbourhood: the free vertices
    adjacent to w or to a boxed neighbour of w, w excluded.  Groups that
    colour that neighbourhood alike split w's colours alike, so
    ``_local_classes`` runs once per colouring of it, not once per group.

    The test is also equivariant.  A shift c -> c + d of the target maps
    groups to groups and classes to classes, since it keeps both
    adjacencies, so the join runs on one box per orbit and each union joins
    shift t of one box to shift t + delta of another for every t at once.
    Off a free vertex w other than ``root`` a group's boxes share root's
    colour, so the orbit's group with that colour below d holds shift 0 of
    each: delta is 0.  Off ``root`` each box is framed by the shift that
    brings the colour of a fixed other free vertex below d, one of w's free
    neighbourhood when it has one, so the key is framed too; the framed
    boxes of one orbit of groups form one group, and a union carries the
    difference of the two frames.  With no other free vertex the one group
    holds all r shifts of every box.  A union inside one tree closes a
    cycle whose voltage, the gap of its potentials, puts shifts t and
    t + voltage of the root in one class; so a root whose voltages have gcd
    s with r splits into s classes, shift t of box i lying in class
    (t + potential of i) mod s.
    """
    uf = _UnionFind(len(boxes), r)
    n = target.n
    d = n // r
    slot = {v: j for j, v in enumerate(boxed)}
    # a box's free colours as one integer, a bit field per free vertex, so
    # its group off w is the code with w's field cleared, and the key of
    # that group is the code masked to w's free neighbourhood
    width = (n - 1).bit_length()
    free = [v for v in range(source.n) if v not in slot]
    offset = {w: width * p for p, w in enumerate(free)}
    codes = [sum(im[w] << s for w, s in offset.items()) for im, _, _ in boxes]
    for w, s in offset.items():
        near = [slot[u] for u in source.neighbours(w) if u in slot]
        around = {x for u in source.neighbours(w)
                  for x in (source.neighbours(u) if u in slot else (u,))}
        around = sorted(around.intersection(offset) - {w})
        context = sum(((1 << width) - 1) << offset[x] for x in around)
        step = homotopy and source.has_loop(w)
        # the entries of this pass: the boxes, or off the root the shift
        # lifts[e] of box owner[e], framed as described above
        owner = lifts = None
        lift_codes, colours = codes, [im[w] for im, _, _ in boxes]
        if w == root and r > 1:
            frame = (around or [x for x in free if x != w] or [None])[0]
            if frame is None:
                owner = [i for i in range(len(boxes)) for _ in range(r)]
                lifts = list(range(r)) * len(boxes)
            else:
                owner = range(len(boxes))
                lifts = [-(im[frame] // d) % r for im, _, _ in boxes]
            lift_codes = [sum((boxes[i][0][x] + t * d) % n << sx
                              for x, sx in offset.items()) if t else codes[i]
                          for i, t in zip(owner, lifts)]
            colours = [(boxes[i][0][w] + t * d) % n for i, t in zip(owner, lifts)]
        groups: dict = {}
        for e, (code, c) in enumerate(zip(lift_codes, colours)):
            groups.setdefault(code ^ c << s, []).append(e)
        known: dict = {}
        for code, group in groups.items():
            if len(group) < 2:  # one box, as in every group with its key
                continue
            key = code & context
            if key not in known:
                known[key] = _local_classes(
                    [(colours[e], [boxes[e][1][j] for j in near] if lifts is None else
                      [_rotate(boxes[owner[e]][1][j], lifts[e] * d, n) for j in near])
                     for e in group],
                    target if step else None)
            classes = known[key]
            if not classes:
                continue
            first: dict = {}
            for e in group:
                f = first.setdefault(classes[colours[e]], e)
                if f == e:
                    continue
                if lifts is None:
                    uf.union(f, e)
                else:
                    uf.union(owner[f], owner[e], lifts[e] - lifts[f])
    roots = [uf.find(i) for i in range(len(boxes))]
    return roots, uf.pot, uf.split


def _local_classes(members, target: Graph | None) -> dict[int, int]:
    """The classes of one group off w, as a map from each colour of w to
    the least colour of its class, or empty when every class is one colour.

    ``members`` pairs each colour of w in the group with the masks of w's
    boxed neighbours; two colours join when those masks meet and, with
    ``target`` given (a homotopy step at a looped w), the colours are
    adjacent in it.
    """
    label = {c: c for c, _ in members}
    joined = False
    for a, (c, mc) in enumerate(members):
        for d, md in members[a + 1:]:
            if label[c] != label[d] and all(map(int.__and__, mc, md)) and (
                    target is None or target.has_edge(c, d)):
                keep, drop = sorted((label[c], label[d]))
                joined = True
                for x, y in label.items():
                    if y == drop:
                        label[x] = keep
    return label if joined else {}


def _class_reps(source: Graph, target: Graph, boxed: list[int], boxes, r: int,
                join, keep: int | None = None) -> dict[tuple[int, int], tuple[int, ...]]:
    """Least member of each class ``(root, c)`` of ``_join``, in increasing
    order of that member, or of the ``keep`` classes with the least ones.

    The candidates are the shifts of the root's boxes in the class; each
    vertex in index order keeps those whose least member takes the least
    colour there, so no other member is built.  At vertex 0 that colour
    depends only on the box's colours there and on which shifts the class
    holds, so it is found once per colour mask and potential, not once per
    box.  All classes are narrowed together, vertex by vertex; with
    ``keep`` set, a class whose least member's prefix so far is past the
    ``keep``-th least prefix is dropped, as ``keep`` classes come before it.
    """
    roots, pots, splits = join
    n = target.n
    d = n // r
    if not source.n:  # the one box of the empty map
        return {(x, 0): () for x in set(roots)}

    slot = {v: j for j, v in enumerate(boxed)}

    def colours(cands, v):  # the least member's colour at v, per candidate
        if v not in slot:
            return [(boxes[i][0][v] + t * d) % n for i, t in cands]
        out = []
        for i, t in cands:
            if t:
                m = _rotate(boxes[i][1][slot[v]], t * d, n)
                out.append((m & -m).bit_length() - 1)
            else:  # a box's image holds its least member
                out.append(boxes[i][0][v])
        return out

    # boxes of one root alike in their colours at vertex 0 and in their
    # potential mod its split take the same least colour there in each class
    head = slot.get(0)
    alike: dict[tuple[int, int, int], list[int]] = {}
    for i, (x, p, (im, masks, _)) in enumerate(zip(roots, pots, boxes)):
        m = 1 << im[0] if head is None else masks[head]
        alike.setdefault((x, m, p % splits[x]), []).append(i)
    trees: dict[int, list] = {}
    for (x, m, p), members in alike.items():
        trees.setdefault(x, []).append((m, p, members))
    reps, live = {}, {}
    for x, tree in trees.items():
        s = splits[x]
        for c in range(s):
            best, cands = n, []
            for m, p, members in tree:
                lows: dict[int, list[int]] = {}
                for t in range((c - p) % s, r, s):  # the class's shifts
                    y = _rotate(m, t * d, n)
                    lows.setdefault((y & -y).bit_length() - 1, []).append(t)
                low, ts = min(lows.items())
                if low < best:
                    best, cands = low, []
                if low == best:
                    cands += [(i, t) for i in members for t in ts]
            reps[x, c], live[x, c] = [best], cands
    for v in range(source.n):
        if v:  # keep the least colour at v, vertex 0 being done
            for key, cands in live.items():
                seen = colours(cands, v)
                low = min(seen)
                reps[key].append(low)
                if len(cands) > 1:
                    live[key] = [ic for ic, y in zip(cands, seen) if y == low]
        if keep is not None and len(live) > keep:
            bound = nsmallest(keep, (reps[key] for key in live))[-1]
            live = {key: cands for key, cands in live.items() if reps[key] <= bound}
    return dict(sorted(((key, tuple(reps[key])) for key in live), key=itemgetter(1)))


def _hom_neighbours(image, src: _Source, target: Graph,
                    limit: int | None = None) -> list[tuple[int, ...]]:
    """The homomorphisms hom-adjacent to ``image``, itself included, sorted.

    The homomorphisms inside the box of ``_avail_masks`` are exactly the
    neighbours, so one search over that box finds them all; ``src`` is the
    source prepared over its whole search order.  With ``limit`` set, the
    search stops after that many, so a list of that length may be missing
    some.
    """
    source = src.graph
    domains = _avail_masks(image, source, target)
    return sorted(islice(_search(src, target, [0] * source.n, domains), limit))


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

    The boxes are one per orbit of the target's r cyclic shifts.  A root
    of ``_join`` with split s stands for s classes, each of r/s times its
    boxes' size; they share its non-surjective flag, since a shift moves
    the colours a member misses, and are frozen when its homomorphism class
    is one box of one member whose shifts are all apart (split r).

    A cycle into a coprime G_{k,q} with 2q < k < 4q, both kinds alike,
    takes its classes from ``winding._cycle_classes`` and builds no box.
    A space that a mixing theorem makes one class
    (``circular._theorem_covers``) is not joined: its one class is the
    whole space, with ``first_hom`` as its least member, and is never
    frozen, as it holds at least k >= 2 maps.
    """
    if kind not in ("colour", "homomorphism"):
        raise ValueError(f"unknown kind {kind!r}")
    # imported on first use, as homindex is
    from .circular import _clique_parameters, _theorem_covers
    from .winding import _cycle_classes

    cycle = _cycle_classes(source, target, cap)
    if cycle is not None:
        return ComponentReport(kind, *cycle)
    boxed, found, root, r = _boxes(_box_source(source, loops=False), target, cap)
    boxes = list(found)
    if not boxes:
        return ComponentReport(kind=kind, total=0, classes=())
    free = set(range(source.n)).difference(boxed)
    if _theorem_covers(source, _clique_parameters(target)):
        total = r * sum(size for _, _, size in boxes)
        one = ClassSummary(first_hom(source, target), total,
                           any(_misses_a_colour(box, free, target.n) for box in boxes),
                           False)
        return ComponentReport(kind=kind, total=total, classes=(one,))
    hom = join = _join(source, target, boxed, boxes, root, r, homotopy=True)
    if kind == "colour" and not source.is_loop_free:
        join = _join(source, target, boxed, boxes, root, r)
    roots, _, splits = join
    # a root is a box of its class, so a class of one box is rooted there;
    # its shifts are classes of their own when its split is r
    hom_roots, _, hom_splits = hom
    frozen = {roots[h] for h, count in Counter(hom_roots).items()
              if count == 1 and boxes[h][2] == 1 and hom_splits[h] == r}
    sizes: dict[int, int] = {}
    non_surj: set[int] = set()
    for box, x in zip(boxes, roots):
        sizes[x] = sizes.get(x, 0) + box[2]
        if x not in non_surj and _misses_a_colour(box, free, target.n):
            non_surj.add(x)
    classes = tuple(
        ClassSummary(Hom(source.n, target.n, rep), sizes[x] * r // splits[x],
                     x in non_surj, x in frozen)
        for (x, _), rep in _class_reps(source, target, boxed, boxes, r, join).items())
    return ComponentReport(kind=kind, total=r * sum(sizes.values()), classes=classes)


def _misses_a_colour(box, free, n: int) -> bool:
    """Does the box ``(image, masks, size)`` hold a member that misses some
    colour c of the n?  Exactly when its ``free`` vertices miss c and no
    boxed vertex is held to c alone."""
    im, masks, _ = box
    missing = (1 << n) - 1
    for v in free:
        missing &= ~(1 << im[v])
    for m in masks:
        if m & (m - 1) == 0:
            missing &= ~m
    return missing != 0


def is_mixing(source: Graph, target: Graph, cap: int | None = None) -> MixingVerdict:
    """Is the colour graph of HOM(source, target) connected?

    Reads the classes off the orbit boxes of ``homs._boxes``, joined by
    ``_join``, building no member but the class representatives: a root
    with split s is s classes.  NotMixing verdicts carry the least members
    of the two least classes.  A cycle into a coprime G_{k,q} with
    2q < k < 4q takes its classes from ``winding._cycle_classes`` instead,
    one per winding total, and builds no box.  A space that a mixing
    theorem makes one class (``circular._theorem_covers``) is Mixing once
    its boxes are counted, with no join.
    """
    return _is_mixing(source, target, cap)


def _is_mixing(source: Graph, target: Graph, cap: int | None = None,
               src: _Source | None = None,
               covered: bool | None = None) -> MixingVerdict:
    """``is_mixing`` on what the caller has worked out: ``src``, the
    ``homs._box_source`` of ``source``, else the source is prepared only
    once the cycle rule is out of scope, and ``covered``, the answer of
    ``circular._theorem_covers``, else it is asked once there are boxes."""
    from .circular import _clique_parameters, _theorem_covers
    from .winding import _cycle_classes

    cycle = _cycle_classes(source, target, cap)
    if cycle is not None:
        total, classes = cycle
        if len(classes) < 2:
            status = "mixing" if classes else "no_colourings"
            return MixingVerdict(status, total, len(classes), None)
        return MixingVerdict("not_mixing", total, len(classes),
                             (classes[0].rep, classes[1].rep))
    boxed, found, root, r = _boxes(src or _box_source(source), target, cap)
    boxes = list(found)
    if not boxes:
        return MixingVerdict("no_colourings", 0, 0, None)
    total = r * sum(size for _, _, size in boxes)
    if covered is None:
        covered = _theorem_covers(source, _clique_parameters(target))
    if covered:
        return MixingVerdict("mixing", total, 1, None)
    join = _join(source, target, boxed, boxes, root, r)
    roots, _, splits = join
    count = sum(splits[x] for x in set(roots))
    if count == 1:
        return MixingVerdict("mixing", total, 1, None)
    reps = list(_class_reps(source, target, boxed, boxes, r, join, keep=2).values())
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
    src = _Source(source, _search_order(source))
    goal = g.image

    def neighbours(im):
        # cap + 1 neighbours of one map already overflow the cap once
        # reached, so no neighbour search needs to go further
        return _hom_neighbours(im, src, target, cap + 1)

    for _, parent in _bfs([f.image], neighbours, cap,
                          "maps reached by the homotopy search"):
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

    An automorphism s of the target maps the homomorphism graph onto
    itself by f -> s.f, so eccentricity is constant on the orbits of
    ``homs._symmetries``: one search per orbit.  Every orbit holds a
    representative of ``homindex._HomIndex``, as the shifts are among the
    symmetries, so the searches start from the first representative of
    each orbit, and the least centre is the least member of an orbit of
    least eccentricity.  The searches run together, as one sweep of
    ``homindex._HomIndex.eccentricities``.
    """
    # imported on first use: commands that walk no bitsets never load it
    from .homindex import _HomIndex

    index = _HomIndex(source, target, cap)
    size = len(index.reps)
    if size == 0:
        raise NoColouringsError("no homomorphisms to measure")
    symmetries = _symmetries(target)
    seen = bytearray(size)
    starts, least = [], []
    for i, im in enumerate(index.reps):
        if not seen[i]:
            starts.append(i)
            orbit = [tuple(map(s.__getitem__, im)) for s in symmetries]
            least.append(min(orbit))
            for image in orbit:
                seen[index.number(image) % size] = 1
    eccentricity = index.eccentricities(starts)
    if eccentricity is None:
        raise DisconnectedError("homomorphism graph is disconnected")
    best = min(eccentricity)
    return (best, Hom(source.n, target.n,
                      min(x for x, e in zip(least, eccentricity) if e == best)))
