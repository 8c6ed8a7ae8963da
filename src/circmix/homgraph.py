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
f(u)g(v), g(u)f(v), f(u)f(v) or g(u)g(v).  So homomorphism classes join
boxes cut at looped vertices by the components of H (``_split``).  Joining
is local: whether two boxes that differ at one unboxed vertex w are linked
by a step depends only on the colours of the unboxed vertices adjacent to w
or to a boxed neighbour of w, so ``_join`` decides it once per colouring of
those vertices, not once per pair of boxes.  Which vertices those are is
worked out once per source and kept on it (``_join_plan``).

The target's cyclic shifts act on all of this.  When c -> c + d (mod n)
is an automorphism of H (``homs._shift_period``), so is f -> f + d on
HOM(G, H): it keeps both adjacencies, since it keeps every edge of H, so it
maps classes to classes, boxes to boxes and groups to groups.  The boxes
are enumerated one per orbit of the r = n / d shifts, and ``_join`` joins
them with a union-find whose links carry a shift in Z_r: a class of the
whole space is a root and a residue of the shift modulo the gcd of r and
the root's cycle voltages.  Sizes, flags and least members are read off
that quotient, so the work is about 1/r of a join over all boxes.

Some spaces are answered without a join, by the first rule of
``_ruled`` that applies; every other pair is joined on boxes.  ``stats``
records the rung that answered, or the join's phases, and homotopy walks.

Homotopy paths walk the homomorphism graph with ``graphs._bfs`` and never
enumerate the space, finding each map's neighbours by one search over its
neighbour box; the source side of those searches is prepared once per
graph (``homs._search_source``).

Radii enumerate the space instead and walk it on bitsets (``homindex``),
as does the layered check of ``extension``.  The target's shifts and
reflections (``homs._reflection``) act on the homomorphism graph too, so a
radius takes one search per orbit, and those searches run together as one
multi-source sweep.
"""

from __future__ import annotations

from bisect import bisect, insort
from itertools import islice, product
from math import comb, gcd, prod
from operator import itemgetter
from typing import NamedTuple

from . import stats
from .config import hom_cap
from .errors import CapExceededError, DisconnectedError, NoColouringsError
from .graphs import (Graph, _bfs, _bits, _clique_parameters, _kept,
                     _lower_parent, _path, colouring_number, degrees)
from .homs import (Hom, _box_source, _boxes, _reflection, _search,
                   _search_source, _shift_period, _Source, first_hom,
                   format_image, hom_count, is_hom)


class ClassSummary(NamedTuple):
    """One connectivity class: lexicographically least member, size, flags."""

    rep: Hom
    size: int
    contains_non_surjective: bool
    contains_frozen: bool


class ComponentReport(NamedTuple):
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


class MixingVerdict(NamedTuple):
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
    neighbours of v, the vertex itself included when it carries a loop,
    read off the bits of v's row.
    """
    full, rows = (1 << target.n) - 1, target.rows
    out = []
    for row in source.rows:
        m = full
        while row:
            b = row & -row
            m &= rows[image[b.bit_length() - 1]]
            row ^= b
        out.append(m)
    return out


class _UnionFind:
    """Union-find over boxes whose shifts carry a potential in Z_r: shift
    t of box x lies in the class of shift t + pot[x] of its root root[x].
    A root also keeps ``split``, the gcd of r and of the voltages of the
    cycles its unions closed, so its shifts t and t + split share a class.

    Each box points at its root directly, so a find is one lookup, and a
    union that changes nothing (one root, equal potentials) can be told
    by two; a union moves the boxes of the smaller tree, which ``members``
    lists for each root of more than one box."""

    def __init__(self, n: int, r: int):
        self.root = list(range(n))
        self.pot = [0] * n
        self.split = [r] * n
        self.members: dict[int, list[int]] = {}
        self.r = r

    def union(self, a: int, b: int, delta: int = 0) -> None:
        """Join shift t of a with shift t + delta of b, for every t."""
        root, pot, r = self.root, self.pot, self.r
        ra, rb = root[a], root[b]
        gap = (delta + pot[b] - pot[a]) % r  # shift u of rb is u - gap of ra
        if ra == rb:
            if gap:
                self.split[ra] = gcd(self.split[ra], gap)
            return
        members = self.members
        big, small = members.pop(ra, None) or [ra], members.pop(rb, None) or [rb]
        if len(big) < len(small):
            big, small, ra, rb, gap = small, big, rb, ra, -gap
        for x in small:
            root[x] = ra
            pot[x] = (pot[x] - gap) % r
        big += small
        members[ra] = big
        split = self.split
        if split[rb] < r:
            split[ra] = gcd(split[ra], split[rb])


def _join(source: Graph, target: Graph, boxes, root, r: int, homotopy: bool = False):
    """The classes of the shifts of ``boxes``, as ``(roots, pots, splits)``:
    shift t of box i lies in class (roots[i], (t + pots[i]) % s) for
    s = splits[roots[i]], one of the s classes of that root.  These are the
    colour classes or, with ``homotopy`` set and the boxes cut by
    ``_split``, the homomorphism classes; ``boxes``, ``root`` and r are
    those of ``homs._boxes``.  What the join needs of the source whatever
    the target is kept on it (``_join_plan``).

    A box is connected, and a step at a boxed vertex stays in its box.  Two
    boxes that differ at one other vertex w, a group off w, are joined by a
    step exactly when the masks of w's boxed neighbours meet.  So are two
    sub-boxes with ``homotopy`` set, where a step at a looped vertex
    follows an edge of the target, when besides the looped boxed vertices
    not adjacent to w hold one component and, with a loop at w, w's two
    colours are adjacent.  Those components are part of the group, so a
    colour of w may hold sub-boxes of one box, never joined directly: they
    are disjoint at a looped boxed neighbour of w.

    The test is local.  Boxed vertices are independent and closed, so each
    boxed neighbour's mask and its components, and which colours of w the
    group holds, are functions of the colours of w's free neighbourhood:
    the free vertices adjacent to w or to a boxed neighbour of w, w
    excluded.  Groups that colour that neighbourhood alike split w's
    colours alike, so ``_local_classes`` runs once per colouring of it.

    The test is also equivariant.  A shift c -> c + d of the target maps
    groups to groups and classes to classes, since it keeps both
    adjacencies, so the join runs on one box per orbit and each union joins
    shift t of one box to shift t + delta of another for every t at once.
    Off a free vertex w other than ``root`` a group's boxes share root's
    colour, so the orbit's group with that colour below d holds shift 0 of
    each: delta is 0.  Off ``root`` each box is framed by the shift that
    brings the colour of a fixed other free vertex below d, one of w's free
    neighbourhood when it has one, so the key is framed too; the framed
    boxes of one orbit of groups, masks rotated, form one group, and a
    union carries the difference of the two frames.  With no other free
    vertex the one group holds all r shifts of every box.  A union inside
    one tree closes a cycle whose voltage, the gap of its potentials, puts
    shifts t and t + voltage of the root in one class; so a root whose
    voltages have gcd s with r splits into s classes, shift t of box i
    lying in class (t + potential of i) mod s.
    """
    uf = _UnionFind(len(boxes), r)
    roots, pots, splits = uf.root, uf.pot, uf.split
    if not boxes:
        return roots, pots, splits
    n = target.n
    d = n // r
    plan = _join_plan(source)
    full = (1 << n) - 1
    colour_at = list(zip(*[im for im, _, _ in boxes]))  # per vertex, per box
    mask_at = list(zip(*[masks for _, masks, _ in boxes]))  # per slot, per box
    fars = plan.far if homotopy else [[]] * len(plan.free)
    for w, near, far, width, others in zip(plan.free, plan.near, fars, plan.width, plan.others):
        step = target if homotopy and source.has_loop(w) else None
        # the entries of this pass: the boxes, or off the root the shift
        # lifts[e] of box owner[e], framed as described above
        owner = lifts = None
        at, colours, masks = colour_at, colour_at[w], mask_at
        if w == root and r > 1:
            frame = (others or [None])[0]  # of w's free neighbourhood if it has one
            if frame is None:
                owner = [i for i in range(len(boxes)) for _ in range(r)]
                lifts = list(range(r)) * len(boxes)
            else:
                owner = range(len(boxes))
                lifts = [-(c // d) % r for c in colour_at[frame]]
            shifts = [t * d for t in lifts]
            at = {x: [(colour_at[x][i] + k) % n for i, k in zip(owner, shifts)]
                  for x in others}
            colours = [(colour_at[w][i] + k) % n for i, k in zip(owner, shifts)]
            masks = {j: [(m << k | m >> n - k) & full if k else m
                         for m, k in zip(map(mask_at[j].__getitem__, owner), shifts)]
                     for j in near + far}
        # the masks of w's boxed neighbours, per entry, as one integer of a
        # field of n + 1 bits each: all of two entries' masks meet when
        # adding ``ones`` to their AND carries into every bit of ``tops``
        packs = [0] * len(colours)
        ones = tops = 0
        for q, j in enumerate(near):
            o = (n + 1) * q
            ones |= full << o
            tops |= 1 << o + n
            packs = [x | m << o for x, m in zip(packs, masks[j])] if q else masks[j]
        # an entry's group is its colours off w, those of w's free
        # neighbourhood first, then in homotopy joins its components ``far``,
        # and the group's key is that first part
        columns = [at[x] for x in others] + [masks[j] for j in far]
        names = list(zip(colours, packs)) if homotopy else colours
        groups: dict = {}
        for e, code in enumerate(zip(*columns) if columns else [()] * len(colours)):
            groups.setdefault(code, []).append(e)
        known: dict = {}
        for code, group in groups.items():
            if len(group) < 2:  # one box, as in every group with its key
                continue
            key = code[:width]
            classes = known.get(key)
            if classes is None:
                classes = known[key] = _local_classes(group, names, packs,
                                                      ones, tops, step)
            if not classes:
                continue
            first: dict = {}
            for e in group:
                f = first.setdefault(classes[names[e]], e)
                if f == e:
                    continue
                if lifts is None:
                    a, b, delta = f, e, 0
                else:
                    a, b, delta = owner[f], owner[e], lifts[e] - lifts[f]
                x = roots[a]
                # a union inside one tree whose voltage the split divides
                # changes nothing
                if x != roots[b] or (delta + pots[b] - pots[a]) % splits[x]:
                    uf.union(a, b, delta)
    return roots, pots, splits


class _JoinPlan(NamedTuple):
    """What ``_join``, ``_split`` and ``_class_reps`` need of a source and its
    boxed vertices, whatever the target: ``slot`` maps each boxed vertex to
    the index of its mask, ``free`` lists the other vertices in index
    order, and for the free vertex w = ``free[p]``, ``near[p]`` holds the
    slots of w's boxed neighbours, ``far[p]`` those of the looped boxed
    vertices not adjacent to w, ``others[p]`` the free vertices but w,
    those of w's free neighbourhood (the free vertices adjacent to w or to
    a boxed neighbour of w, w excluded) first, each part in index order,
    and ``width[p]`` the size of that neighbourhood."""

    slot: dict[int, int]
    free: list[int]
    near: list[list[int]]
    far: list[list[int]]
    width: list[int]
    others: list[list[int]]


@_kept
def _join_plan(g: Graph) -> _JoinPlan:
    """The ``_JoinPlan`` of g, for both kinds of classes and every scan row."""
    src = _box_source(g)
    slot = {v: j for j, v in enumerate(w for w, c in zip(src.order, src.boxes) if c)}
    free = [v for v in range(g.n) if v not in slot]
    looped = {j for v, j in slot.items() if g.has_loop(v)}
    near, far, width, others = [], [], [], []
    for w in free:
        near.append([slot[u] for u in g.neighbours(w) if u in slot])
        far.append(sorted(looped.difference(near[-1])))
        seen = {x for u in g.neighbours(w)
                for x in (g.neighbours(u) if u in slot else (u,))}
        around = [x for x in free if x in seen and x != w]
        width.append(len(around))
        others.append(around + [x for x in free if x != w and x not in seen])
    return _JoinPlan(slot, free, near, far, width, others)


def _local_classes(group, names, packs, ones: int, tops: int,
                   target: Graph | None) -> dict:
    """The classes of one group off w, as a map from each entry's name to
    the least name of its class, or empty when every class is one entry.

    ``group`` lists the group's entries: entry e is named ``names[e]``, its
    colour at w, or in homotopy joins that colour and ``packs[e]``, the
    masks of w's boxed neighbours, packed as ``_join`` packs them.  Two
    entries join when each of their masks meets its fellow, that is when
    adding ``ones`` to the AND of their packs carries into every bit of
    ``tops``, and, with ``target`` given (a homotopy step at a looped w),
    their colours are adjacent in it.
    """
    label: dict = {}
    seen = []  # the entries before e, as (name, pack)
    joined = False
    for e in group:
        x, mx = names[e], packs[e]
        label[x] = x
        for y, my in seen:
            if (mx & my) + ones & tops == tops and (
                    target is None or target.rows[x[0]] >> y[0] & 1):
                keep, drop = label[x], label[y]
                if keep != drop:
                    if keep > drop:
                        keep, drop = drop, keep
                    joined = True
                    for z, v in label.items():
                        if v == drop:
                            label[z] = keep
        seen.append((x, mx))
    return label if joined else {}


def _split(source: Graph, target: Graph, boxes) -> list:
    """``boxes`` of ``homs._boxes``, each cut into one sub-box per choice,
    at each looped boxed vertex v, of a component of the target induced on
    v's mask.  In a box a homotopy step moves one boxed vertex, at a looped
    v along a target edge, so these are its classes, and a target shift
    maps them onto its shift's.  Joins read only the free colours of the kept image."""
    looped = {j for v, j in _join_plan(source).slot.items() if source.has_loop(v)}
    rows, cut, out = target.rows, {}, []  # cut: each mask's components
    for im, masks, size in boxes:
        for m in {masks[j] for j in looped}.difference(cut):
            cut[m], rest = [], m
            while rest:
                *_, (_, seen) = _bfs([(rest & -rest).bit_length() - 1],
                                     lambda c, m=m: _bits(rows[c] & m))
                cut[m].append(sum(1 << c for c in seen))
                rest &= ~cut[m][-1]
        subs = list(product(*[cut[m] if j in looped else (m,) for j, m in enumerate(masks)]))
        out += [(im, masks, size)] if len(subs) == 1 else [
            (im, x, prod(map(int.bit_count, x))) for x in subs]
    return out


def _class_reps(source: Graph, target: Graph, boxes, r: int, join,
                keep: int | None = None) -> dict[tuple[int, int], tuple[int, ...]]:
    """Least member of each class ``(root, c)`` of ``_join``, in increasing
    order of that member, or of the ``keep`` classes with the least ones.

    A least member is that of one shift t of one box, the box's free
    colours shifted by t*d and each boxed vertex at the least colour of its
    mask so rotated.  The candidates are boxes, each with a set of its
    shifts held as the colours -t*d mod n, so that the colour a shift gives
    a vertex is its colour in the box less the shift's: at a free vertex of
    colour c the least is c less the greatest held colour at most c (or the
    greatest held one), and at a boxed vertex of mask m it is the least y
    with m meeting the held colours moved up by y.  Each vertex in index
    order keeps the candidates, and their shifts, that take the least
    colour there, so no member but the least is built.

    Without ``keep``, each class is narrowed from the shifts of its root's
    boxes that it holds.  With ``keep`` set, no class is set up: the least
    member of the space is narrowed from every box and shift, then the
    least outside its class, and so on ``keep`` times.
    """
    roots, pots, splits = join
    n = target.n
    d = n // r
    if not source.n:  # the one box of the empty map
        return {(x, 0): () for x in set(roots)}
    slot = _join_plan(source).slot
    order = [(v, slot.get(v)) for v in range(source.n)]

    def narrow(cands, member, fronts):
        """Narrow ``cands``, pairs of a box and its shifts held, from vertex
        ``len(member)`` on, appending the least colours to ``member`` and
        the candidates left after each vertex to ``fronts``."""
        for v, j in order[len(member):]:
            best, kept = n, []
            if j is None:
                for i, held in cands:
                    c = boxes[i][0][v]
                    p = ((held & (2 << c) - 1) or held).bit_length() - 1
                    y = (c - p) % n
                    if y <= best:
                        if y < best:
                            best, kept = y, []
                        kept.append((i, 1 << p))
            else:
                for i, held in cands:
                    m, y = boxes[i][1][j], 0
                    while y <= best and not m & (held << y | held >> n - y):
                        y += 1
                    if y <= best:
                        if y < best:
                            best, kept = y, []
                        kept.append((i, held & (m >> y | m << n - y)))
            member.append(best)
            fronts.append(kept)
            cands = kept

    held_by: dict[tuple[int, int], int] = {}

    def shifts(i, c):  # box i's shifts in the class (roots[i], c), held as above
        s = splits[roots[i]]
        key = s, (c - pots[i]) % s
        held = held_by.get(key)
        if held is None:
            held = held_by[key] = sum(1 << (-t) % r * d for t in range(key[1], r, s))
        return held

    found = {}
    if keep is None:
        trees: dict[int, list[int]] = {}
        for i, x in enumerate(roots):
            trees.setdefault(x, []).append(i)
        for x, members in trees.items():
            for c in range(splits[x]):
                member: list[int] = []
                narrow([(i, shifts(i, c)) for i in members], member, [])
                found[x, c] = tuple(member)
        return dict(sorted(found.items(), key=itemgetter(1)))
    # the least member M of what is left has the least prefix, so the
    # deepest front holding a candidate outside every class found holds
    # the next class's least member too, with M's prefix up to there
    taken: dict[int, list[int]] = {}  # the classes found, by root

    def left(cands):  # the candidates' shifts outside every class found
        out = []
        for i, held in cands:
            gone = taken.get(roots[i])
            if gone is not None:
                for c in gone:
                    held &= ~shifts(i, c)
                if not held:
                    continue
            out.append((i, held))
        return out

    every = sum(1 << t * d for t in range(r))
    cands, member, fronts = [(i, every) for i in range(len(boxes))], [], []
    for _ in range(keep):
        narrow(cands, member, fronts)
        i, held = fronts[-1][0]
        x = roots[i]
        c = (pots[i] - (held.bit_length() - 1) // d) % splits[x]
        taken.setdefault(x, []).append(c)
        found[x, c] = tuple(member)
        if len(found) == keep:
            break
        while fronts:
            cands = left(fronts.pop())
            if cands:
                fronts.append(cands)
                break
            member.pop()
        else:
            cands = left([(i, every) for i in range(len(boxes))])
            if not cands:
                break
    return found


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


def _theorem_mixing(k: int, q: int, col: int, dmax: int) -> bool:
    """Does a mixing theorem cover the coprime fraction k/q?

    Two rules: k > (2q-1) col, and k/q > 2 dmax on a graph with an edge
    (strict: K_2 does not mix at 2/1).  The first holds by induction on a
    degeneracy order of G:

    1. Take v last, with d <= col-1 neighbours.  When a neighbour must
       move from colour a to b, v first moves to a colour that clashes
       with no neighbour's colour and not with b.  A colour of G_{k,q}
       clashes with the 2q-1 colours less than q from it, itself included,
       so these rule out at most (d+1)(2q-1) <= col (2q-1) < k colours:
       such a colour exists, and every recolouring walk of G - v lifts.
    2. Colourings that differ only at v are adjacent, so the colour
       classes of G follow from those of G - v by induction.
    3. For col >= 1 it implies the paper's k/q >= 2 col and, at q = 1, the
       integer threshold col + 1 of Cereceda, van den Heuvel and Johnson,
       tight there as K_{d+1} has a frozen (d+1)-colouring.  It does not
       imply the 2 dmax rule, which covers 9/2 on a cycle.
    """
    return gcd(k, q) == 1 and (k > (2 * q - 1) * col or 0 < 2 * dmax * q < k)


def _theorem_covers(g: Graph, params: tuple[int, int] | None) -> bool:
    """Does a mixing theorem make HOM(g, G_{k,q}) one colour class, for
    ``params`` = (k, q), the ``graphs._clique_parameters`` of the target
    (None when it is not a G_{k,q} so named)?  It does when g is loop-free
    with a vertex and ``_theorem_mixing`` covers k/q at g's ``_col_dmax``.

    Such a space is never empty, since each rule puts k/q at or above
    chi(g): k >= (2q-1) col + 1 >= q col, so k/q >= col >= chi, and
    2 dmax >= dmax + 1 >= chi once g has an edge.
    """
    if params is None or not g.n:
        return False
    bounds = _col_dmax(g)
    return bounds is not None and _theorem_mixing(*params, *bounds)


@_kept
def _col_dmax(g: Graph) -> tuple[int, int] | None:
    """(col(g), max degree of g) when g is loop-free, else None: what the
    theorem rule and the bounds of ``circular.mixing_scan`` read.  It is
    (3, 2) when g is a cycle (``_cycle_walk``), with no degeneracy order
    worked out."""
    if _cycle_walk(g) is not None:
        return (3, 2)
    if not g.is_loop_free:
        return None
    return colouring_number(g), degrees(g)[0]


@_kept
def _cycle_walk(g: Graph) -> list[int] | None:
    """The vertices of g in order around it from vertex 0, when g is one
    cycle: connected and loop-free, every vertex of degree 2, n >= 3."""
    rows = g.rows
    if g.n < 3 or any(m.bit_count() != 2 or m >> v & 1 for v, m in enumerate(rows)):
        return None
    walk, prev, v = [0], 0, (rows[0] & -rows[0]).bit_length() - 1
    while v:
        walk.append(v)
        m = rows[v] & ~(1 << prev)
        prev, v = v, m.bit_length() - 1
    return walk if len(walk) == g.n else None


def _cycle_classes(walk: list[int], k: int, q: int, cap: int | None = None
                   ) -> tuple[int, tuple[ClassSummary, ...]]:
    """HOM(C_n, G_{k,q})'s total and classes, in increasing order of least
    member, read off the winding total, for the cycle's ``_cycle_walk``
    and k, q coprime with 2q < k < 4q.  Raises CapExceededError exactly
    when the join would: when the total passes ``cap``, which is known
    before any class is built (``_winding_counts``).

    The rule follows Cereceda, van den Heuvel and Johnson ("Finding paths
    between 3-colourings", JGT 2011) and Brewster, McGuinness, Moore and
    Noel ("A dichotomy theorem for circular colouring reconfiguration",
    TCS 2016).  Let v_0, ..., v_{n-1} be the walk.

    (i) A colouring f is its colour at v_0 plus its steps
    tau_i = f(v_{i+1}) - f(v_i) mod k (indices mod n).  Each step lies in
    [q, k-q], and sigma = sum tau is 0 mod k: ``winding.cycle_trace``'s
    sigma.

    (ii) Recolouring v_i changes tau_{i-1} and tau_i alone and keeps their
    sum mod k.  Both sums lie in [2q, 2k-2q], which for k < 4q is narrower
    than k, so the sum is kept as an integer, and so is sigma: it is
    constant on a class.

    (iii) v_i can be recoloured iff tau_{i-1} + tau_i is not 2q or 2k-2q,
    the two sums that only one pair of steps in [q, k-q] makes: q + q and
    (k-q) + (k-q).  So f is frozen iff every pair of consecutive steps sums
    to 2q or 2k-2q, that is, iff its steps are all q or all k-q.  Then
    sigma = nq or n(k-q), a multiple of k only when k divides n, as q is
    prime to k; those are the 2k frozen colourings, one per colour of v_0
    and direction, and the only members of the two extreme totals.

    (iv) With v_0's colour fixed, recolouring v_i for 0 < i < n moves one
    unit between tau_{i-1} and tau_i, and such moves join every sequence
    of steps with one sum.  A total strictly between nq and n(k-q) admits
    a sequence with tau_0 > q and tau_{n-1} < k-q, from which v_0 steps up
    by one colour.  So all colourings of such a total are one class.

    The classes are thus one per interior total sigma, a multiple of k with
    nq < sigma < n(k-q), of k times the compositions of sigma into n parts
    in [q, k-q] (one per colour of v_0), plus, when k divides n, the 2k
    frozen colourings alone; those visit every colour.  A class's least
    member takes, vertex by vertex in index order, the least colour that
    leaves the colours chosen so far feasible (see ``_least_member``), and
    the frozen ones are the k shifts of the least members of nq and n(k-q).

    (v) Let (k', q') be the lower parent of k/q (``graphs._lower_parent``),
    so kq' - k'q = 1 and k' < k.  The class of an interior total
    sigma = wk holds a colouring that misses a colour iff
    nq' <= wk' <= n(k'-q'), that is, iff C_n has a colouring into
    G_{k',q'} of total wk'.  The class holds every shift of its members,
    so it may as well miss colour 0, and two maps, written on the integer
    lifts of the colours, carry the colourings of C_n into G_{k,q} - 0 to
    those into G_{k',q'} and back:

    - phi(c) = floor(ck/k') + 1, with phi(c + k') = phi(c) + k, maps
      G_{k',q'} into G_{k,q} - 0 (Bondy and Hell, "A note on the star
      chromatic number", JGT 1990).  A step in [q', k'-q'] goes to one in
      [q, k-q], as q'k/k' = q + 1/k' and (k'-q')k/k' = k - q - 1/k', and 0
      is missed, as k > k'.
    - psi(c) = ceil(ck'/k) - 1 on the non-multiples of k, with
      psi(c + k) = psi(c) + k', maps G_{k,q} - 0 into G_{k',q'}.  A step in
      [q, k-q] goes to one in [q', k'-q'], as qk'/k = q' - 1/k and
      (k-q)k'/k = k' - q' + 1/k; the one step that would give q' - 1, by q
      from a colour a with ak' = 1 mod k, lands on a multiple of k.

    Both keep the winding number w: a colouring's lift ends n steps on at
    its start plus wk, and each map moves that end by w times its period.
    """
    n = len(walk)
    sigmas, counts = _winding_counts(n, k, q, cap)
    kp, qp = _lower_parent(k, q)
    classes = []
    for s, c in zip(sigmas, counts):
        rep = _least_member(walk, k, q, s)
        if n * q < s < n * (k - q):
            classes.append(ClassSummary(Hom(n, k, rep), k * c,
                                        n * qp <= s // k * kp <= n * (kp - qp), False))
        else:
            classes += [ClassSummary(Hom(n, k, tuple((x + d) % k for x in rep)), 1, False, True)
                        for d in range(k)]
    return k * sum(counts), tuple(sorted(classes, key=lambda c: c.rep.image))


def _winding_counts(n: int, k: int, q: int, cap: int | None = None
                    ) -> tuple[range, list[int]]:
    """The winding totals sigma of C_n into G_{k,q}, k > 2q, the multiples
    of k in [nq, n(k-q)], each with the number of its step sequences: the
    compositions of sigma into n parts in [q, k-q].  Raises
    CapExceededError(cap, the text of ``homs._boxes``) when k times their
    sum, the number of colourings, passes ``cap``.

    The compositions of sigma - nq into n parts in [0, k-2q] are the
    coefficients of (1 + x + ... + x^(k-2q))^n.  Each is below
    (k-2q+1)^n < 2^b for b = n bit_length(k-2q+1), so with x = 2^b, b
    rounded up to whole bytes, one integer power holds them all
    (Kronecker substitution), a field of b bits each.  A lower bound comes
    first, so that a long cycle is refused before that power is built.
    """
    cap = hom_cap(cap)
    spread = k - 2 * q
    lo, hi = n * q, n * (k - q)
    sigmas = range(-(-lo // k) * k, hi + 1, k)
    if sigmas:
        # the sequences with a steps of k-q, one of q+b and the rest q, of
        # the total nearest the middle, are fewer than the whole
        a, b = divmod(min(sigmas, key=lambda s: abs(2 * s - lo - hi)) - lo, spread)
        if k * comb(n, a) * (n - a if b else 1) > cap:
            raise CapExceededError(cap, f"homomorphism count for n={n}")
    size = -(-n * (spread + 1).bit_length() // 8)  # bytes a field
    base = 1 << 8 * size
    power = ((base ** (spread + 1) - 1) // (base - 1)) ** n
    data = power.to_bytes(size * (n * spread + 1), "little")
    counts = [int.from_bytes(data[(s - lo) * size:(s - lo + 1) * size], "little")
              for s in sigmas]
    if k * sum(counts) > cap:
        raise CapExceededError(cap, f"homomorphism count for n={n}")
    return sigmas, counts


def _arc(length: int, delta: int, k: int, q: int) -> tuple[int, int]:
    """The least and greatest sum of ``length`` steps in [q, k-q] that is
    delta mod k; the least exceeds the greatest when there is none."""
    a, b = length * q, length * (k - q)
    return a + (delta - a) % k, b - (b - delta) % k


def _least_member(walk: list[int], k: int, q: int, sigma: int) -> tuple[int, ...]:
    """The least colouring of the cycle ``walk`` into G_{k,q} with winding
    total sigma, nq <= sigma <= n(k-q), pinning vertices in index order.

    Vertex 0 takes colour 0, as the class holds every shift.  Between two
    consecutive pinned positions a and b of the walk, an arc of L steps,
    the step sums reaching b's colour from a's are the integers of
    [Lq, L(k-q)] in one residue class mod k.  The pins are feasible iff
    every arc has such a sum and sigma lies between the totals of the arcs'
    least and greatest sums, since those sums step by k independently.
    Each vertex takes the least colour that keeps the pins feasible.
    """
    n = len(walk)
    pos = {v: i for i, v in enumerate(walk)}
    pinned = [0, n]  # positions; n is position 0 again
    colour = {0: 0, n: 0}
    arcs = {0: _arc(n, 0, k, q)}  # each arc's (least, greatest) sum, by its start
    least, most = arcs[0]
    image = [0] * n
    for v in range(1, n):
        p = pos[v]
        j = bisect(pinned, p)
        a, b = pinned[j - 1], pinned[j]
        m, big = arcs[a]
        ca, cb = colour[a], colour[b]
        least, most = least - m, most - big  # the other arcs' totals
        for c in range(k):
            lo1, hi1 = first = _arc(p - a, c - ca, k, q)
            if lo1 > hi1:
                continue
            lo2, hi2 = second = _arc(b - p, cb - c, k, q)
            if lo2 <= hi2 and least + lo1 + lo2 <= sigma <= most + hi1 + hi2:
                break
        least, most = least + lo1 + lo2, most + hi1 + hi2
        arcs[a], arcs[p] = first, second
        colour[p] = image[v] = c
        insort(pinned, p)
    return tuple(image)


def _ruled(source: Graph, target: Graph, cap: int | None = None,
           least: bool = True) -> tuple[int, tuple[ClassSummary, ...]] | None:
    """HOM(source, target)'s total and classes, as ``components`` lists
    them, from the first rule that answers the space without a join; None
    when none does, and the boxes are to be joined.  Each rule needs a
    target named G_{k,q} with k, q coprime (``graphs._clique_parameters``),
    and reads a cycle source by its ``_cycle_walk``; both are read once
    here.  The rules, in the order asked:

    1. A cycle into G_{k,q} with 2q < k < 4q: ``_cycle_classes``, one
       class per winding total, and no box is built.
    2. A space that a mixing theorem makes one class (``_theorem_covers``):
       that class is the whole space, with ``first_hom`` as its least
       member, and is never frozen, as it holds at least k >= 2 maps.  A
       cycle is counted from its winding totals (``_winding_counts``), any
       other source by ``homs.hom_count``.  The class holds a member that
       misses a colour: take G -> K_chi -> G_{k,q}, the second map
       i -> iq, which is one as chi <= k/q.  Under the rule
       k > (2q-1) col, chi <= col < k/q; under k/q > 2 dmax,
       chi <= dmax + 1 <= 2 dmax < k/q.  So the map uses chi < k colours.

    With ``least`` false, as ``is_mixing`` asks, no ``first_hom`` is
    called: the covered class's member is None.  Raises CapExceededError
    exactly when the join would.

    On a cycle (col 3, max degree 2) the theorems cover exactly the
    coprime k >= 4q: k > (2q-1) col reads k > 6q - 3, which is k >= 4 at
    q = 1 and lies inside k > 4q for q >= 2, so the two rules never both
    apply.
    """
    start = None if stats.on is None else stats.clock()
    params = _clique_parameters(target)
    if params is None:
        return None
    k, q = params
    walk = _cycle_walk(source)
    if walk is not None and gcd(k, q) == 1 and 2 * q < k < 4 * q:
        rung, ruled = "rule.cycle", _cycle_classes(walk, k, q, cap)
    elif not _theorem_covers(source, params):
        return None
    else:
        total = (hom_count(source, target, cap) if walk is None
                 else k * sum(_winding_counts(source.n, k, q, cap)[1]))
        rep = first_hom(source, target, budget=cap) if least else None
        rung, ruled = "rule.theorem", (total, (ClassSummary(rep, total, True, False),))
    start = None if start is None else stats.add(rung, 1, start)
    return ruled


def components(source: Graph, target: Graph, kind: str = "colour",
               cap: int | None = None) -> ComponentReport:
    """Connectivity classes of HOM(source, target).

    kind="colour" uses single-vertex recolouring steps; kind="homomorphism"
    uses the cross condition.  For loop-free sources the partitions agree.
    A space that a rule answers without a join (``_ruled``) takes that
    rule's classes, both kinds alike.  Every other reads the classes off
    one ``_join`` of the boxes ``is_mixing`` joins, for homomorphism
    classes cut by ``_split``, and builds no member but the
    representatives.  A box has a member that misses some colour c
    exactly when its other vertices miss c and no boxed vertex is held to
    c alone.  A class is frozen when a member has no neighbour but itself
    in the homomorphism graph (``_isolated``): when it is one member, or,
    for colour classes of a looped source, when a box holds such a member.

    The boxes are one per orbit of the target's r cyclic shifts.  A root
    of ``_join`` with split s stands for s classes, each of r/s times its
    boxes' size; each holds a shift of every box of the root, so they share
    both flags, as a shift keeps the homomorphism graph."""
    if kind not in ("colour", "homomorphism"):
        raise ValueError(f"unknown kind {kind!r}")
    ruled = _ruled(source, target, cap)
    if ruled is not None:
        return ComponentReport(kind, *ruled)
    start = None if stats.on is None else stats.clock()
    boxed, found, root, r = _boxes(_box_source(source), target, cap)
    boxes = list(found)
    start = None if start is None else stats.add("boxes", r * sum(box[2] for box in boxes), start)
    if kind == "homomorphism":
        boxes = _split(source, target, boxes)
        start = None if start is None else stats.add("split", len(boxes), start)
    if not boxes:
        return ComponentReport(kind=kind, total=0, classes=())
    free = set(range(source.n)).difference(boxed)
    join = _join(source, target, boxes, root, r, kind == "homomorphism")
    roots, _, splits = join
    start = None if start is None else stats.add("join", sum(splits[x] for x in set(roots)), start)
    sizes: dict[int, int] = {}
    non_surj: set[int] = set()
    frozen: set[int] = set()
    looped = kind == "colour" and not source.is_loop_free
    for box, x in zip(boxes, roots):
        sizes[x] = sizes.get(x, 0) + box[2]
        if x not in non_surj and _misses_a_colour(box, free, target.n):
            non_surj.add(x)
        if looped and x not in frozen and _holds_isolated(box, boxed, source, target):
            frozen.add(x)
    classes = tuple(
        ClassSummary(Hom(source.n, target.n, rep), sizes[x] * r // splits[x], x in non_surj,
                     x in frozen if looped else sizes[x] * r == splits[x])
        for (x, _), rep in _class_reps(source, target, boxes, r, join).items())
    start = None if start is None else stats.add("reps", len(classes), start)
    return ComponentReport(kind=kind, total=r * sum(sizes.values()), classes=classes)


def _holds_isolated(box, boxed, source: Graph, target: Graph) -> bool:
    """Does the box ``(image, masks, size)`` of ``_box_source(source)`` hold
    a member that ``_isolated`` accepts?  A boxed v has free neighbours
    only, so a member's entry at v is the box's mask m there, narrowed
    with a loop at v to the colours adjacent to its own: v tries the
    colours alone in m, with a loop alone among those adjacent to them."""
    choices = [[c] for c in box[0]]
    for v, m in zip(boxed, box[1]):
        loop = source.has_loop(v)
        choices[v] = [c for c in _bits(m) if m & (target.rows[c] if loop else m) == 1 << c]
    return any(_isolated(image, source, target) for image in product(*choices))


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

    A space that a rule answers without a join (``_ruled``) takes its
    verdict from that rule's classes.  No verdict reports a flag or a
    covered space's member, so ``_ruled`` calls no ``first_hom`` here; its
    flags cost no search, the cycle rule's read off the lower-parent
    dismantling (``_cycle_classes``).  Every other is read off the orbit
    boxes of ``homs._boxes``, joined by ``_join``, building no member but
    the class representatives: a root with split s is s classes.
    NotMixing verdicts carry the least members of the two least classes.
    """
    ruled = _ruled(source, target, cap, least=False)
    if ruled is not None:
        total, classes = ruled
        if len(classes) < 2:
            status = "mixing" if classes else "no_colourings"
            return MixingVerdict(status, total, len(classes), None)
        return MixingVerdict("not_mixing", total, len(classes),
                             (classes[0].rep, classes[1].rep))
    start = None if stats.on is None else stats.clock()
    _, found, root, r = _boxes(_box_source(source), target, cap)
    boxes = list(found)
    total = r * sum(size for _, _, size in boxes)
    start = None if start is None else stats.add("boxes", total, start)
    if not boxes:
        return MixingVerdict("no_colourings", 0, 0, None)
    join = _join(source, target, boxes, root, r)
    roots, _, splits = join
    count = sum(splits[x] for x in set(roots))
    start = None if start is None else stats.add("join", count, start)
    if count == 1:
        return MixingVerdict("mixing", total, 1, None)
    reps = list(_class_reps(source, target, boxes, r, join, keep=2).values())
    start = None if start is None else stats.add("reps", len(reps), start)
    witness = (Hom(source.n, target.n, reps[0]), Hom(source.n, target.n, reps[1]))
    return MixingVerdict("not_mixing", total, count, witness)


def is_frozen(f: Hom, source: Graph, target: Graph) -> bool:
    """Has f no neighbour but itself in the homomorphism graph (for a
    loop-free source: does no single-vertex recolouring apply to f)?"""
    if not is_hom(source, target, f.image):
        raise ValueError("not a homomorphism")
    return _isolated(f.image, source, target)


def _isolated(image, source: Graph, target: Graph) -> bool:
    """Has the homomorphism ``image`` no neighbour but itself in the
    homomorphism graph?  Exactly when its ``_avail_masks`` entry at every
    vertex v, narrowed to the looped colours when v has a loop, is image[v].

    For f has a neighbour g != f iff it has one that differs from f at one
    vertex: move f at a v with g(v) != f(v) to g(v).  Each pair of colours
    the result puts on an edge at v, or that its cross condition with f
    asks there, is f(u)g(v), f(v)g(v) or g(v)g(v), an edge as g is a
    homomorphism adjacent to f.  And moving f at v alone to c gives a
    homomorphism adjacent to f iff c lies in that narrowed entry."""
    refl, full = target.reflexive_mask(), (1 << target.n) - 1
    return all(m & (refl if source.has_loop(v) else full) == 1 << c
               for v, (m, c) in enumerate(zip(_avail_masks(image, source, target), image)))


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
    src = _search_source(source)
    goal = g.image

    def neighbours(im):
        # cap + 1 neighbours of one map already overflow the cap once
        # reached, so no neighbour search needs to go further
        return _hom_neighbours(im, src, target, cap + 1)

    start = None if stats.on is None else stats.clock()
    for _, parent in _bfs([f.image], neighbours, cap,
                          "maps reached by the homotopy search"):
        if goal in parent:
            break
    start = None if start is None else stats.add("walk", len(parent), start)
    return [Hom(source.n, target.n, im) for im in _path(parent, goal)] if goal in parent else None


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
    itself by f -> s.f, so eccentricity is constant on the orbits of the
    target's shifts c -> c + t d, d = ``homs._shift_period``, and, when it
    has a ``homs._reflection`` c -> a - c, the reflections c -> a + t d - c:
    one search per orbit.  Every orbit holds a representative of
    ``homindex._HomIndex``, as the shifts are among those maps, so the
    searches start from the first representative of each orbit, and the
    least centre is the least member of an orbit of least eccentricity.
    The searches run together, as one sweep of
    ``homindex._HomIndex.eccentricities``.  An orbit is built from its
    first representative and that map's reflection, each shifted by every
    multiple of d, so no permutation of the colours is ever built.
    """
    # imported on first use: commands that walk no bitsets never load it
    from .homindex import _HomIndex

    index = _HomIndex(source, target, cap)
    size = len(index.reps)
    if size == 0:
        raise NoColouringsError("no homomorphisms to measure")
    n, a = target.n, _reflection(target)
    shifts = range(0, n or 1, _shift_period(target) or 1)  # 0 on the empty graph
    seen = bytearray(size)
    starts, least = [], []
    for i, im in enumerate(index.reps):
        if not seen[i]:
            starts.append(i)
            images = (im,) if a is None else (im, tuple([(a - c) % n for c in im]))
            orbit = [tuple([(c + t) % n for c in x]) for x in images for t in shifts]
            least.append(min(orbit))
            for image in orbit:
                seen[index.number(image) % size] = 1
    eccentricity = index.eccentricities(starts)
    if eccentricity is None:
        raise DisconnectedError("homomorphism graph is disconnected")
    best = min(eccentricity)
    return (best, Hom(source.n, target.n,
                      min(x for x, e in zip(least, eccentricity) if e == best)))
