"""The homomorphism graph of a space, walked on bitsets.

``homgraph.radius_centre`` and ``extension.layered_extension_check`` need
distances between many maps of one space HOM(G, H).  Rather than search each
map's neighbour box, they number the maps of the space once; a set of maps
is then an int, and a map's neighbour set is an AND of one stored set per
source vertex, with no search.  The numbering follows the target's cyclic
shifts: only one map per shift orbit is built, with base-2 numerals for
those representatives only, and every stored set at a shifted colour is a
rotation of one built below the shift period.  The layers of a
breadth-first search and the multi-source sweep of a radius are the only
traversals outside ``graphs._bfs``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from . import stats
from .graphs import Graph
from .homs import _orbit_reps


class _HomIndex:
    """HOM(source, target) numbered on the orbits of the target's shifts,
    for walks on bitsets: a set of maps is an int whose bit j stands for
    map ``image(j)``.

    With d the shift period of ``homs._boxes`` and r = |V(H)| / d, the
    shifts c -> c + t*d (t in Z_r) act freely on the space, and each orbit
    has one member whose root colour is below d.  Those M members are the
    representatives, ``reps``, sorted (``homs._orbit_reps``); bit t*M + i
    stands for representative i shifted by t*d, so with r = 1 the
    numbering is the sorted order of ``enumerate_homs``.

    Maps f and g are hom-adjacent when g(v) is adjacent to f(u) at every
    neighbour v of every source vertex u, loops included.  So
    ``_near[u][c]`` holds the maps g with g(v) adjacent to c at every
    neighbour v of u, and the neighbour set of a map is the AND over u of
    ``_near[u][colour at u]``.  With no source vertex the AND is over
    nothing: the whole space, the one empty map.  A shift is an
    automorphism, so ``_near[u][c + d]`` is ``_near[u][c]`` with every map
    shifted once more: the same int rotated by M bits.
    """

    def __init__(self, source: Graph, target: Graph, cap: int | None = None):
        start = None if stats.on is None else stats.clock()
        reps, self._root, r = _orbit_reps(source, target, cap)
        self.reps = reps
        self._n, self._r = target.n, r
        self._shift = target.n // r
        size = len(reps)
        self.count = r * size
        self.full = (1 << self.count) - 1
        # the column of colours at each source vertex v, representative i's
        # at character size - 1 - i, becomes one base-2 numeral per colour
        # c: a character is 1 where it is next to c.  An isolated vertex
        # constrains no one, so it has no column.
        columns = [(source.neighbours(v), "".join([chr(im[v]) for im in reversed(reps)]))
                   for v in range(source.n) if source.rows[v]]
        table = dict.fromkeys(range(target.n), "0")
        block = (1 << size) - 1
        near = [[block] * target.n for _ in range(source.n)]
        for c in range(target.n):
            ones = target.neighbours(c)
            table.update(dict.fromkeys(ones, "1"))
            for around, column in columns:
                adjacent = int(column.translate(table) or "0", 2)
                for u in around:
                    near[u][c] &= adjacent
            table.update(dict.fromkeys(ones, "0"))
        # block t of the set at colour c holds the representatives whose
        # shifts by t*d qualify, those qualifying at colour c - t*d
        n, d = target.n, self._shift
        self._near = []
        for sets in near:
            whole = [sum(sets[(c - t * d) % n] << t * size for t in range(r))
                     for c in range(d)]
            for c in range(d, n):
                whole.append(self._turn(whole[c - d], 1))
            self._near.append(whole)
        start = None if start is None else stats.add("index", self.count, start)

    def image(self, j: int) -> tuple[int, ...]:
        """The map that bit j stands for."""
        t, i = divmod(j, len(self.reps))
        return tuple((c + t * self._shift) % self._n for c in self.reps[i])

    def number(self, image) -> int:
        """The bit that ``image`` stands at; KeyError when it is not a map
        of the space."""
        image = tuple(image)
        rep, t = image, 0
        if self._r > 1:
            t = image[self._root] // self._shift
            rep = tuple((c - t * self._shift) % self._n for c in image)
        i = bisect_left(self.reps, rep)
        if not 0 <= t < self._r or i == len(self.reps) or self.reps[i] != rep:
            raise KeyError(image)
        return t * len(self.reps) + i

    def _turn(self, maps: int, t: int) -> int:
        """The set ``maps`` with every map shifted by t*d: rotated by t*M
        bits."""
        k = t * len(self.reps)
        return (maps << k | maps >> (self.count - k)) & self.full if k else maps

    def neighbours(self, j: int) -> int:
        """The set of maps hom-adjacent to map j, itself included: those of
        its representative, shifted as j is."""
        t, i = divmod(j, len(self.reps))
        near = self.full
        for sets, c in zip(self._near, self.reps[i]):
            near &= sets[c]
        return self._turn(near, t)

    def layers(self, start: int):
        """Breadth-first search from map ``start``: yields ``(frontier,
        reached)`` once per depth, the maps first reached at that depth and
        all maps reached so far, until the class of ``start`` is used up."""
        frontier = reached = 1 << start
        while frontier:
            yield frontier, reached
            grown = 0
            for i in _members(frontier):
                grown |= self.neighbours(i)
            frontier = grown & ~reached
            reached |= frontier

    def eccentricities(self, starts: list[int]) -> list[int] | None:
        """The eccentricity of each map of ``starts``, or None when some
        map is not reached from all of them.

        The searches from ``starts`` run together, as one multi-source
        sweep (Then et al., PVLDB 2014): each search is one bit, each map
        keeps the bits of the searches that have reached it and of those
        that reached it last, and a layer ORs the latter over each map's
        neighbours, read once off its neighbour set.  A search's
        eccentricity is the last layer in which its bit is new.
        """
        m = self.count
        reps = [self.neighbours(i) for i in range(len(self.reps))]
        adjacent = [_members(self._turn(near, t))
                    for t in range(self._r) for near in reps]
        everyone = (1 << len(starts)) - 1
        reached = [0] * m
        for b, i in enumerate(starts):
            reached[i] = 1 << b
        frontier = reached[:]
        eccentricity = [0] * len(starts)
        depth = 0
        while True:
            grown = [0] * m
            new = 0
            for j, near in enumerate(adjacent):
                old = reached[j]
                if old == everyone:
                    continue
                got = 0
                for i in near:
                    got |= frontier[i]
                got &= ~old
                if got:
                    reached[j] = old | got
                    grown[j] = got
                    new |= got
            if not new:
                break
            depth += 1
            for b in _members(new):
                eccentricity[b] = depth
            frontier = grown
        if any(x != everyone for x in reached):
            return None
        return eccentricity


def _members(maps: int) -> array:
    """The bits set in ``maps``, highest first, as an array of C ints.

    Reads the binary numeral, so the cost is one scan of it and one step
    per member, however long the int.  The array holds each member in four
    bytes, where a list holds a pointer and, past 256, an int object.
    """
    text = bin(maps)
    top = len(text) - 1
    out = []
    p = text.find("1", 2)
    while p != -1:
        out.append(top - p)
        p = text.find("1", p + 1)
    return array("I", out)
