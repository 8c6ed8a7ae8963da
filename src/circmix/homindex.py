"""The homomorphism graph of an enumerated space, walked on bitsets.

``homgraph.radius_centre`` and ``extension.layered_extension_check`` need
distances between many maps of one space HOM(G, H).  Rather than search each
map's neighbour box, they enumerate the space once and number its maps in
sorted order; a set of maps is then an int, and a map's neighbour set is an
AND of one stored set per source vertex, with no search.  The layers of a
breadth-first search and the multi-source sweep of a radius are the only
traversals outside ``graphs._bfs``.
"""

from __future__ import annotations

from array import array

from .graphs import Graph
from .homs import enumerate_homs


class _HomIndex:
    """HOM(source, target) with its maps numbered in the sorted order of
    ``enumerate_homs``, for walks on bitsets: a set of maps is an int whose
    bit i stands for map i.

    Maps f and g are hom-adjacent when g(v) is adjacent to f(u) at every
    neighbour v of every source vertex u, loops included.  So
    ``_near[u][c]`` holds the maps g with g(v) adjacent to c at every
    neighbour v of u, and the neighbour set of map i is the AND over u of
    ``_near[u][image_i[u]]``.  With no source vertex the AND is over
    nothing: the whole space, the one empty map.
    """

    def __init__(self, source: Graph, target: Graph, cap: int | None = None):
        self.space = enumerate_homs(source, target, cap)
        images = self.space.images
        self.full = (1 << len(images)) - 1
        # a column of colours, map i's at character m - 1 - i, becomes one
        # base-2 numeral per colour c: a character is 1 where it is next to c
        table = dict.fromkeys(range(target.n), "0")
        self._near = [[self.full] * target.n for _ in range(source.n)]
        for v in range(source.n):
            around = source.neighbours(v)
            if not around:  # an isolated vertex constrains no one
                continue
            column = "".join([chr(im[v]) for im in reversed(images)])
            for c in range(target.n):
                ones = target.neighbours(c)
                table.update(dict.fromkeys(ones, "1"))
                adjacent = int(column.translate(table) or "0", 2)
                table.update(dict.fromkeys(ones, "0"))
                for u in around:
                    self._near[u][c] &= adjacent

    def neighbours(self, i: int) -> int:
        """The set of maps hom-adjacent to map i, itself included."""
        near = self.full
        for sets, c in zip(self._near, self.space.images[i]):
            near &= sets[c]
        return near

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
        m = len(self.space.images)
        adjacent = [_members(self.neighbours(i)) for i in range(m)]
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
