"""The homomorphism graph of an enumerated space, walked on bitsets.

``homgraph.radius_centre`` and ``extension.layered_extension_check`` need
distances between many maps of one space HOM(G, H).  Rather than search each
map's neighbour box, they enumerate the space once and number its maps in
sorted order; a set of maps is then an int, and a map's neighbour set is an
AND over the source vertices of ORs of per-vertex colour sets, with no
search.  The layers of a breadth-first search and the multi-source sweep of
a radius are the only traversals outside ``graphs._bfs``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from .graphs import Graph, _bits
from .homs import enumerate_homs


class _HomIndex:
    """HOM(source, target) with its maps numbered in the sorted order of
    ``enumerate_homs``, for walks on bitsets: a set of maps is an int whose
    bit i stands for map i.

    ``_colours[v][c]`` holds the maps that colour v with c.  The neighbours
    of map i are the maps inside its neighbour box, so its neighbour set is
    the AND over v of the OR of ``_colours[v][c]`` over the colours c of its
    ``homgraph._avail_masks`` mask at v; each (v, mask) OR is made once.
    With no source vertex the AND is over nothing: the whole space, the one
    empty map.
    """

    def __init__(self, source: Graph, target: Graph, cap: int | None = None):
        self.target = target
        self.space = enumerate_homs(source, target, cap)
        images = self.space.images
        self.full = (1 << len(images)) - 1
        # a column of colours, map i's at character m - 1 - i, becomes one
        # base-2 numeral per colour: a character is 1 where it is that colour
        table = dict.fromkeys(range(target.n), "0")
        self._colours = []
        for v in range(source.n):
            column = "".join([chr(im[v]) for im in reversed(images)])
            maps = {}
            for c in map(ord, set(column)):
                table[c] = "1"
                maps[c] = int(column.translate(table), 2)
                table[c] = "0"
            self._colours.append(maps)
        self._around = [source.neighbours(v) for v in range(source.n)]
        self._unions: list[dict[int, int]] = [{} for _ in range(source.n)]

    def position(self, image) -> int:
        """The number of the map ``image``, a member of the space."""
        return bisect_left(self.space.images, tuple(image))

    def neighbours(self, i: int) -> int:
        """The set of maps hom-adjacent to map i, itself included."""
        image, rows = self.space.images[i], self.target.rows
        near = self.full
        for v, around in enumerate(self._around):
            mask = (1 << self.target.n) - 1  # as in homgraph._avail_masks
            for u in around:
                mask &= rows[image[u]]
            union = self._unions[v].get(mask)
            if union is None:  # a map has one colour at v: a disjoint union
                maps = self._colours[v]
                union = self._unions[v][mask] = sum(maps.get(c, 0) for c in _bits(mask))
            near &= union
        return near

    def layers(self, start: int):
        """Breadth-first search from map ``start``: yields ``(frontier,
        reached)`` once per depth, the maps first reached at that depth and
        all maps reached so far, until the class of ``start`` is used up."""
        frontier = reached = 1 << start
        while frontier:
            yield frontier, reached
            grown = 0
            for i in _bits(frontier):
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
            for b in _bits(new):
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
