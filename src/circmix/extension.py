"""Precolouring extension and its link to homotopy distance.

A precolouring pins some vertices of a host graph to target vertices; the
question is whether the pins extend to a full homomorphism.  Extending over
a layered product host is the same question as bounding the distance between
the end maps in the homomorphism graph, and when the pinned subgraphs are
copies of the host's core, walking shortest homomorphism-graph paths towards
a common centre assembles an extension ring by ring.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .errors import DisconnectedError, RingHypothesisError
from .graphs import Graph, _bfs, extension_product, path_graph
from .homgraph import homotopy_path, radius_centre
from .homs import Hom, _broken_pin_edge, _first_extension, is_hom
from .structure import CoreResult, core_of


class _InstanceFields(NamedTuple):
    host: Graph
    target: Graph
    pins: tuple[tuple[int, int], ...]
    groups: tuple[tuple[int, ...], ...] = ()


class PrecolouringInstance(_InstanceFields):
    """A host graph, a target, pinned colours, and optional pin groups.

    Pins are normalized to a sorted tuple of (vertex, colour) pairs and must
    be internally consistent: any host edge between pinned vertices, loops
    included, must map to a target edge.  Groups are vertex-disjoint sets of
    host vertices; they only constrain the ring construction, not extend().
    """

    __slots__ = ()

    def __new__(cls, host: Graph, target: Graph, pins: tuple[tuple[int, int], ...],
                groups: tuple[tuple[int, ...], ...] = ()):
        seen: dict[int, int] = {}
        for v, c in pins:
            if not 0 <= v < host.n:
                raise ValueError(f"pinned vertex {v} out of range")
            if not 0 <= c < target.n:
                raise ValueError(f"pinned colour {c} out of range")
            if seen.get(v, c) != c:
                raise ValueError(f"vertex {v} pinned to two colours")
            seen[v] = c
        broken = _broken_pin_edge(host, target, seen)
        if broken is not None:
            u, v = broken
            raise ValueError(
                f"pins {u}->{seen[u]}, {v}->{seen[v]} break host edge ({u},{v})")
        groups = tuple(tuple(sorted(set(group))) for group in groups)
        covered: set[int] = set()
        for group in groups:
            if not group:
                raise ValueError("empty pin group")
            if group[0] < 0 or group[-1] >= host.n:
                raise ValueError("group vertex out of range")
            if covered & set(group):
                raise ValueError("pin groups overlap")
            covered.update(group)
        return super().__new__(cls, host, target, tuple(sorted(seen.items())), groups)

    @classmethod
    def _make(cls, fields):  # what _replace builds with: check there too
        return cls(*fields)

    def pin_map(self) -> dict[int, int]:
        return dict(self.pins)

    def group_distances(self) -> dict[tuple[int, int], int | None]:
        """Host distance between each pair of groups, None when unreachable.

        The distance between two groups is the minimum over vertex pairs.
        """
        return _group_distances(
            self.groups, [_distances_from(self.host, group) for group in self.groups])


def _group_distances(groups, dists) -> dict[tuple[int, int], int | None]:
    """Group distances read off each group's host distances ``dists``."""
    out: dict[tuple[int, int], int | None] = {}
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            near = [dists[i][v] for v in groups[j] if dists[i][v] is not None]
            out[(i, j)] = min(near) if near else None
    return out


def _distances_from(g: Graph, sources) -> list[int | None]:
    dist: list[int | None] = [None] * g.n
    for d, (layer, _) in enumerate(_bfs(sources, g.neighbours)):
        for v in layer:
            dist[v] = d
    return dist


class ExtensionResult(NamedTuple):
    """Outcome of an extension search: a least extension or a certified no."""

    status: str  # "Extended" | "NoExtension"
    extension: Hom | None


def extend(instance: PrecolouringInstance, cap: int | None = None) -> ExtensionResult:
    """Lexicographically least extension of the pins, or NoExtension.

    NoExtension means the backtracking search exhausted every assignment.
    The instance has checked its pins, so the search does not again.
    """
    hom = _first_extension(instance.host, instance.target, instance.pin_map(), cap)
    if hom is None:
        return ExtensionResult("NoExtension", None)
    # soundness is cheap to re-check, so always do it
    if not is_hom(instance.host, instance.target, hom.image):
        raise AssertionError("search returned a non-homomorphism")
    if any(hom.image[v] != c for v, c in instance.pins):
        raise AssertionError("search moved a pinned vertex")
    return ExtensionResult("Extended", hom)


def layered_extension_check(g: Graph, h: Graph, f_start: Hom, f_end: Hom,
                            n: int, cap: int | None = None) -> bool:
    """Do f_start and f_end extend over g layered against an n-vertex path?

    The host is the extension product of g with the path on n vertices,
    with layer 0 pinned to f_start and layer n-1 to f_end, and g.n * n past
    the vertex limit raises ValueError before a row is built.  The answer is
    computed twice, by the extension search and as homotopy distance < n,
    and the two must agree (AssertionError otherwise).

    The distance is read off HOM(g, h), numbered under ``cap`` one map per
    orbit of the target's shifts (``homindex``): layers of a breadth-first
    search from f_start on bitsets, until f_end is reached, n layers are
    done or its class is used up.  So this raises CapExceededError
    whenever HOM(g, h) has more than ``cap`` maps, even where
    ``homotopy_distance``, which does not enumerate, would stay inside the
    cap.

    The pinned layers are tested for a broken edge once; the product
    search is ``first_hom``'s, without its second test of the pins, and
    ``cap`` (``config.hom_cap``) also bounds its partial assignments.  With
    ends at homotopy distance 6 on C_5 into G_{7,2} and n = 7, it takes
    up to about 2 s on a 2-CPU machine at ``cap=None``, while the bitset
    layers take about 2 ms.
    """
    if n < 1:
        raise ValueError("layer count must be at least 1")
    for f in (f_start, f_end):
        if f.source_n != g.n or f.target_n != h.n or not is_hom(g, h, f.image):
            raise ValueError("end map is not a homomorphism into the target")
    if n == 1 and f_start.image != f_end.image:
        by_product = False  # both end maps pin the same single layer
    else:
        pins = {v * n: f_start.image[v] for v in range(g.n)}
        pins.update({v * n + n - 1: f_end.image[v] for v in range(g.n)})
        host = extension_product(g, path_graph(n))
        if _broken_pin_edge(host, h, pins) is not None:
            by_product = False  # the pinned layers already collide
        else:
            by_product = _first_extension(host, h, pins, cap) is not None
    # imported on first use: commands that walk no bitsets never load it
    from .homindex import _HomIndex

    index = _HomIndex(g, h, cap)
    end = index.number(f_end.image)
    # f_end lies within distance n - 1 when it is reached in the first n layers
    by_distance = any(reached >> end & 1 for _, reached in
                      islice(index.layers(index.number(f_start.image)), n))
    if by_product != by_distance:
        raise AssertionError("layered extension disagrees with homotopy distance")
    return by_product


class RadiusBound(NamedTuple):
    """Separation distance that guarantees extendability of core pins.

    Pinning vertex-disjoint copies of the host's core, any two at host
    distance at least ``bound``, always extends; ``centre`` is the map the
    ring construction walks towards and ``bound`` is twice its eccentricity.
    """

    core: CoreResult
    radius: int
    centre: Hom
    bound: int


def core_ext_radius_bound(x: Graph, h: Graph,
                          cap: int | None = None) -> RadiusBound:
    """Compute the core of x and its separation bound against h.

    The bound is twice the radius of the core's homomorphism graph: the
    host distance `greedy_ring_extension` requires between groups pinned to
    maps farthest from the centre.

    Raises DisconnectedError when the homomorphism graph of the core is
    disconnected (no uniform separation distance exists by this method) and
    NoColouringsError when the core admits no homomorphism to h at all.
    """
    core = core_of(x, cap)
    radius, centre = radius_centre(core.core, h, cap)
    return RadiusBound(core, radius, centre, 2 * radius)


def greedy_ring_extension(instance: PrecolouringInstance, centre: Hom,
                          cap: int | None = None) -> Hom:
    """Extend group pins by walking homomorphism-graph paths to the centre.

    Every pinned vertex must lie in a group and every group vertex must be
    pinned.  Each group's pins are factored through the host's core
    retraction; the factored maps g_i must reach the centre in the
    homomorphism graph, and groups i, j must be at host distance at least
    d(g_i, centre) + d(g_j, centre).  Vertices at distance d < d(g_i, centre)
    from group i take the d-th map on a shortest path from g_i to the
    centre, composed with the retraction; everything else takes the centre
    composed with the retraction.  The result is verified before return.
    """
    host, target = instance.host, instance.target
    if not instance.groups:
        raise ValueError("ring extension needs at least one pin group")
    group_of: dict[int, int] = {}
    for i, group in enumerate(instance.groups):
        for v in group:
            group_of[v] = i
    pin_map = instance.pin_map()
    if any(v not in group_of for v in pin_map):
        raise ValueError("every pinned vertex must lie in a pin group")
    if any(v not in pin_map for group in instance.groups for v in group):
        raise ValueError("every group vertex must be pinned")

    core = core_of(host, cap)
    gamma = core.retraction.image
    if centre.source_n != core.core.n or centre.target_n != target.n \
            or not is_hom(core.core, target, centre.image):
        raise ValueError("centre is not a homomorphism from the core")

    # factor each group's pins through the retraction, completing freely
    paths: list[list[Hom]] = []
    for i, group in enumerate(instance.groups):
        partial: dict[int, int] = {}
        for v in group:
            w = gamma[v]
            if partial.get(w, pin_map[v]) != pin_map[v]:
                raise ValueError(
                    f"group {i} pins do not factor through the core retraction")
            partial[w] = pin_map[v]
        # the retraction can send two pins onto one edge in one colour
        g_i = (None if _broken_pin_edge(core.core, target, partial) is not None
               else _first_extension(core.core, target, partial, cap))
        if g_i is None:
            raise ValueError(
                f"group {i} pins admit no homomorphism from the core")
        path = homotopy_path(g_i, centre, core.core, target, cap)
        if path is None:
            raise DisconnectedError(
                f"group {i} map cannot reach the centre in the homomorphism graph")
        paths.append(path)

    need = [len(path) - 1 for path in paths]
    ring = [_distances_from(host, group) for group in instance.groups]
    for (i, j), dist in _group_distances(instance.groups, ring).items():
        required = need[i] + need[j]
        if dist is not None and dist < required:
            raise RingHypothesisError((i, j), required, dist)

    image = []
    for v in range(host.n):
        inside = [i for i in range(len(paths))
                  if ring[i][v] is not None and ring[i][v] < need[i]]
        if len(inside) > 1:
            raise AssertionError("separation left a vertex inside two rings")
        hom = paths[inside[0]][ring[inside[0]][v]] if inside else centre
        image.append(hom.image[gamma[v]])

    result = Hom(host.n, target.n, tuple(image))
    if not is_hom(host, target, result.image):
        raise AssertionError("ring assembly produced a non-homomorphism")
    if any(result.image[v] != c for v, c in instance.pins):
        raise AssertionError("ring assembly moved a pinned vertex")
    return result
