"""Precolouring extension, layered products, and the ring construction."""

import itertools
import random

import pytest

from circmix import extension, homgraph, homs
from circmix.errors import (CapExceededError, DisconnectedError,
                            NoColouringsError, RingHypothesisError)
from circmix.extension import (PrecolouringInstance, core_ext_radius_bound,
                               extend, greedy_ring_extension,
                               layered_extension_check)
from circmix.fixtures import gadget_g62x
from circmix.graphs import (Graph, _bfs, circular_clique, complete_graph,
                            cycle_graph, extension_product, path_graph)
from circmix.homgraph import homotopy_distance
from circmix.homs import Hom, enumerate_homs, is_hom

from helpers import hom_adjacent_naive, iso_reps, naive_homs, random_graph


def pin_all(colours):
    return tuple(enumerate(colours))


def test_instance_normalizes_and_validates():
    host, target = path_graph(3), complete_graph(3)
    inst = PrecolouringInstance(host, target, ((2, 1), (0, 0), (2, 1)))
    assert inst.pins == ((0, 0), (2, 1))
    assert inst.pin_map() == {0: 0, 2: 1}

    with pytest.raises(ValueError, match="out of range"):
        PrecolouringInstance(host, target, ((3, 0),))
    with pytest.raises(ValueError, match="out of range"):
        PrecolouringInstance(host, target, ((0, 3),))
    with pytest.raises(ValueError, match="pinned to two colours"):
        PrecolouringInstance(host, target, ((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="break host edge"):
        PrecolouringInstance(host, target, ((0, 2), (1, 2)))
    looped = Graph(2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError, match="break host edge"):
        PrecolouringInstance(looped, target, ((0, 1),))  # loop needs a looped colour
    # a pin that breaks its own loop and an edge to a smaller pin: the loop
    # is named first, as first_hom does
    half = Graph(2, [(0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"break host edge \(1,1\)"):
        PrecolouringInstance(Graph(2, [(0, 1), (1, 1)]), half, ((1, 0), (0, 0)))

    with pytest.raises(ValueError, match="empty pin group"):
        PrecolouringInstance(host, target, (), groups=((),))
    with pytest.raises(ValueError, match="groups overlap"):
        PrecolouringInstance(host, target, (), groups=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="group vertex out of range"):
        PrecolouringInstance(host, target, (), groups=((5,),))


def test_pins_are_checked_once(monkeypatch):
    """An instance checks its pins for broken edges and extend does not
    again; the layered check tests its pinned layers once."""
    calls, original = [], homs._broken_pin_edge

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(extension, "_broken_pin_edge", counted)
    monkeypatch.setattr(homs, "_broken_pin_edge", counted)
    host, target = gadget_g62x(), complete_graph(4)
    result = extend(PrecolouringInstance(host, target, pin_all((0, 0, 1, 1, 2, 2))))
    assert result.status == "Extended" and len(calls) == 1
    g, h = cycle_graph(5), circular_clique(7, 2)
    a, b = Hom(5, 7, (0, 2, 4, 6, 2)), Hom(5, 7, (0, 2, 4, 6, 3))
    calls.clear()
    assert layered_extension_check(g, h, a, b, 2)
    assert len(calls) == 1


def test_group_distances():
    host = path_graph(5)
    inst = PrecolouringInstance(host, complete_graph(3), (),
                                groups=((0,), (4,), (2,)))
    assert inst.group_distances() == {(0, 1): 4, (0, 2): 2, (1, 2): 2}
    split = Graph(4, [(0, 1), (2, 3)])
    inst2 = PrecolouringInstance(split, complete_graph(3), (),
                                 groups=((0,), (3,)))
    assert inst2.group_distances() == {(0, 1): None}


def test_extend_on_blocking_gadget():
    gadget = gadget_g62x()
    k4 = complete_graph(4)
    # the four apex neighbours see all four colours: certified dead end
    blocked = extend(PrecolouringInstance(gadget, k4, pin_all((0, 1, 1, 2, 2, 3))))
    assert blocked.status == "NoExtension" and blocked.extension is None
    open_ = extend(PrecolouringInstance(gadget, k4, pin_all((0, 0, 2, 1, 1, 3))))
    assert open_.status == "Extended"
    assert open_.extension.image == (0, 0, 2, 1, 1, 3, 2)


def test_extend_matches_naive_search():
    rng = random.Random(31)
    for _ in range(25):
        host = random_graph(rng, rng.randint(2, 5), 0.5)
        target = random_graph(rng, rng.randint(2, 4), 0.6)
        pins = {}
        for v in range(host.n):
            if rng.random() < 0.4:
                pins[v] = rng.randrange(target.n)
        try:
            inst = PrecolouringInstance(host, target, tuple(pins.items()))
        except ValueError:
            continue  # pins break a host edge: not an instance
        res = extend(inst)
        want = [im for im in naive_homs(host, target)
                if all(im[v] == c for v, c in pins.items())]
        if res.status == "Extended":
            assert res.extension.image == min(want)
        else:
            assert want == []


def test_extend_monotone_under_pin_subsets():
    rng = random.Random(47)
    gadget = gadget_g62x()
    k4 = complete_graph(4)
    full = ((0, 0), (1, 0), (2, 2), (3, 1), (4, 1), (5, 3))
    assert extend(PrecolouringInstance(gadget, k4, full)).status == "Extended"
    for _ in range(10):
        sub = tuple(p for p in full if rng.random() < 0.5)
        assert extend(PrecolouringInstance(gadget, k4, sub)).status == "Extended"


def test_layered_thresholds_for_antipodal_edge_maps():
    k2, k3 = complete_graph(2), complete_graph(3)
    start, end = Hom(2, 3, (0, 1)), Hom(2, 3, (1, 0))
    # the two maps sit at homotopy distance 3, so 4 layers are needed
    assert not layered_extension_check(k2, k3, start, end, 1)
    assert not layered_extension_check(k2, k3, start, end, 2)
    assert not layered_extension_check(k2, k3, start, end, 3)
    assert layered_extension_check(k2, k3, start, end, 4)
    assert layered_extension_check(k2, k3, start, start, 1)
    with pytest.raises(ValueError):
        layered_extension_check(k2, k3, start, end, 0)
    with pytest.raises(ValueError):
        layered_extension_check(k2, k3, Hom(2, 3, (0, 0)), end, 2)


def test_layered_matches_naive_homotopy_distance():
    rng = random.Random(59)
    checked = 0
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 3), 0.7)
        h = random_graph(rng, 3, 0.7)
        space = enumerate_homs(g, h)
        if len(space.images) < 2:
            continue
        images = list(space.images)
        # naive BFS over the homomorphism graph
        dist = {images[0]: 0}
        frontier = [images[0]]
        while frontier:
            nxt = []
            for a in frontier:
                for b in images:
                    if b not in dist and hom_adjacent_naive(a, b, g, h):
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        end = rng.choice(images)
        for n in (1, 2, 3, 4):
            got = layered_extension_check(g, h, Hom(g.n, h.n, images[0]),
                                          Hom(g.n, h.n, end), n)
            want = end in dist and dist[end] < n
            assert got == want
            checked += 1
    assert checked > 0


def test_layered_matches_homotopy_distance_on_all_small_pairs():
    """Every ordered pair of maps between graphs on at most three vertices,
    loops included, pairs in different classes too: the layered check
    answers d < n exactly, where d is ``homotopy_distance``, at every
    n = 1 ... d + 1.  Unreachable pairs extend over no number of layers;
    n = 1, 2 keeps their product searches small."""
    reps = iso_reps(3, loops=True)
    seen = set()
    for g in reps:
        for h in reps:
            images = enumerate_homs(g, h).images
            for a in images:
                f = Hom(g.n, h.n, a)
                for b in images:
                    t = Hom(g.n, h.n, b)
                    d = homotopy_distance(f, t, g, h)
                    for n in (1, 2) if d is None else range(1, d + 2):
                        assert layered_extension_check(g, h, f, t, n) == (
                            d is not None and d < n), (g.rows, h.rows, a, b, n)
                    seen.add(d if d is None else min(d, 3))
    assert seen == {None, 0, 1, 2, 3}


def test_layered_on_c5_into_g72_at_drawn_distances():
    """HOM(C_5, G_{7,2}) has two classes of 455 maps.  From a drawn start,
    ends drawn at each distance 1-6 (read off a breadth-first search over
    the neighbour-box searches, not the bitsets) and ends from the other
    class: the layered check turns true exactly at n = d + 1, at the
    default cap, which also bounds the partial assignments of the product
    search on seven layers."""
    g, h = cycle_graph(5), circular_clique(7, 2)
    images = enumerate_homs(g, h).images
    rng = random.Random(17)
    start = rng.choice(images)
    src = homs._Source(g, homs._search_order(g))
    layers = [layer for layer, _ in
              _bfs([start], lambda im: homgraph._hom_neighbours(im, src, h))]
    assert len(layers) >= 7 and sum(map(len, layers)) == 455
    reached = {im for layer in layers for im in layer}
    f = Hom(5, 7, start)
    for d in range(1, 7):
        for end in rng.sample(layers[d], 2):
            t = Hom(5, 7, end)
            assert homotopy_distance(f, t, g, h) == d
            assert not layered_extension_check(g, h, f, t, d)
            assert layered_extension_check(g, h, f, t, d + 1)
    for end in rng.sample([im for im in images if im not in reached], 3):
        t = Hom(5, 7, end)
        assert homotopy_distance(f, t, g, h) is None
        for n in (1, 4):
            assert not layered_extension_check(g, h, f, t, n)
            assert not layered_extension_check(g, h, t, f, n)


def test_layered_on_degenerate_sources():
    """The 0-vertex source, whose bitset neighbour set is an AND over no
    vertex, an edgeless source and looped sources, with the answers of
    the walk the check used before it read distances off bitsets."""
    empty = Graph(0)
    for h in (Graph(0), complete_graph(2), cycle_graph(4, reflexive=True)):
        f = Hom(0, h.n, ())
        assert all(layered_extension_check(empty, h, f, f, n) for n in (1, 2, 3))
    edgeless = Graph(3)
    a, b = Hom(3, 2, (0, 0, 0)), Hom(3, 2, (1, 0, 1))
    assert not layered_extension_check(edgeless, complete_graph(2), a, b, 1)
    assert layered_extension_check(edgeless, complete_graph(2), a, b, 2)
    loop, c4 = Graph(1, [(0, 0)]), cycle_graph(4, reflexive=True)
    a, b = Hom(1, 4, (0,)), Hom(1, 4, (2,))
    assert [layered_extension_check(loop, c4, a, b, n) for n in (1, 2, 3)] == [
        False, False, True]
    two_loops = Graph(2, [(0, 0), (1, 1)])
    a, b = Hom(2, 2, (0, 0)), Hom(2, 2, (1, 1))
    assert [layered_extension_check(two_loops, two_loops, x, y, n)
            for x, y in ((a, b), (b, a), (a, a)) for n in (1, 2, 3)] == [
        False] * 6 + [True] * 3


def test_layered_enumerates_under_the_cap():
    """The layered check enumerates HOM(g, h): past the cap it raises, even
    where the walk of ``homotopy_distance`` stays inside the cap."""
    g, h = Graph(2), complete_graph(3)  # nine maps, all adjacent
    a, b = Hom(2, 3, (0, 0)), Hom(2, 3, (1, 2))
    assert homotopy_distance(a, b, g, h, cap=9) == 1
    assert layered_extension_check(g, h, a, b, 2, cap=9)
    with pytest.raises(CapExceededError):
        layered_extension_check(g, h, a, b, 2, cap=8)


def test_radius_bound_for_bipartite_host():
    rb = core_ext_radius_bound(path_graph(4), complete_graph(3))
    assert rb.core.core.n == 2
    assert rb.radius == 3  # edge maps into a triangle form a six-cycle
    assert rb.centre.image == (0, 1)
    assert rb.bound == 6


def test_radius_bound_error_cases():
    with pytest.raises(DisconnectedError):
        core_ext_radius_bound(complete_graph(3), complete_graph(3))
    with pytest.raises(DisconnectedError):
        core_ext_radius_bound(cycle_graph(5), Graph(5, [(0, 2), (0, 3), (1, 3),
                                                        (1, 4), (2, 4)]))
    with pytest.raises(NoColouringsError):
        core_ext_radius_bound(path_graph(4), complete_graph(1))


def ladder(n):
    return extension_product(complete_graph(2), path_graph(n))


def test_ring_extension_single_group():
    host, k3 = ladder(5), complete_graph(3)
    inst = PrecolouringInstance(host, k3, ((0, 1), (5, 0)), groups=((0, 5),))
    res = greedy_ring_extension(inst, Hom(2, 3, (0, 1)))
    assert res.image == (1, 1, 0, 0, 0, 0, 2, 2, 1, 1)
    assert is_hom(host, k3, res.image)
    assert res.image[0] == 1 and res.image[5] == 0


def test_ring_extension_two_groups_within_bound():
    host, k3 = ladder(5), complete_graph(3)
    inst = PrecolouringInstance(host, k3, ((0, 1), (5, 0), (4, 0), (9, 1)),
                                groups=((0, 5), (4, 9)))
    res = greedy_ring_extension(inst, Hom(2, 3, (0, 1)))
    assert is_hom(host, k3, res.image)
    assert [res.image[v] for v in (0, 5, 4, 9)] == [1, 0, 0, 1]


def test_ring_extension_hypothesis_failure():
    host, k3 = ladder(5), complete_graph(3)
    inst = PrecolouringInstance(host, k3, ((0, 0), (5, 1), (2, 1), (7, 0)),
                                groups=((0, 5), (2, 7)))
    assert inst.group_distances() == {(0, 1): 2}
    with pytest.raises(RingHypothesisError) as exc:
        greedy_ring_extension(inst, Hom(2, 3, (0, 1)))
    assert exc.value.pair == (0, 1)
    assert exc.value.required == 3
    assert exc.value.actual == 2


def test_ring_extension_on_long_homotopy_paths():
    """K_2 into C_7 has radius 7, so the ring construction walks paths of
    seven steps; the groups at rungs 0 and 14 of a 15-rung ladder sit at the
    bound 14 and extend, one rung closer they do not."""
    c7 = cycle_graph(7)
    bound = core_ext_radius_bound(ladder(15), c7)
    assert (bound.radius, bound.centre.image, bound.bound) == (7, (0, 1), 14)

    def pinned(n):
        return PrecolouringInstance(ladder(n), c7,
                                    ((0, 1), (n, 0), (n - 1, 1), (2 * n - 1, 0)),
                                    groups=((0, n), (n - 1, 2 * n - 1)))

    res = greedy_ring_extension(pinned(15), bound.centre)
    assert [res.image[v] for v in (0, 15, 14, 29)] == [1, 0, 1, 0]
    # every host edge lands on an edge of C_7: colours one apart mod 7
    assert all((res.image[u] - res.image[v]) % 7 in (1, 6)
               for u, v in ladder(15).edges())
    with pytest.raises(RingHypothesisError) as exc:
        greedy_ring_extension(pinned(14), bound.centre)
    assert (exc.value.required, exc.value.actual) == (14, 13)


def test_ring_extension_validates():
    host, k3 = ladder(5), complete_graph(3)
    inst = PrecolouringInstance(host, k3, ((0, 0), (5, 1)))
    with pytest.raises(ValueError, match="at least one pin group"):
        greedy_ring_extension(inst, Hom(2, 3, (0, 1)))
    inst2 = PrecolouringInstance(host, k3, ((0, 0), (5, 1), (9, 2)),
                                 groups=((0, 5),))
    with pytest.raises(ValueError, match="must lie in a pin group"):
        greedy_ring_extension(inst2, Hom(2, 3, (0, 1)))
    inst3 = PrecolouringInstance(host, k3, ((0, 0),), groups=((0, 5),))
    with pytest.raises(ValueError, match="must be pinned"):
        greedy_ring_extension(inst3, Hom(2, 3, (0, 1)))
    inst4 = PrecolouringInstance(host, k3, ((0, 0), (5, 1)), groups=((0, 5),))
    with pytest.raises(ValueError, match="centre is not a homomorphism"):
        greedy_ring_extension(inst4, Hom(2, 3, (0, 0)))
    # same bipartition class pinned to different colours cannot factor
    inst5 = PrecolouringInstance(host, k3, ((0, 0), (2, 1), (5, 1), (7, 0)),
                                 groups=((0, 2, 5, 7),))
    with pytest.raises(ValueError, match="do not factor"):
        greedy_ring_extension(inst5, Hom(2, 3, (0, 1)))
    # the 5-wheel is its own core; a rim pinned to all four colours leaves
    # its hub none
    wheel = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    k4 = complete_graph(4)
    inst6 = PrecolouringInstance(wheel, k4, ((0, 0), (1, 1), (2, 2), (3, 3), (4, 1)),
                                 groups=((0, 1, 2, 3, 4),))
    with pytest.raises(ValueError, match="group 0 pins admit no homomorphism"):
        greedy_ring_extension(inst6, Hom(6, 4, (0, 1, 0, 1, 2, 3)))
    # C_6 retracts onto an edge that sends 0 and 3 apart: pins that extend
    # (0,1,2,0,1,2) put one colour on both ends of a core edge
    c6 = cycle_graph(6)
    inst8 = PrecolouringInstance(c6, k3, ((0, 0), (3, 0)), groups=((0, 3),))
    assert extend(inst8).extension.image == (0, 1, 2, 0, 1, 2)
    with pytest.raises(ValueError, match="group 0 pins admit no homomorphism"):
        greedy_ring_extension(inst8, Hom(2, 3, (0, 1)))
    # K_3's endomorphisms are isolated in its homomorphism graph
    inst7 = PrecolouringInstance(k3, k3, ((0, 0), (1, 1), (2, 2)), groups=((0, 1, 2),))
    with pytest.raises(DisconnectedError, match="group 0 map cannot reach the centre"):
        greedy_ring_extension(inst7, Hom(3, 3, (1, 0, 2)))
