"""Colour graph and homomorphism graph connectivity against naive BFS."""

import random

import pytest
from hypothesis import given, settings

from circmix import homgraph, homs
from circmix.config import DEFAULT_MAX_VERTICES
from circmix.errors import (CapExceededError, DisconnectedError,
                            NoColouringsError)
from circmix.graphs import (Graph, circular_clique, complete_graph,
                            cycle_graph, frozen_regular_graph, path_graph)
from circmix.homgraph import (colour_adjacent, components, hom_adjacent,
                              homotopy_distance, homotopy_path, is_frozen,
                              is_mixing, radius_centre, recolour_neighbours)
from circmix.homs import Hom, enumerate_homs, identity_hom

from helpers import (colour_adjacent_naive, colour_components_by_steps,
                     components_naive, directed_edges,
                     graphs_with_loops, hom_adjacent_naive,
                     hom_components_by_steps, hom_graph_radius_naive,
                     iso_reps, naive_homs, random_graph)


def _class_partitions(report):
    return sorted((c.size, c.rep.image) for c in report.classes)


def test_adjacency_predicates_match_naive():
    rng = random.Random(31)
    g = cycle_graph(5)
    h = complete_graph(3)
    images = naive_homs(g, h)
    for _ in range(200):
        a, b = rng.choice(images), rng.choice(images)
        fa, fb = Hom(5, 3, a), Hom(5, 3, b)
        assert colour_adjacent(fa, fb) == colour_adjacent_naive(a, b)
        assert hom_adjacent(fa, fb, g, h) == hom_adjacent_naive(a, b, g, h)


def _assert_partitions_match_naive(g, h):
    """Box partition, both kinds of components and is_mixing against BFS
    over the naive adjacencies: class members, least representatives, sizes,
    non-surjective and frozen flags, and the verdict."""
    images = naive_homs(g, h)
    arcs = directed_edges(g)

    def hom_adj(a, b):
        return hom_adjacent_naive(a, b, g, h, arcs)

    colour_naive = components_naive(images, colour_adjacent_naive)
    # every member lies in exactly one box, and takes its box's class
    boxed = homs._boxes(g, h)[0]
    _, boxes, roots = homgraph._box_partition(g, h)
    assert sum(size for _, _, size in boxes) == len(images)
    reps = homgraph._class_reps(boxes, roots)
    classes = {}
    for a in images:
        [r] = [r for (im, masks, _), r in zip(boxes, roots)
               if all(a[v] == im[v] for v in range(g.n) if v not in boxed)
               and all(m >> a[v] & 1 for v, m in zip(boxed, masks))]
        classes.setdefault(r, []).append(a)
    assert sorted(classes.values()) == colour_naive
    assert all(reps[r] == members[0] for r, members in classes.items())
    # frozen: some member is an isolated vertex of the hom graph
    isolated = {a for a in images
                if not any(b != a and hom_adj(a, b) for b in images)}
    for kind, naive in (("colour", colour_naive),
                        ("homomorphism", components_naive(images, hom_adj))):
        report = components(g, h, kind=kind)
        assert report.total == len(images)
        assert [(c.rep.image, c.size, c.contains_non_surjective,
                 c.contains_frozen) for c in report.classes] == \
            [(cls[0], len(cls), any(len(set(a)) < h.n for a in cls),
              any(a in isolated for a in cls)) for cls in naive]
    # is_mixing reads the colour partition alone, loops or not
    verdict = is_mixing(g, h)
    assert verdict.hom_count == len(images)
    assert verdict.class_count == len(colour_naive)
    if not images:
        assert (verdict.status, verdict.witness) == ("no_colourings", None)
    elif len(colour_naive) == 1:
        assert (verdict.status, verdict.witness) == ("mixing", None)
    else:
        assert verdict.status == "not_mixing"
        assert tuple(w.image for w in verdict.witness) == \
            (colour_naive[0][0], colour_naive[1][0])


def test_components_match_naive_on_random_pairs():
    rng = random.Random(77)
    for trial in range(50):
        looped = trial >= 25  # looped sources and targets after the first 25
        g = random_graph(rng, rng.randint(1, 4), p=0.5,
                         loops=looped or rng.random() < 0.3)
        h = random_graph(rng, rng.randint(1, 4), p=0.6,
                         loops=looped or rng.random() < 0.3)
        _assert_partitions_match_naive(g, h)


def test_components_match_naive_on_all_small_pairs():
    targets = iso_reps(3, loops=True)
    for g in iso_reps(4, loops=True):
        for h in targets:
            _assert_partitions_match_naive(g, h)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs_with_loops(max_n=5), graphs_with_loops(max_n=3))
def test_components_match_naive_on_drawn_pairs(g, h):
    _assert_partitions_match_naive(g, h)


def _assert_loop_free_classes_match_steps(g, h):
    """Both kinds of components and is_mixing of a loop-free source against
    a BFS over single-vertex steps: reps, sizes, flags and the verdict."""
    images = naive_homs(g, h)
    naive = colour_components_by_steps(images, h.n)
    want = [(cls[0], len(cls), any(len(set(a)) < h.n for a in cls), len(cls) == 1)
            for cls in naive]
    for kind in ("colour", "homomorphism"):
        report = components(g, h, kind=kind)
        assert report.total == len(images)
        assert [(c.rep.image, c.size, c.contains_non_surjective,
                 c.contains_frozen) for c in report.classes] == want
    verdict = is_mixing(g, h)
    assert (verdict.hom_count, verdict.class_count) == (len(images), len(naive))
    if len(naive) > 1:
        assert tuple(w.image for w in verdict.witness) == (naive[0][0], naive[1][0])


def test_box_choice_extremes_match_naive():
    """Sources whose boxes hold one vertex, almost every vertex, isolated
    vertices, and loops on boxed and on branched vertices."""
    g112 = circular_clique(11, 2)
    for r in (4, 5):  # the largest independent set of K_r is one vertex
        assert len(homs._boxes(complete_graph(r), g112)[0]) == 1
        _assert_loop_free_classes_match_steps(complete_graph(r), g112)
    star = Graph(9, [(0, v) for v in range(1, 9)])  # K_{1,8}
    assert homs._boxes(star, complete_graph(3))[0] == list(range(1, 9))
    for h in (complete_graph(3), circular_clique(5, 2)):
        _assert_loop_free_classes_match_steps(star, h)
    isolated = (Graph(3, []), Graph(6, list(cycle_graph(4).edges())),
                Graph(4, [(0, 1), (2, 2)]))
    for g in isolated:
        for h in (complete_graph(3), cycle_graph(4, reflexive=True),
                  Graph(3, [(0, 0), (0, 1), (1, 2)])):
            _assert_partitions_match_naive(g, h)
    # P_3 boxes its ends; a loop at an end, at the middle, or at all three
    p3 = list(path_graph(3).edges())
    assert homs._boxes(path_graph(3), complete_graph(3))[0] == [0, 2]
    for loops in ([(0, 0)], [(1, 1)], [(0, 0), (1, 1), (2, 2)]):
        g = Graph(3, p3 + loops)
        for h in (cycle_graph(5, reflexive=True), Graph(3, [(0, 0), (0, 1), (1, 2)]),
                  Graph(4, [(0, 0), (1, 1), (0, 1), (1, 2), (2, 3), (3, 3)])):
            _assert_partitions_match_naive(g, h)


def test_box_answers_do_not_enumerate(monkeypatch):
    calls = []
    for module in (homs, homgraph):
        monkeypatch.setattr(module, "enumerate_homs",
                            lambda *a, **kw: calls.append(a) or enumerate_homs(*a, **kw))
    g, h = cycle_graph(6), complete_graph(3)
    assert is_mixing(g, h).class_count == 7
    for kind in ("colour", "homomorphism"):
        assert components(g, h, kind=kind).total == 66
    assert homs.hom_count(g, h) == 66
    assert calls == []
    looped = Graph(2, [(0, 1), (0, 0)])
    target = cycle_graph(4, reflexive=True)
    for kind in ("colour", "homomorphism"):
        components(looped, target, kind=kind)
    assert calls == []


def test_independent_sets_cover_the_source():
    rng = random.Random(5)
    graphs = iso_reps(4, loops=True) + [
        random_graph(rng, rng.randint(5, 12), p=rng.random(), loops=True)
        for _ in range(200)]
    for g in graphs:
        sets = homs._independent_sets(g, homs._search_order(g))
        assert sorted(v for s in sets for v in s) == list(range(g.n))
        assert all(not g.has_edge(u, v) for s in sets for u in s for v in s
                   if u != v)
    relabelled = Graph(8, [(3 * i % 8, 3 * (i + 1) % 8) for i in range(8)])
    assert relabelled != cycle_graph(8)
    for g, count in ((cycle_graph(8), 2), (relabelled, 2),
                     (path_graph(DEFAULT_MAX_VERTICES), 2), (cycle_graph(7), 3)):
        assert len(homs._independent_sets(g, homs._search_order(g))) == count


def test_colour_and_hom_components_agree_for_loop_free_sources():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, 4, p=0.5)
        h = random_graph(rng, 4, p=0.6, loops=rng.random() < 0.5)
        colour = components(g, h, kind="colour")
        hom = components(g, h, kind="homomorphism")
        assert _class_partitions(colour) == _class_partitions(hom)


def test_looped_source_can_split_differently():
    # with loops allowed somewhere, the two adjacencies need not agree;
    # search the smallest witnesses rather than trusting one by hand
    found = False
    rng = random.Random(99)
    for _ in range(400):
        g = random_graph(rng, 3, p=0.6, loops=True)
        h = random_graph(rng, 3, p=0.6, loops=True)
        if g.is_loop_free:
            continue
        colour = components(g, h, kind="colour")
        hom = components(g, h, kind="homomorphism")
        if _class_partitions(colour) != _class_partitions(hom):
            found = True
            break
    assert found
    # two looped isolated vertices into themselves: the colour graph is
    # connected, the homomorphism graph has no edge, so all four are frozen
    g = Graph(2, [(0, 0), (1, 1)])
    colour = components(g, g, kind="colour")
    assert [(c.size, c.contains_frozen) for c in colour.classes] == [(4, True)]
    hom = components(g, g, kind="homomorphism")
    assert [(c.size, c.contains_frozen) for c in hom.classes] == [(1, True)] * 4


def test_recolour_neighbours_match_definition():
    g = cycle_graph(6)
    h = complete_graph(3)
    f = Hom(6, 3, (0, 1, 0, 1, 0, 1))
    near = {n.image for n in recolour_neighbours(f, g, h)}
    all_images = set(naive_homs(g, h))
    want = {im for im in all_images if colour_adjacent_naive(f.image, im)}
    assert near == want


def test_mixing_verdicts():
    assert is_mixing(cycle_graph(4), complete_graph(3)).status == "mixing"
    v = is_mixing(cycle_graph(6), complete_graph(3))
    assert v.status == "not_mixing"
    a, b = v.witness
    assert a.image != b.image
    assert is_mixing(complete_graph(3), complete_graph(2)).status == "no_colourings"


def test_frozen_identity_of_frozen_regular_graph():
    g = frozen_regular_graph(2, 2)
    h = circular_clique(7, 2)
    ident = Hom(7, 7, tuple(range(7)))
    assert is_frozen(ident, g, h)
    flexible = Hom(6, 3, (0, 1, 0, 1, 0, 1))
    assert not is_frozen(flexible, cycle_graph(6), complete_graph(3))


def test_homotopy_path_is_shortest_and_valid():
    g = complete_graph(2)
    h = complete_graph(3)
    a, b = Hom(2, 3, (0, 1)), Hom(2, 3, (1, 0))
    path = homotopy_path(a, b, g, h)
    assert [f.image for f in path] == [(0, 1), (0, 2), (1, 2), (1, 0)]
    assert homotopy_distance(a, b, g, h) == 3
    for x, y in zip(path, path[1:]):
        assert hom_adjacent_naive(x.image, y.image, g, h)
    assert homotopy_path(a, a, g, h) == [a]
    assert homotopy_distance(a, a, g, h) == 0
    # the cap bounds the maps the search reaches, not the whole space:
    # K_2 -> K_5 has 20 maps, and the first layer from (0,1) holds 13
    k5 = complete_graph(5)
    a, b = Hom(2, 5, (0, 1)), Hom(2, 5, (0, 2))
    assert [f.image for f in homotopy_path(a, b, g, k5, cap=15)] == [(0, 1), (0, 2)]
    with pytest.raises(CapExceededError):
        homotopy_path(a, b, g, k5, cap=10)
    # K_2 -> C_7: each map has at most 3 neighbours, so the count of maps
    # reached, not one neighbour search, meets the cap
    c7 = cycle_graph(7)
    a, b = Hom(2, 7, (0, 1)), Hom(2, 7, (3, 4))
    assert [f.image for f in homotopy_path(a, b, g, c7, cap=14)] == [
        (0, 1), (0, 6), (5, 6), (5, 4), (3, 4)]
    with pytest.raises(CapExceededError):
        homotopy_path(a, b, g, c7, cap=8)
    # 22 isolated vertices into K_2: every one of the 2^22 maps is adjacent
    # to every other, and a small cap stops the first neighbour search
    n = 22
    with pytest.raises(CapExceededError):
        homotopy_path(Hom(n, 2, (0,) * n), Hom(n, 2, (1,) * n),
                      Graph(n, []), complete_graph(2), cap=100)


def test_looped_hom_components_search_no_neighbours(monkeypatch):
    # P_6 with loops at both ends into the reflexive 5-cycle: 1215 maps,
    # whose classes come from boxes without a neighbour search per map
    g = Graph(6, list(path_graph(6).edges()) + [(0, 0), (5, 5)])
    h = cycle_graph(5, reflexive=True)
    calls = []
    search = homgraph._hom_neighbours
    monkeypatch.setattr(homgraph, "_hom_neighbours",
                        lambda *args: calls.append(1) or search(*args))
    report = components(g, h, kind="homomorphism")
    assert report.total == 1215
    assert calls == []


def test_hom_steps_lemma_on_all_small_pairs():
    """Homomorphism classes are the classes of single-vertex steps, a step
    at a looped vertex following an edge of the target: the lemma that
    lets ``components`` join boxes for looped sources."""
    targets = iso_reps(3, loops=True)
    for g in iso_reps(4, loops=True):
        arcs = directed_edges(g)
        for h in targets:
            images = naive_homs(g, h)
            assert hom_components_by_steps(images, g, h) == components_naive(
                images, lambda a, b: hom_adjacent_naive(a, b, g, h, arcs))


def test_homotopy_distance_matches_naive_bfs():
    rng = random.Random(4)
    for trial in range(30):
        loops = trial >= 15  # looped sources and targets after the first 15
        g = random_graph(rng, 3, p=0.5, loops=loops)
        h = random_graph(rng, 4, p=0.6, loops=loops)
        images = naive_homs(g, h)
        if len(images) < 2:
            continue
        start = rng.choice(images)
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for cur in frontier:
                for other in images:
                    if other not in dist and hom_adjacent_naive(cur, other, g, h):
                        dist[other] = dist[cur] + 1
                        nxt.append(other)
            frontier = nxt
        goal = rng.choice(images)
        f, t = Hom(g.n, h.n, start), Hom(g.n, h.n, goal)
        assert homotopy_distance(f, t, g, h) == dist.get(goal)


def test_radius_centre_values_and_errors():
    radius, centre = radius_centre(complete_graph(2), complete_graph(3))
    assert radius == 3
    assert centre.image == (0, 1)
    with pytest.raises(NoColouringsError):
        radius_centre(complete_graph(3), complete_graph(2))
    with pytest.raises(DisconnectedError):
        radius_centre(complete_graph(3), complete_graph(3))
    rng = random.Random(8)
    outcomes = set()
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 3), p=0.5, loops=rng.random() < 0.5)
        h = random_graph(rng, rng.randint(1, 4), p=0.6, loops=rng.random() < 0.5)
        if not naive_homs(g, h):
            with pytest.raises(NoColouringsError):
                radius_centre(g, h)
            outcomes.add("empty")
            continue
        try:
            want = hom_graph_radius_naive(g, h)
        except ValueError:
            with pytest.raises(DisconnectedError):
                radius_centre(g, h)
            outcomes.add("disconnected")
            continue
        assert radius_centre(g, h)[0] == want
        outcomes.add("connected")
    assert outcomes == {"empty", "disconnected", "connected"}


def test_component_report_json_keys():
    report = components(complete_graph(2), complete_graph(3), kind="colour")
    payload = report.to_json_dict()
    assert set(payload) == {"kind", "total", "classes", "mixing"}
    assert payload["total"] == 6 and payload["mixing"] is True
    assert set(payload["classes"][0]) == {"size", "rep", "non_surjective",
                                          "frozen"}
