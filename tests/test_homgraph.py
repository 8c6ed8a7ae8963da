"""Colour graph and homomorphism graph connectivity against naive BFS."""

import random
import tracemalloc
from collections import Counter
from math import factorial, gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circmix import circular, graphs, homgraph, homindex, homs
from circmix.circular import mixing_scan
from circmix.cli import main
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
                     hom_components_by_steps, homotopy_path_naive,
                     iso_reps, join_pairwise_naive, lift_boxes, naive_homs,
                     radius_centre_naive, random_graph)


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
    # loops on both sides: a loop at v asks f(v)g(v) to be an edge
    targets = iso_reps(3, loops=True)
    for g in targets:
        arcs = directed_edges(g)
        for h in targets:
            homs_gh = [Hom(g.n, h.n, im) for im in naive_homs(g, h)]
            for fa in homs_gh:
                for fb in homs_gh:
                    assert hom_adjacent(fa, fb, g, h) == hom_adjacent_naive(
                        fa.image, fb.image, g, h, arcs), (g, h, fa, fb)


def _lifted_labels(join, r):
    """The class ``(root, c)`` of every box of ``helpers.lift_boxes``: shift t of
    orbit box i, at position i*r + t, lies in (root, (t + pot) % split)."""
    roots, pots, splits = join
    return [(roots[i // r], (i % r + pots[i // r]) % splits[roots[i // r]])
            for i in range(len(roots) * r)]


def _lifted_roots(join, r):
    """``_join`` read on the boxes of ``helpers.lift_boxes``, as the pairwise
    oracle gives it: a root per box, the least box of its class."""
    least = {}
    return [least.setdefault(label, i) for i, label in enumerate(_lifted_labels(join, r))]


def _assert_partitions_match_naive(g, h):
    """Box partition, both kinds of components and is_mixing against BFS
    over the naive adjacencies: class members, least representatives, sizes,
    non-surjective and frozen flags, and the verdict."""
    images = naive_homs(g, h)
    arcs = directed_edges(g)

    def hom_adj(a, b):
        return hom_adjacent_naive(a, b, g, h, arcs)

    colour_naive = components_naive(images, colour_adjacent_naive)
    # every member lies in exactly one shift of one orbit box, and takes
    # that shift's class
    boxed, found, root, r = homs._boxes(homs._box_source(g), h)
    boxes = list(found)
    join = homgraph._join(g, h, boxes, root, r)
    lifted = lift_boxes(boxed, boxes, h.n, r)
    assert sum(size for _, _, size in lifted) == len(images)
    labels = _lifted_labels(join, r)
    reps = homgraph._class_reps(g, h, boxes, r, join)
    classes = {}
    for a in images:
        [label] = [label for (im, masks, _), label in zip(lifted, labels)
                   if all(a[v] == im[v] for v in range(g.n) if v not in boxed)
                   and all(m >> a[v] & 1 for v, m in zip(boxed, masks))]
        classes.setdefault(label, []).append(a)
    assert sorted(classes.values()) == colour_naive
    assert set(reps) == set(classes)
    assert all(reps[label] == members[0] for label, members in classes.items())
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


def _assert_classes_match_steps(g, h):
    """Both kinds of components and is_mixing against a BFS over
    single-vertex steps: reps, sizes, flags and the verdict.  A member is
    frozen when it is alone in its class of homomorphism steps."""
    images = naive_homs(g, h)
    naive = colour_components_by_steps(images, h.n)
    hom = hom_components_by_steps(images, g, h)
    frozen = {cls[0] for cls in hom if len(cls) == 1}
    for kind, classes in (("colour", naive), ("homomorphism", hom)):
        report = components(g, h, kind=kind)
        assert report.total == len(images)
        assert [(c.rep.image, c.size, c.contains_non_surjective,
                 c.contains_frozen) for c in report.classes] == \
            [(cls[0], len(cls), any(len(set(a)) < h.n for a in cls),
              any(a in frozen for a in cls)) for cls in classes]
    verdict = is_mixing(g, h)
    assert (verdict.hom_count, verdict.class_count) == (len(images), len(naive))
    if len(naive) > 1:
        assert tuple(w.image for w in verdict.witness) == (naive[0][0], naive[1][0])


def test_box_choice_extremes_match_naive():
    """Sources whose boxes hold one vertex, almost every vertex, isolated
    vertices, and loops on boxed and on branched vertices."""
    g112 = circular_clique(11, 2)
    for r in (4, 5):  # the largest independent set of K_r is one vertex
        assert len(homs._boxes(homs._box_source(complete_graph(r)), g112)[0]) == 1
        _assert_classes_match_steps(complete_graph(r), g112)
    star = Graph(9, [(0, v) for v in range(1, 9)])  # K_{1,8}
    assert homs._boxes(homs._box_source(star), complete_graph(3))[0] == list(range(1, 9))
    for h in (complete_graph(3), circular_clique(5, 2)):
        _assert_classes_match_steps(star, h)
    isolated = (Graph(3, []), Graph(6, list(cycle_graph(4).edges())),
                Graph(4, [(0, 1), (2, 2)]))
    for g in isolated:
        for h in (complete_graph(3), cycle_graph(4, reflexive=True),
                  Graph(3, [(0, 0), (0, 1), (1, 2)])):
            _assert_partitions_match_naive(g, h)
    # P_3 boxes its ends; a loop at an end, at the middle, or at all three
    p3 = list(path_graph(3).edges())
    assert homs._boxes(homs._box_source(path_graph(3)), complete_graph(3))[0] == [0, 2]
    for loops in ([(0, 0)], [(1, 1)], [(0, 0), (1, 1), (2, 2)]):
        g = Graph(3, p3 + loops)
        for h in (cycle_graph(5, reflexive=True), Graph(3, [(0, 0), (0, 1), (1, 2)]),
                  Graph(4, [(0, 0), (1, 1), (0, 1), (1, 2), (2, 3), (3, 3)])):
            _assert_partitions_match_naive(g, h)
    # reflexive paths past the naive oracle's reach, and P_3 looped at its
    # ends into a path whose looped ends are not adjacent: the box with the
    # middle at 1 holds the frozen (0, 1, 2) though its ends' masks are {0, 2}
    for n, m in ((8, 4), (10, 5), (12, 3)):
        _assert_classes_match_steps(path_graph(n, reflexive=True),
                                    path_graph(m, reflexive=True))
    g, h = Graph(3, p3 + [(0, 0), (2, 2)]), Graph(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    _assert_classes_match_steps(g, h)
    assert any(c.contains_frozen for c in components(g, h).classes)
    # boxes that ``_split`` cuts: a looped leaf's mask on T's two looped
    # edges, when the centre sits at T's hub, is two components
    _assert_classes_match_steps(cycle_graph(8, reflexive=True),
                                cycle_graph(5, reflexive=True))
    t = Graph(5, [(0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (2, 3),
                  (4, 0), (4, 1), (4, 2), (4, 3)])
    star = Graph(6, [(0, v) for v in range(1, 6)] + [(v, v) for v in range(1, 6)])
    boxed, found, _, _ = homs._boxes(homs._box_source(star), t)
    boxes = list(found)
    assert (boxed, len(boxes), len(homgraph._split(star, t, boxes))) == \
        ([1, 2, 3, 4, 5], 5, 36)
    _assert_classes_match_steps(star, t)
    report = components(star, t, kind="homomorphism")
    assert (report.total, report.class_count) == (1152, 32)


def _assert_join_matches_pairwise(g, h):
    """``_join``'s classes, lifted to every shift of the orbit boxes,
    against the pairwise oracle on those lifted boxes, box for box: colour
    classes on the boxes and homomorphism classes on their ``_split``."""
    boxed, found, root, r = homs._boxes(homs._box_source(g), h)
    boxes = list(found)
    for homotopy, joined in ((False, boxes), (True, homgraph._split(g, h, boxes))):
        join = homgraph._join(g, h, joined, root, r, homotopy)
        assert _lifted_roots(join, r) == \
            join_pairwise_naive(g, h, boxed, lift_boxes(boxed, joined, h.n, r), homotopy)


# shift-invariant targets with shift periods 1, 2, 3 and n
MATCHING = Graph(6, [(0, 1), (2, 3), (4, 5)])
SHIFT_3 = Graph(6, [(0, 3), (1, 4), (2, 5), (0, 1), (3, 4)])
LOOPED_PATH = Graph(4, [(0, 0), (1, 1), (0, 1), (1, 2), (2, 3), (3, 3)])


def test_join_matches_pairwise_oracle():
    targets = iso_reps(3, loops=True)
    for g in iso_reps(4, loops=True):
        for h in targets:
            _assert_join_matches_pairwise(g, h)
    # medium pairs, where free neighbourhoods are coloured alike in many groups
    for g, h in ((cycle_graph(7), circular_clique(10, 3)),
                 (cycle_graph(8), circular_clique(7, 2)),
                 (cycle_graph(7, reflexive=True), cycle_graph(5, reflexive=True)),
                 (cycle_graph(7, reflexive=True), LOOPED_PATH)):
        _assert_join_matches_pairwise(g, h)


def test_orbit_join_matches_pairwise_oracle_on_shift_invariant_targets():
    targets = {cycle_graph(5, reflexive=True): 1, MATCHING: 2,
               circular_clique(6, 2): 1, complete_graph(4).with_all_loops(): 1,
               SHIFT_3: 3, LOOPED_PATH: 4}
    assert {h: homs._shift_period(h) for h in targets} == targets
    for g in iso_reps(4, loops=True):
        for h in targets:
            _assert_join_matches_pairwise(g, h)


def test_union_find_matches_brute_force_unions():
    """``_UnionFind`` against a plain union over (box, shift) pairs: each
    union(a, b, delta) joins (a, t) with (b, t + delta) for every t."""
    rng = random.Random(1709)
    split_merges = 0
    for _ in range(3000):
        n, r = rng.randint(1, 6), rng.randint(1, 6)
        uf = homgraph._UnionFind(n, r)
        parent = {(x, t): (x, t) for x in range(n) for t in range(r)}

        def find(e):
            while parent[e] != e:
                e = parent[e]
            return e

        for _ in range(rng.randint(1, 2 * n)):
            a, b, delta = rng.randrange(n), rng.randrange(n), rng.randint(-r, 2 * r)
            ra, rb = uf.root[a], uf.root[b]
            split_merges += ra != rb and uf.split[rb] < r
            uf.union(a, b, delta)
            for t in range(r):
                parent[find((a, t))] = find((b, (t + delta) % r))
        labels = {}
        for x in range(n):
            root = uf.root[x]
            for t in range(r):
                labels[x, t] = (root, (t + uf.pot[x]) % uf.split[root])
        want = {frozenset(e for e in parent if find(e) == c)
                for c in set(map(find, parent))}
        got = {frozenset(e for e in labels if labels[e] == c)
               for c in set(labels.values())}
        assert got == want, (n, r)
    # unions that carry a split root under another (``union``'s last lines)
    assert split_merges > 100


def test_join_computes_classes_once_per_neighbourhood_colouring(monkeypatch):
    calls = 0
    local_classes = homgraph._local_classes

    def counting(*args):
        nonlocal calls
        calls += 1
        return local_classes(*args)

    monkeypatch.setattr(homgraph, "_local_classes", counting)
    g, h = cycle_graph(7), circular_clique(11, 3)
    boxed, found, root, r = homs._boxes(homs._box_source(g), h)
    boxes = list(found)
    assert (len(boxes), r) == (726, 11)
    d = h.n // r
    free = [v for v in range(g.n) if v not in boxed]
    groups = keys = 0
    for w in free:
        # w's free neighbourhood: free vertices adjacent to w or to a boxed
        # neighbour of w, w excluded
        near = sorted({x for u in g.neighbours(w) for x in [u, *g.neighbours(u)]
                       if x in free and x != w and (x == u or u in boxed)})
        # off the root each box is shifted to bring its least neighbourhood
        # vertex's colour below d
        lift = [-(im[near[0]] // d) * d if w == root else 0 for im, _, _ in boxes]
        colours = [{v: (im[v] + k) % h.n for v in free}
                   for (im, _, _), k in zip(boxes, lift)]
        groups += len({tuple(c[v] for v in free if v != w) for c in colours})
        keys += len({tuple(c[v] for v in near) for c in colours})
    assert (groups, keys) == (374, 154)
    for homotopy in (False, True):
        calls = 0
        homgraph._join(g, h, boxes, root, r, homotopy)
        assert calls == keys


@st.composite
def _sparse_sources(draw):
    """A path on 6 or 7 vertices plus at most two chords and any loops:
    sparse enough that free neighbourhoods repeat, so that groups often
    reuse the classes of an earlier one."""
    n = draw(st.integers(6, 7))
    vertex = st.integers(0, n - 1)
    chords = draw(st.sets(st.tuples(vertex, vertex), max_size=2))
    loops = draw(st.sets(vertex))
    return Graph(n, [*path_graph(n).edges(), *((u, v) for u, v in chords if u != v),
                     *((v, v) for v in loops)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sparse_sources(), graphs_with_loops(max_n=4, min_n=2))
def test_components_match_pairwise_join_on_drawn_pairs(g, h):
    _assert_join_matches_pairwise(g, h)

    def answers():
        return ([components(g, h, kind=kind) for kind in ("colour", "homomorphism")],
                is_mixing(g, h))

    fast = answers()
    # the reference: every box of the space, joined pair by pair
    with mock.patch.object(homs, "_shift_period", lambda h: h.n), \
            mock.patch.object(homgraph, "_join", _pairwise_join):
        assert answers() == fast


def _pairwise_join(source, target, boxes, root, r, homotopy=False):
    """``_join`` by the pairwise oracle, for the trivial shift group."""
    assert r == 1
    boxed = list(homgraph._join_plan(source).slot)
    roots = join_pairwise_naive(source, target, boxed, boxes, homotopy)
    return roots, [0] * len(roots), [1] * len(roots)


@st.composite
def _shift_invariant_targets(draw):
    """A target on 4, 6 or 8 colours drawn as the orbit of a random edge
    set, loops allowed, under the shifts by a divisor d of n."""
    n = draw(st.sampled_from([4, 6, 8]))
    d = draw(st.sampled_from([x for x in (1, 2, 3, 4, n) if n % x == 0]))
    colour = st.integers(0, n - 1)
    seeds = draw(st.sets(st.tuples(colour, colour), min_size=1, max_size=4))
    edges = [((u + t) % n, (v + t) % n) for u, v in seeds for t in range(0, n, d)]
    return Graph(n, edges), d


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs_with_loops(max_n=5), _shift_invariant_targets())
def test_components_match_naive_on_drawn_shift_invariant_targets(g, drawn):
    h, d = drawn
    period = homs._shift_period(h)
    assert d % period == 0
    assert all(h.rows[(c + period) % h.n] == homs._rotate(h.rows[c], period, h.n)
               for c in range(h.n))
    images = naive_homs(g, h)
    arcs = directed_edges(g)
    if len(images) <= 300:
        colour = components_naive(images, colour_adjacent_naive)
        hom = components_naive(
            images, lambda a, b: hom_adjacent_naive(a, b, g, h, arcs))
    else:  # the pairwise oracle is quadratic; steps give the same classes
        colour = colour_components_by_steps(images, h.n)
        hom = hom_components_by_steps(images, g, h)
    # a frozen member is alone in its homomorphism class
    frozen = {cls[0] for cls in hom if len(cls) == 1}
    for kind, naive in (("colour", colour), ("homomorphism", hom)):
        report = components(g, h, kind=kind)
        assert report.total == len(images)
        assert [(c.rep.image, c.size, c.contains_non_surjective,
                 c.contains_frozen) for c in report.classes] == \
            [(cls[0], len(cls), any(len(set(a)) < h.n for a in cls),
              any(a in frozen for a in cls)) for cls in naive]
    verdict = is_mixing(g, h)
    assert (verdict.hom_count, verdict.class_count) == (len(images), len(colour))
    if len(colour) > 1:
        assert tuple(w.image for w in verdict.witness) == (colour[0][0], colour[1][0])


def test_cap_counts_every_shift(capsys):
    # C_7 -> G_{11,3}: 266,728 maps in 726 orbit boxes of 11 shifts each
    g, h = cycle_graph(7), circular_clique(11, 3)
    count = 266728
    assert homs.hom_count(g, h, cap=count) == count
    assert is_mixing(g, h, cap=count).hom_count == count
    assert components(g, h, cap=count).total == count
    for ask in (homs.hom_count, is_mixing, components):
        with pytest.raises(CapExceededError) as exc:
            ask(g, h, cap=count - 1)
        assert str(exc.value) == \
            "budget of 266727 exceeded (homomorphism count for n=7)"
    # G_{7,3} is C_7, labelled v -> 3v
    argv = ["mixing", "--graph", "circ:7/3", "--target", "circ:11/3", "--cap"]
    assert main(argv + [str(count)]) == 0
    assert main(argv + [str(count - 1)]) == 2
    assert "budget of 266727 exceeded" in capsys.readouterr().err


def test_box_answers_do_not_enumerate(monkeypatch):
    calls = []
    monkeypatch.setattr(homs, "enumerate_homs",
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
    # a looped vertex may only move to a looped colour
    targets = iso_reps(3, loops=True)
    for g in targets:
        for h in targets:
            images = naive_homs(g, h)
            for im in images:
                near = {n.image for n in recolour_neighbours(Hom(g.n, h.n, im), g, h)}
                assert near == {b for b in images if colour_adjacent_naive(im, b)}, \
                    (g, h, im)


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
    # its colour classes take one join, on the boxes is_mixing joins
    joins = []
    join = homgraph._join
    monkeypatch.setattr(homgraph, "_join",
                        lambda *args, **kw: joins.append(1) or join(*args, **kw))
    assert components(g, h).total == 1215
    assert joins == [1]


def test_hom_steps_lemma_on_all_small_pairs():
    """Homomorphism classes are the classes of single-vertex steps, a step
    at a looped vertex following an edge of the target: the lemma that
    lets ``components`` join boxes for looped sources.  So a map is alone
    in its homomorphism class exactly when ``is_frozen`` finds no step."""
    targets = iso_reps(3, loops=True)
    for g in iso_reps(4, loops=True):
        arcs = directed_edges(g)
        for h in targets:
            images = naive_homs(g, h)
            naive = components_naive(
                images, lambda a, b: hom_adjacent_naive(a, b, g, h, arcs))
            assert hom_components_by_steps(images, g, h) == naive
            isolated = {cls[0] for cls in naive if len(cls) == 1}
            assert all(is_frozen(Hom(g.n, h.n, a), g, h) == (a in isolated)
                       for a in images), (g.rows, h.rows)


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


def test_homotopy_path_matches_naive_bfs_at_every_cap():
    """The same path, or the same CapExceededError, as a plain BFS over the
    naive adjacency, on every source of three or four vertices into small
    looped targets, from drawn pairs of maps, uncapped and at small caps."""
    rng = random.Random(14)
    targets = (Graph(2, [(0, 0), (0, 1), (1, 1)]), Graph(2, [(0, 0), (1, 1)]),
               Graph(3, [(0, 0), (0, 1), (1, 2)]),
               path_graph(3).with_all_loops(),
               Graph(3, [(0, 0), (0, 1), (0, 2), (1, 2)]),
               cycle_graph(4, reflexive=True))
    outcomes = set()
    for g in iso_reps(4, loops=True, min_n=3):
        for h in targets:
            images = naive_homs(g, h)
            if not images:
                continue
            for _ in range(3):
                a, b = rng.choice(images), rng.choice(images)
                for cap in (None, 1, 2, 3, 5, 8, 13, 30):
                    try:
                        want = homotopy_path_naive(a, b, g, h, cap, images)
                    except CapExceededError:
                        with pytest.raises(CapExceededError):
                            homotopy_path(Hom(g.n, h.n, a), Hom(g.n, h.n, b), g, h, cap)
                        outcomes.add("raised")
                        continue
                    got = homotopy_path(Hom(g.n, h.n, a), Hom(g.n, h.n, b), g, h, cap)
                    assert (None if got is None else [f.image for f in got]) == want
                    outcomes.add("unreachable" if want is None else "path")
    assert outcomes == {"raised", "unreachable", "path"}


def _shifted_targets():
    """Targets fixed by a shift c -> c + d, d > 1, and by no reflection
    c -> a - c: a triangle on the even colours with an odd pendant at each,
    looped, and the 8-colour graph of two edges and two loops."""
    tri = Graph(6, [(0, 2), (2, 4), (4, 0), (0, 1), (2, 3), (4, 5),
                    (1, 1), (3, 3), (5, 5)])
    return (tri, Graph(8, [(0, 1), (4, 5), (2, 2), (6, 6)]))


def test_radius_centre_values_and_errors():
    radius, centre = radius_centre(complete_graph(2), complete_graph(3))
    assert radius == 3
    assert centre.image == (0, 1)
    with pytest.raises(NoColouringsError):
        radius_centre(complete_graph(3), complete_graph(2))
    with pytest.raises(DisconnectedError):
        radius_centre(complete_graph(3), complete_graph(3))
    for h in _shifted_targets():
        d = homs._shift_period(h)
        assert 1 < d < h.n and homs._reflection(h) is None
    pairs = [(g, h) for g in iso_reps(4, loops=True) for h in iso_reps(3, loops=True)]
    pairs += [(g, h) for g in iso_reps(3, loops=True) for h in _shifted_targets()]
    outcomes = set()
    for g, h in pairs:
        if not naive_homs(g, h):
            with pytest.raises(NoColouringsError):
                radius_centre(g, h)
            outcomes.add("empty")
            continue
        try:
            want = radius_centre_naive(g, h)
        except ValueError:
            with pytest.raises(DisconnectedError):
                radius_centre(g, h)
            outcomes.add("disconnected")
            continue
        radius, centre = radius_centre(g, h)
        assert (radius, centre.image) == want, (g.rows, h.rows)
        outcomes.add("connected")
    assert outcomes == {"empty", "disconnected", "connected"}


def test_radius_centre_builds_no_colour_permutations():
    """Orbits are marked from the shift period and the reflection, never
    from a list of the target's symmetries: on a looped vertex into the
    reflexive 1024-cycle that list alone would hold 2048 permutations of
    1024 colours, about 40 MB."""
    n = 1024
    looped = Graph(n, [(v, (v + 1) % n) for v in range(n)] + [(v, v) for v in range(n)])
    homs._reflection(looped)  # kept facts, built before the peak is read
    tracemalloc.start()
    try:
        radius, centre = radius_centre(Graph(1, [(0, 0)]), looped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (radius, centre.image) == (n // 2, (0,))
    assert peak < 10_000_000


def test_hom_index_neighbour_sets_match_search():
    """Every bit of the index stands for one map and back, the bits cover
    HOM(g, h) exactly, and the bitset neighbour set of every map is the set
    the neighbour-box search finds: for every source and target on at most
    three vertices, loops included, whose shift period is 1 or, with no
    shift symmetry (r = 1), |V(H)|, for the 0-vertex source, and for two
    targets of shift period 2, with r = 3 and r = 2 shifts."""
    reps = iso_reps(3, loops=True)
    looped_even = Graph(6, [(v, (v + 1) % 6) for v in range(6)]
                        + [(v, v) for v in (0, 2, 4)])
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert homs._shift_period(looped_even) == homs._shift_period(two_edges) == 2
    assert homs._shift_period(path_graph(3)) == 3
    checked = 0
    for g in [Graph(0)] + reps:
        src = homs._Source(g, homs._search_order(g))
        for h in reps + [looped_even, two_edges]:
            index = homindex._HomIndex(g, h)
            assert index.full == (1 << index.count) - 1
            images = [index.image(j) for j in range(index.count)]
            assert sorted(images) == enumerate_homs(g, h).images
            for j, im in enumerate(images):
                assert index.number(im) == j
                want = sum(1 << index.number(nb)
                           for nb in homgraph._hom_neighbours(im, src, h))
                assert index.neighbours(j) == want, (g.rows, h.rows, im)
                checked += 1
    assert checked > 4000


def test_hom_index_holds_one_map_per_shift_orbit():
    """P_2 into C_2000 has 4,000 maps in 2 orbits of the 2,000 shifts, and
    the index builds and numbers only those 2 representatives."""
    index = homindex._HomIndex(path_graph(2), cycle_graph(2000))
    assert len(index.reps) == 2 and index.count == 4000
    for im in [(5, 6), (0, 1999), (1999, 0), (1998, 1999)]:
        j = index.number(im)
        assert index.image(j) == im
        near = index.neighbours(j)
        # g is hom-adjacent to f when g(0) ~ f(1) and g(1) ~ f(0)
        a, b = im
        assert {index.image(i) for i in range(4000) if near >> i & 1} == {
            (x % 2000, y % 2000) for x in (b - 1, b + 1) for y in (a - 1, a + 1)
            if (x - y) % 2000 in (1, 1999)}
    with pytest.raises(KeyError):
        index.number((0, 2))


def test_radius_centre_on_degenerate_sources():
    """The 0-vertex source, whose neighbour sets are ANDs over no vertex,
    an edgeless source and looped sources: the values are those of the
    per-map neighbour searches that the bitset walk replaced."""
    empty = Graph(0)
    for h in (Graph(0), complete_graph(1), complete_graph(2),
              cycle_graph(4, reflexive=True)):
        index = homindex._HomIndex(empty, h)
        assert index.full == 1 and index.neighbours(0) == 1
        assert [f for f, _ in index.layers(0)] == [1]
        radius, centre = radius_centre(empty, h)
        assert (radius, centre.image) == (0, ())
    edgeless = Graph(3)
    two_loops = Graph(2, [(0, 0), (1, 1)])
    looped = [Graph(1, [(0, 0)]), Graph(2, [(0, 0), (0, 1)]), two_loops]
    want = {  # (source, target): (radius, centre)
        (edgeless, complete_graph(1)): (0, (0, 0, 0)),
        (edgeless, complete_graph(2)): (1, (0, 0, 0)),
        (edgeless, path_graph(3, reflexive=True)): (1, (0, 0, 0)),
        (edgeless, two_loops): (1, (0, 0, 0)),
        (looped[0], path_graph(3, reflexive=True)): (1, (1,)),
        (looped[0], cycle_graph(4, reflexive=True)): (2, (0,)),
        (looped[1], path_graph(3, reflexive=True)): (1, (1, 1)),
        (looped[1], cycle_graph(4, reflexive=True)): (2, (0, 0)),
        (looped[2], path_graph(3, reflexive=True)): (1, (1, 1)),
        (looped[2], cycle_graph(4, reflexive=True)): (2, (0, 0)),
    }
    for (g, h), value in want.items():
        radius, centre = radius_centre(g, h)
        assert (radius, centre.image) == value
        assert value == radius_centre_naive(g, h)
    with pytest.raises(NoColouringsError):
        radius_centre(edgeless, Graph(0))
    for g in looped:
        with pytest.raises(NoColouringsError):
            radius_centre(g, complete_graph(2))
        # a looped vertex keeps its colour when the target has no edge
        # between its two loops
        with pytest.raises(DisconnectedError):
            radius_centre(g, two_loops)


def test_component_report_json_keys():
    report = components(complete_graph(2), complete_graph(3), kind="colour")
    payload = report.to_json_dict()
    assert set(payload) == {"kind", "total", "classes", "mixing"}
    assert payload["total"] == 6 and payload["mixing"] is True
    assert set(payload["classes"][0]) == {"size", "rep", "non_surjective",
                                          "frozen"}


# the criterion-12 fractions: every coprime k/q with q <= 5 and k <= 11
FRACTIONS = [(k, q) for q in range(1, 6) for k in range(2 * q, 12) if gcd(k, q) == 1]


def _three_answers(g, h, cap=None):
    """is_mixing and both kinds of components, or the text of the cap error."""
    out = []
    for ask in (lambda: is_mixing(g, h, cap=cap),
                lambda: components(g, h, "colour", cap).to_json_dict(),
                lambda: components(g, h, "homomorphism", cap).to_json_dict()):
        try:
            out.append(ask())
        except CapExceededError as exc:
            out.append(str(exc))
    return out


def test_theorem_path_matches_the_join(monkeypatch):
    """Where a mixing theorem makes the space one class, is_mixing and
    components answer without a join; every answer, and every cap error
    at a cap of the total and one below it, is the join's.  With the rule
    off a covered space is joined, which shows that the rule is off where
    the two look it up."""
    assert len(FRACTIONS) == 21
    sources = iso_reps(5) + [cycle_graph(n) for n in range(6, 11)]
    pairs = [(g, circular_clique(k, q)) for g in sources for k, q in FRACTIONS]
    pairs += [(Graph(0), circular_clique(7, 2)), (Graph(3), circular_clique(7, 2))]
    # cycles into covered targets past k = 11, counted from winding totals
    pairs += [(cycle_graph(n), circular_clique(k, q)) for n in range(3, 6)
              for k, q in ((13, 2), (13, 3), (14, 3), (17, 4))]
    pairs.append((cycle_graph(4095), circular_clique(13, 2)))
    join = homgraph._join

    def same_with_the_rule_off(g, h, cap=None):
        """The three answers, and how many joins they take with the rule off."""
        got, joins = _three_answers(g, h, cap), []
        with monkeypatch.context() as m:
            m.setattr(homgraph, "_theorem_covers", lambda *a, **kw: False)
            m.setattr(homgraph, "_join",
                      lambda *a, **kw: joins.append(1) or join(*a, **kw))
            assert _three_answers(g, h, cap) == got, (g.rows, h.name, cap)
        return got, len(joins)

    covered, capped = 0, 0
    for g, h in pairs:
        (verdict, *_), joins = same_with_the_rule_off(g, h)
        if not homgraph._theorem_covers(g, graphs._clique_parameters(h)):
            continue
        covered += 1
        if isinstance(verdict, str):  # past the default cap
            capped += 1
            continue
        assert joins >= 3, (g.rows, h.name)
        for cap in (verdict.hom_count - 1, verdict.hom_count):
            same_with_the_rule_off(g, h, cap)
    assert not homgraph._theorem_covers(Graph(0), (7, 2))
    assert homgraph._theorem_covers(Graph(3), (7, 2))
    # 630 pairs of iso_reps(5), as test_mixing_scan_rows_match_is_mixing
    # counts, 50 of the cycles, the edgeless source and the 13 cycles into
    # targets past k = 11, of which C_4095 is capped
    assert (covered, capped) == (630 + 50 + 1 + 13, 18 + 1)


def _lift_rows(sources, fractions):
    """The rows (g, k, q) that the theorem rule covers and that the
    paper's k/q >= 2 col, the integer threshold k >= col + 1 at q = 1 and
    k/q > 2 dmax do not: those that only k > (2q-1) col covers."""
    rows = []
    for g in sources:
        col, dmax = homgraph._col_dmax(g)
        for k, q in fractions:
            if homgraph._theorem_covers(g, (k, q)) and not (
                    k >= 2 * col * q or (q == 1 and k >= col + 1) or 0 < 2 * dmax * q < k):
                rows.append((g, k, q))
    return rows


def test_lift_rows_match_the_join(monkeypatch):
    """Each row that only the lift k > (2q-1) col covers answers as its
    join does: ``is_mixing`` on the graphs of at most 6 vertices into
    every coprime G_{k,q} with k <= 14 and q <= 4, at the default cap and
    at caps of its count and one below, and both kinds of ``components``
    on the graphs of at most 5 vertices at the 21 fractions."""
    def answer(g, h, cap=None, rule=True):
        with monkeypatch.context() as m:
            if not rule:
                m.setattr(homgraph, "_theorem_covers", lambda *a, **kw: False)
            try:
                return is_mixing(g, h, cap)
            except CapExceededError as exc:
                return str(exc)

    fractions = [(k, q) for q in range(1, 5) for k in range(2 * q, 15) if gcd(k, q) == 1]
    rows = _lift_rows(iso_reps(6), fractions)
    assert len(rows) == 190
    assert {(k, q) for _, k, q in rows} == {(7, 2), (11, 2), (11, 3), (13, 2)}
    for g, k, q in rows:
        h = circular_clique(k, q)
        verdict = answer(g, h)
        assert verdict == answer(g, h, rule=False) and verdict.status == "mixing", (g.rows, k, q)
        for cap in (verdict.hom_count, verdict.hom_count - 1):
            assert answer(g, h, cap) == answer(g, h, cap, rule=False), (g.rows, k, q, cap)
    small = _lift_rows(iso_reps(5), FRACTIONS)
    assert len(small) == 38
    for g, k, q in small:
        h = circular_clique(k, q)
        got = _three_answers(g, h)
        with monkeypatch.context() as m:
            m.setattr(homgraph, "_theorem_covers", lambda *a, **kw: False)
            assert _three_answers(g, h) == got, (g.rows, k, q)


def test_lift_bound_is_sharp_on_frozen_graphs():
    """The d-regular F_{d,q}, of colouring number d + 1, has a frozen
    colouring into G_{k,q} at k = (2q-1)d + 1, so no rule covers that
    fraction.  F_{d,1} is K_{d+1}, and k = d + 2 is covered: at q = 1 the
    bound k > col is tight, as the integer threshold col + 1 is."""
    for d in range(2, 7):
        for q in range(1, 5):
            g, k = frozen_regular_graph(d, q), (2 * q - 1) * d + 1
            assert graphs.colouring_number(g) == d + 1
            assert is_frozen(Hom(k, k, tuple(range(k))), g, circular_clique(k, q))
            assert not homgraph._theorem_covers(g, (k, q)), (d, q)
        assert homgraph._theorem_covers(frozen_regular_graph(d, 1), (d + 2, 1))


def test_covered_spaces_hold_a_non_surjective_member(monkeypatch):
    """A space that a mixing theorem covers maps through K_chi with
    chi < k, so its one class holds a member that misses a colour, and
    ``_ruled`` reports that without looking at a box.  Every covered row
    of the graphs of at most 6 vertices into the coprime G_{k,q} with
    k <= 14 and q <= 4, within a cap of 100,000, is one such class by the
    join, and the rule answers each as the join does with the box flag
    test refusing, which a join cannot get past."""
    fractions = [(k, q) for q in range(1, 5) for k in range(2 * q, 15) if gcd(k, q) == 1]
    rows = []
    for g in iso_reps(6):
        for k, q in fractions:
            h = circular_clique(k, q)
            if homgraph._theorem_covers(g, (k, q)):
                try:
                    homs.hom_count(g, h, 100_000)
                except CapExceededError:
                    continue
                rows.append((g, h))
    assert len(rows) == 1488
    with monkeypatch.context() as m:
        m.setattr(homgraph, "_ruled", lambda *a, **kw: None)
        joined = [components(g, h) for g, h in rows]
    for (g, h), report in zip(rows, joined):
        assert [c.contains_non_surjective for c in report.classes] == [True], (g.rows, h.name)

    def refuse(*args, **kwargs):
        raise AssertionError("a box read for its flag")

    monkeypatch.setattr(homgraph, "_misses_a_colour", refuse)
    for (g, h), report in zip(rows, joined):
        assert components(g, h) == report, (g.rows, h.name)
    monkeypatch.setattr(homgraph, "_ruled", lambda *a, **kw: None)
    with pytest.raises(AssertionError, match="a box read for its flag"):
        components(*rows[0])


def test_not_mixing_witnesses_are_the_two_least_class_members():
    """is_mixing narrows only the two least classes to their least members;
    its witnesses are the first two of every class's, as components lists
    them, and any number of least classes are the first of those."""
    verdict = is_mixing(complete_graph(5), complete_graph(5))
    assert [w.image for w in verdict.witness] == [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3)]
    checked = 0
    for g in iso_reps(5):
        src = homs._box_source(g)
        for k, q in FRACTIONS:
            h = circular_clique(k, q)
            verdict = is_mixing(g, h)
            if verdict.status != "not_mixing":
                continue
            _, found, root, r = homs._boxes(src, h)
            boxes = list(found)
            join = homgraph._join(g, h, boxes, root, r)
            every = homgraph._class_reps(g, h, boxes, r, join)
            assert [w.image for w in verdict.witness] == list(every.values())[:2], \
                (g.rows, k, q)
            # and the least ``keep`` of them, for any keep
            for keep in (1, 3, 4, 7):
                assert homgraph._class_reps(g, h, boxes, r, join, keep) == \
                    dict(list(every.items())[:keep]), (g.rows, k, q, keep)
            checked += 1
    assert checked > 100


def _assert_verdict_matches_naive_classes(g, h, classes):
    verdict = is_mixing(g, h)
    assert verdict.hom_count == sum(map(len, classes)), (g.rows, h.name)
    assert verdict.class_count == len(classes), (g.rows, h.name)
    if len(classes) < 2:
        assert verdict.witness is None
    else:
        assert [w.image for w in verdict.witness] == [classes[0][0], classes[1][0]], \
            (g.rows, h.name)
    return len(classes)


def test_not_mixing_witnesses_on_spaces_of_many_classes():
    """is_mixing's class count and both witnesses against the two least
    classes of a naive BFS: K_n into K_n, where every map is frozen, and
    every graph on at most five vertices at 3/1 and 7/2.  Spaces of more
    than 500 maps take the linear BFS of ``colour_components_by_steps``."""
    for n in range(1, 6):
        k = complete_graph(n)
        classes = components_naive(naive_homs(k, k), colour_adjacent_naive)
        assert _assert_verdict_matches_naive_classes(k, k, classes) == factorial(n)
    many = 0
    for h in (circular_clique(3, 1), circular_clique(7, 2)):
        for g in iso_reps(5):
            images = naive_homs(g, h)
            classes = (components_naive(images, colour_adjacent_naive)
                       if len(images) <= 500 else colour_components_by_steps(images, h.n))
            many += _assert_verdict_matches_naive_classes(g, h, classes) > 2
    assert many == 20


def _refuse(what):
    def refuse(*a, **kw):
        raise AssertionError(what)
    return refuse


def test_theorem_spaces_are_not_joined(monkeypatch):
    """A covered space is not joined; a covered cycle is not even boxed,
    its count coming from the winding totals."""
    monkeypatch.setattr(homgraph, "_join", _refuse("joined"))
    with monkeypatch.context() as m:
        m.setattr(homgraph, "_boxes", _refuse("boxed"))
        for g, h in [(cycle_graph(5), circular_clique(13, 2)),
                     (cycle_graph(6), circular_clique(9, 2))]:
            verdict = is_mixing(g, h)
            assert (verdict.name, verdict.class_count) == ("Mixing", 1)
            for kind in ("colour", "homomorphism"):
                report = components(g, h, kind)
                assert report.class_count == 1 and report.total == verdict.hom_count
                assert report.classes[0].rep == homs.first_hom(g, h)
    with pytest.raises(AssertionError, match="joined"):
        is_mixing(path_graph(3), circular_clique(5, 2))


def _closed_walks(h, lengths):
    """trace(A^n) of h's adjacency matrix A for each n in ``lengths``, by
    integer matrix powers."""
    a = [[h.rows[i] >> j & 1 for j in range(h.n)] for i in range(h.n)]
    power, out = a, {}
    for n in range(1, max(lengths) + 1):
        if n in lengths:
            out[n] = sum(power[i][i] for i in range(h.n))
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)]
                 for row in power]
    return out


def test_covered_cycles_count_closed_walks(monkeypatch):
    """C_n into a coprime G_{k,q} with k >= 4q is one class counted from
    its winding totals: the count is trace(A^n), the class misses a colour
    and is not frozen, and a count past the cap raises the boxes' error.
    No box is searched."""
    monkeypatch.setattr(homgraph, "_boxes", _refuse("boxed"))
    targets = [circular_clique(k, q) for q in range(1, 6)
               for k in range(4 * q, 4 * q + 7) if gcd(k, q) == 1]
    lengths = range(3, 31)
    checked = capped = 0
    for h in targets:
        walks = _closed_walks(h, lengths)
        for n in lengths:
            g = cycle_graph(n)
            if walks[n] > 10 ** 7:
                for ask in (lambda: is_mixing(g, h), lambda: components(g, h)):
                    with pytest.raises(CapExceededError) as err:
                        ask()
                    assert str(err.value) == (f"budget of 10000000 exceeded "
                                              f"(homomorphism count for n={n})")
                capped += 1
                continue
            verdict = is_mixing(g, h)
            assert (verdict.name, verdict.hom_count, verdict.class_count) == \
                ("Mixing", walks[n], 1), (n, h.name)
            rep = homs.first_hom(g, h)
            for kind in ("colour", "homomorphism"):
                report = components(g, h, kind)
                assert (report.total, report.classes) == (walks[n], (
                    homgraph.ClassSummary(rep, walks[n], True, False),)), (n, h.name)
            checked += 1
    assert (len(targets), checked, capped) == (22, 116, 500)


def test_clique_parameters_read_once_per_call(monkeypatch):
    """components and is_mixing read the target's G_{k,q} parameters once,
    for both rules, on a covered cycle and on a cycle-rule pair."""
    calls, read = [], graphs._clique_parameters
    monkeypatch.setattr(homgraph, "_clique_parameters",
                        lambda h: calls.append(h) or read(h))
    monkeypatch.setattr(homgraph, "_boxes", _refuse("boxed"))
    for g, h in [(cycle_graph(5), circular_clique(13, 2)),
                 (cycle_graph(7), circular_clique(10, 3))]:
        for ask in (lambda: is_mixing(g, h), lambda: components(g, h, "colour"),
                    lambda: components(g, h, "homomorphism")):
            calls.clear()
            ask()
            assert calls == [h], h.name


def test_kept_facts_built_once_per_graph(monkeypatch):
    """Two scans each of two source objects at the sweep's 9 fractions read
    the row's G_{k,q} parameters once per row, and build each fact they
    keep once per graph object: the parameters of the source and of each
    shared target, and the source's cycle walk and (col, dmax).  A copy of
    G_{7,2} unnamed or misnamed keeps None for its parameters and is
    joined."""
    built = []
    for name in ("_clique_parameters", "_cycle_walk", "_col_dmax"):
        build = getattr(homgraph, name).__wrapped__
        fact = graphs._kept(lambda g, name=name, build=build:
                            built.append((name, g)) or build(g))
        for module in (homgraph, circular):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fact)
    reads, read = [], homgraph._clique_parameters
    monkeypatch.setattr(homgraph, "_clique_parameters",
                        lambda h: reads.append(h) or read(h))
    sweep = [(k, q) for q in range(1, 5) for k in range(2 * q, 8) if gcd(k, q) == 1]
    targets = [circular_clique(k, q) for k, q in sweep]
    sources = [cycle_graph(5), Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])]
    for g in sources:
        reads.clear()
        first = mixing_scan(g, sweep)
        assert mixing_scan(g, sweep) == first
        assert list(map(id, reads)) == list(map(id, targets)) * 2
    facts = Counter((name, id(g)) for name, g in built)
    assert set(facts.values()) == {1}
    assert sorted(facts) == sorted(
        [("_clique_parameters", id(h)) for h in sources + targets]
        + [(name, id(g)) for g in sources for name in ("_cycle_walk", "_col_dmax")])
    g72, c5 = circular_clique(7, 2), cycle_graph(5)
    want = is_mixing(c5, g72)
    joins, join = [], homgraph._join
    monkeypatch.setattr(homgraph, "_join",
                        lambda *a, **kw: joins.append(a[1]) or join(*a, **kw))
    for h in (Graph.from_rows(g72.rows), Graph.from_rows(g72.rows, "G_{7,3}")):
        built.clear()
        for _ in range(2):
            joins.clear()
            assert homgraph._clique_parameters(h) is None
            assert is_mixing(c5, h) == want and joins == [h]
        assert built == [("_clique_parameters", h)]


def test_rule_ladder_order(monkeypatch):
    """``_ruled`` asks the cycle rule (only of a cycle into a coprime
    G_{k,q} with 2 < k/q < 4), then the theorems, and the first rule that
    answers a space decides it with no join; a pair that no rule
    answers is joined on boxes.  One pair per outcome, with the calls each
    takes, alike from ``is_mixing``, ``components`` and a scan row.  On a
    covered space ``components`` calls ``first_hom`` once, for the least
    member, and neither ``is_mixing`` nor a scan calls it."""
    log = []
    for name, tag in (("_cycle_classes", "cycle"), ("_theorem_covers", "theorem"),
                      ("_winding_counts", "winding"), ("hom_count", "count"),
                      ("_boxes", "boxes"), ("_join", "join"),
                      ("first_hom", "first_hom")):
        monkeypatch.setattr(homgraph, name, lambda *a, real=getattr(homgraph, name),
                            tag=tag, **kw: log.append(tag) or real(*a, **kw))
    ruled = homgraph._ruled

    def marked(*a, **kw):
        out = ruled(*a, **kw)
        log.append("join boxes" if out is None else "ruled")
        return out

    monkeypatch.setattr(homgraph, "_ruled", marked)
    g72 = circular_clique(7, 2)
    cases = [
        # a cycle below 4: its classes from the winding totals, no box
        (cycle_graph(7), circular_clique(10, 3), ["cycle", "winding", "ruled"]),
        # covered cycle: counted from the winding totals, no box
        (cycle_graph(5), circular_clique(13, 2), ["theorem", "winding", "ruled"]),
        # covered non-cycle: counted by hom_count, not joined
        (complete_graph(4), circular_clique(9, 1), ["theorem", "count", "ruled"]),
        # not coprime: joined
        (cycle_graph(5), circular_clique(8, 2), ["theorem", "join boxes", "boxes", "join"]),
        # looped source: boxed, and its space is empty, so nothing is joined
        (Graph(2, [(0, 0), (0, 1)]), g72, ["theorem", "join boxes", "boxes"]),
        # a target not named G_{k,q}: no rule is asked
        (complete_graph(3), Graph.from_rows(g72.rows), ["join boxes", "boxes", "join"]),
    ]
    for g, h, want in cases:
        covered = "theorem" in want and want[-1] == "ruled"
        log.clear()
        is_mixing(g, h)
        assert log == want, h.name
        log.clear()
        components(g, h)
        assert log == (want[:-1] + ["first_hom", "ruled"] if covered else want), h.name
        params = graphs._clique_parameters(h)
        if g.is_loop_free and params is not None:
            log.clear()
            mixing_scan(g, [params])
            assert log == want, h.name


def test_cycles_skip_the_colouring_number(monkeypatch):
    """A cycle's colouring number is 3 and its maximum degree 2, so the
    theorem rule works neither out on a cycle source; C_4095 into a covered
    G_{13,2} is refused with the same text."""
    calls, col = [], graphs.colouring_number
    monkeypatch.setattr(homgraph, "colouring_number",
                        lambda g: calls.append(g) or col(g))
    assert is_mixing(cycle_graph(5), circular_clique(13, 2)).is_mixing
    assert components(cycle_graph(6), circular_clique(9, 2)).mixing
    with pytest.raises(CapExceededError) as err:
        is_mixing(cycle_graph(4095), circular_clique(13, 2))
    assert str(err.value) == "budget of 10000000 exceeded (homomorphism count for n=4095)"
    assert calls == []
    assert is_mixing(path_graph(5), circular_clique(13, 2)).is_mixing
    assert len(calls) == 1
