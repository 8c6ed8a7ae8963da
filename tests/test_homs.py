"""Homomorphism search against the brute-force product oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circmix.config import DEFAULT_MAX_VERTICES
from circmix.errors import CapExceededError
from circmix.extension import PrecolouringInstance, extend
from circmix.graphs import (Graph, _bits, complete_graph, cycle_graph,
                            circular_clique, max_clique, path_graph)
from circmix.homgraph import is_mixing
from circmix.homs import (Hom, compose, enumerate_homs, first_hom,
                          format_image, hom_count, hom_exists, identity_hom,
                          is_hom, iter_homs, parse_image, _box_source, _search,
                          _reflection, _search_order, _shift_period, _Source)

from helpers import graphs_with_loops, iso_reps, naive_homs, random_graph


def test_is_hom_matches_definition():
    g = cycle_graph(5)
    h = complete_graph(3)
    assert is_hom(g, h, (0, 1, 0, 1, 2))
    assert not is_hom(g, h, (0, 1, 0, 1, 0))  # edge (4,0) collapses
    rng = random.Random(0)
    for _ in range(30):
        a = random_graph(rng, 3, loops=True)
        b = random_graph(rng, 3, loops=True)
        image = tuple(rng.randrange(3) for _ in range(3))
        assert is_hom(a, b, image) == (image in naive_homs(a, b))


def test_row_is_hom_matches_edge_by_edge_on_every_map():
    """is_hom tests rows; every vertex map of the graphs on at most four
    vertices into those on at most three, loops included, gets the answer
    of a test of each edge in turn."""
    checked = 0
    for g in iso_reps(4, loops=True):
        edges = list(g.edges())
        for h in iso_reps(3, loops=True):
            for image in itertools.product(range(h.n), repeat=g.n):
                want = all(h.has_edge(image[u], image[v]) for u, v in edges)
                assert is_hom(g, h, image) == want, (g.rows, h.rows, image)
                checked += want
    assert checked > 10000


def test_enumeration_matches_oracle_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 4), p=0.5, loops=rng.random() < 0.3)
        h = random_graph(rng, rng.randint(1, 4), p=0.6, loops=rng.random() < 0.3)
        space = enumerate_homs(g, h)
        assert list(space.images) == naive_homs(g, h)


def test_enumeration_is_sorted_and_indexable():
    space = enumerate_homs(cycle_graph(5), complete_graph(3))
    images = list(space.images)
    assert images == sorted(images)
    assert space.count == 30
    for i in (0, 7, 29):
        assert space.hom(i).image == images[i]


def test_first_hom_is_least_and_respects_pins():
    g = cycle_graph(5)
    h = complete_graph(3)
    oracle = naive_homs(g, h)
    assert first_hom(g, h).image == min(oracle)
    pinned = first_hom(g, h, pins={2: 2, 0: 1})
    assert pinned.image == min(im for im in oracle if im[2] == 2 and im[0] == 1)
    assert first_hom(complete_graph(3), complete_graph(2)) is None
    with pytest.raises(ValueError, match="break an edge"):
        first_hom(g, h, pins={0: 0, 1: 0})  # adjacent pins collide
    with pytest.raises(ValueError, match="out of range"):
        first_hom(g, h, pins={5: 0})
    with pytest.raises(ValueError, match="out of range"):
        first_hom(g, h, pins={0: 3})
    looped = Graph(2, [(0, 0), (0, 1)])
    half = Graph(2, [(0, 1), (1, 1)])  # only colour 1 carries a loop
    with pytest.raises(ValueError, match="breaks the loop at 0"):
        first_hom(looped, half, pins={0: 0})
    assert first_hom(looped, half, pins={0: 1}).image == (1, 0)
    # a pin that breaks its own loop and an edge to a smaller pin: the loop
    # is named first
    with pytest.raises(ValueError, match="breaks the loop at 1"):
        first_hom(Graph(2, [(0, 1), (1, 1)]), half, pins={1: 0, 0: 0})


def test_hom_exists_and_budget(monkeypatch):
    assert hom_exists(cycle_graph(6), complete_graph(2))
    assert not hom_exists(cycle_graph(5), complete_graph(2))
    with pytest.raises(CapExceededError):
        enumerate_homs(cycle_graph(6), circular_clique(9, 2), cap=10)
    with pytest.raises(CapExceededError):
        list(iter_homs(cycle_graph(6), circular_clique(9, 2), budget=10))
    # with no budget of its own, every search takes CIRCMIX_CAP's
    k4 = complete_graph(4)
    with monkeypatch.context() as m:
        m.setenv("CIRCMIX_CAP", "3")
        for search, what in ((lambda: first_hom(k4, k4), "partial assignments"),
                             (lambda: list(iter_homs(k4, k4)), "partial assignments"),
                             (lambda: max_clique(k4), "clique search")):
            with pytest.raises(CapExceededError, match=f"^budget of 3 exceeded \\({what}\\)$"):
                search()
        m.setenv("CIRCMIX_CAP", "4")
        assert first_hom(k4, k4).image == (0, 1, 2, 3) and max_clique(k4) == [0, 1, 2, 3]
    # A node is a consistent assignment of a prefix of the search order;
    # sorted as colour tuples along the order, they come in search order.
    # A budget of b yields the complete ones among the first b nodes, then
    # raises unless those were all the nodes.
    rng, pick = random.Random(5), random.Random(6)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 4), p=0.5, loops=rng.random() < 0.3)
        h = random_graph(rng, rng.randint(1, 4), p=0.6, loops=rng.random() < 0.3)
        order = _search_order(g)
        nodes = sorted(node for i in range(1, g.n + 1)
                       for node in naive_homs(g.induced(order[:i]), h))
        for b in range(1, len(nodes) + 1):
            want = []
            for node in nodes[:b]:
                if len(node) == g.n:
                    image = [0] * g.n
                    for v, c in zip(order, node):
                        image[v] = c
                    want.append(tuple(image))
            got = []
            try:
                got.extend(iter_homs(g, h, budget=b))
                assert b == len(nodes)
            except CapExceededError:
                assert b < len(nodes)
            assert got == want
        # Pinned: the search runs over the free vertices in ascending order,
        # its levels next to a pin narrowed by the pinned colour.  The least
        # extension is the first complete node, so a budget of b returns it
        # exactly when it lies among the first b nodes; below that, or when
        # no extension exists and b misses some node, the search raises.
        pinned = sorted(pick.sample(range(g.n), pick.randint(1, min(2, g.n))))
        for colours in itertools.product(range(h.n), repeat=len(pinned)):
            pins = dict(zip(pinned, colours))
            free = [v for v in range(g.n) if v not in pins]
            if colours not in naive_homs(g.induced(pinned), h):
                with pytest.raises(ValueError):
                    first_hom(g, h, pins=pins)
                continue
            nodes = sorted(node[len(pinned):] for i in range(1, len(free) + 1)
                           for node in naive_homs(g.induced(pinned + free[:i]), h)
                           if node[:len(pinned)] == colours)
            least = min((im for im in naive_homs(g, h)
                         if all(im[v] == c for v, c in pins.items())), default=None)
            reach = (len(nodes) if least is None else
                     nodes.index(tuple(least[v] for v in free)) + 1 if free else 0)
            for b in range(1, len(nodes) + 2):
                if b < reach:
                    with pytest.raises(CapExceededError):
                        first_hom(g, h, pins=pins, budget=b)
                else:
                    hom = first_hom(g, h, pins=pins, budget=b)
                    assert (None if hom is None else hom.image) == least


def assert_count_matches_enumeration(g, h):
    """hom_count equals both enumerations, and for every cap next to the
    count it raises, with the same detail, exactly when enumerate_homs does."""
    count = hom_count(g, h)
    assert count == enumerate_homs(g, h).count == len(naive_homs(g, h))
    for cap in (count - 1, count, count + 1):
        try:
            enumerate_homs(g, h, cap=cap)
            expected = None
        except CapExceededError as exc:
            expected = str(exc)
        try:
            assert hom_count(g, h, cap=cap) == count
            got = None
        except CapExceededError as exc:
            got = str(exc)
        assert got == expected, (g, h, cap)


def test_hom_count_matches_enumeration_on_random_pairs():
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 5), p=0.5, loops=rng.random() < 0.3)
        h = random_graph(rng, rng.randint(1, 4), p=0.6, loops=rng.random() < 0.3)
        assert_count_matches_enumeration(g, h)
    empty = Graph(0, [])
    for h in (empty, complete_graph(1), circular_clique(5, 2)):
        assert hom_count(empty, h) == 1
        assert_count_matches_enumeration(empty, h)
    assert hom_count(complete_graph(1), empty) == 0
    assert hom_count(cycle_graph(5), complete_graph(3)) == 30


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_with_loops(5, min_n=0), graphs_with_loops(4, min_n=0))
def test_hom_count_matches_enumeration(g, h):
    assert_count_matches_enumeration(g, h)


def test_shift_period_values():
    # circular cliques, complete graphs and cycles, looped or not: period 1
    for h in (circular_clique(7, 2), circular_clique(13, 4), circular_clique(6, 2),
              complete_graph(4), complete_graph(4).with_all_loops(),
              cycle_graph(5), cycle_graph(8, reflexive=True)):
        assert _shift_period(h) == 1, h
    # C_5 drawn as the pentagram: the period comes from the rows, not a name
    assert _shift_period(Graph(5, [(v, (v + 2) % 5) for v in range(5)])) == 1
    # the matching 01/23/45 is fixed by shifts of 2 and 4 only
    assert _shift_period(Graph(6, [(0, 1), (2, 3), (4, 5)])) == 2
    assert _shift_period(Graph(6, [(0, 3), (1, 4), (2, 5), (0, 1), (3, 4)])) == 3
    assert _shift_period(Graph(8, [(0, 1), (4, 5), (2, 2), (6, 6)])) == 4
    # no shift symmetry: the path, a partial loop, an edgeless graph with one loop
    for h in (path_graph(4), Graph(3, [(0, 0)]), cycle_graph(6).delete_vertex(0),
              Graph(4, [(0, 0), (1, 1), (0, 1), (1, 2), (2, 3), (3, 3)])):
        assert _shift_period(h) == h.n, h
    # edgeless graphs and tiny ones
    assert [_shift_period(Graph(n, [])) for n in (0, 1, 2, 5)] == [0, 1, 1, 1]


def _symmetries(h):
    """The colour maps that ``homgraph.radius_centre`` builds its orbits
    from, the identity first: the shifts by multiples of ``_shift_period``
    and, when ``_reflection`` gives an axis a, c -> a - c after each."""
    n = h.n
    steps = range(0, n or 1, _shift_period(h) or 1)  # 0 on the empty graph
    maps = [tuple((c + t) % n for c in range(n)) for t in steps]
    a = _reflection(h)
    if a is not None:
        # on one or two colours a reflection may be a shift
        maps += [tuple((a + t - c) % n for c in range(n)) for t in steps]
    return list(dict.fromkeys(maps))


def test_symmetries_are_automorphisms():
    """Every shift by a multiple of ``_shift_period`` and every reflection
    through ``_reflection``'s axis is a bijection keeping every edge and
    non-edge, loops included; the identity comes first, the maps form a
    group, and there are n/d of them, or 2n/d with the reflections."""
    targets = [circular_clique(7, 2), circular_clique(9, 2), complete_graph(4),
               cycle_graph(6, reflexive=True), path_graph(4), Graph(0),
               Graph(6, [(0, 1), (2, 3), (4, 5)]),
               Graph(6, [(0, 3), (1, 4), (2, 5), (0, 1), (3, 4)]),
               Graph(8, [(0, 1), (4, 5), (2, 2), (6, 6)]),
               Graph(6, [(0, 2), (2, 4), (4, 0), (0, 1), (2, 3), (4, 5)])]
    sizes = []
    for h in targets + iso_reps(4, loops=True):
        maps = _symmetries(h)
        assert maps[0] == tuple(range(h.n))
        assert len(set(maps)) == len(maps)
        for s in maps:
            assert sorted(s) == list(range(h.n))
            assert all(h.has_edge(s[u], s[v]) == h.has_edge(u, v)
                       for u in range(h.n) for v in range(h.n)), (h.rows, s)
            for t in maps:
                assert tuple(s[c] for c in t) in maps
        d = _shift_period(h) or 1
        assert len(maps) in (h.n // d or 1, 2 * h.n // d)
        sizes.append(len(maps))
    # dihedral on G_{7,2}, G_{9,2}, K_4 and the reflexive C_6; the path
    # has its reversal; the matching and the shift-by-3 graph a reflection;
    # the last two have their shifts only
    assert sizes[:len(targets)] == [14, 18, 8, 12, 2, 1, 6, 4, 2, 3]


def test_iter_matches_enumerate():
    # iter_homs yields image tuples in backtracking order
    g = cycle_graph(4)
    h = circular_clique(5, 2)
    assert sorted(iter_homs(g, h)) == list(enumerate_homs(g, h).images)


def test_search_yields_one_shape():
    # every search yields the image, then the mask of each unbranched level
    # in level order: bare images when it branches on every level
    for g in iso_reps(3, loops=True):
        plain, box_src = _Source(g, _search_order(g)), _box_source(g)
        flagged = [w for w, c in zip(box_src.order, box_src.boxes) if c]
        assert not any(plain.boxes) and flagged
        for h in iso_reps(3, loops=True):
            images = list(_search(plain, h, [0] * g.n))
            assert all(len(im) == g.n for im in images)
            assert sorted(images) == naive_homs(g, h)
            members = []
            for box in _search(box_src, h, [0] * (g.n + len(flagged))):
                assert len(box) == g.n + len(flagged) and all(box[g.n:])
                for colours in itertools.product(*map(_bits, box[g.n:])):
                    member = list(box[:g.n])
                    for w, c in zip(flagged, colours):
                        member[w] = c
                    members.append(tuple(member))
            assert sorted(members) == naive_homs(g, h)


N = DEFAULT_MAX_VERTICES
LIMIT_GRAPHS = {
    "path": path_graph(N),
    "even cycle": cycle_graph(N),
    "star": Graph(N, [(0, v) for v in range(1, N)]),
}


@pytest.mark.parametrize("name", sorted(LIMIT_GRAPHS))
def test_searches_at_the_vertex_limit(name):
    g = LIMIT_GRAPHS[name]
    k2, k3 = complete_graph(2), complete_graph(3)
    # connected and bipartite: exactly the two proper 2-colourings
    space = enumerate_homs(g, k2)
    assert space.count == 2
    assert sorted(iter_homs(g, k2)) == space.images
    verdict = is_mixing(g, k2)
    assert (verdict.hom_count, verdict.class_count) == (2, 2)
    # more than 2^2047 proper 3-colourings: the cap stops the first box
    with pytest.raises(CapExceededError):
        enumerate_homs(g, k3)
    with pytest.raises(CapExceededError):
        hom_count(g, k3)

    least = first_hom(g, k3).image
    if name == "star":
        assert least == (0,) + (1,) * (N - 1)
    else:
        assert least == (0, 1) * (N // 2)
    pinned = extend(PrecolouringInstance(g, k3, ((N - 1, 2),)))
    assert pinned.status == "Extended"
    assert pinned.extension.image == least[:-1] + (2,)


def test_identity_and_compose():
    g = cycle_graph(5)
    ident = identity_hom(g)
    assert is_hom(g, g, ident.image)
    f = first_hom(g, complete_graph(3))
    assert compose(ident, f).image == f.image
    rot = Hom(5, 5, (1, 2, 3, 4, 0))
    assert compose(rot, f).image == tuple(f.image[rot.image[v]] for v in range(5))


def test_hom_validation():
    with pytest.raises(ValueError):
        Hom(3, 2, (0, 1))
    with pytest.raises(ValueError):
        Hom(2, 2, (0, 5))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 99), min_size=0, max_size=8))
def test_image_format_round_trip(values):
    assert parse_image(format_image(tuple(values))) == tuple(values)
