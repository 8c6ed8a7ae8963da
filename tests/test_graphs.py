"""Graph type, generators, parameters, and the text format."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circmix import graphs
from circmix.config import DEFAULT_MAX_VERTICES
from circmix.errors import CapExceededError, GraphFormatError
from circmix.extension import _distances_from
from circmix.fixtures import gadget_g62x
from circmix.graphs import (Graph, _bfs, are_isomorphic, canonical_key,
                            circular_clique, clique_number, colouring_number,
                            complete_graph, cycle_graph, degeneracy_order,
                            extension_product, format_graph,
                            frozen_regular_graph, is_bipartite, max_clique,
                            parse_graph, path_graph, read_graph,
                            shortest_odd_cycle, tensor_product)

from circmix.homs import (_search_order, chromatic_number,
                          circular_chromatic_number)

from helpers import (all_graphs, degeneracy_order_naive, distances_naive,
                     graph_texts, iso_reps, parse_graph_naive, random_graph,
                     search_order_naive, shortest_odd_cycle_naive,
                     vertex_components_naive)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 2)])
    assert g.has_edge(1, 0) and g.has_edge(2, 2)
    assert not g.has_edge(0, 2)
    assert g.neighbours(2) == [1, 2]
    assert g.loops() == [2]
    assert not g.is_loop_free
    assert list(g.delete_vertex(0).edges()) == [(0, 1), (1, 1)]
    assert g.induced([1, 2]).n == 2


def test_relabel_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, 6, loops=True)
        perm = list(range(6))
        rng.shuffle(perm)
        h = g.relabel(perm)
        inverse = [0] * 6
        for i, p in enumerate(perm):
            inverse[p] = i
        assert h.relabel(inverse) == g


def test_circular_clique_g62_edge_list():
    g = circular_clique(6, 2)
    assert sorted(g.edges()) == [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4),
                                 (1, 5), (2, 4), (2, 5), (3, 5)]


def test_circular_clique_no_silent_reduction():
    # (4,2) keeps all four vertices even though 4/2 reduces to 2/1
    g = circular_clique(4, 2)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 2), (1, 3)]
    with pytest.raises(ValueError):
        circular_clique(3, 2)  # k >= 2q required


def test_circular_clique_adjacency_definition():
    for k, q in [(5, 2), (7, 2), (7, 3), (9, 4), (11, 3)]:
        g = circular_clique(k, q)
        for i in range(k):
            for j in range(k):
                want = i != j and q <= (i - j) % k <= k - q
                assert g.has_edge(i, j) == want, (k, q, i, j)


def test_row_builders_match_their_definitions():
    """The named graphs are built from row masks; each equals the graph
    built edge by edge from its definition, name included."""
    for q in range(1, 7):
        for k in range(2 * q, 41):
            g = circular_clique(k, q)
            want = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)
                             if q <= j - i <= k - q])
            assert (g, g.name) == (want, f"G_{{{k},{q}}}"), (k, q)
    for r in range(1, 41):
        g = complete_graph(r)
        want = Graph(r, itertools.combinations(range(r), 2))
        assert (g, g.name) == (want, f"K_{r}"), r
    # G_{6,2} plus vertex 6 joined to 0, 1, 4 and 5
    g = gadget_g62x()
    want = Graph(7, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4),
                     (2, 5), (3, 5), (6, 0), (6, 1), (6, 4), (6, 5)])
    assert (g, g.name) == (want, "g62x")


def test_special_graphs():
    assert complete_graph(4).edge_count() == 6
    assert sorted(cycle_graph(5).edges()) == [(0, 1), (0, 4), (1, 2), (2, 3),
                                              (3, 4)]
    assert sorted(path_graph(3, reflexive=True).edges()) == [
        (0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
    assert are_isomorphic(circular_clique(5, 2), cycle_graph(5))


def test_frozen_regular_graph_shape():
    g = frozen_regular_graph(2, 2)
    assert g.n == 7
    # subgraph of the (7,2) clique on the same labels
    big = circular_clique(7, 2)
    assert all(big.has_edge(u, v) for u, v in g.edges())


def test_products_match_definition():
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(rng, 4, loops=True)
        h = random_graph(rng, 3, loops=True)
        t = tensor_product(g, h)
        x = extension_product(g, h)
        for a in range(4):
            for b in range(3):
                for a2 in range(4):
                    for b2 in range(3):
                        i, j = a * 3 + b, a2 * 3 + b2
                        assert t.has_edge(i, j) == (
                            g.has_edge(a, a2) and h.has_edge(b, b2))
                        assert x.has_edge(i, j) == (
                            g.has_edge(a, a2) and (b == b2 or h.has_edge(b, b2)))


def test_degeneracy_and_colouring_number():
    col, order = degeneracy_order(complete_graph(4))
    assert col == 4 and sorted(order) == [0, 1, 2, 3]
    assert colouring_number(complete_graph(4)) == 4
    assert colouring_number(cycle_graph(6)) == 3
    assert colouring_number(path_graph(5)) == 2
    # greedy check: each vertex has at most col-1 earlier neighbours
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, 7)
        col, order = degeneracy_order(g)
        seen = set()
        worst = 0
        for v in order:
            worst = max(worst, sum(1 for u in g.neighbours(v) if u in seen))
            seen.add(v)
        assert worst == col - 1


def test_degeneracy_order_matches_naive_scan():
    assert degeneracy_order(Graph(0)) == degeneracy_order_naive(Graph(0)) == (0, [])
    assert colouring_number(Graph(0)) == chromatic_number(Graph(0)) == 0
    rng = random.Random(12)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), p=rng.random(),
                         loops=rng.random() < 0.5)
        assert degeneracy_order(g) == degeneracy_order_naive(g), g


def test_clique_and_chromatic():
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(cycle_graph(5)) == 2
    assert sorted(max_clique(circular_clique(6, 2))) == [0, 2, 4]
    # one search level per clique vertex, far past the recursion limit
    assert max_clique(complete_graph(1100)) == list(range(1100))
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, 7, p=0.6)
        cliques = [list(c) for r in range(1, 8)
                   for c in itertools.combinations(range(7), r)
                   if all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2))]
        size = max(len(c) for c in cliques)
        assert max_clique(g) == min(c for c in cliques if len(c) == size)
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle_graph(6)) == 2


def test_circular_chromatic_number():
    assert circular_chromatic_number(cycle_graph(5)) == Fraction(5, 2)
    assert circular_chromatic_number(cycle_graph(7)) == Fraction(7, 3)
    assert circular_chromatic_number(complete_graph(4)) == 4
    assert circular_chromatic_number(cycle_graph(6)) == 2
    assert circular_chromatic_number(Graph(0)) == 0
    assert circular_chromatic_number(Graph(3)) == 1
    for max_q in (0, -2):  # no fraction is left to try
        with pytest.raises(ValueError, match=f"max_q must be at least 1, got {max_q}"):
            circular_chromatic_number(cycle_graph(5), max_q=max_q)


def test_bipartite_and_odd_cycle():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert shortest_odd_cycle(cycle_graph(6)) is None
    cyc = shortest_odd_cycle(cycle_graph(5))
    assert len(cyc) == 5
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert shortest_odd_cycle(g) == [0, 1, 2]


def test_odd_cycle_search_stops_at_the_best_depth(monkeypatch):
    # a triangle with a path tail: once the triangle is found, each later
    # start expands its first two layers only, at most 1 + deg(s) pairs,
    # where a search to full depth from every start expands about 2n² pairs
    n = 200
    g = Graph(n, [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, n - 1)])
    expanded = []
    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", lambda starts, neighbours, *rest: bfs(
        starts, lambda x: expanded.append(x) or neighbours(x), *rest))
    assert shortest_odd_cycle(g) == [0, 1, 2]
    assert len(expanded) <= 2 * n + 2 * g.edge_count()


def test_generators_check_the_vertex_limit_first():
    # every edge list just over the limit would take megabytes; K_4097
    # alone has 8.4M edges
    over = DEFAULT_MAX_VERTICES + 1
    for build in (lambda: complete_graph(over), lambda: circular_clique(over, 1),
                  lambda: circular_clique(over, 3), lambda: cycle_graph(over, True),
                  lambda: path_graph(over, True),
                  lambda: frozen_regular_graph(over - 1, 1),
                  lambda: parse_graph(f"p {over}\n")):
        tracemalloc.start()
        try:
            with pytest.raises((ValueError, GraphFormatError), match="exceeds"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_bfs_layers_parents_and_cap():
    adjacency = {5: [1, 3], 0: [2, 1], 1: [4], 3: [4, 0], 2: [], 4: []}
    steps = [(list(layer), dict(parent))
             for layer, parent in _bfs([5, 0], adjacency.__getitem__)]
    assert steps == [
        ([5, 0], {5: None, 0: None}),
        ([1, 3, 2], {5: None, 0: None, 1: 5, 3: 5, 2: 0}),
        ([4], {5: None, 0: None, 1: 5, 3: 5, 2: 0, 4: 1}),
    ]
    # the cap is checked after each expansion: 5 reaches the fourth vertex,
    # 0 the fifth, 1 the sixth, and nothing a seventh
    for cap, expanded in ((3, [5]), (4, [5, 0]), (5, [5, 0, 1])):
        calls = []

        def neighbours(x):
            calls.append(x)
            return adjacency[x]

        with pytest.raises(CapExceededError,
                           match=rf"budget of {cap} exceeded \(lost\)"):
            list(_bfs([5, 0], neighbours, cap, "lost"))
        assert calls == expanded
    assert len(list(_bfs([5, 0], adjacency.__getitem__, 6))) == 3


def _tied_odd_cycles(rng):
    """Graphs holding several shortest odd cycles of one length, as given
    and randomly relabelled, so that the tie-break decides the answer."""
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    prism = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                  + [(i, i + 5) for i in range(5)])
    bowtie = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    two_pentagons = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    wheel = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(7, i) for i in range(7)])
    theta = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (0, 5), (5, 6), (6, 3)])
    out = []
    for g in (petersen, prism, bowtie, two_pentagons, wheel, theta,
              complete_graph(4), complete_graph(5), circular_clique(7, 2)):
        out.append(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(g.relabel(perm))
    return out


def test_traversals_match_naive():
    rng = random.Random(9)
    graphs = iso_reps(5) + iso_reps(4, loops=True) + [
        random_graph(rng, rng.randint(1, 12), p=rng.random(), loops=True)
        for _ in range(500)]
    # long odd and even cycles relabelled v -> 3v, and tied shortest cycles
    graphs += [Graph(n, [(3 * i % n, 3 * (i + 1) % n) for i in range(n)])
               for n in range(3, 42) if n % 3]
    graphs += _tied_odd_cycles(rng)
    for g in graphs:
        assert g.components() == vertex_components_naive(g)
        assert _search_order(g) == search_order_naive(g)
        loop_free = Graph.from_rows([r & ~(1 << v) for v, r in enumerate(g.rows)])
        odd = shortest_odd_cycle_naive(loop_free)
        assert shortest_odd_cycle(loop_free) == odd
        assert is_bipartite(loop_free) == (odd is None)
        assert is_bipartite(g) == (g.is_loop_free and odd is None)
        sources = rng.sample(range(g.n), rng.randint(0, min(3, g.n)))
        assert _distances_from(g, sources) == distances_naive(g, sources)


def test_canonical_key_invariance():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, 6, loops=True)
        perm = list(range(6))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(g.relabel(perm))
    assert canonical_key(path_graph(3)) != canonical_key(complete_graph(3))


def test_are_isomorphic_counts_small_classes():
    keys = {canonical_key(g) for g in all_graphs(3)}
    assert len(keys) == 4  # loop-free classes on three vertices
    keys = {canonical_key(g) for g in all_graphs(4)}
    assert len(keys) == 11


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6), st.booleans())
def test_format_parse_round_trip(n, seed, loops):
    g = random_graph(random.Random(seed), n, loops=loops)
    assert parse_graph(format_graph(g)) == g


def test_read_graph_takes_every_line_ending(tmp_path):
    text = "c tri angle\np 4\n\ne 0 1\ne 2 1\n  e 2 0  \ne 3 3\n"
    want = parse_graph(text)
    assert want.name == "tri angle"
    for i, ending in enumerate(("\n", "\r\n", "\r")):
        path = tmp_path / f"g{i}.graph"
        path.write_bytes(text.replace("\n", ending).encode())
        got = read_graph(path)
        assert (got, got.name) == (want, want.name), repr(ending)
    bad = tmp_path / "mixed.graph"
    bad.write_bytes(b"p 2\r\ne 0 1\re 1 0\n")
    with pytest.raises(GraphFormatError, match="line 3: duplicate edge"):
        read_graph(bad)


def test_parse_reads_rows_and_rejects_duplicates():
    g = parse_graph("c tri\np 3\n\ne 0 1\ne 2 1\ne 2 2\n")
    assert (g.name, g.rows) == ("tri", (0b010, 0b101, 0b110))
    for text, line in (("p 3\ne 0 1\ne 1 0\n", "line 3: duplicate edge (1, 0)"),
                       ("p 3\ne 2 2\nc x\ne 2 2\n", "line 4: duplicate edge (2, 2)")):
        with pytest.raises(GraphFormatError, match=re.escape(line)):
            parse_graph(text)


def read_outcome(parse, text, limit, bulk=graphs._BULK):
    """``(n, rows, name)`` of the graph ``parse`` reads, or the error text,
    under the vertex limit ``limit`` (None for the default), reading texts
    of ``bulk`` or more characters in bulk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_BULK", bulk)
        if limit is not None:
            mp.setenv("CIRCMIX_MAX_N", str(limit))
        try:
            g = parse(text)
        except GraphFormatError as e:
            return str(e)
    return g.n, g.rows, g.name


@settings(max_examples=400, deadline=None)
@given(graph_texts())
@example(("c a b\np 3\ne 0 1\ne 1 1\n", None))
@example(("c x\np 3\ne 0 1\ne 1 0\n", None))
@example(("p 3\ne 0 3\n", None))
@example(("p 03\ne 0 1\n", None))
@example(("p 3\ne 1 02\n", None))
@example(("p 3\ne 0 1\ne 1 2", None))
@example(("p 30\ne21 0 1\n", None))
@example(("p 30\ne 1 2\ne21 0 1\n", None))
@example(("p 30\ne 1 2\ne 1 23", None))
@example(("p 3000\ne 1 2e3\n", None))
@example(("p 3\ne 0 1\n", 2))
@example(("c  \np 2\ne 0 1\n", None))
@example(("p 1\n" + "e 0 " + "9" * 5000 + "\n", None))
@example(("p " + "9" * 5000 + "\n", None))
def test_bulk_reader_matches_the_line_reader(drawn):
    """The bulk read of ``format_graph``'s form gives the line reader's
    rows and name, or its error text, on drawn texts and mutations, also
    where the texts are too short for it to be tried."""
    text, limit = drawn
    want = read_outcome(parse_graph_naive, text, limit)
    assert read_outcome(parse_graph, text, limit) == want
    assert read_outcome(parse_graph, text, limit, bulk=0) == want


def test_parse_rejects_garbage():
    over = DEFAULT_MAX_VERTICES + 1
    with pytest.raises(GraphFormatError, match=f"line 2: vertex count {over} exceeds"):
        parse_graph(f"c big\np {over}\ne 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 2\ne 0 5\n")
    with pytest.raises(GraphFormatError):
        parse_graph("e 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p x\n")
    for text, message in [("p 3\ne 0\n", "line 2: edge needs two endpoints"),
                          ("p 3\ne 0 1 2\n", "line 2: edge needs two endpoints"),
                          ("p -1\n", "line 1: negative vertex count"),
                          ("c named\n\n", "missing p line")]:
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text)
