"""Named graphs shared from one bounded cache, and the facts each graph
keeps about its rows: both must give exactly what a fresh build gives."""

from math import gcd
from unittest import mock

import pytest

from circmix import graphs, homgraph, homs
from circmix.circular import mixing_scan
from circmix.cli import main
from circmix.fixtures import gadget_g62x
from circmix.graphs import (Graph, _bits, circular_clique, complete_graph,
                            cycle_graph, extension_product, path_graph,
                            tensor_product, write_graph)
from circmix.homgraph import components, is_mixing
from circmix.homs import hom_count
from circmix.winding import check_certificate, nonmixing_certificate

from helpers import iso_reps

CLIQUES = [(k, q) for q in range(1, 8) for k in range(2 * q, 15)]


def _edges_of_circular_clique(k, q):
    return [(i, j) for i in range(k) for j in range(i + 1, k) if q <= j - i <= k - q]


def test_named_graphs_are_shared_and_equal_fresh_builds():
    for k, q in CLIQUES:
        g = circular_clique(k, q)
        assert circular_clique(k, q) is g
        fresh = Graph(k, _edges_of_circular_clique(k, q))
        assert g == fresh and g.name == f"G_{{{k},{q}}}"
    for r in range(1, 9):
        g = complete_graph(r)
        assert complete_graph(r) is g
        assert g == Graph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
        assert g.name == f"K_{r}"
    g = gadget_g62x()
    assert gadget_g62x() is g and g.name == "g62x"
    assert g == Graph(7, _edges_of_circular_clique(6, 2)
                      + [(0, 6), (1, 6), (4, 6), (5, 6)])


def test_order_limit_is_checked_on_every_call(monkeypatch):
    circular_clique(9, 2), complete_graph(9), gadget_g62x()
    c5, p3000, k100 = cycle_graph(5), path_graph(3000), complete_graph(100)
    monkeypatch.setenv("CIRCMIX_MAX_N", "6")
    for build, n in ((lambda: circular_clique(9, 2), 9), (lambda: complete_graph(9), 9),
                     (gadget_g62x, 7), (lambda: extension_product(c5, p3000), 15000),
                     (lambda: tensor_product(k100, k100), 10000)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"vertex count {n} exceeds the configured limit 6"
    assert complete_graph(6) is complete_graph(6)


def test_order_limit_and_bad_specs_through_the_cli(capsys, monkeypatch):
    def run(spec):
        code = main(["mixing", "--graph", spec, "--target", "clique:3"])
        return code, capsys.readouterr().err

    for spec in ("clique:7", "gadget:g62x", "circ:7/2"):
        assert run(spec)[0] in (0, 3)
    monkeypatch.setenv("CIRCMIX_MAX_N", "5")
    assert run("clique:7") == (
        1, "error: bad graph spec 'clique:7': vertex count 7 exceeds the configured limit 5\n")
    assert run("gadget:g62x") == (
        1, "error: vertex count 7 exceeds the configured limit 5\n")
    assert run("circ:7/2") == (
        1, "error: bad graph spec 'circ:7/2': vertex count 7 exceeds the configured limit 5\n")
    monkeypatch.delenv("CIRCMIX_MAX_N")
    bad = {
        "circ:5/3": "circular clique needs k >= 2q >= 2, got (5, 3)",
        "circ:0/0": "circular clique needs k >= 2q >= 2, got (0, 0)",
        "circ:x/3": "invalid literal for int() with base 10: 'x'",
        "clique:0": "complete graph needs at least one vertex",
        "clique:-2": "complete graph needs at least one vertex",
        "clique:two": "invalid literal for int() with base 10: 'two'",
    }
    for _ in range(2):  # a refused spec is not cached either
        for spec, text in bad.items():
            assert run(spec) == (1, f"error: bad graph spec {spec!r}: {text}\n")


def test_named_graph_cache_stays_at_its_bound():
    bound = graphs._shared.cache_info().maxsize
    assert bound == 32
    graphs._shared.cache_clear()
    built = [complete_graph(r) for r in range(1, bound + 10)]
    assert graphs._shared.cache_info().currsize == bound
    assert complete_graph(bound + 9) is built[-1]
    assert complete_graph(1) is not built[0] and complete_graph(1) == built[0]


def _fields(src):
    return (src.graph, src.order, src.looped, src.earlier, src.fixed, src.boxes)


def _box_source_afresh(g, loops):
    """The box source as built before sources were kept on the graph."""
    order = homs._box_order(g)
    flags = [c and (loops or not g.has_loop(w))
             for w, c in zip(order, homs._closed(g, order))]
    boxes, k = [], g.n
    for c in flags:
        boxes.append(k if c else 0)
        k += bool(c)
    return homs._Source(g, order, boxes)


def test_kept_sources_equal_fresh_builds():
    for g in iso_reps(5, loops=True):
        mask = sum(1 << v for v in range(g.n) if g.rows[v] >> v & 1)
        for _ in range(2):
            assert graphs._loop_mask(g) == graphs._loop_mask.__wrapped__(g) == mask
            assert (g.reflexive_mask(), g.is_loop_free) == (mask, not mask)
        for loops in (True, False):
            kept = homs._box_source(g, loops)
            assert homs._box_source(g, loops) is kept
            assert _fields(kept) == _fields(_box_source_afresh(g, loops))
        kept = homs._search_source(g)
        assert homs._search_source(g) is kept
        assert _fields(kept) == _fields(homs._Source(g, homs._search_order(g)))


def _join_plan_afresh(g, boxed):
    """The plan ``homgraph._join`` worked out on each call before it was
    kept: slots, free vertices, and per free vertex w its boxed
    neighbours' slots, the size of its free neighbourhood, and the other
    free vertices, those of its free neighbourhood first."""
    slot = {v: j for j, v in enumerate(boxed)}
    free = [v for v in range(g.n) if v not in slot]
    near = [[slot[u] for u in g.neighbours(w) if u in slot] for w in free]
    around = [sorted({x for u in g.neighbours(w)
                      for x in (g.neighbours(u) if u in slot else (u,))}
                     .intersection(free) - {w}) for w in free]
    others = [a + [x for x in free if x != w and x not in a] for w, a in zip(free, around)]
    return slot, free, near, [len(a) for a in around], others


def test_kept_join_plans_equal_fresh_builds():
    h = complete_graph(2)
    for g in iso_reps(5, loops=True):
        plans = homgraph._join_plans(g)
        assert homgraph._join_plans(g) is plans
        want = {}
        for loops in (True, False):
            boxed = homs._boxes(homs._box_source(g, loops), h)[0]
            want[tuple(boxed)] = _join_plan_afresh(g, boxed)
        assert {boxed: tuple(plan) for boxed, plan in plans.items()} == want
        assert len(plans) == (1 if g.is_loop_free else len(want))


def test_a_scan_builds_one_join_plan():
    fracs = [(k, q) for q in range(1, 4) for k in range(2 * q, 8) if gcd(k, q) == 1]
    g = Graph(5, [(0, 4), (1, 2), (1, 3), (2, 3)])
    with mock.patch.object(homgraph, "_join_plan", wraps=homgraph._join_plan) as built, \
            mock.patch.object(homgraph, "_join", wraps=homgraph._join) as joined:
        report = mixing_scan(g, fracs)
        assert built.call_count == 1 and joined.call_count == 2
        assert [r.verdict for r in report.rows if r.class_count and r.class_count > 1] == \
            ["NotMixing", "NotMixing"]
        mixing_scan(g, fracs)
        components(g, circular_clique(7, 2), kind="homomorphism")
        assert built.call_count == 1 and joined.call_count == 5


def _symmetries_afresh(h):
    """The axis a of h's reflection c -> a - c, or None, worked out as
    before the symmetries were kept."""
    n, rows = h.n, h.rows
    for a in range(homs._shift_period.__wrapped__(h) or 1):
        flip = [(a - c) % n for c in range(n)]
        if all(rows[flip[c]] == sum(1 << flip[x] for x in _bits(rows[c]))
               for c in range(n)):
            return a
    return None


def test_kept_symmetries_equal_a_recomputation():
    targets = iso_reps(4, loops=True) + [circular_clique(k, q) for k, q in CLIQUES]
    for h in targets:
        for _ in range(2):
            assert homs._shift_period(h) == homs._shift_period.__wrapped__(h)
            assert homs._reflection(h) == homs._reflection.__wrapped__(h) \
                == _symmetries_afresh(h)


def test_an_equal_graph_under_another_name_reports_alike(capsys, tmp_path):
    twin = Graph.from_rows(complete_graph(3).rows, name="triangle")
    write_graph(twin, tmp_path / "t.graph")
    spec = f"file:{tmp_path / 't.graph'}"
    requests = [["components", "--target", "circ:7/2"],
                ["components", "--kind", "homomorphism", "--target", "clique:4"],
                ["mixing", "--target", "circ:7/3"],
                ["scan", "--fracs", "3/1,7/3,5/2,4/1,7/2"]]

    def answers(first, second):
        out = []
        for request in requests:
            for graph in (first, second):
                assert main([request[0], "--graph", graph, *request[1:]]) == 0
                # the scan names its graph
                out.append(capsys.readouterr().out.replace('"triangle"', '"K_3"'))
        return out

    for order in ((spec, "clique:3"), ("clique:3", spec)):
        out = answers(*order)
        assert out[0::2] == out[1::2]


def test_a_second_count_builds_no_source():
    g = cycle_graph(7)
    with mock.patch.object(homs, "_Source", wraps=homs._Source) as built:
        first = hom_count(g, circular_clique(5, 2))
        assert built.call_count == 1
        assert hom_count(g, circular_clique(5, 2)) == first
        is_mixing(g, complete_graph(3))
        components(g, complete_graph(3), kind="homomorphism")
        assert built.call_count == 1  # loop-free: one source for both kinds


def test_a_certificate_builds_its_clique_once(capsys, tmp_path):
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)], name="C_5+")
    write_graph(g, tmp_path / "g.graph")
    graphs._shared.cache_clear()
    with mock.patch.object(graphs, "_circular", wraps=graphs._circular) as built:
        cert = nonmixing_certificate(g, 7, 2)
        assert built.call_count == 1
        assert check_certificate(g, cert) and built.call_count == 1
        graphs._shared.cache_clear()
        assert main(["certify-nonmixing", "--graph", f"file:{tmp_path / 'g.graph'}",
                     "--frac", "5/2"]) == 0
        assert built.call_count == 2
    graphs._shared.cache_clear()
    capsys.readouterr()

