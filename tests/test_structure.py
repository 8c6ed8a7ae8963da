"""Folds, stiff terminals, rigidity, cores, and self-mixing."""

import random

import pytest
from hypothesis import given, settings

from circmix import structure
from circmix.graphs import (Graph, are_isomorphic, complete_graph,
                            cycle_graph, extension_product, path_graph)
from circmix.homgraph import components
from circmix.homs import Hom, identity_hom, is_hom
from circmix.structure import (apply_fold, core_of, find_fold, is_dismantlable,
                               is_retraction, is_rigid, make_fold, self_mixing,
                               stiff_reduction)

from helpers import (fold_pairs_naive, graphs_with_loops, is_rigid_naive,
                     iso_reps, random_graph, stiff_reduction_naive)


def reflexive_path(n):
    return path_graph(n, reflexive=True)


def test_find_fold_least_pair_on_c4():
    step = find_fold(cycle_graph(4))
    assert (step.removed, step.absorber) == (0, 2)
    after = apply_fold(cycle_graph(4), step)
    assert sorted(after.edges()) == [(0, 1), (1, 2)]


def test_make_fold_validates():
    g = cycle_graph(5)
    assert find_fold(g) is None  # five-cycles are stiff
    with pytest.raises(ValueError):
        make_fold(g, 0, 2)
    with pytest.raises(ValueError):
        make_fold(g, 0, 0)
    with pytest.raises(ValueError):
        make_fold(g, 0, 9)


def test_fold_map_is_homomorphism():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, 6, p=0.6, loops=rng.random() < 0.4)
        step = find_fold(g)
        if step is None:
            continue
        image = tuple(step.absorber if v == step.removed else v
                      for v in range(g.n))
        assert is_hom(g, g, image)


def test_stiff_terminals():
    red = stiff_reduction(cycle_graph(4))
    assert are_isomorphic(red.terminal, complete_graph(2))
    tree = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    assert are_isomorphic(stiff_reduction(tree).terminal, complete_graph(2))
    red = stiff_reduction(reflexive_path(3))
    assert [(s.removed, s.absorber) for s in red.steps] == [(0, 1), (0, 1)]
    assert red.terminal.n == 1 and red.terminal.has_loop(0)
    assert find_fold(cycle_graph(6)) is None


def random_fold_terminal(g, rng):
    """Fold a uniformly chosen available pair until none remains."""
    while folds := fold_pairs_naive(g):
        g = apply_fold(g, make_fold(g, *rng.choice(folds)))
    return g


def test_stiff_terminal_independent_of_fold_order():
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(15):
            g = random_graph(rng, 6, p=0.5, loops=rng.random() < 0.3)
            base = stiff_reduction(g).terminal
            for pick in (10, 20):
                other = random_fold_terminal(g, random.Random(pick))
                assert are_isomorphic(base, other)


def assert_matches_naive_reduction(g):
    steps, terminal = stiff_reduction_naive(g)
    red = stiff_reduction(g)
    assert [(s.removed, s.absorber) for s in red.steps] == steps
    assert red.terminal == terminal
    first = find_fold(g)
    assert steps[:1] == ([] if first is None else [(first.removed, first.absorber)])


def test_stiff_reduction_matches_naive_scan():
    for g in iso_reps(4, loops=True) + iso_reps(5):
        assert_matches_naive_reduction(g)
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), p=rng.random(),
                         loops=rng.random() < 0.5)
        assert_matches_naive_reduction(g)


def fold_workload_graphs(rng, n):
    """A random tree, a reflexive cop-win graph and a reflexive 8-cycle
    with pendant trees on n vertices, built as the benchmark's fold
    requests build them."""
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    adj = [{0}]  # cop-win: each new closed neighbourhood within an earlier one's
    for v in range(1, n):
        u = rng.randrange(v)
        near = sorted(adj[u])
        picks = {u} | set(rng.sample(near, min(len(near), rng.randint(0, 2))))
        adj.append({v} | picks)
        for w in picks:
            adj[w].add(v)
    copwin = {(min(u, v), max(u, v)) for v in range(n) for u in adj[v]}
    cycle = [(v, (v + 1) % 8) for v in range(8)] + [(rng.randrange(v), v) for v in range(8, n)]
    return [Graph(n, edges) for edges in (tree, copwin, cycle + [(v, v) for v in range(n)])]


def test_stiff_reduction_matches_naive_scan_at_size():
    rng = random.Random(47)
    for seed in range(10):
        for g in fold_workload_graphs(random.Random(seed), rng.randint(40, 60)):
            perm = list(range(g.n))
            rng.shuffle(perm)
            for h in (g, g.relabel(perm)):
                assert_matches_naive_reduction(h)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_with_loops())
def test_reduction_and_dismantlability_match_naive(g):
    assert_matches_naive_reduction(g)
    verdict = is_dismantlable(g)
    terminal = verdict.reduction.terminal
    assert verdict.dismantlable == verdict.reduction.terminal_is_rigid \
        == is_rigid_naive(terminal) == is_rigid(terminal)
    if verdict.witness_endo is not None:
        assert verdict.witness_endo.image != tuple(range(terminal.n))
        assert is_hom(terminal, terminal, verdict.witness_endo.image)


class CountedRows(tuple):
    """Adjacency rows that count how often they are read."""

    reads = 0

    def __getitem__(self, v):
        CountedRows.reads += 1
        return tuple.__getitem__(self, v)


def test_stiff_reduction_at_the_vertex_limit():
    n = 4096
    order = [n - 1, *range(n - 1)]  # a path whose ends carry the largest labels
    rng = random.Random(43)
    cases = [(path_graph(n), {(0, 2)}),
             (Graph(n, [(0, v) for v in range(1, n)]), {(1, 2)}),  # a star
             (Graph(n, zip(order, order[1:])), None),
             (Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]), None)]
    for g, pairs in cases:
        counted = Graph.from_rows(g.rows)
        counted.rows = CountedRows(g.rows)
        CountedRows.reads = 0
        red = stiff_reduction(counted)
        assert len(red.steps) == n - 2 and red.terminal == complete_graph(2)
        assert pairs in (None, {(s.removed, s.absorber) for s in red.steps})
        # O(n + m) absorber tests on a tree, each reading a few rows; a
        # rescan from vertex 0 after each fold would read about n²/2
        assert CountedRows.reads <= 6 * n
        assert find_fold(g) == red.steps[0]


def test_rigidity():
    assert is_rigid(complete_graph(1))
    assert is_rigid(Graph(1, [(0, 0)]))
    assert not is_rigid(complete_graph(2))
    assert not is_rigid(path_graph(3))
    assert not is_rigid(cycle_graph(5))  # rotations


def test_dismantlable_examples():
    assert is_dismantlable(reflexive_path(3)).dismantlable
    assert is_dismantlable(complete_graph(1)).dismantlable
    for g in (cycle_graph(4), cycle_graph(5), complete_graph(3), path_graph(3)):
        verdict = is_dismantlable(g)
        assert not verdict.dismantlable
        w = verdict.witness_endo
        assert w.image != tuple(range(verdict.reduction.terminal.n))
        assert is_hom(verdict.reduction.terminal, verdict.reduction.terminal,
                      w.image)


def test_core_examples():
    result = core_of(cycle_graph(6))
    assert result.vertices == (0, 1)
    assert are_isomorphic(result.core, complete_graph(2))
    pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    result = core_of(pendant)
    assert result.vertices == (0, 1, 2)
    assert are_isomorphic(result.core, complete_graph(3))
    assert core_of(cycle_graph(5)).vertices == (0, 1, 2, 3, 4)


def test_core_of_stops_at_a_clique_sized_image(monkeypatch):
    drawn = 0
    search = structure.iter_homs

    def counting(*args):
        nonlocal drawn
        for image in search(*args):
            drawn += 1
            yield image

    monkeypatch.setattr(structure, "iter_homs", counting)
    ladder = extension_product(complete_graph(2), path_graph(7))
    assert core_of(ladder).vertices == (0, 7)
    assert drawn == 2  # one per round: the ladder onto an edge, then the edge


def test_core_of_early_stop_keeps_the_full_walk_choice(monkeypatch):
    rng = random.Random(29)
    graphs = [random_graph(rng, rng.randint(1, 8), p=rng.random(),
                           loops=rng.random() < 0.3) for _ in range(80)]
    early = [core_of(g) for g in graphs]
    monkeypatch.setattr(structure, "_image_floor", lambda g, cap: 0)  # never stop
    assert [core_of(g) for g in graphs] == early


def test_core_certificates_and_idempotence():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, 6, p=0.5, loops=rng.random() < 0.3)
        result = core_of(g)
        assert is_retraction(result.retraction, result.section, g, result.core)
        again = core_of(result.core)
        assert again.core == result.core  # cores are their own cores


def test_is_retraction_checks():
    g = cycle_graph(6)
    small = complete_graph(2)
    r = Hom(6, 2, (0, 1, 0, 1, 0, 1))
    s = Hom(2, 6, (0, 1))
    assert is_retraction(r, s, g, small)
    assert not is_retraction(Hom(6, 2, (0, 1, 0, 1, 1, 1)), s, g, small)
    with pytest.raises(ValueError):
        is_retraction(r, Hom(2, 5, (0, 1)), g, small)


def test_self_mixing_table():
    table = {
        reflexive_path(3): True,
        path_graph(3): False,
        complete_graph(3): False,
        complete_graph(1): True,
        Graph(2, [(0, 0), (1, 1)]): False,
        cycle_graph(4): False,
    }
    for g, want in table.items():
        result = self_mixing(g)
        assert result.mixing == want
        assert result.method == "dismantlability+components"
    # past the cap, the component count is skipped
    for g, cap, want in ((complete_graph(3), 5, False), (reflexive_path(3), 2, True)):
        assert self_mixing(g, cap) == (want, "dismantlability")


def test_self_mixing_agrees_with_components_on_small_graphs():
    # the cross-check inside self_mixing raises if the two methods disagree
    for g in iso_reps(3, loops=True):
        verdict = self_mixing(g)
        report = components(g, g, kind="homomorphism")
        assert verdict.mixing == (report.class_count == 1)
