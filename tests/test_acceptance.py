"""Acceptance gate: one test per shipped guarantee.

Each test exercises one headline behaviour end to end at the documented
budget (ten million enumerated homomorphisms).  The suite is slower than
the unit tests and is meant to be read as a checklist: the `pytest -v`
output gives one pass/fail line per criterion.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from circmix import homgraph
from circmix.circular import (delete_vertex_dismantle, is_flexible,
                              lower_parent, lower_parent_bound,
                              scale_retraction)
from circmix.errors import RingHypothesisError
from circmix.extension import (PrecolouringInstance, core_ext_radius_bound,
                               extend, greedy_ring_extension,
                               layered_extension_check)
from circmix.fixtures import gadget_g62x
from circmix.graphs import (Graph, circular_clique, clique_number,
                            colouring_number, complete_graph, cycle_graph,
                            degrees, extension_product, frozen_regular_graph,
                            is_bipartite, path_graph)
from circmix.homgraph import components, is_frozen, is_mixing, recolour_neighbours
from circmix.homs import Hom, enumerate_homs, iter_homs
from circmix.structure import (apply_fold, is_dismantlable, is_retraction,
                               self_mixing, stiff_reduction)
from circmix.winding import (check_certificate, cycle_trace,
                             nonmixing_certificate, reflect_colouring)

from helpers import (hom_graph, idempotent_endos, radius_centre_naive,
                     iso_reps, naive_homs, random_graph, retract_from_endo)

CAP = 10 ** 7


def verdict(g, k, q):
    """is_mixing's status with the mixing theorems off: the criteria below
    check those theorems, so the boxes and their join decide.  A pair the
    theorems cover is then joined, which shows that the rule is off where
    is_mixing looks it up."""
    covered = homgraph._theorem_covers(g, (k, q))
    with mock.patch.object(homgraph, "_theorem_covers", return_value=False), \
            mock.patch.object(homgraph, "_join", wraps=homgraph._join) as join:
        status = is_mixing(g, circular_clique(k, q), cap=CAP).status
    assert join.called or not covered, (g.rows, k, q)
    return status


def test_criterion_01():
    """An edge mixes at exactly the fractions above two."""
    k2 = complete_graph(2)
    checked = 0
    for q in range(1, 5):
        for k in range(2 * q, 11):
            if math.gcd(k, q) != 1:
                continue
            status = verdict(k2, k, q)
            assert status != "no_colourings"
            assert (status == "mixing") == (Fraction(k, q) > 2), (k, q)
            checked += 1
    assert checked == 16


def test_criterion_02():
    """Cliques stop mixing strictly below r+1 and mix from r+1 on."""
    cases = [(3, 3, 1, "not_mixing"), (3, 7, 2, "not_mixing"),
             (3, 4, 1, "mixing"), (3, 5, 1, "mixing"), (3, 9, 2, "mixing"),
             (4, 4, 1, "not_mixing"), (4, 9, 2, "not_mixing"),
             (4, 5, 1, "mixing")]
    for r, k, q, want in cases:
        assert verdict(complete_graph(r), k, q) == want, (r, k, q)


def test_criterion_03():
    """Even and odd cycles mix exactly where the degree bound says."""
    cases = [(4, 5, 2, "mixing"),
             (5, 7, 2, "not_mixing"), (5, 11, 3, "not_mixing"),
             (5, 9, 2, "mixing"),
             (6, 3, 1, "not_mixing"), (6, 7, 2, "not_mixing"),
             (6, 5, 2, "mixing")]
    for r, k, q, want in cases:
        assert verdict(cycle_graph(r), k, q) == want, (r, k, q)


def test_criterion_04():
    """Every six-cycle colouring at 5/2 splits its steps three and three."""
    g = cycle_graph(6)
    images = list(iter_homs(g, circular_clique(5, 2), CAP))
    assert images
    for im in images:
        trace = cycle_trace(Hom(6, 5, im), range(6), g, 5, 2)
        assert len(trace.step_indices(2)) == 3
        assert len(trace.step_indices(3)) == 3


def test_criterion_05():
    """The tight 2-regular subgraph of G_{7,2} is frozen and inflexible."""
    f22 = frozen_regular_graph(2, 2)
    target = circular_clique(7, 2)
    assert is_frozen(Hom(7, 7, tuple(range(7))), f22, target)
    report = components(f22, target, kind="colour", cap=CAP)
    assert report.class_count >= 2
    assert not is_flexible(f22, 7, 2, cap=CAP).flexible


def test_criterion_06():
    """Winding totals: fixture values, divisibility, constancy per class,
    and, on C_6 -> G_{7,2}, one class per total with none frozen."""
    g = cycle_graph(6)
    k, q = 7, 2
    target = circular_clique(k, q)
    fixture = Hom(6, k, (0, 2, 4, 6, 1, 3))
    walk = tuple(range(6))
    t = cycle_trace(fixture, walk, g, k, q)
    assert t.sigma == 14
    t_ref = cycle_trace(reflect_colouring(fixture, k), walk, g, k, q)
    assert t_ref.sigma == 28
    assert t.sigma + t_ref.sigma == 6 * 7
    assert t.sigma % 7 == 0

    images = set(iter_homs(g, target, CAP))
    sigma = {im: cycle_trace(Hom(6, k, im), walk, g, k, q).sigma
             for im in images}
    assert all(s % k == 0 for s in sigma.values())
    seen = set()
    class_sigmas = []
    for start in sorted(images):
        if start in seen:
            continue
        class_sigmas.append(sigma[start])
        frontier = [start]
        seen.add(start)
        while frontier:
            cur = frontier.pop()
            assert sigma[cur] == sigma[start]
            for nb in recolour_neighbours(Hom(6, k, cur), g, target):
                if nb.image not in seen:
                    seen.add(nb.image)
                    frontier.append(nb.image)
    assert sorted(class_sigmas) == [14, 21, 28]
    report = components(g, target, cap=CAP)
    assert report.class_count == 3
    assert not any(c.contains_frozen for c in report.classes)


def test_criterion_07():
    """Farey predecessors: known pairs, the defining identity, the bound."""
    known = {(5, 2): (2, 1), (7, 2): (3, 1), (7, 3): (2, 1), (19, 7): (8, 3)}
    for (k, q), want in known.items():
        lp = lower_parent(k, q)
        assert (lp.parent_k, lp.parent_q) == want
        assert k * lp.parent_q - lp.parent_k * q == 1
    rng = random.Random(101)
    done = 0
    while done < 100:
        q = rng.randint(1, 9)
        k = rng.randint(2 * q, 40)
        j, p = rng.randint(1, 9), rng.randint(1, 9)
        if math.gcd(k, q) != 1 or Fraction(k, q) <= Fraction(j, p):
            continue
        res = lower_parent_bound(k, q, j, p)
        assert res.parent.value >= res.bound  # exact rational comparison
        done += 1


def test_criterion_08():
    """Folding: stiff terminals, self-mixing calls, and the equivalence of
    dismantlability with connectedness of the endomorphism graph."""
    assert stiff_reduction(cycle_graph(4)).terminal == complete_graph(2)
    trees = [path_graph(n) for n in (2, 3, 4, 6)]
    trees.append(Graph(6, [(0, i) for i in range(1, 6)]))
    trees.append(Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]))
    for tree in trees:
        term = stiff_reduction(tree).terminal
        assert term.n == 2 and sorted(term.edges()) == [(0, 1)]
    independent = Graph(3, [])
    assert stiff_reduction(independent).terminal.n == 1

    assert self_mixing(independent, cap=CAP).mixing
    assert not self_mixing(path_graph(3), cap=CAP).mixing
    assert not self_mixing(complete_graph(3), cap=CAP).mixing

    for g in iso_reps(4, loops=True):
        dism = is_dismantlable(g, cap=CAP).dismantlable
        connected = components(g, g, kind="homomorphism",
                               cap=CAP).class_count == 1
        endo_graph, _ = hom_graph(g, g)
        endo_dism = is_dismantlable(endo_graph, cap=CAP).dismantlable
        assert dism == connected == endo_dism, g


def test_criterion_09():
    """Folds preserve the class count exactly, retracts never raise it, and
    a dismantlable target can be swapped for an edge."""
    rng = random.Random(83)
    done = 0
    while done < 50:
        g = random_graph(rng, rng.randint(1, 5), 0.55, loops=rng.random() < 0.25)
        h = random_graph(rng, rng.randint(1, 5), 0.55, loops=rng.random() < 0.25)
        base = components(g, h, kind="homomorphism", cap=CAP).class_count

        gf, hf = stiff_reduction(g), stiff_reduction(h)
        folded = components(gf.terminal, hf.terminal, kind="homomorphism",
                            cap=CAP).class_count
        assert folded == base, (g, h)

        eg = rng.choice(idempotent_endos(g))
        eh = rng.choice(idempotent_endos(h))
        rg, retr_g = retract_from_endo(g, eg)
        rh, retr_h = retract_from_endo(h, eh)
        for big, small, endo, retr in ((g, rg, eg, retr_g),
                                       (h, rh, eh, retr_h)):
            section = Hom(small.n, big.n, tuple(sorted(set(endo.image))))
            assert is_retraction(retr, section, big, small)
        retracted = components(rg, rh, kind="homomorphism",
                               cap=CAP).class_count
        assert retracted <= base, (g, h)
        done += 1

    # a path-shaped target folds to an edge, so the class counts agree
    p4_like = circular_clique(5, 2).delete_vertex(0)
    edge = complete_graph(2)
    for g in iso_reps(5, loops=False):
        left = components(g, p4_like, kind="colour", cap=CAP).class_count
        right = components(g, edge, kind="colour", cap=CAP).class_count
        assert left == right, g


def test_criterion_10():
    """The floor map scales circular cliques down; deleting one vertex lets
    the remaining orbit fold away completely."""
    sr = scale_retraction(5, 2, 2)
    assert sr.retraction.image == tuple(u // 2 for u in range(10))
    assert sr.section.image == tuple(2 * u for u in range(5))
    assert is_retraction(sr.retraction, sr.section,
                         circular_clique(10, 4), circular_clique(5, 2))
    od = delete_vertex_dismantle(3, 1, 2, 0)
    assert od.removed_orbit == (2, 4)
    cur = od.start
    for step in od.steps:
        cur = apply_fold(cur, step)  # make_fold re-verified every step
    assert cur == od.residual
    assert od.residual.relabel(od.relabel) == complete_graph(3)


def test_criterion_11():
    """Pin extension on the blocking gadget, layered-product agreement, and
    the separation bound for pinned edge copies."""
    gadget = gadget_g62x()
    k4 = complete_graph(4)
    blocked = PrecolouringInstance(gadget, k4,
                                   tuple(enumerate((0, 1, 1, 2, 2, 3))))
    assert extend(blocked, cap=CAP).status == "NoExtension"

    outer = circular_clique(6, 2)
    outcomes = set()
    for image in enumerate_homs(outer, k4, cap=CAP).images:
        inst = PrecolouringInstance(gadget, k4, tuple(enumerate(image)))
        outcomes.add(extend(inst, cap=CAP).status)
    assert "Extended" in outcomes  # some four-colour pin set does extend

    rng = random.Random(113)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randint(1, 3), 0.6, loops=rng.random() < 0.3)
        h = random_graph(rng, rng.randint(2, 3), 0.6, loops=rng.random() < 0.3)
        homs = enumerate_homs(g, h, cap=CAP).images
        if not homs:
            continue
        start = Hom(g.n, h.n, rng.choice(homs))
        end = Hom(g.n, h.n, rng.choice(homs))
        # the call itself cross-checks the product search against distance
        layered_extension_check(g, h, start, end, rng.randint(1, 4), cap=CAP)
        done += 1

    k3 = complete_graph(3)
    rb = core_ext_radius_bound(path_graph(4), k3, cap=CAP)
    # the bound is twice the radius of the core's homomorphism graph: the
    # six edge maps into a triangle form a six-cycle of radius 3, so 6
    assert rb.radius == radius_centre_naive(rb.core.core, k3)[0] == 3
    assert rb.bound == 2 * rb.radius == 6

    def pinned_ladder(m, first, last):
        """Edge copies pinned at rungs 0 and m - 1, host distance m - 1."""
        ladder = extension_product(complete_graph(2), path_graph(m))
        pins = ((0, first[0]), (m, first[1]),
                (m - 1, last[0]), (2 * m - 1, last[1]))
        return PrecolouringInstance(ladder, k3, pins,
                                    groups=((0, m), (m - 1, 2 * m - 1)))

    # no bound of 2 exists: antipodal maps, 3 apart in the homomorphism
    # graph, cannot meet across a single middle rung
    assert extend(pinned_ladder(3, (0, 1), (1, 0)),
                  cap=CAP).status == "NoExtension"

    # both copies pinned to the map farthest from the centre: one rung
    # short of the bound the ring construction has no room ...
    with pytest.raises(RingHypothesisError) as exc:
        greedy_ring_extension(pinned_ladder(rb.bound, (1, 0), (1, 0)),
                              rb.centre, cap=CAP)
    assert (exc.value.required, exc.value.actual) == (rb.bound, rb.bound - 1)

    # ... and exactly rb.bound apart it succeeds
    m = rb.bound + 1
    result = greedy_ring_extension(pinned_ladder(m, (1, 0), (1, 0)),
                                   rb.centre, cap=CAP)
    assert result.image[0] == 1 and result.image[m] == 0


def test_criterion_12():
    """Mixing bounds hold across every small graph: twice the colouring
    number, the integer threshold, twice the maximum degree, and the odd
    clique obstruction below max(4, omega+1)."""
    fractions = [(k, q) for q in range(1, 6) for k in range(2 * q, 12)
                 if math.gcd(k, q) == 1]
    assert len(fractions) == 21
    for g in iso_reps(5, loops=False):
        col = colouring_number(g)
        dmax = degrees(g)[0]
        has_edge = next(g.edges(), None) is not None
        bip = is_bipartite(g)
        omega = clique_number(g)
        for k, q in fractions:
            value = Fraction(k, q)
            expect_mixing = (value >= 2 * col
                             or (q == 1 and k >= col + 1)
                             or (has_edge and value > 2 * dmax))
            expect_split = not bip and value < max(4, omega + 1)
            if not (expect_mixing or expect_split):
                continue
            status = verdict(g, k, q)
            if expect_mixing:
                assert status == "mixing", (g, k, q)
            else:
                if status == "no_colourings":
                    continue
                assert status == "not_mixing", (g, k, q)
                cert = nonmixing_certificate(g, k, q, cap=CAP)
                assert cert is not None, (g, k, q)
                assert check_certificate(g, cert)


def test_criterion_13():
    """The backtracking enumerator agrees with the brute-force filter."""
    rng = random.Random(131)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8),
                         loops=rng.random() < 0.4)
        h = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8),
                         loops=rng.random() < 0.4)
        space = enumerate_homs(g, h, cap=10 ** 6)
        assert list(space.images) == sorted(naive_homs(g, h))
