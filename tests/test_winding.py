"""Winding totals around cycles and sigma-based non-mixing certificates."""

import random
from math import gcd

import pytest

from circmix import homgraph
from circmix.errors import CapExceededError, NoColouringsError
from circmix.graphs import (Graph, circular_clique, complete_graph, cycle_graph,
                            path_graph)
from circmix.homgraph import components, is_mixing
from circmix.homs import Hom, first_hom, iter_homs
from circmix.winding import (ConstrictingResult, check_certificate,
                             cycle_trace, is_constricting,
                             nonmixing_certificate, reflect_colouring)

from helpers import (colour_adjacent_naive, components_naive, least_member_naive,
                     missing_zero_naive, naive_homs)


def test_cycle_trace_frozen_values():
    c6 = cycle_graph(6)
    t = cycle_trace(Hom(6, 7, (0, 2, 4, 6, 1, 3)), range(6), c6, 7, 2)
    assert t.taus == (2, 2, 2, 2, 2, 4)
    assert t.sigma == 14
    assert t.step_indices(2) == (0, 1, 2, 3, 4)
    assert t.step_indices(4) == (5,)

    ref = reflect_colouring(Hom(6, 7, (0, 2, 4, 6, 1, 3)), 7)
    assert ref.image == (0, 5, 3, 1, 6, 4)
    assert cycle_trace(ref, range(6), c6, 7, 2).sigma == 28  # 14 + 28 = 6*7

    t3 = cycle_trace(Hom(6, 3, (0, 1, 0, 1, 0, 1)), range(6), c6, 3, 1)
    assert t3.taus == (1, 2, 1, 2, 1, 2)
    assert t3.sigma == 9


def test_cycle_trace_allows_repeated_vertices():
    t = cycle_trace(Hom(3, 7, (0, 2, 4)), (0, 1, 0, 2), complete_graph(3), 7, 2)
    assert t.taus == (2, 5, 4, 3)
    assert t.sigma == 14


def test_cycle_trace_validates():
    c4 = cycle_graph(4)
    f = Hom(4, 5, (0, 2, 0, 2))
    with pytest.raises(ValueError):
        cycle_trace(f, (0, 1), c4, 5, 2)
    with pytest.raises(ValueError):
        cycle_trace(f, (0, 1, 3), c4, 5, 2)  # (1, 3) is not an edge
    with pytest.raises(ValueError):
        cycle_trace(f, (0, 1, 7), c4, 5, 2)


def test_sigma_divisibility_and_reflection_identity():
    rng = random.Random(23)
    cases = [(cycle_graph(5), 11, 3, (0, 1, 2, 3, 4)),
             (cycle_graph(6), 7, 2, (0, 1, 2, 3, 4, 5)),
             (complete_graph(4), 9, 2, (0, 1, 2, 3))]
    for g, k, q, walk in cases:
        images = list(iter_homs(g, circular_clique(k, q)))
        for image in rng.sample(images, min(15, len(images))):
            f = Hom(g.n, k, image)
            t = cycle_trace(f, walk, g, k, q)
            assert t.sigma % k == 0
            assert all(q <= tau <= k - q for tau in t.taus)
            t_ref = cycle_trace(reflect_colouring(f, k), walk, g, k, q)
            # negating colours flips each step to k - tau, one k per step
            assert t.sigma + t_ref.sigma == len(walk) * k


def test_sigma_constant_on_neighbouring_colourings():
    # below the threshold k/q < 4 every colouring is constricting and
    # single-vertex recolourings cannot change the winding total
    g, k, q = cycle_graph(5), 11, 3
    walk = (0, 1, 2, 3, 4)
    images = list(iter_homs(g, circular_clique(k, q)))
    sigmas = {im: cycle_trace(Hom(5, k, im), walk, g, k, q).sigma for im in images}
    rng = random.Random(5)
    pairs = 0
    for im in rng.sample(images, 60):
        for other in images:
            if colour_adjacent_naive(im, other):
                assert sigmas[im] == sigmas[other]
                pairs += 1
    assert pairs > 0


def test_sigma_split_forced_on_c6_at_five_halves():
    g = cycle_graph(6)
    images = list(iter_homs(g, circular_clique(5, 2)))
    assert len(images) == 100
    for im in images:
        t = cycle_trace(Hom(6, 5, im), range(6), g, 5, 2)
        assert len(t.step_indices(2)) == 3
        assert len(t.step_indices(3)) == 3
        assert t.sigma == 15


def test_is_constricting():
    g, k, q = cycle_graph(5), 11, 3
    for im in iter_homs(g, circular_clique(k, q)):
        assert is_constricting(Hom(5, k, im), g, k, q).constricting
    res = is_constricting(Hom(3, 9, (0, 2, 4)), path_graph(3), 9, 2)
    assert not res.constricting
    assert res.violator == 1
    # at the vertex limit; 61/20 < 4, so every colouring is constricting
    g, k, q = cycle_graph(4096), 61, 20
    f = first_hom(g, circular_clique(k, q))
    assert is_constricting(f, g, k, q) == ConstrictingResult(True, None)


def test_certificate_odd_cycle_triangle():
    cert = nonmixing_certificate(complete_graph(3), 7, 2)
    assert cert.kind == "odd_cycle"
    assert cert.subgraph == cert.cycle == (0, 1, 2)
    assert cert.colouring.image == (0, 2, 4)
    assert cert.reflection.image == (0, 5, 3)
    assert (cert.sigma, cert.sigma_reflection) == (7, 14)
    assert check_certificate(complete_graph(3), cert)


def test_certificate_odd_cycle_c5():
    cert = nonmixing_certificate(cycle_graph(5), 11, 3)
    assert cert.kind == "odd_cycle"
    assert cert.colouring.image == (0, 3, 0, 3, 6)
    assert (cert.sigma, cert.sigma_reflection) == (22, 33)
    assert cert.sigma + cert.sigma_reflection == 5 * 11
    assert check_certificate(cycle_graph(5), cert)


def test_certificate_clique_k4():
    cert = nonmixing_certificate(complete_graph(4), 9, 2)
    assert cert.kind == "clique"
    assert cert.subgraph == (0, 1, 2, 3)
    assert cert.cycle == (0, 1, 2, 3)  # already sorted by colour
    assert cert.colouring.image == (0, 2, 4, 6)
    assert (cert.sigma, cert.sigma_reflection) == (9, 27)
    assert check_certificate(complete_graph(4), cert)


def test_certificate_rejections():
    with pytest.raises(ValueError, match="bipartite"):
        nonmixing_certificate(cycle_graph(4), 7, 2)
    with pytest.raises(ValueError, match="not below the certificate threshold"):
        nonmixing_certificate(complete_graph(3), 9, 2)
    with pytest.raises(NoColouringsError):
        nonmixing_certificate(complete_graph(4), 7, 2)


def test_check_certificate_rejects_tampering():
    g = complete_graph(3)
    cert = nonmixing_certificate(g, 7, 2)
    forged = cert._replace(sigma=cert.sigma + 7)
    with pytest.raises(ValueError, match="stated winding totals"):
        check_certificate(g, forged)
    lazy = cert._replace(reflection=cert.colouring, sigma_reflection=cert.sigma)
    with pytest.raises(ValueError, match="nothing is certified"):
        check_certificate(g, lazy)
    wrong_kind = cert._replace(kind="clique")
    with pytest.raises(ValueError):
        check_certificate(g, wrong_kind)
    for mutant, text in [(cert._replace(subgraph=(0, 1, 1)), "vertices repeat"),
                         (cert._replace(subgraph=(0, 1, 3)), "vertex 3 out of range"),
                         (cert._replace(kind="path"), "unknown certificate kind 'path'")]:
        with pytest.raises(ValueError, match=text):
            check_certificate(g, mutant)
    # K_4 at 9/2, below its clique threshold 5 (K_4 has no (7,2)-colouring)
    k4 = complete_graph(4)
    cert = nonmixing_certificate(k4, 9, 2)
    assert (cert.kind, cert.cycle) == ("clique", (0, 1, 2, 3))
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ValueError, match="not a clique"):
        check_certificate(diamond, cert)
    for mutant, text in [
            (cert._replace(k=5, q=1), "5/1 is not below the clique threshold 5"),
            (cert._replace(cycle=(3, 2, 1, 0)), "not the colour-sorted clique order"),
            (cert._replace(colouring=Hom(4, 9, (0, 0, 4, 6))), "share a colour")]:
        with pytest.raises(ValueError, match=text):
            check_certificate(k4, mutant)
    c5 = cycle_graph(5)
    cert = nonmixing_certificate(c5, 5, 2)
    assert (cert.kind, cert.cycle) == ("odd_cycle", (0, 1, 2, 3, 4))
    for mutant, text in [
            (cert._replace(subgraph=(0, 1, 2, 3), cycle=(0, 1, 2, 3)), "need an odd cycle"),
            (cert._replace(k=4, q=1), "4/1 is not below the cycle threshold 4"),
            (cert._replace(cycle=(0, 4, 3, 2, 1)), "trace the odd cycle in order"),
            (cert._replace(subgraph=(0, 2, 4, 1, 3), cycle=(0, 2, 4, 1, 3)),
             "not a cycle of the graph")]:
        with pytest.raises(ValueError, match=text):
            check_certificate(c5, mutant)
    with pytest.raises(ValueError, match="loop-free"):
        nonmixing_certificate(Graph(3, [(0, 0), (0, 1), (1, 2), (2, 0)]), 5, 2)


def test_reflection_is_involution_and_preserves_validity():
    g, k, q = cycle_graph(6), 7, 2
    target = circular_clique(k, q)
    rng = random.Random(11)
    images = list(iter_homs(g, target))
    from circmix.homs import is_hom

    for image in rng.sample(images, 10):
        f = Hom(6, k, image)
        r = reflect_colouring(f, k)
        assert is_hom(g, target, r.image)
        assert reflect_colouring(r, k) == f
        assert r.image[0] == (k - image[0]) % k
    with pytest.raises(ValueError):
        reflect_colouring(Hom(3, 5, (0, 2, 4)), 7)


def _relabelled_cycle(n: int, a: int) -> Graph:
    """C_n with vertex i moved to a*i mod n, a prime to n."""
    return Graph(n, [(a * i % n, a * (i + 1) % n) for i in range(n)])


def _cycle_pairs(max_n: int, max_total: int):
    """(C_n relabelled, G_{k,q}, total) for n = 3..max_n, every coprime
    2 < k/q < 4 with q <= 6, and labellings v -> av mod n, a = 1, 2, 3."""
    for n in range(3, max_n + 1):
        for q in range(1, 7):
            for k in range(2 * q + 1, 4 * q):
                if gcd(k, q) != 1:
                    continue
                target = circular_clique(k, q)
                total, _ = homgraph._cycle_classes(list(range(n)), k, q, cap=10**30)
                if total > max_total:
                    continue
                for a in (1, 2, 3):
                    if gcd(a, n) == 1:
                        yield _relabelled_cycle(n, a), target, total


def _answers(g, h):
    return ([components(g, h, kind).to_json_dict() for kind in ("colour", "homomorphism")],
            is_mixing(g, h))


def _counted_boxes(m):
    """Patch ``homgraph._boxes`` to count its calls, in the list returned."""
    calls, boxes = [], homgraph._boxes
    m.setattr(homgraph, "_boxes", lambda *a, **kw: calls.append(1) or boxes(*a, **kw))
    return calls


def test_cycle_classes_match_the_join(monkeypatch):
    checked, frozen, empty = 0, set(), 0
    for g, h, total in _cycle_pairs(16, 200_000):
        with monkeypatch.context() as m:
            m.setattr(homgraph, "_cycle_classes", lambda *a, **kw: None)
            searches = _counted_boxes(m)
            want = _answers(g, h)
        # with the rule off where the three look it up, each searches boxes
        assert len(searches) == 3
        got = _answers(g, h)
        assert got == want, (g.n, h.name, g.rows)
        checked += 1
        empty += total == 0
        if any(c["frozen"] for c in got[0][0]["classes"]):
            frozen.add((g.n, h.name))
    assert checked > 300 and empty > 0
    assert {(6, "G_{3,1}"), (9, "G_{3,1}"), (10, "G_{5,2}")} <= frozen


def test_cycle_classes_match_naive_on_small_cycles():
    for g, h, _ in _cycle_pairs(5, 400):
        if g != cycle_graph(g.n):  # relabellings are checked against the join
            continue
        images = naive_homs(g, h)
        want = []
        for members in sorted(components_naive(images, colour_adjacent_naive)):
            lone = len(members) == 1
            missing = any(len(set(im)) < h.n for im in members)
            want.append((members[0], len(members), missing, lone))
        report = components(g, h)
        assert report.total == len(images)
        assert [(c.rep.image, c.size, c.contains_non_surjective, c.contains_frozen)
                for c in report.classes] == want


def test_cycle_flags_match_a_walk_search():
    """A winding class holds a colouring that misses a colour exactly when
    a plain walk search finds one of its total that misses colour 0, on
    C_n for n <= 48 into every coprime G_{k,q} with 2 < k/q < 4 and
    q <= 6, far past the join's reach; the frozen classes miss none."""
    classes = flagged = 0
    for q in range(1, 7):
        for k in range(2 * q + 1, 4 * q):
            if gcd(k, q) != 1:
                continue
            for n in range(3, 49):
                missing = missing_zero_naive(n, k, q)
                _, found = homgraph._cycle_classes(list(range(n)), k, q, cap=10**100)
                totals = set()
                for c in found:
                    im = c.rep.image
                    sigma = sum((im[(i + 1) % n] - im[i]) % k for i in range(n))
                    totals.add(sigma)
                    assert c.contains_non_surjective == (sigma in missing), (n, k, q, sigma)
                    classes += 1
                    flagged += c.contains_non_surjective
                assert missing <= totals, (n, k, q)
    assert classes == 10_211 and 0 < flagged < classes


def test_cycle_least_members_match_a_bitset_search():
    """Every class of C_17-C_30, relabelled v -> 2v and v -> 3v, into every
    coprime G_{k,q} with 2 < k/q < 4 and q <= 4, far past the join's
    reach, has the least member that a bitset search over the integer
    lifts finds for its total; a frozen class counts by its member with
    vertex 0 at colour 0."""
    classes = 0
    for n in range(17, 31):
        for a in (2, 3):
            if gcd(a, n) != 1:
                continue
            walk = [a * i % n for i in range(n)]
            for q in range(1, 5):
                for k in range(2 * q + 1, 4 * q):
                    if gcd(k, q) != 1:
                        continue
                    _, found = homgraph._cycle_classes(walk, k, q, cap=10**100)
                    totals = []
                    for c in found:
                        im = c.rep.image
                        if im[0]:
                            continue
                        sigma = sum((im[walk[(i + 1) % n]] - im[walk[i]]) % k for i in range(n))
                        assert im == least_member_naive(walk, k, q, sigma), (n, a, k, q, sigma)
                        totals.append(sigma)
                    assert sorted(totals) == list(range(-(-n * q // k) * k, n * (k - q) + 1, k))
                    classes += len(totals)
    assert classes == 1_288


def test_cycle_classes_skip_the_boxes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("boxes enumerated")

    monkeypatch.setattr(homgraph, "_boxes", refuse)
    g, h = cycle_graph(7), circular_clique(10, 3)
    verdict = is_mixing(g, h)
    assert (verdict.status, verdict.class_count) == ("not_mixing", 2)
    for kind in ("colour", "homomorphism"):
        assert components(g, h, kind).total == verdict.hom_count


def test_cycle_classes_leave_other_pairs_to_the_join(monkeypatch):
    # C_5 -> G_{9,2} and G_{4,1} are one class by a mixing theorem, which
    # would answer them without a join; the rule is off here, so every
    # pair below with a colouring is joined, and the cycle rule is not
    # asked of it
    monkeypatch.setattr(homgraph, "_theorem_covers", lambda *a, **kw: False)
    asked, rung = [], homgraph._cycle_classes
    monkeypatch.setattr(homgraph, "_cycle_classes",
                        lambda *a, **kw: asked.append(1) or rung(*a, **kw))
    searches = _counted_boxes(monkeypatch)
    joins, join = [], homgraph._join
    monkeypatch.setattr(homgraph, "_join",
                        lambda *a, **kw: joins.append(1) or join(*a, **kw))
    triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    looped = Graph(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    out_of_scope = [
        (cycle_graph(5), circular_clique(9, 2)),  # k/q above 4
        (cycle_graph(5), circular_clique(4, 1)),  # k/q = 4
        (cycle_graph(6), circular_clique(6, 2)),  # k, q not coprime
        (cycle_graph(6), complete_graph(3)),      # G_{3,1} by another name
        (cycle_graph(7), cycle_graph(5)),         # G_{5,2} relabelled
        (triangles, circular_clique(3, 1)),       # not connected
        (looped, circular_clique(3, 1)),          # 2 bits a row, with loops
    ]
    for g, h in out_of_scope:
        searches.clear()
        joins.clear()
        asked.clear()
        answers = _answers(g, h)
        assert not asked
        assert len(searches) == 3
        assert len(joins) == (3 if answers[1].hom_count else 0)
        if h.name == "K_3":
            assert _answers(g, circular_clique(3, 1)) == answers


def test_cycle_classes_raise_where_the_join_does(monkeypatch):
    def outcome(g, h, cap):
        try:
            return components(g, h, cap=cap).to_json_dict()
        except CapExceededError as exc:
            return str(exc)

    cases = [(g, h, cap) for g, h, total in _cycle_pairs(9, 20_000) if total
             for cap in (total - 1, total)]
    cases.append((cycle_graph(4095), circular_clique(7, 2), None))
    for g, h, cap in cases:
        got = outcome(g, h, cap)
        with monkeypatch.context() as m:
            m.setattr(homgraph, "_cycle_classes", lambda *a, **kw: None)
            searches = _counted_boxes(m)
            assert outcome(g, h, cap) == got
        assert searches == [1]  # the rule is off where components looks it up
    assert got == "budget of 10000000 exceeded (homomorphism count for n=4095)"
