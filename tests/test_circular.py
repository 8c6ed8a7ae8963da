"""Lower parents, flexibility, colour rotation, and scale retractions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from circmix import homgraph
from circmix.circular import (available_colours, avoid_colour_normalize,
                              delete_vertex_dismantle, is_flexible,
                              lower_parent, lower_parent_bound, mixing_scan,
                              scale_retraction)
from circmix.errors import NoColouringsError
from circmix.graphs import (Graph, circular_clique, colouring_number,
                            complete_graph, cycle_graph, degrees,
                            frozen_regular_graph, path_graph)
from circmix.homgraph import is_mixing
from circmix.homs import Hom, is_hom, iter_homs
from circmix.structure import apply_fold, is_retraction

from helpers import iso_reps


def test_lower_parent_known_values():
    cases = {(5, 2): (2, 1), (7, 2): (3, 1), (7, 3): (2, 1), (19, 7): (8, 3)}
    for (k, q), (kp, qp) in cases.items():
        lp = lower_parent(k, q)
        assert (lp.parent_k, lp.parent_q) == (kp, qp)
        assert lp.value == Fraction(kp, qp)


def test_lower_parent_validates():
    with pytest.raises(ValueError):
        lower_parent(3, 2)  # below the k >= 2q floor
    with pytest.raises(ValueError):
        lower_parent(6, 2)  # not coprime


@given(st.integers(1, 12), st.integers(0, 30))
def test_lower_parent_is_farey_predecessor(q, extra):
    import math

    k = 2 * q + 1 + extra
    if math.gcd(k, q) != 1:
        k += q  # k mod q unchanged, so this forces gcd 1 only when q == 1
    if math.gcd(k, q) != 1:
        return
    lp = lower_parent(k, q)
    kp, qp = lp.parent_k, lp.parent_q
    assert k * qp - kp * q == 1
    assert 1 <= qp <= q
    # maximal among fractions below k/q with denominator at most q
    best = max(Fraction(a, b)
               for b in range(1, q + 1)
               for a in range(1, k * b // q + 1)
               if Fraction(a, b) < Fraction(k, q))
    assert lp.value == best


def test_lower_parent_bound_cases():
    tight = lower_parent_bound(19, 7, 5, 2)
    assert tight.bound == Fraction(53, 21)
    assert tight.case == "q'>p"
    assert tight.parent.value == Fraction(8, 3) >= tight.bound

    equal = lower_parent_bound(7, 2, 3, 1)
    assert equal.bound == Fraction(3)
    assert equal.case == "q'=p"
    assert equal.parent.value == Fraction(3)

    with pytest.raises(ValueError):
        lower_parent_bound(5, 2, 3, 1)  # 5/2 does not exceed 3


@given(st.integers(1, 9), st.integers(0, 20), st.integers(1, 9), st.integers(1, 9))
def test_lower_parent_bound_inequality(q, extra, j, p):
    import math

    k = 2 * q + 1 + extra
    if math.gcd(k, q) != 1 or Fraction(k, q) <= Fraction(j, p):
        return
    res = lower_parent_bound(k, q, j, p)
    assert res.parent.value >= res.bound
    assert res.bound == Fraction(j, p) + Fraction(res.parent.parent_q - p,
                                                  p * q * res.parent.parent_q)


def naive_available(f, v, g, k, q):
    target = circular_clique(k, q)
    image = list(f.image)
    out = []
    for c in range(k):
        image[v] = c
        if is_hom(g, target, image):
            out.append(c)
    return tuple(out)


def test_available_colours_known_values():
    p3 = path_graph(3)
    pinch = available_colours(Hom(3, 5, (0, 2, 4)), 1, p3, 5, 2)
    assert pinch.colours == (2,) and pinch.is_interval

    wrap = available_colours(Hom(3, 9, (3, 0, 6)), 1, p3, 9, 2)
    assert wrap.colours == (0, 1, 8) and wrap.is_interval

    split = available_colours(Hom(3, 9, (0, 2, 4)), 1, p3, 9, 2)
    assert split.colours == (2, 6, 7) and not split.is_interval

    free = available_colours(Hom(1, 5, (0,)), 0, Graph(1, []), 5, 2)
    assert free.colours == (0, 1, 2, 3, 4) and free.is_interval


def test_available_colours_matches_naive_recompute():
    rng = random.Random(7)
    for g, k, q in [(cycle_graph(4), 5, 2), (cycle_graph(5), 11, 3),
                    (path_graph(4), 7, 2), (complete_graph(3), 7, 2)]:
        images = list(iter_homs(g, circular_clique(k, q)))
        for image in rng.sample(images, min(8, len(images))):
            f = Hom(g.n, k, image)
            for v in range(g.n):
                res = available_colours(f, v, g, k, q)
                assert res.colours == naive_available(f, v, g, k, q)
                assert f.image[v] in res.colours


def test_available_colours_validates():
    with pytest.raises(ValueError):
        available_colours(Hom(3, 5, (0, 1, 2)), 0, path_graph(3), 5, 2)
    with pytest.raises(ValueError):
        available_colours(Hom(3, 5, (0, 2, 4)), 5, path_graph(3), 5, 2)


def test_flexibility_of_frozen_regular_graph():
    # the tight embedding of F_{2,2} is frozen, so its class is all-surjective
    res = is_flexible(frozen_regular_graph(2, 2), 7, 2)
    assert not res.flexible
    assert res.witness.image == (0, 1, 2, 3, 4, 5, 6)


def test_flexibility_trivial_and_empty():
    # three vertices can never use seven colours, so every class qualifies
    res = is_flexible(complete_graph(3), 7, 2)
    assert res.flexible and res.witness is None
    with pytest.raises(NoColouringsError):
        is_flexible(complete_graph(3), 5, 2)


def test_avoid_colour_walk_on_c4():
    walk = avoid_colour_normalize(Hom(4, 5, (0, 2, 0, 2)), cycle_graph(4), 5, 2)
    assert [h.image for h in walk] == [(4, 2, 0, 2), (4, 2, 4, 2)]


def test_avoid_colour_walk_postconditions():
    g, k, q = cycle_graph(5), 11, 3
    target = circular_clique(k, q)
    rng = random.Random(19)
    images = [im for im in iter_homs(g, target) if len(set(im)) < k]
    for image in rng.sample(images, 12):
        f = Hom(g.n, k, image)
        walk = avoid_colour_normalize(f, g, k, q)
        prev = f
        for h in walk:
            assert is_hom(g, target, h.image)
            assert sum(a != b for a, b in zip(prev.image, h.image)) == 1
            prev = h
        final = walk[-1] if walk else f
        assert 0 not in final.image
        if 0 not in f.image:
            assert walk == []


def test_avoid_colour_rejects_surjective():
    g = circular_clique(5, 2)
    with pytest.raises(ValueError):
        avoid_colour_normalize(Hom(5, 5, (0, 1, 2, 3, 4)), g, 5, 2)


def test_scale_retraction_floor_map():
    sr = scale_retraction(5, 2, 2)
    assert sr.retraction.image == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)
    assert sr.retraction.image[7] == 3
    assert sr.section.image == (0, 2, 4, 6, 8)
    assert is_retraction(sr.retraction, sr.section,
                         circular_clique(10, 4), circular_clique(5, 2))
    with pytest.raises(ValueError):
        scale_retraction(5, 2, 0)
    with pytest.raises(ValueError):
        scale_retraction(6, 2, 2)


def test_delete_vertex_dismantle_small_case():
    od = delete_vertex_dismantle(3, 1, 2, 0)
    assert od.removed_orbit == (2, 4)
    assert od.target == complete_graph(3)  # equality ignores names
    assert od.residual.relabel(od.relabel) == od.target


def test_delete_vertex_dismantle_replays():
    for k, q, d, i in [(3, 1, 2, 0), (3, 1, 2, 5), (5, 2, 2, 3),
                       (3, 1, 3, 2), (4, 1, 2, 7), (2, 1, 4, 0)]:
        od = delete_vertex_dismantle(k, q, d, i)
        n = k * d
        assert od.start.n == n - 1
        assert len(od.steps) == len(od.removed_orbit) == k - 1
        assert od.removed_orbit == tuple((i + t * q * d) % n for t in range(1, k))
        cur = od.start
        for step in od.steps:
            cur = apply_fold(cur, step)
        assert cur == od.residual
        assert od.target == circular_clique(k * (d - 1), q * (d - 1))
        assert od.residual.relabel(od.relabel) == od.target


def test_delete_vertex_dismantle_validates():
    with pytest.raises(ValueError):
        delete_vertex_dismantle(3, 1, 1, 0)
    with pytest.raises(ValueError):
        delete_vertex_dismantle(3, 1, 2, 6)
    with pytest.raises(ValueError):
        delete_vertex_dismantle(6, 2, 2, 0)


def test_mixing_scan_on_triangle():
    rep = mixing_scan(complete_graph(3), [(2, 1), (3, 1), (7, 2), (4, 1), (9, 2)])
    assert rep.graph_name == "K_3"
    verdicts = {(r.k, r.q): r.verdict for r in rep.rows}
    assert verdicts == {(2, 1): "NoColourings", (3, 1): "NotMixing",
                        (7, 2): "NotMixing", (4, 1): "Mixing", (9, 2): "Mixing"}
    by_frac = {(r.k, r.q): r for r in rep.rows}
    assert (by_frac[3, 1].hom_count, by_frac[3, 1].class_count) == (6, 6)
    assert (by_frac[7, 2].hom_count, by_frac[7, 2].class_count) == (42, 2)
    assert by_frac[7, 2].witnesses == ((0, 2, 4), (0, 4, 2))
    assert (by_frac[4, 1].hom_count, by_frac[9, 2].hom_count) == (24, 180)
    assert by_frac[4, 1].witnesses == ()

    assert len(rep.bounds) == 10
    facts = {(b.quantity, b.relation, b.value, b.certified) for b in rep.bounds}
    assert ("M_c", "<=", Fraction(4), "theorem") in facts     # twice the max degree
    assert ("m_c", ">=", Fraction(4), "theorem") in facts     # clique lower bound
    assert ("m_c", "<=", Fraction(4), "scan") in facts
    assert ("M_c", ">=", Fraction(7, 2), "scan") in facts
    assert ("m_c", ">", Fraction(2), "scan") in facts
    assert ("m", "<=", Fraction(4), "scan") in facts
    assert ("M", ">=", Fraction(4), "scan") in facts


def test_mixing_scan_circular_clique_bounds():
    # a scan of G_{k,q} adds the circular-clique thresholds: M <= ceil(k/q)+1
    # when k >= 3(q-1)+1, and M_c <= max((k+1)/2, ceil(k/q)+1)
    for (k, q), want in (((7, 2), {"M": 5, "M_c": 5}), ((5, 2), {"M": 4, "M_c": 4}),
                         ((9, 4), {"M_c": 5})):
        rep = mixing_scan(circular_clique(k, q), [(2, 1)])
        got = {b.quantity: b.value for b in rep.bounds
               if b.source.startswith("circular-clique")}
        assert got == want, (k, q)
        assert all(b.relation == "<=" and b.certified == "theorem"
                   for b in rep.bounds if b.source.startswith("circular-clique"))


def test_mixing_scan_keeps_fractions_and_skips_on_cap():
    rep = mixing_scan(complete_graph(3), [(6, 2), (7, 2)], cap=10)
    first = rep.rows[0]
    assert (first.k, first.q) == (6, 2)
    assert first.value == Fraction(3)
    assert rep.rows[1].verdict == "Skipped"
    assert rep.rows[1].hom_count is None
    # K_4's clique search takes 4 nodes: past a cap of 3 the scan gives up
    # the clique bound and keeps its rows and every other bound
    fracs = [(7, 2), (4, 1), (9, 2)]
    full, capped = (mixing_scan(complete_graph(4), fracs, cap) for cap in (None, 3))
    assert [r.verdict for r in capped.rows] == ["NoColourings", "Skipped", "Skipped"]
    assert [r.verdict for r in full.rows] == ["NoColourings", "NotMixing", "NotMixing"]
    clique = [b for b in full.bounds if b.source == "non-bipartite clique lower bound"]
    assert [(b.quantity, b.value) for b in clique] == [("m_c", 5)]
    assert [b for b in full.bounds if b.certified == "theorem" and b not in clique] \
        == [b for b in capped.bounds if b.certified == "theorem"]
    assert clique[0] in mixing_scan(complete_graph(4), fracs, 4).bounds
    with pytest.raises(ValueError):
        mixing_scan(Graph(2, [(0, 0), (0, 1)]), [(4, 1)])


def test_mixing_scan_rows_match_is_mixing(monkeypatch):
    """Theorem rows count instead of enumerating; every row still reads as
    is_mixing would with the theorems off, by a join, and the non-coprime
    rows still enumerate.  With the theorems off a theorem row is joined,
    which shows that the rule is off where is_mixing looks it up."""
    fractions = [(k, q) for q in range(1, 6) for k in range(2 * q, 12)
                 if math.gcd(k, q) == 1]
    assert len(fractions) == 21
    fractions += [(6, 2), (8, 2), (9, 3)]
    theorem_rows = 0
    join = homgraph._join
    for g in iso_reps(5):
        col, dmax = colouring_number(g), degrees(g)[0]
        for row in mixing_scan(g, fractions).rows:
            joins = []
            with monkeypatch.context() as m:
                m.setattr(homgraph, "_theorem_covers", lambda *a, **kw: False)
                m.setattr(homgraph, "_join",
                          lambda *a, **kw: joins.append(1) or join(*a, **kw))
                want = is_mixing(g, circular_clique(row.k, row.q))
            witnesses = () if want.witness is None else tuple(
                w.image for w in want.witness)
            assert (row.verdict, row.hom_count, row.class_count, row.witnesses) \
                == (want.name, want.hom_count, want.class_count, witnesses), (g, row)
            theorem_row = homgraph._theorem_mixing(row.k, row.q, col, dmax)
            assert joins or not theorem_row, (g.rows, row)
            theorem_rows += theorem_row
    assert theorem_rows == 630


def test_null_graph_scan_rows_match_is_mixing():
    g = Graph(0)
    rows = mixing_scan(g, [(2, 1), (5, 2), (6, 2), (7, 3)]).rows
    assert len(rows) == 4
    for row in rows:
        want = is_mixing(g, circular_clique(row.k, row.q))
        assert (want.name, want.hom_count, want.class_count) == ("Mixing", 1, 1)
        assert (row.verdict, row.hom_count, row.class_count, row.witnesses) \
            == ("Mixing", 1, 1, ())


def test_theorem_rows_do_not_enumerate(monkeypatch):
    answers, joins = [], []
    covers, join = homgraph._theorem_covers, homgraph._join
    monkeypatch.setattr(homgraph, "_theorem_covers",
                        lambda *a: answers.append(covers(*a)) or answers[-1])
    monkeypatch.setattr(homgraph, "_join",
                        lambda *a, **kw: joins.append(a[1]) or join(*a, **kw))
    rep = mixing_scan(complete_graph(3), [(4, 1), (9, 2), (8, 2), (7, 2)])
    assert [r.verdict for r in rep.rows] == ["Mixing"] * 3 + ["NotMixing"]
    # 4/1 and 9/2 are covered by theorems and not joined; 8/2 is not
    # coprime, and 7/2 is answered by the cycle rule, K_3 being C_3, which
    # is asked before the theorems
    assert answers == [True, True, False]
    assert joins == [circular_clique(8, 2)]
    rep = mixing_scan(complete_graph(3), [(4, 1)], cap=23)
    assert rep.rows[0].verdict == "Skipped" and answers[3:] == [True]
