#!/usr/bin/env python3
"""Differential dump: one line per library call, to compare two checkouts.

Runs a fixed list of calls of the public ``circmix`` library and writes one
line for each: a label, a tab, and the repr of the answer, or ``!`` and the
type and text of the error it raised.  A refactor that keeps every answer
keeps the dump byte for byte, so dump each checkout and compare the files:

    python3 tools/diffdump.py --src OLD/src --out old.txt
    python3 tools/diffdump.py --src NEW/src --out new.txt
    cmp old.txt new.txt

Standard library only.  The families, each in its own function below:

- ``spaces``: ``is_mixing`` and both kinds of ``components`` on every graph
  of at most 5 vertices, the 0-vertex graph and an edgeless one, into the
  21 coprime k/q with q <= 5 and k <= 11 plus 6/2, 8/2 and 9/3; scans of
  those sources; both chromatic numbers; C_3-C_14, also relabelled
  v -> 2v and v -> 3v, into every coprime G_{k,q} with q <= 5 and
  k <= max(11, 4q + 4); the graphs of at most 4 vertices into K_3, K_4,
  C_5 and unnamed and renamed copies of G_{7,2}; scans of named circular
  cliques and of unnamed copies of them.
- ``cycles``: C_3-C_30 into every coprime G_{k,q} with q <= 5 and
  k <= max(11, 4q + 6), and C_4095 into G_{13,2}, G_{9,2}, G_{7,2} and
  G_{4,1}; colour ``components`` at a cap of 10**100 of C_17-C_48, also
  relabelled v -> 2v and v -> 3v, into every coprime G_{k,q} with
  2 < k/q < 4 and q <= 6, spaces whose flags the winding rule gives far
  past the default cap; and at a cap of 10**400 of C_101 and C_301, also
  relabelled, into G_{7,2}, G_{10,3}, G_{11,4} and G_{13,4}, frozen
  classes included, as 7 divides 301.
- ``certificates``: ``nonmixing_certificate`` on every graph of at most 6
  vertices at each coprime k/q with q <= 5 below max(4, omega + 1), and at
  that threshold; C_3-C_101 at 5/2 and 7/3 (certificate, ``is_mixing``,
  both kinds of ``components`` and a scan).
- ``prepared``: counts, enumerations, least maps, components, walks and
  radii on the graphs of at most 3 vertices, loops allowed, and the
  loop-free ones on 4, into those of at most 3 with loops allowed, counts
  and verdicts asked again of the same graph objects; scans of each of
  those sources, before and after its other calls, on one graph object;
  and graph specs, good and bad, with the vertex limit lowered between two
  calls.
- ``lift``: ``is_mixing`` and both kinds of ``components`` on 60 random
  graphs of 6-8 vertices (``random``, seed 33) into every coprime G_{k,q}
  with 2 <= q <= 4, k <= 14 and (2q-1) col < k < 2q col, the rows that
  k > (2q-1) col covers and k/q >= 2 col does not; col is read with
  ``colouring_number``, so every checkout dumps the same calls.
- ``reader``: ``parse_graph`` (the rows and name, or the error text) of
  ``format_graph``'s text of the graphs of at most 3 vertices, loops
  allowed, and of C_5, G_{7,2} and C_40 (whose texts are long enough for
  the bulk read), under four names, as written and mutated: line endings,
  blank lines, tabs and spaces, comments, numerals such as +3, 03,
  Arabic-Indic digits and 1_0, repeated and out-of-range edges, and a
  repeated, late, missing or over-limit p line.
- ``folds``: ``find_fold``, ``stiff_reduction`` (its steps and the
  terminal's rows) and ``is_dismantlable`` (its verdict and the witness's
  image) on the graphs of at most 4 vertices, loops allowed, and of at
  most 5, on random trees, reflexive cop-win graphs and reflexive
  8-cycles with pendant trees of 40-250 vertices (seeds 0-3), and on the
  4096-vertex path, star, path with its ends labelled last, and seeded
  random tree.
- ``writer``: the stdout and exit code of every ``structure`` op on the
  graphs of at most 4 vertices, loops allowed, and of ``--op stiff``,
  ``dismantlable``, ``col`` and ``omega`` on random trees, reflexive
  cop-win graphs and reflexive 8-cycles with pendant trees of 40-60
  vertices; each report is ``cli._json`` of its payload.
- ``degeneracy``: ``degeneracy_order`` and ``colouring_number`` on the
  graphs of at most 5 vertices, loops allowed, on 120 random graphs of
  6-60 vertices (``random``, seed 38), every other one with loops, and on
  K_n, P_n and C_n for n = 1-16 and n = 2^j - 1, 2^j and 2^j + 1 for
  j = 5-8, and n = 511 and 512.
- ``budgets``: ``first_hom``, ``iter_homs``, ``hom_count`` and
  ``homotopy_path`` (from the least to the greatest map of a nonempty
  space) on the graphs of at most 3 vertices, loops allowed, into the
  same graphs, and ``max_clique`` on the graphs of at most 5 vertices,
  each at every budget from 0 up to the first it answers within, and one
  past that.  Every budget is explicit, so no default reaches the dump.
- ``looped``: ``is_mixing`` and both kinds of ``components`` of the
  reflexive P_2-P_10 and C_3-C_7 into the reflexive P_2-P_5 and C_5 and
  into the graphs of at most 3 vertices, loops allowed, and of the
  partly looped graphs on 4 vertices (some vertices looped, not all) into
  each other: colour classes and frozen flags of looped sources; and of
  the stars K_{1,3}-K_{1,8} with looped leaves into two looped edges and
  an unlooped hub adjacent to all four, and into every graph of at most 4
  vertices, loops allowed, with two looped vertices that are not
  adjacent: boxes that homomorphism classes cut at looped vertices.

Every call that answers with a count is asked again at a cap equal to that
count and at one below it (a scan at each row's count and one below).
Takes about half a minute.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import permutations
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def iso_reps(max_n: int, loops: bool = False) -> list:
    """One graph per isomorphism class on 1..max_n vertices: the first of
    each class in order of its edge set as a binary number."""
    from circmix import Graph

    reps = []
    for n in range(1, max_n + 1):
        slots = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
        perms = list(permutations(range(n)))
        seen = set()
        for bits in range(1 << len(slots)):
            g = Graph(n, [e for i, e in enumerate(slots) if bits >> i & 1])
            if g.rows not in seen:
                reps.append(g)
                seen.update(g.relabel(p).rows for p in perms)
    return reps


def coprime(max_q: int, top) -> list[tuple[int, int]]:
    """Every coprime k/q with q <= max_q and 2q <= k <= top(q)."""
    return [(k, q) for q in range(1, max_q + 1) for k in range(2 * q, top(q) + 1)
            if gcd(k, q) == 1]


FRACTIONS = coprime(5, lambda q: 11) + [(6, 2), (8, 2), (9, 3)]


class Dump:
    def __init__(self, out):
        self.out = out
        self.calls = 0

    def call(self, label: str, ask):
        """Write ``ask()``'s answer or error under ``label``; the answer, or
        None after an error."""
        self.calls += 1
        try:
            answer = ask()
        except Exception as exc:  # an error is an answer to compare
            self.out.write(f"{label}\t!{type(exc).__name__}: {exc}\n")
            return None
        self.out.write(f"{label}\t{answer!r}\n")
        return answer

    def capped(self, label: str, ask, total):
        """``ask(None)``, then ``ask`` at each count ``total`` reads off
        the answer and at one below it."""
        answer = self.call(label, lambda: ask(None))
        for count in ([] if answer is None else total(answer)):
            for cap in (count, count - 1):
                self.call(f"{label} cap={cap}", lambda cap=cap: ask(cap))
        return answer


def name(g) -> str:
    return f"{g.name or '-'}:{g.n}:{','.join(map(str, g.rows))}"


def spaces_of(d: Dump, g, h) -> None:
    import circmix as cm

    label = f"{name(g)} -> {name(h)}"
    d.capped(f"is_mixing {label}", lambda cap: cm.is_mixing(g, h, cap),
             lambda v: [v.hom_count])
    for kind in ("colour", "homomorphism"):
        d.capped(f"components {kind} {label}",
                 lambda cap, kind=kind: cm.components(g, h, kind, cap),
                 lambda r: [r.total])


def scan_of(d: Dump, g, fracs) -> None:
    import circmix as cm

    d.capped(f"scan {name(g)} {fracs}", lambda cap: cm.mixing_scan(g, fracs, cap),
             lambda s: sorted({r.hom_count for r in s.rows if r.hom_count is not None}))


def relabelled_cycles(top: int, low: int = 3):
    import circmix as cm

    for n in range(low, top + 1):
        c = cm.cycle_graph(n)
        yield c
        for m in (2, 3):
            if gcd(m, n) == 1:
                yield c.relabel([m * v % n for v in range(n)])


def spaces(d: Dump) -> None:
    import circmix as cm

    sources = iso_reps(5) + [cm.Graph(0), cm.Graph(3)]
    for g in sources:
        for k, q in FRACTIONS:
            spaces_of(d, g, cm.circular_clique(k, q))
        scan_of(d, g, FRACTIONS)
        d.call(f"chromatic {name(g)}", lambda: cm.chromatic_number(g))
        d.call(f"circular chromatic {name(g)}", lambda: cm.circular_chromatic_number(g))
    for c in relabelled_cycles(14):
        for k, q in coprime(5, lambda q: max(11, 4 * q + 4)):
            spaces_of(d, c, cm.circular_clique(k, q))
    g72 = cm.circular_clique(7, 2)
    targets = [cm.complete_graph(3), cm.complete_graph(4), cm.cycle_graph(5),
               cm.Graph.from_rows(g72.rows), cm.Graph.from_rows(g72.rows, "G_{7,3}"),
               cm.Graph.from_rows(cm.circular_clique(7, 3).rows, "G_{7,2}")]
    for g in iso_reps(4):
        for h in targets:
            spaces_of(d, g, h)
    for k, q in ((5, 2), (7, 2), (7, 3), (8, 3), (9, 4), (4, 1)):
        h = cm.circular_clique(k, q)
        for g in (h, cm.Graph.from_rows(h.rows)):
            scan_of(d, g, FRACTIONS)


def cycles(d: Dump) -> None:
    import circmix as cm

    for n in range(3, 31):
        for k, q in coprime(5, lambda q: max(11, 4 * q + 6)):
            spaces_of(d, cm.cycle_graph(n), cm.circular_clique(k, q))
    for k, q in ((13, 2), (9, 2), (7, 2), (4, 1)):
        spaces_of(d, cm.cycle_graph(4095), cm.circular_clique(k, q))
    below = [(k, q) for k, q in coprime(6, lambda q: 4 * q - 1) if k > 2 * q]
    for c in relabelled_cycles(48, 17):
        for k, q in below:
            h = cm.circular_clique(k, q)
            d.call(f"components colour {name(c)} -> {name(h)} cap=10**100",
                   lambda: cm.components(c, h, "colour", 10**100))
    for c in [*relabelled_cycles(101, 101), *relabelled_cycles(301, 301)]:
        for k, q in ((7, 2), (10, 3), (11, 4), (13, 4)):
            h = cm.circular_clique(k, q)
            d.call(f"components colour {name(c)} -> {name(h)} cap=10**400",
                   lambda: cm.components(c, h, "colour", 10**400))


def certificates(d: Dump) -> None:
    import circmix as cm

    for g in iso_reps(6):
        top = max(4, cm.clique_number(g) + 1)
        for k, q in coprime(5, lambda q: top * q - 1) + [(top, 1)]:
            d.call(f"certificate {name(g)} {k}/{q}",
                   lambda k=k, q=q: cm.nonmixing_certificate(g, k, q))
    for n in range(3, 102):
        c = cm.cycle_graph(n)
        for k, q in ((5, 2), (7, 3)):
            d.call(f"certificate {name(c)} {k}/{q}",
                   lambda k=k, q=q: cm.nonmixing_certificate(c, k, q))
            spaces_of(d, c, cm.circular_clique(k, q))
            scan_of(d, c, [(k, q)])


def prepared(d: Dump) -> None:
    import circmix as cm

    targets = iso_reps(3, loops=True)
    for g in iso_reps(3, loops=True) + [g for g in iso_reps(4) if g.n == 4]:
        d.call(f"scan {name(g)}", lambda: cm.mixing_scan(g, FRACTIONS))
        for h in targets:
            label = f"{name(g)} -> {name(h)}"
            d.capped(f"hom_count {label}", lambda cap: cm.hom_count(g, h, cap),
                     lambda count: [count])
            space = d.call(f"enumerate {label}", lambda: cm.enumerate_homs(g, h))
            d.call(f"first_hom {label}", lambda: cm.first_hom(g, h))
            d.call(f"iter_homs {label}", lambda: list(cm.iter_homs(g, h)))
            spaces_of(d, g, h)
            if space and space.count and g.n <= 3:
                a, b = space.hom(0), space.hom(space.count - 1)
                d.call(f"homotopy_path {label}", lambda: cm.homotopy_path(a, b, g, h))
                d.call(f"radius_centre {label}", lambda: cm.radius_centre(g, h))
            # again, on the facts the graphs now keep
            d.call(f"hom_count again {label}", lambda: cm.hom_count(g, h))
            d.call(f"is_mixing again {label}", lambda: cm.is_mixing(g, h))
        d.call(f"scan again {name(g)}", lambda: cm.mixing_scan(g, FRACTIONS))
    specs = ["clique:1", "clique:5", "clique:0", "clique:-1", "clique:x", "circ:7/2",
             "circ:7", "circ:5/3", "circ:6/0", "circ:a/b", "gadget:g62x", "gadget:none"]
    limit = os.environ.get("CIRCMIX_MAX_N")
    try:
        for value in (None, "6", None):
            if value is None:
                os.environ.pop("CIRCMIX_MAX_N", None)
            else:
                os.environ["CIRCMIX_MAX_N"] = value
            for spec in specs:
                d.call(f"spec {spec} limit={value}",
                       lambda spec=spec: name(cm.resolve_graph_spec(spec)))
    finally:
        if limit is None:
            os.environ.pop("CIRCMIX_MAX_N", None)
        else:
            os.environ["CIRCMIX_MAX_N"] = limit


def lift(d: Dump) -> None:
    import random

    import circmix as cm

    rng = random.Random(33)
    for i in range(60):
        n, p = 6 + i % 3, rng.choice((0.2, 0.35, 0.5, 0.7))
        g = cm.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p])
        col = cm.colouring_number(g)
        for k, q in coprime(4, lambda q: 14):
            if q >= 2 and (2 * q - 1) * col < k < 2 * q * col:
                spaces_of(d, g, cm.circular_clique(k, q))


def numeral(token: str, how: str) -> str:
    """A numeral of the same value that only the line reader reads."""
    if how == "+":
        return "+" + token
    if how == "0":
        return "0" + token
    if how == "arabic":
        return "".join(chr(0x660 + int(c)) for c in token)
    return token[0] + "_" + token[1:] if len(token) > 1 else "0_" + token


def mutants(lines: list[str], n: int):
    """``(label, text, vertex limit or None)`` for the text of ``lines``
    as written and under each mutation."""
    p = next(i for i, line in enumerate(lines) if line.startswith("p "))
    edges = lines[p + 1:]
    yield "written", "\n".join(lines) + "\n", None
    for ending in ("\r\n", "\r"):
        yield f"ending {ending!r}", ending.join(lines) + ending, None
    yield "no final newline", "\n".join(lines), None
    for at in (0, p, p + 1, len(lines)):
        for blank in ("", " ", "\t"):
            yield f"blank {blank!r} at {at}", "\n".join(lines[:at] + [blank] + lines[at:]) + "\n", None
        for comment in ("c", "c ", "c note", "c two words"):
            yield f"{comment!r} at {at}", "\n".join(lines[:at] + [comment] + lines[at:]) + "\n", None
    for i in range(len(lines)):
        for label, line in (("tab", lines[i].replace(" ", "\t", 1)),
                            ("double space", lines[i].replace(" ", "  ")),
                            ("leading space", " " + lines[i]), ("trailing tab", lines[i] + "\t")):
            yield f"{label} in line {i}", "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n", None
        words = lines[i].split(" ")
        for j in (j for j, w in enumerate(words) if w.isdigit()):
            for how in ("+", "0", "arabic", "_"):
                line = " ".join(words[:j] + [numeral(words[j], how)] + words[j + 1:])
                yield f"numeral {how} in line {i}", "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n", None
    for line in edges[:2]:
        _, u, v = line.split()
        for again in (f"e {u} {v}", f"e {v} {u}"):
            yield f"again {again}", "\n".join(lines + [again]) + "\n", None
    for u, v in ((0, n), (n, 0), (n + 1, n + 2)):
        yield f"edge {u} {v}", "\n".join(lines + [f"e {u} {v}"]) + "\n", None
    yield "p again", "\n".join(lines + [lines[p]]) + "\n", None
    yield "p last", "\n".join(lines[:p] + edges + [lines[p]]) + "\n", None
    yield "no p", "\n".join(lines[:p] + edges) + "\n", None
    for limit in (1, max(n - 1, 1), n):
        yield f"limit {limit}", "\n".join(lines) + "\n", limit


def reader(d: Dump) -> None:
    import circmix as cm

    def read(text: str, limit):
        if limit is None:
            os.environ.pop("CIRCMIX_MAX_N", None)
        else:
            os.environ["CIRCMIX_MAX_N"] = str(limit)
        try:
            g = cm.parse_graph(text)
        finally:
            os.environ.pop("CIRCMIX_MAX_N", None)
        return g.n, g.rows, g.name

    bases = iso_reps(3, loops=True) + [cm.cycle_graph(5), cm.circular_clique(7, 2),
                                       cm.cycle_graph(40)]
    for g in bases:
        for title in (None, "tri angle", "  pad  ", "\u00e9t\u00e9"):
            lines = cm.format_graph(cm.Graph.from_rows(g.rows, title)).splitlines()
            for label, text, limit in mutants(lines, g.n):
                d.call(f"read {title!r} {name(g)} {label}", lambda: read(text, limit))


def fold_graphs(rng, n: int) -> list:
    """A random tree, a reflexive cop-win graph and a reflexive 8-cycle
    with pendant trees on n vertices, as the benchmark's fold requests
    build them."""
    import circmix as cm

    tree = [(rng.randrange(v), v) for v in range(1, n)]
    adj = [{0}]
    for v in range(1, n):
        u = rng.randrange(v)
        near = sorted(adj[u])
        picks = {u} | set(rng.sample(near, min(len(near), rng.randint(0, 2))))
        adj.append({v} | picks)
        for w in picks:
            adj[w].add(v)
    copwin = {(min(u, v), max(u, v)) for v in range(n) for u in adj[v]}
    cycle = [(v, (v + 1) % 8) for v in range(8)] + [(rng.randrange(v), v) for v in range(8, n)]
    return [cm.Graph(n, edges, name=f"{kind}{n}") for kind, edges in
            (("tree", tree), ("copwin", copwin), ("cyc", cycle + [(v, v) for v in range(n)]))]


def folds(d: Dump) -> None:
    import random

    import circmix as cm

    def reduce(g):
        red = cm.stiff_reduction(g)
        return red.steps, red.terminal.rows

    def dismantle(g):
        verdict = cm.is_dismantlable(g)
        return verdict.dismantlable, verdict.witness_endo and verdict.witness_endo.image

    graphs = iso_reps(4, loops=True) + iso_reps(5)
    for seed in range(4):
        rng = random.Random(seed)
        graphs += fold_graphs(rng, rng.randint(40, 250))
    cases = [(name(g), g) for g in graphs]
    n, rng = 4096, random.Random(43)
    order = [n - 1, *range(n - 1)]  # as test_stiff_reduction_at_the_vertex_limit builds them
    cases += [("path4096", cm.path_graph(n)),
              ("star4096", cm.Graph(n, [(0, v) for v in range(1, n)])),
              ("endpath4096", cm.Graph(n, zip(order, order[1:]))),
              ("tree4096", cm.Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]))]
    for label, g in cases:
        d.call(f"find_fold {label}", lambda: cm.find_fold(g))
        d.call(f"stiff_reduction {label}", lambda: reduce(g))
        d.call(f"is_dismantlable {label}", lambda: dismantle(g))


def writer(d: Dump) -> None:
    import contextlib
    import io
    import random
    import tempfile

    import circmix as cm
    from circmix import cli

    def request(path: str, op: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["structure", "--graph", f"file:{path}", "--op", op])
        return code, out.getvalue(), err.getvalue()

    ops = ("col", "omega", "stiff", "core", "dismantlable", "rigid", "self-mixing")
    rng = random.Random(30)
    cases = [(g, ops) for g in iso_reps(4, loops=True)]
    cases += [(g, ("stiff", "dismantlable", "col", "omega"))
              for _ in range(4) for g in fold_graphs(rng, rng.randint(40, 60))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.graph")
        for g, asked in cases:
            cm.write_graph(g, path)
            for op in asked:
                d.call(f"structure {op} {name(g)}", lambda op=op: request(path, op))


def degeneracy(d: Dump) -> None:
    import random

    import circmix as cm
    from circmix.graphs import degeneracy_order

    cases = [(name(g), g) for g in iso_reps(5, loops=True)]
    rng = random.Random(38)
    for i in range(120):
        n, p, looped = rng.randint(6, 60), rng.choice((0.05, 0.2, 0.5, 0.8)), i % 2
        g = cm.Graph(n, [(u, v) for u in range(n) for v in range(u + 1 - looped, n)
                         if rng.random() < p])
        cases.append((name(g), g))
    sizes = [*range(1, 17), 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512]
    for n in sizes:
        cases += [(f"K_{n}", cm.complete_graph(n)), (f"P_{n}", cm.path_graph(n))]
        if n >= 3:
            cases.append((f"C_{n}", cm.cycle_graph(n)))
    for label, g in cases:
        d.call(f"degeneracy_order {label}", lambda: degeneracy_order(g))
        d.call(f"colouring_number {label}", lambda: cm.colouring_number(g))


def budgets(d: Dump) -> None:
    import circmix as cm

    def ladder(label: str, ask) -> None:
        """``ask(cap)`` at every cap from 0 up to the first it answers
        within, and one past that."""
        cap, first = 0, None
        while first is None or cap <= first + 1:
            got = []
            d.call(f"{label} cap={cap}", lambda: got.append(ask(cap)) or got[0])
            if got and first is None:
                first = cap
            cap += 1

    graphs = iso_reps(3, loops=True)
    for g in graphs:
        for h in graphs:
            label = f"{name(g)} -> {name(h)}"
            ladder(f"first_hom {label}", lambda cap: cm.first_hom(g, h, budget=cap))
            ladder(f"iter_homs {label}", lambda cap: list(cm.iter_homs(g, h, cap)))
            ladder(f"hom_count {label}", lambda cap: cm.hom_count(g, h, cap))
            images = cm.enumerate_homs(g, h).images
            if images:
                a, b = cm.Hom(g.n, h.n, images[0]), cm.Hom(g.n, h.n, images[-1])
                ladder(f"homotopy_path {label}",
                       lambda cap: cm.homotopy_path(a, b, g, h, cap))
    for g in iso_reps(5):
        ladder(f"max_clique {name(g)}", lambda cap: cm.max_clique(g, cap))


def looped(d: Dump) -> None:
    import circmix as cm

    reflexive = ([cm.path_graph(n, reflexive=True) for n in range(2, 11)]
                 + [cm.cycle_graph(n, reflexive=True) for n in range(3, 8)])
    targets = ([cm.path_graph(n, reflexive=True) for n in range(2, 6)]
               + [cm.cycle_graph(5, reflexive=True)] + iso_reps(3, loops=True))
    for g in reflexive:
        for h in targets:
            spaces_of(d, g, h)
    partly = [g for g in iso_reps(4, loops=True) if g.n == 4 and 0 < len(g.loops()) < 4]
    for g in partly:
        for h in partly:
            spaces_of(d, g, h)
    # stars with looped leaves, whose boxes split where a leaf's colours
    # hold two looped colours that are not adjacent
    hub = cm.Graph(5, [(0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (2, 3),
                       (4, 0), (4, 1), (4, 2), (4, 3)])
    apart = [h for h in iso_reps(4, loops=True)
             if any(not h.has_edge(a, b) for a in h.loops() for b in h.loops() if a < b)]
    for n in range(3, 9):
        star = cm.Graph(n + 1, [(0, v) for v in range(1, n + 1)]
                        + [(v, v) for v in range(1, n + 1)])
        for h in [hub] + apart:
            spaces_of(d, star, h)


FAMILIES = {"spaces": spaces, "cycles": cycles, "certificates": certificates,
            "lift": lift, "prepared": prepared, "reader": reader, "folds": folds,
            "writer": writer, "degeneracy": degeneracy, "budgets": budgets,
            "looped": looped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src directory of the checkout to dump")
    parser.add_argument("--out", default="-", help="output file (default stdout)")
    parser.add_argument("--family", choices=sorted(FAMILIES), action="append",
                        help="dump only these families (default all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    os.environ.pop("CIRCMIX_CAP", None)
    os.environ.pop("CIRCMIX_MAX_N", None)
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        d = Dump(out)
        for family in args.family or FAMILIES:
            before = d.calls
            FAMILIES[family](d)
            print(f"{family}: {d.calls - before} calls", file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"total: {d.calls} calls", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
