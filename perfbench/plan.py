"""The workloads, as ordered request lists built from a seed.

A request is one call of a public entry point: ``circmix.cli.main(argv)``
where a subcommand exists, otherwise a library function.  The seed permutes
the request order and draws the random graphs and end pairs marked
``seeded``; everything else is fixed, so its output is compared with a
golden digest recorded at the default seed.  Every request also carries an
independent check from ``oracle`` where the mathematics gives one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import oracle
from circmix.extension import (PrecolouringInstance, core_ext_radius_bound,
                               greedy_ring_extension, layered_extension_check)
from circmix.graphs import Graph, circular_clique, complete_graph, path_graph
from circmix.homgraph import radius_centre
from circmix.homs import Hom

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
CAP = 10_000_000  # the documented budget; every instance is decided within it
DEFAULT_SEED = 1
PASSES = 4  # every untraced run makes exactly this many passes


@dataclass
class Request:
    """One call of a public entry point and how to judge its response."""

    key: str  # stable identity of the inputs; golden digests are keyed by it
    op: str
    argv: list[str] | None = None  # CLI request: arguments of cli.main
    call: Callable | None = None  # library request
    render: Callable = str  # library result -> canonical text
    check: Callable[[str], str | None] = lambda text: None
    seeded: bool = False  # inputs drawn from the seed: no golden digest
    # graphs for the traced run; "root" renames the request's root span
    inputs: dict = field(default_factory=dict)


def tail_percentile(requests_per_pass: int) -> float:
    """The highest percentile that leaves ten requests beyond it in a run of
    PASSES passes."""
    return 100 * (1 - 10 / (PASSES * requests_per_pass))


def load_golden(path: Path = GOLDEN) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"digests": {}, "layered": None}


def _write_graph(workdir: Path, name: str, n: int, edges) -> str:
    path = workdir / f"{name}.graph"
    lines = [f"c {name}", f"p {n}"] + [f"e {u} {v}" for u, v in sorted(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"file:{path}"


def _cli(*argv) -> list[str]:
    return [str(a) for a in argv] + ["--cap", str(CAP)]


def _problem(cond: bool, message: str) -> str | None:
    return None if cond else message


# --- space: large single colouring spaces ------------------------------------

# (subcommand, cycle length, k, q): 0.24-0.27M homs for the first two; the
# next three (67-100k) cost about the same and run twice, the second time on
# the cycle relabelled v -> a*v mod n, so that the request tail falls inside
# their 24 samples; the last four hold 32-57k.  Both verdicts occur.
SPACE = (("mixing", 7, 11, 3), ("components", 7, 13, 4),
         ("components", 7, 10, 3), ("components", 8, 7, 2), ("mixing", 5, 13, 2),
         ("mixing", 6, 9, 2), ("mixing", 5, 11, 2), ("components", 5, 14, 3),
         ("mixing", 6, 11, 3))
SPACE_RELABELLED = SPACE[2:5]
SPACE_SMOKE = (("mixing", 5, 7, 2), ("components", 6, 7, 2))


def _space(rng, workdir, golden, smoke):
    out = []
    spaces = [(x, 1) for x in SPACE_SMOKE] if smoke else \
        [(x, 1) for x in SPACE] + [(x, 2 if x[1] % 2 else 3) for x in SPACE_RELABELLED]
    for (cmd, n, k, q), a in spaces:
        assert gcd(a, n) == 1
        src = sorted(tuple(sorted((a * u % n, a * v % n))) for u, v in oracle.cycle_edges(n))
        tgt = oracle.circ_edges(k, q)
        # both ends are stiff, so fold-based shortcuts cannot apply here
        if not (oracle.fold_free(oracle.adjacency(n, src))
                and oracle.fold_free(oracle.adjacency(k, tgt))):
            raise AssertionError(f"C_{n} -> G_{{{k},{q}}} is not stiff")
        name = f"C_{n}" + ("" if a == 1 else f"x{a}")
        spec = _write_graph(workdir, name, n, src)
        target = f"circ:{k}/{q}"

        def check(text, cmd=cmd, n=n, k=k, q=q, src=src, tgt=tgt):
            d = json.loads(text)
            count = d["hom_count"] if cmd == "mixing" else d["total"]
            want = oracle.closed_walks(n, k, tgt)
            if count != want:
                return f"hom count {count} != trace(A^{n}) = {want}"
            forced = oracle.forced_verdict(n, src, k, q)
            got = d["verdict"] if cmd == "mixing" else (
                "Mixing" if d["mixing"] else "NotMixing")
            return _problem(forced in (None, got), f"verdict {got}, bounds force {forced}")

        out.append(Request(f"{cmd} {name} {target}", cmd,
                           argv=_cli(cmd, "--graph", spec, "--target", target),
                           check=check,
                           inputs={"g": Graph(n, src, name=name),
                                   "h": circular_clique(k, q)}))
    return out


# --- sweep: the criterion-12 population --------------------------------------

SWEEP_FRACS = tuple((k, q) for q in range(1, 5) for k in range(2 * q, 8)
                    if gcd(k, q) == 1)
SWEEP_SMOKE_FRACS = ((2, 1), (3, 1), (5, 2))


def small_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    """One graph per isomorphism class on at most five vertices (52)."""
    with open(HERE / "graphs5.json", encoding="utf-8") as fh:
        return [(n, [tuple(e) for e in edges]) for n, edges in json.load(fh)]


def _is_colouring(edges, image, k: int, q: int) -> bool:
    return all(q <= (image[u] - image[v]) % k <= k - q for u, v in edges)


def _sweep(rng, workdir, golden, smoke):
    fracs = SWEEP_SMOKE_FRACS if smoke else SWEEP_FRACS
    graphs = small_graphs()[:10] if smoke else small_graphs()
    frac_text = ",".join(f"{k}/{q}" for k, q in fracs)
    out = []
    for i, (n, edges) in enumerate(graphs):
        name = f"S{i:02d}"
        spec = _write_graph(workdir, name, n, edges)
        g = Graph(n, edges, name=name)

        def check_scan(text, n=n, edges=edges):
            rows = json.loads(text)["rows"]
            if [(r["k"], r["q"]) for r in rows] != list(fracs):
                return "scan rows do not match the fraction list"
            for r in rows:
                forced = oracle.forced_verdict(n, edges, r["k"], r["q"])
                if forced is None:
                    continue
                if forced == "NotMixing" and not oracle.has_colouring(n, edges, r["k"], r["q"]):
                    forced = "NoColourings"
                if r["verdict"] != forced:
                    return f"{r['value']}: {r['verdict']}, bounds force {forced}"
            return None

        out.append(Request(f"scan {name} {frac_text}", "scan",
                           argv=_cli("scan", "--graph", spec, "--fracs", frac_text),
                           check=check_scan, inputs={"g": g, "fracs": fracs}))
        if not edges or oracle.is_bipartite(n, edges):
            continue
        omega = oracle.clique_number(n, edges)
        for k, q in fracs:
            if Fraction(k, q) >= max(4, omega + 1) or not oracle.has_colouring(n, edges, k, q):
                continue

            def check_cert(text, n=n, edges=edges, k=k, q=q):
                d = json.loads(text)
                if not d["certified"]:
                    return None
                for label in ("colouring", "reflection"):
                    image = [int(c) for c in d[label].split(",")]
                    if len(image) != n or not _is_colouring(edges, image, k, q):
                        return f"{label} is not a ({k},{q})-colouring"
                if not set(d["cycle"]) <= set(range(n)):
                    return "certificate cycle leaves the graph"
                return _problem(d["sigma"] != d["sigma_reflection"],
                                "certified with equal winding totals")

            out.append(Request(f"certify {name} {k}/{q}", "certify",
                               argv=_cli("certify-nonmixing", "--graph", spec,
                                         "--frac", f"{k}/{q}"),
                               check=check_cert, inputs={"g": g, "k": k, "q": q}))
    return out


# --- retract: folds, dismantlability, cores, the ring construction -----------

def _random_tree(rng, n):
    return [(rng.randrange(v), v) for v in range(1, n)]


def _copwin(rng, n):
    """Reflexive and dismantlable by construction: each new vertex's closed
    neighbourhood sits inside that of an earlier vertex."""
    adj = [{0}]
    for v in range(1, n):
        u = rng.randrange(v)
        near = sorted(adj[u])
        picks = {u} | set(rng.sample(near, min(len(near), rng.randint(0, 2))))
        adj.append({v} | picks)
        for w in picks:
            adj[w].add(v)
    return sorted({(min(u, v), max(u, v)) for v in range(n) for u in adj[v]})


def _cycle_with_trees(rng, n, m=8):
    """Reflexive C_m with pendant trees; it folds down to the reflexive C_m."""
    edges = oracle.cycle_edges(m) + [(rng.randrange(v), v) for v in range(m, n)]
    return edges + [(v, v) for v in range(n)]


def _retract(rng, workdir, golden, smoke):
    out = []
    # one size, so that the eight fold requests form one cluster of similar
    # cost, with radius_centre and the longer layered checks: the request
    # tail of retract_extend falls inside its 40-odd samples, below the four
    # samples each of the criterion-11 ring and the K2 x P_6 core
    sizes = {"tree": (30,), "copwin": (20,), "cyc": (20,)} if smoke else \
        {"tree": (250, 250), "copwin": (250,), "cyc": (250,)}
    # kind -> (builder, terminal size, dismantlable)
    kinds = {"tree": (lambda n: _random_tree(rng, n), 2, False),
             "copwin": (lambda n: _copwin(rng, n), 1, True),
             "cyc": (lambda n: _cycle_with_trees(rng, n), 8, False)}
    for kind, (build, terminal_n, dismantlable) in kinds.items():
        for n in sizes[kind]:
            edges = build(n)
            name = f"{kind}{n}-{len(out)}"
            spec = _write_graph(workdir, name, n, edges)
            g = Graph(n, edges, name=name)

            def check_stiff(text, n=n, edges=edges, terminal_n=terminal_n):
                d = json.loads(text)
                steps = [(s["removed"], s["absorber"]) for s in d["steps"]]
                try:
                    rows = oracle.replay_folds(n, oracle.adjacency(n, edges), steps)
                except ValueError as e:
                    return str(e)
                term = d["terminal"]
                want = sorted((u, v) for u in range(len(rows)) for v in rows[u] if u <= v)
                if term["n"] != len(rows) or sorted(map(tuple, term["edges"])) != want:
                    return "terminal differs from the replayed folds"
                if not oracle.fold_free(rows):
                    return "terminal still has a fold"
                return _problem(term["n"] == terminal_n,
                                f"terminal has {term['n']} vertices, want {terminal_n}")

            def check_dism(text, want=dismantlable):
                got = json.loads(text)["value"]
                return _problem(got == want, f"dismantlable {got}, want {want}")

            for op, check in (("stiff", check_stiff), ("dismantlable", check_dism)):
                out.append(Request(f"structure {op} {name}", op, seeded=True,
                                   argv=_cli("structure", "--graph", spec, "--op", op),
                                   check=check, inputs={"g": g}))

    for m in (3, 4) if smoke else (3, 4, 5, 6):
        edges = oracle.ladder_edges(m)
        name = f"ladder{m}"
        spec = _write_graph(workdir, name, 2 * m, edges)

        def check_core(text, adj=oracle.adjacency(2 * m, edges)):
            d = json.loads(text)
            a, b = d["vertices"] if d["n"] == 2 else (0, 0)
            # a bipartite graph with an edge has K2 as its core
            return _problem(b in adj[a], f"core {d['vertices']} is not an edge")

        out.append(Request(f"structure core {name}", "core",
                           argv=_cli("structure", "--graph", spec, "--op", "core"),
                           check=check_core, inputs={"g": Graph(2 * m, edges)}))

    # criterion 11: two pinned edge copies of the ladder K2 x P_7 at the
    # computed separation bound 6, walked towards the centre (0, 1) of
    # K2 -> K3.  Its core_of takes seconds, which drowns the ring layer's own
    # work, so the traced run measures extension.ring_s on the same
    # construction over the path P_7, whose core is cheap.
    m = 7
    rings = (("path7", path_graph(m), ((0, 1), (1, 0), (m - 2, 1), (m - 1, 0)),
              ((0, 1), (m - 2, m - 1)), "extension.ring"),)
    if not smoke:
        rings += (("ladder7", Graph(2 * m, oracle.ladder_edges(m)),
                   ((0, 1), (m, 0), (m - 1, 1), (2 * m - 1, 0)),
                   ((0, m), (m - 1, 2 * m - 1)), "extension.ring_criterion11"),)
    centre = Hom(2, 3, (0, 1))
    for name, host, pins, groups, root in rings:
        inst = PrecolouringInstance(host, complete_graph(3), pins, groups=groups)

        def check_ring(text, edges=list(host.edges()), pins=pins,
                       adj=oracle.adjacency(3, oracle.circ_edges(3, 1))):
            image = [int(c) for c in text.split(",")]
            if not oracle.is_hom(edges, adj, image):
                return "ring extension is not a homomorphism"
            return _problem(all(image[v] == c for v, c in pins), "ring moved a pin")

        out.append(Request(f"ring {name}", "ring",
                           call=lambda inst=inst: greedy_ring_extension(inst, centre, cap=CAP),
                           render=lambda hom: ",".join(map(str, hom.image)),
                           check=check_ring,
                           inputs={"inst": inst, "centre": centre, "root": root}))
    return out


# --- extend: pinned search and homotopy --------------------------------------

G62X_EDGES = oracle.circ_edges(6, 2) + [(0, 6), (1, 6), (4, 6), (5, 6)]
# (layers, homotopy distance of the end maps); None: different classes
LAYERED = ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (4, None))
# P_n -> G_{k,q}; radius_centre on P_7 -> K_3 (2.5 s) is left to the
# radius bound, where the core of P_7 is an edge
RADIUS = ((6, 3, 1), (7, 3, 1), (3, 7, 2))
RADIUS_CENTRE = ((6, 3, 1), (3, 7, 2))


def layered_space() -> list[tuple[int, ...]]:
    """HOM(C_5, G_{7,2}) in lexicographic order (910 maps)."""
    return oracle.homs(5, oracle.cycle_edges(5), 7, oracle.circ_edges(7, 2))


def _extend(rng, workdir, golden, smoke):
    out = []
    k4 = oracle.adjacency(4, oracle.circ_edges(4, 1))
    outer = oracle.homs(6, oracle.circ_edges(6, 2), 4, oracle.circ_edges(4, 1))
    for image in outer[:12] if smoke else outer:
        pins = [f"{v}={c}" for v, c in enumerate(image)]

        def check_extend(text, image=image):
            d = json.loads(text)
            # only vertex 6 is free; it sees the colours of 0, 1, 4 and 5
            want = "Extended" if len({image[v] for v in (0, 1, 4, 5)}) < 4 else "NoExtension"
            if d["status"] != want:
                return f"{d['status']}, want {want}"
            if want == "Extended":
                ext = [int(c) for c in d["extension"].split(",")]
                if list(ext[:6]) != list(image) or not oracle.is_hom(G62X_EDGES, k4, ext):
                    return "extension is not a homomorphism extending the pins"
            return None

        argv = ["extend", "--graph", "gadget:g62x", "--target", "clique:4"]
        for p in pins:
            argv += ["--pin", p]
        out.append(Request("extend g62x " + ",".join(map(str, image)), "extend",
                           argv=_cli(*argv), check=check_extend,
                           inputs={"pins": tuple(enumerate(image))}))

    table = golden.get("layered")
    if table is None:
        raise RuntimeError("golden.json has no layered distance table; run record.py")
    space = layered_space()
    c5, g72 = Graph(5, oracle.cycle_edges(5), name="C_5"), circular_clique(7, 2)
    for n, d in LAYERED[:2] if smoke else LAYERED:
        start = rng.randrange(len(table["pool"]))
        dist = table["dist"][start]
        ends = [j for j, c in enumerate(dist) if c == ("-" if d is None else str(d))]
        s, e = table["pool"][start], rng.choice(ends)
        f_start, f_end = Hom(5, 7, space[s]), Hom(5, 7, space[e])
        out.append(Request(
            f"layered C_5 G_{{7,2}} n={n} {s}->{e}", "layered", seeded=True,
            call=lambda a=f_start, b=f_end, n=n: layered_extension_check(
                c5, g72, a, b, n, cap=CAP),
            # the end maps sit at homotopy distance d, so they extend over
            # n layers exactly when d < n
            check=lambda text, want=str(d is not None and d < n): _problem(
                text == want, f"{text}, want {want}"),
            inputs={"g": c5, "h": g72, "f_start": f_start, "f_end": f_end, "n": n}))

    for pn, k, q in RADIUS[:1] if smoke else RADIUS:
        p, h = path_graph(pn), circular_clique(k, q)
        h_adj = oracle.adjacency(k, oracle.circ_edges(k, q))
        p_edges = [(i, i + 1) for i in range(pn - 1)]
        label = f"P_{pn} G_{{{k},{q}}}"

        def check_centre(text, h_adj=h_adj, p_edges=p_edges):
            image = [int(c) for c in text.split()[1].split(",")]
            return _problem(oracle.is_hom(p_edges, h_adj, image), "centre is not a homomorphism")

        def check_bound(text):
            _, radius, _, bound = text.split()
            return _problem(int(bound) == 2 * int(radius), "bound is not twice the radius")

        if (pn, k, q) in RADIUS_CENTRE:
            out.append(Request(f"radius_centre {label}", "radius_centre",
                               call=lambda p=p, h=h: radius_centre(p, h, cap=CAP),
                               render=lambda rc: f"{rc[0]} {','.join(map(str, rc[1].image))}",
                               check=check_centre, inputs={"g": p, "h": h}))
        out.append(Request(f"core_ext_radius_bound {label}", "radius_bound",
                           call=lambda p=p, h=h: core_ext_radius_bound(p, h, cap=CAP),
                           render=lambda rb: " ".join((
                               ",".join(map(str, rb.core.vertices)), str(rb.radius),
                               ",".join(map(str, rb.centre.image)), str(rb.bound))),
                           check=check_bound, inputs={"g": p, "h": h}))
    return out


# The four workloads on their own, and the two pairs that BENCHMARK.json
# lists: space with sweep (enumeration and partition at both space sizes) and
# retract with extend (structure and pinned search).  Two workloads let each
# run measure for longer, which narrows the run-to-run spread on a machine
# whose speed drifts; every layer stays on one of them.
PARTS = {"space": (_space,), "sweep": (_sweep,), "retract": (_retract,),
         "extend": (_extend,), "space_sweep": (_space, _sweep),
         "retract_extend": (_retract, _extend)}
WORKLOADS = tuple(PARTS)
SINGLE = ("space", "sweep", "retract", "extend")


def build(workload: str, seed: int, workdir: Path, golden: dict,
          smoke: bool = False) -> list[Request]:
    """The requests of one pass, in the seed's order."""
    rng = random.Random(f"{workload}/{seed}")
    requests = [req for part in PARTS[workload] for req in part(rng, workdir, golden, smoke)]
    rng.shuffle(requests)
    return requests
