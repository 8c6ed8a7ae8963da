"""Outside-in spans for the traced run, and the per-layer metrics they give.

Nothing inside the package is instrumented.  For each request the traced
run first makes the same call as the untraced run (the root span), then
calls, on the same inputs, the public functions of the layers that call
makes internally, each in its own span.  A span's parent is the call that
contains it logically, so a layer's self time is its span's duration minus
its children's durations; for example the colour partition is
``components`` minus ``enumerate_homs``.  Each request and its layer calls
are run several times back to back, and every span keeps its shortest
duration, so that a self time is a difference of minimums measured side by
side.  Spans are kept in memory and reduced to metrics when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from circmix.circular import mixing_scan
from circmix.extension import PrecolouringInstance, extend
from circmix.fixtures import gadget_g62x
from circmix.graphs import (circular_clique, clique_number, colouring_number,
                            complete_graph, degrees, extension_product,
                            is_bipartite, path_graph)
from circmix.homgraph import components, homotopy_path, radius_centre
from circmix.homs import enumerate_homs, first_hom
from circmix.structure import core_of, is_dismantlable, stiff_reduction
from circmix.winding import nonmixing_certificate

from plan import CAP


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "counts")

    def __init__(self, name, parent, rid):
        self.name, self.parent, self.rid = name, parent, rid
        self.start = self.end = 0.0
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _self_times(spans) -> dict[str, float]:
    """Each layer's summed span durations minus those of its children."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
        if s.parent is not None:
            out[s.parent.name] -= s.duration
    return out


class Tracer:
    """Spans of one run: name, start, end, parent, request id, counts."""

    REPEATS = 3  # repetitions of each request and its layer calls, at least
    MIN_S = 0.01  # ... and until this long has passed
    MAX_REPEATS = 20

    def __init__(self):
        self.spans: list[Span] = []
        self.rid = -1  # -1: set-up, before the first request
        # layer -> its self time summed over the requests, per repetition
        self.rep_self: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        s = Span(name, parent, self.rid)
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()

    def repeated(self, once) -> list:
        """Run ``once`` (one request and its layer calls) back to back, at
        least REPEATS times and until the request itself has taken MIN_S
        seconds, and keep,
        for each span, its shortest duration; return what each call of
        ``once`` returned.  A parent and its children are timed alternately,
        so a thin layer's self time is a difference of minimums taken side
        by side, not of two calls made seconds apart on a machine whose
        speed drifts.  Short requests get more repetitions, since their
        thin layers are the shortest."""
        reps, returned = [], []
        spent = 0.0  # in the request itself, its root span
        while len(reps) < self.REPEATS or (spent < self.MIN_S
                                           and len(reps) < self.MAX_REPEATS):
            first = len(self.spans)
            returned.append(once())
            reps.append(self.spans[first:])
            del self.spans[first:]
            spent += reps[-1][0].duration
        index = [{id(s): i for i, s in enumerate(rep)} for rep in reps]
        shapes = {tuple((s.name, None if s.parent is None else idx[id(s.parent)])
                        for s in rep) for rep, idx in zip(reps, index)}
        if len(shapes) != 1:
            raise RuntimeError("the layer calls differ between repetitions")
        merged: list[Span] = []
        for i, s in enumerate(reps[0]):
            parent = None if s.parent is None else merged[index[0][id(s.parent)]]
            m = Span(s.name, parent, s.rid)
            m.end = min(rep[i].duration for rep in reps)
            m.counts = s.counts
            merged.append(m)
        self.spans.extend(merged)
        # per-repetition self times for noisy(), over the first REPEATS
        for r, rep in enumerate(reps[:self.REPEATS]):
            for name, t in _self_times(rep).items():
                self.rep_self.setdefault(name, [0.0] * self.REPEATS)[r] += t
        return returned

    def noisy(self) -> list[str]:
        """Layers whose self time is not clearly above 0: the estimate, or
        the self time summed over one of the first REPEATS repetitions, is
        at most 0."""
        est = _self_times(self.spans)
        return sorted(name for name, reps in self.rep_self.items()
                      if min(reps) <= 0 or est[name] <= 0)

    def coverage(self) -> float:
        """Summed durations of the layer calls directly under each request
        over the requests' durations.  An internal call that no layer call
        replays lowers it."""
        roots = [s for s in self.spans if s.parent is None and s.rid >= 0]
        root_ids = {id(s) for s in roots}
        covered = sum(s.duration for s in self.spans if id(s.parent) in root_ids)
        return _ratio(covered, sum(s.duration for s in roots))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)


# --- one decomposition per request kind ---------------------------------------
#
# Each takes the tracer, the root span (the request itself) and the request's
# inputs, and replays the calls the root makes internally.


def _enumerate(tr, parent, g, h) -> int:
    with tr.span("homs.enumerate", parent) as s:
        space = enumerate_homs(g, h, CAP)
    s.counts["homs"] = space.count
    return space.count


def _components(tr, parent, g, h):
    with tr.span("homgraph.components", parent) as s:
        report = components(g, h, kind="colour", cap=CAP)
    s.counts.update(homs=report.total, classes=report.class_count)
    _enumerate(tr, s, g, h)


def _first_hom(tr, parent, g, h, pins=None):
    with tr.span("homs.first_hom", parent) as s:
        hom = first_hom(g, h, pins=pins, budget=CAP)
    s.counts.update(calls=1, found=hom is not None)
    return hom


def _homotopy_path(tr, parent, f, g, source, target):
    with tr.span("homgraph.homotopy_path", parent) as s:
        homotopy_path(f, g, source, target, CAP)
    if f.image != g.image:  # equal ends return before enumerating
        s.counts["bfs_homs"] = _enumerate(tr, s, source, target)


def _radius_centre(tr, parent, g, h):
    with tr.span("homgraph.radius_centre", parent) as s:
        radius_centre(g, h, CAP)
    s.counts["bfs_homs"] = _enumerate(tr, s, g, h)


def _bounds(tr, parent, g, full: bool):
    """The graph parameters the scan's theorem bounds (full) or the
    certificate's threshold test read."""
    with tr.span("graphs.bounds", parent):
        bip = is_bipartite(g)
        if full:
            colouring_number(g)
            degrees(g)
        if g.edge_count() and not bip:
            clique_number(g)


def _stiff(tr, parent, g):
    with tr.span("structure.stiff_reduction", parent) as s:
        red = stiff_reduction(g)
    s.counts.update(folds=len(red.steps), n=g.n, terminal_n=red.terminal.n)


def _core(tr, parent, g):
    with tr.span("structure.core_of", parent) as s:
        core = core_of(g, CAP)
    s.counts.update(n=g.n, core_n=core.core.n)
    return core


def _mixing(tr, root, x):
    _components(tr, root, x["g"], x["h"])


def _scan(tr, root, x):
    g = x["g"]
    with tr.span("circular.mixing_scan", root) as s:
        report = mixing_scan(g, x["fracs"], cap=CAP)
    s.counts.update(rows=len(report.rows),
                    skipped=sum(r.verdict == "Skipped" for r in report.rows))
    _bounds(tr, s, g, full=True)
    for k, q in x["fracs"]:
        _components(tr, s, g, circular_clique(k, q))


def _certify(tr, root, x):
    g, k, q = x["g"], x["k"], x["q"]
    with tr.span("winding.certificate", root) as s:
        cert = nonmixing_certificate(g, k, q, cap=CAP)
    s.counts.update(calls=1, certified=cert is not None)
    _bounds(tr, s, g, full=False)
    _first_hom(tr, s, g, circular_clique(k, q))


def _stiff_op(tr, root, x):
    _stiff(tr, root, x["g"])


def _dismantlable(tr, root, x):
    with tr.span("structure.is_dismantlable", root) as s:
        is_dismantlable(x["g"], CAP)
    _stiff(tr, s, x["g"])


def _core_op(tr, root, x):
    _core(tr, root, x["g"])


def _extend(tr, root, x):
    inst = PrecolouringInstance(gadget_g62x(), complete_graph(4), x["pins"])
    with tr.span("extension.extend", root) as s:
        result = extend(inst, cap=CAP)
    s.counts.update(calls=1, extended=result.status == "Extended")
    _first_hom(tr, s, inst.host, inst.target, inst.pin_map())


def _ring(tr, root, x):
    inst, centre = x["inst"], x["centre"]
    core = _core(tr, root, inst.host)
    gamma, pins = core.retraction.image, inst.pin_map()
    for group in inst.groups:
        partial = {gamma[v]: pins[v] for v in group}
        g_i = _first_hom(tr, root, core.core, inst.target, partial)
        _homotopy_path(tr, root, g_i, centre, core.core, inst.target)


def _layered(tr, root, x):
    g, h, n = x["g"], x["h"], x["n"]
    f_start, f_end = x["f_start"], x["f_end"]
    pins = {v * n: f_start.image[v] for v in range(g.n)}
    pins.update({v * n + n - 1: f_end.image[v] for v in range(g.n)})
    host = extension_product(g, path_graph(n))
    if all(h.has_edge(c, pins[u]) for v, c in pins.items()
           for u in host.neighbours(v) if u in pins):
        _first_hom(tr, root, host, h, pins)
    _homotopy_path(tr, root, f_start, f_end, g, h)


def _radius_centre_op(tr, root, x):
    root.counts["bfs_homs"] = _enumerate(tr, root, x["g"], x["h"])


def _radius_bound(tr, root, x):
    core = _core(tr, root, x["g"])
    _radius_centre(tr, root, core.core, x["h"])


# op -> (root span name, decomposition)
DECOMPOSE = {
    "mixing": ("cli.main", _mixing),
    "components": ("cli.main", _mixing),
    "scan": ("cli.main", _scan),
    "certify": ("cli.main", _certify),
    "stiff": ("cli.main", _stiff_op),
    "dismantlable": ("cli.main", _dismantlable),
    "core": ("cli.main", _core_op),
    "extend": ("cli.main", _extend),
    "ring": ("extension.ring", _ring),
    "layered": ("extension.layered_check", _layered),
    "radius_centre": ("homgraph.radius_centre", _radius_centre_op),
    "radius_bound": ("extension.radius_bound", _radius_bound),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metrics read from a self time -> the span it is the self time of
SELF_TIMES = {
    "homs.enumerate_s": "homs.enumerate", "homs.enumerate_ns_per_hom": "homs.enumerate",
    "homs.first_hom_s": "homs.first_hom", "homgraph.partition_s": "homgraph.components",
    "homgraph.partition_ns_per_hom": "homgraph.components",
    "homgraph.homotopy_path_s": "homgraph.homotopy_path",
    "homgraph.radius_centre_s": "homgraph.radius_centre",
    "circular.scan_self_s": "circular.mixing_scan",
    "structure.stiff_reduction_s": "structure.stiff_reduction",
    "structure.is_dismantlable_s": "structure.is_dismantlable",
    "structure.core_of_s": "structure.core_of", "winding.certificate_s": "winding.certificate",
    "extension.extend_s": "extension.extend",
    "extension.layered_check_s": "extension.layered_check",
    "extension.radius_bound_s": "extension.radius_bound", "extension.ring_s": "extension.ring",
    "graphs.bounds_s": "graphs.bounds", "cli.self_s": "cli.main",
}


def noisy_metrics(tr: Tracer) -> list[str]:
    """The self-time metrics of this run that are not clearly above 0."""
    spans = set(tr.noisy())
    return [name for name, span in SELF_TIMES.items() if span in spans]


def layer_metrics(tr: Tracer, overhead_s: float) -> dict:
    """Per-layer metrics of a traced pass; a layer the workload never calls
    reads 0."""
    self_s = _self_times(tr.spans)
    st = lambda name: self_s.get(name, 0.0)  # noqa: E731
    homs = tr.count("homs.enumerate", "homs")
    part_homs = tr.count("homgraph.components", "homs")
    fh_calls = tr.count("homs.first_hom", "calls")
    stiff_n = tr.count("structure.stiff_reduction", "n")
    core_n = tr.count("structure.core_of", "n")
    cert_calls = tr.count("winding.certificate", "calls")
    ext_calls = tr.count("extension.extend", "calls")
    return {
        "homs.enumerate_s": (st("homs.enumerate"), "s"),
        "homs.homs_enumerated": (homs, "count"),
        "homs.enumerate_ns_per_hom": (_ratio(1e9 * st("homs.enumerate"), homs), "ns"),
        "homs.first_hom_s": (st("homs.first_hom"), "s"),
        "homs.first_hom_calls": (fh_calls, "count"),
        "homs.first_hom_found_share": (_ratio(tr.count("homs.first_hom", "found"), fh_calls), "ratio"),
        "homgraph.partition_s": (st("homgraph.components"), "s"),
        "homgraph.partition_ns_per_hom": (_ratio(1e9 * st("homgraph.components"), part_homs), "ns"),
        "homgraph.classes": (tr.count("homgraph.components", "classes"), "count"),
        "homgraph.homotopy_path_s": (st("homgraph.homotopy_path"), "s"),
        "homgraph.radius_centre_s": (st("homgraph.radius_centre"), "s"),
        "homgraph.bfs_homs": (tr.count("homgraph.homotopy_path", "bfs_homs")
                              + tr.count("homgraph.radius_centre", "bfs_homs"), "count"),
        "circular.mixing_scan_s": (tr.total("circular.mixing_scan"), "s"),
        "circular.scan_self_s": (st("circular.mixing_scan"), "s"),
        "circular.scan_rows": (tr.count("circular.mixing_scan", "rows"), "count"),
        "circular.rows_skipped": (tr.count("circular.mixing_scan", "skipped"), "count"),
        "structure.stiff_reduction_s": (st("structure.stiff_reduction"), "s"),
        "structure.folds_applied": (tr.count("structure.stiff_reduction", "folds"), "count"),
        "structure.fold_shrink": (_ratio(tr.count("structure.stiff_reduction", "terminal_n"), stiff_n), "ratio"),
        "structure.is_dismantlable_s": (st("structure.is_dismantlable"), "s"),
        "structure.core_of_s": (st("structure.core_of"), "s"),
        "structure.core_shrink": (_ratio(tr.count("structure.core_of", "core_n"), core_n), "ratio"),
        "winding.certificate_s": (st("winding.certificate"), "s"),
        "winding.certified_share": (_ratio(tr.count("winding.certificate", "certified"), cert_calls), "ratio"),
        "extension.extend_s": (st("extension.extend"), "s"),
        "extension.extended_share": (_ratio(tr.count("extension.extend", "extended"), ext_calls), "ratio"),
        "extension.layered_check_s": (st("extension.layered_check"), "s"),
        "extension.radius_bound_s": (st("extension.radius_bound"), "s"),
        "extension.ring_s": (st("extension.ring"), "s"),
        "graphs.bounds_s": (st("graphs.bounds"), "s"),
        "graphs.build_s": (st("graphs.build"), "s"),
        "cli.self_s": (st("cli.main"), "s"),
        "cli.stdout_bytes": (tr.count("cli.main", "stdout_bytes"), "bytes"),
        "trace.coverage": (tr.coverage(), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    }
