#!/usr/bin/env python3
"""Row timer: boxes, join and representatives per scan row that joins.

For each row of the scan population, the 52 graphs of at most five
vertices in ``perfbench/graphs5.json`` (named S00-S51 in file order) at
each coprime k/q with q <= 4 and 2q <= k < 8, this times the three steps
of a row that ``circular.mixing_scan`` joins: the box search
(``homs._boxes``), the join (``homgraph._join``) and, on a NotMixing row,
the two least classes (``homgraph._class_reps`` with ``keep=2``).  Which
rows join is the scan's own choice: one scan of each graph runs with the
three steps wrapped to record their arguments, and each step is then
timed on those arguments, warm, in-process, as the best of 20 runs.  The
result is one JSON object.  To compare two checkouts:

    python3 tools/rowtime.py --src OLD/src > old.json
    python3 tools/rowtime.py --src NEW/src > new.json

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from math import gcd
from pathlib import Path
from time import perf_counter_ns
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
FRACS = [(k, q) for q in range(1, 5) for k in range(2 * q, 8) if gcd(k, q) == 1]
REPEAT = 20
STEPS = ("_boxes", "_join", "_class_reps")


def population():
    """The 52 graphs of ``perfbench/graphs5.json``, named S00-S51."""
    from circmix import Graph

    with open(ROOT / "perfbench" / "graphs5.json", encoding="utf-8") as fh:
        data = json.load(fh)
    return [Graph(n, [tuple(e) for e in edges], name=f"S{i:02d}")
            for i, (n, edges) in enumerate(data)]


def best(run) -> float:
    """The least time of ``REPEAT`` calls of ``run``, in microseconds."""
    times = []
    for _ in range(REPEAT):
        start = perf_counter_ns()
        run()
        times.append(perf_counter_ns() - start)
    return min(times) / 1000


def recorded_rows(g):
    """``(k, q, boxes call, join call, reps call or None)`` for each row of
    ``mixing_scan(g, FRACS)`` that joins, each call as ``(args, kwargs)``."""
    from circmix import homgraph
    from circmix.circular import mixing_scan
    from circmix.graphs import _clique_parameters

    calls = []

    def recorder(name, step):
        def run(*args, **kwargs):
            calls.append((name, args, kwargs))
            return step(*args, **kwargs)
        return run

    with ExitStack() as stack:
        for name in STEPS:
            step = getattr(homgraph, name)
            stack.enter_context(mock.patch.object(homgraph, name, recorder(name, step)))
        mixing_scan(g, FRACS)
    rows, boxes = [], None
    for p, (name, args, kwargs) in enumerate(calls):
        if name == "_boxes":
            boxes = args, kwargs
        elif name == "_join":
            after = calls[p + 1] if p + 1 < len(calls) else None
            reps = after[1:] if after and after[0] == "_class_reps" else None
            rows.append((*_clique_parameters(args[1]), boxes, (args, kwargs), reps))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src directory of the checkout to time")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from circmix import homgraph

    out = {}
    for g in population():
        for k, q, boxes, join, reps in recorded_rows(g):
            out[f"{g.name}:{k}/{q}"] = {
                "verdict": "Mixing" if reps is None else "NotMixing",
                "boxes_us": round(best(lambda: list(homgraph._boxes(*boxes[0], **boxes[1])[1])), 1),
                "join_us": round(best(lambda: homgraph._join(*join[0], **join[1])), 1),
                "reps_us": None if reps is None else round(
                    best(lambda: homgraph._class_reps(*reps[0], **reps[1])), 1)}
    totals = {key: round(sum(row[key] or 0 for row in out.values()), 1)
              for key in ("boxes_us", "join_us", "reps_us")}
    print(json.dumps({"rows": out, "totals": totals}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
