#!/usr/bin/env python3
"""Fold-request timer: the layers of one ``structure`` request, per graph.

For each ``--graph`` spec, this times the layers that a ``structure --op
stiff`` or ``--op dismantlable`` request passes through, warm, in-process,
as the best of 20 runs, in microseconds: reading the graph
(``fixtures.resolve_graph_spec``, which reads and parses a file spec),
``structure.stiff_reduction``, ``structure.is_dismantlable``, the report
writer (``cli._json``) on the stiff request's payload, and both requests
whole through ``cli.main``, their output discarded.  The result is one JSON
object keyed by spec.  To compare two checkouts:

    python3 tools/structime.py --src OLD/src --graph file:a.graph > old.json
    python3 tools/structime.py --src NEW/src --graph file:a.graph > new.json

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter_ns
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 20


def best(run) -> float:
    """The least time of ``REPEAT`` calls of ``run``, in microseconds."""
    times = []
    for _ in range(REPEAT):
        start = perf_counter_ns()
        run()
        times.append(perf_counter_ns() - start)
    return round(min(times) / 1000, 1)


def request(spec: str, op: str) -> list[str]:
    return ["structure", "--graph", spec, "--op", op]


def main_quietly(argv) -> None:
    """``cli.main(argv)``, its output discarded; it must exit 0."""
    from circmix import cli

    with redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"{' '.join(argv)} failed")


def stiff_payload(spec: str) -> dict:
    """The payload that ``structure --op stiff`` writes, caught at ``_emit``."""
    from circmix import cli

    payloads = []
    emit = cli._emit
    with mock.patch.object(cli, "_emit", lambda payload, args, lines:
                           payloads.append(payload) or emit(payload, args, lines)):
        main_quietly(request(spec, "stiff"))
    return payloads[0]


def time_spec(spec: str) -> dict:
    from circmix import cli, structure
    from circmix.fixtures import resolve_graph_spec

    g = resolve_graph_spec(spec)
    payload = stiff_payload(spec)
    return {
        "n": g.n,
        "read_us": best(lambda: resolve_graph_spec(spec)),
        "stiff_reduction_us": best(lambda: structure.stiff_reduction(g)),
        "is_dismantlable_us": best(lambda: structure.is_dismantlable(g)),
        "stiff_json_us": best(lambda: cli._json(payload)),
        "main_stiff_us": best(lambda: main_quietly(request(spec, "stiff"))),
        "main_dismantlable_us": best(lambda: main_quietly(request(spec, "dismantlable"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src directory of the checkout to time")
    parser.add_argument("--graph", action="append", required=True,
                        help="a graph spec, as the CLI takes it (repeatable)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    print(json.dumps({spec: time_spec(spec) for spec in args.graph}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
