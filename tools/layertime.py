#!/usr/bin/env python3
"""Layer timer: the phases that ``circmix.stats`` records, timed in-process.

The sweep runs ``is_mixing`` on each row of the scan population: the 52
graphs of ``perfbench/graphs5.json``, S00-S51 in file order, at each coprime
k/q with q <= 4 and 2q <= k < 8.  A row gives what answered it (``by``: a
rung, ``join``, or ``boxes`` when there is no colouring), its verdict and
the least seconds of each phase.  Per ``--graph`` spec: reading it,
``stiff_reduction`` (phase ``folds``), ``is_dismantlable`` (phase
``endomorphisms``), ``cli._json`` on what ``structure --op stiff`` prints,
and both ``structure`` requests whole.  ``--size``: the non-blank lines of
``src`` and the median ms to ``compile()`` them.  Times are the least of
``--repeat`` warm runs under ``stats.recording()``.  To compare checkouts:

    python3 tools/layertime.py --src OLD/src > old.json
    python3 tools/layertime.py --src NEW/src > new.json

Standard library only.
"""

import argparse
import io
import json
import sys
import timeit
from collections import Counter
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
FRACS = [(k, q) for q in range(1, 5) for k in range(2 * q, 8) if gcd(k, q) == 1]


def best(run, repeat: int) -> tuple[float, dict]:
    """The least seconds of ``repeat`` calls of ``run``, and each phase's
    ``[count, least seconds]``."""
    from circmix import stats

    least, phases = float("inf"), {}
    for _ in range(repeat):
        with stats.recording() as recorded:
            start = perf_counter()
            run()
            least = min(least, perf_counter() - start)
        for name, (count, seconds) in recorded.items():
            phases[name] = [count, min(seconds, phases.get(name, [0, seconds])[1])]
    return least, phases


def sweep(names, repeat: int) -> dict:
    from circmix import Graph, circular_clique, is_mixing

    with open(ROOT / "perfbench" / "graphs5.json", encoding="utf-8") as fh:
        graphs = [Graph(n, [tuple(e) for e in edges], name=f"S{i:02d}")
                  for i, (n, edges) in enumerate(json.load(fh))]
    rows = {}
    for g in graphs:
        for k, q in FRACS if names is None or g.name in names else ():
            h = circular_clique(k, q)
            phases = best(lambda: is_mixing(g, h), repeat)[1]
            by = next((name for name in phases if name.startswith("rule.")),
                      "join" if "join" in phases else "boxes")
            rows[f"{g.name}:{k}/{q}"] = {"by": by, "verdict": is_mixing(g, h).name,
                                         **{name: s for name, (_, s) in phases.items()}}
    return {"rows": rows, "by": Counter(row["by"] for row in rows.values())}


def printed(argv) -> str:
    """What ``cli.main(argv)`` prints; it must exit 0."""
    from circmix import cli

    with redirect_stdout(io.StringIO()) as out:
        if cli.main(argv) != 0:
            raise SystemExit(f"{' '.join(argv)} failed")
    return out.getvalue()


def time_spec(spec: str, repeat: int) -> dict:
    from circmix import cli, resolve_graph_spec, structure

    g = resolve_graph_spec(spec)
    stiff, dismantlable = (["structure", "--graph", spec, "--op", op]
                           for op in ("stiff", "dismantlable"))
    payload = json.loads(printed(stiff))
    out = {"n": g.n, "read_s": best(lambda: resolve_graph_spec(spec), repeat)[0]}
    out["stiff_reduction_s"], phases = best(lambda: structure.stiff_reduction(g), repeat)
    out["folds"] = phases["folds"]
    out["is_dismantlable_s"], phases = best(lambda: structure.is_dismantlable(g), repeat)
    out["endomorphisms"] = phases["endomorphisms"]
    out["stiff_json_s"] = best(lambda: cli._json(payload), repeat)[0]
    out["main_stiff_s"] = best(lambda: printed(stiff), repeat)[0]
    out["main_dismantlable_s"] = best(lambda: printed(dismantlable), repeat)[0]
    return out


def size(src: Path, repeat: int) -> dict:
    texts = [(path.read_text(encoding="utf-8"), str(path)) for path in sorted(src.rglob("*.py"))]
    times = timeit.repeat(lambda: [compile(text, name, "exec") for text, name in texts],
                          repeat=repeat, number=1)
    return {"lines": sum(1 for text, _ in texts for line in text.splitlines() if line.strip()),
            "compile_ms": round(median(times) * 1000, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the checkout's src directory")
    parser.add_argument("--sweep", action="append", metavar="NAME",
                        help="sweep these graphs only (repeatable; all when no mode is named)")
    parser.add_argument("--graph", action="append", default=[], help="a graph spec (repeatable)")
    parser.add_argument("--size", action="store_true", help="measure src")
    parser.add_argument("--repeat", type=int, default=20, help="runs per time (20)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    out = {}
    if args.size:
        out["size"] = size(Path(args.src), args.repeat)
    if args.graph:
        out["specs"] = {spec: time_spec(spec, args.repeat) for spec in args.graph}
    if args.sweep or not out:
        out["sweep"] = sweep(args.sweep, args.repeat)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
