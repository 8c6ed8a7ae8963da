"""Record the golden outputs the benchmark checks responses against.

    python3 perfbench/record.py

Run at the commit whose outputs are the reference.  It writes
``perfbench/golden.json``: the homotopy distances used to draw and check the
``extend`` workload's layered end pairs, computed by the benchmark's own
breadth-first search, and a digest of every response whose inputs do not
depend on the seed (full and smoke plans, default seed).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import plan as plans  # noqa: E402
from circmix import cli  # noqa: E402
from worker import execute  # noqa: E402

POOL = tuple(range(0, 910, 76))  # start maps of the layered end pairs


def layered_table() -> dict:
    space = plans.layered_space()
    adj = oracle.adjacency(7, oracle.circ_edges(7, 2))
    dist = [oracle.hom_graph_distances(space, oracle.cycle_edges(5), adj, s) for s in POOL]
    return {"pool": list(POOL),
            "dist": ["".join("-" if d < 0 else str(d) for d in row) for row in dist]}


def main() -> int:
    golden = {"layered": layered_table(), "digests": {}}
    workdir = ROOT / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in plans.SINGLE:
            for smoke in (False, True):
                for req in plans.build(workload, plans.DEFAULT_SEED, workdir, golden, smoke):
                    if req.seeded:
                        continue
                    rc, raw = execute(cli, req)
                    if rc != 0:
                        raise SystemExit(f"{req.key}: exit code {rc}")
                    text = raw if req.argv is not None else req.render(raw)
                    problem = req.check(text)
                    if problem is not None:
                        raise SystemExit(f"{req.key}: {problem}")
                    golden["digests"][req.key] = oracle.digest(text)
            print(f"{workload}: {len(golden['digests'])} digests so far", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden["digests"] = dict(sorted(golden["digests"].items()))
    with open(plans.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
