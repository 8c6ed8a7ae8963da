"""Summarise the stamped results of many runs, per workload and metric.

    python3 perfbench/summarize.py [--out perfbench/baseline/baseline.json]

Reads ``perfbench/results/*.json`` (smoke runs excluded) and prints, for
every metric of every workload, the median, the quartiles and the run count
across runs, with the spread (q3 - q1) / median next to the bound that
BENCHMARK.json fixes.  A per-layer self time is marked in the runs where it
was not clearly above 0.  With ``--out`` it writes the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--results", default=str(HERE / "results"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {}
    if BENCHMARK.is_file():
        spec = json.loads(BENCHMARK.read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[tuple[str, str], list[dict]] = {}
    for path in sorted(Path(args.results).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec["stamp"]["smoke"]:
            continue
        kind = "per_layer" if rec["stamp"]["trace"] else "end_to_end"
        runs.setdefault((rec["stamp"]["workload"], kind), []).append(rec)

    table: dict = {}
    for (workload, kind), recs in sorted(runs.items()):
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print(f"== {workload} {kind}: {len(recs)} runs, seeds "
              f"{sorted(r['stamp']['seed'] for r in recs)}, failed {failed} of {attempted}")
        entry = table.setdefault(workload, {})[kind] = {
            "seeds": sorted(r["stamp"]["seed"] for r in recs),
            "failed": failed, "attempted": attempted}
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][name]["unit"]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "runs": len(values), "unit": unit}
            note = ""
            flagged = sum(name in (r.get("noisy") or ()) for r in recs)
            if flagged:
                entry[name]["runs_not_clearly_above_0"] = flagged
                note = f"  not clearly above 0 in {flagged} of {len(recs)} runs"
            if name in bounds:
                note = f"  bound {bounds[name]}" + (
                    "  OVER A THIRD OF THE BOUND" if spread > bounds[name] / 3 else "")
            print(f"  {name:30s} {med:12.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f}{note}")
    if args.out:
        stamps = [r["stamp"] for recs in runs.values() for r in recs]
        out = {"python": sorted({s["python"] for s in stamps}),
               "nproc": sorted({s["nproc"] for s in stamps}),
               "commit": sorted({s["commit"] for s in stamps}),
               "load1_at_start": [min(s["load1_at_start"] for s in stamps),
                                  max(s["load1_at_start"] for s in stamps)],
               "workloads": table}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
