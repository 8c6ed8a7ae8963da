"""Run one workload of the circmix benchmark and print its metrics.

    python3 perfbench/run.py --workload space_sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run from the root of a checkout.  The parent process only spawns and waits:
it times set-up in several fresh workers, then lets one worker make a fixed
number of passes over the workload, and prints one line per metric
followed by the result as one JSON line (with ``--workload all``: every
workload in turn, then one JSON object of results keyed by workload).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  The request lists are sized so that the passes
take about ``run_seconds`` of BENCHMARK.json; ``--seconds`` is recorded in
the stamp but does not change the run, so that every run does the same work.  Each run also writes a stamped copy of its result under
``perfbench/results/``.  The exit code is non-zero, with no result printed,
when the checkout has no ``src/circmix`` or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
LIMIT_S = 170  # every run must end within 180 s
EXTRA_SETUPS = 5  # set-up-only workers timed for setup_s besides the measuring one
# the workloads BENCHMARK.json lists, then the four they are made of
WORKLOADS = ("space_sweep", "retract_extend", "space", "sweep", "retract", "extend")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("request_p50_ms", "ms"),
              ("request_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, bytes]:
    """Start a worker; return the seconds until it printed ``ready`` and the
    rest of its output.  The worker is always waited for."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIRCMIX_")}
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit code {proc.returncode})")
    return setup_s, rest


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "count": len(values)}


def nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """The value at the percentile and how many values lie beyond it."""
    ordered = sorted(values)
    rank = ceil(round(percentile / 100 * len(ordered), 6))  # no float slop
    i = min(len(ordered), max(1, rank)) - 1
    return ordered[i], len(ordered) - 1 - i


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args, workload: str) -> dict | None:
    """Measure one workload, print its metric lines, and return the result
    (None if the benchmark itself failed)."""
    stamp = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "python": platform.python_version(),
        "nproc": os.cpu_count(), "load1_at_start": os.getloadavg()[0],
        "commit": git_commit(),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    common = ["--workload", workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.smoke:
        common.append("--smoke")
    if args.golden:
        common += ["--golden", args.golden]
    deadline = time.perf_counter() + LIMIT_S
    try:
        setups = [spawn(common + ["--setup-only"], deadline)[0]
                  for _ in range(0 if args.smoke or args.trace else EXTRA_SETUPS)]
        setup_s, out = spawn(common, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return None
    raw = json.loads(out.decode().strip().splitlines()[-1])
    setups.append(setup_s)

    times = [t for p in raw["passes"] for t in p]
    percentile = raw["tail_percentile"]
    tail_s, beyond = nearest_rank(times, percentile)
    stats = {"setup_s": quartiles(setups), "wall_s": quartiles(raw["walls"]),
             "request_ms": quartiles([1000 * t for t in times])}
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw["layers"].items()}
    else:
        values = {"setup_s": stats["setup_s"]["median"], "wall_s": stats["wall_s"]["median"],
                  "request_p50_ms": stats["request_ms"]["median"],
                  "request_tail_ms": 1000 * tail_s,
                  "peak_rss_mb": raw["peak_rss_kb"] / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "result": result, "stats": stats,
                   "tail": {"percentile": percentile, "requests": len(times),
                            "beyond": beyond},
                   "problems": raw["problems"], "noisy": raw["noisy"], "walls": raw["walls"],
                   "request_s": raw["passes"]},
                  fh, indent=2)
        fh.write("\n")

    print(f"# {workload} seed {args.seed}: {len(raw['passes'])} passes of "
          f"{raw['requests_per_pass']} requests, python {stamp['python']}, "
          f"nproc {stamp['nproc']}, load {stamp['load1_at_start']:.2f}, "
          f"commit {stamp['commit'][:12]}")
    for problem in raw["problems"]:
        print(f"# FAILED {problem}")
    if args.trace:
        print(f"# not clearly above 0 (a difference of noisy timings): "
              f"{', '.join(raw['noisy']) or 'none'}")
    else:
        print(f"# request_tail_ms is p{percentile:.4g} of {len(times)} "
              f"requests, {beyond} beyond it")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {raw['failed'] / raw['attempted']:.6g} ratio "
          f"({raw['failed']} of {raw['attempted']} requests)")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or space, sweep, retract and extend in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long reduced plan, for the self-test")
    ap.add_argument("--golden", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "circmix" / "__init__.py").is_file():
        print(f"no circmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = {}
    for workload in WORKLOADS[2:] if args.workload == "all" else (args.workload,):
        results[workload] = run_workload(args, workload)
        if results[workload] is None:
            return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
