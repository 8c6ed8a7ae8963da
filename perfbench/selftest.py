"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about ten seconds:

- the same seed gives an identical request list, for every workload;
- ``graphs5.json`` holds one graph per isomorphism class on <= 5 vertices;
- a seconds-long smoke size of every workload runs through ``run.py``,
  untraced and traced, with every response correct and exactly the metrics
  BENCHMARK.json names;
- a corrupted golden digest is counted as a failed request;
- in a directory holding only BENCHMARK.json and ``perfbench/``, ``run.py``
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import plan as plans  # noqa: E402


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_requests():
    golden = plans.load_golden()
    for workload in plans.WORKLOADS:
        for smoke in (False, True):
            lists = []
            for seed in (5, 5, 6):
                workdir = WORK / f"plan-{len(lists)}"
                workdir.mkdir(parents=True, exist_ok=True)
                reqs = plans.build(workload, seed, workdir, golden, smoke)
                lists.append([(r.key, r.argv and [a for a in r.argv if "file:" not in a])
                              for r in reqs])
            assert lists[0] == lists[1], f"{workload}: seed 5 gave two request lists"
            if not smoke:  # a smoke plan may be too short to reorder
                assert lists[0] != lists[2], f"{workload}: seeds 5 and 6 gave one list"


def test_small_graphs_are_the_iso_classes():
    def canon(n, edges):
        best = None
        for p in permutations(range(n)):
            form = tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            best = form if best is None or form < best else best
        return (n, best)

    classes = set()
    for n in range(1, 6):
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(slots)):
            classes.add(canon(n, [s for i, s in enumerate(slots) if bits >> i & 1]))
    stored = [canon(n, edges) for n, edges in plans.small_graphs()]
    assert len(stored) == len(set(stored)) == len(classes) == 52
    assert set(stored) == classes


def test_smoke_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    benchmarked = {w["name"] for w in spec["workloads"]}
    assert benchmarked <= set(plans.WORKLOADS)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[kind]}
        for workload in plans.WORKLOADS:
            if workload not in benchmarked:
                continue
            res = result_of(run_py("--workload", workload, "--seed", "3", "--seconds", "1",
                                   "--trace", str(trace), "--smoke"))
            assert res["correct"] and res["failed"] == 0, f"{workload}: {res}"
            assert set(res["metrics"]) == names, f"{workload}: metric names differ"


def test_corrupted_digest_fails():
    golden = plans.load_golden()
    cmd, n, k, q = plans.SPACE_SMOKE[0]
    key = f"{cmd} C_{n} circ:{k}/{q}"
    assert key in golden["digests"]
    golden["digests"][key] = "0" * 16
    bad = WORK / "golden-corrupted.json"
    bad.write_text(json.dumps(golden))
    res = result_of(run_py("--workload", "space", "--seed", "3", "--seconds", "1",
                           "--smoke", "--golden", str(bad)))
    assert not res["correct"] and res["failed"] >= 1, res


def test_bare_directory_fails():
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_py("--workload", "space", "--seed", "3", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0, "run.py succeeded without the sources"
    assert not proc.stdout.strip(), "run.py printed a result without the sources"


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        for test in tests:
            try:
                test()
                print(f"ok    {test.__name__}", flush=True)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {test.__name__}: {exc}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
