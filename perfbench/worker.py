"""Benchmark worker: a fresh interpreter per run, one request at a time.

Started by run.py, never by hand.  It imports circmix from the checkout's
``src/``, builds the workload's inputs and spec files, prints ``ready`` (the
parent's set-up clock stops there), then sends the plan's requests one after
another from this single thread: a closed loop with one client.  It checks
every response and ends with one JSON line of raw measurements.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_PROBLEMS = 20


def run_cli(cli, argv):
    """cli.main in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def execute(cli, req):
    """Exit code and output of one request: stdout for a CLI request, the
    returned object for a library call."""
    if req.argv is None:
        return 0, req.call()
    return run_cli(cli, req.argv)


def timed(cli, req):
    """(seconds, exit code, output); an exception is a failed request."""
    t0 = time.perf_counter()
    try:
        rc, raw = execute(cli, req)
    except Exception as exc:  # a crash is a measured failure, not a harness error
        rc, raw = None, exc
    return time.perf_counter() - t0, rc, raw


def judge(req, rc, raw, digests, oracle) -> str | None:
    """The first problem with a response, or None."""
    if rc != 0:
        return f"exit code {rc}: {raw!r}"[:300]
    text = raw if req.argv is not None else req.render(raw)
    if not req.seeded:
        want = digests.get(req.key)
        if want is None:
            return "no golden digest for this request"
        if oracle.digest(text) != want:
            return "output differs from the golden digest"
    try:
        return req.check(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed response: {exc!r}"


class Run:
    """Counts and times of one worker run."""

    def __init__(self, cli, plan, digests, oracle):
        self.cli, self.plan, self.digests, self.oracle = cli, plan, digests, oracle
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, req, rc, raw) -> None:
        self.attempted += 1
        problem = judge(req, rc, raw, self.digests, self.oracle)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{req.key}: {problem}")

    def one_pass(self):
        """Request times and pass wall time.  The heap is collected after
        each request, outside its timer and the wall, so every request
        starts as it would in a fresh CLI process."""
        times, outputs = [], []
        harness = 0.0
        start = time.perf_counter()
        for req in self.plan:
            seconds, rc, raw = timed(self.cli, req)
            t = time.perf_counter()
            gc.collect()
            harness += time.perf_counter() - t
            times.append(seconds)
            outputs.append((rc, raw))
        wall = time.perf_counter() - start - harness
        for req, (rc, raw) in zip(self.plan, outputs):
            self.record(req, rc, raw)
        return times, wall, outputs

    def threads_repeat(self, outputs) -> None:
        """Repeat the first CLI request with --threads 2: byte-identical."""
        for req, (rc, raw) in zip(self.plan, outputs):
            if req.argv is None:
                continue
            self.attempted += 1
            try:
                rc2, raw2 = run_cli(self.cli, req.argv + ["--threads", "2"])
            except Exception as exc:
                rc2, raw2 = None, exc
            if rc2 != rc or raw2 != raw:
                self.failed += 1
                self.problems.append(f"{req.key}: output changes with --threads 2")
            return


def traced_pass(run: Run, tracer, tracing) -> float:
    """Each request again, as a root span, then its layers outside-in,
    repeated back to back (Tracer.repeated).  Returns the summed time of
    the first repetitions, checks not counted.  Automatic heap collection is
    off while a request repeats, so that no collection lands inside one span
    and not its twin; the heap is collected after each request."""

    def once(req) -> float:
        start = time.perf_counter()
        root_name, decompose = tracing.DECOMPOSE[req.op]
        with tracer.span(req.inputs.get("root", root_name)) as root:
            try:
                rc, raw = execute(run.cli, req)
            except Exception as exc:
                rc, raw = None, exc
        if req.argv is not None and isinstance(raw, str):
            root.counts["stdout_bytes"] = len(raw.encode("utf-8"))
        t = time.perf_counter()
        run.record(req, rc, raw)
        check = time.perf_counter() - t
        decompose(tracer, root, req.inputs)
        return time.perf_counter() - start - check

    first_reps = 0.0
    for rid, req in enumerate(run.plan):
        tracer.rid = rid
        gc.disable()
        try:
            first_reps += tracer.repeated(lambda: once(req))[0]
        except Exception as exc:  # a layer that fails on its own is a failure too
            run.failed += 1
            run.problems.append(f"{req.key}: traced layer call raised {exc!r}")
        finally:
            gc.enable()
        gc.collect()
    return first_reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--golden", default=None, help="golden file to check against")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import circmix
    if (ROOT / "src").resolve() not in Path(circmix.__file__).resolve().parents:
        print(f"circmix imported from {circmix.__file__}, not from src/", file=sys.stderr)
        return 2
    from circmix import cli
    import oracle
    import plan as plans

    golden = plans.load_golden(Path(args.golden) if args.golden else plans.GOLDEN)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            with tracer.span("graphs.build"):
                plan = plans.build(args.workload, args.seed, workdir, golden, args.smoke)
        else:
            plan = plans.build(args.workload, args.seed, workdir, golden, args.smoke)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        run = Run(cli, plan, golden["digests"], oracle)
        passes, walls = [], []
        # one pass before a traced pass, else a fixed number: the request
        # tail is a fixed rank, and it stays comparable only at one count
        for _ in range(1 if args.trace else plans.PASSES):
            times, wall, outputs = run.one_pass()
            passes.append(times)
            walls.append(wall)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # after the peak is read: with a second thread, a large request
        # (the first one, in a seed's order) takes memory of its own
        run.threads_repeat(outputs)
        layers = noisy = None
        if args.trace:
            layers = tracing.layer_metrics(tracer, traced_pass(run, tracer, tracing) - walls[0])
            noisy = tracing.noisy_metrics(tracer)
        print(json.dumps({
            "passes": passes, "walls": walls, "peak_rss_kb": peak_rss_kb,
            "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
            "requests_per_pass": len(plan), "layers": layers, "noisy": noisy,
            "tail_percentile": plans.tail_percentile(len(plan)),
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
