#!/usr/bin/env python3
"""fairdiv benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

``--trace 0`` runs whole passes of the seeded task list until ``--seconds``
have passed and prints the end-to-end metrics, timed in host-speed-corrected
nominal seconds (see ``hostclock.py``). ``--trace 1`` runs untraced
passes for ``--seconds``, then exactly one traced pass, and prints the
per-layer metrics from that pass (no end-to-end number comes from a traced
run); its spans are written to ``perfbench/out/``.

Every task's output is checked against known answers and against the
output recorded in ``perfbench/expected/``; a mismatch or an exception
fails that task and the run goes on. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 11
# How strongly setup time follows host speed: the least-squares slope of
# log(setup time) on log(host speed) over 1320 setup runs on a shared
# 2-vCPU virtual machine (speed 0.47..1.10 of nominal) was 0.36-0.38.
# Start-up is import and file work more than the interpreter-bound
# arithmetic the host sampler times, so full correction (1.0) overshoots:
# ten-run medians then moved by up to 38% across sets, against 10% here.
SETUP_SPEED_ELASTICITY = 0.4

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the task list, then exit (times setup_s)")
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def environment(**run) -> dict:
    """What is recorded with every result, plus the run's own settings."""
    return {
        "loop": "closed, 1 client",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **run,
    }


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, math.ceil(n * q / 100))


def measure_setup(args, hostclock) -> float:
    """Median nominal time of fresh processes that start the interpreter,
    import fairdiv and build the seeded task list.

    The children run pinned to this process's CPU, and each is scaled by
    the host speed sampled on that CPU just before and just after it (a
    sampler running beside the child would measure the other CPU), raised
    to ``SETUP_SPEED_ELASTICITY``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        times = []
        for _ in range(SETUP_RUNS):
            before = hostclock.spot_speed()
            start = time.perf_counter()
            subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
            end = time.perf_counter()
            speed = (before + hostclock.spot_speed()) / 2
            times.append((end - start) * speed ** SETUP_SPEED_ELASTICITY)
    finally:
        os.sched_setaffinity(0, affinity)
    return statistics.median(times)


def end_to_end(loop, clock, setup_s: float) -> tuple[dict, list[str]]:
    nominal = [clock.nominal(start, end) for start, end in loop.spans]
    lat = sorted(nominal)
    values = {
        "setup_s": setup_s,
        # median over passes: a pass the host correction missed does not move it
        "tasks_per_s": statistics.median(
            passed / sum(nominal[first:first + len(loop.tasks)])
            for first, passed, _, _ in loop.passes),
        "task_p50_ms": lat[rank(len(lat), 50) - 1] * 1e3,
        "task_p90_ms": lat[rank(len(lat), 90) - 1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes",
        "tasks_per_s": f"median of {len(loop.passes)} passes of {len(loop.tasks)} tasks, "
                       f"{sum(nominal):.3f} s in all",
        "task_p50_ms": f"{len(lat)} samples",
        "task_p90_ms": f"{len(lat)} samples, {len(lat) - rank(len(lat), 90)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"{name} {values[name]:.6g} {unit}  ({notes[name]})"
             for name, unit in END_TO_END_UNITS.items()]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def per_layer(loop, runner, args) -> tuple[dict, list[str]]:
    import tracer as tracing

    untraced = statistics.median(end - start for _, _, start, end in loop.passes)
    tracer = tracing.traced_pass(loop, runner)
    _, _, start, end = loop.passes[-1]
    traced = end - start
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced / untraced
    spans_path = os.path.join(runner.out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write_spans(spans_path)

    bases = tracer.bases()
    bases["trace.overhead_ratio"] = (f"traced pass {traced:.3f} s / "
                                     f"median untraced pass {untraced:.3f} s, wall clock")
    units = tracing.metric_units()
    lines = [f"{name} {values[name]:.6g} {units[name]}"
             + (f"  ({bases[name]})" if name in bases else "") for name in units]
    lines.append(f"# spans: {len(tracer.span_start)} written to "
                 f"{os.path.relpath(spans_path, ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairdiv", "__init__.py")):
        print(f"error: no fairdiv source tree at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tasks = workloads.build_pass(args.workload, args.seed)
    if args.setup_only:
        return 0

    runner = workloads.Runner(args.workload)
    loop = workloads.Loop(tasks, workloads.load_expected(args.workload))
    try:
        if args.trace:
            loop.run_for(args.seconds, runner.run)
            metrics, lines = per_layer(loop, runner, args)
        else:
            import hostclock

            setup_s = measure_setup(args, hostclock)
            with hostclock.HostClock() as clock:
                loop.run_for(args.seconds, runner.run)
            metrics, lines = end_to_end(loop, clock, setup_s)
    finally:
        runner.close()

    print("# env " + json.dumps(environment(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace),
        sort_keys=True))
    for line in lines:
        print(line)
    print(f"# failed {loop.failed} of {loop.attempted} attempted")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
