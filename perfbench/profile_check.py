#!/usr/bin/env python3
"""Check the traced per-layer attribution against a stdlib cProfile run.

    python3 perfbench/profile_check.py

Runs the same tasks twice, once under the benchmark's tracer and once
under cProfile, and compares two shares:

- ``oracles.mu`` in the stars n = 4 task of exhaustive-verify;
- ``matching.max_cardinality_max_weight_matching`` over the whole maf-scale
  pool.

Neither depends on a seed: the stars n = 4 task is fixed, and a maf-scale
pass always runs the whole pool (a seed only orders it).

The traced share is the function's self time over the traced task time
(neither function has traced children). The cProfile share is the
function's cumulative time over the profile's total time. cProfile charges
its per-call cost to every Python call, so it reads a little higher where
the function makes many small calls; the shares must agree within
``TOLERANCE``. Both shares are written to ``perfbench/baseline.json``.
Takes several minutes: under cProfile the stars n = 4 scan makes tens of
millions of ``Fraction.__hash__`` calls.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TOLERANCE = 0.10
BASELINE = os.path.join(HERE, "baseline.json")

CASES = (
    # (label, workload, task filter, traced span name, profiled file, function, minimum share)
    ("stars-4 oracles.mu", "exhaustive-verify", lambda t: t.key == "stars-4",
     "oracles.mu", "oracles.py", "mu", 0.5),
    ("maf-scale matching", "maf-scale", lambda t: True,
     "matching.max_cardinality_max_weight_matching", "matching.py",
     "max_cardinality_max_weight_matching", 0.9),
)


def traced_share(workload: str, tasks, span_name: str) -> float:
    runner = workloads.Runner(workload)
    try:
        loop = workloads.Loop(tasks, workloads.load_expected(workload))
        tracer = tracing.traced_pass(loop, runner)
    finally:
        runner.close()
    if loop.failed:
        raise SystemExit(f"{workload}: {loop.failed} tasks failed")
    return tracer.self_s[span_name] / tracer.traced_seconds()


def profiled_share(workload: str, tasks, filename: str, function: str) -> float:
    runner = workloads.Runner(workload)
    profile = cProfile.Profile()
    try:
        profile.enable()
        for task in tasks:
            runner.run(task)
        profile.disable()
    finally:
        runner.close()
    stats = pstats.Stats(profile)
    cumulative = sum(
        row[3] for (path, _, name), row in stats.stats.items()
        if name == function and path.endswith(os.path.join("fairdiv", filename))
    )
    return cumulative / stats.total_tt


def main() -> int:
    shares = {}
    ok = True
    for label, workload, keep, span_name, filename, function, minimum in CASES:
        tasks = [t for t in workloads.pool(workload) if keep(t)]
        traced = traced_share(workload, tasks, span_name)
        profiled = profiled_share(workload, tasks, filename, function)
        agree = abs(traced - profiled) <= TOLERANCE
        ok &= agree and traced >= minimum
        shares[label] = {"workload": workload, "tasks": len(tasks),
                         "traced_share": round(traced, 4),
                         "cprofile_share": round(profiled, 4)}
        print(f"{label}: traced {traced:.3f}, cProfile {profiled:.3f}, "
              f"{'agree' if agree else 'DISAGREE'} within {TOLERANCE}, minimum {minimum}")

    baseline = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            baseline = json.load(fh)
    baseline["attribution"] = {"env": run.environment(), "shares": shares}
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
