#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median, quartiles and spread (the quartile distance over the median).

    python3 perfbench/spread.py --workload maf-scale --seeds 1-10 [--record]

Use it to check that the benchmark is steady, and to compare two commits
run with identical settings. ``--record`` stores the summary in
``perfbench/baseline.json`` under ``end_to_end.<workload>``, with the
environment it ran in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    env = None
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                               text=True).stdout.strip().splitlines()
        env = json.loads(lines[0][len("# env "):])
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "runs": len(vals)}
        print(f"{args.workload} {name}: median {median:.5g}, q1 {q1:.5g}, q3 {q3:.5g}, "
              f"spread {spread:.3f} (bound {bounds[name]})")
    print(f"{args.workload}: failed {failed} of {attempted} attempted")

    if args.record:
        baseline = {}
        if os.path.exists(BASELINE):
            with open(BASELINE) as fh:
                baseline = json.load(fh)
        env.pop("seed")
        baseline.setdefault("end_to_end", {})[args.workload] = {
            "seeds": args.seeds, "env": env, "failed": failed, "attempted": attempted,
            "metrics": summary}
        with open(BASELINE, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
