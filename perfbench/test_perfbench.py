"""The benchmark's own tests: declared metrics match printed ones, and
traced work counts repeat exactly for a seed.

    python3 -m pytest -q perfbench/test_perfbench.py

The repository's test suite does not collect this file (its testpaths are
``tests/``); it runs the cli-sweep workload in a subprocess (about 15 s)
and traces cheaper subsets of the other two workloads in-process.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REPEATABLE = (".calls", ".yielded", ".edges", ".rounds", ".iterations", "accept_ratio")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_command(trace: int) -> dict:
    bench = declared()
    out = subprocess.run(
        bench["command"] + ["--workload", "cli-sweep", "--seed", "3", "--seconds", "0",
                            "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def traced_subset(workload: str, keep) -> dict:
    tasks = [t for t in workloads.build_pass(workload, 5) if keep(t)]
    runner = workloads.Runner(workload)
    try:
        loop = workloads.Loop(tasks, workloads.load_expected(workload))
        tracer = tracing.traced_pass(loop, runner)
    finally:
        runner.close()
    assert loop.failed == 0
    return tracer.metrics()


def repeatable(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(REPEATABLE)}


@pytest.fixture(scope="module")
def traced_cli():
    return run_command(1), run_command(1)


def test_declared_end_to_end_metrics_are_printed():
    printed = run_command(0)["metrics"]
    want = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {name: m["unit"] for name, m in printed.items()} == want
    assert all(m["value"] > 0 for m in printed.values())


def test_declared_per_layer_metrics_are_printed(traced_cli):
    want = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert want == tracing.metric_units()
    for result in traced_cli:
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_traced_counts_repeat_for_a_seed(traced_cli):
    first, second = ({k: m["value"] for k, m in r["metrics"].items()} for r in traced_cli)
    assert repeatable(first) == repeatable(second)
    assert first["cli.main.calls"] > 0 and first["serialize.bytes"] > 0


def test_exhaustive_verify_counts_repeat_and_skip_the_matcher():
    # stars-4 alone takes about 20 s; the rest of a pass keeps every layer
    def keep(t):
        return t.key != "stars-4"

    first = traced_subset("exhaustive-verify", keep)
    assert repeatable(first) == repeatable(traced_subset("exhaustive-verify", keep))
    assert first["oracles.mu.calls"] > 0 and first["oracles.iter_allocations.yielded"] > 0
    assert first["matching.max_cardinality_max_weight_matching.calls"] == 0


def test_maf_scale_counts_repeat_and_never_call_mu():
    # n = 6 instances dominate the pass; the rest keeps every counter
    def keep(t):
        return dict(t.params).get("n", 0) <= 5

    first = traced_subset("maf-scale", keep)
    assert repeatable(first) == repeatable(traced_subset("maf-scale", keep))
    assert first["algorithms.match_and_freeze.rounds"] > 0
    assert first["oracles.mu.calls"] == 0
