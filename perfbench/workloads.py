"""The three benchmark workloads: their task lists and how one task runs.

A task is one unit of closed-loop work: the next starts when the previous
one ends. Every task starts with a cold fair-share memo, as a fresh
``fairdiv`` process would. Every task a workload can run is in its pool,
whose outputs were recorded once (see ``record.py``).

What ``--seed`` changes differs by workload, because a metric must move
with the code, not with the seed:

- cli-sweep draws 3 of the 5 pooled instances of every parameter cell.
  Its tasks are small and many, so the draw barely moves the totals.
- exhaustive-verify and maf-scale run their whole pool in a seeded order.
  Their per-instance cost is heavy-tailed (one match-and-freeze instance
  can cost as much as fifty others), and the m = 6 and m = 7 scans form
  two clusters; which instances a seed drew would move ``tasks_per_s``
  and the percentiles more than most code changes do.

fairdiv functions are always looked up through their module at call time
(``oracles.mu``, not an imported name), so the tracer's rebinding sees
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from fairdiv import algorithms, cli, core, instances, oracles

WORKLOADS = ("exhaustive-verify", "maf-scale", "cli-sweep")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_DIR = os.path.join(HERE, "expected")
OUT_DIR = os.path.join(HERE, "out")  # scratch files and spans; not committed
MAX_REPORTED_FAILURES = 5
GOLDEN_TABLE1 = os.path.join(ROOT, "tests", "data", "table1_trace.txt")

# exhaustive-verify: random PMMS existence scans, n = 3. Scans at m = 7 cost
# about three times those at m = 6; twice as many m = 7 scans keep p50 and
# p90 inside the m = 7 cluster instead of on the gap between the two.
SCAN_CLASSES = ("pair-demand", "factored-bivalued", "binary-mms-feasible")
SCANS_PER_M = {6: 20, 7: 40}  # per class
NAMED_TASKS = ("stars-2", "stars-3", "stars-4", "separation3", "mnw")

# maf-scale: 28 instances for each n in 3..6, with m cycling through 2n..18.
MAF_NS = (3, 4, 5, 6)
MAF_PER_N = 28

# cli-sweep: one cell per parameter combination of each pipeline.
CLI_POOL = 5  # recorded instance seeds per cell
CLI_PER_CELL = 3  # drawn per cell per pass


@dataclass(frozen=True)
class Task:
    key: str  # unique in the workload's recorded pool
    kind: str
    params: tuple  # (name, value) pairs


class TaskFailed(Exception):
    """A task's output contradicts a known answer."""


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bundles_doc(bundles):
    """Item lists per bundle, built here rather than by ``serialize`` so
    the benchmark's own bookkeeping stays out of the serialize layer."""
    return [[g for g in range(mask.bit_length()) if mask >> g & 1] for mask in bundles]


def require(cond: bool, what: str) -> None:
    if not cond:
        raise TaskFailed(what)


# ---------------------------------------------------------------------------
# pools: every task a run can draw, keyed for the recorded outputs


def _cli_cells() -> list[tuple]:
    cells = []
    for n in range(2, 5):
        for m in range(4, 9):
            cells.append(("ccg", n, m, m % 2 == 1))  # odd m: --non-normalized
    for n in range(1, 6):
        for m in range(1, 13):
            cells.append(("rrr", n, m, False))
    for n in range(2, 6):
        for m in range(n, 11):
            cells.append(("maf", n, m, False))
    return cells


def _scan_task(cls: str, m: int, seed: int) -> Task:
    return Task(f"scan/{cls}/n3/m{m}/s{seed}", "scan",
                (("cls", cls), ("n", 3), ("m", m), ("seed", seed)))


def _maf_task(n: int, m: int, seed: int) -> Task:
    return Task(f"maf/n{n}/m{m}/s{seed}", "maf", (("n", n), ("m", m), ("seed", seed)))


def _cli_task(algo: str, n: int, m: int, non_normalized: bool, seed: int) -> Task:
    leftover = random.Random(f"leftover:{n}:{m}:{seed}").randrange(n)
    flag = "/nn" if non_normalized else ""
    return Task(f"cli/{algo}/n{n}/m{m}{flag}/s{seed}", "cli",
                (("algo", algo), ("n", n), ("m", m), ("non_normalized", non_normalized),
                 ("seed", seed), ("leftover", leftover)))


def _maf_cells() -> list[tuple[int, int, int]]:
    """(n, m, instances) with MAF_PER_N instances per n, spread over m."""
    cells = []
    for n in MAF_NS:
        ms = range(2 * n, 19)
        for i, m in enumerate(ms):
            cells.append((n, m, MAF_PER_N // len(ms) + (i < MAF_PER_N % len(ms))))
    return cells


def pool(workload: str) -> list[Task]:
    """Every task the workload can run, in a fixed order."""
    if workload == "exhaustive-verify":
        return [Task(name, name, ()) for name in NAMED_TASKS] + [
            _scan_task(cls, m, s)
            for cls in SCAN_CLASSES for m, count in SCANS_PER_M.items() for s in range(count)
        ]
    if workload == "maf-scale":
        return [Task("table1", "table1", ())] + [
            _maf_task(n, m, s) for n, m, count in _maf_cells() for s in range(count)
        ]
    if workload == "cli-sweep":
        return [_cli_task(*cell, s) for cell in _cli_cells() for s in range(CLI_POOL)]
    raise ValueError(f"unknown workload {workload!r}")


def build_pass(workload: str, seed: int) -> list[Task]:
    """One pass of the workload for this seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-sweep":
        tasks = [_cli_task(*cell, s) for cell in _cli_cells()
                 for s in sorted(rng.sample(range(CLI_POOL), CLI_PER_CELL))]
    else:
        tasks = pool(workload)
    rng.shuffle(tasks)
    return tasks


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running one task: returns its canonical result document, or raises


def _stars(n: int) -> dict:
    PMMS, MMS = core.FairnessNotion.PMMS, core.FairnessNotion.MMS
    inst = instances.gen_nonexistence_stars(n)
    k = instances.stars_partition_size(n)
    pmms = oracles.exists_fair_allocation(inst, PMMS)
    shares = [oracles.mu(v, inst.all_items, n).mu for v in inst.valuations]
    require(pmms is None, f"stars n={n}: a PMMS allocation exists")
    require(all(s == (k + 1 if n == 2 else k) for s in shares), f"stars n={n}: wrong fair share")
    doc = {"pmms": pmms, "mu": [str(s) for s in shares]}
    if n == 2:
        # with two agents PMMS and MMS coincide, so no MMS allocation exists
        mms = oracles.exists_fair_allocation(inst, MMS)
        require(mms is None, "stars n=2: an MMS allocation exists")
        doc["mms"] = mms
    else:
        # the stars to the first n-2 agents, then agent n-2's special split
        stars = [1 << j for j in range(n - 2)]
        commons = inst.all_items ^ sum(stars)
        v = inst.valuations[n - 2]
        A = next(mask for mask in range(1 << inst.m)
                 if mask & commons == mask and mask.bit_count() == k and v.value(mask) == k + 1)
        stated = tuple(stars + [A, commons ^ A])
        holds = oracles.check_mms(inst, stated).holds
        require(holds, f"stars n={n}: the stated MMS allocation fails")
        doc["mms"] = {"stated": bundles_doc(stated), "holds": holds}
    return doc


def _separation3() -> dict:
    inst = instances.gen_separation3()
    pmms = oracles.exists_fair_allocation(inst, core.FairnessNotion.PMMS)
    mms = oracles.exists_fair_allocation(inst, core.FairnessNotion.MMS)
    graph = oracles.pair_compatibility_graph(inst)
    triangle = graph.has_triangle()
    require(pmms is None, "separation3: a PMMS allocation exists")
    require(mms is not None, "separation3: no MMS allocation")
    require(not triangle, "separation3: the compatibility graph has a triangle")
    return {"pmms": pmms, "mms": bundles_doc(mms), "edges": len(graph.edges),
            "triangle": triangle}


def _mnw() -> dict:
    inst = instances.gen_mnw_counterexample()
    best, argmax = oracles.nash_welfare_maximizers(inst)
    efx = [oracles.check_efx(inst, X).holds for X in argmax]
    require(best == Fraction(25), "mnw: wrong maximum Nash welfare")
    require(argmax == [(0b0001, 0b1110), (0b0010, 0b1101)], "mnw: wrong maximizers")
    require(not any(efx), "mnw: a Nash-welfare maximizer is EFX")
    return {"best": str(best), "argmax": [bundles_doc(X) for X in argmax], "efx": efx}


def _scan(cls: str, n: int, m: int, seed: int) -> dict:
    if cls == "pair-demand":
        inst = instances.random_pair_demand(n, m, seed)
    elif cls == "factored-bivalued":
        inst = instances.random_bivalued(n, m, seed, factored=True)
    else:
        inst = instances.random_binary_mms_feasible(n, m, seed)
    found = oracles.exists_fair_allocation(inst, core.FairnessNotion.PMMS)
    # reversed round-robin, match-and-freeze (factored) and cut-and-choose
    # prove a PMMS allocation exists in each of these classes
    require(found is not None, f"{cls}: no PMMS allocation found")
    return {"found": bundles_doc(found)}


def _maf(inst) -> tuple[dict, list[str]]:
    bundles, trace = algorithms.match_and_freeze(inst)
    lines = algorithms.maf_trace_lines(trace)
    efx = oracles.check_efx(inst, bundles).holds
    require(efx, "match-and-freeze allocation is not EFX")  # guaranteed for bivalued
    return {"bundles": bundles_doc(bundles), "rounds": len(trace.rounds),
            "trace": digest("\n".join(lines)), "efx": efx}, lines


def _table1(golden: list[str]) -> dict:
    doc, lines = _maf(instances.gen_table1_example())
    require(lines == golden, "Table 1 trace differs from the golden trace")
    return doc


def _cli(workdir: str, algo: str, n: int, m: int, non_normalized: bool,
         seed: int, leftover: int) -> dict:
    kind = {"ccg": "random-binary-mms-feasible", "rrr": "random-pair-demand",
            "maf": "random-factored-bivalued"}[algo]
    inst_path = os.path.join(workdir, "inst.json")
    alloc_path = os.path.join(workdir, "alloc.json")
    check_path = os.path.join(workdir, "check.json")
    gen = ["gen", "--kind", kind, "--n", str(n), "--m", str(m), "--seed", str(seed),
           "--out", inst_path] + (["--non-normalized"] if non_normalized else [])
    solve = ["solve", "--algo", algo, "--in", inst_path, "--trace", "--out", alloc_path]
    if algo == "rrr":
        solve += ["--leftover-agent", str(leftover)]
    check = ["check", "--notion", "pmms", "--in", inst_path, "--alloc", alloc_path,
             "--out", check_path]
    out = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(out):
        for argv in (gen, solve, check):
            codes.append(cli.main(argv))
            # a theorem guarantees PMMS for every pipeline, so any other
            # exit code is a failure
            require(codes[-1] == 0, f"`fairdiv {argv[0]}` exited {codes[-1]}")
    with open(inst_path) as fh:
        inst_text = fh.read()
    with open(alloc_path) as fh:
        alloc = json.load(fh)
    with open(check_path) as fh:
        verdict = json.load(fh)
    require(verdict["holds"] is True, "PMMS check does not hold")
    return {"exit": codes, "instance": digest(inst_text), "trace": digest(out.getvalue()),
            "alloc": alloc["bundles"], "check": verdict}


class Runner:
    """Runs the tasks of one workload; owns the scratch directory the CLI
    pipeline writes to."""

    def __init__(self, workload: str):
        self.golden = None
        if workload == "maf-scale":
            with open(GOLDEN_TABLE1) as fh:
                self.golden = fh.read().splitlines()
        self.out_dir = OUT_DIR
        os.makedirs(self.out_dir, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, task: Task) -> dict:
        oracles.clear_caches()
        p = dict(task.params)
        if task.kind.startswith("stars-"):
            return _stars(int(task.kind.split("-")[1]))
        if task.kind == "separation3":
            return _separation3()
        if task.kind == "mnw":
            return _mnw()
        if task.kind == "scan":
            return _scan(p["cls"], p["n"], p["m"], p["seed"])
        if task.kind == "table1":
            return _table1(self.golden)
        if task.kind == "maf":
            return _maf(instances.random_bivalued(p["n"], p["m"], p["seed"]))[0]
        if task.kind == "cli":
            return _cli(self.workdir, **p)
        raise ValueError(f"unknown task kind {task.kind!r}")


class Loop:
    """Closed loop over whole passes of one task list, checking each output."""

    def __init__(self, tasks: list[Task], expected: dict):
        self.tasks = tasks
        self.expected = {t.key: canonical(expected[t.key]) for t in tasks if t.key in expected}
        self.spans: list[tuple[float, float]] = []  # raw start, end of every task run
        self.passes: list[tuple[int, int, float, float]] = []  # first span, passed, start, end
        self.attempted = 0
        self.failed = 0

    def _fail(self, task, why: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {task.key}: {why}", file=sys.stderr)

    def run_pass(self, run_task) -> None:
        now = time.perf_counter
        first, failed_before = len(self.spans), self.failed
        pass_start = now()
        for task in self.tasks:
            self.attempted += 1
            start = now()
            try:
                doc = run_task(task)
            except (Exception, SystemExit) as exc:  # a failed task must not stop the run
                self.spans.append((start, now()))
                self._fail(task, f"{type(exc).__name__}: {exc}")
                continue
            self.spans.append((start, now()))
            want = self.expected.get(task.key)
            if want is None:
                self._fail(task, "no recorded output")
            elif canonical(doc) != want:
                self._fail(task, "output differs from the recorded output")
        passed = len(self.tasks) - (self.failed - failed_before)
        self.passes.append((first, passed, pass_start, now()))

    def run_for(self, seconds: float, run_task) -> None:
        """Whole passes until ``seconds`` have passed, so every run does the
        same mix of work whatever the host speed."""
        deadline = time.perf_counter() + seconds
        while True:
            self.run_pass(run_task)
            if time.perf_counter() >= deadline:
                break
