"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public fairdiv functions and rebinds each wrapper
under every name any fairdiv module bound the original to (for example
``algorithms.mu`` as well as ``oracles.mu``), so calls between layers are
seen. ``uninstall()`` restores the originals.

Each wrapped call is a span: name, start, end, parent span and task id,
kept in flat arrays in memory and written out by ``write_spans``. Self time
is a span's duration minus the durations of its child spans; calls are
synchronous and single-threaded, so children never overlap.

Blind spots: ``Valuation.value`` is wrapped, but the inner ``_value`` calls
made by ``_mu_search`` and ``check_mms_feasible`` are not visible, so that
evaluation time counts as ``mu`` or ``check_mms_feasible`` self time.
``iter_allocations`` is a generator; it is counted, not timed, and its time
counts toward its consumer.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter, defaultdict

from fairdiv import algorithms, cli, core, instances, matching, oracles, serialize

MODULES = {
    "core": core,
    "oracles": oracles,
    "matching": matching,
    "algorithms": algorithms,
    "instances": instances,
    "serialize": serialize,
    "cli": cli,
}

# (layer, function names) wrapped as spans
SPANNED = (
    ("core", ("validate_allocation",)),
    ("oracles", ("mu", "check_efx", "check_pmms", "check_mms", "check_mms_feasible",
                 "allocation_satisfies", "exists_fair_allocation",
                 "nash_welfare_maximizers", "pair_compatibility_graph")),
    ("matching", ("max_cardinality_max_weight_matching",)),
    ("algorithms", ("match_and_freeze", "alternating_reach",
                    "cut_and_choose_graph_procedure", "build_cut_and_choose_graph",
                    "reversed_round_robin")),
    ("instances", ("gen_nonexistence_stars", "gen_separation3", "gen_mnw_counterexample",
                   "gen_table1_example", "random_bivalued", "random_pair_demand",
                   "random_binary_mms_feasible", "sample_random")),
    ("serialize", ("dumps", "loads", "instance_to_doc", "instance_from_doc",
                   "allocation_to_doc", "allocation_from_doc")),
    ("cli", ("main",)),
)

EXIT_CODES = (0, 1, 2, 3)


COUNTS = (
    "oracles.iter_allocations.yielded",
    "matching.max_cardinality_max_weight_matching.edges",
    "algorithms.match_and_freeze.rounds",
    "algorithms.cut_and_choose_graph_procedure.iterations",
)
RATIOS = (
    "oracles.mu.reuse_ratio",
    "instances.random_binary_mms_feasible.accept_ratio",
    "trace.overhead_ratio",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"core.value.calls": "count", "core.value.self_s": "s"}
    for layer, fns in SPANNED:
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update((name, "count") for name in COUNTS)
    units.update((name, "ratio") for name in RATIOS)
    units["serialize.bytes"] = "bytes"
    units.update((f"cli.exit_{code}", "count") for code in EXIT_CODES)
    for layer in MODULES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_task = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, seconds covered by children]
        self.task = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._mu_keys: set = set()
        self._fingerprints: dict = {}
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def start_task(self, task_id: int) -> None:
        """Open a new task: spans are tagged with it and memo reuse restarts,
        matching the cold memo every task starts with."""
        self.task = task_id
        self._mu_keys.clear()
        self._fingerprints.clear()

    def span(self, layer: str, name: str, fn, after=None):
        """Wrap fn so each call records a span; ``after(result, args)`` runs
        on success, outside the span, to collect work counts."""
        full = f"{layer}.{name}"
        self.names.append(full)
        nid = len(self.names) - 1
        stack = self.stack
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_task.append(self.task)
            frame = [idx, 0.0]
            stack.append(frame)
            start = now()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = now()
                stack.pop()
                duration = end - start
                self.span_end[idx] = end
                self.calls[full] += 1
                self.self_s[full] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in MODULES.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        after = {
            "oracles.mu": self._count_mu,
            "matching.max_cardinality_max_weight_matching": self._count_edges,
            "algorithms.match_and_freeze": self._count_rounds,
            "algorithms.cut_and_choose_graph_procedure": self._count_iterations,
            "serialize.dumps": self._count_dumps,
            "serialize.loads": self._count_loads,
            "cli.main": self._count_exit,
        }
        for layer, fns in SPANNED:
            for fn in fns:
                original = getattr(MODULES[layer], fn)
                self._rebind(original, self.span(layer, fn, original, after.get(f"{layer}.{fn}")))

        # the rejection sampler's feasibility checks give its accept ratio
        traced_feasible = oracles.check_mms_feasible

        def sampler_feasible(v, budget=None):
            ok = traced_feasible(v, budget)
            self.counts["instances.random_binary_mms_feasible.draws"] += 1
            self.counts["instances.random_binary_mms_feasible.accepted"] += ok
            return ok

        instances.check_mms_feasible = sampler_feasible
        self._restore.append((instances, "check_mms_feasible", traced_feasible))

        original_iter = oracles.iter_allocations

        def counted_iter(n, m):
            for bundles in original_iter(n, m):
                self.counts["oracles.iter_allocations.yielded"] += 1
                yield bundles

        self._rebind(original_iter, counted_iter)

        original_value = core.Valuation.value
        core.Valuation.value = self.span("core", "value", original_value)
        self._restore.append((core.Valuation, "value", original_value))

    def uninstall(self) -> None:
        # restore in reverse, so a name rebound twice ends at its original
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- work counts taken from results ------------------------------------

    def _count_mu(self, result, args) -> None:
        v, S, k = args[0], args[1], args[2]
        # the memo keys on valuation equality; fingerprint each valuation
        # object once per task so counting stays cheap
        fp = self._fingerprints.get(id(v))
        if fp is None:
            fp = self._fingerprints[id(v)] = (hash(v), v)
        key = (fp[0], S, k)
        if key in self._mu_keys:
            self.counts["oracles.mu.repeats"] += 1
        else:
            self._mu_keys.add(key)

    def _count_edges(self, result, args) -> None:
        self.counts["matching.max_cardinality_max_weight_matching.edges"] += len(args[0].edges)

    def _count_rounds(self, result, args) -> None:
        self.counts["algorithms.match_and_freeze.rounds"] += len(result[1].rounds)

    def _count_iterations(self, result, args) -> None:
        self.counts["algorithms.cut_and_choose_graph_procedure.iterations"] += len(
            result[1].iterations)

    def _count_dumps(self, result, args) -> None:
        self.counts["serialize.bytes"] += len(result.encode())

    def _count_loads(self, result, args) -> None:
        self.counts["serialize.bytes"] += len(args[0].encode())

    def _count_exit(self, result, args) -> None:
        self.counts[f"cli.exit_{result}"] += 1

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``, which
        needs an untraced run to compare with."""
        out: dict[str, float] = {}
        for name in ["core.value"] + [f"{layer}.{fn}" for layer, fns in SPANNED for fn in fns]:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS + ("serialize.bytes",):
            out[name] = self.counts[name]
        for code in EXIT_CODES:
            out[f"cli.exit_{code}"] = self.counts[f"cli.exit_{code}"]
        mu_calls = self.calls["oracles.mu"]
        out["oracles.mu.reuse_ratio"] = (
            self.counts["oracles.mu.repeats"] / mu_calls if mu_calls else 0.0)
        draws = self.counts["instances.random_binary_mms_feasible.draws"]
        out["instances.random_binary_mms_feasible.accept_ratio"] = (
            self.counts["instances.random_binary_mms_feasible.accepted"] / draws
            if draws else 0.0)
        for layer in MODULES:
            out[f"{layer}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.startswith(layer + "."))
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def bases(self) -> dict[str, str]:
        """The base of each ratio, for the human-readable report."""
        return {
            "oracles.mu.reuse_ratio":
                f"{self.counts['oracles.mu.repeats']} repeated keys / "
                f"{self.calls['oracles.mu']} calls",
            "instances.random_binary_mms_feasible.accept_ratio":
                f"{self.counts['instances.random_binary_mms_feasible.accepted']} accepted / "
                f"{self.counts['instances.random_binary_mms_feasible.draws']} draws",
        }

    def traced_seconds(self) -> float:
        """Total duration of the outermost spans (the tasks)."""
        return sum(self.span_end[i] - self.span_start[i]
                   for i in range(len(self.span_start)) if self.span_parent[i] == -1)

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\ttask\tname\tstart_s\tend_s\n")
            for idx in range(len(self.span_start)):
                fh.write(f"{idx}\t{self.span_parent[idx]}\t{self.span_task[idx]}\t"
                         f"{self.names[self.span_name[idx]]}\t"
                         f"{self.span_start[idx]:.9f}\t{self.span_end[idx]:.9f}\n")


def traced_pass(loop, runner) -> Tracer:
    """One pass of the loop's tasks with every layer traced; returns the
    tracer holding its spans and counts."""
    tracer = Tracer()
    traced_task = tracer.span("bench", "task", runner.run)

    def run_task(task):
        tracer.start_task(loop.attempted)
        return traced_task(task)

    tracer.install()
    try:
        loop.run_pass(run_task)
    finally:
        tracer.uninstall()
    return tracer
