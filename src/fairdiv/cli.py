"""Command-line front end: instance generation, solver dispatch,
fairness checking, exhaustive verification and DOT graph export.

Exit codes: 0 success / property holds, 1 fairness property fails,
2 usage or valuation-class error, 3 enumeration budget or feasibility trip.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import os
import sys
import time
from typing import Optional

from . import algorithms, instances, oracles, serialize
from .core import (
    FairnessNotion,
    Instance,
    UnsupportedValuationError,
    items_of,
    validate_allocation,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

AGENT_COLORS = ("red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta")


class UsageError(Exception):
    """Malformed input outside the argument parser; exits 2 with one line."""


def _write(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _load(path: str, from_doc, what: str):
    """Read and parse one JSON document; anything wrong with the file or
    its contents is a usage error, never a traceback."""
    try:
        with open(path) as fh:
            return from_doc(serialize.loads(fh.read()))
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc.strerror}") from None
    except KeyError as exc:
        raise UsageError(f"{what} document {path!r} is missing key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"invalid {what} document {path!r}: {exc}") from None


def _load_instance(path: str) -> Instance:
    return _load(path, serialize.instance_from_doc, "instance")


def _load_allocation(path: str, inst: Instance) -> tuple:
    bundles = _load(path, lambda doc: serialize.allocation_from_doc(doc, inst.m), "allocation")
    violation = validate_allocation(inst, bundles)
    if violation is not None:
        raise UsageError(f"invalid allocation {path!r}: {violation}")
    return bundles


def _agent_index(flag: str, agent: int, inst: Instance) -> int:
    if not 0 <= agent < inst.n:
        raise UsageError(f"{flag} must be an agent index in 0..{inst.n - 1}, got {agent}")
    return agent


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.m is not None:
        params["m"] = args.m
    if args.monotone:
        params["monotone"] = True
    if args.non_normalized:
        params["normalized"] = False
    try:
        inst = instances.sample_random(args.kind, args.seed, params)
    except KeyError as exc:
        raise UsageError(f"generator '{args.kind}' requires parameter {exc}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write(serialize.dumps(serialize.instance_to_doc(inst)), args.out)
    return EXIT_OK


def _rrr(inst: Instance, args):
    agent = _agent_index("--leftover-agent", args.leftover_agent, inst)
    return algorithms.reversed_round_robin(inst, agent), None


# --algo → (run on (instance, args) giving (bundles, trace), trace → lines).
# Algorithms are looked up when they run, so a wrapper installed on the
# algorithms module (a profiler, a tracer) sees the call.
SOLVERS = {
    "maf": (lambda inst, args: algorithms.match_and_freeze(inst), algorithms.maf_trace_lines),
    "ccg": (lambda inst, args: algorithms.cut_and_choose_graph_procedure(inst),
            algorithms.ccg_trace_lines),
    "rrr": (_rrr, lambda trace: []),
}


def cmd_solve(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    run, render = SOLVERS[args.algo]
    bundles, trace = run(inst, args)
    if args.trace:
        for line in render(trace):
            print(line)
    _write(serialize.dumps(serialize.allocation_to_doc(bundles)), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.notion != "feasible" and not args.alloc:
        raise UsageError("--alloc is required unless --notion feasible")
    inst = _load_instance(getattr(args, "in"))
    if args.notion == "feasible":
        verdicts = [oracles.check_mms_feasible(v) for v in inst.valuations]
        doc = {"notion": "feasible", "holds": all(verdicts), "per_agent": verdicts}
    else:
        bundles = _load_allocation(args.alloc, inst)
        report = oracles.check(inst, bundles, FairnessNotion(args.notion))
        doc = {
            "notion": args.notion,
            "holds": report.holds,
            "violations": [
                {"envier": f.envier, "envied": f.envied, "witness": _witness_doc(f.witness)}
                for f in report.violations
            ],
        }
    _write(serialize.dumps(doc), args.out)
    return EXIT_OK if doc["holds"] else EXIT_FAIL


def _witness_doc(witness):
    if isinstance(witness, int):
        return witness
    return [sorted(items_of(mask)) for mask in witness]


def _scan(notion: FairnessNotion, holds_if_found: bool, inst: Instance) -> dict:
    found = oracles.exists_fair_allocation(inst, notion)
    return {
        # the size of the allocation space the search decides, n^m, not
        # the number of nodes it visits
        "scanned": inst.n ** inst.m,
        "found": None if found is None else serialize.allocation_to_doc(found)["bundles"],
        "holds": (found is not None) == holds_if_found,
    }


def _mnw_not_efx(inst: Instance) -> dict:
    best, argmax = oracles.nash_welfare_maximizers(inst)
    return {
        "max_nash_welfare": serialize.rational_to_json(best),
        "maximizers": [serialize.allocation_to_doc(b)["bundles"] for b in argmax],
        "holds": all(not oracles.check(inst, b, FairnessNotion.EFX).holds for b in argmax),
    }


def _triangle_free(inst: Instance) -> dict:
    graph = oracles.pair_compatibility_graph(inst)
    triangle = graph.has_triangle()
    return {
        "nodes": len(graph.nodes) - len(graph.isolated_nodes()),
        "edges": len(graph.edges),
        "triangle": triangle,
        "holds": not triangle,
    }


# --claim → instance → the claim's document, with "holds".
CLAIMS = {
    "no-pmms": functools.partial(_scan, FairnessNotion.PMMS, False),
    "mms-exists": functools.partial(_scan, FairnessNotion.MMS, True),
    "efx-exists": functools.partial(_scan, FairnessNotion.EFX, True),
    "mnw-not-efx": _mnw_not_efx,
    "triangle-free": _triangle_free,
}


def cmd_verify(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    start = time.monotonic()
    doc = {"claim": args.claim, **CLAIMS[args.claim](inst)}
    doc["seconds"] = round(time.monotonic() - start, 3)
    try:
        text = serialize.dumps(doc)
    except ValueError as exc:  # a max Nash welfare, a product of n values, too long to print
        raise UsageError(f"cannot print the result: {exc}") from None
    _write(text, args.out)
    return EXIT_OK if doc["holds"] else EXIT_FAIL


def _compat_dot(inst: Instance) -> str:
    graph = oracles.pair_compatibility_graph(inst)
    isolated = set(graph.isolated_nodes())

    def node_id(node):
        agent, mask = node
        items = "".join(str(g) for g in items_of(mask))
        return f"a{agent}_{items}"

    lines = ["graph compat {"]
    for node in graph.nodes:
        if node in isolated:
            continue
        agent, mask = node
        label = "{" + ",".join(
            inst.labels[g] if inst.labels else str(g) for g in items_of(mask)
        ) + "}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')  # DOT quoted-string escapes
        color = AGENT_COLORS[agent % len(AGENT_COLORS)]
        lines.append(f'  {node_id(node)} [label="{agent}:{label}", color={color}];')
    for u, w in graph.edges:
        lines.append(f"  {node_id(u)} -- {node_id(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ccg_dot(inst: Instance, bundles, agent: int) -> str:
    pi = algorithms.build_cut_and_choose_graph(inst, bundles, agent)
    lines = ["digraph ccg {"]
    for i in range(inst.n):
        color = AGENT_COLORS[i % len(AGENT_COLORS)]
        lines.append(f'  a{i} [label="{i}", color={color}];')
    for i, j in enumerate(pi):
        lines.append(f"  a{i} -> a{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_graph(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    if args.kind == "compat":
        text = _compat_dot(inst)
    else:
        if args.alloc is None or args.agent is None:
            raise UsageError("--kind ccg requires --alloc and --agent")
        bundles = _load_allocation(args.alloc, inst)
        text = _ccg_dot(inst, bundles, _agent_index("--agent", args.agent, inst))
    _write(text, args.dot)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


# Built once per process: a build takes about as long as a small command's
# own work, and each parser is a reference cycle left to the collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairdiv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance document")
    p.add_argument("--kind", required=True, choices=tuple(instances.GENERATORS))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--monotone", action="store_true",
                   help="restrict binary sampling to monotone tables")
    p.add_argument("--non-normalized", action="store_true",
                   help="allow v(empty) = 1 in binary sampling")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run an allocation algorithm")
    p.add_argument("--algo", required=True, choices=tuple(SOLVERS))
    p.add_argument("--in", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--leftover-agent", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="check a fairness notion on an allocation")
    p.add_argument("--notion", required=True,
                   choices=(*(notion.value for notion in FairnessNotion), "feasible"))
    p.add_argument("--in", required=True)
    p.add_argument("--alloc")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run an exhaustive verification claim")
    p.add_argument("--claim", required=True, choices=tuple(CLAIMS))
    p.add_argument("--in", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-graph", help="export a graph in DOT format")
    p.add_argument("--in", required=True)
    p.add_argument("--kind", required=True, choices=("compat", "ccg"))
    p.add_argument("--alloc")
    p.add_argument("--agent", type=int)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_export_graph)

    return parser


# Errors a command can raise, with the exit code each maps to; every one
# is reported as a single "error: ..." line.
ERROR_EXITS = {
    UsageError: EXIT_USAGE,
    UnsupportedValuationError: EXIT_USAGE,
    oracles.BudgetExceededError: EXIT_BUDGET,
    algorithms.CutAndChooseStuckError: EXIT_BUDGET,
}


def _run(args) -> int:
    """Run one command under the cap FAIRDIV_BUDGET sets, if it is set."""
    raw = os.environ.get("FAIRDIV_BUDGET")
    if raw:
        if not raw.isdecimal():
            raise UsageError(f"FAIRDIV_BUDGET must be a non-negative integer, got {raw!r}")
        try:
            oracles.BUDGET.set(int(raw))
        except ValueError:  # more digits than int() reads
            raise UsageError(f"FAIRDIV_BUDGET has {len(raw)} digits, too many to read") from None
    return args.func(args)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # In a copy of the context, so the cap is the caller's again on return.
        return contextvars.copy_context().run(_run, args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in ERROR_EXITS.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
