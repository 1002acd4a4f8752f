"""Command-line front end: instance generation, solver dispatch,
fairness checking, exhaustive verification and DOT graph export.

Exit codes: 0 success / property holds, 1 fairness property fails,
2 usage or valuation-class error, 3 enumeration budget or feasibility trip.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import functools
import io
import os
import stat
import sys
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


def _open_in_place(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


# Rewrites in place, then cuts to length: truncating to zero first costs 5-9x as much on ext4.
# Files are UTF-8 whatever the locale, so their bytes depend on the inputs alone.
def _write(text: str, out: Optional[str]) -> None:
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8", opener=_open_in_place) as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not /dev/null, a FIFO, a tty
                    fh.truncate()
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.write(text)  # encodes the whole text before writing any of it
            sys.stdout.flush()  # so a buffered failure surfaces here, not at exit
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start:exc.end]
            raise UsageError(f"standard output's encoding, {exc.encoding}, cannot write "
                             f"{bad!r}; write to a file instead") from None
        except OSError as exc:  # a full disk, a closed pipe
            _drop_stdout()
            raise UsageError(f"cannot write standard output: {exc.strerror}") from None


def _drop_stdout() -> None:
    """Point standard output's descriptor at os.devnull, as the notes on
    SIGPIPE in the signal module's documentation advise: what a failed
    write left in its buffer would fail again when the interpreter flushes
    it at exit, and print a second report."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not a file; nothing is flushed at exit
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _load(path: str, from_doc, what: str):
    """Read and parse one JSON document; anything wrong with the file or
    its contents is a usage error, never a traceback."""
    try:
        with open(path, encoding="utf-8") as fh:
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
        _write("".join(line + "\n" for line in render(trace)), None)
    _write(serialize.dumps(serialize.allocation_to_doc(bundles)), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    inst = _load_instance(getattr(args, "in"))
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
    return EXIT_OK if report.holds else EXIT_FAIL


def _witness_doc(witness):
    if isinstance(witness, int):
        return witness
    return [list(items_of(mask)) for mask in witness]


def _scan(notion: FairnessNotion, holds_if_found: bool, inst: Instance) -> dict:
    found = oracles.exists_fair_allocation(inst, notion)
    return {
        "found": None if found is None else serialize.allocation_to_doc(found)["bundles"],
        "holds": (found is not None) == holds_if_found,
    }


def _mnw_not_efx(inst: Instance) -> dict:
    best, argmax = oracles.nash_welfare_maximizers(inst)
    return {
        "max_nash_welfare": serialize.rational_to_json(best),
        "maximizers": [serialize.allocation_to_doc(b)["bundles"] for b in argmax],
        "holds": not any(oracles.allocation_satisfies(inst, b, FairnessNotion.EFX) for b in argmax),
    }


def _triangle_free(inst: Instance) -> dict:
    graph = oracles.pair_compatibility_graph(inst)
    triangle = graph.has_triangle()
    return {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "triangle": triangle,
        "holds": not triangle,
    }


def _mms_feasible(inst: Instance) -> dict:
    verdicts = [oracles.check_mms_feasible(v) for v in inst.valuations]
    return {"holds": all(verdicts), "per_agent": verdicts}


# --claim → instance → the claim's document, with "holds".
CLAIMS = {
    "no-pmms": functools.partial(_scan, FairnessNotion.PMMS, False),
    "mms-exists": functools.partial(_scan, FairnessNotion.MMS, True),
    "efx-exists": functools.partial(_scan, FairnessNotion.EFX, True),
    "mnw-not-efx": _mnw_not_efx,
    "triangle-free": _triangle_free,
    "mms-feasible": _mms_feasible,
}


def cmd_verify(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    doc = {"claim": args.claim, **CLAIMS[args.claim](inst)}
    try:
        text = serialize.dumps(doc)
    except ValueError as exc:  # a max Nash welfare, a product of n values, too long to print
        raise UsageError(f"cannot print the result: {exc}") from None
    _write(text, args.out)
    return EXIT_OK if doc["holds"] else EXIT_FAIL


def _compat_dot(inst: Instance) -> str:
    graph = oracles.pair_compatibility_graph(inst)

    def node_id(node):
        agent, mask = node
        items = "".join(str(g) for g in items_of(mask))
        return f"a{agent}_{items}"

    lines = ["graph compat {"]
    for node in graph.nodes:
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


class _Plain:
    """The plain argvs of one command, read without argparse: the command's
    name, then only its exact option strings, each store option followed by
    one ``str`` value that does not start with ``-`` and that its ``type``
    and ``choices`` accept, each flag alone, and every required option
    present. ``read`` gives the namespace ``build_parser().parse_args``
    gives such an argv, and None for any other argv.

    Built from the Action objects the command's ``add_argument`` calls
    return, read through their public attributes only, and from the
    command's ``set_defaults``, so no option, type, choice or default is
    written twice. Each action is a plain store (``nargs`` None) or a flag
    that stores its ``const`` (``nargs`` 0), and none has a ``str`` default
    with a ``type``; ``tests/test_cli.py`` checks both."""

    def __init__(self, name: str, actions: list, defaults: dict):
        self.options = {option: a for a in actions for option in a.option_strings}
        self.required = {a for a in actions if a.required}
        # argparse's order: each action's default unless SUPPRESS, then
        # set_defaults, each under a dest not yet set; the top-level parser
        # sets ``command`` before it copies the command's namespace over
        namespace = {}
        for a in actions:
            if a.default is not argparse.SUPPRESS:
                namespace.setdefault(a.dest, a.default)
        for dest, value in defaults.items():
            namespace.setdefault(dest, value)
        self.namespace = {"command": name, **namespace}

    def read(self, argv: list) -> Optional[argparse.Namespace]:
        values, seen = dict(self.namespace), set()
        i, end = 1, len(argv)
        while i < end:
            token = argv[i]
            action = self.options.get(token) if type(token) is str else None
            if action is None:
                return None
            seen.add(action)
            if action.nargs == 0:  # a flag
                values[action.dest] = action.const
                i += 1
                continue
            value = argv[i + 1] if i + 1 < end else None
            if type(value) is not str or value.startswith("-"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value  # the last value wins, as in argparse
            i += 2
        if not self.required <= seen:
            return None
        return argparse.Namespace(**values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser that defines the CLI's grammar, help and errors, with
    ``table``, which maps each command name to the ``_Plain`` reader of its
    plain argvs, built from the Action objects of the same add_argument
    calls and the command's set_defaults; ``_parse`` tries it first.

    Built once per process: a build takes about as long as a small
    command's own work, and each parser is a reference cycle left to the
    collector."""
    parser = argparse.ArgumentParser(prog="fairdiv")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.table = {}

    def command(name: str, p: argparse.ArgumentParser, actions: list, **defaults) -> None:
        p.set_defaults(**defaults)
        parser.table[name] = _Plain(name, actions, defaults)

    p = sub.add_parser("gen", help="generate an instance document")
    command("gen", p, [
        p.add_argument("--kind", required=True, choices=tuple(instances.GENERATORS)),
        p.add_argument("--n", type=int),
        p.add_argument("--m", type=int),
        p.add_argument("--seed", type=int, default=0),
        p.add_argument("--monotone", action="store_true",
                       help="restrict binary sampling to monotone tables"),
        p.add_argument("--non-normalized", action="store_true",
                       help="allow v(empty) = 1 in binary sampling"),
        p.add_argument("--out"),
    ], func=cmd_gen)

    p = sub.add_parser("solve", help="run an allocation algorithm")
    command("solve", p, [
        p.add_argument("--algo", required=True, choices=tuple(SOLVERS)),
        p.add_argument("--in", required=True),
        p.add_argument("--trace", action="store_true"),
        p.add_argument("--leftover-agent", type=int, default=0),
        p.add_argument("--out"),
    ], func=cmd_solve)

    p = sub.add_parser("check", help="check a fairness notion on an allocation")
    command("check", p, [
        p.add_argument("--notion", required=True, choices=tuple(n.value for n in FairnessNotion)),
        p.add_argument("--in", required=True),
        p.add_argument("--alloc", required=True),
        p.add_argument("--out"),
    ], func=cmd_check)

    p = sub.add_parser("verify", help="run an exhaustive verification claim")
    command("verify", p, [
        p.add_argument("--claim", required=True, choices=tuple(CLAIMS)),
        p.add_argument("--in", required=True),
        p.add_argument("--out"),
    ], func=cmd_verify)

    p = sub.add_parser("export-graph", help="export a graph in DOT format")
    command("export-graph", p, [
        p.add_argument("--in", required=True),
        p.add_argument("--kind", required=True, choices=("compat", "ccg")),
        p.add_argument("--alloc"),
        p.add_argument("--agent", type=int),
        p.add_argument("--dot"),
    ], func=cmd_export_graph)

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


def _parse(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by one of two paths. A plain argv
    of a command (see ``_Plain``) is read from the command's table, a few
    dict lookups. Every other argv goes to the parser that defines the
    grammar: ``-h``/``--help``, ``--opt=value``, abbreviations, ``--``,
    positionals, values that start with ``-``, non-``str`` tokens, missing
    values or options, and an unknown or absent command. So help, usage,
    errors and exit codes are argparse's own. What argparse prints to
    standard output, help, is written by ``_write`` before it exits, so a
    failed write is one error line and exit 2 like any other."""
    parser = build_parser()
    plain = parser.table.get(argv[0]) if argv and type(argv[0]) is str else None
    args = None if plain is None else plain.read(argv)
    if args is not None:
        return args
    shown = io.StringIO()
    try:
        with contextlib.redirect_stdout(shown):
            return parser.parse_args(argv)
    except SystemExit:
        if shown.getvalue():
            _write(shown.getvalue(), None)
        raise


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        # In a copy of the context, so the cap is the caller's again on return.
        return contextvars.copy_context().run(_run, args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in ERROR_EXITS.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
