"""The public surface: the package's ``__all__`` and version, and every
function the benchmark's tracer (``perfbench/tracer.py``) wraps by name or
calls, so a refactor that renames or removes one, or changes how it is
called, fails here rather than in a traced run; and the records the package
returns, by their fields. And its converse: every
module-level function and class in the package, and every member of its
classes, is read by the package itself, unless ``KEPT`` says why not."""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import pytest

import fairdiv
from fairdiv import instances, oracles
from fairdiv.algorithms import (
    CcgIteration,
    CcgTrace,
    MafRound,
    MafTrace,
    cut_and_choose_graph_procedure,
    match_and_freeze,
)
from fairdiv.core import (
    Additive,
    AllocationViolation,
    BinaryTable,
    FairnessNotion,
    Instance,
    validate_allocation,
)
from fairdiv.oracles import CompatGraph, FairnessReport, FairnessViolation, MaximinResult

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
PACKAGE = os.path.dirname(fairdiv.__file__)

# The package's definitions, and class members as ``Class.member``, that
# nothing in the package reads, each with the reason it stays.
KEPT = {
    "check_efx": "perfbench/tracer.py spans it; perfbench/workloads.py calls it",
    "check_pmms": "perfbench/tracer.py spans it",
    "check_mms": "perfbench/tracer.py spans it; perfbench/workloads.py calls it",
    "clear_caches": "perfbench/workloads.py calls it before every task",
    "PersonalizedBivalued.is_factored": "states the hypothesis of the paper's PMMS theorem",
    "MaximinResult.mu": "the value mu(v, S, k) itself, what mu is for; the package compares "
                        "its scaled twin",
}

PUBLIC = [
    "Additive",
    "BinaryTable",
    "BudgetExceededError",
    "CutAndChooseStuckError",
    "ExplicitTable",
    "FairnessNotion",
    "FairnessReport",
    "Instance",
    "InvalidBundleError",
    "PairDemand",
    "PersonalizedBivalued",
    "UnsupportedValuationError",
    "Valuation",
    "check",
    "check_efx",
    "check_mms",
    "check_mms_feasible",
    "check_pmms",
    "cut_and_choose_graph_procedure",
    "exists_fair_allocation",
    "full_mask",
    "is_monotone",
    "items_of",
    "mask_of",
    "match_and_freeze",
    "mu",
    "nash_welfare_maximizers",
    "pair_compatibility_graph",
    "reversed_round_robin",
    "validate_allocation",
]


def test_public_names_unchanged():
    assert fairdiv.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(fairdiv, name), name


def test_tracer_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANNED
    for layer, names in tracer.SPANNED:
        module = importlib.import_module(f"fairdiv.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_tracer_feasibility_call_shape():
    # the tracer's rejection-sampler hook calls check_mms_feasible(v, budget)
    v = BinaryTable(1, frozenset({1}))
    inspect.signature(oracles.check_mms_feasible).bind(v, None)


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        version = re.search(r'^version = "([^"]+)"$', f.read(), re.M).group(1)
    assert fairdiv.__version__ == version


def _package_trees():
    """The parsed source of each package module other than ``__init__``,
    which only re-exports."""
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        if os.path.basename(path) != "__init__.py":
            with open(path) as f:
                yield ast.parse(f.read(), path)


def _check_kept(defined, read, kept) -> None:
    """Nothing in ``defined`` goes unread unless ``kept`` names it, and each
    name in ``kept`` is defined and unread, so the table cannot go stale."""
    unread = sorted(defined - read - kept)
    stale = sorted(kept - (defined - read))  # read, or no longer defined
    assert (unread, stale) == ([], [])


def test_every_definition_is_read_in_the_package():
    """Each module-level def and class is loaded by name, as an attribute or
    as an import in some package module, or is in ``KEPT``."""
    defined, read = set(), set()
    for tree in _package_trees():
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    _check_kept(defined, read, {name for name in KEPT if "." not in name})


def _members(cls: ast.ClassDef):
    """The names a class body defines, but dunders: annotated fields, class
    attributes and methods."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            names = []
        yield from (name for name in names if not (name.startswith("__") and name.endswith("__")))


def test_every_class_member_is_read_in_the_package():
    """Each member of a module-level class is read somewhere in the package
    as an attribute load, a keyword argument's name or a string constant
    (``serialize`` reads fields through their names), or is in ``KEPT`` as
    ``Class.member``. A member read under another class's name counts."""
    members: dict[str, str] = {}  # "Class.member" -> member
    read = set()
    for tree in _package_trees():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members.update((f"{cls.name}.{name}", name) for name in _members(cls))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                read.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    read_members = {qualified for qualified, name in members.items() if name in read}
    _check_kept(set(members), read_members, {name for name in KEPT if "." in name})


def _records() -> dict:
    """One record of each kind, each from the call that returns it."""
    inst = Instance(2, 3, (Additive.of([1, 1, 1]),) * 2)
    _, maf = match_and_freeze(instances.gen_table1_example())
    _, ccg = cut_and_choose_graph_procedure(instances.random_binary_mms_feasible(5, 7, 12))
    report = oracles.check(inst, (0b111, 0), FairnessNotion.EFX)
    return {MafRound: maf.rounds[0], MafTrace: maf, CcgIteration: ccg.iterations[0],
            CcgTrace: ccg, MaximinResult: oracles.mu(inst.valuations[0], 0b111, 2),
            FairnessViolation: report.violations[0], FairnessReport: report,
            CompatGraph: oracles.pair_compatibility_graph(inst),
            AllocationViolation: validate_allocation(inst, (0b111,))}


# Each record's fields in order: a record is a NamedTuple, and the package
# and the tests build some positionally.
RECORD_FIELDS = {
    MafRound: ("round", "matching", "frozen_now", "leftovers"),
    MafTrace: ("rounds",),
    CcgIteration: ("s", "pi", "walk", "case", "swap_applied", "W", "E"),
    CcgTrace: ("initial_W", "initial_E", "iterations"),
    MaximinResult: ("mu", "witness", "scaled"),
    FairnessViolation: ("envier", "envied", "witness"),
    FairnessReport: ("notion", "holds", "violations"),
    CompatGraph: ("nodes", "edges"),
    AllocationViolation: ("kind", "item"),
}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_read_only_named_tuples(cls):
    record = _records()[cls]
    assert type(record) is cls and cls.__bases__ == (tuple,)
    assert cls._fields == RECORD_FIELDS[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


# A CLI command is a process, so what importing the CLI imports is part of
# every command's cost: the valuations and Instance are plain classes, and
# dataclasses, with the inspect module it imports, stays out. Run without
# site (-S), so nothing but the package imports anything.
def test_the_cli_imports_neither_dataclasses_nor_inspect():
    root = os.path.dirname(PACKAGE)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        root, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, fairdiv.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fairdiv.cli'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "['fairdiv.cli']\n", "")
