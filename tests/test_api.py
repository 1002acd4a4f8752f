"""The public surface: the package's ``__all__`` and version, and every
function the benchmark's tracer (``perfbench/tracer.py``) wraps by name or
calls, so a refactor that renames or removes one, or changes how it is
called, fails here rather than in a traced run. And its converse: every
module-level function and class in the package is read by the package
itself, unless ``KEPT`` says why not."""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import re

import fairdiv
from fairdiv import oracles
from fairdiv.core import BinaryTable

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
PACKAGE = os.path.dirname(fairdiv.__file__)

# The package's definitions that nothing in the package reads, each with
# the reason it stays.
KEPT = {
    "check_efx": "perfbench/tracer.py spans it; perfbench/workloads.py calls it",
    "check_pmms": "perfbench/tracer.py spans it",
    "check_mms": "perfbench/tracer.py spans it; perfbench/workloads.py calls it",
    "allocation_satisfies": "perfbench/tracer.py spans it",
    "clear_caches": "perfbench/workloads.py calls it before every task",
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


def test_every_definition_is_read_in_the_package():
    """Each module-level def and class of a package module other than
    ``__init__`` is loaded by name, as an attribute or as an import in some
    such module, or is in ``KEPT``; and each name in ``KEPT`` is defined
    and unread, so the table cannot go stale."""
    defined, read = set(), set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = sorted(defined - read - KEPT.keys())
    stale = sorted(KEPT.keys() - (defined - read))  # read, or no longer defined
    assert (unread, stale) == ([], [])
