"""The public surface: the package's ``__all__``, and every function the
benchmark's tracer (``perfbench/tracer.py``) wraps by name or calls, so a
refactor that renames or removes one, or changes how it is called, fails
here rather than in a traced run."""

import importlib
import importlib.util
import inspect
import os

import fairdiv
from fairdiv import oracles
from fairdiv.core import BinaryTable

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

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
    "check_efx_positive",
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
    "to_explicit_table",
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
