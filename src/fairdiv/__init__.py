"""fairdiv: exact discrete fair division — allocation algorithms for
structured valuation classes, brute-force fairness oracles, counterexample
generators, and exhaustive verifiers."""

from .core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    FairnessNotion,
    Instance,
    InvalidBundleError,
    PairDemand,
    PersonalizedBivalued,
    UnsupportedValuationError,
    Valuation,
    full_mask,
    is_monotone,
    items_of,
    mask_of,
    validate_allocation,
)
from .oracles import (
    BudgetExceededError,
    FairnessReport,
    check,
    check_efx,
    check_mms,
    check_mms_feasible,
    check_pmms,
    exists_fair_allocation,
    mu,
    nash_welfare_maximizers,
    pair_compatibility_graph,
)
from .algorithms import (
    CutAndChooseStuckError,
    cut_and_choose_graph_procedure,
    match_and_freeze,
    reversed_round_robin,
)

__version__ = "0.4.0"

__all__ = [
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
