import collections
import gc
import itertools
import random
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest

from fairdiv import algorithms, oracles
from fairdiv.algorithms import build_cut_and_choose_graph, cut_and_choose_graph_procedure
from fairdiv.core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    FairnessNotion,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    UnsupportedValuationError,
    Valuation,
    full_mask,
    items_of,
)
from fairdiv.instances import (
    gen_mnw_counterexample,
    gen_nonexistence_stars,
    gen_pmms_not_efx_example,
    gen_separation3,
    random_binary_additive,
    random_binary_mms_feasible,
    random_bivalued,
    random_pair_demand,
)
from fairdiv.oracles import (
    BUDGET,
    DEFAULT_BUDGET,
    BudgetExceededError,
    _interchangeable,
    allocation_satisfies,
    check,
    check_efx,
    check_mms,
    check_mms_feasible,
    check_pmms,
    exists_fair_allocation,
    iter_allocations,
    mu,
    nash_welfare_maximizers,
    pair_compatibility_graph,
)

from helpers import count_value_reads, reference_first_fair, to_explicit_table


def test_mu_additive_bipartition():
    res = mu(Additive.of([1, 2, 3, 4]), full_mask(4), 2)
    assert res.mu == 5
    assert min(Additive.of([1, 2, 3, 4]).value(p) for p in res.witness) == 5


def test_mu_empty_set():
    res = mu(Additive.of([1, 2]), 0, 3)
    assert res.mu == 0
    assert res.witness == (0, 0, 0)


def test_mu_refuses_k_below_one_and_items_outside():
    v = Additive.of([1, 2])
    with pytest.raises(ValueError, match="k must be at least 1"):
        mu(v, 0b11, 0)
    for S in (0b100, -1):
        with pytest.raises(ValueError, match="outside the valuation's range"):
            mu(v, S, 2)


def test_mu_witness_is_partition():
    v = PairDemand.of([2, 3, 5, 7, 11])
    S = 0b10111
    res = mu(v, S, 3)
    acc = 0
    for part in res.witness:
        assert part & acc == 0
        acc |= part
    assert acc == S
    assert min(v.value(p) for p in res.witness) == res.mu


def test_mu_stars_n3():
    inst = gen_nonexistence_stars(3)
    for v in inst.valuations:
        assert mu(v, inst.all_items, 3).mu == 2


def test_mu_separation_agent3():
    inst = gen_separation3()
    assert mu(inst.valuations[2], inst.all_items, 2).mu == 310


def test_mu_monotone_in_k():
    rng = random.Random(5)
    for _ in range(20):
        v = Additive.of([rng.randint(0, 6) for _ in range(5)])
        prev = None
        for k in range(1, 5):
            cur = mu(v, full_mask(5), k).mu
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_mu_budget():
    token = BUDGET.set(100)
    try:
        with pytest.raises(BudgetExceededError):
            mu(Additive.of([1] * 10), full_mask(10), 3)
    finally:
        BUDGET.reset(token)


def _growth_strings(n: int, k: int) -> int:
    """The label vectors of n items over k labels in which each label is at
    most one more than the largest before it, counted one by one."""
    return sum(all(x <= max(vec[:i], default=-1) + 1 for i, x in enumerate(vec))
               for vec in itertools.product(range(k), repeat=n))


# mu is charged its walk's leaves: it runs under a cap of exactly that
# count and is refused one below it.
def test_mu_is_charged_its_leaf_count():
    v = Additive.of([1, 2, 3, 4, 5, 6])
    for n in range(7):
        for k in range(1, 6):
            count = _growth_strings(n, k)
            token = BUDGET.set(count)
            try:
                mu(v, full_mask(n), k)
                BUDGET.set(count - 1)
                with pytest.raises(BudgetExceededError):
                    mu(v, full_mask(n), k)
            finally:
                BUDGET.reset(token)


@pytest.mark.parametrize("m,k,cap,message", [
    (6, 1, 0, "enumeration of size 1 exceeds budget 0"),
    (6, 2, 31, "enumeration of size 2^5 exceeds budget 31"),
    (10, 3, 100, "enumeration of the partitions of 10 items into at most 3 parts "
                 "exceeds budget 100"),
    (3, 10**6, 4, "enumeration of the partitions of 3 items into at most 3 parts "
                  "exceeds budget 4"),
], ids=["one-part", "two-parts", "three-parts", "more-parts-than-items"])
def test_mu_budget_message(m, k, cap, message):
    token = BUDGET.set(cap)
    try:
        with pytest.raises(BudgetExceededError) as err:
            mu(Additive.of([1] * m), full_mask(m), k)
    finally:
        BUDGET.reset(token)
    assert str(err.value) == message


# Past the cap by far, a refusal is immediate and prints no number past the
# 4,300 digits Python will format: for k = 2 the count is 2^(|S| - 1).
def test_mu_refuses_a_huge_walk_at_once():
    v = PersonalizedBivalued(2, 1, 0b1011, 10_000)
    for k, size in ((2, "size 2^9999"), (3, "the partitions of 10000 items into at most 3 parts"),
                    (10_000, "the partitions of 10000 items into at most 10000 parts")):
        with pytest.raises(BudgetExceededError) as err:
            mu(v, full_mask(10_000), k)
        assert str(err.value) == f"enumeration of {size} exceeds budget {DEFAULT_BUDGET}"


# One part has one leaf, whatever S: charged 1, and no walk runs. The walk
# holds item indices, not the 65,536 item masks (268 MB).
def test_mu_one_part_of_65536_items():
    v = PersonalizedBivalued(2, 1, 0b1011, 65_536)
    S = full_mask(65_536)
    token = BUDGET.set(1)
    tracemalloc.start()
    try:
        result = mu(v, S, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        BUDGET.reset(token)
    assert (result.mu, result.witness) == (v.value(S), (S,))
    assert peak < 16 << 20, f"peak {peak >> 20} MB"


# The walk's work on the stars shares, the _value reads of mu(v_i, M, n)
# summed over the agents. Upper bounds: a tighter cut may lower them.
@pytest.mark.parametrize("n, reads", [(3, 258), (4, 8_508), (5, 41_080), (6, 166_512)])
def test_mu_reads_on_stars_shares(n, reads):
    inst = gen_nonexistence_stars(n)
    total = 0
    for v in inst.valuations:
        counted = count_value_reads(v)
        mu(v, inst.all_items, n)
        total += counted()
    assert total <= reads


# Both recursions, the search's (m + 1 calls deep) and the walk's (|S| - 1),
# are refused after their charge when a cap admits them past half the
# recursion limit, not ended by a RecursionError; one agent takes every
# item without recursing, so its search is not refused.
def test_a_search_too_deep_for_the_stack_is_refused():
    m = 1200
    v = PersonalizedBivalued(2, 1, 0b1, m)
    limit = sys.getrecursionlimit() // 2
    token = BUDGET.set(10**400)
    try:
        with pytest.raises(BudgetExceededError) as search:
            exists_fair_allocation(Instance(2, m, (v, v)), FairnessNotion.EFX)
        with pytest.raises(BudgetExceededError) as walk:
            mu(v, full_mask(m), 2)
        assert exists_fair_allocation(Instance(1, m, (v,)), FairnessNotion.EFX) == (full_mask(m),)
    finally:
        BUDGET.reset(token)
    for err, depth in ((search, m + 1), (walk, m - 1)):
        assert str(err.value) == (f"search depth {depth} exceeds {limit}, "
                                  "half the interpreter's recursion limit")


def test_efx_example_and_pmms_separation():
    inst = gen_pmms_not_efx_example()
    X = (0b001, 0b110)  # item 1 alone vs items 2 and 3
    report = check_efx(inst, X)
    assert not report.holds
    assert any(f.envier == 0 and f.envied == 1 and f.witness == 1 for f in report.violations)
    assert check_pmms(inst, X).holds
    # the removable item is zero-valued
    assert check(inst, X, FairnessNotion.EFX_POSITIVE).holds
    assert mu(inst.valuations[0], inst.all_items, 2).mu == 0


def test_efx_single_agent():
    inst = Instance(1, 2, (Additive.of([1, 1]),))
    assert check_efx(inst, (0b11,)).holds


def test_efx_positive_requires_additive():
    inst = Instance(2, 2, (PairDemand.of([1, 1]), PairDemand.of([1, 1])))
    with pytest.raises(UnsupportedValuationError):
        check(inst, (0b01, 0b10), FairnessNotion.EFX_POSITIVE)


def test_efx_positive_equals_efx_when_all_positive():
    rng = random.Random(11)
    for _ in range(20):
        vals = tuple(Additive.of([rng.randint(1, 5) for _ in range(4)]) for _ in range(2))
        inst = Instance(2, 4, vals)
        for X in [(0b0011, 0b1100), (0b0001, 0b1110)]:
            positive = check(inst, X, FairnessNotion.EFX_POSITIVE)
            assert check_efx(inst, X).holds == positive.holds


def test_pmms_empty_bundle_fails():
    v = Additive.of([1, 1])
    inst = Instance(2, 2, (v, v))
    report = check_pmms(inst, (0b11, 0))
    assert not report.holds
    assert report.violations[0].envier == 1


def test_mms_simple():
    v = Additive.of([1, 1])
    inst = Instance(2, 2, (v, v))
    assert check_mms(inst, (0b01, 0b10)).holds
    one = Instance(1, 2, (v,))
    assert check_mms(one, (0b11,)).holds


def test_pmms_equals_mms_two_agents():
    rng = random.Random(23)
    for _ in range(50):
        vals = tuple(Additive.of([rng.randint(0, 5) for _ in range(5)]) for _ in range(2))
        inst = Instance(2, 5, vals)
        X0 = rng.getrandbits(5)
        X = (X0, full_mask(5) ^ X0)
        assert check_pmms(inst, X).holds == check_mms(inst, X).holds


def test_mms_feasible_additive_and_zero():
    assert check_mms_feasible(Additive.of([3, 1, 4, 1]))
    assert check_mms_feasible(Additive.of([0, 0, 0]))


def test_mms_feasible_counterexample():
    # v(S) = 1 iff S contains {1,2} or {3,4} (0-based: {0,1} or {2,3})
    ones = frozenset(
        mask for mask in range(1 << 4)
        if (mask & 0b0011) == 0b0011 or (mask & 0b1100) == 0b1100
    )
    assert not check_mms_feasible(BinaryTable(4, ones))


# check_mms_feasible reads a table valuation's stored values, one sequence
# of 2^m, and asks _value of no mask.
@pytest.mark.parametrize("v,feasible", [
    (BinaryTable(4, frozenset({0b0011, 0b1100, 0b0111, 0b1011, 0b1101, 0b1110, 0b1111})),
     False),
    (BinaryTable(3, frozenset(range(1, 8))), True),
    (BinaryTable(2, frozenset()), True),
    (ExplicitTable.of([0, 1, 1, 2]), True),
    (ExplicitTable.of(["-1/2", 3, 3, 3]), True),
], ids=["binary-infeasible", "binary-feasible", "binary-one-valued",
        "explicit-three-valued", "explicit-two-valued"])
def test_mms_feasible_reads_table_without_value_calls(monkeypatch, v, feasible):
    def refuse(self, mask):
        raise AssertionError("check_mms_feasible called _value")

    for cls in (ExplicitTable, BinaryTable):
        monkeypatch.setattr(cls, "_value", refuse)
    assert check_mms_feasible(v) is feasible


def test_exists_fair_allocation_and_first_witness():
    v = Additive.of([1, 1])
    inst = Instance(2, 2, (v, v))
    found = exists_fair_allocation(inst, FairnessNotion.PMMS)
    assert found == (0b01, 0b10)  # lexicographically first owner vector (0, 1)


def test_search_matches_reference_scan():
    # Tables with negative entries are neither monotone nor normalized, so
    # no test can lean on either; m = 0 and n = 1 are in the range.
    rng = random.Random(20)
    cases = 0
    for _ in range(250):
        n = rng.randint(1, 4)
        m = rng.randint(0, 5 if n == 4 else 6)
        tables = tuple(ExplicitTable.of([rng.randint(-2, 4) for _ in range(1 << m)])
                       for _ in range(n))
        additive = tuple(Additive.of([rng.randint(0, 3) for _ in range(m)]) for _ in range(n))
        for vals, notions in ((tables, (FairnessNotion.PMMS, FairnessNotion.EFX,
                                        FairnessNotion.MMS)),
                              (additive, (FairnessNotion.EFX_POSITIVE,))):
            inst = Instance(n, m, vals, monotone_required=False, normalized_required=False)
            for notion in notions:
                assert exists_fair_allocation(inst, notion) == reference_first_fair(inst, notion)
                cases += 1
    assert cases == 1000


def test_search_returns_the_first_owner_vector_not_the_first_found():
    # The search meets owners (2, 0, 1) first: agent 0 tries {1} before {2}.
    # Owners (1, 2, 0) come before it and are EFX too, so the search must
    # go on past its first find.
    tables = ([1, -1, 2, 0, 1, 1, -1, 2], [-1, 1, -1, 2, 2, 0, 1, 1], [0, 2, 2, 1, -1, 1, 0, -1])
    inst = Instance(3, 3, tuple(map(ExplicitTable.of, tables)),
                    monotone_required=False, normalized_required=False)
    assert allocation_satisfies(inst, (0b010, 0b100, 0b001), FairnessNotion.EFX)
    assert exists_fair_allocation(inst, FairnessNotion.EFX) == (0b100, 0b001, 0b010)
    assert reference_first_fair(inst, FairnessNotion.EFX) == (0b100, 0b001, 0b010)


def _count_table(rng: random.Random, m: int, inside: int) -> ExplicitTable:
    """A monotone, normalized table whose value depends only on how many
    items a mask holds inside and outside the mask ``inside``."""
    f = [[a + b + rng.randint(0, 1) * (a > 0) for b in range(m + 1)] for a in range(m + 1)]
    return ExplicitTable.of([f[(S & inside).bit_count()][(S & ~inside).bit_count()]
                             for S in range(1 << m)])


# Instances with interchangeable items: the search visits only allocations
# whose owners never decrease along a class, and must still return the
# scan's first fair allocation, or None, under every notion.
def test_search_with_interchangeable_items_matches_reference_scan():
    rng = random.Random(24)
    with_classes = cases = 0
    for case in range(90):
        n, m = rng.randint(2, 3), rng.randint(2, 6)
        kind = case % 3
        if kind == 0:
            inst = random_binary_additive(n, m, case)
        elif kind == 1:  # additive, item values drawn from two
            two = rng.sample(range(5), 2)
            inst = Instance(n, m, tuple(Additive.of([rng.choice(two) for _ in range(m)])
                                        for _ in range(n)))
        else:
            inside = rng.getrandbits(m)
            inst = Instance(n, m, tuple(_count_table(rng, m, inside) for _ in range(n)))
        with_classes += bool(_interchangeable(inst))
        for notion in FairnessNotion:
            if notion is FairnessNotion.EFX_POSITIVE and kind == 2:
                continue  # EFX+ is defined for additive valuations only
            assert exists_fair_allocation(inst, notion) == reference_first_fair(inst, notion)
            cases += 1
    assert with_classes >= 60 and cases == 330


# A valuation with no table and no item labels: every item is alike to it,
# but it knows no classes, so no instance with it has any.
@dataclass(frozen=True)
class AtMostTwo(Valuation):
    """v(S) = min(|S|, 2)."""

    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", 1)

    @property
    def num_items(self) -> int:
        return self.m

    def _value(self, mask: int) -> int:
        return min(mask.bit_count(), 2)


def test_a_valuation_with_no_item_labels_leaves_no_classes():
    tables = tuple(to_explicit_table(Additive.of(values))
                   for values in ([1, 1, 2, 2, 1], [2, 2, 1, 1, 2]))
    assert _interchangeable(Instance(2, 5, tables)) == [0b10011, 0b01100]
    inst = Instance(3, 5, (*tables, AtMostTwo(5)))
    assert _interchangeable(inst) == []
    as_tables = Instance(3, 5, (*tables, to_explicit_table(AtMostTwo(5))))  # for the reference
    for notion in (FairnessNotion.PMMS, FairnessNotion.EFX, FairnessNotion.MMS):
        assert exists_fair_allocation(inst, notion) == reference_first_fair(as_tables, notion)


def count_envy_tests(monkeypatch, notion) -> list:
    """A one-element list that counts the envy tests the notion's test
    makes from now on, cut-and-choose's PMMS tests included."""
    calls = [0]
    bind = oracles._TESTS[notion]

    def counting(inst):
        test = bind(inst)

        def fails(*args):
            calls[0] += 1
            return test.fails(*args)

        return test._replace(fails=fails)

    monkeypatch.setitem(oracles._TESTS, notion, counting)
    if notion is FairnessNotion.PMMS:  # cut-and-choose binds it by name
        monkeypatch.setattr(algorithms, "_pmms_test", counting)
    return calls


# Each bound is the number of envy tests (pair tests, or MMS agent tests) the
# search makes as written: a pruning rule may lower it, nothing may raise it.
# The stars searches visit one allocation per orbit of the stars (and, at
# n = 4, of the two commons every agent's special split keeps together);
# over every allocation the stars-4 PMMS search made 70,794.
@pytest.mark.parametrize("make,notion,tests", [
    (lambda: gen_nonexistence_stars(3), FairnessNotion.PMMS, 544),
    (lambda: gen_nonexistence_stars(3), FairnessNotion.EFX, 171),
    (lambda: gen_nonexistence_stars(3), FairnessNotion.MMS, 111),
    (lambda: gen_nonexistence_stars(4), FairnessNotion.PMMS, 27_053),
    (lambda: gen_nonexistence_stars(4), FairnessNotion.EFX, 9_445),
    (lambda: gen_nonexistence_stars(4), FairnessNotion.MMS, 5_813),
    (lambda: gen_nonexistence_stars(5), FairnessNotion.PMMS, 247_104),
    (lambda: gen_nonexistence_stars(5), FairnessNotion.EFX, 85_093),
    (lambda: gen_nonexistence_stars(5), FairnessNotion.MMS, 53_482),
    (gen_separation3, FairnessNotion.PMMS, 1_555),
    (gen_separation3, FairnessNotion.EFX, 169),
    (gen_separation3, FairnessNotion.MMS, 105),
], ids=[f"{name}-{notion}" for name in ("stars-3", "stars-4", "stars-5", "separation3")
        for notion in ("pmms", "efx", "mms")])
def test_search_makes_at_most_its_envy_tests(monkeypatch, make, notion, tests):
    calls = count_envy_tests(monkeypatch, notion)
    found = exists_fair_allocation(make(), notion)
    assert (found is None) == (notion is FairnessNotion.PMMS)
    assert 0 < calls[0] <= tests


# The search recurses only to keep an item in the bundle being built, so its
# depth is at most m + 1 however many agents there are. With two items each
# worth 1 to everyone, the first EFX allocation gives one item to each of
# agents 0 and 1, and so does the first PMMS allocation (agent 1's share of
# both items is 1); the MMS share of every agent is 0, so the first MMS
# allocation gives both to agent 0.
@pytest.mark.parametrize("notion,first", [
    (FairnessNotion.EFX, (0b01, 0b10)),
    (FairnessNotion.PMMS, (0b01, 0b10)),
    (FairnessNotion.MMS, (0b11, 0)),
], ids=["efx", "pmms", "mms"])
def test_many_agents_need_no_recursion(notion, first):
    n = 5000
    v = Additive.of([1, 1])
    assert exists_fair_allocation(Instance(n, 2, (v,) * n), notion) == first + (0,) * (n - 2)


# Two empty bundles are never tested against each other, so the n = 5,000
# searches above test each of the n - 2 empty bundles against the two that
# hold an item, 19,996 tests in all; testing every pair took 24,995,002.
# So do check and allocation_satisfies on the allocation found, and
# cut-and-choose on its round-robin start, the same allocation, and on the
# cut graph from an empty bundle: 19,994 tests, or 10,000 for the graph.
# From a bundle that holds an item every empty bundle gives one verdict, so
# the cut graph tests the first empty one only: 10,000 tests, where testing
# every bundle took 24,995,000. Each item is worth 1 under both valuations.
PAIR_LOOPS = {
    "search": lambda inst, notion, X: exists_fair_allocation(inst, notion) == X,
    "check": lambda inst, notion, X: check(inst, X, notion).holds,
    "satisfies": lambda inst, notion, X: allocation_satisfies(inst, X, notion),
    "ccg": lambda inst, notion, X: cut_and_choose_graph_procedure(inst)[0] == X,
    "cut-graph": lambda inst, notion, X: build_cut_and_choose_graph(inst, X, 2) == (2,) * inst.n,
    "cut-graph-held": lambda inst, notion, X: build_cut_and_choose_graph(inst, X, 0) == (0,) * inst.n,
}


@pytest.mark.parametrize("loop,notion,v", [
    ("search", FairnessNotion.EFX, Additive.of([1, 1])),
    ("search", FairnessNotion.PMMS, Additive.of([1, 1])),
    ("check", FairnessNotion.EFX, Additive.of([1, 1])),
    ("check", FairnessNotion.PMMS, Additive.of([1, 1])),
    ("satisfies", FairnessNotion.EFX, Additive.of([1, 1])),
    ("satisfies", FairnessNotion.PMMS, Additive.of([1, 1])),
    ("ccg", FairnessNotion.PMMS, BinaryTable(2, (0b01, 0b10, 0b11))),
    ("cut-graph", FairnessNotion.PMMS, BinaryTable(2, (0b01, 0b10, 0b11))),
    ("cut-graph-held", FairnessNotion.PMMS, BinaryTable(2, (0b01, 0b10, 0b11))),
], ids=["efx", "pmms", "check-efx", "check-pmms", "satisfies-efx", "satisfies-pmms", "ccg",
        "cut-graph", "cut-graph-held"])
def test_many_empty_bundles_are_not_tested_in_pairs(monkeypatch, loop, notion, v):
    n = 5000
    calls = count_envy_tests(monkeypatch, notion)
    assert PAIR_LOOPS[loop](Instance(n, 2, (v,) * n), notion, (0b01, 0b10) + (0,) * (n - 2))
    assert calls[0] <= 40_000


def test_pmms_scan_builds_no_witness(monkeypatch):
    def no_witness(*args):
        raise AssertionError("mu called")

    monkeypatch.setattr(oracles, "mu", no_witness)
    v = Additive.of([1, 1])
    inst = Instance(2, 2, (v, v))
    assert not allocation_satisfies(inst, (0b11, 0), FairnessNotion.PMMS)
    assert exists_fair_allocation(gen_separation3(), FairnessNotion.PMMS) is None


# Each search, check, graph or cut-and-choose run keeps its own share memo:
# a share is computed, and its splits charged, once per (agent, S). The
# stars-4 search looks a share up 27,053 times, over 823 distinct
# (agent, S); the ccg run takes two cycle steps, and each step re-asks
# pairs the step before it asked.
@pytest.mark.parametrize("run,shares", [
    (lambda: exists_fair_allocation(gen_nonexistence_stars(4), FairnessNotion.PMMS), 823),
    (lambda: pair_compatibility_graph(gen_separation3()), 45),
    (lambda: cut_and_choose_graph_procedure(random_binary_mms_feasible(5, 7, 12)), 39),
], ids=["stars-4-search", "separation3-graph", "ccg-run"])
def test_each_share_is_computed_once_per_call(monkeypatch, run, shares):
    calls = collections.Counter()
    share = oracles._pmms_share

    def counting_share(v, S):
        calls[v, S] += 1
        return share(v, S)

    monkeypatch.setattr(oracles, "_pmms_share", counting_share)
    run()
    assert len(calls) == shares and max(calls.values()) == 1


class CountingPairDemand(PairDemand):
    """Counts its ``_value`` calls; its closed-form share makes none."""

    calls = 0

    def _value(self, mask: int) -> int:
        CountingPairDemand.calls += 1
        return super()._value(mask)


# A PMMS check values each agent's own bundle once, not once per pair, and
# a PMMS allocation asks for no witness, which would value bundles.
def test_check_values_each_own_bundle_once():
    v = CountingPairDemand.of([1] * 8)
    inst = Instance(4, 8, (v,) * 4)
    CountingPairDemand.calls = 0
    assert check(inst, (0b11, 0b1100, 0b110000, 0b11000000), FairnessNotion.PMMS).holds
    assert CountingPairDemand.calls == 4


# Every test of every notion is handed v_i._value(X_i) as the envier's own
# value, by the search, the checks, the compatibility graph and
# cut-and-choose runs, in its verdict and in its witness.
def test_every_test_is_handed_the_envier_own_value(monkeypatch):
    calls = collections.Counter()
    path = ""

    def own_checked(bind):
        def bound(inst):
            test = bind(inst)

            def checked(ask):
                def call(i, own, mine, *theirs):
                    assert own == inst.valuations[i]._value(mine)
                    calls[path] += 1
                    return ask(i, own, mine, *theirs)
                return call

            return test._replace(fails=checked(test.fails), witness=checked(test.witness))
        return bound

    for notion, bind in list(oracles._TESTS.items()):
        monkeypatch.setitem(oracles._TESTS, notion, own_checked(bind))
    pmms = own_checked(oracles._pmms_test)
    monkeypatch.setattr(oracles, "_pmms_test", pmms)
    monkeypatch.setattr(algorithms, "_pmms_test", pmms)
    rng = random.Random(30)
    for seed in range(4):
        for inst in (random_pair_demand(3, 5, seed), random_bivalued(3, 5, seed),
                     random_binary_additive(3, 5, seed), random_binary_mms_feasible(3, 5, seed)):
            notions = [notion for notion in FairnessNotion if notion is not
                       FairnessNotion.EFX_POSITIVE or inst.valuations[0].is_additive()]
            for notion in notions:
                path = "search"
                exists_fair_allocation(inst, notion)
                path = "check"
                for _ in range(3):
                    bundles = [0] * 3
                    for g in range(5):
                        bundles[rng.randrange(3)] |= 1 << g
                    check(inst, bundles, notion)
            path = "graph"
            pair_compatibility_graph(inst)
    path = "ccg"
    for seed in (0, 4, 12):  # runs that take one, one and two steps
        _, trace = cut_and_choose_graph_procedure(random_binary_mms_feasible(5, 7, seed))
        assert trace.iterations
    assert min(calls[p] for p in ("search", "check", "graph", "ccg")) > 0, calls


# The memo dies with its call, so a check or a cut-and-choose run under a
# smaller cap is charged as if no search, check or run had come before it.
def test_share_memo_does_not_outlive_its_call():
    v = ExplicitTable.of(list(range(1 << 4)))
    inst = Instance(2, 4, (v, v))
    bundles = (0b1000, 0b0111)  # 8 and 7, the share of both: the split {7, 8}
    binary = random_binary_mms_feasible(5, 7, 12)  # X_0 | X_1 has 4 items
    assert exists_fair_allocation(inst, FairnessNotion.PMMS) is not None
    assert check_pmms(inst, bundles).holds
    cut_and_choose_graph_procedure(binary)
    token = BUDGET.set(15)
    try:
        with pytest.raises(BudgetExceededError) as err:
            check_pmms(inst, bundles)
        with pytest.raises(BudgetExceededError) as ccg_err:
            cut_and_choose_graph_procedure(binary)
    finally:
        BUDGET.reset(token)
    assert str(err.value) == str(ccg_err.value) == "enumeration of size 2^4 exceeds budget 15"


# Every search, check, graph or run frees what it built on return: none
# leaves a reference cycle for the collector to find.
@pytest.mark.parametrize("run", [
    lambda: exists_fair_allocation(gen_nonexistence_stars(3), FairnessNotion.PMMS),
    lambda: exists_fair_allocation(gen_mnw_counterexample(), FairnessNotion.MMS),
    lambda: check_pmms(gen_separation3(), (0b000011, 0b001100, 0b110000)),
    lambda: cut_and_choose_graph_procedure(random_binary_mms_feasible(5, 7, 12)),
    lambda: pair_compatibility_graph(gen_separation3()),
    lambda: [mu(v, full_mask(8), 4) for v in gen_nonexistence_stars(4).valuations],
], ids=["pmms-search", "mms-search", "check-pmms", "ccg-run", "compat-graph", "mu-k4-walk"])
def test_call_leaves_no_reference_cycle(run):
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_iter_allocations_count_and_order():
    allocs = list(iter_allocations(2, 3))
    assert len(allocs) == 8
    assert allocs[0] == (0b111, 0)  # owner vector (0,0,0)
    assert allocs[-1] == (0, 0b111)


def test_nash_welfare_simple():
    v = Additive.of([1, 1])
    inst = Instance(2, 2, (v, v))
    best, argmax = nash_welfare_maximizers(inst)
    assert best == 1
    assert len(argmax) == 2
    one = Instance(1, 2, (v,))
    best, argmax = nash_welfare_maximizers(one)
    assert best == 2 and argmax == [(0b11,)]


def test_nash_welfare_counterexample():
    inst = gen_mnw_counterexample()
    best, argmax = nash_welfare_maximizers(inst)
    assert best == 25
    assert argmax == [(0b0001, 0b1110), (0b0010, 0b1101)]
    assert all(not check_efx(inst, X).holds for X in argmax)


def test_compat_graph_simple_edge():
    v = Additive.of([1, 1, 1, 1])
    inst = Instance(2, 4, (v, v))
    graph = pair_compatibility_graph(inst)
    assert ((0, 0b0011), (1, 0b1100)) in graph.edges
    assert not graph.has_triangle()  # two agents can never form one


def test_compat_graph_separation_triangle_free():
    graph = pair_compatibility_graph(gen_separation3())
    assert len(graph.edges) > 0
    assert not graph.has_triangle()
    # the nodes are those with an edge, 36 of the 45, by agent and then by pair
    assert set(graph.nodes) == {node for edge in graph.edges for node in edge}
    assert len(graph.nodes) == 36
    order = sorted(graph.nodes, key=lambda node: (node[0], tuple(items_of(node[1]))))
    assert list(graph.nodes) == order


@pytest.mark.parametrize("values, edges, triangle", [
    ([1] * 6, 270, True),  # any three disjoint pairs suit three identical agents
    # a pair holding item 0 is envied, and items 1..5 hold no three disjoint pairs
    ([5, 1, 1, 1, 1, 1], 90, False),
])
def test_compat_graph_triangle(values, edges, triangle):
    inst = Instance(3, 6, (Additive.of(values),) * 3)
    graph = pair_compatibility_graph(inst)
    assert len(graph.edges) == edges
    assert graph.has_triangle() is triangle
