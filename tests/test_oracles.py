import collections
import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from fairdiv import oracles
from fairdiv.algorithms import cut_and_choose_graph_procedure
from fairdiv.core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    FairnessNotion,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    UnsupportedValuationError,
    full_mask,
)
from fairdiv.instances import (
    gen_mnw_counterexample,
    gen_nonexistence_stars,
    gen_pmms_not_efx_example,
    gen_separation3,
    random_binary_additive,
    random_binary_mms_feasible,
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

from helpers import reference_first_fair


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


# One part has one leaf, whatever S: charged 1. The walk is iterative and
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


# The stars n = 4 search visits one allocation per orbit of the two stars
# (and of the two commons every agent's special split keeps together). The
# search over every allocation made 70,794 envy tests.
def test_stars_4_pmms_search_makes_at_most_30000_envy_tests(monkeypatch):
    calls = 0
    bind = oracles._TESTS[FairnessNotion.PMMS]

    def counting(inst):
        test = bind(inst)

        def fails(*args):
            nonlocal calls
            calls += 1
            return test.fails(*args)

        return test._replace(fails=fails)

    monkeypatch.setitem(oracles._TESTS, FairnessNotion.PMMS, counting)
    assert exists_fair_allocation(gen_nonexistence_stars(4), FairnessNotion.PMMS) is None
    assert 0 < calls <= 30_000


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
# stars-4 search looks a share up 27,083 times, over 826 distinct
# (agent, S); the ccg run takes two cycle steps, and each step re-asks
# pairs the step before it asked.
@pytest.mark.parametrize("run,shares", [
    (lambda: exists_fair_allocation(gen_nonexistence_stars(4), FairnessNotion.PMMS), 826),
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
], ids=["pmms-search", "mms-search", "check-pmms", "ccg-run", "compat-graph"])
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
