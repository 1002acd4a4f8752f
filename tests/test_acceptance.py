"""End-to-end acceptance suite.

Each test prints one "criterion N ...: PASS/FAIL" line directly to the
terminal (bypassing capture) and enforces the stated runtime limits.
"""

import itertools
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fairdiv import serialize
from fairdiv.algorithms import (
    cut_and_choose_graph_procedure,
    maf_trace_lines,
    match_and_freeze,
    reversed_round_robin,
)
from fairdiv.core import (
    Additive,
    FairnessNotion,
    Instance,
    PairDemand,
    full_mask,
    is_monotone,
    mask_of,
)
from fairdiv.instances import (
    gen_mnw_counterexample,
    gen_nonexistence_stars,
    gen_separation3,
    gen_table1_example,
    random_binary_additive,
    random_binary_mms_feasible,
    random_bivalued,
    random_pair_demand,
    stars_partition_size,
)
from fairdiv.matching import max_cardinality_max_weight_matching
from fairdiv.oracles import (
    check,
    check_efx,
    check_mms,
    check_pmms,
    exists_fair_allocation,
    iter_allocations,
    mu,
    nash_welfare_maximizers,
    pair_compatibility_graph,
)

from helpers import (
    brute_force_matching_oracle,
    check_maf_trace_invariants,
    check_matching_round_property,
    inactive_rounds,
    match_and_freeze_with_graphs,
    pair_demand_mu_closed_form,
    reference_first_fair,
    round_graph,
)

GOLDEN_TRACE = os.path.join(os.path.dirname(__file__), "data", "table1_trace.txt")


def report(capsys, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\n{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n{label}: PASS")


def test_criterion_1_table1_trace(capsys):
    def body():
        inst = gen_table1_example()
        start = time.monotonic()
        bundles, trace = match_and_freeze(inst)
        lines = maf_trace_lines(trace)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        golden = Path(GOLDEN_TRACE).read_text().splitlines()
        assert lines == golden
        assert inactive_rounds(trace, 1) == {2}
        assert inactive_rounds(trace, 3) == {2, 3, 4}
        assert sorted(a for a, _ in trace.rounds[5].leftovers) == [0, 2]
        assert [v.value(X) for v, X in zip(inst.valuations, bundles)] == [6, 6, 6, 6]

    report(capsys, "criterion 1 (Table 1 execution trace)", body)


def test_criterion_2_separation_instance(capsys):
    def body():
        start = time.monotonic()
        inst = gen_separation3()
        assert exists_fair_allocation(inst, FairnessNotion.PMMS) is None  # all 729
        # the 90 balanced (2,2,2) allocations all fail PMMS
        items = range(6)
        balanced = 0
        for group in itertools.combinations(items, 2):
            rest = [g for g in items if g not in group]
            for group2 in itertools.combinations(rest, 2):
                group3 = tuple(g for g in rest if g not in group2)
                bundles = tuple(mask_of(p) for p in (group, group2, group3))
                assert not check_pmms(inst, bundles).holds
                balanced += 1
        assert balanced == 90
        assert not pair_compatibility_graph(inst).has_triangle()
        assert exists_fair_allocation(inst, FairnessNotion.MMS) is not None
        # ... while an EFX allocation exists: the pairs {0,1}, {2,3}, {4,5}
        assert exists_fair_allocation(inst, FairnessNotion.EFX) == (3, 12, 48)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

    report(capsys, "criterion 2 (three-agent instance with no PMMS allocation)", body)


def test_criterion_3_stars_family(capsys):
    def body():
        # n = 2: with two agents the pairwise and global maximin notions
        # coincide, so no allocation can be MMS either, and the fair share
        # is k+1 (the two special bundles partition the items). Verified
        # exactly in that corrected form; see the n >= 3 cases for the
        # fair-share-equals-k and MMS-existence claims.
        inst2 = gen_nonexistence_stars(2)
        k2 = stars_partition_size(2)
        assert exists_fair_allocation(inst2, FairnessNotion.PMMS) is None
        assert exists_fair_allocation(inst2, FairnessNotion.MMS) is None
        assert all(mu(v, inst2.all_items, 2).mu == k2 + 1 for v in inst2.valuations)
        # yet an EFX allocation exists at every size
        efx2 = exists_fair_allocation(inst2, FairnessNotion.EFX)
        assert efx2 is not None and efx2 == reference_first_fair(inst2, FairnessNotion.EFX)

        for n in (3, 4, 5, 6):
            start = time.monotonic()
            inst = gen_nonexistence_stars(n)
            k = stars_partition_size(n)
            assert exists_fair_allocation(inst, FairnessNotion.PMMS) is None
            assert all(mu(v, inst.all_items, n).mu == k for v in inst.valuations)
            # stars to the first n-2 agents, then one agent's special split
            stars = [1 << j for j in range(n - 2)]
            commons = inst.all_items ^ sum(stars)
            v = inst.valuations[n - 2]
            A = next(
                mask_of(c)
                for c in itertools.combinations(range(n - 2, inst.m), k)
                if v.value(mask_of(c)) == k + 1
            )
            bundles = tuple(stars + [A, commons ^ A])
            assert check_mms(inst, bundles).holds
            efx = exists_fair_allocation(inst, FairnessNotion.EFX)
            assert efx is not None
            elapsed = time.monotonic() - start
            assert elapsed < 60.0, f"n={n} took {elapsed:.2f}s"
            if n <= 4:  # the scan of all n^m allocations, on Fraction values
                assert efx == reference_first_fair(inst, FairnessNotion.EFX)

    report(capsys, "criterion 3 (stars family: no PMMS, fair shares, MMS, EFX)", body)


# The stars fair share at sizes criterion 3's searches do not reach: every
# agent's mu(v, M, n) = k under the default budget, each in under 0.3 s.
def test_criterion_3_stars_fair_shares_at_n6_and_n7(capsys):
    def body():
        for n in (6, 7):
            inst = gen_nonexistence_stars(n)
            k = stars_partition_size(n)
            for i, v in enumerate(inst.valuations):
                start = time.monotonic()
                assert mu(v, inst.all_items, n).mu == k
                elapsed = time.monotonic() - start
                assert elapsed < 0.3, f"n={n}, agent {i} took {elapsed:.3f}s"

    report(capsys, "criterion 3 (stars n = 6, 7: fair share k, under 0.3 s per agent)", body)


def test_criterion_4_nash_welfare(capsys):
    def body():
        inst = gen_mnw_counterexample()
        best, argmax = nash_welfare_maximizers(inst)
        assert best == Fraction(25)
        assert argmax == [(0b0001, 0b1110), (0b0010, 0b1101)]
        assert all(not check_efx(inst, X).holds for X in argmax)

    report(capsys, "criterion 4 (Nash welfare maximizers fail EFX)", body)


def test_criterion_5_match_and_freeze_properties(capsys):
    def body():
        rng = random.Random(2024)
        factored_count = 0
        b_zero_seen = 0
        for trial in range(1000):
            factored = trial % 5 < 2  # 400 factored instances
            n = rng.randint(2, 5)
            m = rng.randint(n, 10)
            inst = random_bivalued(n, m, seed=trial, factored=factored)
            bundles, trace, graphs = match_and_freeze_with_graphs(inst)
            assert check_efx(inst, bundles).holds, f"trial {trial}: EFX fails"
            check_maf_trace_invariants(inst, trace, graphs)
            for rnd, graph in zip(trace.rounds, graphs):
                check_matching_round_property(graph, rnd.matching)
            if all(v.is_factored() for v in inst.valuations):
                factored_count += 1
                assert check_pmms(inst, bundles).holds, f"trial {trial}: PMMS fails"
            b_zero_seen += sum(1 for v in inst.valuations if v.b == 0)
        assert factored_count >= 300
        assert b_zero_seen > 0

    report(capsys, "criterion 5 (match-and-freeze: EFX always, PMMS when factored)", body)


def test_criterion_6_cut_and_choose_properties(capsys):
    def body():
        rng = random.Random(77)
        non_monotone = 0
        non_normalized = 0
        for trial in range(500):
            n = rng.randint(2, 4)
            m = rng.randint(4, 8)
            normalized = trial % 10 >= 3  # 150 runs allow v(empty) = 1
            inst = random_binary_mms_feasible(n, m, seed=trial, normalized=normalized)
            if any(not is_monotone(v) for v in inst.valuations):
                non_monotone += 1
            if any(v.value(0) == 1 for v in inst.valuations):
                non_normalized += 1
            bundles, trace = cut_and_choose_graph_procedure(inst)
            assert len(trace.iterations) <= n * n
            prev = (trace.initial_W, trace.initial_E)
            for it in trace.iterations:
                assert (it.W, it.E) > prev, f"trial {trial}: potential not increasing"
                prev = (it.W, it.E)
            assert check_pmms(inst, bundles).holds, f"trial {trial}: PMMS fails"
        assert non_monotone >= 100, f"only {non_monotone} non-monotone instances"
        assert non_normalized >= 50, f"only {non_normalized} non-normalized instances"

    report(capsys, "criterion 6 (cut-and-choose graph: termination and PMMS)", body)


def test_criterion_7_reversed_round_robin_properties(capsys):
    def body():
        rng = random.Random(99)
        for trial in range(1000):
            n = rng.randint(1, 5)
            m = rng.randint(1, 12)
            inst = random_pair_demand(n, m, seed=trial)
            leftover = rng.randrange(n)
            bundles = reversed_round_robin(inst, leftover_agent=leftover)
            assert check_pmms(inst, bundles).holds, f"trial {trial}: PMMS fails"
        for trial in range(500):
            values = sorted(Fraction(rng.randint(0, 20)) for _ in range(4))
            rng.shuffle(values)
            pair_demand_mu_closed_form(PairDemand.of(values))  # asserts internally

    report(capsys, "criterion 7 (reversed round-robin PMMS; 4-item fair-share closed form)", body)


def test_criterion_8_cross_notion_properties(capsys):
    def body():
        rng = random.Random(123)
        # (a) two agents: PMMS holds iff MMS holds
        for trial in range(500):
            m = rng.randint(2, 6)
            vals = tuple(Additive.of([rng.randint(0, 6) for _ in range(m)]) for _ in range(2))
            inst = Instance(2, m, vals)
            X0 = rng.getrandbits(m)
            X = (X0, full_mask(m) ^ X0)
            assert check_pmms(inst, X).holds == check_mms(inst, X).holds
        # (b) binary additive: EFX implies PMMS
        for trial in range(500):
            inst = random_binary_additive(rng.randint(2, 3), rng.randint(2, 6), seed=trial)
            for _ in range(50):
                owners = [rng.randrange(inst.n) for _ in range(inst.m)]
                X = [0] * inst.n
                for g, owner in enumerate(owners):
                    X[owner] |= 1 << g
                X = tuple(X)
                if check_efx(inst, X).holds:
                    assert check_pmms(inst, X).holds
        # (c) additive: every PMMS allocation is EFX up to a positive good
        for trial in range(500):
            n = 2 if trial % 3 else 3
            m = rng.randint(2, 7 if n == 2 else 5)
            vals = tuple(Additive.of([rng.randint(0, 5) for _ in range(m)]) for _ in range(n))
            inst = Instance(n, m, vals)
            for X in iter_allocations(n, m):
                if check_pmms(inst, X).holds:
                    assert check(inst, X, FairnessNotion.EFX_POSITIVE).holds

    report(capsys, "criterion 8 (cross-notion implications on random instances)", body)


def test_criterion_9_matching_oracle_equivalence(capsys):
    def body():
        rng = random.Random(7)
        for trial in range(1000):
            n_agents = rng.randint(1, 5)
            n_items = rng.randint(1, 5)
            agents = tuple(range(n_agents))
            items = tuple(range(50, 50 + n_items))
            edges = []
            for a in agents:
                w = Fraction(rng.randint(1, 12), rng.choice([1, 2, 4]))
                for g in items:
                    if rng.random() < 0.55 and len(edges) < 20:
                        edges.append((a, g, w))
            graph = round_graph(agents, items, tuple(edges))
            fast = max_cardinality_max_weight_matching(graph)
            slow = brute_force_matching_oracle(graph)
            assert fast == slow, f"trial {trial}: {fast} != {slow}"

    report(capsys, "criterion 9 (matching agrees with brute-force oracle)", body)
