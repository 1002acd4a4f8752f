import itertools
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from fairdiv.algorithms import (
    CutAndChooseStuckError,
    _ccg_step,
    _pmms_state,
    _ratio_weights,
    build_cut_and_choose_graph,
    cut_and_choose_graph_procedure,
    match_and_freeze,
    maf_trace_lines,
    reversed_round_robin,
)
from fairdiv.core import (
    Additive,
    BinaryTable,
    FairnessNotion,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    UnsupportedValuationError,
    _scaled,
    full_mask,
)
from fairdiv.instances import (
    gen_table1_example,
    random_binary_mms_feasible,
    random_bivalued,
    random_pair_demand,
)
from fairdiv.oracles import _pmms_test, check, check_efx, check_mms_feasible, check_pmms, mu

from helpers import (
    agent_ratios,
    check_maf_trace_invariants,
    check_matching_round_property,
    connected_components,
    inactive_rounds,
    match_and_freeze_with_graphs,
    padded_reversed_round_robin,
    pair_demand_mu_closed_form,
    ratio_substitute,
    reference_ccg_step,
    reference_cut_graph,
    sufficient_no_envy,
)


# ---------------------------------------------------------------------------
# match-and-freeze


def test_maf_table1_round1_matching_and_components():
    inst = gen_table1_example()
    _, trace, graphs = match_and_freeze_with_graphs(inst)
    first = trace.rounds[0]
    assert first.matching == ((1, 0), (3, 1))  # agents 2 and 4 win x and y
    comps = [c for c in connected_components(graphs[0], range(inst.m)) if c["agents"]]
    assert {"agents": [0, 1], "items": [0]} in comps
    assert {"agents": [2, 3], "items": [1]} in comps


def test_maf_table1_freezes_and_values():
    inst = gen_table1_example()
    bundles, trace = match_and_freeze(inst)
    assert inactive_rounds(trace, 1) == {2}
    assert inactive_rounds(trace, 3) == {2, 3, 4}
    round6 = trace.rounds[5]
    assert sorted(a for a, _ in round6.leftovers) == [0, 2]
    assert [v.value(X) for v, X in zip(inst.valuations, bundles)] == [6, 6, 6, 6]


def test_maf_single_agent():
    inst = Instance(1, 3, (PersonalizedBivalued(Fraction(2), Fraction(1), 0b001, 3),))
    bundles, trace = match_and_freeze(inst)
    assert bundles == (0b111,)
    assert len(trace.rounds) == 3


def test_maf_wrong_class():
    inst = Instance(1, 2, (Additive.of([1, 2]),))
    with pytest.raises(UnsupportedValuationError):
        match_and_freeze(inst)


def test_maf_b_zero_uses_substitute_ratio():
    vals = (
        PersonalizedBivalued(Fraction(4), Fraction(0), 0b0001, 4),
        PersonalizedBivalued(Fraction(3), Fraction(1), 0b0001, 4),
    )
    inst = Instance(2, 4, vals)
    K = ratio_substitute(inst)
    assert K == 4 * (1 + 3)
    bundles, trace, graphs = match_and_freeze_with_graphs(inst)
    assert check_efx(inst, bundles).holds
    check_maf_trace_invariants(inst, trace, graphs)
    ratios = agent_ratios(inst)
    for rnd, graph in zip(trace.rounds, graphs):
        check_matching_round_property(graph, rnd.matching)
        # one int weight per agent, in proportion to the agents' ratios
        weight = {a: w for a, _, w in graph.edges}
        assert all(type(w) is int for w in weight.values())
        for a, b in itertools.combinations(weight, 2):
            assert weight[a] * ratios[b] == weight[b] * ratios[a]


def test_maf_int_weights_equal_the_scaled_fraction_ratios():
    rng = random.Random(3)
    for trial in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 12)
        inst = random_bivalued(n, m, trial, factored=trial % 2 == 0)
        if trial % 3 == 0:  # some or all agents with b = 0
            vals = tuple(PersonalizedBivalued(v.a, Fraction(0), v.high_items, m)
                         if rng.random() < 0.5 or trial % 9 == 0 else v
                         for v in inst.valuations)
            inst = Instance(n, m, vals)
        scale, weight = _ratio_weights(inst.valuations, m)
        assert (scale, weight) == _scaled(agent_ratios(inst))
        _, _, graphs = match_and_freeze_with_graphs(inst)
        for graph in graphs:
            assert all(graph.weight[a] == weight[a] for a in graph.adj)


def test_maf_trace_lines_stable():
    inst = gen_table1_example()
    _, trace = match_and_freeze(inst)
    lines = maf_trace_lines(trace)
    assert lines[0] == "round=1 matched=1:0,3:1 frozen=1:1,3:3 leftovers=0:2,2:3"
    assert len(lines) == 6


def test_maf_factored_is_pmms_at_scale():
    # Each pair's union holds about 20 items, so the check is affordable only
    # because PMMS envy is decided on the bivalued share value, not a search.
    inst = random_bivalued(100, 1000, 1, factored=True)
    bundles, _ = match_and_freeze(inst)
    assert check_pmms(inst, bundles).holds


def test_maf_one_agent_8000_items_within_ten_seconds():
    # The bound sits far above this run's 0.11 s and far below the 39 s it
    # takes when every round lists its edges, which is quadratic in m (both
    # on a shared 2-vCPU virtual machine).
    inst = random_bivalued(1, 8000, 1)
    start = time.monotonic()
    bundles, trace = match_and_freeze(inst)
    elapsed = time.monotonic() - start
    assert bundles == (full_mask(8000),) and len(trace.rounds) == 8000
    assert elapsed < 10, f"match_and_freeze(random_bivalued(1, 8000, 1)) took {elapsed:.1f} s"


def test_maf_one_agent_8000_items_frees_each_round_graph():
    # The trace keeps each round's decisions, not its graph, so the run
    # peaks at about 2 MB; keeping every round's graph, one 8000-bit pool
    # and one adjacency mask a round, took 18 MB.
    inst = random_bivalued(1, 8000, 1)
    tracemalloc.start()
    try:
        match_and_freeze(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20, f"match_and_freeze(random_bivalued(1, 8000, 1)) peaked at {peak} bytes"


def test_sufficient_no_envy():
    v = PersonalizedBivalued(Fraction(4), Fraction(1), 0b0011, 4)
    # own two low items (2) vs high+low (5): 2 < 5 - 1, inconclusive
    efx_safe, pmms_safe = sufficient_no_envy(v, 0b1100, 0b0101)
    assert not efx_safe and not pmms_safe
    # own high (4) vs high+low (5): 4 >= 5 - 1
    efx_safe, pmms_safe = sufficient_no_envy(v, 0b0001, 0b0110)
    assert efx_safe and pmms_safe  # factored (4/1)
    v2 = PersonalizedBivalued(Fraction(5, 2), Fraction(1), 0b0011, 4)
    efx_safe, pmms_safe = sufficient_no_envy(v2, 0b0001, 0b0100)
    assert efx_safe and not pmms_safe  # not factored


# ---------------------------------------------------------------------------
# cut-and-choose graph


def _binary_instance(m, *ones_sets, n=None):
    vals = tuple(BinaryTable(m, frozenset(o)) for o in ones_sets)
    return Instance(len(vals), m, vals, monotone_required=False, normalized_required=False)


def test_build_graph_all_accept():
    # every agent values X_s at 1 -> pi points at s everywhere
    m = 2
    ones = {0b01, 0b10, 0b11}
    inst = _binary_instance(m, ones, ones)
    bundles = (0b01, 0b10)
    assert build_cut_and_choose_graph(inst, bundles, 0) == (0, 0)


def test_build_graph_zero_valuations():
    inst = _binary_instance(2, set(), set())
    assert build_cut_and_choose_graph(inst, (0b01, 0b10), 0) == (0, 0)


def test_build_graph_deviation_witness():
    """Whenever pi(i) = j != s, agent i values X_j at 1 and the union's
    2-part fair share is 1."""
    rng = random.Random(3)
    for seed in range(30):
        inst = random_binary_mms_feasible(3, 5, seed, normalized=False)
        X0 = rng.getrandbits(5)
        X1 = rng.getrandbits(5) & ~X0
        bundles = (X0, X1, full_mask(5) & ~(X0 | X1))
        for s in range(3):
            pi = build_cut_and_choose_graph(inst, bundles, s)
            for i, j in enumerate(pi):
                if j != s:
                    vi = inst.valuations[i]
                    assert vi.value(bundles[j]) == 1
                    assert mu(vi, bundles[s] | bundles[j], 2).mu == 1


def test_ccg_state_and_graph_agree_with_pmms_check():
    """_pmms_state's (W, E, s) and pi(s) read the same envy as check(PMMS)."""
    rng = random.Random(11)
    for trial in range(60):
        n, m = rng.randint(2, 4), rng.randint(2, 7)
        inst = random_binary_mms_feasible(n, m, trial, normalized=trial % 2 == 0)
        for _ in range(5):
            X = [0] * n
            for g in range(m):
                X[rng.randrange(n)] |= 1 << g
            violations = check(inst, X, FairnessNotion.PMMS).violations
            enviers = sorted({f.envier for f in violations})
            s = enviers[0] if enviers else None
            W = sum(v.value(X_i) for v, X_i in zip(inst.valuations, X))
            assert _pmms_state(inst, _pmms_test(inst).fails, X) == (W, n - len(enviers), s)
            if s is not None:
                envied = min(f.envied for f in violations if f.envier == s)
                assert build_cut_and_choose_graph(inst, X, s)[s] == envied


def test_cut_graph_matches_plain_loop():
    """From every agent, pi read off allocations with several empty bundles
    (uneven bundle sizes, often more agents than items) equals the plain
    loop that tests every bundle, empty ones included. The sweep must reach
    an agent whose first envied bundle, from a held bundle that holds an
    item, is an empty one."""
    rng = random.Random(39)
    seen = Counter()
    for trial in range(80):
        n, m = rng.randint(3, 7), rng.randint(1, 6)
        inst = random_binary_mms_feasible(n, m, trial, monotone=trial % 3 == 0,
                                          normalized=trial % 2 == 0)
        for _ in range(3):
            weights = [rng.random() ** 3 for _ in range(n)]
            X = [0] * n
            for g in range(m):
                X[rng.choices(range(n), weights)[0]] |= 1 << g
            for s in range(n):
                pi = build_cut_and_choose_graph(inst, X, s)
                assert pi == reference_cut_graph(inst, X, s), (inst, X, s)
                if X[s] and X.count(0) >= 2:
                    seen["held, several empty"] += 1
                    seen["empty envied"] += any(j != s and not X[j] for j in pi)
    assert seen["held, several empty"] >= 100 and seen["empty envied"] >= 1, seen


def test_ccg_step_matches_two_branch_reference():
    """From every PMMS-violating start of random allocations, _ccg_step
    agrees with the two-branch step it replaced. The sweep must reach the
    lollipop shapes the procedure's own runs hardly ever take: a stem of
    two or more agents, a cycle of two or more agents, and a chooser that
    takes the second part of the cut."""
    rng = random.Random(6)
    shapes = Counter()
    for trial in range(200):
        n, m = rng.randint(3, 6), rng.randint(4, 9)
        inst = random_binary_mms_feasible(n, m, trial, normalized=trial % 2 == 0)
        for _ in range(6):
            weights = [rng.random() for _ in range(n)]  # uneven bundle sizes
            X = [0] * n
            for g in range(m):
                X[rng.choices(range(n), weights)[0]] |= 1 << g
            enviers = {f.envier for f in check(inst, X, FairnessNotion.PMMS).violations}
            for s in sorted(enviers):
                step = _ccg_step(inst, _pmms_test(inst).fails, X, s)
                assert step == reference_ccg_step(inst, X, s), (inst, X, s)
                _, pi, walk, case, swap = step
                w_pos = walk.index(pi[walk[-1]])
                assert (case == "cycle") == (w_pos == 0)
                shapes["long stem"] += w_pos >= 2
                shapes["long cycle"] += case == "lollipop" and len(walk) - w_pos >= 2
                shapes["swap"] += swap
    assert min(shapes[k] for k in ("long stem", "long cycle", "swap")) >= 1, shapes


def test_ccg_already_pmms_zero_iterations():
    ones = {mask for mask in range(1, 1 << 2)}
    inst = _binary_instance(2, ones, ones)
    bundles, trace = cut_and_choose_graph_procedure(inst)
    assert trace.iterations == ()
    assert check_pmms(inst, bundles).holds


def test_ccg_non_monotone_instance():
    inst = random_binary_mms_feasible(3, 6, 7, normalized=False)
    from fairdiv.core import is_monotone
    bundles, trace = cut_and_choose_graph_procedure(inst)
    assert check_pmms(inst, bundles).holds
    assert len(trace.iterations) <= 9


def test_ccg_wrong_class():
    inst = Instance(1, 2, (Additive.of([1, 1]),))
    with pytest.raises(UnsupportedValuationError):
        cut_and_choose_graph_procedure(inst)


def test_ccg_stuck_on_infeasible_table():
    inst = _binary_instance(3, {1}, {1, 4, 6})
    with pytest.raises(CutAndChooseStuckError):
        cut_and_choose_graph_procedure(inst)


def test_ccg_potential_increases():
    for seed in range(40):
        inst = random_binary_mms_feasible(3, 6, 100 + seed, normalized=False)
        _, trace = cut_and_choose_graph_procedure(inst)
        prev = (trace.initial_W, trace.initial_E)
        for it in trace.iterations:
            cur = (it.W, it.E)
            assert cur > prev
            assert 0 <= it.W <= inst.n and 0 <= it.E <= inst.n
            prev = cur


def test_ccg_every_binary_mms_feasible_pair_on_three_items():
    """Cut-and-choose on every ordered pair of the 118 MMS-feasible binary
    tables on 3 items (of all 256), monotone or not, normalized or not, as
    a 2-agent instance: each of the 13,924 runs ends in a PMMS allocation
    within one step."""
    tables = [BinaryTable(3, frozenset(S for S in range(8) if ones >> S & 1))
              for ones in range(256)]
    feasible = [v for v in tables if check_mms_feasible(v)]
    assert len(feasible) == 118
    steps = Counter()
    for pair in itertools.product(feasible, repeat=2):
        inst = Instance(2, 3, pair, monotone_required=False, normalized_required=False)
        bundles, trace = cut_and_choose_graph_procedure(inst)
        assert check(inst, bundles, FairnessNotion.PMMS).holds, pair
        assert len(trace.iterations) <= 1, pair
        steps.update(it.case for it in trace.iterations)
    assert steps == {"lollipop": 452, "cycle": 2864}


# ---------------------------------------------------------------------------
# reversed round-robin


def test_rrr_hand_trace():
    v = PairDemand.of([4, 3, 2, 1])
    inst = Instance(2, 4, (v, v))
    bundles = reversed_round_robin(inst)
    assert bundles == (0b1001, 0b0110)
    assert v.value(bundles[0]) == v.value(bundles[1]) == 5
    assert mu(v, full_mask(4), 2).mu == 5


def test_rrr_single_agent():
    inst = Instance(1, 3, (PairDemand.of([1, 2, 3]),))
    assert reversed_round_robin(inst) == (0b111,)


def test_rrr_padding_strips_dummies():
    inst = Instance(3, 2, (PairDemand.of([1, 2]),) * 3)
    bundles = reversed_round_robin(inst)
    assert sum(bundles) == full_mask(2)
    for mask in bundles:
        assert mask >> 2 == 0


def test_rrr_matches_padded_reference():
    # A dummy is worth 0 and outranked by every real item's index, so the
    # padded picker only takes one after the real items ran out.
    rng = random.Random(9)
    for trial in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 2 * n - 1) if trial % 2 else rng.randint(2 * n, 3 * n + 2)
        inst = random_pair_demand(n, m, trial)
        for agent in range(n):
            assert reversed_round_robin(inst, agent) == padded_reversed_round_robin(inst, agent)


def test_rrr_wrong_class_and_bad_leftover():
    inst = Instance(1, 2, (Additive.of([1, 1]),))
    with pytest.raises(UnsupportedValuationError):
        reversed_round_robin(inst)
    ok = Instance(2, 4, (PairDemand.of([1, 1, 1, 1]),) * 2)
    with pytest.raises(ValueError):
        reversed_round_robin(ok, leftover_agent=5)


def test_pair_demand_closed_form():
    assert pair_demand_mu_closed_form(PairDemand.of([1, 2, 3, 4])) == 5
    assert pair_demand_mu_closed_form(PairDemand.of([0, 0, 0, 0])) == 0
    assert pair_demand_mu_closed_form(PairDemand.of([1, 1, 1, 9])) == 2
    with pytest.raises(ValueError):
        pair_demand_mu_closed_form(PairDemand.of([1, 2, 3]))
