import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fairdiv.algorithms import alternating_reach, match_and_freeze
from fairdiv.core import Instance, PersonalizedBivalued
from fairdiv.instances import gen_table1_example, random_bivalued
from fairdiv import matching
from fairdiv.matching import RoundGraph, max_cardinality_max_weight_matching
from fairdiv.oracles import check_efx

from helpers import (
    BRUTE_FORCE_EDGE_LIMIT,
    ascending_pass,
    bitmask_dp_matching,
    brute_force_matching_oracle,
    connected_components,
    hungarian_matching,
    maf_round_graphs,
    match_and_freeze_with_graphs,
    reference_alternating_reach,
    round_graph,
)


def test_weight_beats_weight_on_shared_item():
    g = round_graph((1, 2), (7,), ((1, 7, Fraction(3)), (2, 7, Fraction(5))))
    assert max_cardinality_max_weight_matching(g) == ((2, 7),)


def test_cardinality_beats_weight():
    g = round_graph(
        (1, 2), (10, 11),
        ((1, 10, Fraction(1)), (1, 11, Fraction(1)), (2, 10, Fraction(1))),
    )
    assert max_cardinality_max_weight_matching(g) == ((1, 11), (2, 10))


def test_empty_graph():
    g = round_graph((), (), ())
    assert max_cardinality_max_weight_matching(g) == ()
    assert brute_force_matching_oracle(g) == ()


def test_single_edge():
    g = round_graph((0,), (3,), ((0, 3, Fraction(2)),))
    assert brute_force_matching_oracle(g) == ((0, 3),)
    assert max_cardinality_max_weight_matching(g) == ((0, 3),)


def test_uniform_weight_invariant_enforced():
    with pytest.raises(AssertionError, match="differing weights"):
        round_graph((0,), (1, 2), ((0, 1, Fraction(1)), (0, 2, Fraction(2))))


def test_edge_endpoints_validated():
    with pytest.raises(AssertionError, match="unknown node"):
        round_graph((0,), (1,), ((0, 2, Fraction(1)),))


@pytest.mark.parametrize("edges", [((0, 1, 1),), ((0, -1, 1),), ((0, 7, 1),), ((5, 3, 1),)])
def test_validating_constructor_refuses_an_edge_off_the_graph(edges):
    # the refusals live in the tests' graph builder; fairdiv checks nothing
    with pytest.raises(AssertionError, match="unknown node"):
        round_graph((0,), (3, 4), edges)


def test_edges_read_off_by_agent_in_agents_order_then_by_item():
    g = RoundGraph((2, 0, 1), {2: 0b10010, 0: 0b01000}, {2: 5, 0: 7})
    assert g.edges == ((2, 1, 5), (2, 4, 5), (0, 3, 7))
    assert round_graph(g.agents, (4, 3, 1), ((0, 3, 7), (2, 4, 5), (2, 1, 5))) == g


def _maf_round_graph_cases():
    rng = random.Random(19)
    for n in range(1, 9):
        for m in range(1, 25):
            factored = rng.random() < 0.5
            inst = random_bivalued(n, m, rng.randrange(1 << 30), factored=factored)
            if rng.random() < 0.5:  # give some agents b = 0
                vals = tuple(PersonalizedBivalued(v.a, Fraction(0), v.high_items, m)
                             if rng.random() < 0.4 else v for v in inst.valuations)
                inst = Instance(n, m, vals)
            if rng.random() < 0.5:  # few high items, shared, so agents freeze early
                shared = rng.getrandbits(m) & rng.getrandbits(m)
                inst = Instance(n, m, tuple(
                    PersonalizedBivalued(v.a, v.b, v.high_items & shared, m)
                    for v in inst.valuations))
            yield inst
    yield gen_table1_example()


def test_every_maf_round_graph_equals_its_rebuild_from_the_trace():
    graphs = frozen = 0
    for inst in _maf_round_graph_cases():
        _, trace, recorded = match_and_freeze_with_graphs(inst)
        for rnd, g, h in zip(trace.rounds, recorded, maf_round_graphs(inst, trace), strict=True):
            assert (g.agents, g.adj) == (h.agents, h.adj), f"round {rnd.round}"
            # the int weights are the Fraction ratios times one scale
            assert len({g.weight[a] / h.weight[a] for a in g.adj}) <= 1, f"round {rnd.round}"
            graphs += 1
            frozen += len(h.agents) < inst.n
    assert graphs > 8 * 24  # more than one round per instance on average
    assert frozen > 20  # rounds that some frozen agent sits out


def test_connected_components():
    g = round_graph((1, 2, 3), (5, 6), ((1, 5, Fraction(1)), (2, 5, Fraction(1))))
    comps = connected_components(g, (5, 6))
    assert {"agents": [1, 2], "items": [5]} in comps
    assert {"agents": [3], "items": []} in comps
    assert {"agents": [], "items": [6]} in comps

    empty = round_graph((1, 2), (3,), ())
    assert len(connected_components(empty, (3,))) == 3

    path = round_graph((1, 2), (9,), ((1, 9, Fraction(1)), (2, 9, Fraction(1))))
    assert len(connected_components(path, (9,))) == 1


def _random_graph(rng: random.Random) -> RoundGraph:
    n_agents = rng.randint(1, 4)
    n_items = rng.randint(1, 4)
    agents = tuple(range(n_agents))
    items = tuple(range(100, 100 + n_items))
    edges = []
    for a in agents:
        w = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        for g in items:
            if rng.random() < 0.5:
                edges.append((a, g, w))
    return round_graph(agents, items, tuple(edges))


def test_matcher_agrees_with_oracle_on_random_graphs():
    rng = random.Random(42)
    for _ in range(300):
        g = _random_graph(rng)
        fast = max_cardinality_max_weight_matching(g)
        slow = brute_force_matching_oracle(g)
        assert fast == slow


@pytest.mark.parametrize("graph, expected", [
    (round_graph((0, 1), (5,), ((0, 5, Fraction(-3)), (1, 5, Fraction(-1)))),
     ((1, 5),)),
    (round_graph((0, 1), (5, 6),
                ((0, 5, Fraction(-3)), (0, 6, Fraction(-3)), (1, 5, Fraction(-1)))),
     ((0, 6), (1, 5))),
])
def test_negative_weights_keep_max_cardinality(graph, expected):
    assert brute_force_matching_oracle(graph) == expected
    assert max_cardinality_max_weight_matching(graph) == expected


@st.composite
def round_graphs(draw, max_agents, max_items, numerators, max_edges=None):
    """Agents 0, 2, 4, ... and items 100, 101, ...; each agent one weight
    with denominator 1, 2 or 3, and each edge present with one drawn
    density."""
    agents = tuple(range(0, 2 * draw(st.integers(1, max_agents)), 2))
    items = tuple(range(100, 100 + draw(st.integers(1, max_items))))
    density = draw(st.sampled_from((0.2, 0.5, 0.8)))
    rng = draw(st.randoms(use_true_random=False))
    edges = []
    for a in agents:
        w = Fraction(draw(numerators), draw(st.sampled_from((1, 2, 3))))
        edges += [(a, g, w) for g in items if rng.random() < density]
    return round_graph(agents, items, tuple(edges[:max_edges]))


@settings(max_examples=60, deadline=None, database=None)
@given(round_graphs(8, 12, st.integers(1, 12)))
def test_matcher_equals_bitmask_dp(graph):
    assert max_cardinality_max_weight_matching(graph) == bitmask_dp_matching(graph)


@settings(max_examples=300, deadline=None, database=None)
@given(round_graphs(6, 6, st.integers(-6, 6), max_edges=BRUTE_FORCE_EDGE_LIMIT))
def test_matcher_equals_brute_force_with_zero_and_negative_weights(graph):
    assert max_cardinality_max_weight_matching(graph) == brute_force_matching_oracle(graph)


@settings(max_examples=40, deadline=None, database=None)
@given(round_graphs(30, 60, st.integers(-6, 12)))
def test_matcher_cardinality_and_weight_match_networkx(graph):
    matching = max_cardinality_max_weight_matching(graph)
    weight = {a: w for a, _, w in graph.edges}
    edges = {(a, g) for a, g, _ in graph.edges}
    assert list(matching) == sorted(matching) and set(matching) <= edges
    assert len({g for _, g in matching}) == len(matching)

    scale = math.lcm(*(w.denominator for w in weight.values()), 1)
    reference = nx.Graph()
    reference.add_weighted_edges_from(
        (("agent", a), ("item", g), int(weight[a] * scale)) for a, g in edges)
    pairs = nx.max_weight_matching(reference, maxcardinality=True)
    agent_of = (min(pair)[1] for pair in pairs)  # ("agent", a) < ("item", g)
    assert len(matching) == len(pairs)
    assert sum(weight[a] for a, _ in matching) == sum(weight[a] for a in agent_of)
    assert matching == hungarian_matching(graph)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("factored", [False, True])
def test_matcher_equals_hungarian_on_every_maf_round(seed, factored):
    _, trace, graphs = match_and_freeze_with_graphs(
        random_bivalued(100, 400, seed, factored=factored))
    for r, graph in zip(trace.rounds, graphs):
        assert r.matching == hungarian_matching(graph), f"round {r.round}"


A, B, C, D = 10, 11, 12, 13


def _graph(adjacency, weights=None):
    """Agents 0, 1, ... with the given item lists, each of weight 1 unless
    ``weights`` says otherwise."""
    weights = weights or [1] * len(adjacency)
    edges = tuple((a, g, weights[a]) for a, items in enumerate(adjacency) for g in items)
    return round_graph(tuple(range(len(adjacency))), (A, B, C, D), edges)


@pytest.mark.parametrize("graph, expected", [
    # The first greedy matches {0b, 1a}. With agent 0 out, the greedy resumes
    # and agent 2 takes b; agent 0 then takes a from agent 1, who weighs no
    # more than agent 2 and leaves.
    (_graph([(A, B), (A,), (B,)]), ((0, A), (2, B))),
    # The same, with agent 3 on (b, c): agent 2, whom the first greedy left
    # out, comes in through the resumed greedy and keeps b.
    (_graph([(A, B), (A,), (B,), (B, C)]), ((0, A), (2, B), (3, C))),
    # No agent resumes; agent 0 takes a, and its holder, agent 1, moves to c
    # along an alternating path.
    (_graph([(A, B), (A, C), (D,)]), ((0, A), (1, C), (2, D))),
    # Agent 0, on a alone and lightest, is in no optimum; agent 1 must still
    # take a from agent 2, who moves to b along an alternating path.
    (_graph([(A,), (A, B), (A, B)], [1, 2, 2]), ((1, A), (2, B))),
    # Agent 0's turn brings in agent 2 and drops agent 1. Agent 1, now
    # unmatched, is in an optimum all the same: its own search takes b from
    # agent 2, who weighs the same and leaves.
    (_graph([(A,), (A, B), (B,)], [3, 1, 1]), ((0, A), (1, B))),
    # With agent 0 out, agent 1 (weight 2) and agent 3 (weight 3) can each
    # reach the freed item b: the resumed greedy must try the heavier first.
    (_graph([(A, B), (A, B), (A,), (B,)], [3, 2, 3, 3]), ((0, A), (3, B))),
])
def test_tie_break_cases(graph, expected):
    assert brute_force_matching_oracle(graph) == expected
    assert max_cardinality_max_weight_matching(graph) == expected


@pytest.mark.parametrize("weights", ["equal", "rising"])
def test_long_augmenting_paths_need_no_recursion(weights):
    # Agent 0 has item 0 and agent i items i - 1 and i. With equal weights
    # each augmentation walks down the chain; with rising weights the last
    # one walks it from agent 0 up to agent 1499.
    n = 1500
    edges = tuple((i, g, 1 if weights == "equal" else i)
                  for i in range(n) for g in ((0,) if i == 0 else (i - 1, i)))
    graph = round_graph(tuple(range(n)), tuple(range(n)), edges)
    assert max_cardinality_max_weight_matching(graph) == tuple((i, i) for i in range(n))


@st.composite
def saturable_graphs(draw, private):
    """Agents 0, 1, ... with weights of mixed kind (int or ``Fraction``,
    zero and negative included) over shuffled items 100, 101, .... With
    ``private``, each agent has an item no other agent has, so the
    ascending pass covers every agent; without, there are no more items
    than agents and every edge is drawn at one density, so most graphs do
    not saturate."""
    rng = draw(st.randoms(use_true_random=False))
    n_agents = draw(st.integers(1, 8))
    shared = draw(st.integers(0, 8) if private else st.integers(1, n_agents))
    items = list(range(100, 100 + shared + n_agents * private))
    rng.shuffle(items)
    density = draw(st.sampled_from((0.2, 0.5, 0.8)))
    edges = []
    for a in range(n_agents):
        w = draw(st.one_of(st.integers(-4, 9),
                           st.fractions(-4, 9, max_denominator=3)))
        mine = [items[shared + a]] if private else []
        edges += [(a, g, w) for g in items[:shared] + mine
                  if g in mine or rng.random() < density]
    return round_graph(tuple(range(n_agents)), tuple(items), tuple(edges))


@pytest.mark.parametrize("private", [True, False])  # all of one half saturate, about a fifth of the other
def test_matcher_equals_hungarian_and_the_saturating_pass(private):
    @settings(max_examples=150, deadline=None, database=None)
    @given(saturable_graphs(private))
    def check(graph):
        result = max_cardinality_max_weight_matching(graph)
        assert result == hungarian_matching(graph)
        pairs = ascending_pass(graph)
        event("saturating" if pairs is not None else "not saturating")
        if pairs is not None:
            assert result == pairs
        else:
            assert not private

    check()


@pytest.fixture
def searches(monkeypatch):
    """The number of Kuhn searches the matcher and the reach sets have run
    since the fixture was set up, as a one-element list."""
    count = [0]
    augment = matching._augment

    def counting(*args):
        count[0] += 1
        return augment(*args)

    monkeypatch.setattr(matching, "_augment", counting)
    return count


def test_a_saturating_graph_makes_no_search(searches):
    g = _graph([(B, C), (C,), (A, B, D)], [2, -1, Fraction(1, 2)])
    assert max_cardinality_max_weight_matching(g) == ((0, B), (1, C), (2, A))
    assert searches == [0]
    # agent 1's only item is taken, so the greedy and tie-break run
    assert max_cardinality_max_weight_matching(_graph([(B,), (B,)])) == ((0, B),)
    assert searches[0] > 0


@pytest.mark.parametrize("n, m, factored, limit", [
    (256, 4096, False, 0),  # 8,192 searches without the ascending pass
    (100, 1000, True, 0),  # 2,000 without it
    (16, 8000, False, 32),  # 16,000 without it
])
def test_match_and_freeze_rounds_with_many_agents_saturate(searches, n, m, factored, limit):
    match_and_freeze(random_bivalued(n, m, 1, factored=factored))
    assert searches[0] <= limit


def test_match_and_freeze_efx_at_ten_agents_24_items():
    inst = random_bivalued(10, 24, 1)
    bundles, _ = match_and_freeze(inst)
    assert check_efx(inst, bundles).holds


@settings(max_examples=100, deadline=None, database=None)
@given(round_graphs(10, 12, st.integers(-6, 12)))
def test_alternating_reach_equals_reference_search(graph):
    matching = max_cardinality_max_weight_matching(graph)
    matched = {a for a, _ in matching}
    for u in graph.agents:
        if u not in matched:
            assert alternating_reach(graph, matching, u) == \
                reference_alternating_reach(graph, matching, u)


def test_alternating_reach_refuses_a_matched_start():
    g = round_graph((0, 1), (5,), ((0, 5, 1), (1, 5, 1)))
    with pytest.raises(ValueError, match="agent 0 is matched"):
        alternating_reach(g, ((0, 5),), 0)


def test_alternating_reach_refuses_a_matching_that_is_not_maximum():
    g = round_graph((0, 1, 2), (5, 6), ((0, 5, 1), (0, 6, 1), (1, 5, 1), (2, 5, 1)))
    assert alternating_reach(g, ((0, 6), (1, 5)), 2) == {1}
    # agent 1 reaches the free item 6 through agent 0's item 5
    with pytest.raises(ValueError, match="not maximum"):
        alternating_reach(g, ((0, 5),), 1)
