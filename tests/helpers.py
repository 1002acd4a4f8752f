"""Shared verification helpers: round graphs built from edge triples, and
match-and-freeze's round graphs recorded off the matcher or rebuilt from
its trace; per-round matching properties, read off a reference
alternating-path search, and match-and-freeze trace invariants, asserted
on every randomized run; the padded reversed round-robin and the
two-branch cut-and-choose step the production code is checked against; the
matching oracles the polynomial matcher is checked against; the table
materializer every representation is checked against; and the Fraction
brute-force references the integer kernel, the interchangeable-item
classes, the existence search and the bivalued sampler are checked
against."""

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Optional

from fairdiv import algorithms
from fairdiv.algorithms import MafTrace, build_cut_and_choose_graph
from fairdiv.core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    FairnessNotion,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    _scaled,
    full_mask,
    items_of,
)
from fairdiv.matching import RoundGraph
from fairdiv.oracles import FairnessReport, FairnessViolation, iter_allocations, mu


def ratio_substitute(inst: Instance) -> Fraction:
    """The 'sufficiently large' stand-in K for a_i / b_i when b_i = 0, on
    Fractions: m * (1 + max finite ratio), which exceeds every finite ratio
    and keeps floor(K - 1) past the m-round horizon."""
    finite = [v.a / v.b for v in inst.valuations
              if isinstance(v, PersonalizedBivalued) and v.b > 0]
    return Fraction(inst.m) * (1 + (max(finite) if finite else Fraction(0)))


def agent_ratios(inst: Instance) -> list[Fraction]:
    K = ratio_substitute(inst)
    return [v.a / v.b if v.b > 0 else K for v in inst.valuations]


def agent_weight(graph: RoundGraph, agent: int) -> Optional[Fraction]:
    return graph.weight[agent] if agent in graph.adj else None


def round_graph(agents, items, edges) -> RoundGraph:
    """The round graph on ``agents`` and ``items`` with these
    (agent, item, weight) edges, asserting that every edge joins one of
    ``agents`` to one of ``items`` and that each agent's edges share one
    weight."""
    pool = 0
    for g in items:
        pool |= 1 << g
    adj: dict[int, int] = {}
    weight: dict[int, Fraction] = {}
    for a, g, w in edges:
        assert a in agents and g >= 0 and pool >> g & 1, (
            f"edge ({a}, {g}) references an unknown node")
        assert weight.setdefault(a, w) == w, f"agent {a} has edges with differing weights"
        adj[a] = adj.get(a, 0) | 1 << g
    return RoundGraph(tuple(agents), pool, adj, weight)


def match_and_freeze_with_graphs(inst: Instance):
    """(bundles, trace, graphs): ``match_and_freeze(inst)`` with each
    round's graph, which the trace does not keep, recorded off the
    matcher's argument."""
    graphs: list[RoundGraph] = []
    matcher = algorithms.max_cardinality_max_weight_matching

    def record(graph):
        graphs.append(graph)
        return matcher(graph)

    algorithms.max_cardinality_max_weight_matching = record
    try:
        bundles, trace = algorithms.match_and_freeze(inst)
    finally:
        algorithms.max_cardinality_max_weight_matching = matcher
    assert len(graphs) == len(trace.rounds)
    return bundles, trace, graphs


def maf_round_graphs(inst: Instance, trace: MafTrace) -> list[RoundGraph]:
    """Each round's graph rebuilt from the instance and the trace alone:
    the agents not frozen in that round, the items not allocated before
    it, each agent joined to its high items among them, and the agents'
    ``Fraction`` ratios as weights."""
    ratios = agent_ratios(inst)
    frozen = [inactive_rounds(trace, i) for i in range(inst.n)]
    pool = full_mask(inst.m)
    graphs = []
    for rnd in trace.rounds:
        agents = tuple(i for i in range(inst.n) if rnd.round not in frozen[i])
        adj = {i: mask for i in agents if (mask := pool & inst.valuations[i].high_items)}
        graphs.append(RoundGraph(agents, pool, adj, {i: ratios[i] for i in adj}))
        for _, g in rnd.matching + rnd.leftovers:
            pool &= ~(1 << g)
    return graphs


def inactive_rounds(trace: MafTrace, agent: int) -> frozenset[int]:
    """Rounds during which the agent was frozen (within the run)."""
    total = len(trace.rounds)
    out = set()
    for rnd in trace.rounds:
        for a, duration in rnd.frozen_now:
            if a == agent:
                out.update(r for r in range(rnd.round + 1, rnd.round + duration + 1)
                           if r <= total)
    return frozenset(out)


def round_item(trace: MafTrace, agent: int, round_no: int) -> Optional[int]:
    """The item the agent received in a round, matched or as a leftover."""
    rnd = trace.rounds[round_no - 1]
    for a, g in rnd.matching + rnd.leftovers:
        if a == agent:
            return g
    return None


def reference_alternating_reach(graph: RoundGraph, matching, start: int) -> set[int]:
    """Matched agents reachable from ``start`` by an alternating path, by a
    plain graph search over the edge triples: from an agent to each of its
    items, and from a held item to its holder."""
    adj: dict[int, list[int]] = {}
    for a, g, _ in graph.edges:
        adj.setdefault(a, []).append(g)
    owner = {g: a for a, g in matching}
    reached: set[int] = set()
    stack = [start]
    while stack:
        for g in adj.get(stack.pop(), ()):
            a = owner.get(g)
            if a is not None and a not in reached:
                reached.add(a)
                stack.append(a)
    return reached


def check_matching_round_property(graph: RoundGraph, matching) -> None:
    """Every matched agent reachable from an unmatched agent by an
    alternating path weighs at least as much as that unmatched agent
    (otherwise swapping along the path would improve the matching).

    Note this is deliberately *not* asserted component-wide: two agents can
    share a connected component without any alternating path between them,
    and then no weight ordering is forced.
    """
    matched_agents = {a for a, _ in matching}
    for u in graph.agents:
        if u in matched_agents:
            continue
        wu = agent_weight(graph, u)
        if wu is None:
            continue
        for a in reference_alternating_reach(graph, matching, u):
            wa = agent_weight(graph, a)
            assert wa is not None and wu <= wa, (
                f"unmatched agent {u} (weight {wu}) reaches matched agent "
                f"{a} (weight {wa}) by an alternating path"
            )


def reference_r_star(inst: Instance, trace: MafTrace) -> tuple[int, ...]:
    """Per agent, the last round that allocated an item the agent values
    high, recomputed by a pass over the finished rounds."""
    r_star = [0] * inst.n
    for rnd in trace.rounds:
        allocated_mask = sum(1 << g for _, g in rnd.matching + rnd.leftovers)
        for i, v in enumerate(inst.valuations):
            if allocated_mask & v.high_items:
                r_star[i] = rnd.round
    return tuple(r_star)


def check_maf_trace_invariants(inst: Instance, trace: MafTrace, graphs) -> None:
    """Five per-run facts about freeze structure:

    1. every item an agent receives strictly before its last high-value
       round is itself high-value for that agent;
    2. a frozen agent was matched to a high-value item in the freeze round,
       and the freeze length never exceeds floor(ratio - 1);
    3. if two agents are matched in the same round to items that the first
       agent values high, the first freezes for no longer than the second
       (every alternating path threatening the first extends to the second);
    4. the recorded r* agrees with the post-pass reference;
    5. each round's graph, of ``graphs``, leaves out exactly the agents
       frozen in that round.
    """
    ratios = agent_ratios(inst)
    n = inst.n

    assert trace.r_star == reference_r_star(inst, trace)
    frozen_in = [inactive_rounds(trace, i) for i in range(n)]
    for rnd, graph in zip(trace.rounds, graphs, strict=True):
        frozen = {i for i in range(n) if rnd.round in frozen_in[i]}
        assert set(graph.agents) == set(range(n)) - frozen, (
            f"round {rnd.round}: graph agents {graph.agents}, frozen {sorted(frozen)}"
        )

    for i in range(n):
        vi = inst.valuations[i]
        r_i = trace.r_star[i]
        for rnd in trace.rounds:
            if rnd.round >= r_i:
                break
            g = round_item(trace, i, rnd.round)
            if g is not None:
                assert vi.value(1 << g) == vi.a, (
                    f"agent {i} got a low-value item in round {rnd.round} < r_i={r_i}"
                )

    for rnd in trace.rounds:
        matched = dict(rnd.matching)
        for a, duration in rnd.frozen_now:
            assert a in matched, f"frozen agent {a} was not matched in round {rnd.round}"
            va = inst.valuations[a]
            assert va.value(1 << matched[a]) == va.a
            assert duration <= max(math.floor(ratios[a] - 1), 0), (
                f"agent {a} frozen {duration} rounds, ratio only {ratios[a]}"
            )

    for rnd in trace.rounds:
        frozen = dict(rnd.frozen_now)
        pairs = list(rnd.matching)
        for i, gi in pairs:
            vi = inst.valuations[i]
            for j, gj in pairs:
                if i == j:
                    continue
                if vi.value(1 << gi) == vi.a and vi.value(1 << gj) == vi.a:
                    assert frozen.get(i, 0) <= frozen.get(j, 0), (
                        f"round {rnd.round}: agents {i},{j} both took items high for "
                        f"{i} but {i} froze longer"
                    )


def padded_reversed_round_robin(inst: Instance, leftover_agent: int = 0) -> tuple[int, ...]:
    """Reversed round-robin as first written: pad m < 2n with zero-value
    dummy items, make all 2n picks, then strip the dummies."""
    n, m = inst.n, inst.m
    padded = max(m, 2 * n)
    singles = [list(v._ints) + [0] * (padded - m) for v in inst.valuations]
    pool = full_mask(padded)
    bundles = [0] * n
    for i in [*range(n), *reversed(range(n))]:
        g = max(items_of(pool), key=singles[i].__getitem__)  # lowest index on ties
        bundles[i] |= 1 << g
        pool &= ~(1 << g)
    bundles[leftover_agent] |= pool
    return tuple(mask & full_mask(m) for mask in bundles)


def reference_ccg_step(inst: Instance, bundles, s: int):
    """One cut-and-choose step as first written, with separate cycle and
    lollipop reassignments. Returns (new bundles, pi, walk, case, swap)."""
    pi = build_cut_and_choose_graph(inst, bundles, s)
    walk = [s]
    seen = {s: 0}
    while pi[walk[-1]] not in seen:
        nxt = pi[walk[-1]]
        seen[nxt] = len(walk)
        walk.append(nxt)
    closing = pi[walk[-1]]
    new = list(bundles)
    if closing == s:
        case = "cycle"
        swap_applied = False
        for i in walk:
            new[i] = bundles[pi[i]]
    else:
        case = "lollipop"
        w_pos = seen[closing]
        k_pos = len(walk) - 1
        part = mu(inst.valuations[walk[k_pos]], bundles[walk[0]] | bundles[closing], 2)
        A, B = part.witness
        swap_applied = False
        prev = walk[w_pos - 1]
        if inst.valuations[prev]._value(A) < inst.valuations[prev]._value(B):
            A, B = B, A
            swap_applied = True
        for i in walk[:max(w_pos - 1, 0)] + walk[w_pos:k_pos]:
            new[i] = bundles[pi[i]]
        new[prev] = A
        new[walk[k_pos]] = B
    return new, pi, tuple(walk), case, swap_applied


# ---------------------------------------------------------------------------
# Matching oracles: exhaustive enumeration for small graphs; the bitmask DP
# that was the production matcher, for mid-size graphs; and the Hungarian
# method that followed it, for graphs of any size.

BRUTE_FORCE_EDGE_LIMIT = 20


def _adjacency(graph: RoundGraph) -> dict[int, list[tuple[int, Fraction]]]:
    adj: dict[int, list[tuple[int, Fraction]]] = {a: [] for a in graph.agents}
    for a, g, w in graph.edges:
        adj[a].append((g, w))
    for a in adj:
        adj[a].sort()
    return adj


def bitmask_dp_matching(graph: RoundGraph):
    """Among maximum-cardinality matchings, one of maximum total weight;
    ties broken toward the lexicographically smallest sorted pair list.

    Uses cardinality-boosted weights (every edge gains a constant C larger
    than any achievable weight total), so maximizing boosted weight selects
    a maximum-cardinality maximum-weight matching.

    Exponential in the number of items (memo over agent position and used-
    item bitmask), and only exact for positive weights: the boost
    1 + k * max(max_w, 0) can leave a boosted weight below zero.
    """
    if not graph.edges:
        return ()
    agents = sorted({a for a, _, _ in graph.edges})
    edge_items = sorted({g for _, g, _ in graph.edges})
    item_bit = {g: 1 << idx for idx, g in enumerate(edge_items)}
    adj = _adjacency(graph)
    max_w = max(w for _, _, w in graph.edges)
    boost = 1 + min(len(agents), len(edge_items)) * max(max_w, Fraction(0))

    memo: dict[tuple[int, int], tuple[Fraction, tuple]] = {}

    def solve(pos: int, used: int) -> tuple[Fraction, tuple]:
        if pos == len(agents):
            return Fraction(0), ()
        key = (pos, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        agent = agents[pos]
        best_w, best_pairs = solve(pos + 1, used)  # leave this agent unmatched
        for g, w in adj[agent]:
            bit = item_bit[g]
            if used & bit:
                continue
            sub_w, sub_pairs = solve(pos + 1, used | bit)
            cand_w = boost + w + sub_w
            cand_pairs = ((agent, g),) + sub_pairs
            if cand_w > best_w or (cand_w == best_w and cand_pairs < best_pairs):
                best_w, best_pairs = cand_w, cand_pairs
        memo[key] = (best_w, best_pairs)
        return best_w, best_pairs

    return solve(0, 0)[1]


def brute_force_matching_oracle(graph: RoundGraph):
    """Test oracle: enumerate every matching and pick the optimum under
    the same criteria and tie-break as the production matcher."""
    if len(graph.edges) > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(f"oracle limited to {BRUTE_FORCE_EDGE_LIMIT} edges")
    adj = _adjacency(graph)
    agents = sorted(adj)
    best: Optional[tuple[int, Fraction, tuple]] = None  # (-card, -weight, pairs), minimized

    def walk(pos: int, used_items: frozenset, pairs: tuple, weight: Fraction) -> None:
        nonlocal best
        if pos == len(agents):
            key = (-len(pairs), -weight, pairs)
            if best is None or key < best:
                best = key
            return
        walk(pos + 1, used_items, pairs, weight)
        agent = agents[pos]
        for g, w in adj[agent]:
            if g not in used_items:
                walk(pos + 1, used_items | {g}, pairs + ((agent, g),), weight + w)

    walk(0, frozenset(), (), Fraction(0))
    assert best is not None
    return best[2]


def ascending_pass(graph: RoundGraph):
    """The agents with edges, in index order, each given the lowest item of
    its edges that no earlier agent took: that pair list if every agent
    gets one, else None. Read off the edge triples."""
    items: dict[int, list[int]] = {}
    for a, g, _ in graph.edges:
        items.setdefault(a, []).append(g)
    taken: set[int] = set()
    pairs = []
    for a in sorted(items):
        g = min((g for g in items[a] if g not in taken), default=None)
        if g is None:
            return None
        taken.add(g)
        pairs.append((a, g))
    return tuple(pairs)


def hungarian_matching(graph: RoundGraph):
    """Among maximum-cardinality matchings, one of maximum total weight;
    ties broken toward the lexicographically smallest sorted pair list.

    With agents p = 0..A-1 and items j = 0..I-1 (those with edges, sorted),
    edge (p, j) of scaled integer weight w gets the key

        card_unit + w * w_unit + (I + 1) ** (A - 1 - p) * (I - j).

    The last term reads a matching as an A-digit number in base I + 1, one
    digit per agent (I - j if matched to item j, else 0), so among matchings
    of one size the lexicographically smallest pair list has the largest
    number. ``w_unit`` exceeds every such number, and ``card_unit`` exceeds
    the spread of weight terms over any two matchings, so the matching of
    largest key total is the unique answer. Every key is positive, so the
    pairs of gain 0 (non-edges and dummy columns) are the unmatched agents.
    """
    if not graph.edges:
        return ()
    agents = sorted({a for a, _, _ in graph.edges})
    items = sorted({g for _, g, _ in graph.edges})
    row = {a: p for p, a in enumerate(agents)}
    col = {g: j for j, g in enumerate(items)}
    agent_weight = {a: w for a, _, w in graph.edges}
    _, scaled = _scaled(tuple(agent_weight.values()))
    weight = dict(zip(agent_weight, scaled))

    base = len(items) + 1
    w_unit = base ** len(agents)
    card_unit = w_unit * (2 * min(len(agents), len(items)) * max(map(abs, scaled)) + 1)
    # One zero-gain dummy column per agent lets every agent stay unmatched.
    gain = [[0] * (len(items) + len(agents)) for _ in agents]
    for a, g, _ in graph.edges:
        p, j = row[a], col[g]
        tie_break = base ** (len(agents) - 1 - p) * (len(items) - j)
        gain[p][j] = card_unit + weight[a] * w_unit + tie_break

    assigned = _max_gain_assignment(gain)
    return tuple((agents[p], items[j]) for p, j in enumerate(assigned) if gain[p][j])


def _max_gain_assignment(gain: list[list[int]]) -> list[int]:
    """Column of each row in an assignment of maximum total gain, for at
    most as many rows as columns: Kuhn's Hungarian method in its shortest
    augmenting path form, with row and column potentials, on exact ints.

    Rows are added one at a time; each addition runs a Dijkstra-like search
    over reduced costs from the new row to a free column and flips the path.
    Row 0 and column 0 are a virtual root, so real rows and columns are
    1-based inside.
    """
    rows, cols = len(gain), len(gain[0])
    u = [0] * (rows + 1)  # row potentials
    v = [0] * (cols + 1)  # column potentials
    owner = [0] * (cols + 1)  # row holding each column; 0 when free
    for i in range(1, rows + 1):
        owner[0] = i
        j0 = 0
        slack: list = [None] * (cols + 1)
        via = [0] * (cols + 1)
        done = [False] * (cols + 1)
        while owner[j0]:
            done[j0] = True
            i0 = owner[j0]
            costs = gain[i0 - 1]
            base = -u[i0]
            delta = None
            for j in range(1, cols + 1):
                if done[j]:
                    continue
                reduced = base - costs[j - 1] - v[j]
                if slack[j] is None or reduced < slack[j]:
                    slack[j], via[j] = reduced, j0
                if delta is None or slack[j] < delta:
                    delta, j1 = slack[j], j
            for j in range(cols + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = via[j0]
            owner[j0] = owner[j1]
            j0 = j1
    assigned = [0] * rows
    for j in range(1, cols + 1):
        if owner[j]:
            assigned[owner[j] - 1] = j - 1
    return assigned


def connected_components(graph: RoundGraph) -> list[dict]:
    """Partition of graph nodes into connected components, each reported as
    {"agents": [...], "items": [...]}; isolated nodes form singletons."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a in graph.agents:
        parent[("a", a)] = ("a", a)
    for g in items_of(graph.pool):
        parent[("g", g)] = ("g", g)
    for a, g, _ in graph.edges:
        union(("a", a), ("g", g))

    groups: dict = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    components = []
    for members in groups.values():
        components.append({
            "agents": sorted(a for kind, a in members if kind == "a"),
            "items": sorted(g for kind, g in members if kind == "g"),
        })
    components.sort(key=lambda c: (c["agents"], c["items"]))
    return components


def sufficient_no_envy(v: PersonalizedBivalued, own_bundle: int, other_bundle: int) -> tuple[bool, bool]:
    """Fast certificate: if v_i(X_i) >= v_i(X_j) - b_i then i does not
    EFX-envy j, and not PMMS-envy j either when v_i is factored.

    Returns (efx_safe, pmms_safe); False means inconclusive, not a violation.
    """
    efx_safe = v._value(own_bundle) >= v._value(other_bundle) - v._b
    return efx_safe, efx_safe and v.is_factored()


def pair_demand_mu_closed_form(v: PairDemand) -> Fraction:
    """Closed form for the 2-part fair share of a pair-demand valuation on
    four items a <= b <= c <= d (by singleton value):
    mu = min(v({a, d}), v({b, c})). Cross-checked against the brute-force
    oracle before returning."""
    if v.num_items != 4:
        raise ValueError("closed form is for exactly four items")
    order = sorted(range(4), key=lambda g: (v.values[g], g))
    a, b, c, d = order
    closed = min(v.value((1 << a) | (1 << d)), v.value((1 << b) | (1 << c)))
    brute = mu(v, full_mask(4), 2).mu
    if closed != brute:
        raise AssertionError(f"closed form {closed} != brute force {brute}")
    return closed


# ---------------------------------------------------------------------------
# Fraction references for the integer kernel: each recomputes from the
# public Fraction fields what fairdiv computes on scaled integers.


def to_explicit_table(v) -> ExplicitTable:
    """v materialized as a table, one value per bundle mask."""
    return ExplicitTable(tuple(v.value(mask) for mask in range(1 << v.num_items)))


def reference_value(v, mask: int) -> Fraction:
    if isinstance(v, (Additive, PairDemand)):
        picked = sorted((v.values[g] for g in items_of(mask)), reverse=True)
        return sum(picked[:2] if isinstance(v, PairDemand) else picked, Fraction(0))
    if isinstance(v, PersonalizedBivalued):
        high = (mask & v.high_items).bit_count()
        return v.a * high + v.b * (mask.bit_count() - high)
    if isinstance(v, ExplicitTable):
        return v.table[mask]
    if isinstance(v, BinaryTable):
        return Fraction(int(mask in v.ones))
    raise TypeError(type(v).__name__)


def reference_interchangeable(inst: Instance) -> list[int]:
    """The classes of at least two interchangeable items, as sorted masks:
    g and h are interchangeable when swapping them in every mask leaves
    every agent's Fraction value unchanged. Every pair is tested."""
    def swap(S, g, h):
        return S ^ (1 << g | 1 << h) if S >> g & 1 != S >> h & 1 else S

    def same(g, h):
        return all(reference_value(v, S) == reference_value(v, swap(S, g, h))
                   for v in inst.valuations for S in range(1 << inst.m))

    classes = {sum(1 << h for h in range(inst.m) if same(g, h)) for g in range(inst.m)}
    return sorted(c for c in classes if c & (c - 1))


def reference_monotone(v) -> bool:
    """Whether v(S) <= v(S | {g}) for every S and item g, on Fraction
    values."""
    m = v.num_items
    return all(reference_value(v, S) <= reference_value(v, S | 1 << g)
               for S in range(1 << m) for g in range(m))


@functools.lru_cache(maxsize=1 << 16)
def reference_mu(v, S: int, k: int) -> tuple[Fraction, tuple[int, ...]]:
    """Fair share and lexicographically smallest witness by exhaustive
    search on Fraction values over all k^|S| label vectors, the lowest
    item's label most significant. Memoized: an existence scan asks for the
    same shares on every allocation."""
    items = list(items_of(S))
    best_min = None
    best_parts: tuple[int, ...] = ()
    parts = [0] * k

    def assign(idx: int) -> None:
        nonlocal best_min, best_parts
        if idx == len(items):
            worst = min(reference_value(v, p) for p in parts)
            if best_min is None or worst > best_min:
                best_min = worst
                best_parts = tuple(parts)
            return
        bit = 1 << items[idx]
        for label in range(k):
            parts[label] |= bit
            assign(idx + 1)
            parts[label] ^= bit

    assign(0)
    return best_min, best_parts


def reference_efx_violations(inst: Instance, bundles, positive_only: bool = False) -> list:
    """EFX violations, one witness item per pair; with ``positive_only``
    (EFX+), only items the envier values above zero may be removed."""
    out = []
    for i, j in itertools.permutations(range(inst.n), 2):
        vi = inst.valuations[i]
        own = reference_value(vi, bundles[i])
        for g in items_of(bundles[j]):
            if positive_only and reference_value(vi, 1 << g) <= 0:
                continue
            if own < reference_value(vi, bundles[j] & ~(1 << g)):
                out.append((i, j, g))
                break
    return out


def loop_efx_report(inst: Instance, bundles) -> FairnessReport:
    """The EFX report with no closed form: every item of X_j removed in
    turn, on scaled integers, the first envied item the witness."""
    found = []
    for i, j in itertools.permutations(range(inst.n), 2):
        value = inst.valuations[i]._value
        own = value(bundles[i])
        g = next((g for g in items_of(bundles[j]) if own < value(bundles[j] & ~(1 << g))), None)
        if g is not None:
            found.append(FairnessViolation(i, j, g))
    return FairnessReport(FairnessNotion.EFX, not found, tuple(found))


def reference_pmms_violations(inst: Instance, bundles) -> list:
    out = []
    for i, j in itertools.permutations(range(inst.n), 2):
        vi = inst.valuations[i]
        share, witness = reference_mu(vi, bundles[i] | bundles[j], 2)
        if reference_value(vi, bundles[i]) < share:
            out.append((i, j, witness))
    return out


def reference_mms_violations(inst: Instance, bundles) -> list:
    out = []
    for i, vi in enumerate(inst.valuations):
        share, witness = reference_mu(vi, inst.all_items, inst.n)
        if reference_value(vi, bundles[i]) < share:
            out.append((i, None, witness))
    return out


REFERENCE_VIOLATIONS = {
    FairnessNotion.EFX: reference_efx_violations,
    FairnessNotion.EFX_POSITIVE: functools.partial(reference_efx_violations, positive_only=True),
    FairnessNotion.PMMS: reference_pmms_violations,
    FairnessNotion.MMS: reference_mms_violations,
}


def reference_first_fair(inst: Instance, notion: FairnessNotion) -> Optional[tuple[int, ...]]:
    """The exhaustive scan: the first allocation in owner-vector order with
    no violation under the Fraction references, or None."""
    violations = REFERENCE_VIOLATIONS[notion]
    return next((bundles for bundles in iter_allocations(inst.n, inst.m)
                 if not violations(inst, bundles)), None)


def reference_mms_feasible(v) -> bool:
    """For every S, the smallest larger side over bipartitions of S is at
    least the largest smaller side, mu(v, S, 2)."""
    for S in range(1 << v.num_items):
        splits = [(reference_value(v, A), reference_value(v, S ^ A))
                  for A in range(S + 1) if A & S == A]
        if min(map(max, splits)) < max(map(min, splits)):
            return False
    return True


def reference_nash_welfare(inst: Instance) -> tuple[Fraction, list]:
    best = None
    argmax: list = []
    for bundles in iter_allocations(inst.n, inst.m):
        product = math.prod((reference_value(v, X) for v, X in zip(inst.valuations, bundles)),
                            start=Fraction(1))
        if best is None or product > best:
            best, argmax = product, [bundles]
        elif product == best:
            argmax.append(bundles)
    return best, argmax


def reference_random_bivalued(n: int, m: int, seed: int, factored: bool = False) -> Instance:
    """``instances.random_bivalued`` as it was written on ``Fraction``
    arithmetic: the same draws in the same order, a = b + r/s as a sum of
    two ``Fraction``s."""
    rng = random.Random(seed)
    valuations = []
    for _ in range(n):
        if factored:
            b = Fraction(rng.choice([0, 1, 1, 2]))
            a = Fraction(rng.randint(1, 6)) if b == 0 else b * rng.randint(2, 6)
        else:
            b = Fraction(rng.randint(0, 8), rng.choice([1, 2]))
            a = b + Fraction(rng.randint(1, 6), rng.choice([1, 2]))
        high = rng.getrandbits(m)
        valuations.append(PersonalizedBivalued(a, b, high, m))
    return Instance(n, m, tuple(valuations))
