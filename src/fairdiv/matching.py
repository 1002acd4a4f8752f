"""Bipartite matching machinery for the match-and-freeze round structure.

Each agent's edges all carry that agent's uniform weight (a ratio of high
to low value). The matcher returns the maximum-cardinality matching of
maximum total weight, ties broken toward the lexicographically smallest
sorted pair list, exactly, for int or ``Fraction`` weights of any sign.

With one weight per agent, a matching's weight is a sum over its agents,
and the agent sets that can be matched together are the independent sets
of a transversal matroid (Edmonds and Fulkerson 1965). All its bases have
the maximum cardinality, and the greedy algorithm (Rado 1957; Edmonds
1971) finds one of maximum weight: agents in (weight descending, index
ascending) order, each kept when a Kuhn augmenting path reaches a free item.

The tie-break then fixes agents in index order, each to the smallest item
that some optimum keeping the earlier choices allows; an agent no such
optimum matches is left out. It rests on one fact: adding one item to a
graph, or deleting one, changes an optimum by at most one alternating path,
since any other part of the symmetric difference with a new optimum could
improve one of the two. For agent p, let H be the graph of the agents after
p and the items not fixed. If p holds c, p is taken out and the greedy
resumes over the unmatched agents of H; the first to reach c, y, if any,
makes the matching an optimum of H. p can then hold item j exactly when H
without j keeps that optimum less y: when j is free or its holder reaches a
free item, or, if y exists, when j's holder is or reaches an agent no
heavier than y, who leaves. If p is unmatched, the same holds with y = p.
So one Kuhn search from p, items ascending, for such an item finds p's
smallest allowed item and moves the path; an item that a failed branch of
it visited leads to no such item for a later branch either.

Each search visits each edge at most once, and the searches of a greedy
run share their visited items until one succeeds, since a failed search
leaves the matching as it was. A graph of A agents and E edges thus costs
O(A E): the greedy, then per agent at most one resumed greedy and one
search, against the O(A^2 (A + I)) of a Hungarian method on I items.

Match-and-freeze's reach sets come from the same search. On a
maximum-cardinality matching, a Kuhn search from an unmatched agent fails,
having entered every item on an alternating path from that agent and no
other; each such item is held, or the search would have succeeded. So the
agents reachable by alternating paths are the holders of the items it
visited. ``RoundGraph`` keeps the adjacency it checked for all searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class RoundGraph:
    """Bipartite graph between active agents and unallocated items. Each
    agent's edges must share one weight, which makes the greedy exact."""

    agents: tuple[int, ...]
    items: tuple[int, ...]
    # (agent, item, weight); match_and_freeze passes ints, scaled once per run
    edges: tuple[tuple[int, int, int | Fraction], ...]

    # per agent with edges: its items, ascending, and its one weight
    adj: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    weight: dict[int, int | Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        agents = set(self.agents)
        items = set(self.items)
        adj: dict[int, list[int]] = {}
        weight: dict[int, int | Fraction] = {}
        for a, g, w in self.edges:
            if a not in agents or g not in items:
                raise ValueError(f"edge ({a}, {g}) references an unknown node")
            if weight.setdefault(a, w) != w:
                raise ValueError(f"agent {a} has edges with differing weights")
            adj.setdefault(a, []).append(g)
        object.__setattr__(self, "adj", {a: tuple(sorted(gs)) for a, gs in adj.items()})
        object.__setattr__(self, "weight", weight)


Matching = tuple  # sorted (agent, item) pairs


def max_cardinality_max_weight_matching(graph: RoundGraph) -> Matching:
    """Among maximum-cardinality matchings, one of maximum total weight;
    ties broken toward the lexicographically smallest sorted pair list."""
    adj, weight = graph.adj, graph.weight
    order = sorted(adj, key=lambda a: (-weight[a], a))
    match: dict[int, int] = {}
    owner: dict[int, int] = {}
    seen: set[int] = set()
    for a in order:
        if _augment(adj, weight, match, owner, a, seen):
            seen = set()
    done: set[int] = set()  # the items of the fixed prefix
    for p in sorted(adj):
        bound = weight[p]
        if p in match:
            del owner[match.pop(p)]
            seen = set(done)
            y = next((y for y in order if y > p and y not in match
                      and _augment(adj, weight, match, owner, y, seen)), None)
            bound = None if y is None else weight[y]
        if _augment(adj, weight, match, owner, p, set(done), bound):
            done.add(match[p])
    return tuple(sorted(match.items()))


def alternating_reach(graph: RoundGraph, matching: Matching, start: int) -> set[int]:
    """Matched agents reachable from the unmatched agent ``start`` by an
    alternating path in a maximum-cardinality ``matching``: the holders of
    the items a failed Kuhn search from ``start`` visits."""
    match = dict(matching)
    if start in match:
        raise ValueError(f"agent {start} is matched")
    owner = {g: a for a, g in matching}
    seen: set[int] = set()
    if start in graph.adj and _augment(graph.adj, graph.weight, match, owner, start, seen):
        raise ValueError(f"agent {start} has an augmenting path; the matching is not maximum")
    return {owner[g] for g in seen}


def _augment(adj, weight, match, owner, start, seen, bound=None) -> bool:
    """Kuhn's search from the unmatched agent ``start``, items in ascending
    order, for an alternating path to an item that is free or, given a
    ``bound``, held by an agent of weight at most ``bound``. It enters no
    item in ``seen`` (which it fills), flips the path found, if any, and
    leaves that item's holder unmatched. It keeps its own stack, so a long
    path cannot exhaust the recursion limit."""
    stack = [(start, iter(adj[start]))]
    path: list[int] = []  # path[k]: the item stack[k]'s agent is trying
    while stack:
        for g in stack[-1][1]:
            if g not in seen:
                seen.add(g)
                path.append(g)
                held = owner.get(g)
                if held is None or bound is not None and weight[held] <= bound:
                    if held is not None:
                        del match[held]
                    for (a, _), item in zip(stack, path):
                        match[a], owner[item] = item, a
                    return True
                stack.append((held, iter(adj[held])))
                break
        else:
            stack.pop()
            del path[-1:]
    return False
