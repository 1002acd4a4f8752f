"""Bipartite matching machinery for the match-and-freeze round structure.

Each agent's edges all carry that agent's uniform weight (a ratio of high
to low value). The matcher returns the maximum-cardinality matching of
maximum total weight, ties broken toward the lexicographically smallest
sorted pair list, exactly, for int or ``Fraction`` weights of any sign.

First comes one ascending pass: the agents with edges, in index order, each
take the lowest item of their mask not taken yet. If every agent gets an
item, that is the answer, and no search runs. A matching that covers every
agent has the greatest possible cardinality, so it is maximum; every
maximum-cardinality matching then matches the same agents, so all have the
same weight, whatever the weights' signs; and among them the pass's pair
list is the lexicographically smallest, since at the first agent where
another one differs, the pass took the lowest item the earlier agents left.
Otherwise the pass is dropped and the greedy below runs from scratch.

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

The graph is kept as masks, one per agent, so a search never lists an
edge. The visited items are a mask too, and every item a stack frame has
tried is among them, so the next item a frame tries is the lowest bit of
its agent's mask less the visited items. A search enters each item at
most once and pushes a frame only for the holder of an item it enters, so
it takes O(min(A, I)) mask steps on A agents and I items. The searches of
a greedy run share their visited items until one succeeds, since a failed
search leaves the matching as it was. A graph thus costs O(A^2) mask
steps whatever its edge count: the greedy, then per agent at most one
resumed greedy and one search; a graph the ascending pass saturates costs
A mask steps and no search. A step is a few operations on masks as
wide as the largest item index, against the O(A^2 (A + I)) of a
Hungarian method. Match-and-freeze builds one graph a round and keeps
none: its trace keeps each round's matching and freezes, so a graph is
freed when its round ends.

Match-and-freeze's reach sets come from the same search. On a
maximum-cardinality matching, a Kuhn search from an unmatched agent fails,
having entered every item on an alternating path from that agent and no
other; each such item is held, or the search would have succeeded. So the
agents reachable by alternating paths are the holders of the items it
visited.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .core import items_of


class RoundGraph(NamedTuple):
    """Bipartite graph between active agents and unallocated items, as
    masks, taken as given: ``adj[a]`` is the nonempty mask of the items
    joined to agent ``a`` (agents with no edges are left out), and
    ``weight[a]`` the one weight of all of ``a``'s edges, which makes the
    greedy exact. ``weight`` is a mapping or a sequence indexed by agent.
    An item with no edge is not represented."""

    agents: tuple[int, ...]
    adj: dict[int, int]
    weight: Sequence | Mapping

    @property
    def edges(self) -> tuple[tuple[int, int, object], ...]:
        """(agent, item, weight) triples, by agent in ``agents`` order and
        then by item."""
        adj, weight = self.adj, self.weight
        return tuple((a, g, weight[a]) for a in self.agents if a in adj
                     for g in items_of(adj[a]))


Matching = tuple  # sorted (agent, item) pairs


def max_cardinality_max_weight_matching(graph: RoundGraph) -> Matching:
    """Among maximum-cardinality matchings, one of maximum total weight;
    ties broken toward the lexicographically smallest sorted pair list."""
    adj, weight = graph.adj, graph.weight
    agents = sorted(adj)
    taken = 0  # the ascending pass: each agent, by index, takes its lowest free item
    pairs = []
    for a in agents:
        free = adj[a] & ~taken
        if not free:
            break
        low = free & -free
        taken |= low
        pairs.append((a, low.bit_length() - 1))
    else:
        return tuple(pairs)
    order = sorted(adj, key=lambda a: (-weight[a], a))
    match: dict[int, int] = {}
    owner: dict[int, int] = {}
    seen = 0
    for a in order:
        seen = _augment(adj, weight, match, owner, a, seen)
        if seen is None:
            seen = 0
    done = 0  # the items of the fixed prefix
    for p in agents:
        bound = weight[p]
        if p in match:
            del owner[match.pop(p)]
            seen, bound = done, None
            for y in order:
                if y > p and y not in match:
                    seen = _augment(adj, weight, match, owner, y, seen)
                    if seen is None:
                        bound = weight[y]
                        break
        if _augment(adj, weight, match, owner, p, done, bound) is None:
            done |= 1 << match[p]
    return tuple(sorted(match.items()))


def alternating_reach(graph: RoundGraph, matching: Matching, start: int) -> set[int]:
    """Matched agents reachable from the unmatched agent ``start`` by an
    alternating path in a maximum-cardinality ``matching``: the holders of
    the items a failed Kuhn search from ``start`` visits."""
    match = dict(matching)
    if start in match:
        raise ValueError(f"agent {start} is matched")
    owner = {g: a for a, g in matching}
    seen = 0
    if start in graph.adj:
        seen = _augment(graph.adj, graph.weight, match, owner, start, 0)
        if seen is None:
            raise ValueError(f"agent {start} has an augmenting path; the matching is not maximum")
    return {owner[g] for g in items_of(seen)}


def _augment(adj, weight, match, owner, start, seen, bound=None):
    """Kuhn's search from the unmatched agent ``start``, items in ascending
    order, for an alternating path to an item that is free or, given a
    ``bound``, held by an agent of weight at most ``bound``. It enters no
    item in the mask ``seen``. It flips the path found, if any, leaves that
    item's holder unmatched and returns None; otherwise it returns ``seen``
    with the items it entered. Every item a frame has tried is in ``seen``,
    so a frame's next item is the lowest bit of its agent's mask less
    ``seen``. It keeps its own stack, so a long path cannot exhaust the
    recursion limit."""
    unseen = ~seen  # a negative int: every bit above the masks is set
    agents = [start]  # the stack: agents[k + 1] holds path[k]
    path: list[int] = []  # path[k]: the item agents[k] is trying
    while agents:
        free = adj[agents[-1]] & unseen
        if not free:
            agents.pop()
            del path[-1:]
            continue
        low = free & -free
        unseen ^= low
        g = low.bit_length() - 1
        path.append(g)
        held = owner.get(g)
        if held is None or bound is not None and weight[held] <= bound:
            if held is not None:
                del match[held]
            for a, item in zip(agents, path):
                match[a], owner[item] = item, a
            return None
        agents.append(held)
    return ~unseen
