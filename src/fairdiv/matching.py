"""Bipartite matching machinery for the match-and-freeze round structure.

Each agent's edges all carry that agent's uniform weight (a ratio of high
to low value). The matcher returns the maximum-cardinality matching of
maximum total weight, ties broken toward the lexicographically smallest
sorted pair list. It folds all three criteria into one integer key per
edge and solves a single maximum-weight assignment, exactly on Python ints,
in O(A^2 (A + I)) key operations for A agents and I items that have edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import _scaled


@dataclass(frozen=True)
class RoundGraph:
    """Bipartite graph between active agents and unallocated items."""

    agents: tuple[int, ...]
    items: tuple[int, ...]
    # (agent, item, weight); match_and_freeze passes ints, scaled once per run
    edges: tuple[tuple[int, int, int | Fraction], ...]

    def __post_init__(self) -> None:
        agents = set(self.agents)
        items = set(self.items)
        weight_of: dict[int, int | Fraction] = {}
        for a, g, w in self.edges:
            if a not in agents or g not in items:
                raise ValueError(f"edge ({a}, {g}) references an unknown node")
            if weight_of.setdefault(a, w) != w:
                raise ValueError(f"agent {a} has edges with differing weights")


Matching = tuple  # sorted (agent, item) pairs


def max_cardinality_max_weight_matching(graph: RoundGraph) -> Matching:
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
