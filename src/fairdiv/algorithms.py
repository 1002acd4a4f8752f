"""The three constructive allocation algorithms, with execution traces.

- match_and_freeze: EFX for personalized bivalued valuations (PMMS when
  factored), driven by per-round max-cardinality max-weight matchings.
- cut_and_choose_graph_procedure: PMMS for binary-valued MMS-feasible
  valuations via cycle/lollipop reallocation steps.
- reversed_round_robin: PMMS for pair-demand valuations via a forward
  then reversed picking sequence.

Every "any/arbitrary" choice in the procedures is pinned (lowest index,
round-robin, lexicographically smallest witness) so runs are deterministic
and traces are reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .core import (
    BinaryTable,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    UnsupportedValuationError,
    full_mask,
    items_of,
)
from .matching import (
    Matching,
    RoundGraph,
    alternating_reach,
    max_cardinality_max_weight_matching,
)
from .oracles import _pmms_test, mu


class CutAndChooseStuckError(RuntimeError):
    """The cut-and-choose-graph procedure exceeded its n^2 iteration bound,
    which signals a non-MMS-feasible input."""


# ---------------------------------------------------------------------------
# Match-and-Freeze (personalized bivalued valuations)


class MafRound(NamedTuple):
    """One round's decisions: its matching, the agents it froze and the
    leftover picks. The round's graph is not kept; each round needs it only
    for its matching and reach sets."""

    round: int
    matching: Matching
    frozen_now: tuple[tuple[int, int], ...]  # (agent, freeze duration in rounds)
    leftovers: tuple[tuple[int, int], ...]  # (agent, item), in pick order


class MafTrace(NamedTuple):
    """The decisions of a match-and-freeze run, round by round."""

    rounds: tuple[MafRound, ...]


def _require_class(inst: Instance, cls, name: str) -> None:
    for i, v in enumerate(inst.valuations):
        if not isinstance(v, cls):
            raise UnsupportedValuationError(
                f"{name} requires {cls.__name__} valuations; agent {i} has {type(v).__name__}"
            )


def _ratio_weights(valuations, m: int) -> tuple[int, tuple[int, ...]]:
    """(scale, weights): each agent's ratio a_i / b_i times ``scale``, the
    LCM of the ratios' reduced denominators, as ints. An agent with b_i = 0
    gets the 'sufficiently large' stand-in K = m * (1 + max finite ratio),
    which exceeds every finite ratio and keeps floor(K - 1) past the
    m-round horizon; its denominator divides the largest ratio's, so
    K * scale = m * (scale + the largest finite weight)."""
    reduced = []  # each ratio a_i / b_i in lowest terms; b_i = 0 gives (1, 0)
    for v in valuations:
        d = math.gcd(v._a, v._b)
        reduced.append((v._a // d, v._b // d))
    scale = math.lcm(*(den for _, den in reduced if den))
    finite = [num * (scale // den) if den else None for num, den in reduced]
    K = m * (scale + max((x for x in finite if x is not None), default=0))
    return scale, tuple(K if x is None else x for x in finite)


def match_and_freeze(inst: Instance) -> tuple[tuple[int, ...], MafTrace]:
    """Personalized match-and-freeze. Returns an EFX allocation (PMMS if all
    valuations are factored) together with its trace: per round, the
    matching, the freezes and the leftover picks, but not the graph."""
    _require_class(inst, PersonalizedBivalued, "match_and_freeze")
    n, m = inst.n, inst.m
    scale, weight = _ratio_weights(inst.valuations, m)
    high = [v.high_items for v in inst.valuations]

    pool = full_mask(m)
    bundles = [0] * n
    w = [0] * n
    frozen_until = [0] * n  # the last round each agent sits out
    rounds: list[MafRound] = []
    r = 0
    while pool:
        r += 1
        if r > m + 1:
            raise RuntimeError("match-and-freeze failed to allocate an item per round")
        active = [i for i in range(n) if frozen_until[i] < r]
        adj = {i: mask for i in active if (mask := pool & high[i])}
        graph = RoundGraph(tuple(active), adj, weight)
        matching = max_cardinality_max_weight_matching(graph)
        unmatched = set(active) - {a for a, _ in matching}
        for a, g in matching:
            bundles[a] |= 1 << g
            pool &= ~(1 << g)

        # Freeze the matched agents that beat an unmatched agent to an item,
        # i.e. those reachable from it by an alternating path. Each weighs at
        # least as much as the loser, or swapping along the path would give a
        # heavier matching of the same size; so the freeze length, driven by
        # the largest such loser's ratio, never exceeds the frozen agent's own.
        threat: dict[int, int] = {}
        for u in unmatched:
            for i in alternating_reach(graph, matching, u):
                threat[i] = max(threat.get(i, 0), weight[u])
        frozen_now = []
        for i in sorted(threat):
            duration = min(max(threat[i] // scale - 1, 0), m)  # floor(ratio - 1), capped at m
            frozen_until[i] = r + duration
            w[i] = r
            frozen_now.append((i, duration))

        leftovers = []
        for i in sorted(unmatched, key=lambda i: (w[i], i)):
            if not pool:
                break
            g = (pool & -pool).bit_length() - 1  # lowest-index remaining item
            bundles[i] |= 1 << g
            pool &= ~(1 << g)
            leftovers.append((i, g))

        rounds.append(MafRound(r, matching, tuple(frozen_now), tuple(leftovers)))

    return tuple(bundles), MafTrace(tuple(rounds))


def maf_trace_lines(trace: MafTrace) -> list[str]:
    """Line-oriented rendering of a match-and-freeze trace, one round per
    line with a stable field order (for golden-file comparisons)."""
    lines = []
    for rnd in trace.rounds:
        matched = ",".join(f"{a}:{g}" for a, g in rnd.matching)
        frozen = ",".join(f"{a}:{d}" for a, d in rnd.frozen_now)
        leftovers = ",".join(f"{a}:{g}" for a, g in rnd.leftovers)
        lines.append(f"round={rnd.round} matched={matched} frozen={frozen} leftovers={leftovers}")
    return lines


# ---------------------------------------------------------------------------
# Cut-and-Choose-Graph (binary-valued MMS-feasible valuations)


class CcgIteration(NamedTuple):
    s: int
    pi: tuple[int, ...]
    walk: tuple[int, ...]
    case: str  # "cycle" | "lollipop"
    swap_applied: bool
    W: int  # sum of own-bundle values after the step
    E: int  # number of PMMS-satisfied agents after the step


class CcgTrace(NamedTuple):
    initial_W: int
    initial_E: int
    iterations: tuple[CcgIteration, ...]


def _tested(bundles) -> tuple[list[int], list[int]]:
    """(full, tested): the indices of the bundles that hold an item, and
    those plus the lowest-index empty bundle, in index order. Against X_held
    every empty bundle gives one verdict (S = X_held), so only the first
    can be the first envied."""
    empty = next((j for j, X in enumerate(bundles) if not X), None)
    return ([j for j, X in enumerate(bundles) if X],
            [j for j, X in enumerate(bundles) if X or j == empty])


def _first_envied(inst: Instance, envies, bundles, tested, i: int, held: int) -> Optional[int]:
    """The lowest-index j != held whose bundle agent i, holding X_held,
    PMMS-envies by the bound test ``envies``; None when there is none.
    ``tested`` is ``_tested(bundles)``: an empty X_held is tested only
    against the bundles that hold an item, any other against those and
    the first empty one."""
    mine = bundles[held]
    own = inst.valuations[i]._value(mine)
    # j == held is skipped: comparing X_held against itself decides nothing,
    # and for non-normalized values a bundle can lose to its own best split.
    return next((j for j in tested[1 if mine else 0]
                 if j != held and envies(i, own, mine, bundles[j])), None)


def _cut_graph(inst: Instance, envies, bundles, s: int) -> tuple[int, ...]:
    """pi relative to agent s under the bound PMMS test ``envies``."""
    tested = _tested(bundles)
    return tuple(s if (j := _first_envied(inst, envies, bundles, tested, i, s)) is None else j
                 for i in range(len(bundles)))


def build_cut_and_choose_graph(inst: Instance, bundles, s: int) -> tuple[int, ...]:
    """The functional digraph pi relative to agent s: pi(i) = s when agent i
    accepts X_s against every bundle, otherwise the lowest-index j whose
    bundle makes X_s unacceptable."""
    return _cut_graph(inst, _pmms_test(inst).fails, bundles, s)


def _pmms_state(inst: Instance, envies, bundles) -> tuple[int, int, Optional[int]]:
    """(W, E, s) where s is the lowest-index PMMS-violating agent or None."""
    W = sum(v._value(b) for v, b in zip(inst.valuations, bundles))  # binary: scale 1
    tested = _tested(bundles)
    envious = [i for i in range(inst.n)
               if _first_envied(inst, envies, bundles, tested, i, i) is not None]
    return W, inst.n - len(envious), envious[0] if envious else None


def _ccg_step(
    inst: Instance, envies, bundles, s: int,
) -> tuple[list[int], tuple[int, ...], tuple[int, ...], str, bool]:
    """One cut-and-choose step from the PMMS-violating agent s.

    Walk pi from s until an agent repeats; every agent on the walk takes
    the bundle it points at. If the walk closes at w != s (a lollipop), its
    last agent k instead cuts X_s | X_w into k's lexicographically smallest
    2-part fair-share witness (A, B), the agent just before w on the walk
    chooses the part it values more (A on ties), and k keeps the other.

    Returns (new bundles, pi, walk, case, swap); swap says the chooser took B.
    """
    pi = _cut_graph(inst, envies, bundles, s)
    walk = [s]
    while pi[walk[-1]] not in walk:
        walk.append(pi[walk[-1]])
    w_pos = walk.index(pi[walk[-1]])
    new = list(bundles)
    for i in walk:
        new[i] = bundles[pi[i]]
    if w_pos == 0:
        return new, pi, tuple(walk), "cycle", False
    k, prev = walk[-1], walk[w_pos - 1]
    A, B = mu(inst.valuations[k], bundles[s] | bundles[pi[k]], 2).witness
    vp = inst.valuations[prev]
    swap = vp._value(A) < vp._value(B)
    new[prev], new[k] = (B, A) if swap else (A, B)
    return new, pi, tuple(walk), "lollipop", swap


def cut_and_choose_graph_procedure(inst: Instance) -> tuple[tuple[int, ...], CcgTrace]:
    """Repair an initial round-robin allocation into a PMMS one by applying
    the cycle / lollipop step of ``_ccg_step`` from the lowest-index
    PMMS-violating agent until there is none.

    Raises CutAndChooseStuckError after n^2 iterations, which by the
    termination potential can only happen for non-MMS-feasible input.
    """
    _require_class(inst, BinaryTable, "cut_and_choose_graph_procedure")
    n = inst.n

    bundles = [0] * n
    for g in range(inst.m):  # round-robin initial allocation
        bundles[g % n] |= 1 << g

    envies = _pmms_test(inst).fails  # one share memo for the whole run
    iterations: list[CcgIteration] = []
    W, E, s = _pmms_state(inst, envies, bundles)
    initial_W, initial_E = W, E
    while s is not None:
        if len(iterations) >= n * n:
            raise CutAndChooseStuckError(
                f"no PMMS allocation after {n * n} iterations; input is likely not MMS-feasible"
            )
        bundles, pi, walk, case, swap = _ccg_step(inst, envies, bundles, s)
        W, E, s = _pmms_state(inst, envies, bundles)
        iterations.append(CcgIteration(walk[0], pi, walk, case, swap, W, E))

    return tuple(bundles), CcgTrace(initial_W, initial_E, tuple(iterations))


def ccg_trace_lines(trace: CcgTrace) -> list[str]:
    lines = [f"init W={trace.initial_W} E={trace.initial_E}"]
    for t, it in enumerate(trace.iterations, start=1):
        pi = ",".join(str(x) for x in it.pi)
        walk = ",".join(str(x) for x in it.walk)
        lines.append(
            f"iter={t} s={it.s} pi={pi} walk={walk} case={it.case} "
            f"swap={int(it.swap_applied)} W={it.W} E={it.E}"
        )
    return lines


# ---------------------------------------------------------------------------
# Reversed Round-Robin (pair-demand valuations)


def reversed_round_robin(inst: Instance, leftover_agent: int = 0) -> tuple[int, ...]:
    """Forward pick round, reversed pick round, leftovers to one agent.
    Returns a PMMS allocation for pair-demand valuations.

    Each pick takes the picker's most valuable remaining item, the lowest
    index on ties; when m < 2n the picking stops once every item is taken.
    """
    _require_class(inst, PairDemand, "reversed_round_robin")
    if not 0 <= leftover_agent < inst.n:
        raise ValueError("leftover_agent out of range")
    n = inst.n
    pool = full_mask(inst.m)
    bundles = [0] * n
    for i in [*range(n), *reversed(range(n))]:
        if not pool:
            break
        g = max(items_of(pool), key=inst.valuations[i]._ints.__getitem__)
        bundles[i] |= 1 << g
        pool &= ~(1 << g)
    bundles[leftover_agent] |= pool
    return tuple(bundles)
