"""Shared verification helpers: per-round matching properties and
match-and-freeze trace invariants, asserted on every randomized run, and
the Fraction brute-force references the integer kernel is checked against."""

import itertools
import math
from fractions import Fraction

from fairdiv.algorithms import MafTrace, alternating_reach, ratio_substitute
from fairdiv.core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    full_mask,
    items_of,
)
from fairdiv.matching import RoundGraph
from fairdiv.oracles import iter_allocations, mu


def agent_ratios(inst: Instance) -> list[Fraction]:
    K = ratio_substitute(inst)
    return [v.a / v.b if v.b > 0 else K for v in inst.valuations]


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
        wu = graph.agent_weight(u)
        if wu is None:
            continue
        for a in alternating_reach(graph, matching, u):
            wa = graph.agent_weight(a)
            assert wa is not None and wu <= wa, (
                f"unmatched agent {u} (weight {wu}) reaches matched agent "
                f"{a} (weight {wa}) by an alternating path"
            )


def check_maf_trace_invariants(inst: Instance, trace: MafTrace) -> None:
    """Three per-run facts about freeze structure:

    1. every item an agent receives strictly before its last high-value
       round is itself high-value for that agent;
    2. a frozen agent was matched to a high-value item in the freeze round,
       and the freeze length never exceeds floor(ratio - 1);
    3. if two agents are matched in the same round to items that the first
       agent values high, the first freezes for no longer than the second
       (every alternating path threatening the first extends to the second).
    """
    ratios = agent_ratios(inst)
    n = inst.n

    for i in range(n):
        vi = inst.valuations[i]
        r_i = trace.r_star[i]
        for rnd in trace.rounds:
            if rnd.round >= r_i:
                break
            g = trace.round_item(i, rnd.round)
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


def reference_mu(v, S: int, k: int) -> tuple[Fraction, tuple[int, ...]]:
    """Fair share and lexicographically smallest witness by exhaustive
    search on Fraction values, in fairdiv's search order."""
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


def reference_efx_violations(inst: Instance, bundles) -> list:
    out = []
    for i, j in itertools.permutations(range(inst.n), 2):
        vi = inst.valuations[i]
        own = reference_value(vi, bundles[i])
        for g in items_of(bundles[j]):
            if own < reference_value(vi, bundles[j] & ~(1 << g)):
                out.append((i, j, g))
                break
    return out


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
