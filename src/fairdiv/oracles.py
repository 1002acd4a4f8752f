"""Fair-share computation and fairness verification.

Everything here is exact: maximin shares with their witnesses walk the
labeled partitions up to relabeling (one per restricted growth string),
cutting, for a monotone valuation, every branch that cannot improve; the
existence search decides the n^m allocations by a pruned agent-by-agent
search that visits one allocation per orbit of interchangeable items
(``_interchangeable``, from ``Valuation._item_classes``), and PMMS envy
is asked of one bound test (``_pmms_test``), whose share
(``_pmms_share``) is a class's closed form (``Valuation._share2``) or
one pass over the bipartitions, memoized for that test's life alone.
MMS-feasibility (``check_mms_feasible``) is charged its 3^m splits before
anything is built; a table of at most two values is then decided by
disjoint-union bitsets, at most 2^(m-1) big-int steps (one per mask
without item m - 1: of two disjoint masks, at most one holds it) in about
2^(3m/2) bits of memory, and any other by the bipartition pass of every
subset. Exceeding the enumeration budget is a hard error, never an
approximation.

Every comparison is between two values of one agent's valuation, so it is
made on that valuation's scaled integers (``Valuation._value``); a
``Fraction`` is built only for a result handed back to the caller.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .core import (
    FairnessNotion,
    Instance,
    UnsupportedValuationError,
    Valuation,
    _bit_planes,
    _Table,
    items_of,
    validate_allocation,
)

DEFAULT_BUDGET = 10**8

# The cap on the size of any one enumeration. The CLI sets it from
# FAIRDIV_BUDGET for one command; a library caller uses ``BUDGET.set``.
BUDGET = contextvars.ContextVar("fairdiv.budget", default=DEFAULT_BUDGET)


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


def _check_budget(base: int, exp: int = 1, budget: Optional[int] = None) -> None:
    """Refuse an enumeration of base^exp cases over the cap. When exp is past
    the cap's bit length, 2^exp alone exceeds it and the power is not built."""
    cap = BUDGET.get() if budget is None else budget
    if (exp > cap.bit_length() and base >= 2) or base ** exp > cap:
        size = f"{base}^{exp}" if exp != 1 else base
        raise BudgetExceededError(f"enumeration of size {size} exceeds budget {cap}")


def _check_depth(depth: int) -> None:
    """Refuse a recursion ``depth`` calls deep past half the interpreter's
    recursion limit, the rest left to its callers: a cap that admits it
    would otherwise end the search in a ``RecursionError``."""
    limit = sys.getrecursionlimit() // 2
    if depth > limit:
        raise BudgetExceededError(f"search depth {depth} exceeds {limit}, "
                                  "half the interpreter's recursion limit")


class MaximinResult(NamedTuple):
    mu: Fraction
    witness: tuple[int, ...]  # k part masks, a labeled partition of S
    scaled: int  # mu * v.scale, to compare with v._value


class FairnessViolation(NamedTuple):
    envier: int
    envied: Optional[int]  # None for MMS (no pairwise counterpart)
    witness: object  # violating item index, or a maximin-partition witness


class FairnessReport(NamedTuple):
    notion: FairnessNotion
    holds: bool
    violations: tuple[FairnessViolation, ...]


def _mu_search(v: Valuation, S: int, k: int) -> MaximinResult:
    """The best labeled k-part partition of S by one depth-first walk over
    the restricted growth strings: label vectors in which each item's label
    is at most one more than the largest label before it. ``walk(d, used)``
    gives item d each label below k and at most ``used``, the number of
    labels before it, in ascending order, and under each scores the leaf or
    walks item d + 1. So the walk meets the vectors in lexicographic order
    (the lowest item most significant), and only strict improvements
    replace the best: the first optimum found has the smallest optimal
    vector. Relabeling any vector's parts in order of first appearance
    gives such a string, with the same part values and no larger, so that
    smallest vector, the witness, is one of them.

    Where v is known to be monotone, a node is cut when no part, given every
    unplaced item, is worth more than the best so far: each completion's
    parts lie within those, so none improves strictly, and the witness is
    unchanged. Otherwise the walk visits every leaf. The best starts at the
    first leaf, everything in part 0, since values may be negative; for
    k = 1 or |S| <= 1 that is the only one, and no walk runs. Item 0 is
    always in part 0, so the walk starts at item 1, |S| - 1 calls deep at
    most. Labels past |S| - 1 are never used, so one empty part stands for
    the k - |S| of them until the witness is returned."""
    value = v._value
    items = list(items_of(S))  # indices: the masks 2^g of m items hold m^2/16 bytes
    parts = [S] + [0] * (min(k, len(items) + 1) - 1)
    best, best_parts = min(map(value, parts)), tuple(parts)
    last = len(items) - 1

    def walk(d: int, used: int) -> None:
        nonlocal best, best_parts
        bit = 1 << items[d]
        rest = S & -(bit << 1)  # the unplaced items, those after d
        for label in range(min(used + 1, k)):
            parts[label] |= bit
            if d == last:
                worst = min(map(value, parts))
                if worst > best:
                    best, best_parts = worst, tuple(parts)
            # the best any part can reach is its value given every unplaced
            # item; while a part is empty, that is the least, v being monotone
            elif not prune or (value(rest) if max(used, label + 1) < k else
                               min(map(value, map(rest.__or__, parts)))) > best:
                walk(d + 1, max(used, label + 1))
            parts[label] ^= bit

    if last > 0 and k > 1:
        _check_depth(last)
        prune = v._monotone  # read for a walk only: a table scans itself on first use
        parts[0] = 1 << items[0]
        walk(1, 1)
    del walk  # it refers to itself: break the cycle
    return MaximinResult(Fraction(best, v.scale), best_parts + (0,) * (k - len(parts)), best)


def _split_bounds(value, S: int) -> tuple[int, int]:
    """(maxmin, minmax) over the bipartitions of S under ``value``: the
    largest smaller side, which is mu(v, S, 2) scaled, and the smallest
    larger side. Each unordered split {A, S \\ A} is visited once, with A
    holding S's lowest item."""
    low = S & -S
    rest = S ^ low
    x, y = value(S), value(0)
    maxmin, minmax = (x, y) if x <= y else (y, x)
    sub = rest
    while sub:
        sub = (sub - 1) & rest
        x, y = value(sub | low), value(rest ^ sub)
        if x > y:
            x, y = y, x
        if x > maxmin:
            maxmin = x
        if y < minmax:
            minmax = y
    return maxmin, minmax


def _check_leaves(n: int, k: int) -> None:
    """Refuse a walk over the restricted growth strings of n items with at
    most k labels, sum over j <= k of S(n, j) (Stirling numbers of the
    second kind), when they exceed the cap. The count is 1 for k = 1 and
    2^(n-1) for k = 2, refused as that power. For k >= 3 each row's entries
    are capped just past the cap; the row total never falls as n grows, so
    the first row past the cap decides, within about log2(cap) rows of at
    most k entries."""
    k = min(k, n)
    if k < 2:
        _check_budget(1)
        return
    if k == 2:
        _check_budget(2, n - 1)
        return
    cap = BUDGET.get()
    row = [1]  # S(i, j) for j = 0..min(i, k), each at most cap + 1
    for i in range(1, n + 1):
        if i <= k:
            row.append(0)
        row = [0] + [min(j * row[j] + row[j - 1], cap + 1) for j in range(1, len(row))]
        if sum(row) > cap:
            raise BudgetExceededError(f"enumeration of the partitions of {n} items into "
                                      f"at most {k} parts exceeds budget {cap}")


def mu(v: Valuation, S: int, k: int) -> MaximinResult:
    """Exact fair share: max over labeled k-part partitions of S of the
    minimum part value, with a witness partition attaining it. The budget
    is charged the walk's leaves, the restricted growth strings of S with
    at most k labels."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if S < 0 or S >> v.num_items:
        raise ValueError("S addresses items outside the valuation's range")
    _check_leaves(S.bit_count(), k)
    return _mu_search(v, S, k)


def clear_caches() -> None:
    """Does nothing: fairdiv keeps nothing across calls. It stays only for
    ``perfbench/workloads.py``, which calls it before every task."""


# ---------------------------------------------------------------------------
# fairness checks: one test per notion, one dispatch table
#
# ``_TESTS[notion](inst)`` binds the notion's test to an instance. EFX, EFX+
# and PMMS are pairwise: fails(i, own, X_i, X_j) is whether i, holding X_i,
# envies X_j. MMS is per agent: fails(i, own, X_i) is whether X_i is worth
# less to i than its maximin share. ``own`` is v_i._value(X_i), which the
# caller computes once per bundle and hands to every test of that bundle,
# so a test never values the envier's own bundle. No test searches for a
# witness; ``check`` asks ``witness``, with the same arguments, for the
# failures only.


class _Test(NamedTuple):
    pairwise: bool
    fails: Callable[..., bool]
    witness: Callable[..., object]


def _require_additive(inst: Instance) -> None:
    for v in inst.valuations:
        if not v.is_additive():
            raise UnsupportedValuationError("EFX+ is defined for additive valuations only")


def _efx_test(inst: Instance, positive_only: bool = False) -> _Test:
    """The EFX (or EFX+) envy test. When every valuation has a closed form
    for its best one-item removal (``Valuation._drop1``), EFX envy is one
    comparison; otherwise, and for EFX+, X_j's items are removed one by
    one. The witness, the first envied item, always comes from that loop."""
    values = [v._value for v in inst.valuations]
    drop1 = [v._drop1 for v in inst.valuations]

    def envied_item(i, own, mine, theirs):
        """The first item of X_j (for EFX+, one i values above zero) whose
        removal leaves X_j worth more to i than X_i; None if there is none."""
        value = values[i]
        for g in items_of(theirs):
            if positive_only and value(1 << g) <= 0:
                continue
            if own < value(theirs & ~(1 << g)):
                return g
        return None

    if positive_only or any(d is None for d in drop1):
        return _Test(True, lambda *pair: envied_item(*pair) is not None, envied_item)
    # an empty X_j has no item to remove, so it is never envied
    return _Test(True, lambda i, own, mine, theirs: theirs != 0
                 and own < drop1[i](theirs), envied_item)


def _efx_positive_test(inst: Instance) -> _Test:
    _require_additive(inst)
    return _efx_test(inst, positive_only=True)


def _pmms_share(v: Valuation, S: int) -> int:
    """mu(v, S, 2) * v.scale: v's closed form, or else one pass over the
    bipartitions of S, charged 2^|S|, which depends on S and the cap alone."""
    if v._share2 is not None:
        return v._share2(S)
    _check_budget(2, S.bit_count())
    return _split_bounds(v._value, S)[0]


def _pmms_test(inst: Instance) -> _Test:
    """The PMMS envy test: i envies j when v_i(X_i) is below v_i's best
    2-split of X_i | X_j, both in v_i's items. Each agent's shares are
    memoized for the life of the test (one search, check, graph or
    cut-and-choose run) and charged on a miss only: the cap cannot change
    within it, so a hit would pass the same charge again."""
    vals = inst.valuations
    shares = [{} for _ in vals]  # agent -> {S: _pmms_share(v_i, S)}

    def envies(i, own, mine, theirs):
        S = mine | theirs
        share = shares[i].get(S)
        if share is None:
            share = shares[i][S] = _pmms_share(vals[i], S)
        return own < share

    return _Test(True, envies,
                 lambda i, own, mine, theirs: mu(vals[i], mine | theirs, 2).witness)


def _mms_test(inst: Instance) -> _Test:
    shares = [mu(v, inst.all_items, inst.n) for v in inst.valuations]
    return _Test(False,
                 lambda i, own, mine: own < shares[i].scaled,
                 lambda i, own, mine: shares[i].witness)


_TESTS = {
    FairnessNotion.EFX: _efx_test,
    FairnessNotion.EFX_POSITIVE: _efx_positive_test,
    FairnessNotion.PMMS: _pmms_test,
    FairnessNotion.MMS: _mms_test,
}


def _failures(inst: Instance, bundles, test: _Test):
    """(envier, envied, test arguments) of every failure, envier by envier
    and then envied by envied; envied is None for a per-agent test. Each
    envier's own bundle is valued once."""
    for i in range(inst.n):
        mine = bundles[i]
        own = inst.valuations[i]._value(mine)
        if not test.pairwise:
            if test.fails(i, own, mine):
                yield i, None, (i, own, mine)
            continue
        for j in range(inst.n):
            if i != j and test.fails(i, own, mine, bundles[j]):
                yield i, j, (i, own, mine, bundles[j])


def check(inst: Instance, bundles, notion: FairnessNotion) -> FairnessReport:
    """Every violation of the notion with its witness (an item for EFX and
    EFX+, the envier's best split of the two bundles for PMMS, the agent's
    maximin partition for MMS), after validating the allocation. EFX+
    rejects a non-additive instance before that."""
    if notion is FairnessNotion.EFX_POSITIVE:
        _require_additive(inst)
    violation = validate_allocation(inst, bundles)
    if violation is not None:
        raise ValueError(f"invalid allocation: {violation}")
    test = _TESTS[notion](inst)
    found = tuple(FairnessViolation(i, j, test.witness(*args))
                  for i, j, args in _failures(inst, bundles, test))
    return FairnessReport(notion, not found, found)


def allocation_satisfies(inst: Instance, bundles, notion: FairnessNotion) -> bool:
    """Whether the notion holds, stopping at the first violation; no witness
    is built. The allocation is not validated."""
    return next(_failures(inst, bundles, _TESTS[notion](inst)), None) is None


# The three wrappers below are read by nothing in the package, which reaches
# every notion through ``check``: the benchmark's tracer
# (``perfbench/tracer.py``) spans them by name, and its workloads call
# ``check_efx`` and ``check_mms``.


def check_efx(inst: Instance, bundles) -> FairnessReport:
    """EFX: v_i(X_i) >= v_i(X_j \\ {g}) for all pairs i,j and all g in X_j."""
    return check(inst, bundles, FairnessNotion.EFX)


def check_pmms(inst: Instance, bundles) -> FairnessReport:
    return check(inst, bundles, FairnessNotion.PMMS)


def check_mms(inst: Instance, bundles) -> FairnessReport:
    return check(inst, bundles, FairnessNotion.MMS)


# ---------------------------------------------------------------------------
# exhaustive searches


def iter_allocations(n: int, m: int) -> Iterable[tuple[int, ...]]:
    """All n^m labeled allocations (empty bundles allowed) in lexicographic
    order of the per-item owner vector."""
    for owners in itertools.product(range(n), repeat=m):
        bundles = [0] * n
        for g, owner in enumerate(owners):
            bundles[owner] |= 1 << g
        yield tuple(bundles)


def _interchangeable(inst: Instance) -> list[int]:
    """The classes of at least two items that every agent finds
    interchangeable, as masks. Agent by agent, each item's class number is
    renumbered from its number so far and its label under the agent's
    valuation (``_item_classes``); once every item is alone, or a valuation
    knows no labels, there are none."""
    numbers = [0] * inst.m
    for v in inst.valuations:
        if v._item_classes is None:
            return []
        index = {}
        numbers = [index.setdefault(key, len(index))
                   for key in zip(numbers, v._item_classes())]
        if len(index) == inst.m:
            return []
    classes = [0] * inst.m
    for g, number in enumerate(numbers):
        classes[number] |= 1 << g
    return [c for c in classes if c & (c - 1)]


def exists_fair_allocation(inst: Instance, notion: FairnessNotion) -> Optional[tuple[int, ...]]:
    """The first allocation in lexicographic owner-vector order (item 0's
    owner most significant) that satisfies the notion, or None when none of
    the n^m allocations does. The budget is charged n^m, the size of the
    space decided.

    An exact branch-and-bound search, agent by agent: X_0 from all items,
    then X_1 from the rest, and so on; the last agent takes what is left.
    Each step settles the lowest undecided item of the rest: X_k keeps it
    first (a recursive call), then leaves it to a later agent (the same
    call goes on). Once no item is undecided X_k is whole, its tests run,
    and agent k + 1 goes on in the same call, so the recursion is at most
    m + 1 deep whatever n is. Each test runs as soon as its bundles are
    fixed, and a failing branch is pruned. An empty bundle is tested only
    against the placed bundles that hold an item: two empty bundles pass
    every pair test. Every completion's owner vector is at least the
    bound vector, i on X_i, k + 1 on the items left and k on the rest; the
    bound only rises along the search, which stops a branch once it
    reaches the best allocation found. Owner vectors are compared as
    base-n numbers.

    Swapping two interchangeable items (``_interchangeable``) maps a fair
    allocation to a fair one under every notion, and where the higher
    item had the smaller owner it moves that owner onto the lower item.
    So the first fair allocation has owners non-decreasing along each
    class, and the search visits only such allocations: once X_k leaves
    an item of a class, the class is shut and X_k keeps none of its
    higher items. The charge, n^m, is taken before the classes are
    found, and after EFX+ rejects a non-additive instance."""
    n, m = inst.n, inst.m
    if notion is FairnessNotion.EFX_POSITIVE:
        _require_additive(inst)
    _check_budget(n, m)
    if n > 1:  # one agent takes every item without a recursion
        _check_depth(m + 1)
    pairwise, fails, _ = _TESTS[notion](inst)
    tie = [0] * m  # tie[g]: g's class as a mask, 0 when g has none
    for c in _interchangeable(inst) if n > 1 else []:  # one agent has one allocation
        for g in items_of(c):
            tie[g] = c
    weight = [n ** (m - 1 - g) for g in range(m)]  # item g's owner digit
    values = [v._value for v in inst.valuations]
    bundles = [0] * n
    owns = [0] * n  # owns[i]: v_i._value(X_i), set when X_i is placed
    best, found = n ** m, None  # above every owner vector until one is found

    def clashes(k: int, held: tuple) -> bool:
        mine = bundles[k]
        own = owns[k] = values[k](mine)
        if not pairwise:
            return fails(k, own, mine)
        for i in range(k) if mine else held:  # two empty bundles never clash
            if fails(i, owns[i], bundles[i], mine) or fails(k, own, mine, bundles[i]):
                return True
        return False

    # held: the placed agents whose bundles hold an item
    def place(k: int, rest: int, todo: int, mine: int, bound: int, shut: int,
              held: tuple) -> None:
        nonlocal best, found
        while bound < best:  # every completion's owner vector is >= bound
            if k == n - 1:  # the last agent takes what is left
                bundles[k] = rest
                if not clashes(k, held):
                    best, found = bound, tuple(bundles)
                return
            if todo:  # the lowest undecided item of rest
                low = todo & -todo
                todo ^= low
                if not shut & low:  # keeping it recurses (members first)
                    place(k, rest, todo, mine | low, bound, shut, held)
                g = low.bit_length() - 1  # leaving it continues here
                bound, shut = bound + weight[g], shut | tie[g]
                continue
            bundles[k] = mine  # X_k is whole
            if clashes(k, held):
                return
            if mine:
                held += (k,)
            k, rest = k + 1, rest ^ mine  # agent k + 1 continues here too
            todo, mine, shut = rest, 0, 0

    place(0, inst.all_items, inst.all_items, 0, 0, 0, ())
    del place  # it refers to itself: break the cycle, free the search on return
    return found


def nash_welfare_maximizers(inst: Instance):
    """Exact maximum of the product of utilities over all allocations,
    with every maximizer (in lexicographic order).

    Products are taken over scaled values; every allocation's product is
    scaled by the same constant, the product of the scales, so the order
    is unchanged and the maximum is divided by it once."""
    _check_budget(inst.n, inst.m)
    values = [v._value for v in inst.valuations]
    best: Optional[int] = None
    argmax: list[tuple[int, ...]] = []
    for bundles in iter_allocations(inst.n, inst.m):
        product = 1
        for value, mask in zip(values, bundles):
            product *= value(mask)
        if best is None or product > best:
            best = product
            argmax = [bundles]
        elif product == best:
            argmax.append(bundles)
    assert best is not None
    return Fraction(best, math.prod(v.scale for v in inst.valuations)), argmax


def check_mms_feasible(v: Valuation, budget: Optional[int] = None) -> bool:
    """True iff for every S: min over bipartitions of the max side value is
    at least mu(v, S, 2), on v's 2^m scaled values (a table's own, else
    built once). The budget is charged 3^m, the splits of every subset,
    first; ``budget``, when given, caps this call in place of ``BUDGET``.

    A table with at most two distinct values is decided by
    ``_two_valued_feasible``: one step per mask without item m - 1, a
    submask product and a masked shift, so at most 2^(m-1) big-int steps.
    Any other table is decided by one pass over the bipartitions of each
    subset, (3^m + 1) / 2 splits, which stops at the first subset that
    fails."""
    # The one budget parameter left: perfbench/tracer.py wraps this function
    # as check_mms_feasible(v, budget), two positional arguments.
    m = v.num_items
    _check_budget(3, m, budget)
    table = v._cells if isinstance(v, _Table) else list(map(v._value, range(1 << m)))
    levels = set(table)
    if len(levels) == 1:
        return True
    if len(levels) == 2:
        # a BinaryTable's bytes are already 1 at the higher value's masks
        in_h = table if isinstance(table, bytes) else bytes(map(max(levels).__eq__, table))
        return _two_valued_feasible(in_h, m)
    value = table.__getitem__
    for S in range(1 << m):
        maxmin, minmax = _split_bounds(value, S)
        if minmax < maxmin:
            return False
    return True


def _two_valued_feasible(in_h: bytes, m: int) -> bool:
    """MMS-feasibility of a two-valued table, given as ``in_h``: 2^m bytes,
    1 at the masks H of the higher value ``top``, 0 at the rest, L. S fails
    exactly when some split of S has both sides in H (mu(v, S, 2) = top)
    and some split has both sides in L (every split has a side below top):
    when S is a disjoint union of two members of H and also of two
    members of L.

    Sets of masks are bitsets, bit S for mask S. The disjoint unions A | B
    of a member A of H (of L) with the members B of H (of L) are one step,
    (members & sub(full ^ A)) << A, where sub(C) holds the submasks of C:
    B and A are disjoint, so A | B = A + B. sub(C) is the product of a
    table entry for C's low ``lo`` bits and one for its high bits; the
    high entries' bits are 2^lo apart and a low entry is below 2^(2^lo),
    so the product has no carries. The tables take about 2^(3m/2) bits,
    2 MB at m = 16.

    Only the masks A without item m - 1 take a step. Of two disjoint
    masks at most one holds item m - 1, and the other one's step collects
    their union, so once every such A has stepped both union sets are
    whole, and none in common means feasible. Every union collected is a
    real one, so a union of H's that is also one of L's fails as soon as
    the later of its two contributions lands."""
    full = (1 << m) - 1
    lo = m - m // 2
    low = [1]  # low[c]: the bitset of the submasks of c < 2^lo
    for b in range(lo):
        low += [x | x << (1 << b) for x in low]
    high = [1]  # high[c]: the bitset of the submasks of c << lo
    for b in range(lo, m):
        high += [x | x << (1 << b) for x in high]
    low_bits = (1 << lo) - 1
    H = _bit_planes(in_h)[0]
    members = (((1 << (1 << m)) - 1) ^ H, H)  # L, H: indexed by in_h
    unions = [0, 0]
    for A in range(1 << m >> 1):
        bit = in_h[A]
        C = full ^ A
        step = (members[bit] & low[C & low_bits] * high[C >> lo]) << A
        if step & unions[not bit]:
            return False
        unions[bit] |= step
    return True


# ---------------------------------------------------------------------------
# pairwise compatibility graph (balanced 2-item bundles)


class CompatGraph(NamedTuple):
    """Nodes are (agent, 2-item bundle mask); an edge joins two nodes whose
    owners would not PMMS-envy each other under those bundles. ``nodes``
    holds the nodes with an edge, by agent and then by bundle."""

    nodes: tuple[tuple[int, int], ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def has_triangle(self) -> bool:
        """Triangle over three distinct agents, i.e. a PMMS-compatible
        balanced allocation when n = 3."""
        # Every edge joins two different agents, so a triangle has three.
        adj: dict = {}
        for u, w in self.edges:
            adj.setdefault(u, set()).add(w)
            adj.setdefault(w, set()).add(u)
        return any(adj[u] & adj[w] for u, w in self.edges)


def pair_compatibility_graph(inst: Instance) -> CompatGraph:
    """The graph over every agent's 2-item bundles, less those with no
    edge; the budget is charged the number of node pairs tested,
    C(n * C(m, 2), 2), before any is built."""
    _check_budget(math.comb(inst.n * math.comb(inst.m, 2), 2))
    pairs = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(inst.m), 2)]
    nodes = tuple((i, S) for i in range(inst.n) for S in pairs)
    owns = [inst.valuations[i]._value(S) for i, S in nodes]  # each node's own value
    envies = _pmms_test(inst).fails
    edges = []
    for ((i, S), x), ((j, T), y) in itertools.combinations(zip(nodes, owns), 2):
        if i == j or S & T:
            continue
        if not envies(i, x, S, T) and not envies(j, y, T, S):
            edges.append(((i, S), (j, T)))
    touched = {node for edge in edges for node in edge}
    return CompatGraph(tuple(node for node in nodes if node in touched), tuple(edges))
