"""Concrete instances: every construction used in the verifications, plus
seeded random samplers per valuation class."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

from .core import (
    MAX_TABLE_ENTRIES,
    Additive,
    BinaryTable,
    ExplicitTable,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    full_mask,
    mask_of,
    require_count,
    require_table_items,
)
from .oracles import check_mms_feasible

REJECTION_LIMIT = 10**5


# ---------------------------------------------------------------------------
# named constructions


def stars_partition_size(n: int) -> int:
    """Minimal k with C(2k, k) >= 2n."""
    k = 1
    while math.comb(2 * k, k) < 2 * n:
        k += 1
    return k


def gen_nonexistence_stars(n: int) -> Instance:
    """n agents, m = 2k + n - 2 items (n-2 'stars' then 2k 'commons'), with
    monotone table valuations under which no PMMS allocation exists while an
    MMS allocation does.

    Each agent i privileges a distinct balanced bipartition (A_i, B_i) of the
    commons. The partitions are made unique canonically: A_i is the i-th
    k-subset of the commons containing the first common item, in
    lexicographic order, and B_i its complement.
    """
    if n < 2:
        raise ValueError("need at least two agents")
    k = stars_partition_size(n)
    num_stars = n - 2
    m = 2 * k + num_stars
    require_table_items(m, "explicit", n)
    stars_mask = full_mask(num_stars)
    commons = list(range(num_stars, m))
    commons_mask = full_mask(m) & ~stars_mask

    # C(2k - 1, k - 1) = C(2k, k) / 2 >= n such subsets hold the first common
    rests = itertools.islice(itertools.combinations(commons[1:], k - 1), n)
    a_masks = [1 << commons[0] | mask_of(rest) for rest in rests]

    valuations = []
    for i in range(n):
        A = a_masks[i]
        B = commons_mask ^ A
        table = []
        for mask in range(1 << m):
            if mask == A or mask == B:
                table.append(k + 1)
            elif mask & stars_mask and mask.bit_count() >= 2:
                table.append(2 * k)
            elif mask & stars_mask:
                table.append(k)  # a single star
            else:
                table.append(mask.bit_count())
        valuations.append(ExplicitTable(tuple(table)))

    labels = tuple(f"s{j + 1}" for j in range(num_stars)) + tuple(
        f"c{j + 1}" for j in range(2 * k)
    )
    return Instance(n, m, tuple(valuations), labels=labels)


# Pair values for the three-agent EFX/PMMS separation instance
# (1-based item labels; both monotone agents).
_SEPARATION_PAIRS_V1 = {
    (1, 2): 6, (1, 3): 5, (1, 4): 2, (1, 5): 2, (1, 6): 4,
    (2, 3): 2, (2, 4): 3, (2, 5): 5, (2, 6): 4, (3, 4): 4,
    (3, 5): 6, (3, 6): 5, (4, 5): 4, (4, 6): 6, (5, 6): 3,
}
_SEPARATION_PAIRS_V2 = {
    (1, 2): 3, (1, 3): 5, (1, 4): 2, (1, 5): 2, (1, 6): 3,
    (2, 3): 2, (2, 4): 2, (2, 5): 5, (2, 6): 3, (3, 4): 2,
    (3, 5): 4, (3, 6): 2, (4, 5): 3, (4, 6): 5, (5, 6): 4,
}


def gen_separation3() -> Instance:
    """Three agents, six items: two monotone table valuations and one
    additive valuation, admitting no PMMS allocation."""
    m = 6

    def table_for(pairs: dict) -> ExplicitTable:
        table = []
        for mask in range(1 << m):
            size = mask.bit_count()
            if size == 0:
                table.append(0)
            elif size == 1:
                table.append(1)
            elif size == 2:
                a, b = sorted(g + 1 for g in range(m) if mask & (1 << g))
                table.append(pairs[(a, b)])
            else:
                table.append(7)
        return ExplicitTable(tuple(table))

    v3 = Additive.of([100 + j for j in range(1, 7)])
    labels = tuple(str(j) for j in range(1, 7))
    return Instance(
        3, m, (table_for(_SEPARATION_PAIRS_V1), table_for(_SEPARATION_PAIRS_V2), v3),
        labels=labels,
    )


def gen_mnw_counterexample() -> Instance:
    """Two agents, four items: every Nash-welfare-maximizing allocation
    fails EFX."""
    high = mask_of([0, 1])
    return Instance(
        2, 4,
        (
            PersonalizedBivalued(5, 1, high, 4),
            PersonalizedBivalued(3, 1, high, 4),
        ),
        labels=("g1", "g2", "g3", "g4"),
    )


def gen_pmms_not_efx_example() -> Instance:
    """Two agents, three items, identical additive values (0, 0, 2):
    giving {item 1} / {items 2, 3} is PMMS but not EFX."""
    v = Additive.of([0, 0, 2])
    return Instance(2, 3, (v, v), labels=("1", "2", "3"))


def gen_table1_example() -> Instance:
    """Four agents, 18 items x, y, z1..z16; a = (5/2, 3, 4, 5), b = 1;
    x is high for agents 1-2 and y for agents 3-4."""
    m = 18
    a_values = [Fraction(5, 2), Fraction(3), Fraction(4), Fraction(5)]
    highs = [1 << 0, 1 << 0, 1 << 1, 1 << 1]
    valuations = tuple(
        PersonalizedBivalued(a, Fraction(1), high, m) for a, high in zip(a_values, highs)
    )
    labels = ("x", "y") + tuple(f"z{j}" for j in range(1, 17))
    return Instance(4, m, valuations, labels=labels)


# ---------------------------------------------------------------------------
# random samplers (deterministic given the seed)


def random_bivalued(n: int, m: int, seed: int, factored: bool = False) -> Instance:
    rng = random.Random(seed)
    valuations = []
    for _ in range(n):
        if factored:
            b = rng.choice([0, 1, 1, 2])
            a = rng.randint(1, 6) if b == 0 else b * rng.randint(2, 6)
        else:  # b = p/q, a = b + r/s, drawn in that order
            p, q = rng.randint(0, 8), rng.choice([1, 2])
            r, s = rng.randint(1, 6), rng.choice([1, 2])
            b, a = Fraction(p, q), Fraction(p * s + r * q, q * s)
        high = rng.getrandbits(m)
        valuations.append(PersonalizedBivalued(a, b, high, m))
    return Instance(n, m, tuple(valuations))


def _random_item_values(cls, n: int, m: int, seed: int, top: int) -> Instance:
    """n valuations of class cls, each item's value drawn from 0..top."""
    rng = random.Random(seed)
    return Instance(n, m, tuple(cls.of([rng.randint(0, top) for _ in range(m)])
                                for _ in range(n)))


def random_pair_demand(n: int, m: int, seed: int) -> Instance:
    return _random_item_values(PairDemand, n, m, seed, 9)


def random_binary_additive(n: int, m: int, seed: int) -> Instance:
    return _random_item_values(Additive, n, m, seed, 1)


def random_additive(n: int, m: int, seed: int) -> Instance:
    return _random_item_values(Additive, n, m, seed, 9)


def _submasks(c: int) -> int:
    """The bitset (bit S for mask S) of the submasks S of c: starting from
    {0}, each item g of c adds a copy of the set shifted by 2^g."""
    bits = 1
    while c:
        low = c & -c
        bits |= bits << low
        c ^= low
    return bits


def _draw_binary_table(rng: random.Random, m: int, monotone: bool, normalized: bool) -> BinaryTable:
    """One proposal table. Several proposal shapes are mixed so that accepted
    tables include non-trivial ones (with achievable fair share 1), but every
    draw still goes through the MMS-feasibility rejection check.

    The ones are drawn as one 2^m-bit int, bit S for mask S: the supersets
    of s are the submasks of M \\ s shifted by s, a drawn mask is one bit,
    and the table is built from the int in one conversion."""
    full = (1 << m) - 1
    if monotone:
        ones = 0
        for _ in range(rng.randint(1, 3)):  # the supersets of 1-3 seeds
            s = rng.getrandbits(m)
            ones |= _submasks(full ^ s) << s
    else:
        every = (1 << (1 << m)) - 1  # all 2^m masks
        shape = rng.randrange(4)
        if shape <= 1:  # sparse desirable bundles, or the complement of such
            ones = 0
            for _ in range(rng.randint(0, 4)):
                ones |= 1 << rng.getrandbits(m)
            if shape == 1:  # dense desirable bundles
                ones ^= every
        else:  # bundles hitting a target set, or (v(empty) = 1) avoiding it
            target = rng.getrandbits(m) or 1
            ones = _submasks(full & ~target)
            if shape == 2:
                ones ^= every
        for _ in range(rng.randint(0, 2)):  # jitter
            ones ^= 1 << rng.getrandbits(m)
    if normalized:
        ones &= ~1
    return BinaryTable._from_bits(m, ones)


def random_binary_mms_feasible(
    n: int, m: int, seed: int, monotone: bool = False, normalized: bool = True,
) -> Instance:
    """Rejection sampling: draw random binary tables and keep only those
    passing the MMS-feasibility check. Raises after ``REJECTION_LIMIT``
    draws, and BudgetExceededError when one check's 3^m splits are over
    the budget."""
    require_table_items(m, "binary", n)
    rng = random.Random(seed)
    valuations = []
    draws = 0
    while len(valuations) < n:
        if draws >= REJECTION_LIMIT:
            raise RuntimeError(f"rejection limit {REJECTION_LIMIT} exceeded")
        draws += 1
        v = _draw_binary_table(rng, m, monotone, normalized)
        if check_mms_feasible(v):
            valuations.append(v)
    return Instance(n, m, tuple(valuations), monotone_required=False,
                    normalized_required=False)


# ---------------------------------------------------------------------------
# generator dispatch (used by the CLI)


# kind → (seed, params) → instance. Generators are looked up when they run,
# so a wrapper installed on this module (a profiler, a tracer) sees the call.
GENERATORS = {
    "stars": lambda seed, p: gen_nonexistence_stars(p["n"]),
    "separation3": lambda seed, p: gen_separation3(),
    "mnw": lambda seed, p: gen_mnw_counterexample(),
    "pmms-not-efx": lambda seed, p: gen_pmms_not_efx_example(),
    "table1": lambda seed, p: gen_table1_example(),
    "random-bivalued": lambda seed, p: random_bivalued(p["n"], p["m"], seed),
    "random-factored-bivalued":
        lambda seed, p: random_bivalued(p["n"], p["m"], seed, factored=True),
    "random-pair-demand": lambda seed, p: random_pair_demand(p["n"], p["m"], seed),
    "random-binary-mms-feasible": lambda seed, p: random_binary_mms_feasible(
        p["n"], p["m"], seed,
        monotone=p.get("monotone", False),
        normalized=p.get("normalized", True),
    ),
    "random-binary-additive": lambda seed, p: random_binary_additive(p["n"], p["m"], seed),
    "random-additive": lambda seed, p: random_additive(p["n"], p["m"], seed),
}


def sample_random(kind: str, seed: int = 0, params: Optional[dict] = None) -> Instance:
    """Build the instance of generator ``kind``. A missing entry of
    ``params`` raises ``KeyError``; an unknown kind, an ``n`` outside
    1..MAX_ITEMS, an ``m`` outside 0..MAX_ITEMS or n * m above
    MAX_TABLE_ENTRIES raises ``ValueError`` before anything is drawn."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator kind: {kind}")
    params = params or {}
    for name, low in (("n", 1), ("m", 0)):
        if name in params:
            require_count(name, params[name], low)
    if (size := params.get("n", 0) * params.get("m", 0)) > MAX_TABLE_ENTRIES:
        raise ValueError(f"n * m must be at most {MAX_TABLE_ENTRIES}, got {size}")
    return GENERATORS[kind](seed, params)
