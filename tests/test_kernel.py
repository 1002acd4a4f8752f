"""The scaled-integer kernel against Fraction brute-force references.

Values are drawn with denominators 1, 2, 3 and 6, so every class but
BinaryTable runs with a scale above 1; personalized bivalued valuations
include b = 0.
"""

import gc
import importlib
import itertools
import pkgutil
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fairdiv
from fairdiv.core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    FairnessNotion,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    UnsupportedValuationError,
    full_mask,
    is_monotone,
    items_of,
)
from fairdiv.instances import (
    GENERATORS,
    _draw_binary_table,
    random_binary_mms_feasible,
    sample_random,
)
from fairdiv.oracles import (
    BUDGET,
    BudgetExceededError,
    _efx_test,
    _interchangeable,
    _pmms_share,
    _pmms_test,
    allocation_satisfies,
    check,
    check_efx,
    check_mms,
    check_mms_feasible,
    check_pmms,
    exists_fair_allocation,
    mu,
    nash_welfare_maximizers,
)

from helpers import (
    loop_efx_report,
    loop_share2,
    reference_efx_violations,
    reference_interchangeable,
    reference_mms_feasible,
    reference_mms_violations,
    reference_monotone,
    reference_mu,
    reference_nash_welfare,
    reference_pmms_violations,
    reference_value,
    sorted_pair_demand_share2,
)

KERNEL = settings(max_examples=150, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 6]))
positive_rationals = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3, 6]))
signed_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6]))


def up_closure(cells) -> tuple:
    """v(S) = the largest cell at a submask of S: monotone, whatever the
    cells, and negative wherever every cell below S is."""
    cells = list(cells)
    bit = 1
    while bit < len(cells):
        for S in range(len(cells)):
            if S & bit:
                cells[S] = max(cells[S], cells[S ^ bit])
        bit <<= 1
    return tuple(cells)


@st.composite
def valuations(draw, m: int):
    """A valuation of every class. The random tables are almost never
    monotone, so ``monotone-table`` draws the up-closure of signed cells,
    a table whose fair shares take the pruned walk."""
    kind = draw(st.sampled_from(["additive", "bivalued", "pair", "table", "monotone-table",
                                 "binary"]))
    if kind == "additive":
        return Additive(tuple(draw(st.lists(rationals, min_size=m, max_size=m))))
    if kind == "pair":
        return PairDemand(tuple(draw(st.lists(rationals, min_size=m, max_size=m))))
    if kind == "bivalued":
        b = draw(st.one_of(st.just(Fraction(0)), rationals))
        a = b + draw(positive_rationals)
        return PersonalizedBivalued(a, b, draw(st.integers(0, (1 << m) - 1)), m)
    if kind == "table":
        size = 1 << m
        return ExplicitTable(tuple(draw(st.lists(rationals, min_size=size, max_size=size))))
    if kind == "monotone-table":
        size = 1 << m
        return ExplicitTable(up_closure(draw(st.lists(signed_rationals, min_size=size,
                                                      max_size=size))))
    return BinaryTable(m, draw(st.frozensets(st.integers(0, (1 << m) - 1))))


@st.composite
def valuation_and_subset(draw):
    m = draw(st.integers(1, 5))
    return draw(valuations(m)), draw(st.integers(0, (1 << m) - 1))


@st.composite
def instance_and_allocation(draw, max_m: int = 5):
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, max_m))
    vals = tuple(draw(valuations(m)) for _ in range(n))
    inst = Instance(n, m, vals, monotone_required=False, normalized_required=False)
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    bundles = tuple(sum(1 << g for g, o in enumerate(owners) if o == i) for i in range(n))
    return inst, bundles


def test_scale_is_the_lcm_of_the_denominators():
    v = Additive.of(["1/2", "1/3", "5/6", 2])
    assert v.scale == 6
    assert v.value(0b0111) == Fraction(5, 3)
    assert PersonalizedBivalued(Fraction(3, 2), Fraction(0), 0b01, 2).scale == 2
    assert BinaryTable(2, frozenset({0b11})).scale == 1


def test_hash_follows_equality_and_stays_out_of_repr():
    v, w = PairDemand.of(["1/2", 3]), PairDemand.of([Fraction(1, 2), Fraction(3)])
    assert v is not w and v == w and hash(v) == hash(w)
    assert "scale" not in repr(v)
    assert v != PairDemand.of([1, 3]) and v != Additive.of(["1/2", 3])
    t, u = ExplicitTable.of([0, 1, 1, 2]), ExplicitTable.of(["0", "1", "1", "2"])
    assert t.num_items == 2
    assert repr(t) == f"ExplicitTable(table={t.table!r})"
    # one equal pair per class, each spelled two ways
    pairs = [
        (v, w),
        (t, u),
        (Additive.of(["2/4", 3]), Additive((Fraction(1, 2), Fraction(6, 2)))),
        (PersonalizedBivalued("3/2", 0, 0b01, 2),
         PersonalizedBivalued(Fraction(3, 2), Fraction(0), 1, 2)),
        (BinaryTable(2, [0b11, 0b01]), BinaryTable(2, frozenset({1, 3}))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)


# Nothing in fairdiv outlives its call: mu on an instance that is then
# dropped leaves no reference to its valuation.
def test_mu_keeps_no_valuation_alive():
    refs = []
    for seed in range(50):
        v = random_binary_mms_feasible(1, 10, seed).valuations[0]
        mu(v, full_mask(10), 2 + seed % 2)
        refs.append(weakref.ref(v))
    del v
    gc.collect()
    assert [r for r in refs if r() is not None] == []


# The package keeps no cache keyed by its input. build_parser takes no
# arguments, so its one entry cannot grow.
def test_no_function_in_the_package_has_a_cache():
    cached = set()
    for info in pkgutil.iter_modules(fairdiv.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fairdiv.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                if hasattr(fn, "cache_info"):
                    cached.add(f"{fn.__module__}.{fn.__qualname__}")
    assert cached == {"fairdiv.cli.build_parser"}


@KERNEL
@given(valuation_and_subset())
def test_value_matches_reference(case):
    v, _ = case
    for mask in range(1 << v.num_items):
        got = v.value(mask)
        assert type(got) is Fraction
        assert got == reference_value(v, mask)
        assert v._value(mask) == got * v.scale


# Both walks: the pruned one wherever v is known to be monotone (a table,
# in an instance that does not ask, scans itself on the first mu), and the
# same valuation's walk over every leaf, with that knowledge hidden.
@KERNEL
@given(valuation_and_subset(), st.integers(1, 5))
def test_mu_matches_reference(case, k):
    v, S = case
    inst = Instance(1, v.num_items, (v,), monotone_required=False, normalized_required=False)
    result = mu(inst.valuations[0], S, k)
    event(f"{type(v).__name__}, pruned: {v._monotone}")
    assert type(result.mu) is Fraction
    assert (result.mu, result.witness) == reference_mu(v, S, k)
    assert result.scaled == result.mu * v.scale
    vars(v)["_monotone"] = False
    unpruned = mu(v, S, k)
    assert (unpruned.mu, unpruned.witness, unpruned.scaled) == (result.mu, result.witness,
                                                                result.scaled)


# Of k > |S| + 1 parts, a partition of S leaves at least k - |S| empty, and
# |S| + 1 parts already leave one: mu(v, S, k) is mu(v, S, |S| + 1) with its
# witness padded, and both are refused with one message under a cap the
# walk's leaves exceed. So the MMS test asks for min(n, m + 1) parts.
@KERNEL
@given(valuation_and_subset(), st.integers(1, 3), st.integers(0, 60))
def test_parts_past_one_empty_part_change_nothing(case, extra, cap):
    v, S = case
    k = S.bit_count() + 1

    def outcome(k):
        token = BUDGET.set(cap)
        try:
            return mu(v, S, k)
        except BudgetExceededError as e:
            return str(e)
        finally:
            BUDGET.reset(token)

    base = outcome(k)
    if isinstance(base, str):
        assert outcome(k + extra) == base
    else:
        assert (base.mu, base.witness) == reference_mu(v, S, k)
        assert outcome(k + extra) == (base.mu, base.witness + (0,) * extra, base.scaled)


@KERNEL
@given(st.integers(0, 5).flatmap(valuations))
def test_monotone_scan_matches_reference(v):
    assert is_monotone(v) is reference_monotone(v)


@st.composite
def symmetric_valuations(draw, m: int, inside: int):
    """A valuation under which the items inside the mask ``inside`` are
    interchangeable, and so are those outside it: one value for each side,
    or a table whose value depends only on how many items a mask holds on
    each side."""
    kind = draw(st.sampled_from(["additive", "pair", "table", "binary"]))
    if kind in ("additive", "pair"):
        cls = Additive if kind == "additive" else PairDemand
        two = draw(st.lists(rationals, min_size=2, max_size=2))
        return cls(tuple(two[inside >> g & 1] for g in range(m)))
    counts = [((S & inside).bit_count(), (S & ~inside).bit_count()) for S in range(1 << m)]
    if kind == "table":
        f = draw(st.lists(rationals, min_size=(m + 1) ** 2, max_size=(m + 1) ** 2))
        return ExplicitTable(tuple(f[a * (m + 1) + b] for a, b in counts))
    ones = draw(st.frozensets(st.tuples(st.integers(0, m), st.integers(0, m))))
    return BinaryTable(m, frozenset(S for S, key in enumerate(counts) if key in ones))


# The kernel's classes, one label per item from each valuation intersected
# over the agents, equal the classes found by swapping every pair of items
# on Fraction values. Symmetric instances share one inside set.
@KERNEL
@given(st.integers(1, 3), st.integers(0, 5), st.booleans(), st.data())
def test_item_classes_match_reference(n, m, symmetric, data):
    inside = data.draw(st.integers(0, (1 << m) - 1))
    kind = partial(symmetric_valuations, inside=inside) if symmetric else valuations
    vals = tuple(data.draw(kind(m)) for _ in range(n))
    inst = Instance(n, m, vals, monotone_required=False, normalized_required=False)
    classes = reference_interchangeable(inst)
    event(f"{'symmetric' if symmetric else 'any'}: {'some' if classes else 'no'} classes")
    assert sorted(_interchangeable(inst)) == classes


@pytest.mark.parametrize("vals,classes", [
    ([Additive.of([1, 2, 1, 2, 3])], [0b00101, 0b01010]),
    ([Additive.of([1, 2, 1, 2, 3]), PairDemand.of([1, 2, 1, 2, 3])], [0b00101, 0b01010]),
    ([Additive.of([1, 1, 1, 1, 1]), PersonalizedBivalued(2, 1, 0b00110, 5)], [0b00110, 0b11001]),
    ([ExplicitTable.of([S.bit_count() ** 2 for S in range(32)])], [0b11111]),
    ([BinaryTable(5, frozenset(S for S in range(32) if S.bit_count() >= 3))], [0b11111]),
    # every item has the same singleton and complement cells, so each pair
    # is swap-tested: {0, 1} and {2, 3} are the bonus bundles
    ([ExplicitTable.of([S.bit_count() + (S in (0b0011, 0b1100)) for S in range(16)])],
     [0b0011, 0b1100]),
    ([ExplicitTable.of([S.bit_count() + (S in (0b0011, 0b1100)) for S in range(16)]),
      Additive.of([1, 2, 1, 1])], [0b1100]),
    # each table alone has two classes, {0, 1} and {2, 3} against {0, 2}
    # and {1, 3}; no two items are interchangeable for both agents
    ([ExplicitTable.of([S.bit_count() + (S in (0b0011, 0b1100)) for S in range(16)]),
      ExplicitTable.of([S.bit_count() + (S in (0b0101, 0b1010)) for S in range(16)])], []),
    ([ExplicitTable.of(range(16))], []),
    # 80 distinct values, so 7 bit planes; items 0-3 count, items 4-7 weigh
    # 5, 10, 20 and 40
    ([ExplicitTable.of([(S & 0b1111).bit_count() + 5 * (S >> 4) for S in range(256)])],
     [0b1111]),
    # swapping items 0 and 3 turns pair values 7 and 6 into 5 and 4, ranks 4
    # and 3 into 2 and 1: the ranks differ only above their lowest bit
    ([ExplicitTable.of([12 if S == 15 else {0b0011: 7, 0b0101: 6, 0b0110: 5, 0b1001: 7,
                                            0b1010: 5, 0b1100: 4}.get(S, 0)
                        for S in range(16)])], []),
], ids=["additive", "additive-and-pair", "bivalued", "count-table", "count-binary",
        "bonus-pairs", "bonus-pairs-and-additive", "bonus-pairs-crossed", "distinct",
        "many-values", "high-rank-bit"])
def test_item_classes_of_constructed_instances(vals, classes):
    m = vals[0].num_items
    inst = Instance(len(vals), m, vals, monotone_required=False, normalized_required=False)
    assert sorted(_interchangeable(inst)) == classes == reference_interchangeable(inst)


@pytest.mark.parametrize("kind,params", [
    ("stars", {"n": 2}), ("stars", {"n": 3}), ("stars", {"n": 4}), ("separation3", {}),
    ("mnw", {}), ("pmms-not-efx", {}),
    *[(kind, {"n": 3, "m": 6}) for kind in GENERATORS if kind.startswith("random")],
])
def test_item_classes_of_every_generator(kind, params):
    for seed in range(4 if kind.startswith("random") else 1):
        inst = sample_random(kind, seed, params)
        assert sorted(_interchangeable(inst)) == reference_interchangeable(inst)


# A table is scanned on first use, not at construction nor by an instance
# that does not ask, and keeps the answer outside equality, hash and repr,
# so validation and mu share one scan.
@pytest.mark.parametrize("make", [
    lambda: ExplicitTable.of(up_closure([0, 2, -1, 1, 3, 0, 0, 1])),
    lambda: BinaryTable(3, frozenset({0b011, 0b111})),
], ids=["table", "binary"])
def test_table_monotonicity_is_scanned_once_on_first_use(make):
    v, w = make(), make()
    Instance(1, 3, (v,), monotone_required=False)
    assert "_monotone" not in vars(v)
    Instance(1, 3, (v,))
    assert vars(v)["_monotone"] is True
    assert v == w and hash(v) == hash(w) and repr(v) == repr(w)
    vars(v)["_monotone"] = False  # the kept answer is the one read
    assert not is_monotone(v) and is_monotone(w) and "_monotone" in vars(w)
    assert not is_monotone(BinaryTable(2, frozenset({0b01})))


@st.composite
def share_case(draw):
    """(v, mine, theirs): a valuation of every class, on up to 7 items so a
    pair-demand share sees more than its four largest items, and two
    disjoint bundles."""
    m = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["additive", "pair", "bivalued-b0", "bivalued-fraction",
                                 "bivalued-factored", "table", "binary"]))
    items = st.lists(rationals, min_size=m, max_size=m).map(tuple)
    if kind == "additive":
        v = Additive(draw(items))
    elif kind == "pair":
        v = PairDemand(draw(items))
    elif kind.startswith("bivalued"):
        b = draw(positive_rationals)
        if kind == "bivalued-b0":
            a, b = b, Fraction(0)
        elif kind == "bivalued-factored":
            a = b * draw(st.integers(2, 6))
        else:  # a / b is not an integer
            a = b * draw(st.builds(Fraction, st.integers(3, 25), st.sampled_from([2, 3, 4]))
                         .filter(lambda r: r > 1 and r.denominator > 1))
        v = PersonalizedBivalued(a, b, draw(st.integers(0, (1 << m) - 1)), m)
    elif kind == "table":
        v = ExplicitTable(tuple(draw(st.lists(rationals, min_size=1 << m, max_size=1 << m))))
    else:  # neither monotone nor normalized when it holds the empty bundle
        ones = draw(st.frozensets(st.integers(0, (1 << m) - 1)))
        v = BinaryTable(m, ones | {0} if draw(st.booleans()) else ones)
    S = draw(st.integers(0, (1 << m) - 1))
    mine = S & draw(st.integers(0, (1 << m) - 1))
    return v, mine, S ^ mine


def pmms_test_envies(v, mine, theirs):
    """Whether v, holding ``mine``, PMMS-envies ``theirs``: asked of the
    PMMS test bound to a two-agent instance of v, with both flags off so
    that a non-monotone or non-normalized table is allowed."""
    inst = Instance(2, v.num_items, (v, v), monotone_required=False,
                    normalized_required=False)
    return _pmms_test(inst).fails(0, v._value(mine), mine, theirs)


@KERNEL
@given(share_case())
def test_pmms_share_matches_reference(case):
    v, mine, theirs = case
    S = mine | theirs
    assert _pmms_share(v, S) == reference_mu(v, S, 2)[0] * v.scale


@KERNEL
@given(share_case())
def test_pmms_test_matches_reference(case):
    v, mine, theirs = case
    share, witness = reference_mu(v, mine | theirs, 2)
    envy = pmms_test_envies(v, mine, theirs)
    assert envy is (reference_value(v, mine) < share)
    if envy:  # the witness the PMMS check reports
        result = mu(v, mine | theirs, 2)
        assert (result.mu, result.witness) == (share, witness)


# The closed-form factored share against the per-count loop, on every count
# of up to 80 high and 80 low items; the last two run with a scale above 1.
@pytest.mark.parametrize("a,b", [
    (1, 0), (5, 0), (2, 1), (3, 1), (12, 4), (Fraction(9, 2), Fraction(3, 2)),
    (Fraction(5, 3), Fraction(1, 3)),
])
def test_factored_share_matches_loop(a, b):
    v = PersonalizedBivalued(a, b, (1 << 81) - 1, 162)
    assert v.is_factored()
    for h in range(81):
        for l in range(81):
            S = (1 << h) - 1 | ((1 << l) - 1) << 81
            assert v._share2(S) == loop_share2(v._a, v._b, h, l), (h, l)


def test_pair_demand_share_matches_sorted_formula():
    """The one-pass share against the sort of S's item values, on every
    vector of values 0..3 over 0..6 items and every subset: ties, zeros
    and subsets of fewer than four items included."""
    for m in range(7):
        for values in itertools.product(range(4), repeat=m):
            v = PairDemand(values)
            for S in range(1 << m):
                assert v._share2(S) == sorted_pair_demand_share2(v, S), (values, S)


class PlainAdditive(Additive):
    """Inherits Additive's items but declares no share of its own."""


class ClosedFormAdditive(Additive):
    """Claims a closed-form share; its value does not matter here."""

    def _share2(self, S):
        return 0


FIVE = [1, 2, 3, 4, 5]


# 2^5 = 32 splits of the 5-item union against a cap of 31: whether the
# envy test is charged follows the class's own closed form, not a list.
# ``answer`` is None where the test is charged, else its verdict on X = {0, 1}.
@pytest.mark.parametrize("v,answer", [
    (Additive.of(FIVE), None),
    (ExplicitTable(tuple(range(1 << 5))), None),
    (BinaryTable(5, frozenset({1})), None),
    (PairDemand.of(FIVE), True),  # 1 + 2 < min(5 + 2, 4 + 3)
    (PersonalizedBivalued(2, 1, 0b101, 5), False),  # 2 + 1, the best split's worse part
    (PlainAdditive.of(FIVE), None),
    (ClosedFormAdditive.of(FIVE), False),
], ids=["additive", "table", "binary", "pair-demand", "bivalued", "subclass",
        "subclass-with-share"])
def test_pmms_budget_charge_follows_the_class(v, answer):
    token = BUDGET.set(31)
    try:
        if answer is None:
            with pytest.raises(BudgetExceededError, match=r"size 2\^5 exceeds budget 31"):
                pmms_test_envies(v, 0b00011, 0b11100)
        else:
            assert pmms_test_envies(v, 0b00011, 0b11100) is answer
    finally:
        BUDGET.reset(token)


@KERNEL
@given(instance_and_allocation())
def test_fairness_checks_match_reference(case):
    inst, bundles = case
    cases = [
        (check_efx, reference_efx_violations, FairnessNotion.EFX),
        (check_pmms, reference_pmms_violations, FairnessNotion.PMMS),
        (check_mms, reference_mms_violations, FairnessNotion.MMS),
    ]
    if all(v.is_additive() for v in inst.valuations):
        cases.append((partial(check, notion=FairnessNotion.EFX_POSITIVE),
                      partial(reference_efx_violations, positive_only=True),
                      FairnessNotion.EFX_POSITIVE))
    for check_notion, reference, notion in cases:
        report = check_notion(inst, bundles)
        want = reference(inst, bundles)
        assert [(f.envier, f.envied, f.witness) for f in report.violations] == want
        assert report.holds == (not want) == allocation_satisfies(inst, bundles, notion)


# Five agents and three items: every maximin partition leaves at least two
# parts empty. Agent 0's table is worth 2 on {0, 1} and on {2} and 0 on
# {0}, agent 1's is worth 1 on each item alone and 0 on {1, 2}, and both
# value the empty bundle above that: holding {0} and {1, 2}, both fail,
# each with its witness padded to five parts. Agents 2-4 hold nothing and
# have share 0.
def test_mms_check_pads_the_witnesses_of_failing_agents():
    v0 = ExplicitTable((3, 0, 0, 2, 2, 0, 0, 0))
    v1 = ExplicitTable((2, 1, 1, 0, 1, 0, 0, 0))
    inst = Instance(5, 3, (v0, v1) + (Additive.of([1, 1, 1]),) * 3,
                    monotone_required=False, normalized_required=False)
    bundles = (0b001, 0b110, 0, 0, 0)
    report = check(inst, bundles, FairnessNotion.MMS)
    want = reference_mms_violations(inst, bundles)
    assert [(f.envier, f.envied, f.witness) for f in report.violations] == want
    assert want == [(0, None, (0b011, 0b100, 0, 0, 0)), (1, None, (0b001, 0b010, 0b100, 0, 0))]


CLASSES = (Additive, PairDemand, PersonalizedBivalued, ExplicitTable, BinaryTable)
DROP1_CLASSES = tuple(cls for cls in CLASSES if cls._drop1 is not None)


def test_the_item_valued_classes_have_a_closed_form_drop1():
    assert DROP1_CLASSES == (Additive, PairDemand, PersonalizedBivalued)


@st.composite
def drop1_valuations(draw):
    """A valuation of a class with a closed-form ``_drop1``, on up to 8
    items, with b = 0 among the bivalued ones."""
    m = draw(st.integers(1, 8))
    cls = draw(st.sampled_from(DROP1_CLASSES))
    if cls is PersonalizedBivalued:
        b = draw(st.one_of(st.just(Fraction(0)), rationals))
        return cls(b + draw(positive_rationals), b, draw(st.integers(0, (1 << m) - 1)), m)
    return cls(tuple(draw(st.lists(rationals, min_size=m, max_size=m))))


@KERNEL
@given(drop1_valuations())
def test_drop1_is_the_best_one_item_removal(v):
    for S in range(1, 1 << v.num_items):
        assert v._drop1(S) == max(v._value(S & ~(1 << g)) for g in items_of(S))


def _seeded_valuation(rng: random.Random, cls, m: int):
    def value():
        return Fraction(rng.randint(0, 12), rng.choice([1, 2, 3]))

    if cls is PersonalizedBivalued:
        b = rng.choice([Fraction(0), value()])
        return cls(b + 1 + value(), b, rng.getrandbits(m), m)
    if cls is ExplicitTable:
        return cls(tuple(value() for _ in range(1 << m)))
    if cls is BinaryTable:
        return cls(m, frozenset(S for S in range(1 << m) if rng.random() < 0.5))
    return cls(tuple(value() for _ in range(m)))


def _seeded_efx_cases():
    """Seeded instances, each all of one class (tables included) or of
    mixed classes, with random allocations that leave some bundles empty."""
    rng = random.Random(5)
    for trial in range(400):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        one_class = CLASSES[trial % 6] if trial % 6 < 5 else None
        vals = tuple(_seeded_valuation(rng, one_class or rng.choice(CLASSES), m)
                     for _ in range(n))
        inst = Instance(n, m, vals, monotone_required=False, normalized_required=False)
        owners = [rng.randrange(n) for _ in range(m)]
        yield inst, tuple(sum(1 << g for g, o in enumerate(owners) if o == i)
                          for i in range(n))


def test_efx_check_equals_the_item_by_item_loop():
    violated = 0
    for inst, bundles in _seeded_efx_cases():
        report = check(inst, bundles, FairnessNotion.EFX)
        assert report == loop_efx_report(inst, bundles)
        assert allocation_satisfies(inst, bundles, FairnessNotion.EFX) == report.holds
        violated += not report.holds
    assert 50 < violated < 350


@pytest.mark.parametrize("v", [
    Additive.of([0, 3]), PairDemand.of([2, 5]), PersonalizedBivalued(2, 0, 0b01, 2),
    PersonalizedBivalued(3, 1, 0b00, 2), ExplicitTable.of([4, 1, 1, 1]),
    BinaryTable(2, frozenset({0})),
], ids=["additive", "pair-demand", "bivalued-b0", "bivalued", "table", "binary"])
def test_an_empty_bundle_is_never_efx_envied(v):
    inst = Instance(2, 2, (v, v), monotone_required=False, normalized_required=False)
    for positive_only in (False, True) if v.is_additive() else (False,):
        fails = _efx_test(inst, positive_only).fails
        assert not any(fails(0, v._value(mine), mine, 0) for mine in range(4))
    assert check(inst, (0b11, 0), FairnessNotion.EFX).holds is (
        v._value(0) >= max(v._value(0b01), v._value(0b10)))


def test_efx_positive_rejects_non_additive_before_validation():
    inst = Instance(2, 2, (Additive.of([1, 0]), PairDemand.of([1, 1])))
    overlapping = (0b11, 0b01)
    with pytest.raises(UnsupportedValuationError):
        check(inst, overlapping, FairnessNotion.EFX_POSITIVE)
    with pytest.raises(UnsupportedValuationError):
        allocation_satisfies(inst, overlapping, FairnessNotion.EFX_POSITIVE)
    with pytest.raises(ValueError, match="invalid allocation"):
        check(inst, overlapping, FairnessNotion.EFX)


def test_efx_positive_rejects_non_additive_before_the_budget():
    """Under a cap of 4, below the 2^3 allocations of the search, every
    EFX+ entry point refuses a pair-demand instance as non-additive."""
    inst = Instance(2, 3, (PairDemand.of([1, 1, 1]),) * 2)
    token = BUDGET.set(4)
    try:
        with pytest.raises(UnsupportedValuationError):
            exists_fair_allocation(inst, FairnessNotion.EFX_POSITIVE)
        with pytest.raises(UnsupportedValuationError):
            check(inst, (0b011, 0b100), FairnessNotion.EFX_POSITIVE)
        with pytest.raises(UnsupportedValuationError):
            allocation_satisfies(inst, (0b011, 0b100), FairnessNotion.EFX_POSITIVE)
        with pytest.raises(BudgetExceededError):
            exists_fair_allocation(inst, FairnessNotion.EFX)
    finally:
        BUDGET.reset(token)


@KERNEL
@given(st.integers(1, 4).flatmap(valuations))
def test_mms_feasible_matches_reference(v):
    assert check_mms_feasible(v) == reference_mms_feasible(v)


@st.composite
def two_valued_tables(draw):
    """Valuations with at most two distinct values: the sampler's binary
    proposals in its four monotone/normalized flavours (both verdicts
    occur), the same proposals with any two rationals in place of 1 and 0,
    random two-valued tables, and one-valued tables. Values may be negative
    and the empty bundle nonzero."""
    m = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["proposal", "proposal-rational", "explicit", "one-valued"]))
    if kind.startswith("proposal"):
        rng = random.Random(draw(st.integers(0, 2**32)))
        v = _draw_binary_table(rng, m, draw(st.booleans()), draw(st.booleans()))
        if kind == "proposal":
            return v
        ones = [mask in v.ones for mask in range(1 << m)]
    elif kind == "explicit":
        ones = draw(st.lists(st.booleans(), min_size=1 << m, max_size=1 << m))
    else:
        ones = [True] * (1 << m)
    one, zero = draw(signed_rationals), draw(signed_rationals)
    return ExplicitTable(tuple(one if bit else zero for bit in ones))


@KERNEL
@given(two_valued_tables())
def test_two_valued_mms_feasible_matches_reference(v):
    verdict = check_mms_feasible(v)
    event(f"feasible: {verdict}")
    assert verdict == reference_mms_feasible(v)


# Every 0/1 table on at most three items, 2 + 4 + 16 + 256 of them, as a
# BinaryTable and as a table of two rationals, the lower one negative.
def test_two_valued_mms_feasible_matches_reference_on_every_small_table():
    verdicts = Counter()
    for m in range(4):
        for ones in range(1 << (1 << m)):
            binary = BinaryTable(m, frozenset(S for S in range(1 << m) if ones >> S & 1))
            rational = ExplicitTable(tuple(Fraction(5, 2) if ones >> S & 1 else Fraction(-1, 3)
                                           for S in range(1 << m)))
            for v in (binary, rational):
                verdict = check_mms_feasible(v)
                assert verdict == reference_mms_feasible(v), (m, ones, type(v).__name__)
                verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


@KERNEL
@given(instance_and_allocation(max_m=4))
def test_nash_welfare_matches_reference(case):
    inst, _ = case
    best, argmax = nash_welfare_maximizers(inst)
    assert type(best) is Fraction
    assert (best, argmax) == reference_nash_welfare(inst)
