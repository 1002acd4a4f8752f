import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import serialize
from fairdiv.core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    Instance,
    InvalidBundleError,
    PairDemand,
    PersonalizedBivalued,
    _scaled,
    as_fraction,
    full_mask,
    is_monotone,
    items_of,
    mask_of,
    validate_allocation,
)
from helpers import to_explicit_table
from test_oracles import AtMostTwo


def test_mask_helpers():
    assert full_mask(3) == 0b111
    assert list(items_of(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011


# Bits are cleared one 64-bit window at a time, so listing a mask's items is
# linear in its length. Clearing each bit of the whole mask is quadratic and
# takes about 4 s on 2^18 bits, so the bound tells the two apart.
def test_items_of_is_linear_in_the_mask_length():
    rng = random.Random(3)
    for bits in (1, 63, 64, 65, 127, 128, 129, 200, 1000):
        for _ in range(50):
            mask = rng.getrandbits(bits)
            assert list(items_of(mask)) == [g for g in range(bits) if mask >> g & 1]
    start = time.monotonic()
    assert list(items_of(full_mask(1 << 18))) == list(range(1 << 18))
    elapsed = time.monotonic() - start
    assert elapsed < 1.5, f"took {elapsed:.2f}s"


def test_pair_demand_top_two():
    v = PairDemand.of([1, 2, 3, 4])
    assert v.value(full_mask(4)) == 7
    assert v.value(0) == 0
    assert v.value(0b0001) == 1


def test_empty_bundle_is_zero_for_normalized_classes():
    for v in (Additive.of([1, 2]), PairDemand.of([1, 2]),
              PersonalizedBivalued(Fraction(3), Fraction(1), 0b01, 2)):
        assert v.value(0) == 0


def test_personalized_bivalued_value():
    v = PersonalizedBivalued(Fraction(3), Fraction(1), 0b001, 3)
    assert v.value(0b111) == 5  # one high + two low
    assert v.value(0b001) == 3
    assert v.is_factored()
    assert not PersonalizedBivalued(Fraction(5, 2), Fraction(1), 0b01, 2).is_factored()
    assert PersonalizedBivalued(Fraction(5, 2), Fraction(0), 0b01, 2).is_factored()


def test_personalized_bivalued_requires_a_greater_b():
    with pytest.raises(ValueError):
        PersonalizedBivalued(Fraction(1), Fraction(1), 0b01, 2)
    with pytest.raises(ValueError):
        PersonalizedBivalued(Fraction(1), Fraction(-1), 0b01, 2)


@pytest.mark.parametrize("a, b, high, error, message", [
    (1, 1, 0b01, ValueError, "personalized bivalued requires a > b >= 0"),
    (Fraction(1, 2), Fraction(2, 3), 0b01, ValueError, "personalized bivalued requires a > b >= 0"),
    (2, -1, 0b01, ValueError, "personalized bivalued requires a > b >= 0"),
    (1, 1, 0b100, ValueError, "personalized bivalued requires a > b >= 0"),  # before the mask
    (1.5, 1, 0b01, TypeError, "floats are not allowed; pass int, Fraction or 'p/q'"),
    (2, "1/0", 0b01, ValueError, "zero denominator in '1/0'"),
    (2, 1, 0b100, InvalidBundleError, "high_items addresses items outside 0..m-1"),
], ids=["a=b", "a<b", "b<0", "a=b-and-item-m", "float", "1/0", "item-m"])
def test_personalized_bivalued_refusals(a, b, high, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        PersonalizedBivalued(a, b, high, 2)


@pytest.mark.parametrize("cls", [Additive, PairDemand])
@pytest.mark.parametrize("values, error, message", [
    ([1, Fraction(-1, 2)], ValueError, "item values must be non-negative"),
    (["3", -1], ValueError, "item values must be non-negative"),
    ([0.5], TypeError, "floats are not allowed; pass int, Fraction or 'p/q'"),
    (["1/0", -1], ValueError, "zero denominator in '1/0'"),  # before the sign
])
def test_item_values_refusals(cls, values, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls.of(values)


def test_scaled_integers_follow_the_lcm_rule():
    rng = random.Random(5)
    for _ in range(300):
        a, b = (Fraction(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(2))
        if a > b:
            v = PersonalizedBivalued(a, b, 0b1, 1)
            assert (v.scale, (v._a, v._b)) == _scaled((a, b))
        values = tuple(Fraction(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, 5)))
        for cls in (Additive, PairDemand):
            v = cls(values)
            assert (v.scale, v._ints) == _scaled(values)


def test_out_of_range_bundle_rejected():
    v = Additive.of([1, 2])
    with pytest.raises(InvalidBundleError):
        v.value(0b100)


def test_binary_table_values():
    v = BinaryTable(3, frozenset({0b011, 0b100}))
    assert v.value(0b011) == 1
    assert v.value(0b111) == 0
    assert v.value(0) == 0


# A binary table keeps its 2^m bytes alone: m and ones are read off them.
# With half of the 2^20 masks of a 20-item table also kept as a frozenset
# of ints, this measure read 34.6 MB.
def test_binary_table_keeps_only_its_bytes():
    ones = range(0, 1 << 20, 2)
    tracemalloc.start()
    try:
        v = BinaryTable(20, ones)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 1_500_000, f"a 20-item binary table keeps {kept} bytes"
    assert (v.m, v.ones) == (20, frozenset(ones))


def test_floats_are_refused():
    with pytest.raises(TypeError, match="floats are not allowed"):
        as_fraction(1.5)


def test_high_item_past_m_is_refused():
    PersonalizedBivalued(Fraction(2), Fraction(1), 0b100, 3)
    with pytest.raises(InvalidBundleError):
        PersonalizedBivalued(Fraction(2), Fraction(1), 0b1000, 3)


@pytest.mark.parametrize("mask", [1 << 3, 1 << 40, -1], ids=["2^m", "far-past", "negative"])
def test_binary_table_mask_outside_items_is_refused(mask):
    BinaryTable(3, frozenset({0b111}))
    with pytest.raises(InvalidBundleError):
        BinaryTable(3, frozenset({0b001, mask}))


def test_explicit_table_requires_power_of_two():
    with pytest.raises(ValueError):
        ExplicitTable.of([0, 1, 2])


def test_cross_representation_consistency():
    """Every representation agrees with its materialized table on all bundles."""
    vals = [
        Additive.of([1, 2, 3, 4]),
        PairDemand.of([1, 2, 3, 4]),
        PersonalizedBivalued(Fraction(7, 2), Fraction(1), 0b0101, 4),
        BinaryTable(4, frozenset({0b0001, 0b1111})),
    ]
    for v in vals:
        table = to_explicit_table(v)
        for mask in range(1 << 4):
            assert table.value(mask) == v.value(mask)


def test_pair_demand_monotone_subadditive():
    v = PairDemand.of([3, 1, 4, 1, 5])
    m = 5
    for mask in range(1 << m):
        for g in range(m):
            bit = 1 << g
            if not mask & bit:
                assert v.value(mask | bit) >= v.value(mask)
    for a, b in itertools.product(range(1 << m), repeat=2):
        if a & b == 0:
            assert v.value(a | b) <= v.value(a) + v.value(b)


def test_is_monotone_scan():
    assert is_monotone(Additive.of([1, 2]))
    assert not is_monotone(BinaryTable(2, frozenset({0b00, 0b01})))


def test_instance_validation():
    v = Additive.of([1, 1])
    with pytest.raises(ValueError):
        Instance(2, 2, (v,))  # arity mismatch
    with pytest.raises(ValueError):
        Instance(1, 3, (v,))  # m mismatch
    nonmono = BinaryTable(2, frozenset({0b01}))
    with pytest.raises(ValueError):
        Instance(1, 2, (nonmono,))  # monotone_required
    Instance(1, 2, (nonmono,), monotone_required=False)  # accepted with flag
    nonnorm = BinaryTable(2, frozenset({0b00, 0b11}))
    with pytest.raises(ValueError):
        Instance(1, 2, (nonnorm,), monotone_required=False)
    Instance(1, 2, (nonnorm,), monotone_required=False, normalized_required=False)


def test_validate_allocation():
    inst = Instance(2, 2, (Additive.of([1, 1]), Additive.of([1, 1])))
    assert validate_allocation(inst, (0b01, 0b10)) is None
    bad = validate_allocation(inst, (0b01, 0b11))
    assert bad is not None and bad.kind == "overlap" and bad.item == 0
    bad = validate_allocation(inst, (0b01, 0))
    assert bad is not None and bad.kind == "uncovered" and bad.item == 1
    assert validate_allocation(inst, (0b01,)) is not None
    # like overlap and uncovered, out_of_range names the lowest offending item
    bad = validate_allocation(inst, (0b01, mask_of([1, 3, 5])))
    assert bad is not None and bad.kind == "out_of_range" and bad.item == 3
    bad = validate_allocation(inst, (mask_of([2]), 0b11))
    assert bad is not None and bad.kind == "out_of_range" and bad.item == 2
    bad = validate_allocation(inst, (-1, 0b11))
    assert bad is not None and bad.kind == "out_of_range" and bad.item is None


# --- One valuation, however its values are spelled -------------------------
#
# A valuation keeps only its scaled integers: an all-int input as it is,
# with scale 1, anything else through Fractions. Each class, built from
# ints (where the values are whole), from Fractions and from "p/q" / "n"
# strings, unreduced ones included, is one valuation.

_rationals = st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 1, 1, 2, 3, 6]))


def _spellings(values: list) -> list:
    """The same values as ints where whole (all ints when all are), as
    Fractions, and as strings, "n" or an unreduced "p/q"."""
    plain = [int(x) if x.denominator == 1 else x for x in values]
    strings = [str(x.numerator) if x.denominator == 1 and i % 2
               else f"{2 * x.numerator}/{2 * x.denominator}" for i, x in enumerate(values)]
    return [plain, list(values), strings]


@st.composite
def spelled_valuations(draw):
    """(m, the valuation built from each spelling, its rational fields by
    name, as Fractions). Half the valuations have whole values only, so
    one spelling is all ints."""
    kind = draw(st.sampled_from(["additive", "pair_demand", "personalized_bivalued", "table",
                                 "binary_table"]))
    m = draw(st.integers(0, 4))
    if draw(st.booleans()):
        rationals = _rationals.map(lambda x: Fraction(x.numerator))
    else:
        rationals = _rationals
    if kind == "personalized_bivalued":
        b = draw(rationals)
        a = b + draw(rationals.filter(bool))
        high = draw(st.integers(0, (1 << m) - 1))
        return m, [PersonalizedBivalued(x, y, high, m) for x, y in _spellings([a, b])], \
            {"a": a, "b": b}
    if kind == "binary_table":
        ones = draw(st.sets(st.integers(0, (1 << m) - 1)))
        return m, [BinaryTable(m, sorted(ones)), BinaryTable(m, ones),
                   BinaryTable(m, frozenset(ones))], {}
    if kind == "table":
        values = draw(st.lists(rationals, min_size=1 << m, max_size=1 << m))
        values = [x - values[0] for x in values]  # some negative, v(empty) = 0
        return m, [ExplicitTable(tuple(s)) for s in _spellings(values)], {"table": tuple(values)}
    values = draw(st.lists(rationals, min_size=m, max_size=m))
    cls = serialize.TYPES[kind]
    return m, [cls.of(s) for s in _spellings(values)], {"values": tuple(values)}


def _json_rationals(x):
    if isinstance(x, tuple):
        return [serialize.rational_to_json(y) for y in x]
    return serialize.rational_to_json(x)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(spelled_valuations())
def test_every_spelling_of_the_same_values_is_one_valuation(case):
    m, built, rationals = case
    first = built[0]
    docs = set()
    for v in built:
        assert v == first and hash(v) == hash(first) and repr(v) == repr(first)
        for name, expected in rationals.items():
            got = getattr(v, name)
            assert got == expected
            assert {type(x) for x in (got if isinstance(got, tuple) else (got,))} <= {Fraction}
        assert [v._value(mask) for mask in range(1 << m)] == \
            [first._value(mask) for mask in range(1 << m)]
        inst = Instance(1, m, (v,), monotone_required=False, normalized_required=False)
        doc = serialize.instance_to_doc(inst)
        docs.add(serialize.dumps(doc))
        # each rational is written as rational_to_json writes its Fraction
        for name, expected in rationals.items():
            assert doc["valuations"][0][name] == _json_rationals(expected)
        assert serialize.instance_from_doc(doc) == inst
    assert len(docs) == 1


# The same values in another class are another valuation.
def test_the_same_values_in_two_classes_are_unequal():
    pairs = [
        (Additive.of([1, 2]), PairDemand.of([1, 2])),
        (Additive.of([]), PairDemand.of([])),
        (Additive.of(["1/2", 1]), PairDemand.of([Fraction(1, 2), 1])),
        (ExplicitTable.of([0, 1, 1, 1]), BinaryTable(2, [1, 2, 3])),
        (ExplicitTable.of([0, 1, 1, 2]), to_explicit_table(Additive.of([1, 1]))),
    ]
    for v, w in pairs[:-1]:
        assert v != w and w != v
        assert v != (v._key()) and v._key() != v
    assert pairs[-1][0] == pairs[-1][1]


# Refusals keep their messages, whatever the spelling: floats, negatives,
# a zero denominator, and a <= b.
FLOATS = TypeError("floats are not allowed; pass int, Fraction or 'p/q'")
NEGATIVE = ValueError("item values must be non-negative")
ZERO_DENOMINATOR = ValueError("zero denominator in '1/0'")
NOT_A_OVER_B = ValueError("personalized bivalued requires a > b >= 0")


@pytest.mark.parametrize("build, error", [
    (lambda: Additive.of([1, 0.5]), FLOATS),
    (lambda: PairDemand.of([-1, 2]), NEGATIVE),
    (lambda: Additive.of([Fraction(-1, 2)]), NEGATIVE),
    (lambda: Additive.of(["-2/4", 1]), NEGATIVE),
    (lambda: PairDemand.of(["1/0", -1]), ZERO_DENOMINATOR),
    (lambda: PersonalizedBivalued(1, 1, 0, 1), NOT_A_OVER_B),
    (lambda: PersonalizedBivalued("1/2", Fraction(2, 4), 0, 1), NOT_A_OVER_B),
    (lambda: PersonalizedBivalued(1, 2, 0, 1), NOT_A_OVER_B),
    (lambda: PersonalizedBivalued(1, -1, 0, 1), NOT_A_OVER_B),
    (lambda: PersonalizedBivalued(2.5, 1, 0, 1), FLOATS),
    (lambda: PersonalizedBivalued("1/0", 1, 0, 1), ZERO_DENOMINATOR),
    (lambda: ExplicitTable.of([0, 1, 1, 2.0]), FLOATS),
    (lambda: ExplicitTable.of([0, "1/0", 1]), ZERO_DENOMINATOR),
    (lambda: ExplicitTable.of([0, 1, 1]), ValueError("table length must be a power of two")),
])
def test_refusals_keep_their_messages(build, error):
    with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
        build()


# The valuations and Instance are read-only: assigning or deleting any
# field, public, scaled or a view already read, raises AttributeError, and
# a frozen dataclass subclass of Valuation still builds.
READ_ONLY = [
    (Additive.of([1, "1/2"]), ("values", "scale", "_ints", "num_items")),
    (PairDemand.of([1, 2]), ("values", "scale", "_ints")),
    (PersonalizedBivalued(3, 1, 1, 2), ("a", "b", "high_items", "m", "scale", "_a", "_b")),
    (ExplicitTable.of([0, 1, 1, 2]), ("table", "scale", "_cells", "_monotone")),
    (BinaryTable(2, [3]), ("m", "ones", "scale", "_cells")),
    (Instance(1, 1, (Additive.of([1]),)), ("n", "m", "valuations", "monotone_required",
                                           "normalized_required", "labels", "all_items")),
    (AtMostTwo(3), ("m", "scale")),
]


@pytest.mark.parametrize("obj, names", [pytest.param(obj, names, id=type(obj).__name__)
                                        for obj, names in READ_ONLY])
def test_fields_are_read_only(obj, names):
    before = repr(obj)
    for name in names:
        getattr(obj, name)  # a view is built and kept
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.new_field = 0
    assert repr(obj) == before
