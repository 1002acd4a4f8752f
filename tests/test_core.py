import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from fairdiv.core import (
    MAX_TABLE_ITEMS,
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
    to_explicit_table,
    validate_allocation,
)


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


def test_to_explicit_table_is_capped():
    with pytest.raises(ValueError, match="too many items"):
        to_explicit_table(Additive.of([1] * (MAX_TABLE_ITEMS + 1)))


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
