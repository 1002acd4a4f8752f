from fractions import Fraction

import pytest

from fairdiv import serialize
from fairdiv.core import Additive, PairDemand
from fairdiv.instances import (
    gen_mnw_counterexample,
    gen_pmms_not_efx_example,
    gen_separation3,
    gen_table1_example,
    random_binary_mms_feasible,
    random_pair_demand,
)


def test_rational_round_trip():
    assert serialize.rational_to_json(Fraction(5, 2)) == "5/2"
    assert serialize.rational_to_json(Fraction(4)) == 4
    assert serialize.rational_from_json("5/2") == Fraction(5, 2)
    assert serialize.rational_from_json(4) == Fraction(4)
    with pytest.raises(TypeError):
        serialize.rational_from_json(2.5)
    with pytest.raises(ValueError, match="zero denominator"):
        serialize.rational_from_json("1/0")


def test_instance_round_trip_all_classes():
    insts = [
        gen_table1_example(),       # personalized bivalued, with labels
        gen_separation3(),          # explicit tables + additive
        gen_mnw_counterexample(),
        gen_pmms_not_efx_example(),
        random_pair_demand(3, 5, 1),
        random_binary_mms_feasible(2, 4, 1, normalized=False),
    ]
    for inst in insts:
        doc = serialize.instance_to_doc(inst)
        text = serialize.dumps(doc)
        back = serialize.instance_from_doc(serialize.loads(text))
        assert back == inst
        assert serialize.dumps(serialize.instance_to_doc(back)) == text


def test_no_floats_in_output():
    text = serialize.dumps(serialize.instance_to_doc(gen_table1_example()))
    assert "2.5" not in text
    assert '"5/2"' in text


def test_allocation_round_trip():
    doc = serialize.allocation_to_doc((0b101, 0b010))
    assert doc == {"bundles": [[0, 2], [1]]}
    assert serialize.allocation_from_doc(doc, 3) == (0b101, 0b010)


def test_item_value_classes_stay_distinct():
    # Additive and PairDemand share their per-item base, but neither is the
    # other: the serializer dispatches on isinstance, in a fixed order.
    values = ["1/2", 3, 0]
    add, pair = Additive.of(values), PairDemand.of(values)
    assert add != pair and add.values == pair.values
    assert not isinstance(add, PairDemand) and not isinstance(pair, Additive)
    assert repr(add).startswith("Additive(values=") and repr(pair).startswith("PairDemand(")
    assert serialize.valuation_to_doc(add) == {"type": "additive", "values": ["1/2", 3, 0]}
    assert serialize.valuation_to_doc(pair) == {"type": "pair_demand", "values": ["1/2", 3, 0]}
