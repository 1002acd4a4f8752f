import random
from fractions import Fraction

import pytest

from fairdiv import instances
from fairdiv.core import is_monotone, mask_of
from fairdiv.instances import (
    gen_mnw_counterexample,
    gen_nonexistence_stars,
    gen_pmms_not_efx_example,
    gen_separation3,
    gen_table1_example,
    random_binary_additive,
    random_binary_mms_feasible,
    random_bivalued,
    random_pair_demand,
    sample_random,
    stars_partition_size,
)
from fairdiv.oracles import check_mms_feasible


def test_stars_parameters():
    assert stars_partition_size(2) == 2
    assert stars_partition_size(3) == 2
    assert stars_partition_size(4) == 3
    inst2 = gen_nonexistence_stars(2)
    assert (inst2.n, inst2.m) == (2, 4)
    inst3 = gen_nonexistence_stars(3)
    assert (inst3.n, inst3.m) == (3, 5)
    # one star, valued k = 2 by everyone
    star = 1 << 0
    assert all(v.value(star) == 2 for v in inst3.valuations)


def test_stars_distinct_partitions():
    inst = gen_nonexistence_stars(2)
    # the two agents privilege different bipartitions of the 4 commons
    specials = []
    for v in inst.valuations:
        # the privileged bundles are worth one more than their cardinality
        held = {mask for mask in range(1 << 4)
                if bin(mask).count("1") == 2 and v.value(mask) == 3}
        assert len(held) == 2
        specials.append(held)
    assert specials[0] != specials[1]
    assert not specials[0] & specials[1]


def test_stars_monotone():
    for n in (2, 3):
        for v in gen_nonexistence_stars(n).valuations:
            assert is_monotone(v)


def test_separation3_values():
    inst = gen_separation3()
    assert (inst.n, inst.m) == (3, 6)
    v1, v2, v3 = inst.valuations
    # pairs use 1-based labels; item j maps to bit j-1
    assert v1.value(mask_of([0, 1])) == 6
    assert v2.value(mask_of([0, 1])) == 3
    assert v1.value(mask_of([4, 5])) == 3
    assert v2.value(mask_of([4, 5])) == 4
    assert v1.value(mask_of([2, 4])) == 6
    for g in range(6):
        assert v1.value(1 << g) == 1
        assert v3.value(1 << g) == 101 + g
    assert v1.value(mask_of([0, 1, 2])) == 7
    assert is_monotone(v1) and is_monotone(v2)
    assert check_mms_feasible(v3)


def test_mnw_counterexample_values():
    inst = gen_mnw_counterexample()
    v1, v2 = inst.valuations
    assert v1.value(0b0001) == 5
    assert v2.value(0b1110) == 5
    assert v1.is_factored() and v2.is_factored()


def test_pmms_not_efx_example():
    inst = gen_pmms_not_efx_example()
    assert [v.values for v in inst.valuations] == [(0, 0, 2)] * 2


def test_table1_example():
    inst = gen_table1_example()
    assert inst.m == 18
    assert inst.valuations[0].value(1 << 0) == Fraction(5, 2)
    assert inst.valuations[2].value(1 << 0) == 1
    assert inst.labels[:3] == ("x", "y", "z1")


def test_samplers_deterministic():
    for maker in (random_bivalued, random_pair_demand, random_binary_additive):
        assert maker(3, 5, 7) == maker(3, 5, 7)
    assert random_binary_mms_feasible(2, 5, 7) == random_binary_mms_feasible(2, 5, 7)


def test_random_factored_bivalued_allows_b_zero():
    seen_zero = False
    for seed in range(40):
        inst = random_bivalued(3, 6, seed, factored=True)
        for v in inst.valuations:
            assert v.is_factored()
            seen_zero = seen_zero or v.b == 0
    assert seen_zero


def test_random_binary_additive_is_binary_and_additive():
    inst = random_binary_additive(2, 6, 3)
    for v in inst.valuations:
        singles = [v.value(1 << g) for g in range(6)]
        assert all(x in (0, 1) for x in singles)
        for mask in range(1 << 6):
            assert v.value(mask) == sum(singles[g] for g in range(6) if mask >> g & 1)


def test_rejection_sampler_outputs_feasible():
    inst = random_binary_mms_feasible(3, 6, 1, normalized=False)
    for v in inst.valuations:
        assert check_mms_feasible(v)


def test_rejection_limit(monkeypatch):
    monkeypatch.setattr(instances, "REJECTION_LIMIT", 0)
    with pytest.raises(RuntimeError):
        random_binary_mms_feasible(3, 6, 1)


def test_sample_random_dispatch():
    assert sample_random("separation3") == gen_separation3()
    assert sample_random("stars", params={"n": 3}) == gen_nonexistence_stars(3)
    a = sample_random("random-bivalued", 7, {"n": 3, "m": 6})
    assert a == random_bivalued(3, 6, 7)
    with pytest.raises(ValueError, match="unknown generator kind"):
        sample_random("nope")
    with pytest.raises(KeyError):
        sample_random("stars")
