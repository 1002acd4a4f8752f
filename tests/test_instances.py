import hashlib
import random
from fractions import Fraction

import pytest

from fairdiv import instances, serialize
from fairdiv.core import is_monotone, mask_of
from fairdiv.instances import (
    _draw_binary_table,
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

from helpers import reference_draw_binary_table, reference_random_bivalued


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


@pytest.mark.parametrize("n", range(2, 11))
def test_stars_privileged_sets_are_distinct(n):
    # A_i is the set of k commons, the first among them, that agent i
    # values at k + 1; C(2k - 1, k - 1) >= n such sets exist, so every
    # agent gets one of its own
    inst = gen_nonexistence_stars(n)
    k = stars_partition_size(n)
    first = 1 << n - 2
    commons = (1 << inst.m) - first
    held = [[A for A in range(1 << inst.m) if A & commons == A and A & first
             and A.bit_count() == k and v.value(A) == k + 1]
            for v in inst.valuations]
    assert all(len(sets) == 1 for sets in held)
    assert len({sets[0] for sets in held}) == n


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


@pytest.mark.parametrize("factored", [False, True])
def test_random_bivalued_equals_its_fraction_reference(factored):
    for n in range(1, 7):
        for m in range(19):
            for seed in range(10):
                inst = random_bivalued(n, m, seed, factored=factored)
                ref = reference_random_bivalued(n, m, seed, factored=factored)
                assert inst == ref
                assert [(v.scale, v._a, v._b) for v in inst.valuations] == \
                    [(v.scale, v._a, v._b) for v in ref.valuations]
                assert all(type(v.a) is type(v.b) is Fraction for v in inst.valuations)


@pytest.mark.parametrize("monotone", [False, True])
@pytest.mark.parametrize("normalized", [False, True])
def test_bitset_draw_matches_set_built_draw(monotone, normalized):
    """Each proposal table equals the set-built one drawn from an equal
    rng state, and leaves the rng in the same state, so a reordered or
    extra call fails even where the two tables happen to agree."""
    for m in range(11):
        for seed in range(60):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                v = _draw_binary_table(rng, m, monotone, normalized)
                assert v._cells == reference_draw_binary_table(ref, m, monotone, normalized)._cells
                assert rng.getstate() == ref.getstate(), (m, seed)


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


# sha256 of the canonical JSON of random_binary_mms_feasible(3, m, seed, **flags),
# recorded with the bipartition pass deciding every draw. The sampler's
# output pins every accept/reject decision it made, at sizes above the
# benchmark's m <= 8.
SAMPLER_DIGESTS = [
    (8, 0, {}, "ee72c90a48209594cb46a004dac421576b2b02a2c154f37ca2efbcd4c199763d"),
    (8, 1, {}, "b3b0fa8be9483d3fb7a30429312737fcc1161ef7528d6ab6d5919ad344aebf99"),
    (8, 2, {}, "bd672481649c9b464c511c0d4d8e2bd3ba4e8eed55a3f9a4a103ecc8e3821e56"),
    (9, 0, {}, "ce9c6d3d7ef59f87a3356e2d2bf23067edd297bbebf2fc06cc942e68c47ae792"),
    (9, 1, {}, "5efa8ea8a1ed71ae54dcab87cdeb737393ca1b53d50bd5659b5f12d335973bc7"),
    (9, 2, {}, "dbf678c0fe86335c5d43380211dd3ccb0cf7599843ee03be1748165d76863159"),
    (10, 0, {}, "79e16c60f081cb35ae61c90719c716d3471113f3897d9216b32e0f315e915a8d"),
    (10, 1, {}, "0d57559be5bbb4b7963adb093953db66f3d55c37aa559a3a4daea039fe294729"),
    (10, 2, {}, "47736eca48fa58d1b7d5da29dbc592d05ee149fafe70451fa48791694ace82d3"),
    (11, 0, {}, "00f6eacdf77c04611db8bad20108233b405769894b483bb5d0a2e5b8ba994034"),
    (11, 1, {}, "b87603609da1348b90088da58d09a56dcb37a9c18ef5ca727cbb378bfcbe2c87"),
    (11, 2, {}, "7eba741bf1eec1834bd90cfc72a8550ec034e3e549d50bb992cffcec0f73a001"),
    (12, 0, {}, "95f6fe2469a9002b5ec45cd0d4ff536907de272a309ad2548be61317bd7ca135"),
    (12, 1, {}, "34038a01f41bd64c3dd2c34001ae58365477a2924e3c4aaf4b30fb8f562db152"),
    (12, 2, {}, "55072d37a965c44cabf381a501cf42ff91c472701dff867b6b71e8cfa3b4f0d9"),
    (10, 0, {"monotone": True}, "d570cb67480ebd0c061dfd84be76627848385250f660f0b9561b89d700089442"),
    (10, 0, {"normalized": False},
     "6fde7a08db6bdbd4f621d7edf715955c2a6db848b49d31aa2778132ec4af8b79"),
]


@pytest.mark.parametrize("m, seed, flags, digest", SAMPLER_DIGESTS)
def test_rejection_sampler_golden(m, seed, flags, digest):
    doc = serialize.instance_to_doc(random_binary_mms_feasible(3, m, seed, **flags))
    assert hashlib.sha256(serialize.dumps(doc).encode()).hexdigest() == digest


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
    with pytest.raises(ValueError, match="n \\* m must be at most"):
        sample_random("random-bivalued", 0, {"n": 2048, "m": 1024})


def test_stars_needs_two_agents():
    with pytest.raises(ValueError, match="at least two agents"):
        gen_nonexistence_stars(1)
