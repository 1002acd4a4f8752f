import contextlib
import copy
import gc
import io
import json
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdiv import serialize
from fairdiv.cli import main
from fairdiv.core import MAX_ITEMS, Additive, PairDemand
from fairdiv.instances import (
    gen_mnw_counterexample,
    gen_pmms_not_efx_example,
    gen_separation3,
    gen_table1_example,
    random_additive,
    random_binary_mms_feasible,
    random_bivalued,
    random_pair_demand,
)
from helpers import reference_dumps


def test_rational_round_trip():
    assert serialize.rational_to_json(Fraction(5, 2)) == "5/2"
    assert serialize.rational_to_json(Fraction(4)) == 4
    assert serialize.rational_from_json("5/2") == Fraction(5, 2)
    assert serialize.rational_from_json(4) == Fraction(4)
    with pytest.raises(TypeError):
        serialize.rational_from_json(2.5)
    with pytest.raises(ValueError, match="zero denominator"):
        serialize.rational_from_json("1/0")


# An int is read as a Fraction before any other test; a bool or a float is
# still refused, by name, and every value read is a Fraction.
@pytest.mark.parametrize("x,result", [
    (0, Fraction(0)),
    (7, Fraction(7)),
    (-3, Fraction(-3)),
    (10 ** 999, Fraction(10 ** 999)),
    ("5/2", Fraction(5, 2)),
    ("-4/6", Fraction(-2, 3)),
    ("9", Fraction(9)),
    (True, TypeError("expected int or 'p/q' string, got True")),
    (False, TypeError("expected int or 'p/q' string, got False")),
    (2.0, TypeError("expected int or 'p/q' string, got 2.0")),
    (2.5, TypeError("expected int or 'p/q' string, got 2.5")),
    ("1/0", ValueError("zero denominator in '1/0'")),
], ids=lambda x: str(x)[:12])
def test_rational_from_json_reads_ints_first(x, result):
    if isinstance(result, Exception):
        with pytest.raises(type(result)) as exc:
            serialize.rational_from_json(x)
        assert str(exc.value) == str(result)
    else:
        got = serialize.rational_from_json(x)
        assert type(got) is Fraction and got == result


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


# Strings and keys with quotes, backslashes, control and non-ASCII
# characters, which the canonical text escapes.
_texts = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fa é€\U0001f600\ud800') | st.characters(),
                 max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200) | _texts,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_json_values)
@example([True, 1])
@example({"a": [[], {}, ()], "b": {"c": {}}})
@example(10 ** 4300 - 1)
def test_dumps_writes_the_standard_library_text(doc):
    assert serialize.dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("doc,error", [
    (2.5, TypeError),
    ({"values": [1, 0.5]}, TypeError),
    ({1: "a"}, TypeError),
    ({"a": 1, 2: "b"}, TypeError),
    ([10 ** 4300], ValueError),  # 4,301 digits, past the printable limit
], ids=["float", "nested-float", "int-key", "mixed-keys", "4301-digits"])
def test_dumps_refuses_what_a_document_cannot_hold(doc, error):
    with pytest.raises(error):
        serialize.dumps(doc)


# json.dumps with an indent left a cycle per call through its pure-Python
# encoder's closures (33 objects each on Python 3.11).
def test_dumps_leaves_no_reference_cycle():
    doc = serialize.instance_to_doc(gen_table1_example())
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            serialize.dumps(doc)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_allocation_round_trip():
    doc = serialize.allocation_to_doc((0b101, 0b010))
    assert doc == {"bundles": [[0, 2], [1]]}
    assert serialize.allocation_from_doc(doc, 3) == (0b101, 0b010)


def test_item_value_classes_stay_distinct():
    # Additive and PairDemand share their per-item base, but neither is the
    # other: the serializer looks each class up by its exact type.
    values = ["1/2", 3, 0]
    add, pair = Additive.of(values), PairDemand.of(values)
    assert add != pair and add.values == pair.values
    assert not isinstance(add, PairDemand) and not isinstance(pair, Additive)
    assert repr(add).startswith("Additive(values=") and repr(pair).startswith("PairDemand(")
    assert serialize.valuation_to_doc(add) == {"type": "additive", "values": ["1/2", 3, 0]}
    assert serialize.valuation_to_doc(pair) == {"type": "pair_demand", "values": ["1/2", 3, 0]}


def test_unlisted_valuation_class_is_not_serialized():
    # Written as "additive", a subclass would load back as an Additive,
    # which the subclass does not equal.
    class Doubled(Additive):
        pass

    v = Doubled.of([1, 2])
    assert v != Additive.of([1, 2])
    with pytest.raises(TypeError, match="cannot serialize valuation of type Doubled"):
        serialize.valuation_to_doc(v)


@pytest.mark.parametrize("load,doc,message", [
    (serialize.instance_from_doc, {"n": 1, "m": 1, "valuations": [1]},
     "valuation must be an object, got int"),
    (lambda doc: serialize.allocation_from_doc(doc, 3), [[0, 2], [1]],
     "allocation must be an object, got list"),
], ids=["valuation", "allocation"])
def test_non_object_is_named(load, doc, message):
    with pytest.raises(TypeError, match=message):
        load(doc)


# An instance's tables are capped together, as the generators cap them,
# before any is built: its n tables over m items hold at most 2^20 entries.
@pytest.mark.parametrize("vdoc,kind", [
    ({"type": "binary_table", "m": 15, "ones": []}, "binary"),
    ({"type": "table", "table": [0] * (1 << 15)}, "explicit"),
], ids=["binary", "explicit"])
def test_instance_tables_over_the_entry_cap_are_refused(vdoc, kind):
    with pytest.raises(ValueError) as err:
        serialize.instance_from_doc({"n": 33, "m": 15, "valuations": [vdoc] * 33})
    assert str(err.value) == f"33 {kind} tables over 15 items exceed the cap of 1048576 entries"
    if kind == "binary":  # 32 of them, 2^20 entries, load (unscanned: a scan takes 0.1 s)
        doc = {"n": 32, "m": 15, "valuations": [vdoc] * 32, "flags": {"monotone_required": False}}
        assert serialize.instance_from_doc(doc).n == 32


# ---------------------------------------------------------------------------
# fuzzing the document loaders through the CLI


def _round_robin(n, m):
    return tuple(sum(1 << g for g in range(i, m, n)) for i in range(n))


# (instance document, allocation document) pairs from the generators, small
# enough that each command finishes or trips the budget at once
SEEDS = [
    (serialize.instance_to_doc(inst), serialize.allocation_to_doc(_round_robin(inst.n, inst.m)))
    for inst in (random_bivalued(2, 4, 1), random_pair_demand(2, 4, 1),
                 random_additive(3, 4, 1), random_binary_mms_feasible(2, 3, 1),
                 gen_mnw_counterexample(), gen_pmms_not_efx_example())
]

FUZZ_COMMANDS = [
    *(["check", "--notion", notion, "--alloc", "{alloc}"]
      for notion in ("efx", "efx+", "pmms", "mms")),
    *(["solve", "--algo", algo] for algo in ("maf", "ccg", "rrr")),
    *(["verify", "--claim", claim] for claim in ("no-pmms", "mms-exists", "efx-exists",
                                                 "mnw-not-efx", "triangle-free", "mms-feasible")),
    ["export-graph", "--kind", "compat"],
    ["export-graph", "--kind", "ccg", "--alloc", "{alloc}", "--agent", "0"],
]

# int("9" * 4000) is near the 4300 digits Python will parse and print
REPLACEMENTS = [True, False, None, 0, 1, -1, 2.0, 0.5, "1/0", "3/2", "x", [], {}, [0], [True],
                MAX_ITEMS + 1, 10**12, int("9" * 4000)]


def _paths(doc, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    keys = doc if isinstance(doc, dict) else range(len(doc)) if isinstance(doc, list) else ()
    for key in keys:
        yield from _paths(doc[key], path + (key,))


@st.composite
def mutants(draw):
    """An (instance, allocation) pair with one to three positions of one of
    them deleted or replaced: types swapped, ints as bools or floats or out
    of range, m huge."""
    docs = copy.deepcopy(list(draw(st.sampled_from(SEEDS))))
    target = draw(st.sampled_from([0, 1]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(docs[target]))))
        new = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS + ["delete"])))
        if not path:
            docs[target] = docs[target] if new == "delete" else new
            continue
        parent = docs[target]
        for key in path[:-1]:
            parent = parent[key]
        if new == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return docs


def _reloaded(text, from_doc, to_doc):
    return serialize.dumps(to_doc(from_doc(serialize.loads(text))))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Every command either answers (0 or 1) or refuses with one error line (2
# or 3), and whatever loads reaches a fixed point after one load-dump cycle.
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(mutants(), st.sampled_from(FUZZ_COMMANDS))
def test_fuzzed_documents_exit_cleanly(fuzz_dir, docs, command):
    paths = {}
    for name, doc in zip(("inst", "alloc"), docs):
        paths[name] = str(fuzz_dir / f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(json.dumps(doc))
    argv = [arg.format(**paths) for arg in command] + ["--in", paths["inst"]]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"FAIRDIV_BUDGET": "64"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert err == ""
    try:
        inst = serialize.instance_from_doc(docs[0])
    except (KeyError, TypeError, ValueError):
        return
    text = serialize.dumps(serialize.instance_to_doc(inst))
    assert _reloaded(text, serialize.instance_from_doc, serialize.instance_to_doc) == text
    try:
        bundles = serialize.allocation_from_doc(docs[1], inst.m)
    except (KeyError, TypeError, ValueError):
        return
    text = serialize.dumps(serialize.allocation_to_doc(bundles))
    assert _reloaded(text, lambda doc: serialize.allocation_from_doc(doc, inst.m),
                     serialize.allocation_to_doc) == text
