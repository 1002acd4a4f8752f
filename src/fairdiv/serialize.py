"""JSON round-tripping for instances, allocations and rationals.

Rationals serialize as ints when integral, else as "p/q" strings; floats
are rejected in both directions so no value is ever rounded. Counts,
item indices and binary-table masks must be JSON integers: a float or a
bool is refused, not truncated or read as 0/1. Flags must be JSON booleans,
and every list (values, tables, masks, items, valuations, bundles, labels)
a JSON list, so no value is read by its truthiness, split into characters
or taken from an object's keys. An item index is checked against the item
count before its bit is set.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence, Union

from .core import (
    Additive,
    BinaryTable,
    ExplicitTable,
    Instance,
    PairDemand,
    PersonalizedBivalued,
    Valuation,
    as_fraction,
    items_of,
)

JsonRational = Union[int, str]


def rational_to_json(x: Fraction) -> JsonRational:
    x = as_fraction(x)
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def _int(x, what: str) -> int:
    if type(x) is not int:  # bool is a subclass of int
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


def _bool(x, what: str) -> bool:
    if type(x) is not bool:
        raise TypeError(f"{what} must be true or false, got {x!r}")
    return x


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _list(x, what: str) -> list:
    if type(x) is not list:
        raise TypeError(f"{what} must be a JSON list, got {type(x).__name__}")
    return x


def _mask(items, m: int, what: str) -> int:
    """The mask of a list of item indices, each checked to lie in 0..m-1."""
    out = 0
    for g in _list(items, what):
        if not 0 <= _int(g, "item index") < m:
            raise ValueError(f"{what} names item {g}, outside 0..{m - 1}")
        out |= 1 << g
    return out


def rational_from_json(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"expected int or 'p/q' string, got {x!r}")
    return as_fraction(x)


def valuation_to_doc(v: Valuation) -> dict:
    if isinstance(v, PersonalizedBivalued):
        return {
            "type": "personalized_bivalued",
            "a": rational_to_json(v.a),
            "b": rational_to_json(v.b),
            "high_items": sorted(items_of(v.high_items)),
            "m": v.m,
        }
    if isinstance(v, Additive):
        return {"type": "additive", "values": [rational_to_json(x) for x in v.values]}
    if isinstance(v, PairDemand):
        return {"type": "pair_demand", "values": [rational_to_json(x) for x in v.values]}
    if isinstance(v, BinaryTable):
        return {"type": "binary_table", "m": v.m, "ones": sorted(v.ones)}
    if isinstance(v, ExplicitTable):
        return {"type": "table", "table": [rational_to_json(x) for x in v.table]}
    raise TypeError(f"cannot serialize valuation of type {type(v).__name__}")


def valuation_from_doc(doc: dict) -> Valuation:
    kind = doc["type"]
    if kind == "additive":
        return Additive.of([rational_from_json(x) for x in _list(doc["values"], "values")])
    if kind == "personalized_bivalued":
        m = _int(doc["m"], "m")
        return PersonalizedBivalued(
            rational_from_json(doc["a"]),
            rational_from_json(doc["b"]),
            _mask(doc["high_items"], m, "high_items"),
            m,
        )
    if kind == "pair_demand":
        return PairDemand.of([rational_from_json(x) for x in _list(doc["values"], "values")])
    if kind == "binary_table":
        ones = _list(doc["ones"], "ones")
        if not all(type(mask) is int for mask in ones):
            raise TypeError("binary_table ones must be integer masks")
        return BinaryTable(_int(doc["m"], "m"), frozenset(ones))
    if kind == "table":
        return ExplicitTable.of([rational_from_json(x) for x in _list(doc["table"], "table")])
    raise ValueError(f"unknown valuation type: {kind}")


def instance_to_doc(inst: Instance) -> dict:
    doc = {
        "n": inst.n,
        "m": inst.m,
        "valuations": [valuation_to_doc(v) for v in inst.valuations],
        "flags": {
            "monotone_required": inst.monotone_required,
            "normalized_required": inst.normalized_required,
        },
    }
    if inst.labels is not None:
        doc["labels"] = list(inst.labels)
    return doc


def instance_from_doc(doc: dict) -> Instance:
    flags = _object(_object(doc, "instance").get("flags", {}), "flags")
    labels = doc.get("labels")
    if labels is not None and not all(type(x) is str for x in _list(labels, "labels")):
        raise TypeError(f"labels must be a list of strings, got {labels!r}")
    return Instance(
        n=_int(doc["n"], "n"),
        m=_int(doc["m"], "m"),
        valuations=tuple(valuation_from_doc(d) for d in _list(doc["valuations"], "valuations")),
        monotone_required=_bool(flags.get("monotone_required", True), "monotone_required"),
        normalized_required=_bool(flags.get("normalized_required", True),
                                  "normalized_required"),
        labels=None if labels is None else tuple(labels),
    )


def allocation_to_doc(bundles: Sequence[int]) -> dict:
    return {"bundles": [sorted(items_of(mask)) for mask in bundles]}


def allocation_from_doc(doc: dict, m: int) -> tuple[int, ...]:
    """The bundle masks of an allocation document over m items."""
    return tuple(_mask(items, m, "bundle") for items in _list(doc["bundles"], "bundles"))


def dumps(doc: dict) -> str:
    """Canonical serialization: sorted keys, stable spacing, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)
