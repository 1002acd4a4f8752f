"""JSON round-tripping for instances, allocations and rationals.

Rationals serialize as ints when integral, else as "p/q" strings; floats
are rejected in both directions so no value is ever rounded. Every other
field must have exactly its JSON type: a float or a bool is refused as a
count, item index or binary-table mask, not truncated or read as 0/1, and
a string or object as a list, so no value is split into characters or
taken from an object's keys. An item index is checked against the item
count, and every item count against ``MAX_ITEMS``, before any bit is
set, and an instance's n tables against the generators' entry cap
before any is built. A valuation's ``type`` names its class, and each of
its fields is read and written by the ``FIELDS`` row of the same name as
the constructor argument (the class's ``_FIELDS``). A rational field is
read with its ints kept as ints and written from the valuation's scaled
integers, so an all-int valuation makes no ``Fraction`` either way.

``dumps`` writes a document's canonical text, the bytes of
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, by one recursive
function of its own: on Python 3.10-3.12, ``json`` encodes with an indent
in pure Python, through closures that leave a reference cycle per call,
at about twice the time. A document holds only dicts with str keys,
lists, tuples, strs, ints, bools and None, each of exactly that type;
anything else, a float included, is refused with ``TypeError``, and an
int too long to print with ``ValueError``. Strings are ASCII-escaped, so
the text is pure ASCII.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import compress
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
    require_count,
    require_table_items,
)

JsonRational = Union[int, str]


def rational_to_json(x: Fraction) -> JsonRational:
    x = as_fraction(x)
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


_JSON_NAMES = {int: "an integer", bool: "a boolean", str: "a string", list: "a list",
               dict: "an object"}


def _json(x, kind: type, what: str):
    """x, if its type is exactly ``kind``: a bool is not an int here."""
    if type(x) is not kind:
        raise TypeError(f"{what} must be {_JSON_NAMES[kind]}, got {type(x).__name__}")
    return x


def _mask(items, m: int, what: str) -> int:
    """The mask of a list of item indices, each checked to lie in 0..m-1."""
    out = 0
    for g in _json(items, list, what):
        if not 0 <= _json(g, int, "item index") < m:
            raise ValueError(f"{what} names item {g}, outside 0..{m - 1}")
        out |= 1 << g
    return out


def rational_from_json(x) -> Fraction:
    if type(x) is int:  # most values; a bool's type is bool
        return Fraction(x)
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"expected int or 'p/q' string, got {x!r}")
    return as_fraction(x)


def _rational(x, name=None, loaded=None):
    """A document's rational as a valuation takes it: an int as itself,
    so an all-int valuation builds no Fraction, anything else through
    ``rational_from_json``."""
    return x if type(x) is int else rational_from_json(x)


def _rationals(x, name: str, loaded=None) -> tuple:
    return tuple(map(_rational, _json(x, list, name)))


def _scaled_to_json(x: int, scale: int) -> JsonRational:
    """x / scale as ``rational_to_json`` writes it, with no Fraction built."""
    if scale == 1:
        return x
    g = math.gcd(x, scale)
    return x // g if g == scale else f"{x // g}/{scale // g}"


def _all_to_json(xs: Sequence[int], scale: int) -> list:
    if scale == 1:
        return list(xs)
    return [_scaled_to_json(x, scale) for x in xs]


def _item_count(x, name: str = "m", loaded=None) -> int:
    """The loader of every m, the instance's and each valuation's."""
    require_count(name, _json(x, int, name))
    return x


# document field → (load(json value, field name, fields loaded so far),
# dump(valuation)). Fields load in this order, so a valuation's m is known
# before its high_items. A rational field is written from the valuation's
# scaled integers.
FIELDS = {
    "m": (_item_count, lambda v: int(v.m)),
    "values": (_rationals, lambda v: _all_to_json(v._ints, v.scale)),
    "table": (_rationals, lambda v: _all_to_json(v._cells, v.scale)),
    "a": (_rational, lambda v: _scaled_to_json(v._a, v.scale)),
    "b": (_rational, lambda v: _scaled_to_json(v._b, v.scale)),
    "high_items": (lambda x, name, loaded: _mask(x, loaded["m"], name),
                   lambda v: list(items_of(v.high_items))),
    "ones": (lambda x, name, loaded: (_json(mask, int, "ones mask")
                                      for mask in _json(x, list, name)),
             lambda v: list(compress(range(len(v._cells)), v._cells))),  # ascending
}

# document type → valuation class
TYPES = {
    "additive": Additive,
    "personalized_bivalued": PersonalizedBivalued,
    "pair_demand": PairDemand,
    "binary_table": BinaryTable,
    "table": ExplicitTable,
}
_KINDS = {cls: kind for kind, cls in TYPES.items()}
# each class's document fields, its constructor's, in FIELDS order
_FIELD_NAMES = {cls: tuple(name for name in FIELDS if name in cls._FIELDS)
                for cls in TYPES.values()}


def valuation_to_doc(v: Valuation) -> dict:
    cls = type(v)
    if cls not in _KINDS:
        raise TypeError(f"cannot serialize valuation of type {cls.__name__}")
    return {"type": _KINDS[cls], **{name: FIELDS[name][1](v) for name in _FIELD_NAMES[cls]}}


def valuation_from_doc(doc: dict, n: int = 0) -> Valuation:
    """The valuation of a document. A table is refused before it is built
    when n tables like it, an instance's, would pass the entry cap
    (``require_table_items``), as the generators refuse them."""
    kind = _json(_json(doc, dict, "valuation")["type"], str, "valuation type")
    if kind not in TYPES:
        raise ValueError(f"unknown valuation type: {kind}")
    cls = TYPES[kind]
    if cls is BinaryTable:
        require_table_items(_item_count(doc["m"]), "binary", n)
    elif cls is ExplicitTable:  # log2 of the table's length, when that is a power of 2
        require_table_items((len(_json(doc["table"], list, "table")) >> 1).bit_length(),
                            "explicit", n)
    loaded = {}
    for name in _FIELD_NAMES[cls]:
        loaded[name] = FIELDS[name][0](doc[name], name, loaded)
    return cls(**loaded)


_FLAGS = ("monotone_required", "normalized_required")


def instance_to_doc(inst: Instance) -> dict:
    doc = {
        "n": inst.n,
        "m": inst.m,
        "valuations": [valuation_to_doc(v) for v in inst.valuations],
        "flags": {flag: getattr(inst, flag) for flag in _FLAGS},
    }
    if inst.labels is not None:
        doc["labels"] = list(inst.labels)
    return doc


def instance_from_doc(doc: dict) -> Instance:
    flags = _json(_json(doc, dict, "instance").get("flags", {}), dict, "flags")
    labels = doc.get("labels")
    if labels is not None:
        labels = tuple(_json(x, str, "label") for x in _json(labels, list, "labels"))
    n = _json(doc["n"], int, "n")
    return Instance(
        n=n,
        m=_item_count(doc["m"]),
        valuations=tuple(valuation_from_doc(v, n)
                         for v in _json(doc["valuations"], list, "valuations")),
        **{flag: _json(flags.get(flag, True), bool, flag) for flag in _FLAGS},
        labels=labels,
    )


def allocation_to_doc(bundles: Sequence[int]) -> dict:
    return {"bundles": [list(items_of(mask)) for mask in bundles]}


def allocation_from_doc(doc: dict, m: int) -> tuple[int, ...]:
    """The bundle masks of an allocation document over m items."""
    bundles = _json(_json(doc, dict, "allocation")["bundles"], list, "bundles")
    return tuple(_mask(items, m, "bundle") for items in bundles)


_quote = json.encoder.encode_basestring_ascii


def _text(x, newline: str) -> str:
    """x's canonical text, for x on a line that starts with ``newline``, a
    newline and that line's indent. At module level, not a closure, so a
    call leaves no reference cycle."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)  # ValueError past sys.get_int_max_str_digits()
    if t is dict:
        if not x:
            return "{}"
        inner = newline + "  "
        return ("{" + inner
                + ("," + inner).join([_quote(k) + ": " + _text(x[k], inner) for k in sorted(x)])
                + newline + "}")  # _quote refuses a non-str key
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = newline + "  "
        for e in x:
            if type(e) is not int:  # a bool is not printed as an int
                return ("[" + inner + ("," + inner).join([_text(e, inner) for e in x])
                        + newline + "]")
        return "[" + inner + ("," + inner).join(map(int.__repr__, x)) + newline + "]"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    raise TypeError(f"a document cannot hold values of type {t.__name__}")


def dumps(doc: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, ASCII,
    trailing newline (see the module docstring)."""
    return _text(doc, "\n") + "\n"


def loads(text: str) -> dict:
    return json.loads(text)
