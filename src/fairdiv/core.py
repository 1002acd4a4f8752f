"""Domain model: bundles, valuations, instances and allocations.

Bundles are plain ints used as bitmasks over item indices ``0..m-1``.
All arithmetic is exact; fairness verdicts are equality-sensitive, so
floats are never used. Each valuation is scaled to integers once, at
construction, and keeps only those: ``_value(mask)`` returns v(S) *
``scale`` as an ``int``. An all-``int`` input is kept as it is, with
``scale`` 1, and builds no ``Fraction``; a ``Fraction`` is built by
``value(mask)``, and by the public rational fields (``values``, ``table``,
``a``, ``b``) on their first read.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]

#: Table-backed valuations materialize 2^m entries; generators enforce these
#: caps, on one table and on all n of an instance's tables together, through
#: ``require_table_items`` before they build any entry.
MAX_TABLE_ITEMS = 24
MAX_TABLE_ENTRIES = 1 << 20
#: A bivalued document carries no table, so nothing else bounds its item
#: count; documents and generators refuse an m past this cap, and
#: generators an n, through ``require_count`` before any mask is built or
#: any value drawn.
MAX_ITEMS = 1 << 16


class InvalidBundleError(ValueError):
    """A bundle mask sets a bit outside the valuation's item range."""


class UnsupportedValuationError(TypeError):
    """An operation was called with a valuation class it does not support."""


def full_mask(m: int) -> int:
    """Bitmask with all m item bits set."""
    return (1 << m) - 1


_WORD = (1 << 64) - 1


def items_of(mask: int) -> Iterator[int]:
    """Yield the item indices of a bundle mask in increasing order. Bits are
    cleared one 64-bit window at a time, so each step touches one window, not
    the whole mask: linear in the mask's length."""
    offset = -1  # the window's first index, less the 1 that bit_length adds
    while mask > _WORD:
        word = mask & _WORD
        mask >>= 64
        while word:
            low = word & -word
            yield low.bit_length() + offset
            word ^= low
        offset += 64
    while mask:  # the top window
        low = mask & -mask
        yield low.bit_length() + offset
        mask ^= low


def mask_of(items: Sequence[int]) -> int:
    out = 0
    for g in items:
        out |= 1 << g
    return out


def as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if "/" in x:
            num, den = map(int, x.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator in {x!r}")
            return Fraction(num, den)
        return Fraction(int(x))
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass int, Fraction or 'p/q'")
    return Fraction(x)


def require_table_items(m: int, kind: str, n: int = 0) -> None:
    """Raise the cap error for a table over m items, or for n such tables,
    before any is built."""
    if m > MAX_TABLE_ITEMS:
        raise ValueError(f"{kind} tables are capped at {MAX_TABLE_ITEMS} items")
    if n << m > MAX_TABLE_ENTRIES:
        raise ValueError(f"{n} {kind} tables over {m} items exceed the cap of "
                         f"{MAX_TABLE_ENTRIES} entries")


def require_count(name: str, x: int, low: int = 0) -> None:
    """Raise unless the count called name, x, is in low..MAX_ITEMS."""
    if not low <= x <= MAX_ITEMS:
        raise ValueError(f"{name} must be in {low}..{MAX_ITEMS}, got {x}")


class FairnessNotion(Enum):
    EFX = "efx"
    EFX_POSITIVE = "efx+"
    PMMS = "pmms"
    MMS = "mms"


def _scaled(xs: Sequence[RationalLike]) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the LCM of the values' denominators, and each value
    times it. Values that are all exactly ``int`` (a bool is not) are
    returned as they are, with scale 1 and no ``Fraction`` built."""
    xs = tuple(xs)
    if set(map(type, xs)) <= {int}:
        return 1, xs
    values = tuple(map(as_fraction, xs))
    scale = math.lcm(*(x.denominator for x in values))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in values)


class _Frozen:
    """Read-only fields, set once by ``__init__`` through ``__dict__``.
    ``_FIELDS`` names the constructor's arguments in order, for ``repr``
    and the documents; equality (same class only) and the hash compare
    ``_key()``, by default those fields."""

    _FIELDS: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"


class Valuation(_Frozen):
    """Base class. Subclasses answer ``value(bundle)`` for bitmask bundles.

    Every subclass sets ``scale`` in ``__init__`` and implements
    ``_value(mask)``, which returns v(S) * ``scale`` as an int;
    both table classes inherit it from ``_Table``, one 2^m sequence.
    Comparisons within one valuation can use ``_value`` directly, because
    scaling by a positive constant preserves order and equality.
    Equality and the hash compare ``scale`` and the scaled integers, which
    the values fix, so two spellings of the same values are equal.
    A class whose structure gives the PMMS share in closed form overrides
    ``_share2(S)`` to return mu(v, S, 2) * ``scale``; under the base's
    ``_share2 = None``, S's 2^|S| splits are enumerated and charged.
    Likewise a class overrides ``_drop1(S)``, for nonempty S, to return
    the largest v(S \\ {g}) over g in S, times ``scale``; under the base's
    ``_drop1 = None``, the EFX test removes S's items one by one.
    ``_monotone`` is whether v is known to be monotone (S within T implies
    v(S) <= v(T)): True by construction for the item-value classes, a
    table's own scan for the tables, and False, not known, from the base.
    ``_item_classes()`` returns one label per item: two items get equal
    labels exactly when they are interchangeable, that is, swapping them
    leaves v(S) unchanged for every S. Under the base's
    ``_item_classes = None`` no two items are known to be interchangeable.
    """

    _share2 = None
    _drop1 = None
    _item_classes = None
    _monotone = False

    @property
    def num_items(self) -> int:
        raise NotImplementedError

    def _value(self, mask: int) -> int:
        raise NotImplementedError

    def value(self, mask: int) -> Fraction:
        if mask < 0 or mask >> self.num_items:
            raise InvalidBundleError(
                f"bundle {bin(mask)} addresses items outside 0..{self.num_items - 1}"
            )
        return Fraction(self._value(mask), self.scale)

    def is_additive(self) -> bool:
        return False


class _ItemValues(Valuation):
    """A valuation given by one non-negative value per item. Subclasses
    define only how a bundle combines them; they inherit ``__init__``,
    ``__eq__`` (same class only) and ``repr``."""

    _FIELDS = ("values",)
    _monotone = True  # a bundle's value combines non-negative item values

    def __init__(self, values: Sequence[RationalLike]) -> None:
        scale, ints = _scaled(values)
        if min(ints, default=0) < 0:  # the sign survives the positive scale
            raise ValueError("item values must be non-negative")
        fields = self.__dict__
        fields["_ints"] = ints
        fields["scale"] = scale

    def _key(self) -> tuple:
        return self.scale, self._ints

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        scale = self.scale
        return tuple(Fraction(x, scale) for x in self._ints)

    @classmethod
    def of(cls, values: Sequence[RationalLike]):
        return cls(tuple(values))

    @property
    def num_items(self) -> int:
        return len(self._ints)

    def _item_classes(self) -> tuple[int, ...]:
        # items of one value are interchangeable, however a bundle combines them
        return self._ints


class Additive(_ItemValues):
    """Additive valuation given by per-item values.

    >>> v = Additive.of([1, 2, 3])
    >>> v.value(0b101)
    Fraction(4, 1)
    """

    def _value(self, mask: int) -> int:
        ints = self._ints
        total = 0
        while mask:
            low = mask & -mask
            total += ints[low.bit_length() - 1]
            mask ^= low
        return total

    def _drop1(self, S: int) -> int:
        # dropping the least valuable item loses the least
        return self._value(S) - min(self._ints[g] for g in items_of(S))

    def is_additive(self) -> bool:
        return True


class PersonalizedBivalued(Valuation):
    """Additive valuation with per-agent values a > b >= 0.

    Items in ``high_items`` are worth ``a``, the rest ``b``.
    """

    _FIELDS = ("a", "b", "high_items", "m")
    _monotone = True  # a sum of item values a > b >= 0

    def __init__(self, a: RationalLike, b: RationalLike, high_items: int, m: int) -> None:
        scale = 1
        if type(a) is not int or type(b) is not int:
            a, b = as_fraction(a), as_fraction(b)
            # inline, not _scaled: on Python 3.11 its two comprehensions add about
            # 0.6 us a valuation, 3-5% of a maf-scale pass, which builds one per agent
            scale = math.lcm(a.denominator, b.denominator)
            a, b = a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator)
        if not (a > b >= 0):  # on the scaled ints: the scale is positive
            raise ValueError("personalized bivalued requires a > b >= 0")
        if high_items >> m:
            raise InvalidBundleError("high_items addresses items outside 0..m-1")
        fields = self.__dict__
        fields["high_items"] = high_items
        fields["m"] = m
        fields["_a"] = a  # a * scale
        fields["_b"] = b  # b * scale
        fields["scale"] = scale

    def _key(self) -> tuple:
        return self.scale, self._a, self._b, self.high_items, self.m

    @cached_property
    def a(self) -> Fraction:
        return Fraction(self._a, self.scale)

    @cached_property
    def b(self) -> Fraction:
        return Fraction(self._b, self.scale)

    @property
    def num_items(self) -> int:
        return self.m

    def _item_classes(self) -> tuple[int, ...]:
        # two high or two low items are interchangeable
        return tuple(self.high_items >> g & 1 for g in range(self.m))

    def is_factored(self) -> bool:
        """True iff b = 0 or a is an integer multiple of b."""
        return self._b == 0 or self._a % self._b == 0

    def _value(self, mask: int) -> int:
        high = (mask & self.high_items).bit_count()
        return self._a * high + self._b * (mask.bit_count() - high)

    def is_additive(self) -> bool:
        return True

    def _drop1(self, S: int) -> int:
        # dropping a low item, if S has one, loses b <= a
        return self._value(S) - (self._b if S & ~self.high_items else self._a)

    def _share2(self, S: int) -> int:
        # x high and y low items on one side
        a, b = self._a, self._b
        h = (S & self.high_items).bit_count()
        l = S.bit_count() - h
        if not b:
            return a * (h // 2)
        if not a % b:
            # factored: in units of b a side is worth c x + y, and the best
            # side at most half the total takes as many high items as fit,
            # then low items up to half
            c = a // b
            half = (c * h + l) // 2
            x = min(h, half // c)
            return b * (c * x + min(l, half - c * x))
        # For each x the best y is the floor of the balance point
        # (a(h - 2x) + b l) / 2b, clipped to 0..l; its ceiling is the floor
        # for h - x with the sides swapped.
        best = 0
        for x in range(h + 1):
            y = min(max((a * (h - 2 * x) + b * l) // (2 * b), 0), l)
            best = max(best, min(a * x + b * y, a * (h - x) + b * (l - y)))
        return best


class PairDemand(_ItemValues):
    """Bundle value is the sum of the two highest item values in the bundle."""

    def _value(self, mask: int) -> int:
        ints = self._ints
        best = second = 0
        while mask:
            low = mask & -mask
            x = ints[low.bit_length() - 1]
            mask ^= low
            if x > best:
                best, second = x, best
            elif x > second:
                second = x
        return best + second

    def _drop1(self, S: int) -> int:
        # past two items, dropping one outside the two best changes nothing
        count = S.bit_count()
        if count >= 3:
            return self._value(S)
        return max(self._ints[g] for g in items_of(S)) if count == 2 else 0

    def _share2(self, S: int) -> int:
        # Only the four largest items x1 >= x2 >= x3 >= x4 matter (0 for a
        # missing one): the best split pairs x1 with x4 against x2 with x3.
        # One pass over S keeps them, as _value keeps the top two.
        ints = self._ints
        x1 = x2 = x3 = x4 = 0
        while S:
            low = S & -S
            x = ints[low.bit_length() - 1]
            S ^= low
            if x > x4:
                if x > x2:
                    if x > x1:
                        x1, x2, x3, x4 = x, x1, x2, x3
                    else:
                        x2, x3, x4 = x, x2, x3
                elif x > x3:
                    x3, x4 = x, x3
                else:
                    x4 = x
        return min(x1 + x4, x2 + x3)


class _Table(Valuation):
    """A set function stored as one scaled value per bundle mask:
    ``_cells[S]`` is v(S) * ``scale``, a tuple of ints for ``ExplicitTable``
    and 2^m bytes for ``BinaryTable``, each built by the class's
    ``__init__``. Equality and the hash compare ``scale`` and ``_cells``."""

    def _key(self) -> tuple:
        return self.scale, self._cells

    @property
    def num_items(self) -> int:
        return len(self._cells).bit_length() - 1

    def _value(self, mask: int) -> int:
        return self._cells[mask]

    def _item_classes(self) -> tuple[int, ...]:
        """Each item's label is the lowest item interchangeable with it. A
        swap of g and h maps {g} to {h} and M \\ {g} to M \\ {h}, so items
        are first grouped by those two cells; within a group, each item is
        swap-tested against the lowest item of each class found so far, at
        most m^2 / 2 tests. A test reads the table's bit planes, stacked in
        one int P (``_bit_planes``): g < h are interchangeable when each
        mask S holding g and not h has, in every plane, the bit of
        S - 2^g + 2^h, that is ((P & A) << d) == P & (A << d), where A is
        the bitset of those masks in every plane and d = 2^h - 2^g. So a
        test is a few big-int steps over 2^m bits per plane, and there are
        at most m planes, whatever the number of distinct values; planes
        are built only if some group has two items."""
        cells, m = self._cells, self.num_items
        full = (1 << m) - 1
        planes = without = None  # built for the first test
        labels = list(range(m))
        firsts = {}  # (v({g}), v(M - {g})) -> the lowest item of each class
        for h in range(m):
            reps = firsts.setdefault((cells[1 << h], cells[full ^ 1 << h]), [])
            for g in reps:
                if planes is None:
                    planes, count = _bit_planes(cells)
                    without = _masks_without(m, count)
                A, d = without[h] & ~without[g], (1 << h) - (1 << g)
                if (planes & A) << d == planes & (A << d):
                    labels[h] = g
                    break
            else:
                reps.append(h)
        return tuple(labels)

    @cached_property
    def _monotone(self) -> bool:
        """Scanned on first use and kept, outside equality, hash and repr:
        no cell is above the cell of its mask plus one item."""
        cells = self._cells
        return not any(cells[S] > cells[S | 1 << g] for g in range(self.num_items)
                       for S in range(len(cells)) if not S >> g & 1)


# a BinaryTable's cell bytes to and from ASCII binary digits
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bit_planes(cells) -> tuple[int, int]:
    """(P, w): a table's 2^m values as w bit planes stacked in one int.
    Plane b, the bits from b * 2^m, is the bitset (bit S for mask S) of
    the masks whose value's rank among the distinct values has bit b set;
    a binary table's values are their own one plane. Each plane is built
    as one ASCII digit per mask, reversed and read as a base-2 int."""
    if isinstance(cells, bytes):  # a BinaryTable: 0 or 1 at every mask
        return int(cells.translate(_TO_DIGITS)[::-1], 2), 1
    levels = sorted(set(cells))
    count = max(1, (len(levels) - 1).bit_length())
    planes = 0
    for b in range(count):
        digit = {x: 48 + (rank >> b & 1) for rank, x in enumerate(levels)}  # b"0", b"1"
        planes |= int(bytes(map(digit.__getitem__, cells))[::-1], 2) << b * len(cells)
    return planes, count


def _masks_without(m: int, copies: int) -> list[int]:
    """Entry g is the bitset, bit S for mask S < 2^m, of the masks that do
    not hold item g: runs of 2^g masks without g and 2^g with it, repeated
    in each of ``copies`` stacked blocks of 2^m bits. Entry m - 1 is the
    lower half of each block, and each entry splits every run of the one
    after it, as B ^ (B << 2^g) does."""
    without = [0] * m
    bits = sum(1 << (b << m) for b in range(copies)) * ((1 << (1 << m >> 1)) - 1)
    for g in reversed(range(m)):
        without[g] = bits
        bits ^= bits << (1 << g >> 1)
    return without


class ExplicitTable(_Table):
    """Arbitrary set function stored as a 2^m table indexed by bundle mask."""

    _FIELDS = ("table",)

    def __init__(self, table: Sequence[RationalLike]) -> None:
        scale, cells = _scaled(table)
        size = len(cells)
        if size == 0 or size & (size - 1):
            raise ValueError("table length must be a power of two")
        require_table_items(size.bit_length() - 1, "explicit")
        fields = self.__dict__
        fields["_cells"] = cells
        fields["scale"] = scale

    @cached_property
    def table(self) -> tuple[Fraction, ...]:
        scale = self.scale
        return tuple(Fraction(x, scale) for x in self._cells)

    @classmethod
    def of(cls, table: Sequence[RationalLike]) -> "ExplicitTable":
        return cls(tuple(table))


class BinaryTable(_Table):
    """Binary-valued set function: v(S) in {0, 1}, not necessarily monotone
    or normalized, given by ``m`` and ``ones``, the bundle masks with value
    1. Only the values are kept, as 2^m bytes whatever the density of
    ``ones``; ``m`` and ``ones`` are read off them."""

    _FIELDS = ("m", "ones")

    def __init__(self, m: int, ones: Iterable[int]) -> None:
        require_table_items(m, "binary")
        cells = bytearray(1 << m)
        for mask in ones:
            if not 0 <= mask < len(cells):
                raise InvalidBundleError("ones contains a mask outside the item range")
            cells[mask] = 1
        fields = self.__dict__
        fields["_cells"] = bytes(cells)
        fields["scale"] = 1

    @classmethod
    def _from_bits(cls, m: int, bits: int) -> "BinaryTable":
        """The table whose ones are the set bits of ``bits`` (bit S for mask
        S, so ``bits`` < 2^(2^m)), for a caller that has checked m: the
        bits are written as 2^m ASCII digits, reversed and translated to
        the cell bytes, with no loop over the masks."""
        self = cls.__new__(cls)
        fields = self.__dict__
        fields["_cells"] = format(bits, f"0{1 << m}b")[::-1].encode().translate(_FROM_DIGITS)
        fields["scale"] = 1
        return self

    @property
    def m(self) -> int:
        return self.num_items

    @property
    def ones(self) -> frozenset[int]:
        return frozenset(compress(range(len(self._cells)), self._cells))


def is_monotone(v: Valuation) -> bool:
    """Whether S subset-of T => v(S) <= v(T) is known: by construction for
    the item-value classes; a table is scanned once, on first use, and keeps
    the answer, so validation and ``mu`` share one scan."""
    return v._monotone


class Instance(_Frozen):
    """A fair-division instance: n agents, m items, one valuation per agent."""

    _FIELDS = ("n", "m", "valuations", "monotone_required", "normalized_required", "labels")

    def __init__(self, n: int, m: int, valuations: Sequence[Valuation],
                 monotone_required: bool = True, normalized_required: bool = True,
                 labels: Optional[Sequence[str]] = None) -> None:
        valuations = tuple(valuations)
        fields = self.__dict__
        fields.update(n=n, m=m, valuations=valuations, monotone_required=monotone_required,
                      normalized_required=normalized_required, labels=labels)
        if n < 1:
            raise ValueError("need at least one agent")
        if len(valuations) != n:
            raise ValueError("need exactly one valuation per agent")
        for v in valuations:
            if v.num_items != m:
                raise ValueError("all valuations must address exactly m items")
        if labels is not None:
            fields["labels"] = labels = tuple(labels)
            if len(labels) != m:
                raise ValueError("need exactly one label per item")
        if normalized_required:
            for i, v in enumerate(valuations):
                if v._value(0) != 0:
                    raise ValueError(f"valuation of agent {i} is not normalized")
        if monotone_required:
            for i, v in enumerate(valuations):
                # non-table classes are monotone by construction
                if isinstance(v, _Table) and not is_monotone(v):
                    raise ValueError(f"valuation of agent {i} is not monotone")

    @property
    def all_items(self) -> int:
        return full_mask(self.m)


class AllocationViolation(NamedTuple):
    kind: str  # "overlap" | "uncovered" | "out_of_range" | "arity"
    item: Optional[int] = None

    def __str__(self) -> str:
        if self.item is None:
            return self.kind
        return f"{self.kind}(item {self.item})"


def validate_allocation(inst: Instance, bundles: Sequence[int]) -> Optional[AllocationViolation]:
    """Return None if the bundles partition the item set, else a violation."""
    if len(bundles) != inst.n:
        return AllocationViolation("arity")
    seen = 0
    for mask in bundles:
        if mask < 0 or mask >> inst.m:
            item = inst.m + next(items_of(mask >> inst.m)) if mask >= 0 else None
            return AllocationViolation("out_of_range", item)
        if seen & mask:
            return AllocationViolation("overlap", next(items_of(seen & mask)))
        seen |= mask
    if seen != inst.all_items:
        return AllocationViolation("uncovered", next(items_of(inst.all_items & ~seen)))
    return None
