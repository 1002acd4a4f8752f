"""Domain model: bundles, valuations, instances and allocations.

Bundles are plain ints used as bitmasks over item indices ``0..m-1``.
All arithmetic is exact; fairness verdicts are equality-sensitive, so
floats are never used. Each valuation is scaled to integers once, at
construction: ``_value(mask)`` returns v(S) * ``scale`` as an ``int``, and
``value(mask)`` is the only place a ``Fraction`` is built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence, Union

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


def _scaled(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the LCM of the values' denominators, and each value
    times it."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in values)


@dataclass(frozen=True)
class Valuation:
    """Base class. Subclasses answer ``value(bundle)`` for bitmask bundles.

    Every subclass sets ``scale`` in ``__post_init__`` and implements
    ``_value(mask)``, which returns v(S) * ``scale`` as an int;
    both table classes inherit it from ``_Table``, one 2^m sequence.
    Comparisons within one valuation can use ``_value`` directly, because
    scaling by a positive constant preserves order and equality.
    Equality and the hash are the ones ``@dataclass`` generates from the
    public fields; ``scale`` and the scaled integers take no part.
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

    scale: int = field(init=False, repr=False, compare=False)
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


@dataclass(frozen=True)
class _ItemValues(Valuation):
    """A valuation given by one non-negative value per item. Subclasses
    define only how a bundle combines them; they inherit the dataclass
    ``__init__``, ``__eq__`` (same class only) and ``repr``."""

    values: tuple[Fraction, ...]
    _monotone = True  # a bundle's value combines non-negative item values

    def __post_init__(self) -> None:
        values = tuple(as_fraction(x) for x in self.values)
        object.__setattr__(self, "values", values)
        scale, ints = _scaled(values)
        if min(ints, default=0) < 0:  # the sign survives the positive scale
            raise ValueError("item values must be non-negative")
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def of(cls, values: Sequence[RationalLike]):
        return cls(tuple(values))

    @property
    def num_items(self) -> int:
        return len(self.values)

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


@dataclass(frozen=True)
class PersonalizedBivalued(Valuation):
    """Additive valuation with per-agent values a > b >= 0.

    Items in ``high_items`` are worth ``a``, the rest ``b``.
    """

    a: Fraction
    b: Fraction
    high_items: int
    m: int
    _monotone = True  # a sum of item values a > b >= 0

    def __post_init__(self) -> None:
        a, b = as_fraction(self.a), as_fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # inline, not _scaled: on Python 3.11 its two comprehensions add about
        # 0.6 us a valuation, 3-5% of a maf-scale pass, which builds one per agent
        scale = math.lcm(a.denominator, b.denominator)
        a, b = a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator)
        if not (a > b >= 0):  # on the scaled ints: the scale is positive
            raise ValueError("personalized bivalued requires a > b >= 0")
        if self.high_items >> self.m:
            raise InvalidBundleError("high_items addresses items outside 0..m-1")
        object.__setattr__(self, "_a", a)  # a * scale
        object.__setattr__(self, "_b", b)  # b * scale
        object.__setattr__(self, "scale", scale)

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
        # Only the four largest items x1 >= x2 >= x3 >= x4 matter: the best
        # split pairs x1 with x4 against x2 with x3.
        ints = self._ints
        x1, x2, x3, x4 = (sorted((ints[g] for g in items_of(S)), reverse=True) + [0] * 4)[:4]
        return min(x1 + x4, x2 + x3)


class _Table(Valuation):
    """A set function stored as one scaled value per bundle mask:
    ``_cells[S]`` is v(S) * ``scale``, a tuple of ints for ``ExplicitTable``
    and 2^m bytes for ``BinaryTable``, each built from its public fields."""

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


def _bit_planes(cells) -> tuple[int, int]:
    """(P, w): a table's 2^m values as w bit planes stacked in one int.
    Plane b, the bits from b * 2^m, is the bitset (bit S for mask S) of
    the masks whose value's rank among the distinct values has bit b set;
    a binary table's values are their own one plane. Each plane is built
    as one ASCII digit per mask, reversed and read as a base-2 int."""
    if isinstance(cells, bytes):  # a BinaryTable: 0 or 1 at every mask
        return int(cells.translate(bytes.maketrans(b"\0\1", b"01"))[::-1], 2), 1
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


@dataclass(frozen=True)
class ExplicitTable(_Table):
    """Arbitrary set function stored as a 2^m table indexed by bundle mask."""

    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(as_fraction(x) for x in self.table))
        size = len(self.table)
        if size == 0 or size & (size - 1):
            raise ValueError("table length must be a power of two")
        require_table_items(size.bit_length() - 1, "explicit")
        scale, cells = _scaled(self.table)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def of(cls, table: Sequence[RationalLike]) -> "ExplicitTable":
        return cls(tuple(table))


@dataclass(frozen=True)
class BinaryTable(_Table):
    """Binary-valued set function: v(S) in {0, 1}, not necessarily monotone
    or normalized. ``ones`` is the set of bundle masks with value 1; the
    values are held as 2^m bytes, whatever the density of ``ones``."""

    m: int
    ones: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ones", frozenset(self.ones))
        require_table_items(self.m, "binary")
        if self.ones and (min(self.ones) < 0 or max(self.ones) >> self.m):
            raise InvalidBundleError("ones contains a mask outside the item range")
        cells = bytearray(1 << self.m)
        for mask in self.ones:
            cells[mask] = 1
        object.__setattr__(self, "_cells", bytes(cells))
        object.__setattr__(self, "scale", 1)


def is_monotone(v: Valuation) -> bool:
    """Whether S subset-of T => v(S) <= v(T) is known: by construction for
    the item-value classes; a table is scanned once, on first use, and keeps
    the answer, so validation and ``mu`` share one scan."""
    return v._monotone


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m items, one valuation per agent."""

    n: int
    m: int
    valuations: tuple[Valuation, ...]
    monotone_required: bool = True
    normalized_required: bool = True
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "valuations", tuple(self.valuations))
        if self.n < 1:
            raise ValueError("need at least one agent")
        if len(self.valuations) != self.n:
            raise ValueError("need exactly one valuation per agent")
        for v in self.valuations:
            if v.num_items != self.m:
                raise ValueError("all valuations must address exactly m items")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.m:
                raise ValueError("need exactly one label per item")
        if self.normalized_required:
            for i, v in enumerate(self.valuations):
                if v._value(0) != 0:
                    raise ValueError(f"valuation of agent {i} is not normalized")
        if self.monotone_required:
            for i, v in enumerate(self.valuations):
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
