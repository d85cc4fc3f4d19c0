"""Finite ground sets, events as bit-vectors, and permutations.

Every other module evaluates set functions on the full power set of a
small finite space, so events are stored as integer bitmasks indexed by
the position of each label in the space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ._exact import shown, too_long_message, unprintable
from .errors import SpaceMismatchError, SpaceSizeError, ValidationError

#: Hard cap on the number of elements, so that full 2^n enumeration
#: stays tractable for the exhaustive checks used throughout.
MAX_ELEMENTS = 24


@dataclass(frozen=True)
class FiniteSpace:
    """An ordered ground set of distinct element labels."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValidationError("a finite space needs at least one element")
        if len(labels) > MAX_ELEMENTS:
            raise SpaceSizeError(
                f"space has {len(labels)} elements, maximum is {MAX_ELEMENTS}"
            )
        if not all(isinstance(lab, str) and lab for lab in labels):
            raise ValidationError("element labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"element labels must be distinct: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown element label {label!r}") from None

    def event(self, labels: Iterable[str]) -> Event:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return Event(self, mask)

    def singleton(self, i: int) -> Event:
        return Event(self, 1 << i)

    @property
    def empty(self) -> Event:
        return Event(self, 0)

    @property
    def full(self) -> Event:
        return Event(self, (1 << self.size) - 1)


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """A subset of a finite space, stored as an n-bit mask."""

    space: FiniteSpace
    mask: int

    def __init__(self, space: FiniteSpace, mask: int):
        # _in_range's test, inline: calling it for every event costs more
        # than the rest of the constructor
        if mask < 0 or mask >> len(space.labels):
            _in_range(space, mask)
        # the slots' own setters: the frozen ``__setattr__`` refuses them
        _set_space(self, space)
        _set_mask(self, mask)

    def _check_space(self, other: Event) -> None:
        _same_space(self.space, other.space, "events live on different spaces")

    def __or__(self, other: Event) -> Event:
        self._check_space(other)
        return Event(self.space, self.mask | other.mask)

    def __and__(self, other: Event) -> Event:
        self._check_space(other)
        return Event(self.space, self.mask & other.mask)

    def __sub__(self, other: Event) -> Event:
        self._check_space(other)
        return Event(self.space, self.mask & ~other.mask)

    def complement(self) -> Event:
        return Event(self.space, self.mask ^ ((1 << self.space.size) - 1))

    def issubset(self, other: Event) -> bool:
        self._check_space(other)
        return self.mask & ~other.mask == 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.space.size) - 1

    def indices(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.labels[i] for i in self.indices())

    def __repr__(self) -> str:
        return "{" + ",".join(self.labels) + "}"


_set_space = Event.space.__set__
_set_mask = Event.mask.__set__


def _in_range(space: FiniteSpace, mask: int) -> int:
    """``mask``, unless it has a bit outside ``space``: ``ValidationError``."""
    if mask < 0 or mask >> space.size:
        raise ValidationError(
            f"bitmask {mask:#x} has positions outside the {space.size}-element space"
        )
    return mask


def _same_space(space: FiniteSpace, other: FiniteSpace, what: str) -> None:
    """Raise ``SpaceMismatchError`` unless ``other`` is (equal to) ``space``."""
    if other is not space and other != space:
        raise SpaceMismatchError(f"{what}: {space.labels} vs {other.labels}")


def _unit_values(space: FiniteSpace, values: Iterable, what: str) -> tuple[Fraction, ...]:
    """One rational in [0, 1] per element of ``space``; ``Fraction``s are
    kept as given."""
    values = tuple(v if type(v) is Fraction else _fraction(v, what) for v in values)
    if len(values) != space.size:
        raise ValidationError(f"expected {space.size} {what}, got {len(values)}")
    for v in values:
        if not 0 <= v.numerator <= v.denominator:  # denominators are positive
            raise ValidationError(f"{what} must lie in [0, 1], got {shown(v)}")
    return values


def _fraction(v, what: str, rule: str = "must lie in [0, 1]") -> Fraction:
    """``Fraction(v)``, where a NaN or infinite float, which has no ratio,
    fails the ``rule`` that the caller holds ``what`` to."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValidationError(f"{what} {rule}, got {v}")
    return Fraction(v)


def _sums_to_one(den: int, nums: Iterable[int], what: str) -> None:
    """Raise ``ValidationError`` unless ``what``, given as numerators
    ``nums`` over ``den > 0``, sum to 1."""
    if (total := sum(nums)) != den:
        total = Fraction(total, den)
        if unprintable(total):
            raise ValidationError(too_long_message())
        raise ValidationError(f"{what} must sum to 1, got {total}")


def _byte_tables(values: Sequence[int], combine=operator.add) -> tuple[tuple, tuple, tuple]:
    """``(t0, t1, t2)``: ``values``, one int per element, combined by byte
    of a mask, so their sum over a mask ``m`` below ``2**MAX_ELEMENTS`` is
    ``t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16]``.

    ``combine`` is the combining step, ``operator.add`` by default; given
    ``operator.or_``, the tables hold unions of bitsets instead, read with
    ``|``.  Either way it must be associative and commutative, with 0 as
    its identity.  Table k has one entry per subset of the elements of
    byte k, 0 for the empty one: 2**8 entries at most, and a single entry
    past the last element."""
    tables = []
    for start in (0, 8, 16):
        table = [0]
        for value in values[start : start + 8]:
            table += [combine(total, value) for total in table]
        tables.append(tuple(table))
    return tuple(tables)


def _mask_of(space: FiniteSpace, key, what: str = "event") -> int:
    """The bitmask of a set-function key: an ``Event`` of ``space`` or an int."""
    if isinstance(key, Event):
        _same_space(space, key.space, f"{what} on a different space")
        return key.mask
    try:
        mask = operator.index(key)
    except TypeError:
        raise ValidationError(f"{what} key {key!r} is neither an Event nor an int") from None
    return _in_range(space, mask)


def enumerate_events(space: FiniteSpace) -> Iterator[Event]:
    """Yield all 2^n events of the space exactly once, in bit-order."""
    for mask in range(1 << space.size):
        yield Event(space, mask)


@dataclass(frozen=True)
class Permutation:
    """A total ordering of the elements of an n-element space.

    ``order[k]`` is the element index placed at rank ``k``.
    """

    order: tuple[int, ...]

    def __init__(self, order: Iterable[int]):
        order = tuple(order)
        if sorted(order) != list(range(len(order))):
            # the tuple as ``str`` writes it, each rational through ``shown``
            entries = [shown(i) if isinstance(i, (int, Fraction)) else repr(i) for i in order]
            shape = "({})" if len(order) != 1 else "({},)"
            raise ValidationError(
                f"not a bijection on 0..{len(order) - 1}: {shape.format(', '.join(entries))}"
            )
        object.__setattr__(self, "order", order)

    @property
    def size(self) -> int:
        return len(self.order)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(range(n))

    @classmethod
    def from_labels(cls, space: FiniteSpace, labels: Iterable[str]) -> Permutation:
        return cls(space.index(lab) for lab in labels)
