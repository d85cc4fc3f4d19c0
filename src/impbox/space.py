"""Finite ground sets, events as bit-vectors, and permutations.

Every other module evaluates set functions on the full power set of a
small finite space, so events are stored as integer bitmasks indexed by
the position of each label in the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
        if any(not lab for lab in labels):
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


@dataclass(frozen=True)
class Event:
    """A subset of a finite space, stored as an n-bit mask."""

    space: FiniteSpace
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.space.size:
            raise ValidationError(
                f"bitmask {self.mask:#x} has positions outside the "
                f"{self.space.size}-element space"
            )

    def _check_space(self, other: Event) -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"events live on different spaces: "
                f"{self.space.labels} vs {other.space.labels}"
            )

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

    def __le__(self, other: Event) -> bool:
        return self.issubset(other)

    def intersects(self, other: Event) -> bool:
        self._check_space(other)
        return self.mask & other.mask != 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.space.size) - 1

    @property
    def size(self) -> int:
        return self.mask.bit_count()

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
            raise ValidationError(f"not a bijection on 0..{len(order) - 1}: {order}")
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

    def first(self) -> int:
        return self.order[0]

    def last(self) -> int:
        return self.order[-1]
