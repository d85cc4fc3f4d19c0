"""Capacities (monotone set functions), conjugates and Möbius transforms.

Set functions are stored as tuples of exact rationals indexed by event
bitmask, so every identity here is checked with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ValidationError
from .space import Event, FiniteSpace


def _as_table(space: FiniteSpace, values, fill: Fraction | None = None) -> tuple[Fraction, ...]:
    n_events = 1 << space.size
    if isinstance(values, Mapping):
        table = [fill] * n_events
        for key, val in values.items():
            mask = key.mask if isinstance(key, Event) else int(key)
            table[mask] = Fraction(val)
        missing = [m for m, v in enumerate(table) if v is None]
        if missing:
            raise ValidationError(
                f"set function must be defined on all {n_events} events, "
                f"missing mask {missing[0]:#b}"
            )
        return tuple(table)
    table = tuple(Fraction(v) for v in values)
    if len(table) != n_events:
        raise ValidationError(
            f"expected {n_events} values (one per event), got {len(table)}"
        )
    return table


@dataclass(frozen=True)
class Capacity:
    """A set function with mu(empty)=0, mu(X)=1, monotone under inclusion."""

    space: FiniteSpace
    values: tuple[Fraction, ...]

    def __call__(self, event: Event) -> Fraction:
        return self.values[event.mask]


@dataclass(frozen=True)
class MobiusAssignment:
    """A signed mass function on events summing to one, with m(empty)=0."""

    space: FiniteSpace
    masses: tuple[Fraction, ...]

    def __call__(self, event: Event) -> Fraction:
        return self.masses[event.mask]


def validate_capacity(space: FiniteSpace, values) -> Capacity:
    """Build a capacity, checking boundary values and monotonicity.

    Monotonicity is checked on all covering pairs A and A+{x}, which is
    equivalent to checking all inclusions.
    """
    table = _as_table(space, values)
    if table[0] != 0:
        raise ValidationError(f"capacity of the empty set must be 0, got {table[0]}")
    full = (1 << space.size) - 1
    if table[full] != 1:
        raise ValidationError(
            f"capacity of the whole space must be 1, got {table[full]}"
        )
    for mask in range(full + 1):
        for i in range(space.size):
            bit = 1 << i
            if mask & bit:
                continue
            if table[mask] > table[mask | bit]:
                small = Event(space, mask)
                big = Event(space, mask | bit)
                raise ValidationError(
                    f"monotonicity violated: mu({small})={table[mask]} > "
                    f"mu({big})={table[mask | bit]}",
                    witness=(small, big),
                )
    return Capacity(space, table)


def capacity_from_probability(space: FiniteSpace, p: Sequence) -> Capacity:
    """The additive capacity of a probability distribution p."""
    p = [Fraction(v) for v in p]
    if len(p) != space.size:
        raise ValidationError("distribution length must match the space size")
    if any(v < 0 for v in p) or sum(p) != 1:
        raise ValidationError("probability distribution must be non-negative and sum to 1")
    table = []
    for mask in range(1 << space.size):
        table.append(sum((p[i] for i in Event(space, mask).indices()), Fraction(0)))
    return Capacity(space, tuple(table))


def conjugate(c: Capacity) -> Capacity:
    """The conjugate capacity: result(E) = 1 - c(complement of E)."""
    full = (1 << c.space.size) - 1
    table = tuple(1 - c.values[full ^ mask] for mask in range(full + 1))
    return Capacity(c.space, table)


def mobius_transform(c: Capacity) -> MobiusAssignment:
    """The (signed) Möbius transform of a capacity.

    Inverse of ``mobius_inverse``: summing the masses over the subsets
    of any event recovers the capacity there.
    """
    table = list(c.values)
    for i in range(c.space.size):
        bit = 1 << i
        for mask in range(len(table)):
            if mask & bit:
                table[mask] -= table[mask ^ bit]
    return MobiusAssignment(c.space, tuple(table))


def mobius_masses(space: FiniteSpace, masses) -> MobiusAssignment:
    """Build a Möbius assignment, checking m(empty)=0 and unit total.

    Mappings may be sparse; events not mentioned carry mass 0.
    """
    table = _as_table(space, masses, fill=Fraction(0))
    if table[0] != 0:
        raise ValidationError(f"mass of the empty set must be 0, got {table[0]}")
    total = sum(table)
    if total != 1:
        raise ValidationError(f"masses must sum to 1, got {total}")
    return MobiusAssignment(space, table)


def mobius_inverse(m: MobiusAssignment) -> Capacity:
    """Rebuild the set function with value sum of m(E) over subsets E.

    Raises ``ValidationError`` (with a witness pair) when the signed
    masses do not induce a monotone capacity.
    """
    table = list(m.masses)
    for i in range(m.space.size):
        bit = 1 << i
        for mask in range(len(table)):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    return validate_capacity(m.space, table)


def is_2_monotone(c: Capacity) -> bool:
    return find_2_monotone_violation(c) is None


def find_2_monotone_violation(c: Capacity) -> tuple[Event, Event] | None:
    """First pair A, B with c(A|B) + c(A&B) < c(A) + c(B), if any."""
    n_events = 1 << c.space.size
    v = c.values
    for a in range(n_events):
        for b in range(a + 1, n_events):
            if v[a | b] + v[a & b] < v[a] + v[b]:
                return Event(c.space, a), Event(c.space, b)
    return None


def is_infty_monotone(c: Capacity) -> bool:
    """True iff all Möbius masses are non-negative (belief function)."""
    return all(mass >= 0 for mass in mobius_transform(c).masses)


def is_additive(c: Capacity) -> bool:
    """True iff the Möbius masses are supported on singletons only."""
    m = mobius_transform(c)
    return all(
        mass == 0
        for mask, mass in enumerate(m.masses)
        if mask.bit_count() != 1
    )
