"""Capacities (monotone set functions), conjugates and Möbius transforms.

Set functions are stored as tuples of exact rationals indexed by event
bitmask, so every identity here is checked with zero tolerance. The
checks put all values of one set function over a common denominator and
compare the integer numerators, whose signs are exactly the rationals'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ._exact import cached, over_lcd, too_long_message
from .errors import ValidationError
from .space import Event, FiniteSpace, _mask_of, _same_space, _unit_values


def _as_table(space: FiniteSpace, values, fill: Fraction | None = None) -> tuple[Fraction, ...]:
    n_events = 1 << space.size
    if isinstance(values, Mapping):
        table, keys = [fill] * n_events, {}
        for key, val in values.items():
            mask = _mask_of(space, key)
            if mask in keys:
                raise ValidationError(f"keys {keys[mask]!r} and {key!r} name one event")
            keys[mask] = key
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


def _numerators(c: Capacity) -> tuple[int, ...]:
    """``over_lcd(c.values)``'s numerators, for a common denominator that
    prints: the table stays small and every Möbius mass prints too."""
    try:
        return tuple(over_lcd(c.values, printable=True)[1])
    except ValueError:
        raise ValidationError(too_long_message("common denominator of the values")) from None


def _table(c: Capacity) -> tuple[int, ...]:
    """The capacity's integer table, built once per capacity."""
    return cached(c, "_table", _numerators)


def _mobius_table(c: Capacity) -> tuple[int, ...]:
    """The integer Möbius transform of ``_table(c)``, built once per capacity."""
    return cached(c, "_mobius_table", lambda c: tuple(_mobius(list(_table(c)))))


def _mobius(table: list) -> list:
    """Möbius transform of a table indexed by event bitmask, in place."""
    for i in range(len(table).bit_length() - 1):
        bit = 1 << i
        for mask in range(len(table)):
            if mask & bit:
                table[mask] -= table[mask ^ bit]
    return table


@dataclass(frozen=True)
class Capacity:
    """A set function with mu(empty)=0, mu(X)=1, monotone under inclusion."""

    space: FiniteSpace
    values: tuple[Fraction, ...]

    def __call__(self, event: Event) -> Fraction:
        _same_space(self.space, event.space, "event and capacity spaces differ")
        return self.values[event.mask]


@dataclass(frozen=True)
class MobiusAssignment:
    """A signed mass function on events summing to one, with m(empty)=0."""

    space: FiniteSpace
    masses: tuple[Fraction, ...]

    def __call__(self, event: Event) -> Fraction:
        _same_space(self.space, event.space, "event and Möbius assignment spaces differ")
        return self.masses[event.mask]


def validate_capacity(space: FiniteSpace, values) -> Capacity:
    """Build a capacity, checking boundary values and monotonicity.

    Monotonicity is checked on all covering pairs A and A+{x}, which is
    equivalent to checking all inclusions. The values' common denominator
    must print within the int->str digit limit.
    """
    table = _as_table(space, values)
    if table[0] != 0:
        raise ValidationError(f"capacity of the empty set must be 0, got {table[0]}")
    full = (1 << space.size) - 1
    if table[full] != 1:
        raise ValidationError(
            f"capacity of the whole space must be 1, got {table[full]}"
        )
    c = Capacity(space, table)
    v = _table(c)
    for mask in range(full + 1):
        for i in range(space.size):
            bit = 1 << i
            if mask & bit:
                continue
            if v[mask] > v[mask | bit]:
                small = Event(space, mask)
                big = Event(space, mask | bit)
                raise ValidationError(
                    f"monotonicity violated: mu({small})={table[mask]} > "
                    f"mu({big})={table[mask | bit]}",
                    witness=(small, big),
                )
    return c


def capacity_from_probability(space: FiniteSpace, p: Sequence) -> Capacity:
    """The additive capacity of a probability distribution p."""
    p = _unit_values(space, p, "probabilities")
    if sum(p) != 1:
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
    return MobiusAssignment(c.space, tuple(_mobius(list(c.values))))


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
    """A pair A, B with c(A|B) + c(A&B) < c(A) + c(B), if any.

    Tests the local condition c(S+i+j) + c(S) >= c(S+i) + c(S+j) for
    i < j outside S, which holds iff the inequality holds on all pairs
    (Chateauneuf & Jaffray 1989): O(n^2 2^n) integer comparisons, not
    O(4^n). A failure at S returns the pair (S+i, S+j), whose union is
    S+i+j and whose intersection is S, so it breaks the global inequality.
    """
    v = _table(c)
    full = len(v) - 1
    for i in range(c.space.size):
        bi = 1 << i
        for j in range(i + 1, c.space.size):
            bj = 1 << j
            both = bi | bj
            rest = s = full ^ both
            while True:  # every S within rest, from rest down to the empty set
                if v[s | both] + v[s] < v[s | bi] + v[s | bj]:
                    return Event(c.space, s | bi), Event(c.space, s | bj)
                if not s:
                    break
                s = (s - 1) & rest
    return None


def is_infty_monotone(c: Capacity) -> bool:
    """True iff all Möbius masses are non-negative (belief function)."""
    return min(_mobius_table(c)) >= 0


def is_additive(c: Capacity) -> bool:
    """True iff the Möbius masses are supported on singletons only."""
    m = _mobius_table(c)
    return all(mass == 0 for mask, mass in enumerate(m) if mask.bit_count() != 1)
