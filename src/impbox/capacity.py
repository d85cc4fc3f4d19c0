"""Capacities (monotone set functions), conjugates and Möbius transforms.

Set functions are stored as tuples of exact rationals indexed by event
bitmask, so every identity here is checked with zero tolerance. The
checks put all values of one set function over a common denominator and
compare the integer numerators, whose signs are exactly the rationals'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, gt, sub
from typing import Iterator, Mapping, Sequence

from ._exact import too_long, too_long_message
from .errors import ValidationError
from .space import Event, FiniteSpace, _mask_of, _same_space, _sums_to_one, _unit_values


def _as_table(space: FiniteSpace, values, fill: Fraction | None = None) -> tuple[Fraction, ...]:
    n_events = 1 << space.size
    if isinstance(values, Mapping):
        table = [fill] * n_events
        for key, val in values.items():
            # an in-range int key is its own mask; the rest take _mask_of's checks
            mask = key if type(key) is int and 0 <= key < n_events else _mask_of(space, key)
            if table[mask] is not fill:
                earlier = next(k for k in values if _mask_of(space, k) == mask)
                raise ValidationError(f"keys {earlier!r} and {key!r} name one event")
            table[mask] = val if type(val) is Fraction else Fraction(val)
        if fill is None and len(values) < n_events:  # each key set a different mask
            missing = next(m for m, v in enumerate(table) if v is None)
            raise ValidationError(
                f"set function must be defined on all {n_events} events, "
                f"missing mask {missing:#b}"
            )
        return tuple(table)
    table = tuple(Fraction(v) for v in values)
    if len(table) != n_events:
        raise ValidationError(f"expected {n_events} values (one per event), got {len(table)}")
    return table


def _bit_slices(size: int) -> Iterator[tuple[slice, slice]]:
    """For each bit of a table of ``size = 2**n`` entries, lowest first,
    slice pairs ``(lo, hi)``: ``lo`` picks masks without the bit and ``hi``
    the same masks with it, so ``table[hi]`` and ``table[lo]`` line up.

    Strided slices ``o::2*bit`` serve the low bits and blocks
    ``[b, b + bit)`` the high ones, so no bit takes more than about
    ``2**(n/2)`` pairs and the per-mask work runs in C-level loops.
    """
    for i in range(size.bit_length() - 1):
        bit = 1 << i
        step = bit << 1
        if bit * bit < size:
            for o in range(bit):
                yield slice(o, size, step), slice(o + bit, size, step)
        else:
            for b in range(0, size, step):
                yield slice(b, b + bit), slice(b + bit, b + step)


def _mobius(table: list) -> list:
    """Möbius transform of a table indexed by event bitmask, in place."""
    for lo, hi in _bit_slices(len(table)):
        table[hi] = map(sub, table[hi], table[lo])
    return table


def _zeta(table: list) -> list:
    """Sums over subsets of a table indexed by event bitmask, in place:
    the inverse of ``_mobius``, so a table of masses becomes the belief
    function they induce."""
    for lo, hi in _bit_slices(len(table)):
        table[hi] = map(add, table[hi], table[lo])
    return table


@dataclass(frozen=True)
class Capacity:
    """A set function with mu(empty)=0, mu(X)=1, monotone under inclusion,
    given as a full mapping keyed by ``Event`` or mask, or as one value per
    mask.  Monotonicity is checked on all covering pairs A and A+{x} (which
    covers all inclusions) over the integer table the classifications reuse."""

    space: FiniteSpace
    values: tuple[Fraction, ...]

    def __init__(self, space: FiniteSpace, values):
        table = _as_table(space, values)
        if table[0] != 0:
            raise ValidationError(f"capacity of the empty set must be 0, got {table[0]}")
        if table[-1] != 1:
            raise ValidationError(f"capacity of the whole space must be 1, got {table[-1]}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", table)
        v = self._table
        if any(any(map(gt, v[lo], v[hi])) for lo, hi in _bit_slices(len(v))):
            # the message names the first violation, in mask then bit order
            bits = [1 << i for i in range(space.size)]
            mask, bit = next((m, b) for m in range(len(v)) for b in bits if v[m] > v[m | b])
            small, big = Event(space, mask), Event(space, mask | bit)
            raise ValidationError(
                f"monotonicity violated: mu({small})={table[mask]} > "
                f"mu({big})={table[mask | bit]}",
                witness=(small, big),
            )

    def __call__(self, event: Event) -> Fraction:
        _same_space(self.space, event.space, "event and capacity spaces differ")
        return self.values[event.mask]

    @cached_property
    def _table(self) -> tuple[int, ...]:
        """The values' numerators over a common denominator that prints, so
        every Möbius mass prints too; the lcm is refused once it grows too long."""
        den = 1
        for d in {v.denominator for v in self.values}:
            den = math.lcm(den, d)
            if too_long(den):
                raise ValidationError(too_long_message("common denominator of the values"))
        return tuple(v.numerator * (den // v.denominator) for v in self.values)

    @cached_property
    def _mobius_table(self) -> tuple[int, ...]:
        """The integer Möbius transform of ``_table``."""
        return tuple(_mobius(list(self._table)))


@dataclass(frozen=True)
class MobiusAssignment:
    """A signed mass function on events summing to one, with m(empty)=0,
    given as a mapping keyed by ``Event`` or mask (events not in it carry
    mass 0) or as one mass per mask."""

    space: FiniteSpace
    masses: tuple[Fraction, ...]

    def __init__(self, space: FiniteSpace, masses):
        table = _as_table(space, masses, fill=Fraction(0))
        if table[0] != 0:
            raise ValidationError(f"mass of the empty set must be 0, got {table[0]}")
        _sums_to_one(sum(table), "masses")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "masses", table)

    def __call__(self, event: Event) -> Fraction:
        _same_space(self.space, event.space, "event and Möbius assignment spaces differ")
        return self.masses[event.mask]


def capacity_from_probability(space: FiniteSpace, p: Sequence) -> Capacity:
    """The additive capacity of a probability distribution p."""
    p = _unit_values(space, p, "probabilities")
    if sum(p) != 1:
        raise ValidationError("probability distribution must be non-negative and sum to 1")
    table = [Fraction(0)] * (1 << space.size)
    for i, value in enumerate(p):
        table[1 << i] = value
    return Capacity(space, tuple(_zeta(table)))


def conjugate(c: Capacity) -> Capacity:
    """The conjugate capacity: result(E) = 1 - c(complement of E)."""
    # the complement of mask m is mask 2**n - 1 - m: the table reversed
    return Capacity(c.space, [1 - v for v in reversed(c.values)])


def mobius_transform(c: Capacity) -> MobiusAssignment:
    """The (signed) Möbius transform of a capacity.

    Inverse of ``mobius_inverse``: summing the masses over the subsets
    of any event recovers the capacity there.
    """
    return MobiusAssignment(c.space, tuple(_mobius(list(c.values))))


def mobius_inverse(m: MobiusAssignment) -> Capacity:
    """Rebuild the set function with value sum of m(E) over subsets E.

    Raises ``ValidationError`` (with a witness pair) when the signed
    masses do not induce a monotone capacity.
    """
    return Capacity(m.space, _zeta(list(m.masses)))


def is_2_monotone(c: Capacity) -> bool:
    """A belief function (non-negative Möbius masses) is 2-monotone
    (Shafer 1976): each local second difference c(S+i+j) + c(S) - c(S+i)
    - c(S+j) is the total mass of the events within S+i+j that hold both
    i and j. Any other capacity takes the local scan."""
    return is_infty_monotone(c) or find_2_monotone_violation(c) is None


def find_2_monotone_violation(c: Capacity) -> tuple[Event, Event] | None:
    """A pair A, B with c(A|B) + c(A&B) < c(A) + c(B), if any.

    Tests the local condition c(S+i+j) + c(S) >= c(S+i) + c(S+j) for
    i < j outside S, which holds iff the inequality holds on all pairs
    (Chateauneuf & Jaffray 1989): O(n^2 2^n) integer comparisons, not
    O(4^n). A failure at S returns the pair (S+i, S+j), whose union is
    S+i+j and whose intersection is S, so it breaks the global inequality.
    """
    v = c._table
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
    return min(c._mobius_table) >= 0


def is_additive(c: Capacity) -> bool:
    """True iff the Möbius masses are supported on singletons only."""
    m = c._mobius_table
    return all(mass == 0 for mask, mass in enumerate(m) if mask.bit_count() != 1)
