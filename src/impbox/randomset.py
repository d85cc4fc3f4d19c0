"""Finite random sets: mass assignments, belief/plausibility, contours.

A mass assignment is stored in canonical form: only focal events with
strictly positive mass are kept, so equality of assignments is equality
of their focal maps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from ._exact import Ratios, over_lcd, shown
from .capacity import _zeta
from .credal import CredalPolytope
from .errors import ValidationError
from .interval import ProbabilityInterval
from .space import (
    Event,
    FiniteSpace,
    _byte_tables,
    _fraction,
    _mask_of,
    _same_space,
    _sums_to_one,
)


@dataclass(frozen=True)
class MassAssignment:
    """Positive rational masses on non-empty focal events, summing to 1."""

    space: FiniteSpace
    #: (event mask, mass) pairs sorted by mask
    focal: tuple[tuple[int, Fraction], ...]

    def __init__(self, space: FiniteSpace, masses: Mapping):
        canonical: dict[int, Fraction] = {}
        for key, val in masses.items():
            mask = _mask_of(space, key, "focal event")
            val = _fraction(val, "masses")
            if val < 0:
                raise ValidationError(f"negative mass {shown(val)} on {Event(space, mask)}")
            if val == 0:
                continue
            if mask == 0:
                raise ValidationError("the empty set cannot carry mass")
            canonical[mask] = canonical.get(mask, Fraction(0)) + val
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "focal", tuple(sorted(canonical.items())))
        ratios, focal = self._ints
        _sums_to_one(ratios.den, (m for _, m in focal), "masses")

    @cached_property
    def _ints(self) -> tuple:
        """``(ratios, focal)``: the answers' table over the masses' common
        denominator, and the focal pairs with each mass as a numerator over it."""
        den, nums = over_lcd([m for _, m in self.focal])
        return Ratios(den), tuple(zip((mask for mask, _ in self.focal), nums))

    @cached_property
    def _hits(self) -> tuple:
        """``(h0, h1, h2, full, every, answers)``, built from the focal
        masks on the first bound query.

        A hit set is a bitset of focal events, bit i for the i-th pair of
        ``focal``.  ``h0[m & 255] | h1[m >> 8 & 255] | h2[m >> 16]`` is the
        hit set of the focal events that meet the event mask ``m``: the
        ``_byte_tables`` of each element's hit set, combined by union.
        ``full`` is the space's mask and ``every`` holds all k bits.
        ``answers`` maps each set of focal events a query has summed to its
        total mass, from the ``_ints`` table; like that table, it only
        grows, by equal values.
        """
        n = self.space.size
        spec = f"0{n}b"
        # n bits per focal event, the last pair first, so that every n-th
        # bit from element x's column spells the hit set of {x} in binary
        bits = "".join([format(mask, spec) for mask, _ in reversed(self.focal)])
        hits = _byte_tables([int(bits[n - 1 - x :: n], 2) for x in range(n)], operator.or_)
        return (*hits, (1 << n) - 1, (1 << len(self.focal)) - 1, {})


def _meeting(ms: MassAssignment, mask: int) -> int:
    """The total mass of the focal events that meet ``mask``, as a
    numerator over the masses' common denominator."""
    return sum([m for focal_mask, m in ms._ints[1] if focal_mask & mask])


def bel(ms: MassAssignment, a: Event) -> Fraction:
    """Total mass of focal events contained in a: those that miss its
    complement, so every focal event but the complement's hit set."""
    if a.space is not ms.space:
        _same_space(ms.space, a.space, "event and mass assignment spaces differ")
    h0, h1, h2, full, every, answers = ms._hits
    outside = a.mask ^ full
    inside = every ^ (h0[outside & 255] | h1[outside >> 8 & 255] | h2[outside >> 16])
    answer = answers.get(inside)
    if answer is None:
        ratios = ms._ints[0]
        answer = answers[inside] = ratios[ratios.den - _meeting(ms, outside)]
    return answer


def pl(ms: MassAssignment, a: Event) -> Fraction:
    """Total mass of focal events meeting a; equals 1 - bel(complement)."""
    if a.space is not ms.space:
        _same_space(ms.space, a.space, "event and mass assignment spaces differ")
    h0, h1, h2, _, _, answers = ms._hits
    mask = a.mask
    hit = h0[mask & 255] | h1[mask >> 8 & 255] | h2[mask >> 16]
    answer = answers.get(hit)
    if answer is None:
        answer = answers[hit] = ms._ints[0][_meeting(ms, mask)]
    return answer


def contour(ms: MassAssignment) -> tuple[Fraction, ...]:
    """Singleton plausibilities, one per element in label order."""
    return tuple(pl(ms, ms.space.singleton(i)) for i in range(ms.space.size))


def is_nested(ms: MassAssignment) -> bool:
    """True iff the focal events form a chain under inclusion."""
    masks = sorted((mask for mask, _ in ms.focal), key=lambda m: m.bit_count())
    return all(a & ~b == 0 for a, b in zip(masks, masks[1:]))


def simple_support(a: Event, mass_on_a) -> MassAssignment:
    """The two-focal assignment m(a) = mass, m(X) = 1 - mass."""
    mass_on_a = _fraction(mass_on_a, "mass")
    if a.is_empty:
        raise ValidationError("a simple support set must be non-empty")
    if not 0 <= mass_on_a <= 1:
        raise ValidationError(f"mass must lie in [0, 1], got {shown(mass_on_a)}")
    if a.is_full:  # {a: m, X: 1 - m} would be one key, keeping only 1 - m
        return MassAssignment(a.space, {a.mask: 1})
    full = a.space.full
    return MassAssignment(
        a.space, {a.mask: mass_on_a, full.mask: 1 - mass_on_a}
    )


def to_interval(ms: MassAssignment) -> ProbabilityInterval:
    """Tightest probability interval outer-approximating the random set.

    Per element: lower = bel of the singleton, upper = pl of the
    singleton.  The result is always reachable.  A p-box's outer
    interval is its random set's (``convert.pbox_to_interval``).
    """
    singletons = [ms.space.singleton(i) for i in range(ms.space.size)]
    return ProbabilityInterval(
        ms.space, [bel(ms, a) for a in singletons], [pl(ms, a) for a in singletons]
    )


def to_polytope(ms: MassAssignment) -> CredalPolytope:
    """Constraints bel(A) <= P(A) <= 1 - bel(A^c) for every event A other
    than the empty set and X, in mask order, summed from the focal masses
    by ``_zeta``: ``verify`` checks ``bel`` against them, so none reads it."""
    den, nums = over_lcd([m for _, m in ms.focal])
    table = [0] * (1 << ms.space.size)
    for (mask, _), num in zip(ms.focal, nums):
        table[mask] = num
    below = _zeta(table)  # below[A]: the numerator of bel(A)
    full = len(below) - 1
    constraints = [
        (Event(ms.space, a), Fraction(below[a], den), Fraction(den - below[full ^ a], den))
        for a in range(1, full)
    ]
    return CredalPolytope(ms.space, constraints)
