"""Finite random sets: mass assignments, belief/plausibility, contours.

A mass assignment is stored in canonical form: only focal events with
strictly positive mass are kept, so equality of assignments is equality
of their focal maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from ._exact import Ratios, over_lcd
from .capacity import _zeta
from .credal import CredalPolytope
from .errors import ValidationError
from .interval import ProbabilityInterval, _outer
from .space import Event, FiniteSpace, _mask_of, _same_space, _sums_to_one


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
            val = Fraction(val)
            if val < 0:
                raise ValidationError(f"negative mass {val} on {Event(space, mask)}")
            if val == 0:
                continue
            if mask == 0:
                raise ValidationError("the empty set cannot carry mass")
            canonical[mask] = canonical.get(mask, Fraction(0)) + val
        _sums_to_one(sum(canonical.values()), "masses")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "focal", tuple(sorted(canonical.items())))

    @cached_property
    def _ints(self) -> tuple:
        """``(ratios, focal)``: the answers' table over the masses' common
        denominator, and the focal pairs with each mass as a numerator over it."""
        den, nums = over_lcd([m for _, m in self.focal])
        return Ratios(den), tuple(zip((mask for mask, _ in self.focal), nums))


def bel(ms: MassAssignment, a: Event) -> Fraction:
    """Total mass of focal events contained in a."""
    _same_space(ms.space, a.space, "event and mass assignment spaces differ")
    ratios, focal = ms._ints
    outside = ~a.mask
    return ratios[sum(m for mask, m in focal if not mask & outside)]


def pl(ms: MassAssignment, a: Event) -> Fraction:
    """Total mass of focal events meeting a; equals 1 - bel(complement)."""
    _same_space(ms.space, a.space, "event and mass assignment spaces differ")
    ratios, focal = ms._ints
    inside = a.mask
    return ratios[sum(m for mask, m in focal if mask & inside)]


def contour(ms: MassAssignment) -> tuple[Fraction, ...]:
    """Singleton plausibilities, one per element in label order."""
    return tuple(pl(ms, ms.space.singleton(i)) for i in range(ms.space.size))


def is_nested(ms: MassAssignment) -> bool:
    """True iff the focal events form a chain under inclusion."""
    masks = sorted((mask for mask, _ in ms.focal), key=lambda m: m.bit_count())
    return all(a & ~b == 0 for a, b in zip(masks, masks[1:]))


def simple_support(a: Event, mass_on_a) -> MassAssignment:
    """The two-focal assignment m(a) = mass, m(X) = 1 - mass."""
    mass_on_a = Fraction(mass_on_a)
    if a.is_empty:
        raise ValidationError("a simple support set must be non-empty")
    if not 0 <= mass_on_a <= 1:
        raise ValidationError(f"mass must lie in [0, 1], got {mass_on_a}")
    if a.is_full:  # {a: m, X: 1 - m} would be one key, keeping only 1 - m
        return MassAssignment(a.space, {a.mask: 1})
    full = a.space.full
    return MassAssignment(
        a.space, {a.mask: mass_on_a, full.mask: 1 - mass_on_a}
    )


def to_interval(ms: MassAssignment) -> ProbabilityInterval:
    """Tightest probability interval outer-approximating the random set.

    Per element: lower = bel of the singleton, upper = pl of the
    singleton.  The result is always reachable.
    """
    return _outer(ms, bel)


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
