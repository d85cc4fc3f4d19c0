"""Possibility distributions: measures, alpha-cuts, credal membership.

The possibility measure of an event is the max of the distribution over
it, necessity is its conjugate, sufficiency the min.  Conventions on
the empty event: possibility 0, necessity 0 on the complement side,
sufficiency 1 (empty min).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from ._exact import cached, over_lcd
from .credal import CredalPolytope, ProbabilityVector
from .errors import ValidationError
from .randomset import MassAssignment
from .space import Event, FiniteSpace, _same_space, _unit_values


@dataclass(frozen=True)
class PossibilityDistribution:
    """A map pi: X -> [0,1] with max 1 (normalization)."""

    space: FiniteSpace
    pi: tuple[Fraction, ...]

    def __init__(self, space: FiniteSpace, pi: Iterable):
        pi = _unit_values(space, pi, "possibility degrees")
        if max(pi) != 1:
            raise ValidationError("a possibility distribution must reach 1 somewhere")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pi", pi)

    def levels(self) -> tuple[Fraction, ...]:
        """The distinct values taken by pi, increasing."""
        return tuple(sorted(set(self.pi)))


class Measures(NamedTuple):
    possibility: Fraction
    necessity: Fraction
    sufficiency: Fraction


def _ints(d: PossibilityDistribution) -> tuple:
    """``(den, ranked)``: ``(bit, pi numerator)`` per element, pi decreasing,
    over the degrees' common denominator."""
    den, nums = over_lcd(d.pi)
    ranked = sorted(((1 << i, v) for i, v in enumerate(nums)), key=lambda e: -e[1])
    return den, tuple(ranked)


def possibility(d: PossibilityDistribution, a: Event) -> Fraction:
    """The largest degree in a: the first element of a in decreasing pi."""
    _same_space(d.space, a.space, "event and distribution spaces differ")
    den, ranked = cached(d, "_ints", _ints)
    mask = a.mask
    for bit, v in ranked:
        if mask & bit:
            return Fraction(v, den)
    return Fraction(0)


def necessity(d: PossibilityDistribution, a: Event) -> Fraction:
    return 1 - possibility(d, a.complement())


def sufficiency(d: PossibilityDistribution, a: Event) -> Fraction:
    """The smallest degree in a: the first element of a in increasing pi."""
    _same_space(d.space, a.space, "event and distribution spaces differ")
    den, ranked = cached(d, "_ints", _ints)
    mask = a.mask
    for bit, v in reversed(ranked):
        if mask & bit:
            return Fraction(v, den)
    return Fraction(1)


def measures(d: PossibilityDistribution, a: Event) -> Measures:
    return Measures(possibility(d, a), necessity(d, a), sufficiency(d, a))


def alpha_cut(d: PossibilityDistribution, alpha, strong: bool = False) -> Event:
    """Superlevel set of pi: {pi > alpha} (strong) or {pi >= alpha}."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    mask = 0
    for i, v in enumerate(d.pi):
        if v > alpha or (not strong and v == alpha):
            mask |= 1 << i
    return Event(d.space, mask)


def contains(d: PossibilityDistribution, p: ProbabilityVector) -> bool:
    """Membership of p in the credal set of the distribution.

    Checks 1 - alpha <= P({pi > alpha}) at every distinct level of pi;
    cuts are step functions of alpha, so these levels suffice.
    """
    _same_space(d.space, p.space, "vector and distribution spaces differ")
    return all(
        1 - alpha <= p.prob(alpha_cut(d, alpha, strong=True))
        for alpha in d.levels()
    )


def to_polytope(d: PossibilityDistribution) -> CredalPolytope:
    """Constraints P(strong cut at alpha) >= 1 - alpha per distinct level."""
    constraints = []
    for alpha in d.levels():
        cut = alpha_cut(d, alpha, strong=True)
        if not cut.is_empty:
            constraints.append((cut, 1 - alpha, Fraction(1)))
    return CredalPolytope(d.space, constraints)


def to_random_set(d: PossibilityDistribution) -> MassAssignment:
    """The nested random set whose contour function is pi.

    Focal events are the regular cuts at the distinct non-zero levels;
    each carries the gap to the previous level as mass.
    """
    masses = {}
    previous = Fraction(0)
    for alpha in d.levels():
        if alpha == 0:
            continue
        cut = alpha_cut(d, alpha, strong=False)
        masses[cut.mask] = alpha - previous
        previous = alpha
    return MassAssignment(d.space, masses)
