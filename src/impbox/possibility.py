"""Possibility distributions: measures, alpha-cuts, credal membership.

The possibility measure of an event is the max of the distribution over
it, necessity is its conjugate, sufficiency the min.  Conventions on
the empty event: possibility 0, necessity 0 on the complement side,
sufficiency 1 (empty min).  A distribution is a generalized p-box, so
its credal polytope and nested random set are those of its p-box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import pbox
from ._exact import Ratios, cached, over_lcd
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


def _ints(d: PossibilityDistribution) -> tuple:
    """``(ratios, ranked)``: the answers' table over the degrees' common
    denominator, and ``(bit, pi numerator)`` per element over it, pi
    decreasing."""
    den, nums = over_lcd(d.pi)
    ranked = sorted(((1 << i, v) for i, v in enumerate(nums)), key=lambda e: -e[1])
    return Ratios(den), tuple(ranked)


def _possibility_num(d: PossibilityDistribution, mask: int) -> tuple[int, Ratios]:
    """``(num, ratios)``: the largest degree in the event ``mask`` is
    ``ratios[num]``, read off the first element of the event in
    decreasing pi."""
    ratios, ranked = cached(d, "_ints", _ints)
    for bit, v in ranked:
        if mask & bit:
            return v, ratios
    return 0, ratios


def possibility(d: PossibilityDistribution, a: Event) -> Fraction:
    """The largest degree in a."""
    _same_space(d.space, a.space, "event and distribution spaces differ")
    num, ratios = _possibility_num(d, a.mask)
    return ratios[num]


def necessity(d: PossibilityDistribution, a: Event) -> Fraction:
    """Conjugate of possibility: 1 - the largest degree outside a."""
    _same_space(d.space, a.space, "event and distribution spaces differ")
    num, ratios = _possibility_num(d, a.mask ^ ((1 << d.space.size) - 1))
    return ratios[ratios.den - num]


def sufficiency(d: PossibilityDistribution, a: Event) -> Fraction:
    """The smallest degree in a: the first element of a in increasing pi."""
    _same_space(d.space, a.space, "event and distribution spaces differ")
    ratios, ranked = cached(d, "_ints", _ints)
    mask = a.mask
    for bit, v in reversed(ranked):
        if mask & bit:
            return ratios[v]
    return ratios[ratios.den]


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


def _as_pbox(d: PossibilityDistribution) -> pbox.GeneralizedPBox:
    """The generalized p-box of pi: F_upp = pi, F_low = 1 on {pi = 1}.

    One block per distinct degree, lowest first, with bounds [0, degree]
    ([1, 1] on the last).
    """
    levels = d.levels()
    blocks = tuple(sum(1 << i for i, v in enumerate(d.pi) if v == b) for b in levels)
    alpha = (Fraction(0),) * (len(levels) - 1) + (Fraction(1),)
    return pbox.GeneralizedPBox(d.space, blocks, alpha, levels)


def to_polytope(d: PossibilityDistribution) -> CredalPolytope:
    """The credal polytope of the distribution's p-box."""
    return pbox.to_polytope(_as_pbox(d))


def to_random_set(d: PossibilityDistribution) -> MassAssignment:
    """The nested random set whose contour function is pi: its p-box's,
    with the regular cuts at the distinct non-zero degrees as focal sets."""
    return pbox.to_random_set(_as_pbox(d))


def to_possibility_pair(
    pb: pbox.GeneralizedPBox,
) -> tuple[PossibilityDistribution, PossibilityDistribution]:
    """The pair of possibility distributions representing the p-box.

    The upper one reads off beta; the lower one is, per pre-order
    block, 1 minus the lower bound of the previous level (1 on the
    innermost block).  Taking the previous level rather than the
    largest strictly smaller value keeps the pair's intersection equal
    to the p-box credal set even when neighbouring levels share a lower
    bound.
    """
    alpha_before = (Fraction(0), *pb.level_alpha[:-1])
    return (
        PossibilityDistribution(pb.space, pb.f_upper),
        PossibilityDistribution(pb.space, pbox._spread(pb, [1 - a for a in alpha_before])),
    )
