"""Possibility distributions: measures, alpha-cuts, credal membership.

The possibility measure of an event is the max of the distribution over
it, necessity is its conjugate, sufficiency the min.  Conventions on
the empty event: possibility 0, necessity 0 on the complement side,
sufficiency 1 (empty min).  The credal set is pi's own, one row
P({pi > alpha}) >= 1 - alpha per degree, written once in ``to_polytope``.
A distribution is a generalized p-box, and only its nested random set
comes from that p-box.  Its necessity is the consonant belief function
of that random set (Shafer 1976): the first possibility or necessity
query builds the random set, and every answer is its plausibility or
belief.  Sufficiency reads the degrees themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from . import pbox, randomset
from ._exact import shown
from .credal import CredalPolytope, ProbabilityVector, is_member
from .errors import ValidationError
from .space import Event, FiniteSpace, _fraction, _same_space, _unit_values

#: the sufficiency of the empty event, the min over no degrees
_ONE = Fraction(1)


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

    @cached_property
    def _random_set(self) -> randomset.MassAssignment:
        """The nested random set of pi: its p-box's, built by the threshold
        construction on the first query and shared by every bound."""
        return pbox.to_random_set(_as_pbox(self))


def possibility(d: PossibilityDistribution, a: Event) -> Fraction:
    """The largest degree in a: the plausibility of the distribution's
    random set."""
    if a.space is not d.space:
        _same_space(d.space, a.space, "event and distribution spaces differ")
    return randomset.pl(d._random_set, a)


def necessity(d: PossibilityDistribution, a: Event) -> Fraction:
    """Conjugate of possibility, 1 - the largest degree outside a: the
    belief of the distribution's random set."""
    if a.space is not d.space:
        _same_space(d.space, a.space, "event and distribution spaces differ")
    return randomset.bel(d._random_set, a)


def sufficiency(d: PossibilityDistribution, a: Event) -> Fraction:
    """The smallest degree in a, read off pi; 1 on the empty event."""
    if a.space is not d.space:
        _same_space(d.space, a.space, "event and distribution spaces differ")
    mask = a.mask
    return min((v for i, v in enumerate(d.pi) if mask >> i & 1), default=_ONE)


def alpha_cut(d: PossibilityDistribution, alpha, strong: bool = False) -> Event:
    """Superlevel set of pi: {pi > alpha} (strong) or {pi >= alpha}."""
    alpha = _fraction(alpha, "alpha")
    if not 0 <= alpha <= 1:
        raise ValidationError(f"alpha must lie in [0, 1], got {shown(alpha)}")
    mask = 0
    for i, v in enumerate(d.pi):
        if v > alpha or (not strong and v == alpha):
            mask |= 1 << i
    return Event(d.space, mask)


def contains(d: PossibilityDistribution, p: ProbabilityVector) -> bool:
    """Membership of p in the credal set of the distribution."""
    _same_space(d.space, p.space, "vector and distribution spaces differ")
    return is_member(to_polytope(d), p)


def _as_pbox(d: PossibilityDistribution) -> pbox.GeneralizedPBox:
    """The generalized p-box of pi: F_upp = pi, F_low = 1 on {pi = 1}."""
    return pbox.from_functions(d.space, [1 if v == 1 else 0 for v in d.pi], d.pi)


def to_polytope(d: PossibilityDistribution) -> CredalPolytope:
    """The credal set of pi: 1 - alpha <= P({pi > alpha}) at every distinct
    degree alpha < 1.  Cuts are step functions of alpha, so these levels
    suffice; the polytope reads no p-box, so ``verify`` checks the p-box's
    random set against pi's own definition."""
    return CredalPolytope(
        d.space, [(alpha_cut(d, alpha, strong=True), 1 - alpha, 1) for alpha in d.levels()[:-1]]
    )


def to_random_set(d: PossibilityDistribution) -> randomset.MassAssignment:
    """The nested random set whose contour function is pi: its p-box's,
    with the regular cuts at the distinct non-zero degrees as focal sets.
    Built once per distribution and shared with its bounds."""
    return d._random_set


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
