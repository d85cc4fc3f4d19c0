"""Probability intervals: per-element lower/upper bounds on probabilities.

Non-emptiness and reachability are read off the integer view, built on
first use.  Conjunction can legitimately produce an empty interval set,
so emptiness is a flag rather than an exception; operations that need
more (event bounds need reachability) raise explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from ._exact import Ratios, over_lcd
from .credal import CredalPolytope
from .errors import InfeasibleError, NotReachableError
from .space import Event, FiniteSpace, _byte_tables, _same_space, _unit_values


@dataclass(frozen=True)
class ProbabilityInterval:
    """Bounds l(x) <= p(x) <= u(x) for each element x."""

    space: FiniteSpace
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __init__(self, space: FiniteSpace, lower: Iterable, upper: Iterable):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "lower", _unit_values(space, lower, "bounds"))
        object.__setattr__(self, "upper", _unit_values(space, upper, "bounds"))

    @property
    def non_empty(self) -> bool:
        """Some p meets every bound: l <= u pointwise, sum l <= 1 <= sum u."""
        return self._ints[4]

    @property
    def reachable(self) -> bool:
        """Non-empty, and each element's own bounds are already tight."""
        return self._ints[5]

    @cached_property
    def _ints(self) -> tuple:
        """``(ratios, elements, total_l, total_u, non_empty, reachable)``: the
        answers' table over the bounds' common denominator, ``(l, u)`` per
        element and the two totals, as numerators over it, and the two
        flags they decide."""
        n = self.space.size
        den, nums = over_lcd(self.lower + self.upper)
        elements = tuple(zip(nums[:n], nums[n:]))
        total_l, total_u = sum(nums[:n]), sum(nums[n:])
        # l(x) > u(x) can only come out of a conjunction; it is folded into
        # emptiness instead of rejected, so conjunction pipelines can
        # propagate the result.
        non_empty = all(l <= u for l, u in elements) and total_l <= den <= total_u
        reachable = non_empty and all(
            _envelope(l, u, total_l, total_u, den) == (l, u) for l, u in elements
        )
        return Ratios(den), elements, total_l, total_u, non_empty, reachable

    @cached_property
    def _sums(self) -> tuple:
        """The ``_byte_tables`` of the lower bounds' numerators, then of the
        upper bounds', built on the first bound query: six lookups sum
        both over an event."""
        _, elements, *_ = self._ints
        lower, upper = zip(*elements)
        return (*_byte_tables(lower), *_byte_tables(upper))


def _envelope(l_in, u_in, total_l, total_u, den) -> tuple[int, int]:
    """Coherent (lower, upper) probability of a set whose lower/upper bounds
    sum to l_in/u_in, on a space where they sum to total_l/total_u; all
    numerators over ``den``, and so is the answer."""
    return max(l_in, den - (total_u - u_in)), min(u_in, den - (total_l - l_in))


def normalize(interval: ProbabilityInterval) -> ProbabilityInterval:
    """Tighten each bound to its envelope value; the credal set is kept.

    l'(x) = max(l(x), 1 - sum of the other uppers) and dually for u'.
    The result is reachable; idempotent on reachable inputs.
    """
    ratios, elements, total_l, total_u, non_empty, _ = interval._ints
    if not non_empty:
        raise InfeasibleError("cannot normalize an empty probability interval")
    bounds = [_envelope(l, u, total_l, total_u, ratios.den) for l, u in elements]
    lower = [ratios[lo] for lo, _ in bounds]
    upper = [ratios[hi] for _, hi in bounds]
    return ProbabilityInterval(interval.space, lower, upper)


def event_bounds(interval: ProbabilityInterval, a: Event) -> tuple[Fraction, Fraction]:
    """Coherent lower/upper probability of an event, in closed form.

    lower = max(sum of l inside, 1 - sum of u outside), and dually.
    Only valid on reachable intervals.
    """
    if a.space is not interval.space:
        _same_space(interval.space, a.space, "event and interval spaces differ")
    ratios, _, total_l, total_u, _, reachable = interval._ints
    if not reachable:
        raise NotReachableError(
            "event bounds need a reachable interval; call normalize first"
        )
    l0, l1, l2, u0, u1, u2 = interval._sums
    mask = a.mask
    low, mid, high = mask & 255, mask >> 8 & 255, mask >> 16
    l_in = l0[low] + l1[mid] + l2[high]
    u_in = u0[low] + u1[mid] + u2[high]
    lo, hi = _envelope(l_in, u_in, total_l, total_u, ratios.den)
    return ratios[lo], ratios[hi]


def conjunction(
    a: ProbabilityInterval, b: ProbabilityInterval
) -> ProbabilityInterval:
    """Element-wise intersection of two interval sets on the same space.

    The result may be empty; that is reported through its ``non_empty``
    flag, never as an exception.
    """
    _same_space(a.space, b.space, "intervals on different spaces")
    lower = tuple(max(x, y) for x, y in zip(a.lower, b.lower))
    upper = tuple(min(x, y) for x, y in zip(a.upper, b.upper))
    return ProbabilityInterval(a.space, lower, upper)


def to_polytope(interval: ProbabilityInterval) -> CredalPolytope:
    """Singleton constraints l(x) <= p(x) <= u(x)."""
    constraints = []
    for i in range(interval.space.size):
        l, u = interval.lower[i], interval.upper[i]
        if l > u:
            # inconsistent pointwise bounds: encode an unsatisfiable pair
            constraints.append((interval.space.singleton(i), l, l))
            constraints.append((interval.space.singleton(i), u, u))
        else:
            constraints.append((interval.space.singleton(i), l, u))
    return CredalPolytope(interval.space, constraints)
