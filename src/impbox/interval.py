"""Probability intervals: per-element lower/upper bounds on probabilities.

Non-emptiness and reachability are cached at construction.  Conjunction
can legitimately produce an empty interval set, so emptiness is a flag
rather than an exception; operations that need more (event bounds need
reachability) raise explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ._exact import cached, over_lcd
from .credal import CredalPolytope
from .errors import InfeasibleError, NotReachableError
from .space import Event, FiniteSpace, _same_space, _unit_values


@dataclass(frozen=True)
class ProbabilityInterval:
    """Bounds l(x) <= p(x) <= u(x) for each element x."""

    space: FiniteSpace
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    non_empty: bool
    reachable: bool

    def __init__(self, space: FiniteSpace, lower: Iterable, upper: Iterable):
        lower = _unit_values(space, lower, "bounds")
        upper = _unit_values(space, upper, "bounds")
        # l(x) > u(x) can only come out of a conjunction; it is folded
        # into emptiness instead of rejected, so conjunction pipelines
        # can propagate the result.
        pointwise_ok = all(l <= u for l, u in zip(lower, upper))
        total_l, total_u = sum(lower), sum(upper)
        non_empty = pointwise_ok and total_l <= 1 <= total_u
        # reachable: each element's own bounds are already tight
        reachable = non_empty and all(
            _envelope(l, u, total_l, total_u) == (l, u) for l, u in zip(lower, upper)
        )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "non_empty", non_empty)
        object.__setattr__(self, "reachable", reachable)


def _envelope(l_in, u_in, total_l, total_u, one=1) -> tuple[Fraction, Fraction]:
    """Coherent (lower, upper) probability of a set whose lower/upper bounds
    sum to l_in/u_in, on a space where they sum to total_l/total_u.

    With integer numerators over a common denominator, ``one`` is that
    denominator and the answer is in numerators too.
    """
    return max(l_in, one - (total_u - u_in)), min(u_in, one - (total_l - l_in))


def _ints(interval: ProbabilityInterval) -> tuple:
    """``(den, elements, total_l, total_u)``: ``(bit, l, u)`` per element and
    the two totals, as numerators over the bounds' common denominator."""
    n = interval.space.size
    den, nums = over_lcd(interval.lower + interval.upper)
    lower, upper = nums[:n], nums[n:]
    bits = [1 << i for i in range(n)]
    return den, tuple(zip(bits, lower, upper)), sum(lower), sum(upper)


def normalize(interval: ProbabilityInterval) -> ProbabilityInterval:
    """Tighten each bound to its envelope value; the credal set is kept.

    l'(x) = max(l(x), 1 - sum of the other uppers) and dually for u'.
    The result is reachable; idempotent on reachable inputs.
    """
    if not interval.non_empty:
        raise InfeasibleError("cannot normalize an empty probability interval")
    total_l = sum(interval.lower)
    total_u = sum(interval.upper)
    lower, upper = zip(
        *(
            _envelope(l, u, total_l, total_u)
            for l, u in zip(interval.lower, interval.upper)
        )
    )
    return ProbabilityInterval(interval.space, lower, upper)


def event_bounds(interval: ProbabilityInterval, a: Event) -> tuple[Fraction, Fraction]:
    """Coherent lower/upper probability of an event, in closed form.

    lower = max(sum of l inside, 1 - sum of u outside), and dually.
    Only valid on reachable intervals.
    """
    _same_space(interval.space, a.space, "event and interval spaces differ")
    if not interval.reachable:
        raise NotReachableError(
            "event bounds need a reachable interval; call normalize first"
        )
    den, elements, total_l, total_u = cached(interval, "_ints", _ints)
    mask = a.mask
    l_in = u_in = 0
    for bit, l, u in elements:
        if mask & bit:
            l_in += l
            u_in += u
    lo, hi = _envelope(l_in, u_in, total_l, total_u, den)
    return Fraction(lo, den), Fraction(hi, den)


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
