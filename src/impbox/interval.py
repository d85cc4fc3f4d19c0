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

from .credal import CredalPolytope
from .errors import InfeasibleError, NotReachableError, SpaceMismatchError, ValidationError
from .space import Event, FiniteSpace


@dataclass(frozen=True)
class ProbabilityInterval:
    """Bounds l(x) <= p(x) <= u(x) for each element x."""

    space: FiniteSpace
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    non_empty: bool
    reachable: bool

    def __init__(self, space: FiniteSpace, lower: Iterable, upper: Iterable):
        lower = tuple(Fraction(v) for v in lower)
        upper = tuple(Fraction(v) for v in upper)
        if len(lower) != space.size or len(upper) != space.size:
            raise ValidationError("bound vectors must match the space size")
        for v in (*lower, *upper):
            if not 0 <= v <= 1:
                raise ValidationError(f"bounds must lie in [0, 1], got {v}")
        # l(x) > u(x) can only come out of a conjunction; it is folded
        # into emptiness instead of rejected, so conjunction pipelines
        # can propagate the result.
        pointwise_ok = all(l <= u for l, u in zip(lower, upper))
        non_empty = pointwise_ok and sum(lower) <= 1 <= sum(upper)
        reachable = non_empty and all(
            upper[i] + sum(lower) - lower[i] <= 1
            and lower[i] + sum(upper) - upper[i] >= 1
            for i in range(space.size)
        )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "non_empty", non_empty)
        object.__setattr__(self, "reachable", reachable)


def normalize(interval: ProbabilityInterval) -> ProbabilityInterval:
    """Tighten each bound to its envelope value; the credal set is kept.

    l'(x) = max(l(x), 1 - sum of the other uppers) and dually for u'.
    The result is reachable; idempotent on reachable inputs.
    """
    if not interval.non_empty:
        raise InfeasibleError("cannot normalize an empty probability interval")
    total_l = sum(interval.lower)
    total_u = sum(interval.upper)
    lower = tuple(
        max(l, 1 - (total_u - u))
        for l, u in zip(interval.lower, interval.upper)
    )
    upper = tuple(
        min(u, 1 - (total_l - l))
        for l, u in zip(interval.lower, interval.upper)
    )
    return ProbabilityInterval(interval.space, lower, upper)


def event_bounds(interval: ProbabilityInterval, a: Event) -> tuple[Fraction, Fraction]:
    """Coherent lower/upper probability of an event, in closed form.

    lower = max(sum of l inside, 1 - sum of u outside), and dually.
    Only valid on reachable intervals.
    """
    if a.space != interval.space:
        raise SpaceMismatchError("event and interval spaces differ")
    if not interval.reachable:
        raise NotReachableError(
            "event bounds need a reachable interval; call normalize first"
        )
    inside = set(a.indices())
    l_in = sum((interval.lower[i] for i in inside), Fraction(0))
    u_in = sum((interval.upper[i] for i in inside), Fraction(0))
    l_out = sum(interval.lower) - l_in
    u_out = sum(interval.upper) - u_in
    return max(l_in, 1 - u_out), min(u_in, 1 - l_out)


def conjunction(
    a: ProbabilityInterval, b: ProbabilityInterval
) -> ProbabilityInterval:
    """Element-wise intersection of two interval sets on the same space.

    The result may be empty; that is reported through its ``non_empty``
    flag, never as an exception.
    """
    if a.space != b.space:
        raise SpaceMismatchError("intervals on different spaces")
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
