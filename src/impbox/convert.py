"""Bridges between probability intervals and generalized p-boxes.

An interval can be projected onto any element ordering, giving an
outer-approximating p-box; a p-box projects back to its tightest outer
interval; intersecting the round trips over enough orderings recovers
the interval exactly.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Iterable

from . import randomset
from .errors import NotReachableError, SpaceMismatchError, ValidationError
from .interval import ProbabilityInterval, conjunction, event_bounds
from .pbox import GeneralizedPBox, to_random_set
from .space import Event, FiniteSpace, Permutation


def interval_to_sigma_pbox(
    interval: ProbabilityInterval, sigma: Permutation
) -> GeneralizedPBox:
    """Outer-approximating p-box of an interval under an element order.

    One level per rank of sigma, even where neighbours share bounds: the
    interval's lower and upper probability of the prefix set ending
    there.  For a reachable interval these are non-decreasing, with
    alpha <= beta, and end at (1, 1), as the constructor checks.
    """
    if sigma.size != interval.space.size:
        raise SpaceMismatchError("permutation size does not match the space")
    if not interval.reachable:
        raise NotReachableError(
            "sigma-p-box conversion needs a reachable interval; normalize first"
        )
    blocks = tuple(1 << i for i in sigma.order)
    prefixes = (Event(interval.space, mask) for mask in accumulate(blocks, or_))
    alpha, beta = zip(*(event_bounds(interval, a) for a in prefixes))
    return GeneralizedPBox(interval.space, blocks, alpha, beta)


def pbox_to_interval(pb: GeneralizedPBox) -> ProbabilityInterval:
    """Tightest probability interval outer-approximating the p-box: that
    of its random set (``randomset.to_interval``).

    Per element: the exact lower/upper probability of its singleton.
    In level terms that is max(0, alpha_(k) - beta_(k-1)) for an
    element alone in its block (0 otherwise) and beta_(k) - alpha_(k-1)
    for the upper bound.
    """
    return randomset.to_interval(to_random_set(pb))


def reconstruct_interval(
    interval: ProbabilityInterval, sigmas: Iterable[Permutation]
) -> ProbabilityInterval:
    """Conjunction of the interval round trips over the given orderings.

    With every element first or last in some ordering the result is the
    input interval itself; fewer orderings give an outer approximation.
    """
    if not interval.reachable:
        raise NotReachableError(
            "reconstruction needs a reachable interval; normalize first"
        )
    sigmas = list(sigmas)
    if not sigmas:
        raise ValidationError("at least one permutation is required")
    result = None
    for sigma in sigmas:
        roundtrip = pbox_to_interval(interval_to_sigma_pbox(interval, sigma))
        result = roundtrip if result is None else conjunction(result, roundtrip)
    return result


def reduced_permutation_set(space: FiniteSpace) -> list[Permutation]:
    """ceil(n/2) orderings putting every element first or last somewhere.

    The i-th ordering puts element i first and element n-1-i last; the
    remaining elements fill the middle in label order.
    """
    n = space.size
    if n == 1:
        return [Permutation([0])]
    perms = []
    for i in range((n + 1) // 2):
        first = i
        last = n - 1 - i
        if last == first:
            last = (first + 1) % n
        middle = [j for j in range(n) if j not in (first, last)]
        perms.append(Permutation([first, *middle, last]))
    return perms

