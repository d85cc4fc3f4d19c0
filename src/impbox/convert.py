"""Bridges between probability intervals and generalized p-boxes.

An interval can be projected onto any element ordering, giving an
outer-approximating p-box; a p-box projects back to its tightest outer
interval; intersecting the round trips over enough orderings recovers
the interval exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import NotReachableError, SpaceMismatchError, ValidationError
from .interval import ProbabilityInterval, conjunction
from .pbox import GeneralizedPBox, from_functions, lower_prob, upper_prob
from .space import FiniteSpace, Permutation


def _prefix_bounds(
    interval: ProbabilityInterval, sigma: Permutation
) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(element, alpha, beta) per rank of sigma.

    alpha and beta are the interval's lower and upper probability of the
    prefix set that ends with the element at that rank.
    """
    total_l = sum(interval.lower)
    total_u = sum(interval.upper)
    l_in = Fraction(0)
    u_in = Fraction(0)
    for i in sigma.order:
        l_in += interval.lower[i]
        u_in += interval.upper[i]
        yield i, max(l_in, 1 - (total_u - u_in)), min(u_in, 1 - (total_l - l_in))


def interval_to_sigma_pbox(
    interval: ProbabilityInterval, sigma: Permutation
) -> GeneralizedPBox:
    """Outer-approximating p-box of an interval under an element order.

    The cumulative bounds of the prefix sets under sigma are the event
    bounds induced by the interval.
    """
    if sigma.size != interval.space.size:
        raise SpaceMismatchError("permutation size does not match the space")
    if not interval.reachable:
        raise NotReachableError(
            "sigma-p-box conversion needs a reachable interval; normalize first"
        )
    flow = [Fraction(0)] * interval.space.size
    fupp = [Fraction(0)] * interval.space.size
    for i, alpha, beta in _prefix_bounds(interval, sigma):
        flow[i] = alpha
        fupp[i] = beta
    return from_functions(interval.space, flow, fupp)


def pbox_to_interval(pb: GeneralizedPBox) -> ProbabilityInterval:
    """Tightest probability interval outer-approximating the p-box.

    Per element: the exact lower/upper probability of its singleton.
    In level terms that is max(0, alpha_(k) - beta_(k-1)) for an
    element alone in its block (0 otherwise) and beta_(k) - alpha_(k-1)
    for the upper bound.
    """
    n = pb.space.size
    lower = [lower_prob(pb, pb.space.singleton(i)) for i in range(n)]
    upper = [upper_prob(pb, pb.space.singleton(i)) for i in range(n)]
    return ProbabilityInterval(pb.space, lower, upper)


def _roundtrip(interval: ProbabilityInterval, sigma: Permutation) -> ProbabilityInterval:
    """Interval -> sigma-p-box -> interval, on cumulative bounds directly.

    Works with the per-rank prefix bounds instead of a materialized
    p-box, so coincidentally equal consecutive prefix bounds (which a
    p-box would merge into one pre-order block) still yield the exact
    first/last-position bounds the reconstruction relies on.
    """
    lower = [Fraction(0)] * interval.space.size
    upper = [Fraction(0)] * interval.space.size
    alpha_prev = Fraction(0)
    beta_prev = Fraction(0)
    for i, alpha, beta in _prefix_bounds(interval, sigma):
        lower[i] = max(Fraction(0), alpha - beta_prev)
        upper[i] = beta - alpha_prev
        alpha_prev, beta_prev = alpha, beta
    return ProbabilityInterval(interval.space, lower, upper)


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
        roundtrip = _roundtrip(interval, sigma)
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


def covers_first_or_last(space: FiniteSpace, sigmas: Sequence[Permutation]) -> bool:
    """True iff every element is first or last in some permutation."""
    seen = set()
    for sigma in sigmas:
        seen.add(sigma.first())
        seen.add(sigma.last())
    return seen == set(range(space.size))
