"""Seeded random instance generators and brute-force checkers for tests.

Everything takes an explicit ``random.Random`` so failures reproduce
from the seed alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from impbox import (
    Capacity,
    FiniteSpace,
    MassAssignment,
    Permutation,
    PossibilityDistribution,
    ProbabilityInterval,
    ProbabilityVector,
    from_functions,
    from_nested_sets,
    normalize,
)

SPACES = {n: FiniteSpace([f"x{i}" for i in range(1, n + 1)]) for n in range(1, 9)}


def rand_fraction(rng: random.Random, denom: int = 12) -> Fraction:
    return Fraction(rng.randint(0, denom), denom)


def rand_probability(rng: random.Random, space: FiniteSpace) -> ProbabilityVector:
    weights = [rng.randint(0, 20) for _ in range(space.size)]
    if sum(weights) == 0:
        weights[rng.randrange(space.size)] = 1
    total = sum(weights)
    return ProbabilityVector(space, [Fraction(w, total) for w in weights])


def rand_capacity(rng: random.Random, space: FiniteSpace, denom: int = 12) -> Capacity:
    """Random values monotonized by a cumulative max over the lattice."""
    n_events = 1 << space.size
    table = [rand_fraction(rng, denom) for _ in range(n_events)]
    table[0] = Fraction(0)
    table[-1] = Fraction(1)
    for mask in range(1, n_events):
        for i in range(space.size):
            bit = 1 << i
            if mask & bit:
                table[mask] = max(table[mask], table[mask ^ bit])
    return Capacity(space, table)


def rand_mass(rng: random.Random, space: FiniteSpace, k: int | None = None) -> MassAssignment:
    n_events = 1 << space.size
    k = k or rng.randint(1, min(6, n_events - 1))
    masks = rng.sample(range(1, n_events), k)
    weights = [rng.randint(1, 10) for _ in masks]
    total = sum(weights)
    return MassAssignment(
        space, {m: Fraction(w, total) for m, w in zip(masks, weights)}
    )


def rand_dense_mass(rng: random.Random, space: FiniteSpace) -> MassAssignment:
    """Mass on every event of one or two elements, integer weights 1-9.

    Its polytope keeps a bound on nearly every event, the oracle's
    densest row set.
    """
    singles = [1 << i for i in range(space.size)]
    masks = sorted(singles + [a | b for a in singles for b in singles if a < b])
    weights = [rng.randint(1, 9) for _ in masks]
    total = sum(weights)
    return MassAssignment(space, {m: Fraction(w, total) for m, w in zip(masks, weights)})


def rand_possibility(
    rng: random.Random, space: FiniteSpace, denom: int = 12
) -> PossibilityDistribution:
    pi = [rand_fraction(rng, denom) for _ in range(space.size)]
    pi[rng.randrange(space.size)] = Fraction(1)
    return PossibilityDistribution(space, pi)


def rand_reachable_interval(
    rng: random.Random, space: FiniteSpace, denom: int = 20
) -> ProbabilityInterval:
    """Reachable by construction: bracket a random member, then tighten."""
    p = rand_probability(rng, space)
    lower = [max(Fraction(0), v - rand_fraction(rng, denom)) for v in p.p]
    upper = [min(Fraction(1), v + rand_fraction(rng, denom)) for v in p.p]
    return normalize(ProbabilityInterval(space, lower, upper))


def _sorted_pair(rng: random.Random, n: int, denom: int):
    alpha = sorted(rand_fraction(rng, denom) for _ in range(n))
    beta = sorted(rand_fraction(rng, denom) for _ in range(n))
    beta = [max(a, b) for a, b in zip(alpha, beta)]
    alpha[-1] = beta[-1] = Fraction(1)
    return alpha, beta


def rand_pbox(rng: random.Random, space: FiniteSpace, denom: int = 8, ties: bool = False):
    """Random comonotone pair; small denominators make level ties common.

    With ``ties`` the upper values are resampled from the lower values'
    range so that crossing ties (a lower bound equal to an upper bound
    of another level) are frequent.
    """
    n = space.size
    alpha, beta = _sorted_pair(rng, n, denom)
    if ties and n > 1:
        pool = sorted(set(alpha) | {Fraction(1)})
        beta = sorted(rng.choice(pool) for _ in range(n))
        beta = [max(a, b) for a, b in zip(alpha, beta)]
        beta[-1] = Fraction(1)
    perm = list(range(n))
    rng.shuffle(perm)
    flow = [Fraction(0)] * n
    fupp = [Fraction(0)] * n
    for rank, i in enumerate(perm):
        flow[i] = alpha[rank]
        fupp[i] = beta[rank]
    return from_functions(space, flow, fupp)


def rand_nested_pbox(rng: random.Random, space: FiniteSpace, denom: int = 4):
    """Random p-box stated as levels on the prefixes of a random order.

    Built by ``from_nested_sets``, which keeps every level, so with a
    small ``denom`` neighbouring levels often share both bounds.
    """
    alpha, beta = _sorted_pair(rng, space.size, denom)
    order = rand_permutation(rng, space).order
    labels = [space.labels[i] for i in order]
    prefixes = [space.event(labels[: k + 1]) for k in range(space.size)]
    return from_nested_sets(space, zip(prefixes, alpha, beta))


def rand_permutation(rng: random.Random, space: FiniteSpace) -> Permutation:
    order = list(range(space.size))
    rng.shuffle(order)
    return Permutation(order)


def is_k_monotone_bruteforce(c: Capacity, k: int) -> bool:
    """Direct inequality check over all families of k events.

    mu(union of the A_i) >= alternating sum over non-empty subfamilies
    of mu(intersection).  Exponential; only for tiny spaces.
    """
    n_events = 1 << c.space.size
    events = range(n_events)
    for family in combinations(events, k):
        union = 0
        for mask in family:
            union |= mask
        total = Fraction(0)
        for r in range(1, k + 1):
            for sub in combinations(family, r):
                inter = (1 << c.space.size) - 1
                for mask in sub:
                    inter &= mask
                total += (-1) ** (r + 1) * c.values[inter]
        if c.values[union] < total:
            return False
    return True
