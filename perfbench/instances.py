"""Seeded instance generators that emit impbox JSON documents.

The generators draw from the random stream in exactly the order the
test-suite generators in ``tests/gen.py`` do (``rand_pbox``, ``rand_mass``,
``rand_reachable_interval``, ``rand_possibility``, ``rand_capacity``), so a
given ``random.Random`` state yields the same instance.  They build the
document text themselves instead of calling impbox constructors: the
program under test receives only the generated documents, and the
benchmark's inputs stay fixed while the library and its tests change.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def labels(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def event_key(n: int, mask: int) -> str:
    return ",".join(f"x{i + 1}" for i in range(n) if mask >> i & 1)


def _document(kind: str, n: int, **payload) -> str:
    body = {"kind": kind, "space": labels(n)}
    body.update(payload)
    return json.dumps(body)


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _rand_fraction(rng: random.Random, denom: int) -> Fraction:
    return Fraction(rng.randint(0, denom), denom)


def _rand_probability(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(0, 20) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def rand_mass(rng: random.Random, n: int) -> dict[int, Fraction]:
    """Up to six focal events with positive integer weights, normalised."""
    n_events = 1 << n
    k = rng.randint(1, min(6, n_events - 1))
    masks = rng.sample(range(1, n_events), k)
    weights = [rng.randint(1, 10) for _ in masks]
    total = sum(weights)
    return {m: Fraction(w, total) for m, w in zip(masks, weights)}


def mass_doc(rng: random.Random, n: int) -> str:
    focal = rand_mass(rng, n)
    return _document(
        "mass", n, focal={event_key(n, m): str(v) for m, v in sorted(focal.items())}
    )


def possibility_doc(rng: random.Random, n: int, denom: int = 12) -> str:
    pi = [_rand_fraction(rng, denom) for _ in range(n)]
    pi[rng.randrange(n)] = Fraction(1)
    return _document("possibility", n, pi=_strs(pi))


def interval_doc(rng: random.Random, n: int, denom: int = 20) -> str:
    """Reachable by construction: bracket a random member, then tighten."""
    p = _rand_probability(rng, n)
    lower = [max(Fraction(0), v - _rand_fraction(rng, denom)) for v in p]
    upper = [min(Fraction(1), v + _rand_fraction(rng, denom)) for v in p]
    total_l, total_u = sum(lower), sum(upper)
    tight_l = [max(l, 1 - (total_u - u)) for l, u in zip(lower, upper)]
    tight_u = [min(u, 1 - (total_l - l)) for l, u in zip(lower, upper)]
    return _document("interval", n, l=_strs(tight_l), u=_strs(tight_u))


def pbox_doc(rng: random.Random, n: int, ties: bool, denom: int = 8) -> str:
    """Random comonotone pair; with ``ties`` crossing level ties are common."""
    alpha = sorted(_rand_fraction(rng, denom) for _ in range(n))
    beta = sorted(_rand_fraction(rng, denom) for _ in range(n))
    beta = [max(a, b) for a, b in zip(alpha, beta)]
    alpha[-1] = beta[-1] = Fraction(1)
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
    return _document("gen_pbox", n, F_low=_strs(flow), F_upp=_strs(fupp))


def _capacity_doc(n: int, table: list[Fraction]) -> str:
    return _document(
        "capacity",
        n,
        values={event_key(n, mask): str(v) for mask, v in enumerate(table)},
    )


def random_capacity_doc(rng: random.Random, n: int, denom: int = 12) -> str:
    """Random values monotonized by a cumulative max over the lattice."""
    n_events = 1 << n
    table = [_rand_fraction(rng, denom) for _ in range(n_events)]
    table[0] = Fraction(0)
    table[-1] = Fraction(1)
    for mask in range(1, n_events):
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                table[mask] = max(table[mask], table[mask ^ bit])
    return _capacity_doc(n, table)


def belief_capacity_doc(rng: random.Random, n: int) -> str:
    """The belief function of a random mass assignment, as a capacity."""
    table = [Fraction(0)] * (1 << n)
    for focal, m in rand_mass(rng, n).items():
        table[focal] = m
    for i in range(n):  # zeta transform: sum the masses over subsets
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    return _capacity_doc(n, table)
