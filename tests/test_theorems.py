"""The paper's equalities of credal sets, checked by the oracle.

Each row of ``THEOREMS`` states one equality as two sides, each computed
for every event of a seeded object: the oracle's lower envelopes of a
credal polytope, or a closed form.  A polytope cut by event bounds is
the set of distributions above its own lower envelope on every event, so
two such polytopes with equal envelopes on every event are one set.  An
intersection of credal sets is one ``CredalPolytope`` over both
constraint lists.

Each row of ``CONTROLS`` breaks one side the way a plausible mistake
would, and must disagree on some seeded object, so that the table can
catch a fault.
"""

import random
from fractions import Fraction as F

import pytest

import gen
from impbox import (
    CredalPolytope,
    FiniteSpace,
    MassAssignment,
    PossibilityDistribution,
    enumerate_events,
    interval_to_sigma_pbox,
    lower_envelopes,
    pbox,
    randomset,
    reduced_permutation_set,
)
from impbox.credal import _le_rows
from impbox.interval import to_polytope as interval_polytope
from impbox.possibility import _as_pbox, necessity, to_polytope, to_possibility_pair


def _lower(poly: CredalPolytope) -> list[F]:
    """The oracle's lower envelope of ``poly`` on every event, in mask order."""
    return [e.value for e in lower_envelopes(poly, enumerate_events(poly.space))]


def _meet(space: FiniteSpace, polys) -> CredalPolytope:
    """The intersection of credal polytopes: one polytope over all their rows."""
    return CredalPolytope(space, [row for poly in polys for row in poly.constraints])


def _pair_meet(pair) -> CredalPolytope:
    """The intersection of the credal sets of a pair of distributions."""
    return _meet(pair[0].space, map(to_polytope, pair))


def _sigma_meet(interval, sigmas) -> CredalPolytope:
    """The intersection of the interval's sigma-p-box polytopes."""
    boxes = (interval_to_sigma_pbox(interval, sigma) for sigma in sigmas)
    return _meet(interval.space, map(pbox.to_polytope, boxes))


def _pbox_lower(pb) -> list[F]:
    return [pbox.lower_prob(pb, a) for a in enumerate_events(pb.space)]


def _possibilities() -> tuple:
    rng = random.Random(307)
    return tuple(
        gen.rand_possibility(rng, gen.SPACES[rng.randint(1, 7)], denom=rng.choice([2, 3, 12]))
        for _ in range(300)
    )


def _pboxes(shape: str) -> tuple:
    """Seeded p-boxes: ``untied`` and ``tied`` from the two distributions,
    ``nested`` from levels that often repeat their neighbours' bounds."""
    rng = random.Random({"untied": 311, "tied": 313, "nested": 317}[shape])
    boxes = []
    for _ in range(200):
        sp = gen.SPACES[rng.randint(1, 6)]
        if shape == "nested":
            boxes.append(gen.rand_nested_pbox(rng, sp))
        else:
            boxes.append(gen.rand_pbox(rng, sp, denom=4, ties=shape == "tied"))
    return tuple(boxes)


def _intervals() -> tuple:
    rng = random.Random(331)
    return tuple(
        gen.rand_reachable_interval(rng, gen.SPACES[rng.randint(1, 6)]) for _ in range(150)
    )


def _all_pboxes() -> tuple:
    return _pboxes("untied") + _pboxes("tied") + _pboxes("nested")


#: name: (seeded objects, left side, right side); the sides must be equal
THEOREMS = {
    "possibility = its p-box": (
        _possibilities,
        lambda d: _lower(to_polytope(d)),
        lambda d: _lower(pbox.to_polytope(_as_pbox(d))),
    ),
    "possibility's credal set has necessity as lower envelope": (
        _possibilities,
        lambda d: _lower(to_polytope(d)),
        lambda d: [necessity(d, a) for a in enumerate_events(d.space)],
    ),
    "possibility and its p-box prune to the same rows": (
        _possibilities,
        lambda d: _le_rows(to_polytope(d)),
        lambda d: _le_rows(pbox.to_polytope(_as_pbox(d))),
    ),
    "p-box = its random set": (
        _all_pboxes,
        lambda pb: _lower(randomset.to_polytope(pbox.to_random_set(pb))),
        lambda pb: _lower(pbox.to_polytope(pb)),
    ),
    "p-box = the intersection of its possibility pair": (
        _all_pboxes,
        lambda pb: _lower(_pair_meet(to_possibility_pair(pb))),
        _pbox_lower,
    ),
    "reachable interval = the intersection of its sigma-p-boxes": (
        _intervals,
        lambda iv: _lower(_sigma_meet(iv, reduced_permutation_set(iv.space))),
        lambda iv: _lower(interval_polytope(iv)),
    ),
}


def _pair_from_largest_smaller_alpha(pb):
    """The possibility pair, with each block's lower degree read from the
    largest level alpha strictly below its own, not the previous level's
    alpha: the two differ where neighbouring levels share a lower bound."""
    alphas = pb.level_alpha
    before = [max((a for a in alphas if a < alpha), default=F(0)) for alpha in alphas]
    lower = PossibilityDistribution(pb.space, pbox._spread(pb, [1 - a for a in before]))
    return to_possibility_pair(pb)[0], lower


def _random_set_from_own_alpha(pb):
    """The threshold random set, with each block joining a focal event
    from its own level's alpha, not the previous level's: the two differ
    where neighbouring levels share a bound.  ``None`` where that puts
    mass on the empty set."""
    den, alpha, beta = pb._ints
    masses, previous = {}, 0
    for gamma in sorted({*alpha, *beta} - {0}):
        mask = sum(k for k, a, b in zip(pb.block_masks, alpha, beta) if b >= gamma > a)
        masses[mask] = masses.get(mask, 0) + gamma - previous
        previous = gamma
    if 0 not in masses:
        return MassAssignment(pb.space, {mask: F(num, den) for mask, num in masses.items()})


#: name: (seeded objects, wrong side, right side); they must differ on some object
CONTROLS = {
    "threshold random set from each block's own alpha": (
        lambda: tuple(pb for pb in _pboxes("tied") if _random_set_from_own_alpha(pb)),
        lambda pb: _lower(randomset.to_polytope(_random_set_from_own_alpha(pb))),
        lambda pb: _lower(pbox.to_polytope(pb)),
    ),
    "pair from the largest strictly smaller alpha": (
        lambda: _pboxes("tied"),
        lambda pb: _lower(_pair_meet(_pair_from_largest_smaller_alpha(pb))),
        _pbox_lower,
    ),
    "reduced order set minus its last order": (
        lambda: tuple(iv for iv in _intervals() if iv.space.size >= 3),
        lambda iv: _lower(_sigma_meet(iv, reduced_permutation_set(iv.space)[:-1])),
        lambda iv: _lower(interval_polytope(iv)),
    ),
}


def _disagreements(row) -> list:
    objects, left, right = row
    return [obj for obj in objects() if left(obj) != right(obj)]


@pytest.mark.parametrize("theorem", THEOREMS)
def test_theorem_holds_on_every_event(theorem):
    assert _disagreements(THEOREMS[theorem]) == []


@pytest.mark.parametrize("control", CONTROLS)
def test_the_table_finds_a_broken_side(control):
    assert _disagreements(CONTROLS[control]) != []
