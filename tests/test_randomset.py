import random
from fractions import Fraction as F

import pytest

import gen
from impbox import (
    FiniteSpace,
    MassAssignment,
    ValidationError,
    bel,
    enumerate_events,
    pl,
)
from impbox.possibility import PossibilityDistribution
from impbox.possibility import to_random_set as poss_to_random_set
from impbox.randomset import (
    contour,
    is_nested,
    simple_support,
    to_interval,
    to_polytope,
)


def test_canonical_form_drops_zero_and_merges():
    sp = FiniteSpace(["x1", "x2"])
    # same focal set given once as an Event key and once as a raw mask
    ms = MassAssignment(
        sp,
        {sp.event(["x1"]): F(1, 2), 0b01: F(1, 4), 0b11: F(1, 4), 0b10: F(0)},
    )
    assert ms.focal == ((0b01, F(3, 4)), (0b11, F(1, 4)))


def test_mass_validation():
    sp = FiniteSpace(["x1", "x2"])
    with pytest.raises(ValidationError):
        MassAssignment(sp, {0b01: F(1, 2)})  # does not sum to 1
    with pytest.raises(ValidationError):
        MassAssignment(sp, {0b00: F(1, 2), 0b11: F(1, 2)})  # empty focal
    with pytest.raises(ValidationError):
        MassAssignment(sp, {0b01: F(-1, 2), 0b11: F(3, 2)})  # negative


def test_bel_of_prefix_event(expert_mass, space6):
    assert bel(expert_mass, space6.event(["x1", "x2", "x3"])) == F(1, 5)


def test_pl_of_singleton(expert_mass, space6):
    assert pl(expert_mass, space6.event(["x3"])) == F(7, 10)


def test_bel_boundaries(expert_mass, space6):
    assert bel(expert_mass, space6.full) == 1
    assert bel(expert_mass, space6.empty) == 0


def test_conjugacy_of_bel_pl(expert_mass, space6):
    for event in enumerate_events(space6):
        assert pl(expert_mass, event) == 1 - bel(expert_mass, event.complement())


def test_contour_of_simple_support():
    sp = FiniteSpace(["x1", "x2", "x3"])
    ms = simple_support(sp.event(["x1", "x2"]), F(4, 5))
    assert contour(ms) == (F(1), F(1), F(1, 5))


def test_contour_of_vacuous():
    sp = FiniteSpace(["x1", "x2"])
    ms = MassAssignment(sp, {0b11: F(1)})
    assert contour(ms) == (F(1), F(1))


def test_contour_of_expert_mass(expert_mass):
    assert contour(expert_mass) == (
        F(3, 10),
        F(3, 10),
        F(7, 10),
        F(7, 10),
        F(7, 10),
        F(1, 2),
    )


def test_is_nested():
    sp = FiniteSpace(["x1", "x2", "x3"])
    d = PossibilityDistribution(sp, [F(1), F(1, 2), F(1, 4)])
    assert is_nested(poss_to_random_set(d))
    single = MassAssignment(sp, {0b011: F(1)})
    assert is_nested(single)


def test_expert_mass_not_nested(expert_mass):
    assert not is_nested(expert_mass)


def test_simple_support_degenerate_masses():
    sp = FiniteSpace(["x1", "x2"])
    a = sp.event(["x1"])
    assert simple_support(a, F(1)).focal == ((0b01, F(1)),)
    assert simple_support(a, F(0)).focal == ((0b11, F(1)),)
    assert simple_support(sp.full, F(1, 3)).focal == ((0b11, F(1)),)
    assert simple_support(sp.full, F(1)).focal == ((0b11, F(1)),)
    with pytest.raises(ValidationError):
        simple_support(sp.empty, F(1, 2))


def test_to_interval_of_expert_mass(expert_mass):
    iv = to_interval(expert_mass)
    assert iv.lower == (F(0), F(0), F(0), F(0), F(0), F(1, 10))
    assert iv.upper == (F(3, 10), F(3, 10), F(7, 10), F(7, 10), F(7, 10), F(1, 2))
    assert iv.reachable


def test_to_interval_vacuous_and_precise():
    sp = FiniteSpace(["x1", "x2"])
    vac = to_interval(MassAssignment(sp, {0b11: F(1)}))
    assert vac.lower == (F(0), F(0)) and vac.upper == (F(1), F(1))
    precise = to_interval(MassAssignment(sp, {0b01: F(1, 3), 0b10: F(2, 3)}))
    assert precise.lower == precise.upper == (F(1, 3), F(2, 3))


def test_to_interval_is_always_reachable():
    rng = random.Random(17)
    for _ in range(40):
        ms = gen.rand_mass(rng, gen.SPACES[rng.randint(1, 5)])
        assert to_interval(ms).reachable


def test_to_polytope_vacuous_is_unconstrained():
    sp = FiniteSpace(["x1", "x2"])
    poly = to_polytope(MassAssignment(sp, {0b11: F(1)}))
    assert all(lo == 0 and hi == 1 for _, lo, hi in poly.constraints)


def test_to_polytope_of_precise_mass_pins_the_vector():
    sp = FiniteSpace(["x1", "x2"])
    poly = to_polytope(MassAssignment(sp, {0b01: F(1, 3), 0b10: F(2, 3)}))
    bounds = {e.mask: (lo, hi) for e, lo, hi in poly.constraints}
    assert bounds[0b01] == (F(1, 3), F(1, 3))
    assert bounds[0b10] == (F(2, 3), F(2, 3))


def test_nested_bel_satisfies_min_rule():
    rng = random.Random(23)
    sp = gen.SPACES[4]
    for _ in range(20):
        d = gen.rand_possibility(rng, sp)
        ms = poss_to_random_set(d)
        assert is_nested(ms)
        events = list(enumerate_events(sp))
        for a in events:
            for b in events:
                assert bel(ms, a & b) == min(bel(ms, a), bel(ms, b))
