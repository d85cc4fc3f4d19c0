import random
from fractions import Fraction as F

import pytest

import gen
import reference
from impbox import (
    FiniteSpace,
    PossibilityDistribution,
    ProbabilityVector,
    ValidationError,
    bel,
    enumerate_events,
    is_member,
    pbox,
    pl,
)
from impbox.possibility import (
    _as_pbox,
    alpha_cut,
    contains,
    necessity,
    possibility,
    sufficiency,
    to_polytope,
    to_random_set,
)


@pytest.fixture
def pi_upper(space6):
    """The upper distribution of the running expert example."""
    return PossibilityDistribution(
        space6, [F(3, 10), F(3, 10), F(7, 10), F(9, 10), F(9, 10), F(1)]
    )


def test_normalization_required():
    sp = FiniteSpace(["x1", "x2"])
    with pytest.raises(ValidationError):
        PossibilityDistribution(sp, [F(1, 2), F(1, 2)])


def test_measures_on_expert_upper(pi_upper, space6):
    a = space6.event(["x1", "x2"])
    assert possibility(pi_upper, a) == F(3, 10)
    assert necessity(pi_upper, a) == F(0)  # the complement still holds value 1 at x6


def test_measures_whole_space(pi_upper, space6):
    full = space6.full
    assert possibility(pi_upper, full) == 1 and necessity(pi_upper, full) == 1


def test_measures_direct_read():
    sp = FiniteSpace(["x1", "x2"])
    d = PossibilityDistribution(sp, [F(1), F(2, 5)])
    a = sp.event(["x2"])
    assert (possibility(d, a), necessity(d, a), sufficiency(d, a)) == (F(2, 5), F(0), F(2, 5))


def test_empty_event_conventions(pi_upper, space6):
    assert possibility(pi_upper, space6.empty) == 0
    assert sufficiency(pi_upper, space6.empty) == 1
    assert necessity(pi_upper, space6.empty) == 0


def test_alpha_cut_regular(pi_upper, space6):
    assert alpha_cut(pi_upper, F(7, 10)) == space6.event(["x3", "x4", "x5", "x6"])


def test_alpha_cut_extremes(pi_upper, space6):
    assert alpha_cut(pi_upper, F(0)) == space6.full
    assert alpha_cut(pi_upper, F(1), strong=True) == space6.empty


def test_contains_binding_level():
    sp = FiniteSpace(["x1", "x2"])
    d = PossibilityDistribution(sp, [F(1), F(1, 2)])
    assert contains(d, ProbabilityVector(sp, [F(3, 5), F(2, 5)]))
    assert not contains(d, ProbabilityVector(sp, [F(3, 10), F(7, 10)]))


def test_vacuous_distribution_contains_everything():
    rng = random.Random(5)
    sp = gen.SPACES[4]
    d = PossibilityDistribution(sp, [F(1)] * 4)
    for _ in range(10):
        assert contains(d, gen.rand_probability(rng, sp))


def test_to_random_set_of_expert_upper(pi_upper, space6):
    ms = to_random_set(pi_upper)
    expected = {
        space6.full.mask: F(3, 10),
        space6.event(["x3", "x4", "x5", "x6"]).mask: F(2, 5),
        space6.event(["x4", "x5", "x6"]).mask: F(1, 5),
        space6.event(["x6"]).mask: F(1, 10),
    }
    assert dict(ms.focal) == expected


def test_to_random_set_vacuous_and_precise():
    sp = FiniteSpace(["x1", "x2"])
    vac = to_random_set(PossibilityDistribution(sp, [F(1), F(1)]))
    assert vac.focal == ((0b11, F(1)),)
    point = to_random_set(PossibilityDistribution(sp, [F(1), F(0)]))
    assert point.focal == ((0b01, F(1)),)


def test_min_max_characteristic_properties():
    rng = random.Random(41)
    for _ in range(25):
        sp = gen.SPACES[rng.randint(2, 4)]
        d = gen.rand_possibility(rng, sp)
        events = list(enumerate_events(sp))
        for a in events:
            for b in events:
                assert necessity(d, a & b) == min(necessity(d, a), necessity(d, b))
                assert possibility(d, a | b) == max(
                    possibility(d, a), possibility(d, b)
                )


def test_contains_matches_polytope_membership():
    """Membership in pi's credal set is membership in its p-box's."""
    rng = random.Random(43)
    for _ in range(25):
        sp = gen.SPACES[rng.randint(2, 4)]
        d = gen.rand_possibility(rng, sp)
        poly = pbox.to_polytope(_as_pbox(d))
        for _ in range(20):
            p = gen.rand_probability(rng, sp)
            assert contains(d, p) == is_member(poly, p)


def test_transform_bel_equals_necessity_and_contour_roundtrip():
    rng = random.Random(47)
    from impbox.randomset import contour, is_nested

    for _ in range(25):
        sp = gen.SPACES[rng.randint(2, 5)]
        d = gen.rand_possibility(rng, sp)
        ms = to_random_set(d)
        assert is_nested(ms)
        assert contour(ms) == d.pi
        for event in enumerate_events(sp):
            assert (bel(ms, event), pl(ms, event)) == reference.possibility_bounds(d, event)


def test_the_random_set_is_built_once_and_shared():
    """The first bound query builds the distribution's random set, which
    then answers every bound and is what ``to_random_set`` returns."""
    from impbox.randomset import is_nested

    sp = gen.SPACES[4]
    d = PossibilityDistribution(sp, [F(1, 3), F(1), F(0), F(2, 3)])
    assert "_random_set" not in vars(d)
    necessity(d, sp.event(["x2"]))
    ms = to_random_set(d)
    assert ms is to_random_set(d) is vars(d)["_random_set"]
    assert is_nested(ms)


def test_pbox_is_the_one_built_level_by_level():
    rng = random.Random(53)
    for _ in range(300):
        sp = FiniteSpace([f"x{i}" for i in range(rng.randint(1, 9))])
        d = gen.rand_possibility(rng, sp, denom=rng.choice([2, 3, 12]))
        assert _as_pbox(d) == reference.possibility_pbox(d)
