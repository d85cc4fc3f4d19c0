import random
from fractions import Fraction as F

import pytest

import gen
from impbox import (
    FiniteSpace,
    InfeasibleError,
    NotReachableError,
    ProbabilityInterval,
    conjunction,
    enumerate_events,
    event_bounds,
    is_2_monotone,
    lower_envelope,
    normalize,
    upper_envelope,
    validate_capacity,
)
from impbox.interval import to_polytope


@pytest.fixture
def interval3():
    sp = FiniteSpace(["x1", "x2", "x3"])
    return ProbabilityInterval(
        sp,
        [F(1, 10), F(1, 5), F(3, 10)],
        [F(2, 5), F(1, 2), F(3, 5)],
    )


def test_nonempty_and_reachable(interval3):
    assert interval3.non_empty
    assert interval3.reachable


def test_empty_when_lowers_exceed_one():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(3, 5), F(3, 5)], [F(1), F(1)])
    assert not iv.non_empty


def test_empty_when_uppers_fall_short():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(0), F(0)], [F(3, 10), F(3, 10)])
    assert not iv.non_empty


def test_normalize_tightens():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(1, 5), F(1, 10)], [F(1, 2), F(3, 5)])
    out = normalize(iv)
    assert out.lower == (F(2, 5), F(1, 2))
    assert out.upper == (F(1, 2), F(3, 5))
    assert out.reachable


def test_normalize_is_identity_on_reachable(interval3):
    out = normalize(interval3)
    assert (out.lower, out.upper) == (interval3.lower, interval3.upper)


def test_normalize_point_interval():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)])
    out = normalize(iv)
    assert out.lower == out.upper == (F(1, 3), F(2, 3))


def test_normalize_empty_raises():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(3, 5), F(3, 5)], [F(1), F(1)])
    with pytest.raises(InfeasibleError):
        normalize(iv)


def test_event_bounds_whole_space(interval3):
    assert event_bounds(interval3, interval3.space.full) == (F(1), F(1))


def test_event_bounds_pair(interval3):
    a = interval3.space.event(["x1", "x2"])
    assert event_bounds(interval3, a) == (F(2, 5), F(7, 10))


def test_event_bounds_singleton_reads_the_bounds(interval3):
    for i in range(3):
        a = interval3.space.singleton(i)
        assert event_bounds(interval3, a) == (interval3.lower[i], interval3.upper[i])


def test_event_bounds_requires_reachability():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(1, 5), F(1, 10)], [F(1, 2), F(3, 5)])
    assert not iv.reachable
    with pytest.raises(NotReachableError):
        event_bounds(iv, sp.event(["x1"]))


def test_conjunction_idempotent(interval3):
    out = conjunction(interval3, interval3)
    assert (out.lower, out.upper) == (interval3.lower, interval3.upper)


def test_conjunction_elementwise():
    sp = FiniteSpace(["x1", "x2"])
    a = ProbabilityInterval(sp, [F(1, 10), F(0)], [F(1), F(1)])
    b = ProbabilityInterval(sp, [F(0), F(1, 5)], [F(3, 5), F(1)])
    out = conjunction(a, b)
    assert out.lower == (F(1, 10), F(1, 5))
    assert out.upper == (F(3, 5), F(1))


def test_conjunction_emptiness_is_a_flag_not_an_exception():
    sp = FiniteSpace(["x1", "x2"])
    a = ProbabilityInterval(sp, [F(4, 5), F(0)], [F(1), F(1, 5)])
    b = ProbabilityInterval(sp, [F(0), F(4, 5)], [F(1, 5), F(1)])
    out = conjunction(a, b)
    assert not out.non_empty


def test_event_bounds_match_oracle(interval3):
    poly = to_polytope(interval3)
    for event in enumerate_events(interval3.space):
        lo, hi = event_bounds(interval3, event)
        assert lo == lower_envelope(poly, event).value
        assert hi == upper_envelope(poly, event).value


def test_normalize_preserves_the_polytope():
    rng = random.Random(31)
    sp = gen.SPACES[3]
    for _ in range(10):
        p = gen.rand_probability(rng, sp)
        lower = [max(F(0), v - gen.rand_fraction(rng)) for v in p.p]
        upper = [min(F(1), v + gen.rand_fraction(rng)) for v in p.p]
        raw = ProbabilityInterval(sp, lower, upper)
        tight = normalize(raw)
        raw_poly, tight_poly = to_polytope(raw), to_polytope(tight)
        for event in enumerate_events(sp):
            assert (
                lower_envelope(raw_poly, event).value
                == lower_envelope(tight_poly, event).value
            )


def test_lower_capacity_is_2_monotone(interval3):
    table = [event_bounds(interval3, e)[0] for e in enumerate_events(interval3.space)]
    assert is_2_monotone(validate_capacity(interval3.space, table))
