from fractions import Fraction

import pytest

from impbox import (
    CredalPolytope,
    Event,
    FiniteSpace,
    MassAssignment,
    Permutation,
    PossibilityDistribution,
    ProbabilityInterval,
    ProbabilityVector,
    SpaceMismatchError,
    SpaceSizeError,
    ValidationError,
    convert,
    credal,
    enumerate_events,
    from_functions,
    interval,
    pbox,
    possibility,
    randomset,
    validate_capacity,
)
from impbox.capacity import mobius_masses


def test_labels_must_be_distinct_and_nonempty():
    with pytest.raises(ValidationError):
        FiniteSpace(["a", "a"])
    with pytest.raises(ValidationError):
        FiniteSpace(["a", ""])
    with pytest.raises(ValidationError):
        FiniteSpace([])


def test_size_cap():
    FiniteSpace([f"e{i}" for i in range(24)])
    with pytest.raises(SpaceSizeError):
        FiniteSpace([f"e{i}" for i in range(25)])


def test_event_union():
    sp = FiniteSpace(["x1", "x2"])
    assert sp.event(["x1"]) | sp.event(["x2"]) == sp.full


def test_event_complement_law():
    sp = FiniteSpace(["x1", "x2", "x3"])
    a = sp.event(["x1", "x3"])
    assert (a & a.complement()).is_empty
    assert a | a.complement() == sp.full
    assert a.complement().complement() == a


def test_event_inclusion():
    sp = FiniteSpace([f"x{i}" for i in range(1, 6)])
    assert sp.event(["x1", "x2", "x3"]).issubset(sp.full)
    assert not sp.full.issubset(sp.event(["x1"]))


def test_event_mask_range():
    sp = FiniteSpace(["x1", "x2"])
    with pytest.raises(ValidationError):
        Event(sp, 0b100)


def test_mismatched_spaces():
    a = FiniteSpace(["x1", "x2"]).event(["x1"])
    b = FiniteSpace(["y1", "y2"]).event(["y1"])
    with pytest.raises(SpaceMismatchError):
        a | b


@pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (6, 64)])
def test_enumerate_events_count_and_uniqueness(n, count):
    sp = FiniteSpace([f"x{i}" for i in range(n)])
    events = list(enumerate_events(sp))
    assert len(events) == count
    assert len(set(e.mask for e in events)) == count


def test_permutation_is_bijection():
    Permutation([2, 0, 1])
    with pytest.raises(ValidationError):
        Permutation([0, 0, 1])


def test_permutation_from_labels():
    sp = FiniteSpace(["a", "b", "c"])
    sigma = Permutation.from_labels(sp, ["c", "a", "b"])
    assert sigma.order == (2, 0, 1)
    assert sigma.first() == 2 and sigma.last() == 1


# a model on SP given an event, vector or constraint from OTHER, which has
# the same size, so only the space check can catch it
SP = FiniteSpace(["x1", "x2", "x3"])
OTHER = FiniteSpace(["y1", "y2", "y3"])
HALF = Fraction(1, 2)
_PI = PossibilityDistribution(SP, [1, HALF, 0])
_IV = ProbabilityInterval(SP, [0, 0, 0], [HALF, HALF, 1])
_PB = from_functions(SP, [0, HALF, 1], [HALF, 1, 1])
_MS = MassAssignment(SP, {SP.full: 1})
_P = ProbabilityVector(SP, [HALF, HALF, 0])
_POLY = CredalPolytope(SP, [(SP.full, 1, 1)])
_A = OTHER.event(["y1"])
_Q = ProbabilityVector(OTHER, [HALF, HALF, 0])

MISMATCHES = {
    "possibility.possibility": lambda: possibility.possibility(_PI, _A),
    "possibility.necessity": lambda: possibility.necessity(_PI, _A),
    "possibility.sufficiency": lambda: possibility.sufficiency(_PI, _A),
    "possibility.contains": lambda: possibility.contains(_PI, _Q),
    "interval.event_bounds": lambda: interval.event_bounds(_IV, _A),
    "interval.conjunction": lambda: interval.conjunction(
        _IV, ProbabilityInterval(OTHER, _IV.lower, _IV.upper)
    ),
    "pbox.from_nested_sets": lambda: pbox.from_nested_sets(SP, [(_A, 0, HALF)]),
    "pbox.lower_prob": lambda: pbox.lower_prob(_PB, _A),
    "pbox.upper_prob": lambda: pbox.upper_prob(_PB, _A),
    "pbox.lower_prob_via_possibility": lambda: pbox.lower_prob_via_possibility(_PB, _A),
    "randomset.MassAssignment": lambda: MassAssignment(SP, {OTHER.full: 1}),
    "randomset.bel": lambda: randomset.bel(_MS, _A),
    "randomset.pl": lambda: randomset.pl(_MS, _A),
    "capacity.mobius_masses": lambda: mobius_masses(SP, {OTHER.full: 1}),
    "capacity.validate_capacity": lambda: validate_capacity(
        SP, {e: int(e.is_full) for e in enumerate_events(OTHER)}
    ),
    "credal.ProbabilityVector.prob": lambda: _P.prob(_A),
    "credal.CredalPolytope": lambda: CredalPolytope(SP, [(_A, 0, HALF)]),
    "credal.is_member": lambda: credal.is_member(_POLY, _Q),
    "credal.lower_envelope": lambda: credal.lower_envelope(_POLY, _A),
    "credal.upper_envelope": lambda: credal.upper_envelope(_POLY, _A),
    "convert.interval_to_sigma_pbox": lambda: convert.interval_to_sigma_pbox(
        _IV, Permutation.identity(2)
    ),
}


@pytest.mark.parametrize("call", MISMATCHES.values(), ids=MISMATCHES)
def test_a_foreign_space_raises_space_mismatch(call):
    with pytest.raises(SpaceMismatchError):
        call()
