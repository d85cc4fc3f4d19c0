from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import reference
from impbox import (
    Capacity,
    CredalPolytope,
    Event,
    FiniteSpace,
    MassAssignment,
    MobiusAssignment,
    Permutation,
    PossibilityDistribution,
    ProbabilityInterval,
    ProbabilityVector,
    SpaceMismatchError,
    SpaceSizeError,
    ValidationError,
    capacity_from_probability,
    convert,
    credal,
    docio,
    enumerate_events,
    from_functions,
    interval,
    pbox,
    possibility,
    randomset,
)
from impbox._exact import too_long_message


def test_labels_must_be_distinct_and_nonempty():
    with pytest.raises(ValidationError):
        FiniteSpace(["a", "a"])
    with pytest.raises(ValidationError):
        FiniteSpace(["a", ""])
    with pytest.raises(ValidationError):
        FiniteSpace([])
    for labels in ([1, 2], ["a", None], [b"a"]):
        with pytest.raises(ValidationError, match="non-empty strings"):
            FiniteSpace(labels)


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


def test_derived_events_equal_and_hash_like_fresh_ones(monkeypatch):
    sp = FiniteSpace(["x1", "x2", "x3"])
    half = Fraction(1, 2)
    a, b = sp.event(["x1", "x3"]), sp.event(["x2", "x3"])
    pb = from_functions(sp, [0, half, 1], [half, 1, 1])
    built = [
        *enumerate_events(sp), a.complement(), a | b, a & b, a - b, sp.full, sp.empty,
        *(event for event, _, _ in pb.levels()), *(Event(sp, m) for m in pb.block_masks),
        possibility.alpha_cut(PossibilityDistribution(sp, [1, half, 0]), half),
        docio._event(sp, "x3,x1", "--event"),
    ]
    # events that live only inside a call: the sigma-p-box prefixes, the
    # terms of reference.lower_prob_via_possibility
    init = Event.__init__

    def keep(event, space, mask):
        init(event, space, mask)
        built.append(event)

    monkeypatch.setattr(Event, "__init__", keep)
    convert.interval_to_sigma_pbox(
        ProbabilityInterval(sp, [0, 0, 0], [half, half, 1]), Permutation([2, 0, 1])
    )
    prefixes = [event.mask for event in built[-3:]]
    reference.lower_prob_via_possibility(pb, a)
    monkeypatch.undo()
    assert prefixes == [0b100, 0b101, 0b111]
    for event in built:
        fresh = Event(FiniteSpace(sp.labels), event.mask)
        assert type(event) is Event
        assert event == fresh and hash(event) == hash(fresh)
        assert repr(event) == repr(fresh)
        assert (event.space, event.mask) == (fresh.space, fresh.mask)
        assert not hasattr(event, "__dict__")
        with pytest.raises(FrozenInstanceError):
            event.mask = 0


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
    assert sigma.order[0] == 2 and sigma.order[-1] == 1


# a model on SP given an event, vector or constraint from another space of
# the same size, so only the space check can catch a foreign one
SP = FiniteSpace(["x1", "x2", "x3"])
OTHER = FiniteSpace(["y1", "y2", "y3"])
TWIN = FiniteSpace(list(SP.labels))  # equal to SP, built apart
HALF = Fraction(1, 2)
_PI = PossibilityDistribution(SP, [1, HALF, 0])
_IV = ProbabilityInterval(SP, [0, 0, 0], [HALF, HALF, 1])
_PB = from_functions(SP, [0, HALF, 1], [HALF, 1, 1])
_MS = MassAssignment(SP, {SP.full: 1})
_C = capacity_from_probability(SP, [HALF, HALF, 0])
_M = MobiusAssignment(SP, {SP.full: 1})
_P = ProbabilityVector(SP, [HALF, HALF, 0])
_POLY = CredalPolytope(SP, [(SP.full, 1, 1)])


def _entry_points(other):
    """Each public entry point called with an event, vector or constraint of other."""
    a = other.event(other.labels[:1])
    q = ProbabilityVector(other, [HALF, HALF, 0])
    return {
        "possibility.possibility": lambda: possibility.possibility(_PI, a),
        "possibility.necessity": lambda: possibility.necessity(_PI, a),
        "possibility.sufficiency": lambda: possibility.sufficiency(_PI, a),
        "possibility.contains": lambda: possibility.contains(_PI, q),
        "interval.event_bounds": lambda: interval.event_bounds(_IV, a),
        "interval.conjunction": lambda: interval.conjunction(
            _IV, ProbabilityInterval(other, _IV.lower, _IV.upper)
        ),
        "pbox.from_nested_sets": lambda: pbox.from_nested_sets(SP, [(a, 0, HALF)]),
        "pbox.lower_prob": lambda: pbox.lower_prob(_PB, a),
        "pbox.upper_prob": lambda: pbox.upper_prob(_PB, a),
        "reference.lower_prob_via_possibility": lambda: reference.lower_prob_via_possibility(_PB, a),
        "randomset.MassAssignment": lambda: MassAssignment(SP, {other.full: 1}),
        "randomset.bel": lambda: randomset.bel(_MS, a),
        "randomset.pl": lambda: randomset.pl(_MS, a),
        "capacity.Capacity.__call__": lambda: _C(a),
        "capacity.MobiusAssignment.__call__": lambda: _M(a),
        "capacity.MobiusAssignment": lambda: MobiusAssignment(SP, {other.full: 1}),
        "capacity.Capacity": lambda: Capacity(
            SP, {e: int(e.is_full) for e in enumerate_events(other)}
        ),
        "credal.ProbabilityVector.prob": lambda: _P.prob(a),
        "credal.CredalPolytope": lambda: CredalPolytope(SP, [(a, 0, HALF)]),
        "credal.is_member": lambda: credal.is_member(_POLY, q),
        "credal.lower_envelope": lambda: credal.lower_envelope(_POLY, a),
        "credal.lower_envelopes": lambda: credal.lower_envelopes(_POLY, [a]),
        # a batch of 2**n events is answered from tables; its last is foreign
        "credal.lower_envelopes(sweep)": lambda: credal.lower_envelopes(
            _POLY, list(enumerate_events(SP))[1:] + [a]
        ),
        "credal.upper_envelope": lambda: credal.upper_envelope(_POLY, a),
        # a permutation has no space, only a size: the order is given by
        # the labels of SP that other also has, none for OTHER
        "convert.interval_to_sigma_pbox": lambda: convert.interval_to_sigma_pbox(
            _IV, Permutation.from_labels(SP, (x for x in other.labels if x in SP.labels))
        ),
    }


MISMATCHES = _entry_points(OTHER)


@pytest.mark.parametrize("name", MISMATCHES)
def test_a_foreign_space_raises_space_mismatch(name):
    with pytest.raises(SpaceMismatchError):
        MISMATCHES[name]()
    # spaces are compared by identity first, then by value
    _entry_points(TWIN)[name]()


#: each builder that checks a unit total, from the masses or probabilities
#: of the two singletons, with the noun its message uses
UNIT_TOTALS = {
    "ProbabilityVector": (lambda sp, a, b: ProbabilityVector(sp, [a, b]), "probabilities"),
    "MassAssignment": (lambda sp, a, b: MassAssignment(sp, {0b01: a, 0b10: b}), "masses"),
    "MobiusAssignment": (lambda sp, a, b: MobiusAssignment(sp, {0b01: a, 0b10: b}), "masses"),
    "capacity_from_probability": (
        lambda sp, a, b: capacity_from_probability(sp, [a, b]),
        "masses",
    ),
}


@pytest.mark.parametrize("build, what", UNIT_TOTALS.values(), ids=UNIT_TOTALS)
def test_every_unit_total_is_checked_by_one_rule(build, what):
    sp = FiniteSpace(["a", "b"])
    with pytest.raises(ValidationError) as exc:
        build(sp, HALF, Fraction(1, 4))
    assert str(exc.value) == f"{what} must sum to 1, got 3/4"
    # each value prints, but their sum's denominator has about 4400 digits
    with pytest.raises(ValidationError) as exc:
        build(sp, Fraction(1, 10**2200 + 1), Fraction(1, 10**2200 + 3))
    assert str(exc.value) == too_long_message()
