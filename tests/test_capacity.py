import random
import sys
from fractions import Fraction as F

import pytest

import gen
from impbox import (
    FiniteSpace,
    MassAssignment,
    SpaceMismatchError,
    ValidationError,
    capacity,
    capacity_from_probability,
    conjugate,
    enumerate_events,
    is_2_monotone,
    is_additive,
    is_infty_monotone,
    mobius_inverse,
    mobius_transform,
    validate_capacity,
)
from impbox.capacity import find_2_monotone_violation, mobius_masses
from impbox.randomset import bel


def bel_capacity(ms):
    """The belief function of a mass assignment as a full capacity table."""
    return validate_capacity(
        ms.space, [bel(ms, e) for e in enumerate_events(ms.space)]
    )


@pytest.fixture
def two_point_six():
    """mu({x1}) = mu({x2}) = 0.6 on two elements: monotone, not 2-monotone."""
    sp = FiniteSpace(["x1", "x2"])
    return validate_capacity(sp, [F(0), F(3, 5), F(3, 5), F(1)])


def test_additive_capacity_is_valid():
    sp = FiniteSpace(["x1", "x2"])
    c = capacity_from_probability(sp, [F(1, 2), F(1, 2)])
    assert c(sp.event(["x1"])) == F(1, 2)


def test_boundary_violation():
    sp = FiniteSpace(["x1"])
    with pytest.raises(ValidationError):
        validate_capacity(sp, [F(1, 10), F(1)])
    with pytest.raises(ValidationError):
        validate_capacity(sp, [F(0), F(9, 10)])


def test_monotonicity_violation_reports_witness():
    sp = FiniteSpace(["x1", "x2", "x3"])
    values = {
        0b000: F(0),
        0b001: F(3, 5),
        0b010: F(0),
        0b011: F(1, 2),  # below its subset {x1}
        0b100: F(0),
        0b101: F(3, 5),
        0b110: F(0),
        0b111: F(1),
    }
    with pytest.raises(ValidationError) as exc:
        validate_capacity(sp, values)
    assert exc.value.witness is not None


def test_belief_of_expert_mass_is_valid_capacity(expert_mass):
    bel_capacity(expert_mass)


def test_additive_is_self_conjugate():
    sp = FiniteSpace(["x1", "x2", "x3"])
    c = capacity_from_probability(sp, [F(1, 4), F(1, 4), F(1, 2)])
    assert conjugate(c) == c


def test_conjugate_involution():
    rng = random.Random(7)
    for _ in range(20):
        c = gen.rand_capacity(rng, gen.SPACES[3])
        assert conjugate(conjugate(c)) == c


def test_conjugate_of_belief_is_plausibility(expert_mass):
    c = bel_capacity(expert_mass)
    x3 = expert_mass.space.event(["x3"])
    assert conjugate(c)(x3) == F(7, 10)


def test_mobius_of_additive_capacity_sits_on_singletons():
    sp = FiniteSpace(["x1", "x2"])
    m = mobius_transform(capacity_from_probability(sp, [F(1, 2), F(1, 2)]))
    assert m.masses == (F(0), F(1, 2), F(1, 2), F(0))


def test_mobius_of_belief_recovers_masses(expert_mass):
    m = mobius_transform(bel_capacity(expert_mass))
    nonzero = {mask: v for mask, v in enumerate(m.masses) if v != 0}
    assert nonzero == expert_mass.as_dict()


def test_mobius_can_be_negative(two_point_six):
    m = mobius_transform(two_point_six)
    assert m.masses[0b11] == F(-1, 5)


def test_mobius_inverse_of_vacuous_mass():
    sp = FiniteSpace(["x1", "x2"])
    m = mobius_masses(sp, {0b11: F(1)})
    c = mobius_inverse(m)
    assert c.values == (F(0), F(0), F(0), F(1))


def test_mobius_inverse_of_expert_masses(expert_mass, space6):
    m = mobius_masses(space6, dict(expert_mass.focal))
    c = mobius_inverse(m)
    assert c(space6.event(["x1", "x2", "x3"])) == F(1, 5)


def test_mobius_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        c = gen.rand_capacity(rng, gen.SPACES[rng.randint(1, 4)])
        assert mobius_inverse(mobius_transform(c)) == c


def test_mobius_masses_validation():
    sp = FiniteSpace(["x1"])
    with pytest.raises(ValidationError):
        mobius_masses(sp, [F(1, 2), F(1, 2)])  # empty set carries mass
    with pytest.raises(ValidationError):
        mobius_masses(sp, [F(0), F(1, 2)])  # does not sum to 1


def test_probability_measure_is_2_monotone():
    sp = FiniteSpace(["x1", "x2", "x3"])
    assert is_2_monotone(capacity_from_probability(sp, [F(1, 6), F(1, 3), F(1, 2)]))


def test_2_monotone_violation_witness(two_point_six):
    pair = find_2_monotone_violation(two_point_six)
    assert pair is not None
    a, b = pair
    v = two_point_six.values
    assert v[a.mask | b.mask] + v[a.mask & b.mask] < v[a.mask] + v[b.mask]


def test_infty_monotone_examples(expert_mass, two_point_six):
    assert is_infty_monotone(bel_capacity(expert_mass))
    assert not is_infty_monotone(two_point_six)


def test_infty_implies_2_monotone():
    rng = random.Random(13)
    hits = 0
    for _ in range(60):
        ms = gen.rand_mass(rng, gen.SPACES[4])
        c = bel_capacity(ms)
        assert is_infty_monotone(c)
        assert is_2_monotone(c)
        hits += 1
    assert hits == 60


def test_is_additive():
    sp = FiniteSpace(["x1", "x2"])
    assert is_additive(capacity_from_probability(sp, [F(3, 10), F(7, 10)]))
    vacuous = validate_capacity(sp, [F(0), F(0), F(0), F(1)])
    assert not is_additive(vacuous)


def test_expert_belief_not_additive(expert_mass):
    assert not is_additive(bel_capacity(expert_mass))


def _mixed_capacity(rng, space):
    """Values drawn over different denominators, monotonized like gen's."""
    table = [F(0)] * (1 << space.size)
    for mask in range(1, len(table) - 1):
        denom = rng.choice([2, 3, 5, 7, 12, 60])
        table[mask] = F(rng.randint(0, denom), denom)
    table[-1] = F(1)
    for mask in range(1, len(table)):
        for i in range(space.size):
            if mask & 1 << i:
                table[mask] = max(table[mask], table[mask ^ 1 << i])
    return validate_capacity(space, table)


def _violates(c, pair):
    a, b = pair
    v = c.values
    return v[a.mask | b.mask] + v[a.mask & b.mask] < v[a.mask] + v[b.mask]


def test_2_monotone_agrees_with_the_pairwise_definition():
    rng = random.Random(17)
    seen = set()
    for _ in range(150):
        sp = gen.SPACES[rng.randint(1, 5)]
        if rng.random() < 0.3:
            c = bel_capacity(gen.rand_mass(rng, sp))
        else:
            c = gen.rand_capacity(rng, sp, denom=rng.choice([2, 3, 6, 12, 35]))
        expected = gen.is_k_monotone_bruteforce(c, 2)
        assert is_2_monotone(c) == expected
        pair = find_2_monotone_violation(c)
        assert (pair is None) == expected
        if pair is not None:
            assert _violates(c, pair)
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_violation_planted_at_the_top_of_the_lattice_is_found(n):
    """Raise one (n-1)-set of the uniform probability, where every local
    inequality is tight: only sets S with |S| = n - 2 then break it."""
    rng = random.Random(n)
    sp = gen.SPACES[n]
    full = (1 << n) - 1
    for _ in range(10):
        values = [F(mask.bit_count(), n) for mask in range(full + 1)]
        values[full ^ 1 << rng.randrange(n)] += F(1, 2 * n)
        c = validate_capacity(sp, values)
        pair = find_2_monotone_violation(c)
        assert pair is not None
        assert _violates(c, pair)
        assert (pair[0].mask & pair[1].mask).bit_count() == n - 2
        assert not is_2_monotone(c)


def test_2_monotone_on_one_and_two_elements(two_point_six):
    one = FiniteSpace(["x1"])
    assert is_2_monotone(validate_capacity(one, [F(0), F(1)]))
    two = FiniteSpace(["x1", "x2"])
    assert is_2_monotone(validate_capacity(two, [F(0), F(1, 5), F(2, 7), F(1)]))
    assert is_2_monotone(validate_capacity(two, [F(0), F(2, 5), F(3, 5), F(1)]))
    assert not is_2_monotone(validate_capacity(two, [F(0), F(1, 2), F(4, 7), F(1)]))
    assert find_2_monotone_violation(two_point_six) == (
        two.event(["x1"]),
        two.event(["x2"]),
    )


def test_classification_reads_the_mobius_masses():
    rng = random.Random(19)
    seen = set()
    for _ in range(150):
        sp = gen.SPACES[rng.randint(1, 5)]
        pick = rng.random()
        if pick < 0.3:
            c = bel_capacity(gen.rand_mass(rng, sp))
        elif pick < 0.45:
            c = capacity_from_probability(sp, gen.rand_probability(rng, sp).p)
        else:
            c = _mixed_capacity(rng, sp)
        masses = mobius_transform(c).masses
        infty = all(m >= 0 for m in masses)
        additive = all(m == 0 for mask, m in enumerate(masses) if mask.bit_count() != 1)
        assert is_infty_monotone(c) == infty
        assert is_additive(c) == additive
        seen.add((infty, additive))
    assert seen == {(True, True), (True, False), (False, False)}


def test_common_denominator_past_the_digit_limit_is_rejected():
    # both values print, but their lcm, the denominator of a Möbius mass, does not
    big = 10**2200
    sp = FiniteSpace(["x1", "x2"])
    with pytest.raises(ValidationError, match="common denominator"):
        validate_capacity(sp, [F(0), F(1, big + 1), F(1, big + 3), F(1)])
    c = validate_capacity(sp, [F(0), F(1, big), F(1, 2 * big), F(1)])
    assert is_2_monotone(c)
    # at the edge: an lcm of 10**limit - 1 has exactly limit digits, 10**limit one more
    limit = sys.get_int_max_str_digits()
    c = validate_capacity(sp, [F(0), F(1, 3), F(1, 10**limit - 1), F(1)])
    assert is_2_monotone(c)
    with pytest.raises(ValidationError, match="common denominator"):
        validate_capacity(sp, [F(0), F(1, 2**limit), F(1, 5**limit), F(1)])


def test_check_facts_share_one_integer_table(monkeypatch):
    calls = []

    def counted(name):
        honest = getattr(capacity, name)
        return lambda *args, **kwargs: calls.append(name) or honest(*args, **kwargs)

    for name in ("over_lcd", "_mobius"):
        monkeypatch.setattr(capacity, name, counted(name))
    c = bel_capacity(gen.rand_mass(random.Random(3), gen.SPACES[4]))
    assert calls == ["over_lcd"]
    facts = [is_2_monotone(c), is_infty_monotone(c), is_additive(c)]
    assert calls == ["over_lcd", "_mobius"]
    assert facts == [is_2_monotone(c), is_infty_monotone(c), is_additive(c)]
    assert calls == ["over_lcd", "_mobius"]


@pytest.mark.parametrize(
    "build",
    [
        lambda sp, table: validate_capacity(sp, table),
        lambda sp, table: mobius_masses(sp, table),
        lambda sp, table: MassAssignment(sp, table),
    ],
    ids=["validate_capacity", "mobius_masses", "MassAssignment"],
)
def test_set_function_keys_become_masks_by_one_rule(build):
    sp = FiniteSpace(["x1", "x2"])
    # -1 used to alias the full set, 4 to raise a bare IndexError
    for bad in (-1, 4):
        with pytest.raises(ValidationError, match="outside the 2-element space"):
            build(sp, {0: 0, 1: 0, 2: 0, 3: 1, bad: 1})
    # keys that are not ints used to be truncated: 7/2 and "3" to mask 3, 2.9 to 2
    for bad in (F(7, 2), 2.9, "3"):
        with pytest.raises(ValidationError, match="neither an Event nor an int"):
            build(sp, {0: 0, 1: 0, 2: 0, 3: 1, bad: 1})
    other = FiniteSpace(["y1", "y2"])
    with pytest.raises(SpaceMismatchError):
        build(sp, {e: int(e.is_full) for e in enumerate_events(other)})
    # an equal space built apart is the same space
    twin = FiniteSpace(["x1", "x2"])
    build(sp, {e: int(e.is_full) for e in enumerate_events(twin)})


@pytest.mark.parametrize(
    "build, top",
    [(validate_capacity, F(1)), (mobius_masses, F(3, 10))],
    ids=["validate_capacity", "mobius_masses"],
)
def test_a_table_keyed_twice_for_one_event_is_rejected(build, top):
    # an Event and an int mask for {x1}: the last key used to win silently,
    # in a table that is valid with the last value
    sp = FiniteSpace(["x1", "x2"])
    table = {0: 0, sp.event(["x1"]): F(1, 5), 1: F(1, 2), 2: F(1, 5), 3: top}
    with pytest.raises(ValidationError, match=r"keys \{x1\} and 1 name one event"):
        build(sp, table)
