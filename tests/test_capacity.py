import random
import sys
from fractions import Fraction as F

import pytest

import gen
import reference
from impbox import (
    Capacity,
    FiniteSpace,
    MassAssignment,
    MobiusAssignment,
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
)
from impbox import interval, randomset
from impbox.capacity import find_2_monotone_violation
from impbox.space import Event
from impbox.randomset import bel


def bel_capacity(ms):
    """The belief function of a mass assignment as a full capacity table."""
    return Capacity(ms.space, [bel(ms, e) for e in enumerate_events(ms.space)])


@pytest.fixture
def two_point_six():
    """mu({x1}) = mu({x2}) = 0.6 on two elements: monotone, not 2-monotone."""
    sp = FiniteSpace(["x1", "x2"])
    return Capacity(sp, [F(0), F(3, 5), F(3, 5), F(1)])


def test_additive_capacity_is_valid():
    sp = FiniteSpace(["x1", "x2"])
    c = capacity_from_probability(sp, [F(1, 2), F(1, 2)])
    assert c(sp.event(["x1"])) == F(1, 2)


def test_boundary_violation():
    sp = FiniteSpace(["x1"])
    with pytest.raises(ValidationError):
        Capacity(sp, [F(1, 10), F(1)])
    with pytest.raises(ValidationError):
        Capacity(sp, [F(0), F(9, 10)])


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
        Capacity(sp, values)
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
    assert nonzero == dict(expert_mass.focal)


def test_mobius_can_be_negative(two_point_six):
    m = mobius_transform(two_point_six)
    assert m.masses[0b11] == F(-1, 5)


def test_mobius_inverse_of_vacuous_mass():
    sp = FiniteSpace(["x1", "x2"])
    m = MobiusAssignment(sp, {0b11: F(1)})
    c = mobius_inverse(m)
    assert c.values == (F(0), F(0), F(0), F(1))


def test_mobius_inverse_of_expert_masses(expert_mass, space6):
    m = MobiusAssignment(space6, dict(expert_mass.focal))
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
        MobiusAssignment(sp, [F(1, 2), F(1, 2)])  # empty set carries mass
    with pytest.raises(ValidationError):
        MobiusAssignment(sp, [F(0), F(1, 2)])  # does not sum to 1


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
        assert find_2_monotone_violation(c) is None
        hits += 1
    assert hits == 60


def test_is_additive():
    sp = FiniteSpace(["x1", "x2"])
    assert is_additive(capacity_from_probability(sp, [F(3, 10), F(7, 10)]))
    vacuous = Capacity(sp, [F(0), F(0), F(0), F(1)])
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
    return Capacity(space, table)


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
        c = Capacity(sp, values)
        pair = find_2_monotone_violation(c)
        assert pair is not None
        assert _violates(c, pair)
        assert (pair[0].mask & pair[1].mask).bit_count() == n - 2
        assert not is_2_monotone(c)


def test_2_monotone_on_one_and_two_elements(two_point_six):
    one = FiniteSpace(["x1"])
    assert is_2_monotone(Capacity(one, [F(0), F(1)]))
    two = FiniteSpace(["x1", "x2"])
    assert is_2_monotone(Capacity(two, [F(0), F(1, 5), F(2, 7), F(1)]))
    assert is_2_monotone(Capacity(two, [F(0), F(2, 5), F(3, 5), F(1)]))
    assert not is_2_monotone(Capacity(two, [F(0), F(1, 2), F(4, 7), F(1)]))
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
        Capacity(sp, [F(0), F(1, big + 1), F(1, big + 3), F(1)])
    c = Capacity(sp, [F(0), F(1, big), F(1, 2 * big), F(1)])
    assert is_2_monotone(c)
    # at the edge: an lcm of 10**limit - 1 has exactly limit digits, 10**limit one more
    limit = sys.get_int_max_str_digits()
    c = Capacity(sp, [F(0), F(1, 3), F(1, 10**limit - 1), F(1)])
    assert is_2_monotone(c)
    with pytest.raises(ValidationError, match="common denominator"):
        Capacity(sp, [F(0), F(1, 2**limit), F(1, 5**limit), F(1)])


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
        lambda sp, table: Capacity(sp, table),
        lambda sp, table: MobiusAssignment(sp, table),
        lambda sp, table: MassAssignment(sp, table),
    ],
    ids=["Capacity", "MobiusAssignment", "MassAssignment"],
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
    [(Capacity, F(1)), (MobiusAssignment, F(3, 10))],
    ids=["Capacity", "MobiusAssignment"],
)
def test_a_table_keyed_twice_for_one_event_is_rejected(build, top):
    # an Event and an int mask for {x1}: the last key used to win silently,
    # in a table that is valid with the last value
    sp = FiniteSpace(["x1", "x2"])
    table = {0: 0, sp.event(["x1"]): F(1, 5), 1: F(1, 2), 2: F(1, 5), 3: top}
    with pytest.raises(ValidationError, match=r"keys \{x1\} and 1 name one event"):
        build(sp, table)


def _space(n):
    return gen.SPACES.get(n) or FiniteSpace([f"x{i}" for i in range(1, n + 1)])


def test_the_pairing_helper_pairs_every_mask_with_each_bit_added():
    for n in range(1, 11):
        masks = list(range(1 << n))
        lows_by_bit, pairs_by_bit = {}, {}
        for lo, hi in capacity._bit_slices(len(masks)):
            lows, highs = masks[lo], masks[hi]
            assert lows and len(lows) == len(highs)
            (bit,) = {h ^ m for m, h in zip(lows, highs)}
            assert all(not m & bit for m in lows)
            lows_by_bit.setdefault(bit, []).extend(lows)
            pairs_by_bit[bit] = pairs_by_bit.get(bit, 0) + 1
        # lowest bit first; each bit pairs every mask without it exactly once
        assert list(lows_by_bit) == [1 << i for i in range(n)]
        for bit, lows in lows_by_bit.items():
            assert sorted(lows) == [m for m in masks if not m & bit]
        # no bit takes more than about 2**(n/2) slice pairs
        assert max(pairs_by_bit.values()) <= 1 << (n + 1) // 2
    # at n = 9 the low bits take strided slices and the high bits blocks
    steps = {lo.step for lo, _ in capacity._bit_slices(1 << 9)}
    assert None in steps and len(steps) > 1


@pytest.mark.parametrize("n", range(1, 11))
def test_the_sliced_kernels_equal_the_scalar_loops(n):
    rng = random.Random(1000 + n)
    size = 1 << n
    for _ in range(3):
        ints = [rng.randint(-50, 50) for _ in range(size)]
        fractions = [F(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(size)]
        for table in (ints, fractions):
            assert capacity._mobius(list(table)) == reference.mobius(list(table))
            assert capacity._zeta(list(table)) == reference.zeta(list(table))
            assert capacity._zeta(capacity._mobius(list(table))) == table
    c = gen.rand_capacity(rng, _space(n))
    assert mobius_inverse(mobius_transform(c)) == c


def test_bel_sums_no_subsets_with_the_kernels(monkeypatch):
    """The polytope and the closed form share no bound code: ``bel`` reads
    the focal masses on its own, and only ``to_polytope`` runs ``_zeta``."""
    calls = []

    def counted(name, honest):
        return lambda *args: calls.append(name) or honest(*args)

    monkeypatch.setattr(capacity, "_bit_slices", counted("_bit_slices", capacity._bit_slices))
    monkeypatch.setattr(randomset, "_zeta", counted("_zeta", randomset._zeta))
    ms = gen.rand_mass(random.Random(23), gen.SPACES[5])
    for event in enumerate_events(ms.space):
        bel(ms, event)
        randomset.pl(ms, event)
    assert calls == []
    randomset.to_polytope(ms)
    assert calls == ["_zeta", "_bit_slices"]


def _weighted_table(space, light):
    """An additive table whose element ``light`` weighs 1 and every other 3,
    so each covering pair rises by 1 on ``light`` and by 3 elsewhere."""
    weights = [1 if i == light else 3 for i in range(space.size)]
    total = sum(weights)
    return [
        F(sum(w for i, w in enumerate(weights) if mask >> i & 1), total)
        for mask in range(1 << space.size)
    ]


def _plant(table, space, mask, light):
    """Raise ``mask``, which lacks ``light``, by two weights: it then exceeds
    ``mask + {light}`` and stays below every other set covering it."""
    table[mask] += F(2, sum(1 if i == light else 3 for i in range(space.size)))


def _same_first_violation(space, table):
    """Assert that ``Capacity`` fails as the reference scan does,
    or passes where it finds nothing; the reference's witness, if any."""
    expected = reference.covering_violation(space, table)
    if expected is None:
        Capacity(space, table)
        return None
    with pytest.raises(ValidationError) as exc:
        Capacity(space, table)
    assert str(exc.value) == str(expected)
    assert exc.value.witness == expected.witness
    return expected.witness


@pytest.mark.parametrize("n", range(1, 9))
def test_a_monotonicity_error_names_the_scans_first_violation(n):
    rng = random.Random(2000 + n)
    sp = _space(n)
    full = (1 << n) - 1
    # one violation, on bit 0 and on the top bit
    for light in sorted({0, n - 1}):
        candidates = [m for m in range(1, full) if not m >> light & 1]
        for _ in range(min(len(candidates), 4)):
            table = _weighted_table(sp, light)
            mask = rng.choice(candidates)
            _plant(table, sp, mask, light)
            small, big = _same_first_violation(sp, table)
            assert (small.mask, big.mask) == (mask, mask | 1 << light)
    # several at once, on random bits
    for _ in range(6):
        light = rng.randrange(n)
        table = _weighted_table(sp, light)
        candidates = [m for m in range(1, full) if not m >> light & 1]
        masks = rng.sample(candidates, min(len(candidates), 3))
        for mask in masks:
            _plant(table, sp, mask, light)
        first = min(masks, default=None)  # n = 1 has no set to raise
        expected = None if first is None else (Event(sp, first), Event(sp, first | 1 << light))
        assert _same_first_violation(sp, table) == expected
    # unmonotonized random tables break many pairs at once
    for _ in range(6):
        table = [F(0)] + [gen.rand_fraction(rng) for _ in range(full - 1)] + [F(1)]
        _same_first_violation(sp, table)


def _reachable_interval_capacity(rng, space):
    iv = gen.rand_reachable_interval(rng, space)
    return Capacity(
        space, [interval.event_bounds(iv, a)[0] for a in enumerate_events(space)]
    )


def test_is_2_monotone_agrees_with_the_scan():
    rng = random.Random(29)
    seen = {"belief": set(), "capacity": set(), "interval": set()}
    for _ in range(120):
        sp = gen.SPACES[rng.randint(1, 6)]
        kind = rng.choice(sorted(seen))
        if kind == "belief":
            c = bel_capacity(gen.rand_mass(rng, sp))
        elif kind == "capacity":
            c = gen.rand_capacity(rng, sp, denom=rng.choice([2, 3, 12]))
        else:
            c = _reachable_interval_capacity(rng, sp)
        assert is_2_monotone(c) == (find_2_monotone_violation(c) is None)
        seen[kind].add((is_2_monotone(c), is_infty_monotone(c)))
    assert seen["belief"] == {(True, True)}
    assert (False, False) in seen["capacity"]
    # reachable intervals are 2-monotone, and often not belief functions
    assert seen["interval"] == {(True, True), (True, False)}
