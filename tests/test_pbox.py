import random
import warnings
from dataclasses import fields
from fractions import Fraction as F

import pytest

import gen
from impbox import (
    Capacity,
    CredalPolytope,
    Event,
    FiniteSpace,
    GeneralizedPBox,
    MassAssignment,
    PossibilityDistribution,
    ProbabilityInterval,
    ProbabilityVector,
    ValidationError,
    bel,
    docio,
    enumerate_events,
    from_functions,
    from_nested_sets,
    is_infty_monotone,
    is_member,
    lower_envelope,
    upper_envelope,
)
from impbox.pbox import (
    lower_prob,
    to_polytope,
    to_random_set,
    upper_prob,
)
from impbox.possibility import contains, to_possibility_pair
from impbox.randomset import is_nested
from reference import algorithm1, lower_prob_via_possibility, pbox_bounds


def test_expert_pbox_blocks(expert_pbox, space6):
    assert [Event(space6, mask).labels for mask in expert_pbox.block_masks] == [
        ("x1", "x2"),
        ("x3",),
        ("x4", "x5"),
        ("x6",),
    ]
    assert [e.labels for e, _, _ in expert_pbox.levels()] == [
        ("x1", "x2"),
        ("x1", "x2", "x3"),
        ("x1", "x2", "x3", "x4", "x5"),
        ("x1", "x2", "x3", "x4", "x5", "x6"),
    ]


def test_precise_cumulative_pair_is_valid():
    sp = FiniteSpace(["x1", "x2", "x3"])
    values = [F(1, 3), F(2, 3), F(1)]
    pb = from_functions(sp, values, values)
    assert pb.f_lower == pb.f_upper == tuple(values)


def test_comonotonicity_violation():
    sp = FiniteSpace(["x1", "x2", "x3"])
    with pytest.raises(ValidationError) as exc:
        from_functions(
            sp, [F(1, 10), F(1, 5), F(1)], [F(9, 10), F(1, 2), F(1)]
        )
    assert exc.value.witness is not None


def test_top_element_must_reach_one():
    sp = FiniteSpace(["x1", "x2"])
    with pytest.raises(ValidationError):
        from_functions(sp, [F(0), F(1, 2)], [F(1, 2), F(9, 10)])


def test_zero_upper_bound_on_first_level_is_a_pbox_kind_warning():
    """beta_1 = 0 is legal: both builders return it without a Python
    warning, and only the two p-box kinds name it for the CLI."""
    sp = FiniteSpace(["x1", "x2"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pb = from_functions(sp, [F(0), F(1)], [F(0), F(1)])
        assert from_nested_sets(sp, [(sp.event(["x1"]), F(0), F(0))]) == pb
    assert caught == []
    assert pb.level_beta[0] == 0
    notice = (
        "first level has upper bound 0; the innermost level set is then "
        "forced to probability 0",
    )
    assert docio.KINDS["gen_pbox"].warnings(pb) == notice
    assert docio.KINDS["nested_bounds"].warnings(pb) == notice
    positive = from_functions(sp, [F(0), F(1)], [F(1, 2), F(1)])
    assert docio.KINDS["gen_pbox"].warnings(positive) == ()
    # each other kind, with a zero in it
    others = {
        "capacity": Capacity(sp, (0, 0, 0, 1)),
        "mass": MassAssignment(sp, {0b10: 1}),
        "possibility": PossibilityDistribution(sp, [0, 1]),
        "interval": ProbabilityInterval(sp, [0, 0], [0, 1]),
        "probability": ProbabilityVector(sp, [0, 1]),
    }
    assert set(others) == set(docio.KINDS) - {"gen_pbox", "nested_bounds"}
    for kind, obj in others.items():
        assert docio.KINDS[kind].warnings(obj) == ()


def test_from_nested_sets_reproduces_expert_pbox(expert_pbox, space6):
    pb = from_nested_sets(
        space6,
        [
            (space6.event(["x1", "x2"]), F(0), F(3, 10)),
            (space6.event(["x1", "x2", "x3"]), F(1, 5), F(7, 10)),
            (space6.event(["x1", "x2", "x3", "x4", "x5"]), F(1, 2), F(9, 10)),
        ],
    )
    assert pb == expert_pbox


@pytest.mark.parametrize("ties", [False, True])
def test_both_builders_store_the_same_levels(ties):
    rng = random.Random(71 + ties)
    for _ in range(150):
        sp = gen.SPACES[rng.randint(1, 6)]
        pb = gen.rand_pbox(rng, sp, ties=ties)
        assert from_functions(sp, pb.f_lower, pb.f_upper) == pb
        assert from_nested_sets(sp, pb.levels()) == pb
        assert to_random_set(pb) == algorithm1(pb)


def test_pbox_stores_only_its_levels():
    assert [f.name for f in fields(GeneralizedPBox)] == [
        "space", "block_masks", "level_alpha", "level_beta"
    ]


def test_interval_stores_only_its_bounds():
    assert [f.name for f in fields(ProbabilityInterval)] == ["space", "lower", "upper"]


def _assert_agrees_with_stated_levels(sp, pb, stated):
    """Closed forms equal the oracle on the stated constraints themselves."""
    poly = CredalPolytope(sp, [*stated, (sp.full, 1, 1)])
    for event in enumerate_events(sp):
        assert lower_prob(pb, event) == lower_envelope(poly, event).value
        assert upper_prob(pb, event) == upper_envelope(poly, event).value


def test_from_nested_sets_drops_an_empty_level_and_keeps_equal_ones():
    sp = FiniteSpace(["x1", "x2", "x3", "x4"])
    stated = [
        (sp.empty, F(0), F(1, 4)),
        (sp.event(["x2"]), F(1, 5), F(1, 2)),
        (sp.event(["x1", "x2"]), F(1, 5), F(1, 2)),
        (sp.event(["x1", "x2", "x4"]), F(1, 2), F(1, 2)),
    ]
    pb = from_nested_sets(sp, stated)
    assert pb.block_masks == (0b0010, 0b0001, 0b1000, 0b0100)
    assert pb.level_masks == (0b0010, 0b0011, 0b1011, 0b1111)
    assert pb.level_alpha == (F(1, 5), F(1, 5), F(1, 2), F(1))
    assert pb.level_beta == (F(1, 2), F(1, 2), F(1, 2), F(1))
    assert lower_prob(pb, sp.event(["x2"])) == F(1, 5)
    _assert_agrees_with_stated_levels(sp, pb, stated)
    assert to_random_set(pb) == algorithm1(pb)


def _rand_nested_levels(rng, sp):
    """A strictly nested family whose neighbours often share both bounds."""
    order = list(range(sp.size))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, sp.size + 1), rng.randint(1, sp.size)))
    bounds = sorted(gen.rand_fraction(rng, 6) for _ in range(2 * len(cuts)))
    levels = []
    for k, cut in enumerate(cuts):
        event = sp.event(sp.labels[i] for i in order[:cut])
        if levels and rng.random() < 0.5:
            lo, hi = levels[-1][1:]
        else:
            lo, hi = bounds[k], bounds[len(cuts) + k]
        levels.append((event, lo, hi))
    if levels[-1][0].is_full:
        levels[-1] = (sp.full, F(1), F(1))
    return levels


def test_from_nested_sets_keeps_every_stated_level():
    rng = random.Random(89)
    for _ in range(120):
        sp = gen.SPACES[rng.randint(2, 5)]
        stated = _rand_nested_levels(rng, sp)
        pb = from_nested_sets(sp, stated)
        _assert_agrees_with_stated_levels(sp, pb, stated)
        ms = to_random_set(pb)
        assert ms == algorithm1(pb)
        for event in enumerate_events(sp):
            value = lower_prob(pb, event)
            assert value == bel(ms, event)
            assert value == lower_prob_via_possibility(pb, event)


def test_from_nested_sets_rejects_a_lower_bound_on_the_empty_set():
    sp = FiniteSpace(["x1", "x2"])
    with pytest.raises(ValidationError) as exc:
        from_nested_sets(sp, [(sp.empty, F(1, 5), F(1, 2))])
    assert str(exc.value) == "the empty set cannot have lower bound 1/5"


def test_from_nested_sets_checks_an_empty_first_level_against_the_next():
    # the empty level is dropped before the constructor sees the levels,
    # so from_nested_sets checks its bounds itself, as it always has
    sp = FiniteSpace(["a", "b"])
    a = sp.event(["a"])
    with pytest.raises(ValidationError) as exc:
        from_nested_sets(sp, [(sp.empty, 0, F(1, 2)), (a, 0, F(1, 4))])
    assert str(exc.value) == "level bounds must be non-decreasing outward"
    with pytest.raises(ValidationError) as exc:
        from_nested_sets(sp, [(sp.empty, F(1, 2), F(1, 4)), (a, 0, F(1, 4))])
    assert str(exc.value) == "bounds must satisfy 0 <= lo <= hi <= 1, got [1/2, 1/4]"
    pb = from_nested_sets(sp, [(sp.empty, 0, F(1, 4)), (a, 0, F(1, 4))])
    assert pb == from_nested_sets(sp, [(a, 0, F(1, 4))])


_AB = FiniteSpace(["a", "b"])

#: fields that break one rule each, and the message that names it
BROKEN_FIELDS = {
    "a bound too few": (
        ((1, 2), (F(1, 2),), (F(1),)),
        "expected 2 alphas and betas, one per block",
    ),
    "an empty block": (((1, 0, 2), (0, 0, 1), (0, 0, 1)), "block 0b0 is empty or meets an earlier block"),
    "overlapping blocks": (((1, 3), (0, 1), (1, 1)), "block 0b11 is empty or meets an earlier block"),
    "an uncovered element": (((1,), (1,), (1,)), "blocks cover 0b1, not the space 0b11"),
    "a block off the space": (((1, 6), (0, 1), (1, 1)), "blocks cover 0b111, not the space 0b11"),
    "alpha above beta": (
        ((1, 2), (F(1, 2), 1), (F(1, 4), 1)),
        "bounds must satisfy 0 <= lo <= hi <= 1, got [1/2, 1/4]",
    ),
    "beta above 1": (
        ((1, 2), (0, 1), (F(3, 2), 1)),
        "bounds must satisfy 0 <= lo <= hi <= 1, got [0, 3/2]",
    ),
    "alpha below 0": (
        ((1, 2), (F(-1, 2), 1), (0, 1)),
        "bounds must satisfy 0 <= lo <= hi <= 1, got [-1/2, 0]",
    ),
    "alpha falling": (
        ((1, 2), (F(1, 2), F(1, 4)), (F(1, 2), 1)),
        "level bounds must be non-decreasing outward",
    ),
    "beta falling": (
        ((1, 2), (0, F(1, 2)), (1, F(3, 4))),
        "level bounds must be non-decreasing outward",
    ),
    "a last level below 1": (
        ((1, 2), (0, F(1, 2)), (F(1, 2), 1)),
        "the whole space must carry bounds [1, 1]",
    ),
}


@pytest.mark.parametrize("name", BROKEN_FIELDS)
def test_the_constructor_names_the_rule_its_fields_break(name):
    fields, message = BROKEN_FIELDS[name]
    with pytest.raises(ValidationError) as exc:
        GeneralizedPBox(_AB, *fields)
    assert str(exc.value) == message


def test_neighbouring_levels_may_share_their_bounds():
    sp = FiniteSpace(["a", "b", "c"])
    pb = GeneralizedPBox(sp, (1, 2, 4), (0, 0, 1), (F(1, 2), F(1, 2), 1))
    assert pb.levels()[:2] == ((sp.event(["a"]), 0, F(1, 2)), (sp.event(["a", "b"]), 0, F(1, 2)))
    assert lower_prob(pb, sp.event(["a", "b"])) == 0


def test_from_nested_sets_vacuous(space6):
    pb = from_nested_sets(space6, [(space6.full, F(1), F(1))])
    assert pb.f_lower == (F(1),) * 6
    assert pb.f_upper == (F(1),) * 6


def test_from_nested_sets_rejects_non_nested(space6):
    with pytest.raises(ValidationError):
        from_nested_sets(
            space6,
            [
                (space6.event(["x1", "x2"]), F(0), F(1, 2)),
                (space6.event(["x2", "x3"]), F(0), F(1, 2)),
            ],
        )


def test_possibility_pair_of_expert_pbox(expert_pbox):
    pi_upp, pi_low = to_possibility_pair(expert_pbox)
    assert pi_upp.pi == (F(3, 10), F(3, 10), F(7, 10), F(9, 10), F(9, 10), F(1))
    assert pi_low.pi == (F(1), F(1), F(1), F(4, 5), F(4, 5), F(1, 2))


def test_possibility_pair_vacuous_lower():
    sp = FiniteSpace(["x1", "x2", "x3"])
    pb = from_functions(sp, [F(0), F(0), F(1)], [F(1, 4), F(1, 2), F(1)])
    _, pi_low = to_possibility_pair(pb)
    assert pi_low.pi == (F(1), F(1), F(1))


def test_possibility_pair_injective_lower():
    sp = FiniteSpace(["x1", "x2", "x3"])
    pb = from_functions(
        sp, [F(1, 5), F(3, 5), F(1)], [F(1, 5), F(3, 5), F(1)]
    )
    _, pi_low = to_possibility_pair(pb)
    assert pi_low.pi == (F(1), F(4, 5), F(2, 5))


def test_random_set_of_expert_pbox(expert_pbox, expert_mass):
    assert to_random_set(expert_pbox) == expert_mass


def test_random_set_of_precise_pair_is_additive():
    sp = FiniteSpace(["x1", "x2", "x3"])
    values = [F(1, 3), F(2, 3), F(1)]
    ms = to_random_set(from_functions(sp, values, values))
    assert dict(ms.focal) == {0b001: F(1, 3), 0b010: F(1, 3), 0b100: F(1, 3)}


def test_random_set_of_vacuous_pbox():
    sp = FiniteSpace(["x1", "x2"])
    pb = from_functions(sp, [F(0), F(1)], [F(1), F(1)])
    assert to_random_set(pb).focal == ((0b11, F(1)),)


def test_sweep_matches_threshold_form_on_expert_pbox(expert_pbox, expert_mass):
    assert algorithm1(expert_pbox) == expert_mass


def test_sweep_matches_threshold_form_with_ties():
    rng = random.Random(53)
    for _ in range(60):
        pb = gen.rand_pbox(rng, gen.SPACES[rng.randint(1, 6)], ties=True)
        assert algorithm1(pb) == to_random_set(pb)


def test_sweep_single_element():
    sp = FiniteSpace(["x1"])
    pb = from_functions(sp, [F(1)], [F(1)])
    assert algorithm1(pb).focal == ((0b1, F(1)),)


def test_lower_prob_two_block_run(expert_pbox, space6):
    assert lower_prob(expert_pbox, space6.event(["x3", "x4", "x5"])) == F(1, 5)


def test_lower_prob_inside_a_block_is_zero(expert_pbox, space6):
    assert lower_prob(expert_pbox, space6.event(["x4"])) == 0


def test_lower_prob_boundaries(expert_pbox, space6):
    assert lower_prob(expert_pbox, space6.full) == 1
    assert lower_prob(expert_pbox, space6.empty) == 0


def test_upper_prob_is_conjugate(expert_pbox, space6):
    for event in enumerate_events(space6):
        assert upper_prob(expert_pbox, event) == 1 - lower_prob(
            expert_pbox, event.complement()
        )


def test_possibility_restatement_matches_everywhere(expert_pbox, space6):
    for event in enumerate_events(space6):
        assert lower_prob_via_possibility(expert_pbox, event) == lower_prob(
            expert_pbox, event
        )


def test_polytope_has_one_constraint_per_level(expert_pbox):
    poly = to_polytope(expert_pbox)
    assert len(poly.constraints) == 4


def test_three_way_equality_random_small():
    rng = random.Random(59)
    for _ in range(10):
        sp = gen.SPACES[rng.randint(2, 4)]
        pb = gen.rand_pbox(rng, sp)
        ms = to_random_set(pb)
        poly = to_polytope(pb)
        for event in enumerate_events(sp):
            value = lower_prob(pb, event)
            assert value == bel(ms, event)
            assert value == lower_prob_via_possibility(pb, event)
            assert value == lower_envelope(poly, event).value


def test_lower_prob_capacity_is_infty_monotone():
    rng = random.Random(61)
    for _ in range(10):
        sp = gen.SPACES[rng.randint(2, 4)]
        pb = gen.rand_pbox(rng, sp)
        table = [lower_prob(pb, e) for e in enumerate_events(sp)]
        assert is_infty_monotone(Capacity(sp, table))


def test_possibility_embedding():
    """A p-box with vacuous lower part carries exactly one distribution."""
    rng = random.Random(67)
    sp = gen.SPACES[4]
    for _ in range(10):
        pi_sorted = sorted(gen.rand_possibility(rng, sp).pi)
        flow = [F(0)] * 3 + [F(1)]
        pb = from_functions(sp, flow, pi_sorted)
        d = to_possibility_pair(pb)[0]
        assert tuple(d.pi) == tuple(pi_sorted)
        poly = to_polytope(pb)
        for _ in range(20):
            p = gen.rand_probability(rng, sp)
            assert is_member(poly, p) == contains(d, p)


def _is_necessity(pb) -> bool:
    """Whether the p-box's lower probability N, walked level by level
    (``reference.pbox_bounds``), is a necessity measure: N(A & B) =
    min(N(A), N(B)) for every pair of events A, B."""
    table = [pbox_bounds(pb, e)[0] for e in enumerate_events(pb.space)]
    return all(
        table[a & b] == min(table[a], table[b])
        for a in range(len(table))
        for b in range(a + 1, len(table))
    )


#: how each seeded p-box is drawn, and the document kind that states it
NESTED_FACT_SOURCES = {
    "untied": ("gen_pbox", gen.rand_pbox),
    "tied": ("gen_pbox", lambda rng, space: gen.rand_pbox(rng, space, ties=True)),
    "nested": ("nested_bounds", gen.rand_nested_pbox),
}


def test_the_nested_fact_says_whether_a_pbox_is_a_possibility_distribution():
    """A random set is consonant exactly when its belief is a necessity
    measure, and a p-box and its random set share their lower probability."""
    rng = random.Random(1231)
    answers = []
    for name, (kind, build) in NESTED_FACT_SOURCES.items():
        for i in range(300):
            pb = build(rng, gen.SPACES[1 + i % 6])
            nested = is_nested(to_random_set(pb))
            assert docio.KINDS[kind].facts(pb)["nested"] is nested
            assert nested == _is_necessity(pb), (name, pb)
            answers.append(nested)
    assert 0 < sum(answers) < len(answers)


def test_a_repeated_full_level_hides_a_possibility_distribution():
    # alpha = (0, 1, 1), beta = (1/2, 1, 1): neither is every beta 1 nor
    # every alpha before the last level 0, yet the lower probability is
    # a necessity measure, with focal sets {x2} and {x1,x2}
    pb = GeneralizedPBox(gen.SPACES[3], [0b001, 0b010, 0b100], [0, 1, 1], [F(1, 2), 1, 1])
    assert _is_necessity(pb)
    assert dict(to_random_set(pb).focal) == {0b010: F(1, 2), 0b011: F(1, 2)}
    assert is_nested(to_random_set(pb))
    assert docio.KINDS["nested_bounds"].facts(pb)["nested"] is True
