"""Raise sites that the behaviour tests never reach: each one's exception
type and exact message, from one call through the public entry point."""

import sys
from fractions import Fraction as F

import pytest

from impbox import (
    Capacity,
    CredalPolytope,
    FiniteSpace,
    GeneralizedPBox,
    MassAssignment,
    MobiusAssignment,
    NotReachableError,
    Permutation,
    PossibilityDistribution,
    ProbabilityInterval,
    ProbabilityVector,
    ValidationError,
    capacity_from_probability,
    convert,
    docio,
    from_functions,
    from_nested_sets,
)
from impbox.docio import DocumentError
from impbox.possibility import alpha_cut
from impbox.randomset import simple_support

SP = FiniteSpace(["x1", "x2"])
#: reachable: each bound is attained, as l1 + u2 = u1 + l2 = 1
REACHABLE = ProbabilityInterval(SP, [F(1, 4), F(1, 2)], [F(1, 2), F(3, 4)])
#: non-empty but not reachable: l1 = 0 needs P(x2) = 1 > u2 = 1/4
UNREACHABLE = ProbabilityInterval(SP, [0, 0], [1, F(1, 4)])
NAN, INF = float("nan"), float("inf")
X1 = SP.event(["x1"])
#: rationals whose denominator has more digits than ``str`` prints, and
#: how a message names them
TINY, LONG = F(1, 10**5000), f"<number over {sys.get_int_max_str_digits()} digits>"

SITES = {
    "capacity._as_table": (
        lambda: Capacity(SP, (0, 1)),
        ValidationError,
        "expected 4 values (one per event), got 2",
    ),
    "capacity_from_probability": (
        lambda: capacity_from_probability(SP, [F(1, 2), F(1, 4)]),
        ValidationError,
        "masses must sum to 1, got 3/4",
    ),
    "reconstruct_interval.unreachable": (
        lambda: convert.reconstruct_interval(UNREACHABLE, convert.reduced_permutation_set(SP)),
        NotReachableError,
        "reconstruction needs a reachable interval; normalize first",
    ),
    "reconstruct_interval.no_orders": (
        lambda: convert.reconstruct_interval(REACHABLE, []),
        ValidationError,
        "at least one permutation is required",
    ),
    "docio.levels": (
        lambda: docio.parse(
            '{"kind": "nested_bounds", "space": ["x1", "x2"], "levels": {}}'
        ),
        DocumentError,
        "$.levels: levels must be a list",
    ),
    "document_for": (
        lambda: docio.document_for(SP),
        DocumentError,
        "$: no document kind for FiniteSpace",
    ),
    "from_nested_sets": (
        lambda: from_nested_sets(SP, []),
        ValidationError,
        "at least one nested level is required",
    ),
    "alpha_cut": (
        lambda: alpha_cut(PossibilityDistribution(SP, [F(1, 2), 1]), F(3, 2)),
        ValidationError,
        "alpha must lie in [0, 1], got 3/2",
    ),
    "simple_support": (
        lambda: simple_support(SP.event(["x1"]), -1),
        ValidationError,
        "mass must lie in [0, 1], got -1",
    ),
    "space._unit_values": (
        lambda: ProbabilityVector(SP, [1]),
        ValidationError,
        "expected 2 probabilities, got 1",
    ),
    "space._unit_values.nan": (
        lambda: PossibilityDistribution(SP, [float("nan"), 1]),
        ValidationError,
        "possibility degrees must lie in [0, 1], got nan",
    ),
    "space._unit_values.inf": (
        lambda: ProbabilityInterval(SP, [0, 0], [float("inf"), 1]),
        ValidationError,
        "bounds must lie in [0, 1], got inf",
    ),
    "space._unit_values.-inf": (
        lambda: from_functions(SP, [float("-inf"), 1], [1, 1]),
        ValidationError,
        "distribution values must lie in [0, 1], got -inf",
    ),
    "MassAssignment.nan": (
        lambda: MassAssignment(SP, {X1: NAN, SP.full: 0.5}),
        ValidationError,
        "masses must lie in [0, 1], got nan",
    ),
    "MassAssignment.inf": (
        lambda: MassAssignment(SP, {X1: INF}),
        ValidationError,
        "masses must lie in [0, 1], got inf",
    ),
    "CredalPolytope.nan": (
        lambda: CredalPolytope(SP, [(X1, NAN, 1)]),
        ValidationError,
        "constraint bounds must lie in [0, 1], got nan",
    ),
    "CredalPolytope.-inf": (
        lambda: CredalPolytope(SP, [(X1, 0, -INF)]),
        ValidationError,
        "constraint bounds must lie in [0, 1], got -inf",
    ),
    "GeneralizedPBox.nan": (
        lambda: GeneralizedPBox(SP, [0b01, 0b10], [NAN, 1], [1, 1]),
        ValidationError,
        "level bounds must lie in [0, 1], got nan",
    ),
    "GeneralizedPBox.inf": (
        lambda: GeneralizedPBox(SP, [0b01, 0b10], [0, 1], [INF, 1]),
        ValidationError,
        "level bounds must lie in [0, 1], got inf",
    ),
    "from_nested_sets.nan": (
        lambda: from_nested_sets(SP, [(X1, NAN, 1)]),
        ValidationError,
        "level bounds must lie in [0, 1], got nan",
    ),
    "from_nested_sets.inf": (
        lambda: from_nested_sets(SP, [(X1, 0, INF)]),
        ValidationError,
        "level bounds must lie in [0, 1], got inf",
    ),
    "capacity._as_table.nan": (
        lambda: Capacity(SP, [0, NAN, 0.5, 1]),
        ValidationError,
        "set function values must be finite, got nan",
    ),
    "capacity._as_table.inf": (
        lambda: Capacity(SP, {0: 0, X1: INF, 0b10: 0, SP.full: 1}),
        ValidationError,
        "set function values must be finite, got inf",
    ),
    "MobiusAssignment.nan": (
        lambda: MobiusAssignment(SP, {X1: NAN}),
        ValidationError,
        "set function values must be finite, got nan",
    ),
    "MobiusAssignment.-inf": (
        lambda: MobiusAssignment(SP, [0, -INF, 1, 1]),
        ValidationError,
        "set function values must be finite, got -inf",
    ),
    "simple_support.nan": (
        lambda: simple_support(X1, NAN),
        ValidationError,
        "mass must lie in [0, 1], got nan",
    ),
    "simple_support.inf": (
        lambda: simple_support(X1, INF),
        ValidationError,
        "mass must lie in [0, 1], got inf",
    ),
    "alpha_cut.nan": (
        lambda: alpha_cut(PossibilityDistribution(SP, [F(1, 2), 1]), NAN),
        ValidationError,
        "alpha must lie in [0, 1], got nan",
    ),
    "alpha_cut.-inf": (
        lambda: alpha_cut(PossibilityDistribution(SP, [F(1, 2), 1]), -INF),
        ValidationError,
        "alpha must lie in [0, 1], got -inf",
    ),
    "space._unit_values.over_long": (
        lambda: ProbabilityVector(SP, [-TINY, 1]),
        ValidationError,
        f"probabilities must lie in [0, 1], got {LONG}",
    ),
    "MassAssignment.over_long": (
        lambda: MassAssignment(SP, {X1: -TINY, SP.full: 1}),
        ValidationError,
        f"negative mass {LONG} on {{x1}}",
    ),
    "simple_support.over_long": (
        lambda: simple_support(X1, -TINY),
        ValidationError,
        f"mass must lie in [0, 1], got {LONG}",
    ),
    "alpha_cut.over_long": (
        lambda: alpha_cut(PossibilityDistribution(SP, [F(1, 2), 1]), -TINY),
        ValidationError,
        f"alpha must lie in [0, 1], got {LONG}",
    ),
    "CredalPolytope.over_long": (
        lambda: CredalPolytope(SP, [(X1, TINY, 0)]),
        ValidationError,
        f"constraint bounds must satisfy 0 <= lo <= hi <= 1, got [{LONG}, 0] for {{x1}}",
    ),
    "pbox._bounds_error.over_long": (
        lambda: GeneralizedPBox(SP, [0b01, 0b10], [TINY, 1], [0, 1]),
        ValidationError,
        f"bounds must satisfy 0 <= lo <= hi <= 1, got [{LONG}, 0]",
    ),
    "from_nested_sets.empty.over_long": (
        lambda: from_nested_sets(SP, [(SP.event([]), TINY, F(1, 2)), (X1, F(1, 2), 1)]),
        ValidationError,
        f"the empty set cannot have lower bound {LONG}",
    ),
    "from_functions.over_long": (
        lambda: from_functions(SP, [TINY, 1], [0, 1]),
        ValidationError,
        f"lower exceeds upper at x1: {LONG} > 0",
    ),
    "Capacity.empty.over_long": (
        lambda: Capacity(SP, [TINY, 0, 0, 1]),
        ValidationError,
        f"capacity of the empty set must be 0, got {LONG}",
    ),
    "Capacity.full.over_long": (
        lambda: Capacity(SP, [0, 0, 0, 1 - TINY]),
        ValidationError,
        f"capacity of the whole space must be 1, got {LONG}",
    ),
    "Capacity.monotonicity.over_long": (
        lambda: Capacity(SP, [0, 10**5000, 0, 1]),
        ValidationError,
        f"monotonicity violated: mu({{x1}})={LONG} > mu({{x1,x2}})=1",
    ),
    "MobiusAssignment.over_long": (
        lambda: MobiusAssignment(SP, {0: TINY, SP.full: 1}),
        ValidationError,
        f"mass of the empty set must be 0, got {LONG}",
    ),
    "space.Permutation.over_long": (
        lambda: Permutation([10**5000]),
        ValidationError,
        f"not a bijection on 0..0: ({LONG},)",
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_raise_site_names_its_rule(site):
    call, error, message = SITES[site]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
