"""Raise sites that the behaviour tests never reach: each one's exception
type and exact message, from one call through the public entry point."""

from fractions import Fraction as F

import pytest

from impbox import (
    Capacity,
    FiniteSpace,
    NotReachableError,
    PossibilityDistribution,
    ProbabilityInterval,
    ProbabilityVector,
    ValidationError,
    capacity_from_probability,
    convert,
    docio,
)
from impbox.docio import DocumentError
from impbox.possibility import alpha_cut
from impbox.randomset import simple_support

SP = FiniteSpace(["x1", "x2"])
#: reachable: each bound is attained, as l1 + u2 = u1 + l2 = 1
REACHABLE = ProbabilityInterval(SP, [F(1, 4), F(1, 2)], [F(1, 2), F(3, 4)])
#: non-empty but not reachable: l1 = 0 needs P(x2) = 1 > u2 = 1/4
UNREACHABLE = ProbabilityInterval(SP, [0, 0], [1, F(1, 4)])

SITES = {
    "capacity._as_table": (
        lambda: Capacity(SP, (0, 1)),
        ValidationError,
        "expected 4 values (one per event), got 2",
    ),
    "capacity_from_probability": (
        lambda: capacity_from_probability(SP, [F(1, 2), F(1, 4)]),
        ValidationError,
        "probability distribution must be non-negative and sum to 1",
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
}


@pytest.mark.parametrize("site", SITES)
def test_raise_site_names_its_rule(site):
    call, error, message = SITES[site]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
