"""Exact finite-space imprecise-probability representations.

Capacities, random sets, possibility distributions, probability
intervals and generalized p-boxes, with exact rational conversions
between them and an independent credal-polytope oracle to check any of
them against.
"""

from . import capacity, convert, credal, docio, interval, pbox, possibility, randomset
from .capacity import (
    Capacity,
    MobiusAssignment,
    capacity_from_probability,
    conjugate,
    is_2_monotone,
    is_additive,
    is_infty_monotone,
    mobius_inverse,
    mobius_transform,
)
from .convert import (
    interval_to_sigma_pbox,
    pbox_to_interval,
    reconstruct_interval,
    reduced_permutation_set,
)
from .credal import (
    CredalPolytope,
    ProbabilityVector,
    is_coherent,
    is_member,
    lower_envelope,
    lower_envelopes,
    upper_envelope,
)
from .errors import (
    ImpboxError,
    InfeasibleError,
    NotReachableError,
    OracleError,
    SpaceMismatchError,
    SpaceSizeError,
    ValidationError,
)
from .interval import ProbabilityInterval, conjunction, event_bounds, normalize
from .pbox import GeneralizedPBox, from_functions, from_nested_sets
from .possibility import PossibilityDistribution
from .randomset import MassAssignment, bel, pl
from .space import MAX_ELEMENTS, Event, FiniteSpace, Permutation, enumerate_events

__all__ = [
    "Capacity",
    "CredalPolytope",
    "Event",
    "FiniteSpace",
    "GeneralizedPBox",
    "ImpboxError",
    "InfeasibleError",
    "MAX_ELEMENTS",
    "MassAssignment",
    "MobiusAssignment",
    "NotReachableError",
    "OracleError",
    "Permutation",
    "PossibilityDistribution",
    "ProbabilityInterval",
    "ProbabilityVector",
    "SpaceMismatchError",
    "SpaceSizeError",
    "ValidationError",
    "bel",
    "capacity",
    "capacity_from_probability",
    "conjugate",
    "conjunction",
    "convert",
    "credal",
    "docio",
    "enumerate_events",
    "event_bounds",
    "from_functions",
    "from_nested_sets",
    "interval",
    "interval_to_sigma_pbox",
    "is_2_monotone",
    "is_additive",
    "is_coherent",
    "is_infty_monotone",
    "is_member",
    "lower_envelope",
    "lower_envelopes",
    "mobius_inverse",
    "mobius_transform",
    "normalize",
    "pbox",
    "pbox_to_interval",
    "pl",
    "possibility",
    "randomset",
    "reconstruct_interval",
    "reduced_permutation_set",
    "upper_envelope",
]
