"""Generalized p-boxes: comonotone lower/upper distribution pairs.

A p-box is stored once, as its levels: bounds alpha_k <= P(A_k) <= beta_k
on a nested family A_1 subset ... subset A_M = X, kept as the partition
blocks G_k = A_k minus A_(k-1) with the bounds of their level.
``from_functions`` ties elements with equal values into one block, the
equivalence classes of the pre-order; ``from_nested_sets`` keeps every
non-empty level it is given, even when neighbours share their bounds.
The distributions, the level sets, the possibility pair and the random
set are all read off the blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from operator import or_
from typing import Iterable, Sequence

from ._exact import cached, over_lcd
from .credal import CredalPolytope
from .errors import ValidationError
from .possibility import PossibilityDistribution
from .possibility import necessity as _necessity
from .possibility import possibility as _possibility
from .randomset import MassAssignment
from .space import Event, FiniteSpace, _same_space, _unit_values


@dataclass(frozen=True)
class GeneralizedPBox:
    space: FiniteSpace
    #: partition blocks G_k = A_(k) minus A_(k-1), innermost first, as masks
    block_masks: tuple[int, ...]
    #: bounds alpha_k <= P(A_(k)) <= beta_k, non-decreasing in k;
    #: neighbouring levels may share (alpha, beta)
    level_alpha: tuple[Fraction, ...]
    level_beta: tuple[Fraction, ...]

    @property
    def level_masks(self) -> tuple[int, ...]:
        """Nested level sets A_(1) subset ... subset A_(M) = X, as masks."""
        return tuple(accumulate(self.block_masks, or_))

    @property
    def f_lower(self) -> tuple[Fraction, ...]:
        """Lower distribution in label order."""
        return _spread(self, self.level_alpha)

    @property
    def f_upper(self) -> tuple[Fraction, ...]:
        """Upper distribution in label order."""
        return _spread(self, self.level_beta)

    def levels(self) -> tuple[tuple[Event, Fraction, Fraction], ...]:
        return tuple(
            (Event(self.space, mask), a, b)
            for mask, a, b in zip(self.level_masks, self.level_alpha, self.level_beta)
        )

    def blocks(self) -> tuple[Event, ...]:
        return tuple(Event(self.space, mask) for mask in self.block_masks)


def _spread(pb: GeneralizedPBox, per_level: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Per-level values in label order: each element takes its block's."""
    out = [Fraction(0)] * pb.space.size
    for mask, value in zip(pb.block_masks, per_level):
        for i in Event(pb.space, mask).indices():
            out[i] = value
    return tuple(out)


def _build(space: FiniteSpace, blocks: Iterable[tuple]) -> GeneralizedPBox:
    """The p-box of validated (block mask, alpha, beta) triples in pre-order.

    Empty blocks are dropped; every other block keeps its own level.
    """
    block_masks, level_alpha, level_beta = zip(*(b for b in blocks if b[0]))
    if level_beta[0] == 0:
        warnings.warn(
            "first level has upper bound 0; the innermost level set is "
            "then forced to probability 0",
            stacklevel=3,
        )
    return GeneralizedPBox(space, block_masks, level_alpha, level_beta)


def from_functions(space: FiniteSpace, flow: Sequence, fupp: Sequence) -> GeneralizedPBox:
    """Build a p-box from its two distributions given in label order.

    Validates comonotonicity (a common sorting permutation must exist),
    flow <= fupp, and that some element carries the value 1 in both.
    """
    flow = _unit_values(space, flow, "distribution values")
    fupp = _unit_values(space, fupp, "distribution values")
    for i in range(space.size):
        if flow[i] > fupp[i]:
            raise ValidationError(
                f"lower exceeds upper at {space.labels[i]}: {flow[i]} > {fupp[i]}"
            )
    order = sorted(range(space.size), key=lambda i: (flow[i], fupp[i]))
    for a, b in zip(order, order[1:]):
        if fupp[a] > fupp[b]:
            raise ValidationError(
                "distributions are not comonotone: "
                f"{space.labels[a]} and {space.labels[b]} sort differently",
                witness=(space.labels[a], space.labels[b]),
            )
    top = order[-1]
    if flow[top] != 1 or fupp[top] != 1:
        raise ValidationError(
            "some element must carry the value 1 in both distributions"
        )
    # elements with equal values are tied in the pre-order: one block
    ties = groupby(order, key=lambda i: (flow[i], fupp[i]))
    return _build(space, ((sum(1 << i for i in g), lo, hi) for (lo, hi), g in ties))


def from_nested_sets(space: FiniteSpace, nested: Iterable) -> GeneralizedPBox:
    """Build a p-box from probability bounds on a nested family of sets.

    Events must be strictly increasing; bounds must be non-decreasing
    with lo <= hi per level.  A final (X, 1, 1) level is appended when
    absent.  Every non-empty level is kept as stated.
    """
    levels = []
    for event, lo, hi in nested:
        _same_space(space, event.space, "nested event on a different space")
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi <= 1:
            raise ValidationError(
                f"bounds must satisfy 0 <= lo <= hi <= 1, got [{lo}, {hi}]"
            )
        if lo and not event.mask:
            raise ValidationError(f"the empty set cannot have lower bound {lo}")
        levels.append((event, lo, hi))
    if not levels:
        raise ValidationError("at least one nested level is required")
    for (e1, l1, h1), (e2, l2, h2) in zip(levels, levels[1:]):
        if not (e1.mask & ~e2.mask == 0 and e1.mask != e2.mask):
            raise ValidationError(
                f"level sets must be strictly nested: {e1} is not a strict "
                f"subset of {e2}"
            )
        if l2 < l1 or h2 < h1:
            raise ValidationError("level bounds must be non-decreasing outward")
    last_event, last_lo, last_hi = levels[-1]
    if last_event.is_full:
        if last_lo != 1 or last_hi != 1:
            raise ValidationError("the whole space must carry bounds [1, 1]")
    else:
        levels.append((space.full, Fraction(1), Fraction(1)))
    # block k is A_k minus A_(k-1)
    inner = [0, *(event.mask for event, _, _ in levels)]
    return _build(space, ((e.mask & ~m, lo, hi) for m, (e, lo, hi) in zip(inner, levels)))


def to_possibility_pair(
    pb: GeneralizedPBox,
) -> tuple[PossibilityDistribution, PossibilityDistribution]:
    """The pair of possibility distributions representing the p-box.

    The upper one reads off beta; the lower one is, per pre-order
    block, 1 minus the lower bound of the previous level (1 on the
    innermost block).  Taking the previous level rather than the
    largest strictly smaller value keeps the pair's intersection equal
    to the p-box credal set even when neighbouring levels share a lower
    bound.
    """
    alpha_before = (Fraction(0), *pb.level_alpha[:-1])
    return (
        PossibilityDistribution(pb.space, _spread(pb, pb.level_beta)),
        PossibilityDistribution(pb.space, _spread(pb, [1 - a for a in alpha_before])),
    )


def to_random_set(pb: GeneralizedPBox) -> MassAssignment:
    """The random set with the same lower probability, threshold form.

    For each distinct level bound gamma > 0, the focal event collects
    the blocks k with beta_k >= gamma > alpha_(k-1) (alpha_0 = 0): the
    upper bound of their level reaches gamma while the lower bound of
    the level before has not.  Its mass is the gap to the previous
    threshold.
    """
    alpha_before = (Fraction(0), *pb.level_alpha[:-1])
    gammas = sorted((set(pb.level_alpha) | set(pb.level_beta)) - {0})
    masses: dict[int, Fraction] = {}
    previous = Fraction(0)
    for gamma in gammas:
        mask = 0
        for block, before, beta in zip(pb.block_masks, alpha_before, pb.level_beta):
            if beta >= gamma > before:
                mask |= block
        masses[mask] = masses.get(mask, Fraction(0)) + (gamma - previous)
        previous = gamma
    return MassAssignment(pb.space, masses)


def algorithm1(pb: GeneralizedPBox) -> MassAssignment:
    """Sweep construction of the same random set, block by block.

    Walks the merged sorted list of level bounds; reaching a lower
    bound admits the next block, reaching an upper bound retires its
    block, and each segment between consecutive thresholds contributes
    its length as mass.  At a tied threshold every triggered addition
    and removal is applied before the next segment is emitted.

    Verification only: the reference route the test suite checks
    ``to_random_set`` against.  It is not exported from ``impbox``.
    """
    m_levels = len(pb.block_masks)
    additions = [(pb.level_alpha[i - 1] if i > 0 else Fraction(0), i) for i in range(m_levels)]
    removals = [(pb.level_beta[i], i) for i in range(m_levels - 1)]
    thresholds = sorted(
        list(pb.level_alpha) + list(pb.level_beta[: m_levels - 1])
    )
    segments: list[tuple[int, Fraction]] = []
    current = 0
    previous = Fraction(0)
    pending_add = sorted(additions)
    pending_rem = sorted(removals)
    for gamma in thresholds:
        while pending_add and pending_add[0][0] <= previous:
            current |= pb.block_masks[pending_add.pop(0)[1]]
        while pending_rem and pending_rem[0][0] <= previous:
            current &= ~pb.block_masks[pending_rem.pop(0)[1]]
        segments.append((current, gamma - previous))
        previous = gamma
    masses: dict[int, Fraction] = {}
    for mask, mass in segments:
        if mass > 0:
            masses[mask] = masses.get(mask, Fraction(0)) + mass
    return MassAssignment(pb.space, masses)


def _runs(pb: GeneralizedPBox, a: Event) -> list[tuple[int, int]]:
    """Maximal runs [i, j] (0-based, inclusive) of consecutive blocks in a."""
    inside = [
        k for k, mask in enumerate(pb.block_masks) if mask & ~a.mask == 0
    ]
    runs = []
    for k in inside:
        if runs and runs[-1][1] == k - 1:
            runs[-1] = (runs[-1][0], k)
        else:
            runs.append((k, k))
    return runs


def _ints(pb: GeneralizedPBox) -> tuple:
    """``(den, levels)``: ``(block mask, alpha_k, beta_(k-1))`` per level,
    innermost first, the bounds as numerators over their common
    denominator (beta_0 = 0).

    A last ``(-1, 0, 0)`` entry meets every complement, so it ends the
    last run of blocks an event contains.
    """
    m = len(pb.block_masks)
    den, nums = over_lcd(pb.level_alpha + pb.level_beta)
    levels = zip((*pb.block_masks, -1), (*nums[:m], 0), (0, *nums[m:]))
    return den, tuple(levels)


def lower_prob(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Exact lower probability of an event under the p-box.

    Projects the event onto the union of blocks it fully contains and
    sums max(0, alpha_(j) - beta_(i-1)) over the maximal consecutive
    runs of blocks [i, j].
    """
    _same_space(pb.space, a.space, "event and p-box spaces differ")
    den, levels = cached(pb, "_ints", _ints)
    outside = ~a.mask
    total = 0
    start = end = None  # beta_(i-1) and alpha_(j) of the run in progress
    for block, alpha, beta_before in levels:
        if not block & outside:
            if start is None:
                start = beta_before
            end = alpha
        elif start is not None:  # the run ended at the level before
            if end > start:
                total += end - start
            start = None
    return Fraction(total, den)


def upper_prob(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Conjugate upper probability: 1 - lower_prob of the complement."""
    return 1 - lower_prob(pb, a.complement())


def lower_prob_via_possibility(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Same lower probability, computed from the possibility pair.

    Verification only: the reference route the test suite checks
    ``lower_prob`` against.  It is not exported from ``impbox``.
    """
    _same_space(pb.space, a.space, "event and p-box spaces differ")
    pi_upp, pi_low = to_possibility_pair(pb)
    total = Fraction(0)
    for i, j in _runs(pb, a):
        up_to_j = Event(pb.space, pb.level_masks[j])
        before_i = Event(pb.space, pb.level_masks[i - 1] if i > 0 else 0)
        term = _necessity(pi_low, up_to_j) - _possibility(pi_upp, before_i)
        total += max(Fraction(0), term)
    return total


def to_polytope(pb: GeneralizedPBox) -> CredalPolytope:
    """One interval constraint per distinct nested level set."""
    return CredalPolytope(pb.space, pb.levels())
