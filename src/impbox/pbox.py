"""Generalized p-boxes: comonotone lower/upper distribution pairs.

A p-box is stored through the total indexing induced by its pre-order:
``order`` ranks the elements, ``alpha``/``beta`` are the per-element
lower/upper values along that ranking.  Elements with identical value
pairs are equivalent in the pre-order; they are grouped into blocks,
and the distinct nested level sets with their bounds are derived once
at construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .credal import CredalPolytope
from .errors import SpaceMismatchError, ValidationError
from .possibility import PossibilityDistribution
from .possibility import necessity as _necessity
from .possibility import possibility as _possibility
from .randomset import MassAssignment
from .space import Event, FiniteSpace


@dataclass(frozen=True)
class GeneralizedPBox:
    space: FiniteSpace
    #: element indices ranked by the pre-order (ties in input order)
    order: tuple[int, ...]
    #: per-element lower values along ``order``
    alpha: tuple[Fraction, ...]
    #: per-element upper values along ``order``
    beta: tuple[Fraction, ...]
    #: nested level sets A_(1) subset ... subset A_(M) = X, as masks
    level_masks: tuple[int, ...]
    level_alpha: tuple[Fraction, ...]
    level_beta: tuple[Fraction, ...]
    #: partition blocks G_k = A_(k) minus A_(k-1), as masks
    block_masks: tuple[int, ...]

    @property
    def f_lower(self) -> tuple[Fraction, ...]:
        """Lower distribution in label order."""
        out = [Fraction(0)] * self.space.size
        for rank, i in enumerate(self.order):
            out[i] = self.alpha[rank]
        return tuple(out)

    @property
    def f_upper(self) -> tuple[Fraction, ...]:
        """Upper distribution in label order."""
        out = [Fraction(0)] * self.space.size
        for rank, i in enumerate(self.order):
            out[i] = self.beta[rank]
        return tuple(out)

    def levels(self) -> tuple[tuple[Event, Fraction, Fraction], ...]:
        return tuple(
            (Event(self.space, mask), a, b)
            for mask, a, b in zip(self.level_masks, self.level_alpha, self.level_beta)
        )

    def blocks(self) -> tuple[Event, ...]:
        return tuple(Event(self.space, mask) for mask in self.block_masks)


def from_functions(space: FiniteSpace, flow: Sequence, fupp: Sequence) -> GeneralizedPBox:
    """Build a p-box from its two distributions given in label order.

    Validates comonotonicity (a common sorting permutation must exist),
    flow <= fupp, and that some element carries the value 1 in both.
    """
    flow = tuple(Fraction(v) for v in flow)
    fupp = tuple(Fraction(v) for v in fupp)
    if len(flow) != space.size or len(fupp) != space.size:
        raise ValidationError("distribution lengths must match the space size")
    for v in (*flow, *fupp):
        if not 0 <= v <= 1:
            raise ValidationError(f"distribution values must lie in [0, 1], got {v}")
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

    alpha = tuple(flow[i] for i in order)
    beta = tuple(fupp[i] for i in order)

    # group equal (alpha, beta) pairs: pre-order equivalence classes
    block_masks = []
    level_alpha = []
    level_beta = []
    for rank, i in enumerate(order):
        pair = (alpha[rank], beta[rank])
        if block_masks and pair == (level_alpha[-1], level_beta[-1]):
            block_masks[-1] |= 1 << i
        else:
            block_masks.append(1 << i)
            level_alpha.append(pair[0])
            level_beta.append(pair[1])
    level_masks = []
    acc = 0
    for mask in block_masks:
        acc |= mask
        level_masks.append(acc)

    if level_beta[0] == 0:
        warnings.warn(
            "first level has upper bound 0; the innermost level set is "
            "then forced to probability 0",
            stacklevel=2,
        )

    return GeneralizedPBox(
        space=space,
        order=tuple(order),
        alpha=alpha,
        beta=beta,
        level_masks=tuple(level_masks),
        level_alpha=tuple(level_alpha),
        level_beta=tuple(level_beta),
        block_masks=tuple(block_masks),
    )


def from_nested_sets(space: FiniteSpace, nested: Iterable) -> GeneralizedPBox:
    """Build a p-box from probability bounds on a nested family of sets.

    Events must be strictly increasing; bounds must be non-decreasing
    with lo <= hi per level.  A final (X, 1, 1) level is appended when
    absent.
    """
    levels = []
    for event, lo, hi in nested:
        if event.space != space:
            raise SpaceMismatchError("nested event on a different space")
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi <= 1:
            raise ValidationError(
                f"bounds must satisfy 0 <= lo <= hi <= 1, got [{lo}, {hi}]"
            )
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

    flow = [None] * space.size
    fupp = [None] * space.size
    covered = 0
    for event, lo, hi in levels:
        for i in Event(space, event.mask & ~covered).indices():
            flow[i] = lo
            fupp[i] = hi
        covered |= event.mask
    return from_functions(space, flow, fupp)


def to_possibility_pair(
    pb: GeneralizedPBox,
) -> tuple[PossibilityDistribution, PossibilityDistribution]:
    """The pair of possibility distributions representing the p-box.

    The upper one reads off beta; the lower one is, per pre-order
    block, 1 minus the lower bound of the previous distinct level
    (1 on the innermost block).  Taking the previous level rather than
    the largest strictly smaller value keeps the pair's intersection
    equal to the p-box credal set even when two distinct levels share
    a lower bound.
    """
    n = pb.space.size
    pi_upp = [Fraction(0)] * n
    pi_low = [Fraction(0)] * n
    for k, mask in enumerate(pb.block_masks):
        level_before = pb.level_alpha[k - 1] if k > 0 else Fraction(0)
        for i in Event(pb.space, mask).indices():
            pi_low[i] = 1 - level_before
    for rank, i in enumerate(pb.order):
        pi_upp[i] = pb.beta[rank]
    return (
        PossibilityDistribution(pb.space, pi_upp),
        PossibilityDistribution(pb.space, pi_low),
    )


def to_random_set(pb: GeneralizedPBox) -> MassAssignment:
    """The random set with the same lower probability, threshold form.

    For each distinct merged level gamma of the two distributions, the
    focal event collects the elements whose upper possibility reaches
    gamma while their lower one has not been exhausted; its mass is the
    gap to the previous level.
    """
    pi_upp, pi_low = to_possibility_pair(pb)
    gammas = sorted(set(pb.alpha) | set(pb.beta))
    masses: dict[int, Fraction] = {}
    previous = Fraction(0)
    for gamma in gammas:
        if gamma == 0:
            continue
        mask = 0
        for i in range(pb.space.size):
            if pi_upp.pi[i] >= gamma and 1 - pi_low.pi[i] < gamma:
                mask |= 1 << i
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
    m_levels = len(pb.level_masks)
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


def lower_prob(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Exact lower probability of an event under the p-box.

    Projects the event onto the union of blocks it fully contains and
    sums max(0, alpha_(j) - beta_(i-1)) over the maximal consecutive
    runs of blocks.
    """
    if a.space != pb.space:
        raise SpaceMismatchError("event and p-box spaces differ")
    total = Fraction(0)
    for i, j in _runs(pb, a):
        beta_before = pb.level_beta[i - 1] if i > 0 else Fraction(0)
        total += max(Fraction(0), pb.level_alpha[j] - beta_before)
    return total


def upper_prob(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Conjugate upper probability: 1 - lower_prob of the complement."""
    return 1 - lower_prob(pb, a.complement())


def lower_prob_via_possibility(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Same lower probability, computed from the possibility pair.

    Verification only: the reference route the test suite checks
    ``lower_prob`` against.  It is not exported from ``impbox``.
    """
    if a.space != pb.space:
        raise SpaceMismatchError("event and p-box spaces differ")
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
    return CredalPolytope(
        pb.space,
        [
            (Event(pb.space, mask), a, b)
            for mask, a, b in zip(pb.level_masks, pb.level_alpha, pb.level_beta)
        ],
    )
