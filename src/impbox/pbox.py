"""Generalized p-boxes: comonotone lower/upper distribution pairs.

A p-box is stored once, as its levels: bounds alpha_k <= P(A_k) <= beta_k
on a nested family A_1 subset ... subset A_M = X, kept as the partition
blocks G_k = A_k minus A_(k-1) with the bounds of their level.  The
constructor checks them in O(M + n), comparing the bounds as numerators
of the integer view the closed forms read.  ``from_nested_sets`` keeps
every non-empty level it is given, even when neighbours share their
bounds; ``from_functions`` ties elements with equal values into one
level, the equivalence classes of the pre-order.  The distributions,
the level sets and the random set are all read off the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from operator import gt, or_
from typing import Iterable, Sequence

from ._exact import Ratios, cached, over_lcd
from .credal import CredalPolytope
from .errors import ValidationError
from .randomset import MassAssignment
from .space import Event, FiniteSpace, _same_space, _unit_values


@dataclass(frozen=True)
class GeneralizedPBox:
    space: FiniteSpace
    #: partition blocks G_k = A_(k) minus A_(k-1), innermost first, as masks
    block_masks: tuple[int, ...]
    #: bounds 0 <= alpha_k <= P(A_(k)) <= beta_k <= 1, non-decreasing in k
    #: and [1, 1] on A_(M) = X; neighbouring levels may share (alpha, beta)
    level_alpha: tuple[Fraction, ...]
    level_beta: tuple[Fraction, ...]

    def __init__(self, space: FiniteSpace, block_masks, level_alpha, level_beta):
        block_masks = tuple(block_masks)
        level_alpha = tuple(v if type(v) is Fraction else Fraction(v) for v in level_alpha)
        level_beta = tuple(v if type(v) is Fraction else Fraction(v) for v in level_beta)
        if not len(block_masks) == len(level_alpha) == len(level_beta):
            raise ValidationError(f"expected {len(block_masks)} alphas and betas, one per block")
        covered, full = 0, (1 << space.size) - 1
        for mask in block_masks:
            if not mask or mask & covered:
                raise ValidationError(f"block {mask:#b} is empty or meets an earlier block")
            covered |= mask
        if covered != full:
            raise ValidationError(f"blocks cover {covered:#b}, not the space {full:#b}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "block_masks", block_masks)
        object.__setattr__(self, "level_alpha", level_alpha)
        object.__setattr__(self, "level_beta", level_beta)
        ratios, levels = cached(self, "_ints", _ints)
        alpha = [a for _, a, _ in levels[:-1]]
        beta = [b for _, _, b in levels[1:]]
        for lo, hi, a, b in zip(level_alpha, level_beta, alpha, beta):
            if not 0 <= a <= b <= ratios.den:
                raise _bounds_error(lo, hi)
        if any(map(gt, alpha, alpha[1:])) or any(map(gt, beta, beta[1:])):
            raise ValidationError("level bounds must be non-decreasing outward")
        if alpha[-1] != ratios.den or beta[-1] != ratios.den:
            raise ValidationError("the whole space must carry bounds [1, 1]")

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


def _spread(pb: GeneralizedPBox, per_level: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Per-level values in label order: each element takes its block's."""
    out = [Fraction(0)] * pb.space.size
    for mask, value in zip(pb.block_masks, per_level):
        for i in Event(pb.space, mask).indices():
            out[i] = value
    return tuple(out)


def _bounds_error(lo: Fraction, hi: Fraction) -> ValidationError:
    return ValidationError(f"bounds must satisfy 0 <= lo <= hi <= 1, got [{lo}, {hi}]")


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
    blocks, alpha, beta = zip(*((sum(1 << i for i in g), lo, hi) for (lo, hi), g in ties))
    return GeneralizedPBox(space, blocks, alpha, beta)


def from_nested_sets(space: FiniteSpace, nested: Iterable) -> GeneralizedPBox:
    """Build a p-box from probability bounds on strictly increasing sets.

    A final (X, 1, 1) level is appended when absent.  An empty first level
    may state only [0, hi], hi at most the next level's, and is dropped;
    the constructor checks the bounds of every other level, kept as stated.
    """
    levels = []
    for event, lo, hi in nested:
        _same_space(space, event.space, "nested event on a different space")
        levels.append((event, Fraction(lo), Fraction(hi)))
    if not levels:
        raise ValidationError("at least one nested level is required")
    for (e1, _, _), (e2, _, _) in zip(levels, levels[1:]):
        if not (e1.mask & ~e2.mask == 0 and e1.mask != e2.mask):
            raise ValidationError(
                f"level sets must be strictly nested: {e1} is not a strict subset of {e2}"
            )
    if not levels[-1][0].is_full:
        levels.append((space.full, Fraction(1), Fraction(1)))
    if levels[0][0].is_empty:
        _, lo, hi = levels.pop(0)
        if not 0 <= lo <= hi <= 1:
            raise _bounds_error(lo, hi)
        if lo:
            raise ValidationError(f"the empty set cannot have lower bound {lo}")
        if hi > levels[0][2]:
            raise ValidationError("level bounds must be non-decreasing outward")
    events, alpha, beta = zip(*levels)
    # block k is A_k minus A_(k-1)
    inner = (0, *(event.mask for event in events))
    return GeneralizedPBox(space, [e.mask & ~m for m, e in zip(inner, events)], alpha, beta)


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


def _ints(pb: GeneralizedPBox) -> tuple:
    """``(ratios, levels)``: the answers' table over the bounds' common
    denominator, and ``(block mask, alpha_k, beta_(k-1))`` per level,
    innermost first, the bounds as numerators over it (beta_0 = 0).

    A last ``(-1, 0, 0)`` entry meets every complement, so it ends the
    last run of blocks an event contains.
    """
    m = len(pb.block_masks)
    den, nums = over_lcd(pb.level_alpha + pb.level_beta)
    levels = zip((*pb.block_masks, -1), (*nums[:m], 0), (0, *nums[m:]))
    return Ratios(den), tuple(levels)


def _lower_num(pb: GeneralizedPBox, mask: int) -> tuple[int, Ratios]:
    """``(num, ratios)``: the lower probability of the event ``mask`` is
    ``ratios[num]``, num over ``ratios.den``.

    Projects the event onto the union of blocks it fully contains and
    sums max(0, alpha_(j) - beta_(i-1)) over the maximal consecutive
    runs of blocks [i, j].
    """
    ratios, levels = cached(pb, "_ints", _ints)
    outside = ~mask
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
    return total, ratios


def lower_prob(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Exact lower probability of an event under the p-box."""
    _same_space(pb.space, a.space, "event and p-box spaces differ")
    num, ratios = _lower_num(pb, a.mask)
    return ratios[num]


def upper_prob(pb: GeneralizedPBox, a: Event) -> Fraction:
    """Conjugate upper probability: 1 - lower_prob of the complement."""
    _same_space(pb.space, a.space, "event and p-box spaces differ")
    num, ratios = _lower_num(pb, a.mask ^ ((1 << pb.space.size) - 1))
    return ratios[ratios.den - num]


def to_polytope(pb: GeneralizedPBox) -> CredalPolytope:
    """One interval constraint per distinct nested level set."""
    return CredalPolytope(pb.space, pb.levels())
