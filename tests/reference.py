"""Reference routes the closed forms of ``impbox`` are checked against.

These follow the paper's constructions step by step rather than the
library's integer views: ``algorithm1`` is the sweep that builds a
generalized p-box's random set (checked against ``pbox.to_random_set``),
``lower_prob_via_possibility`` reads the lower probability off the pair
of possibility distributions (checked against ``pbox.lower_prob``), with
their measures from ``possibility_bounds``: the library's necessity and
possibility are ``bel`` and ``pl`` of a random set, as ``pbox.lower_prob``
is, so they would check that route against itself, and
``covers_first_or_last`` is the condition under which
``convert.reconstruct_interval`` recovers the interval exactly.
Acceptance criteria 2 and 3 compare against the first two.
``certified`` is the oracle's certificate run in full on every answer,
rows included, which the oracle's once-per-witness row check is
compared against. ``mobius`` and ``zeta`` are the scalar per-mask loops
the sliced kernels of ``capacity`` are checked against, and
``covering_violation`` is the covering-pair scan whose message and
witness the ``Capacity`` constructor must repeat.  ``pbox_bounds``,
``interval_bounds``, ``mass_bounds`` and ``possibility_bounds`` are the
per-event loops over levels, elements, focal sets and degrees that the
closed forms are checked against; a p-box answers as its random set, so
``pbox_bounds`` walks its levels instead.  ``possibility_pbox``
builds a distribution's p-box block by block, one block per distinct
degree, which ``from_functions`` must match.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from impbox import (
    FiniteSpace,
    GeneralizedPBox,
    MassAssignment,
    Permutation,
    PossibilityDistribution,
    ProbabilityInterval,
    _simplex,
)
from impbox._exact import over_lcd
from impbox.credal import _Oracle
from impbox.errors import ValidationError
from impbox.possibility import to_possibility_pair
from impbox.space import Event, _same_space


def algorithm1(pb: GeneralizedPBox) -> MassAssignment:
    """Sweep construction of the p-box's random set, block by block.

    Walks the merged sorted list of level bounds; reaching a lower
    bound admits the next block, reaching an upper bound retires its
    block, and each segment between consecutive thresholds contributes
    its length as mass.  At a tied threshold every triggered addition
    and removal is applied before the next segment is emitted.
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


def lower_prob_via_possibility(pb: GeneralizedPBox, a: Event) -> Fraction:
    """The p-box's lower probability of a, from its possibility pair.

    Sums max(0, N_low(A_j) - Pi_upp(A_(i-1))) over the maximal runs of
    consecutive blocks [i, j] that a contains.
    """
    _same_space(pb.space, a.space, "event and p-box spaces differ")
    pi_upp, pi_low = to_possibility_pair(pb)
    total = Fraction(0)
    for i, j in _runs(pb, a):
        up_to_j = Event(pb.space, pb.level_masks[j])
        before_i = Event(pb.space, pb.level_masks[i - 1] if i > 0 else 0)
        n_low, _ = possibility_bounds(pi_low, up_to_j)
        _, pi_upp_before = possibility_bounds(pi_upp, before_i)
        total += max(Fraction(0), n_low - pi_upp_before)
    return total


def covers_first_or_last(space: FiniteSpace, sigmas: Sequence[Permutation]) -> bool:
    """True iff every element is first or last in some permutation."""
    seen = set()
    for sigma in sigmas:
        seen.add(sigma.order[0])
        seen.add(sigma.order[-1])
    return seen == set(range(space.size))


def certified(oracle: _Oracle, c: list[int], sol: _simplex.Solution) -> bool:
    """Check ``sol`` exactly against the pruned rows, by LP duality.

    The witness must satisfy every row P(mask) <= weight / lcd; the duals,
    of the rows ``lcd * P(mask) <= weight`` the solver is given, must be
    feasible for the dual LP and reach the witness's value, both over
    ``sol.d``.  Everything is compared over integers.
    """
    n, lcd = oracle.space.size, oracle.lcd
    x, y, d = sol
    if not (
        len(x) == n
        and len(y) == len(oracle.rows) + 1
        and d > 0
        and all(v >= 0 for v in x)
        and sum(x) == d
    ):
        return False
    y_eq = y[-1]
    dual_value = y_eq
    reach = [y_eq] * n  # y_eq + lcd times the duals of the rows holding i
    for (mask, weight), yr in zip(oracle.rows, y):
        members = [i for i in range(n) if mask >> i & 1]
        if sum(x[i] for i in members) * lcd > weight * d or yr > 0:
            return False
        if yr:
            dual_value += yr * weight
            for i in members:
                reach[i] += yr * lcd
    return (
        all(r <= ci * d for r, ci in zip(reach, c))
        and sum(ci * xi for ci, xi in zip(c, x)) == dual_value
    )


def mobius(table: list) -> list:
    """Möbius transform of a table indexed by event bitmask, in place."""
    for i in range(len(table).bit_length() - 1):
        bit = 1 << i
        for mask in range(len(table)):
            if mask & bit:
                table[mask] -= table[mask ^ bit]
    return table


def zeta(table: list) -> list:
    """Sums over subsets of a table indexed by event bitmask, in place."""
    for i in range(len(table).bit_length() - 1):
        bit = 1 << i
        for mask in range(len(table)):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    return table


def covering_violation(space: FiniteSpace, table: Sequence[Fraction]) -> ValidationError | None:
    """The error for the first covering pair A, A+{x} with mu(A) > mu(A+{x}),
    scanning masks in order and each mask's missing bits from the lowest;
    ``None`` if the table is monotone."""
    v = over_lcd(table)[1]
    full = (1 << space.size) - 1
    for mask in range(full + 1):
        for i in range(space.size):
            bit = 1 << i
            if mask & bit:
                continue
            if v[mask] > v[mask | bit]:
                small = Event(space, mask)
                big = Event(space, mask | bit)
                return ValidationError(
                    f"monotonicity violated: mu({small})={table[mask]} > "
                    f"mu({big})={table[mask | bit]}",
                    witness=(small, big),
                )
    return None



def _pbox_lower(pb: GeneralizedPBox, mask: int) -> Fraction:
    """The p-box's lower probability of the event ``mask``, walking all M
    levels once.

    Sums max(0, alpha_j - beta_(i-1)) over the maximal runs [i, j] of
    levels whose blocks the event contains; a last block that meets
    every complement ends the last run.
    """
    outside = ~mask
    total = Fraction(0)
    start = end = None  # beta_(i-1) and alpha_j of the run in progress
    levels = zip(
        (*pb.block_masks, -1), (*pb.level_alpha, 0), (Fraction(0), *pb.level_beta)
    )
    for block, alpha, beta_before in levels:
        if not block & outside:
            if start is None:
                start = beta_before
            end = alpha
        elif start is not None:
            total += max(Fraction(0), end - start)
            start = None
    return total


def pbox_bounds(pb: GeneralizedPBox, a: Event) -> tuple[Fraction, Fraction]:
    """Lower probability of a and 1 - that of its complement, by level walks."""
    return _pbox_lower(pb, a.mask), 1 - _pbox_lower(pb, a.complement().mask)


def interval_bounds(interval: ProbabilityInterval, a: Event) -> tuple[Fraction, Fraction]:
    """max(sum of l inside, 1 - sum of u outside), and dually, summed
    element by element."""
    l_in = u_in = l_out = u_out = Fraction(0)
    for i, (l, u) in enumerate(zip(interval.lower, interval.upper)):
        if a.mask >> i & 1:
            l_in, u_in = l_in + l, u_in + u
        else:
            l_out, u_out = l_out + l, u_out + u
    return max(l_in, 1 - u_out), min(u_in, 1 - l_out)


def mass_bounds(ms: MassAssignment, a: Event) -> tuple[Fraction, Fraction]:
    """Belief and plausibility of a: the masses of the focal events inside
    a, and of those meeting it."""
    return (
        sum((m for mask, m in ms.focal if mask & ~a.mask == 0), Fraction(0)),
        sum((m for mask, m in ms.focal if mask & a.mask), Fraction(0)),
    )


def possibility_bounds(d: PossibilityDistribution, a: Event) -> tuple[Fraction, Fraction]:
    """Necessity and possibility of a: 1 - the largest degree outside a,
    and the largest inside (0 on the empty event)."""
    outside = a.complement().indices()
    return (
        1 - max((d.pi[i] for i in outside), default=Fraction(0)),
        max((d.pi[i] for i in a.indices()), default=Fraction(0)),
    )


def possibility_pbox(d: PossibilityDistribution) -> GeneralizedPBox:
    """The generalized p-box of pi, one block per distinct degree, lowest
    first, with bounds [0, degree] ([1, 1] on the last)."""
    levels = d.levels()
    blocks = tuple(sum(1 << i for i, v in enumerate(d.pi) if v == b) for b in levels)
    alpha = (Fraction(0),) * (len(levels) - 1) + (Fraction(1),)
    return GeneralizedPBox(d.space, blocks, alpha, levels)
