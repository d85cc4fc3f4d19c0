"""Reference routes the closed forms of ``impbox`` are checked against.

These follow the paper's constructions step by step rather than the
library's integer views: ``algorithm1`` is the sweep that builds a
generalized p-box's random set (checked against ``pbox.to_random_set``),
``lower_prob_via_possibility`` reads the lower probability off the pair
of possibility distributions (checked against ``pbox.lower_prob``), and
``covers_first_or_last`` is the condition under which
``convert.reconstruct_interval`` recovers the interval exactly.
Acceptance criteria 2 and 3 compare against the first two.
``certified`` is the oracle's certificate run in full on every answer,
rows included, which the oracle's once-per-witness row check is
compared against. ``mobius`` and ``zeta`` are the scalar per-mask loops
the sliced kernels of ``capacity`` are checked against, and
``covering_violation`` is the covering-pair scan whose message and
witness the ``Capacity`` constructor must repeat.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from impbox import FiniteSpace, GeneralizedPBox, MassAssignment, Permutation, _simplex
from impbox._exact import over_lcd
from impbox.credal import _Oracle
from impbox.errors import ValidationError
from impbox.possibility import necessity, possibility, to_possibility_pair
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
        term = necessity(pi_low, up_to_j) - possibility(pi_upp, before_i)
        total += max(Fraction(0), term)
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
