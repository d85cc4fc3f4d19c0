"""Exact two-phase simplex with fraction-free integer pivots.

Dense solver used by the credal oracle: one variable per element, up to
2**n - 2 rows (a mass polytope states one per event; a dense 7-element
mass keeps 126 after pruning), and always the probability simplex cut
by ``<=`` rows, a bounded region.  A ``Simplex`` is built once per
constraint system, given as integers: its rows, as given, make the
first tableau, and phase 1 runs once.  Each ``minimize`` call then runs
phase 2 from the last optimal basis, which is feasible whatever the
objective, and answers with the optimal vertex and its duals.

Tableau entries are integers over one common denominator ``d > 0``, the
absolute value of the current basis determinant (Edmonds 1967, Bareiss
1968).  Pivoting on ``p`` maps an entry ``v`` to ``(p*v - f*q) // d``,
where ``f`` is the entry of ``v``'s row in the pivot column and ``q`` the
entry of the pivot row in ``v``'s column; the division is exact, and ``p``
becomes the new ``d``.  Bland's rule is used throughout, which rules out
cycling.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple


class Infeasible(Exception):
    """The constraint system has no solution."""


class Solution(NamedTuple):
    """An optimal vertex and its dual multipliers, over the tableau's
    common denominator ``d > 0``; the optimum is ``c.x / d``."""

    #: the optimal point is ``x[j] / d``
    x: tuple[int, ...]
    #: the dual multiplier of each row as given, the ``<=`` rows then the
    #: sum row, is ``y[r] / d``; ``<= 0`` for ``<=`` rows at an optimum
    y: tuple[int, ...]
    d: int


class Simplex:
    """Minimize any objective over ``a_ub.x <= b_ub, sum(x) = 1, x >= 0``.

    ``a_ub``, ``b_ub`` and every ``c`` are integers; the right-hand sides
    must be non-negative (the callers guarantee this), so the slacks of
    the <= rows and one artificial variable for the sum row form the
    starting basis.  Raises ``Infeasible`` when the system has no solution.
    """

    def __init__(self, n, a_ub, b_ub):
        #: ``minimize`` calls so far, and the phase-2 pivots they made
        self.lps = 0
        self.pivots = 0
        #: the pivots phase 1 made, the artificial's last one included
        self.phase_1_pivots = 0
        m = len(a_ub) + 1
        self._n = n
        # columns: x | ub slacks | the sum row's artificial, then the rhs
        self._art = art = n + m - 1
        if any(b < 0 for b in b_ub):
            raise ValueError("right-hand sides must be non-negative")
        self._tab = [
            [*a] + [0] * r + [1] + [0] * (m - 1 - r) + [b]
            for r, (a, b) in enumerate(zip([*a_ub, [1] * n], [*b_ub, 1]))
        ]
        self._basis = list(range(n, n + m))
        self._d = 1
        z = self._objective_row([0] * art + [1])
        self.phase_1_pivots += self._run(z, art + 1)
        if z[-1] != 0:
            raise Infeasible()
        # a basic artificial left at 0 leaves on a non-zero x or slack entry
        # of its row; each <= row has its own slack, so one exists
        if art in self._basis:
            r = self._basis.index(art)
            self._pivot(None, r, next(j for j in range(art) if self._tab[r][j]))
            self.phase_1_pivots += 1

    def _objective_row(self, cost: list[int]) -> list[int]:
        """``d`` times the reduced costs of ``cost`` at the current basis.

        The last entry is ``d`` times the objective value.
        """
        d = self._d
        z = [-v * d for v in cost] + [0]
        for row, j in zip(self._tab, self._basis):
            cb = cost[j]
            if cb:
                z = [zk + cb * v for zk, v in zip(z, row)]
        return z

    def _run(self, z: list[int], limit: int) -> int:
        """Pivot until no column below ``limit`` has a positive reduced
        cost; return the number of pivots.

        The region is bounded, so every entering column has a leaving row.
        """
        tab, basis = self._tab, self._basis
        for pivots in count():
            enter = next((j for j in range(limit) if z[j] > 0), -1)
            if enter < 0:
                return pivots
            leave = -1
            for i, row in enumerate(tab):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, num, den = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, den = i, row[-1], a
            self._pivot(z, leave, enter)

    def _pivot(self, z: list[int] | None, r: int, j: int) -> None:
        tab, d = self._tab, self._d
        prow = tab[r]
        p = prow[j]
        if p < 0:  # negate the pivot row so that the new d stays positive
            prow = tab[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[j]
            if f:
                tab[i] = [(p * v - f * q) // d for v, q in zip(row, prow)]
            elif p != d:
                tab[i] = [p * v // d for v in row]
        if z is not None:
            f = z[j]
            z[:] = [(p * v - f * q) // d for v, q in zip(z, prow)]
        self._d = p
        self._basis[r] = j

    def minimize(self, c) -> Solution:
        """Minimize ``c.x`` by phase 2 from the last optimal basis."""
        n, tab, basis = self._n, self._tab, self._basis
        z = self._objective_row(list(c) + [0] * (self._art + 1 - n))
        self.lps += 1
        self.pivots += self._run(z, self._art)
        x = [0] * n
        for row, j in zip(tab, basis):
            if j < n:
                x[j] = row[-1]
        # row r's dual is the reduced cost of its slack or artificial column over d
        return Solution(tuple(x), tuple(z[n : self._art + 1]), self._d)
