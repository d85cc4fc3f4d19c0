"""Brute-force oracle over credal polytopes.

A credal polytope is the probability simplex intersected with interval
constraints on events.  Everything here is exact: membership is plain
rational arithmetic, lower envelopes are exact linear programs over the
simplex cut by ``<=`` rows, and an upper envelope is the conjugate of a
lower one, 1 - min P(A^c).  A polytope builds its pruned rows and an
integer-pivot simplex on its first query, runs phase 1 once, and
warm-starts every later envelope from the last optimal basis.  Each
answer is proven before it is returned: the witness must satisfy every
row and the dual multipliers must reach the same value (LP duality),
checked over integers against the rows themselves; a failure raises
``OracleError``.  This module is the independent verifier the rest of
the library is checked against, so it deliberately knows nothing about
p-boxes, random sets, etc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import _simplex
from ._exact import cached, over_lcd
from .errors import InfeasibleError, OracleError, ValidationError
from .space import Event, FiniteSpace, _same_space, _unit_values


@dataclass(frozen=True)
class ProbabilityVector:
    """A probability distribution on the elements of a finite space."""

    space: FiniteSpace
    p: tuple[Fraction, ...]

    def __init__(self, space: FiniteSpace, p: Iterable):
        p = _unit_values(space, p, "probabilities")
        den, nums = over_lcd(p)
        if sum(nums) != den:
            raise ValidationError(f"probabilities must sum to 1, got {sum(p)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "p", p)

    def prob(self, event: Event) -> Fraction:
        _same_space(self.space, event.space, "event and probability vector spaces differ")
        return sum((self.p[i] for i in event.indices()), Fraction(0))


@dataclass(frozen=True)
class CredalPolytope:
    """Interval constraints on events, intersected with the simplex."""

    space: FiniteSpace
    constraints: tuple[tuple[Event, Fraction, Fraction], ...]

    def __init__(self, space: FiniteSpace, constraints: Iterable):
        checked = []
        for event, lo, hi in constraints:
            _same_space(space, event.space, "constraint event on a different space")
            lo, hi = Fraction(lo), Fraction(hi)
            if not 0 <= lo <= hi <= 1:
                raise ValidationError(
                    f"constraint bounds must satisfy 0 <= lo <= hi <= 1, "
                    f"got [{lo}, {hi}] for {event}"
                )
            checked.append((event, lo, hi))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constraints", tuple(checked))


class Envelope(NamedTuple):
    value: Fraction
    witness: ProbabilityVector


class CoherenceReport(NamedTuple):
    coherent: bool
    #: one entry per constraint: (event, side, stated bound, attained envelope)
    slack: tuple[tuple[Event, str, Fraction, Fraction], ...]


def is_member(poly: CredalPolytope, p: ProbabilityVector) -> bool:
    """True iff p satisfies every constraint of the polytope exactly."""
    _same_space(poly.space, p.space, "vector and polytope spaces differ")
    return all(lo <= p.prob(event) <= hi for event, lo, hi in poly.constraints)


def _le_rows(poly: CredalPolytope) -> list[tuple[int, Fraction]]:
    """All constraints as <= rows ``(mask, bound)`` on p, deduplicated and pruned.

    Each (event, lo, hi) yields P(event) <= hi and P(event^c) <= 1 - lo.
    Rows with bound >= 1 are vacuous inside the simplex; a row is also
    dropped when another row covers a superset event with a smaller or
    equal bound.
    """
    best: dict[int, Fraction] = {}
    for event, lo, hi in poly.constraints:
        for mask, bound in (
            (event.mask, hi),
            (event.complement().mask, 1 - lo),
        ):
            if bound >= 1 or mask == 0:
                continue
            if mask not in best or bound < best[mask]:
                best[mask] = bound
    items = sorted(best.items())
    return [
        (mask, bound)
        for mask, bound in items
        if not any(
            other != mask and mask & ~other == 0 and obound <= bound
            for other, obound in items
        )
    ]


class _Oracle:
    """The pruned rows of one polytope and a warm solver over them.

    ``solver`` is ``None`` when phase 1 finds the polytope empty.
    """

    def __init__(self, poly: CredalPolytope):
        n = poly.space.size
        rows = _le_rows(poly)
        self.space = poly.space
        # the certificate scales every bound num/den by lcd, to lcd*num/den
        self.lcd, weights = over_lcd([b for _, b in rows])
        self.rows = [
            ([i for i in range(n) if mask >> i & 1], b.numerator, b.denominator, weight)
            for (mask, b), weight in zip(rows, weights)
        ]
        try:
            a_ub = [[mask >> i & 1 for i in range(n)] for mask, _ in rows]
            self.solver = _simplex.Simplex(n, a_ub, [bound for _, bound in rows])
        except _simplex.Infeasible:
            self.solver = None

    def certified(self, c: list[int], sol: _simplex.Solution) -> bool:
        """Check ``sol`` exactly against the pruned rows, by LP duality.

        The witness must satisfy every row and attain ``sol.value``; the
        duals must be feasible for the dual LP and reach the same value.
        Everything is compared over integers.
        """
        n = self.space.size
        x, xd, y, yd = sol.x, sol.x_den, sol.y, sol.y_den
        vn, vd = sol.value.numerator, sol.value.denominator
        if not (
            len(x) == n
            and len(y) == len(self.rows) + 1
            and xd > 0
            and yd > 0
            and all(v >= 0 for v in x)
            and sum(x) == xd
            and vd * sum(ci * xi for ci, xi in zip(c, x)) == vn * xd
        ):
            return False
        y_eq = y[-1]
        dual_value = y_eq * self.lcd
        reach = [y_eq] * n  # y_eq + the duals of the rows holding i
        for (members, num, den, weight), yr in zip(self.rows, y):
            if sum(map(x.__getitem__, members)) * den > num * xd or yr > 0:
                return False
            if yr:
                dual_value += yr * weight
                for i in members:
                    reach[i] += yr
        return (
            all(r <= ci * yd for r, ci in zip(reach, c))
            and vn * yd * self.lcd == vd * dual_value
        )


def _oracle(poly: CredalPolytope) -> _Oracle:
    # the solver's tableau changes on every query, so one polytope must
    # not be queried from two threads at once
    return cached(poly, "_oracle", _Oracle)


def _solve(poly: CredalPolytope, objective: list[int]) -> tuple[Fraction, ProbabilityVector]:
    oracle = _oracle(poly)
    if oracle.solver is None:
        raise InfeasibleError("the credal polytope is empty")
    sol = oracle.solver.minimize(objective)
    if not oracle.certified(objective, sol):
        raise OracleError(
            f"the simplex answer {sol.value} for objective {objective} failed "
            "its exact duality certificate"
        )
    # the certificate has checked x >= 0 and sum(x) == x_den, which is
    # all ProbabilityVector.__init__ would check
    witness = object.__new__(ProbabilityVector)
    object.__setattr__(witness, "space", poly.space)
    object.__setattr__(witness, "p", tuple(Fraction(v, sol.x_den) for v in sol.x))
    return sol.value, witness


def lower_envelope(poly: CredalPolytope, a: Event) -> Envelope:
    """Exact minimum of P(a) over the polytope, with an attaining member."""
    _same_space(poly.space, a.space, "event and polytope spaces differ")
    return Envelope(*_solve(poly, [a.mask >> i & 1 for i in range(poly.space.size)]))


def upper_envelope(poly: CredalPolytope, a: Event) -> Envelope:
    """Exact maximum of P(a), 1 - min P(a^c), with the minimizer of P(a^c)."""
    value, witness = lower_envelope(poly, a.complement())
    return Envelope(1 - value, witness)


def is_empty(poly: CredalPolytope) -> bool:
    """True iff no probability vector satisfies all constraints."""
    return _oracle(poly).solver is None


def is_coherent(poly: CredalPolytope) -> CoherenceReport:
    """Check that every stated bound is attained by the envelopes.

    Raises ``InfeasibleError`` on an empty polytope.  The report names
    each constraint side whose stated bound is not the exact envelope.
    """
    slack = []
    for event, lo, hi in poly.constraints:
        attained_lo = lower_envelope(poly, event).value
        if attained_lo != lo:
            slack.append((event, "lower", lo, attained_lo))
        attained_hi = upper_envelope(poly, event).value
        if attained_hi != hi:
            slack.append((event, "upper", hi, attained_hi))
    return CoherenceReport(not slack, tuple(slack))
