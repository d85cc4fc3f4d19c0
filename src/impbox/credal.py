"""Brute-force oracle over credal polytopes.

A credal polytope is the probability simplex intersected with interval
constraints on events.  Everything here is exact: membership is plain
rational arithmetic, lower envelopes are exact linear programs over the
simplex cut by ``<=`` rows, and an upper envelope is the conjugate of a
lower one, 1 - min P(A^c).  A polytope builds its pruned rows and an
integer-pivot simplex on its first query, runs phase 1 once, and
warm-starts every later envelope from the last optimal basis.  Each
answer is proven before it is returned, over integers and against the
rows themselves: the dual multipliers must be feasible and reach the
witness's value (LP duality), and the witness must satisfy every row;
a failure raises ``OracleError``.  The envelope's value is the proven
witness's.  The row check reads nothing but the witness, so it runs
once per distinct witness of a polytope, on its first answer, which
also builds the witness's ``ProbabilityVector``; the dual checks run
on every answer.

Every query is a batch, ``lower_envelope`` one of one event; a batch
of fewer than 2**n events solves one certified LP per event.  A batch
of at least 2**n events, such as the sweep of every event that ``impbox
verify`` makes, is answered from two certificate tables indexed by
event mask.  The first holds the least P(A) over the
witnesses the batch has proven; the second the best lower bound proven
by a dual certificate: each pruned row P(B) <= b proves lower(A) >=
1 - b for every A that contains B^c, and each LP's certified dual
proves its value for every A that contains the elements its dual
constraints reach.  Every stored dual stands for a dual-feasible y
with its value whose left side at each element, y_eq plus the duals
of the rows holding it, is at most 1 everywhere and at most 0 off its
reach; so two stored duals whose reaches are disjoint sum to one such
dual, with the sum of their values, on the union of their reaches.
An event whose two bounds meet needs no LP: it is proven again, over
integers, from the one witness and the one dual the tables picked.
Where they do not meet, one more lookup adds the dual picked for the
rest of the event, past the first dual's reach; where that sum meets
the witness, the event is proven again, over integers, from the
witness and the two duals, and the sum joins the tables as one dual.
Every other event is solved and certified as in a short batch, and
its witness and dual join the tables.

This module is the independent verifier the rest of the library is
checked against, so it deliberately knows nothing about p-boxes,
random sets, etc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import mul
from typing import Iterable, NamedTuple

from . import _simplex
from ._exact import over_lcd, shown
from .errors import InfeasibleError, OracleError, ValidationError
from .space import Event, FiniteSpace, _fraction, _same_space, _sums_to_one, _unit_values


@dataclass(frozen=True)
class ProbabilityVector:
    """A probability distribution on the elements of a finite space."""

    space: FiniteSpace
    p: tuple[Fraction, ...]

    def __init__(self, space: FiniteSpace, p: Iterable):
        p = _unit_values(space, p, "probabilities")
        _sums_to_one(*over_lcd(p), "probabilities")
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
            lo, hi = _fraction(lo, "constraint bounds"), _fraction(hi, "constraint bounds")
            if not 0 <= lo <= hi <= 1:
                raise ValidationError(
                    f"constraint bounds must satisfy 0 <= lo <= hi <= 1, "
                    f"got [{shown(lo)}, {shown(hi)}] for {event}"
                )
            checked.append((event, lo, hi))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constraints", tuple(checked))

    @cached_property
    def _oracle(self) -> _Oracle:
        # the solver's tableau and the witness table change on queries, so
        # one polytope must not be queried from two threads at once
        return _Oracle(self)


class Envelope(NamedTuple):
    value: Fraction
    witness: ProbabilityVector


class _Proof(NamedTuple):
    """What a certified LP answer leaves behind."""

    witness: ProbabilityVector
    #: the witness in lowest terms: ``witness.p[i] == x[i] / x_den``
    x: tuple[int, ...]
    x_den: int
    #: the elements i whose dual constraint ``y_eq + (the duals of the
    #: rows holding i) <= c_i`` the duals meet with a positive left side
    reach: int


class CoherenceReport(NamedTuple):
    coherent: bool
    #: one entry per constraint: (event, side, stated bound, attained envelope)
    slack: tuple[tuple[Event, str, Fraction, Fraction], ...]


def is_member(poly: CredalPolytope, p: ProbabilityVector) -> bool:
    """True iff p satisfies every constraint of the polytope exactly."""
    _same_space(poly.space, p.space, "vector and polytope spaces differ")
    return all(lo <= p.prob(event) <= hi for event, lo, hi in poly.constraints)


def _le_rows(poly: CredalPolytope) -> tuple[int, list[tuple[int, int]]]:
    """All constraints as <= rows on p, deduplicated and pruned, over the
    bounds' common denominator: ``(lcd, rows)``, each row ``(mask, weight)``
    stating P(mask) <= weight / lcd.

    Each (event, lo, hi) yields P(event) <= hi and P(event^c) <= 1 - lo.
    Rows with bound >= 1 are vacuous inside the simplex; a row is also
    dropped when another row covers a superset event with a smaller or
    equal bound.
    """
    full = (1 << poly.space.size) - 1
    lcd, nums = over_lcd([bound for _, lo, hi in poly.constraints for bound in (hi, lo)])
    best: dict[int, int] = {}
    for (event, _, _), hi, lo in zip(poly.constraints, nums[::2], nums[1::2]):
        for mask, weight in ((event.mask, hi), (full ^ event.mask, lcd - lo)):
            if mask and weight < best.get(mask, lcd):
                best[mask] = weight
    items = sorted(best.items())
    return lcd, [
        (mask, weight)
        for mask, weight in items
        if not any(o != mask and mask & ~o == 0 and w <= weight for o, w in items)
    ]


class _Oracle:
    """The pruned rows of one polytope, a warm solver over them, and the
    table of witnesses already certified.

    ``lcd, rows`` are ``_le_rows(poly)``, which the certificate and the
    batch tables read, and the solver as ``lcd * P(mask) <= weight``.
    ``solver`` is ``None`` when phase 1 finds the polytope empty.
    ``witnesses`` maps each witness in lowest terms, ``(x, x_den)`` with
    ``gcd(x_den, *x) == 1``, to its ``ProbabilityVector``; an entry is
    added only once the witness has satisfied every row, so equal
    witnesses are one immutable object.
    """

    def __init__(self, poly: CredalPolytope):
        n = poly.space.size
        self.space = poly.space
        self.bits = [1 << i for i in range(n)]
        self.lcd, self.rows = _le_rows(poly)
        self.witnesses: dict[tuple[tuple[int, ...], int], ProbabilityVector] = {}
        try:
            a_ub = [[self.lcd * (mask >> i & 1) for i in range(n)] for mask, _ in self.rows]
            self.solver = _simplex.Simplex(n, a_ub, [weight for _, weight in self.rows])
        except _simplex.Infeasible:
            self.solver = None

    def certified(self, c: list[int], sol: _simplex.Solution) -> _Proof | None:
        """The proof of ``sol`` if it is optimal for ``c`` against the
        pruned rows, by LP duality; ``None`` if it is not.

        The duals must be feasible for the dual LP and reach the witness's
        value, both over ``sol.d``.  A witness not yet in ``witnesses``
        must also be a point of the simplex that satisfies every row.
        Everything is compared over integers.
        """
        n, lcd, bits = self.space.size, self.lcd, self.bits
        x, y, d = sol
        if not (len(x) == n and len(y) == len(self.rows) + 1 and d > 0):
            return None
        dual_value = y_eq = y[-1]
        reach = [y_eq] * n  # y_eq + lcd times the duals of the rows holding i
        # only the rows with a non-zero dual add to either sum
        for (mask, weight), yr in compress(zip(self.rows, y), y):
            if yr > 0:
                return None
            dual_value += yr * weight
            for i in compress(range(n), map(mask.__and__, bits)):
                reach[i] += yr * lcd
        if not (all(r <= ci * d for r, ci in zip(reach, c)) and sum(map(mul, c, x)) == dual_value):
            return None
        g = math.gcd(d, *x)
        if g != 1:
            x, d = tuple(v // g for v in x), d // g
        witness = self.witnesses.get((x, d))
        if witness is None:
            if not (
                all(v >= 0 for v in x)
                and sum(x) == d
                and all(
                    sum(compress(x, map(mask.__and__, bits))) * lcd <= weight * d
                    for mask, weight in self.rows
                )
            ):
                return None
            # this check has covered x >= 0 and sum(x) == d, which is all
            # ProbabilityVector.__init__ would check
            witness = object.__new__(ProbabilityVector)
            object.__setattr__(witness, "space", self.space)
            object.__setattr__(witness, "p", tuple(Fraction(v, d) for v in x))
            self.witnesses[x, d] = witness
        return _Proof(witness, x, d, sum(1 << i for i, r in enumerate(reach) if r > 0))


def _solve(oracle: _Oracle, mask: int) -> tuple[Envelope, _Proof]:
    """min P(mask) by one certified LP: the envelope and its proof."""
    objective = [mask >> i & 1 for i in range(oracle.space.size)]
    proof = oracle.certified(objective, oracle.solver.minimize(objective))
    if proof is None:
        raise OracleError(
            f"the simplex answer for objective {objective} failed "
            "its exact duality certificate"
        )
    return Envelope(Fraction(sum(compress(proof.x, objective)), proof.x_den), proof.witness), proof


class _Tables:
    """What one sweep of lower envelopes has proven about one polytope,
    as two integer tables indexed by event mask.

    ``points`` holds the proofs of the sweep's distinct witnesses, and
    ``upper[mask]`` is the least P(mask) over them.  ``duals`` holds
    dual certificates as ``(reach, value)``, and ``lower[mask]`` is the
    greatest value among those whose reach lies in mask: the dual of an
    LP min P(B) keeps ``y_eq + (the duals of the rows holding i)`` at
    most 1 everywhere and at most 0 off its reach, so it is feasible,
    with the same value, for min P(A) on every A that contains its reach;
    each pruned row ``(mask, weight)`` seeds the dual
    ``(full ^ mask, (lcd - weight) / lcd)``, and ``(full, 1)`` and
    ``(0, 0)`` are seeds too.  Each seed keeps the same two bounds, so
    two stored duals whose reaches are disjoint add up to a dual that
    keeps them on the union of their reaches, with the sum of their
    values.  An entry is ``value << shift | index``: the value over the
    common denominator ``den``, the rows' ``lcd`` until a new witness
    changes it, and the index of a certificate that attains it, so
    comparing two entries compares their values, and the better one
    keeps its proof.

    Where the two tables meet, lower(A) is known without an LP.  Where
    they do not, the dual picked on A plus the dual picked on the rest
    of A past its reach may still meet the witness, and then lower(A)
    is their sum, which joins the tables as A's one dual.  Either answer
    is proven again from its certificates alone, over the elements, so
    a wrong table entry can cost an LP or raise ``OracleError``, never
    give a wrong answer.
    """

    def __init__(self, oracle: _Oracle, n_events: int):
        n = oracle.space.size
        self.oracle = oracle
        self.bits = oracle.bits
        full = (1 << n) - 1
        self.den = oracle.lcd
        # every index fits below the shift: the duals placed here, then
        # at most one witness and one dual, an LP's or a sum's, per event
        self.shift = (len(oracle.rows) + 2 + n_events).bit_length()
        self.index = (1 << self.shift) - 1
        self.points: list[_Proof] = []
        self.seen: set[int] = set()  # the ids of the witnesses in points
        # before the first witness, every entry lies above any probability
        self.upper = [self.den + 1 << self.shift] * (1 << n)
        # y = 0 proves P(A) >= 0 on every event: index 0, value 0
        self.duals: list[tuple[int, Fraction]] = [(0, Fraction(0))]
        self.lower = [0] * (1 << n)
        # y_eq = 1 proves P(X) >= 1; with the dual -1 on a pruned row
        # P(B) <= b it proves P(A) >= 1 - b wherever A contains B^c
        self.add_dual(full, Fraction(1))
        for mask, weight in oracle.rows:
            self.add_dual(full ^ mask, Fraction(self.den - weight, self.den))

    def envelope(self, mask: int) -> Envelope:
        """Lower(mask) with an attaining witness: from the tables where
        they meet or, one lookup later, where the dual ``lower[mask]``
        picks plus the dual ``lower`` picks on the rest of mask meets
        the witness table; else from one certified LP, whose witness and
        dual then join the tables."""
        up, down, shift, index = self.upper[mask], self.lower[mask], self.shift, self.index
        if up >> shift == down >> shift:
            point = self.points[up & index]
            reach, value = self.duals[down & index]
            # a member with P(mask) = value, and a dual feasible for mask with it
            attained = sum(compress(point.x, map(mask.__and__, self.bits)))
            if reach & ~mask or value.denominator * attained != value.numerator * point.x_den:
                raise OracleError(
                    f"the stored certificates for the event {mask:#b} failed "
                    "their exact check"
                )
            return Envelope(value, point.witness)
        first = self.duals[down & index]
        other = self.lower[mask & ~first[0]]
        if (down >> shift) + (other >> shift) == up >> shift:
            return self.add_sum(mask, self.points[up & index], first, self.duals[other & index])
        envelope, proof = _solve(self.oracle, mask)
        if id(proof.witness) not in self.seen:
            self.add_point(proof)
        self.add_dual(proof.reach, envelope.value)
        return envelope

    def add_sum(
        self, mask: int, point: _Proof, first: tuple[int, Fraction], second: tuple[int, Fraction]
    ) -> Envelope:
        """Lower(mask) from a witness and two stored duals whose sum meets
        it: proven over integers, the sum then joins the tables as one
        dual.  Raises ``OracleError`` unless both reaches lie in mask and
        are disjoint, and the two values add up to the witness's P(mask)."""
        (reach, value), (more, extra) = first, second
        attained = sum(compress(point.x, map(mask.__and__, self.bits)))
        # value + extra == attained / x_den, cross-multiplied
        total = value.numerator * extra.denominator + extra.numerator * value.denominator
        if (
            reach & ~mask
            or more & ~(mask ^ reach)
            or total * point.x_den != attained * value.denominator * extra.denominator
        ):
            raise OracleError(
                f"the stored certificates summed for the event {mask:#b} failed "
                "their exact check"
            )
        value = Fraction(attained, point.x_den)
        self.add_dual(reach | more, value)
        return Envelope(value, point.witness)

    def add_point(self, proof: _Proof) -> None:
        """Lower ``upper`` to the sums of a new certified witness."""
        self.seen.add(id(proof.witness))
        x, xd = proof.x, proof.x_den
        if self.den % xd:
            self._rescale(xd)
        table = [len(self.points)]
        self.points.append(proof)
        shift, scale = self.shift, self.den // xd
        for v in x:  # doubling: entry mask sums the elements of mask
            if v:
                step = v * scale << shift
                table += [entry + step for entry in table]
            else:
                table *= 2
        self.upper = [old if old < new else new for old, new in zip(self.upper, table)]

    def add_dual(self, reach: int, value: Fraction) -> None:
        """Raise ``lower`` to ``value`` on every mask that contains ``reach``.
        ``den`` needs no rescale: the value's denominator divides the rows' lcd
        or, as ``certified`` and ``add_sum`` check, its witness's ``x_den``,
        which ``den`` is over."""
        lower = self.lower
        num = value.numerator * (self.den // value.denominator)
        if lower[reach] >> self.shift >= num:
            return  # a stored dual with a smaller reach proves as much
        entry = num << self.shift | len(self.duals)
        self.duals.append((reach, value))
        free = sub = (len(lower) - 1) ^ reach
        while True:
            k = reach | sub
            if lower[k] < entry:
                lower[k] = entry
            if not sub:
                return
            sub = (sub - 1) & free

    def _rescale(self, den: int) -> None:
        """Put both tables over a common denominator that ``den`` divides:
        each entry's value is scaled by one factor, and its index kept."""
        k = math.lcm(self.den, den) // self.den
        index = self.index
        self.lower = [e * k - (e & index) * (k - 1) for e in self.lower]
        self.upper = [e * k - (e & index) * (k - 1) for e in self.upper]
        self.den *= k


def lower_envelope(poly: CredalPolytope, a: Event) -> Envelope:
    """Exact minimum of P(a) over the polytope, with an attaining member."""
    return lower_envelopes(poly, [a])[0]


def lower_envelopes(poly: CredalPolytope, events: Iterable[Event]) -> list[Envelope]:
    """``lower_envelope`` of each event, in order, on one polytope.

    A batch of fewer than 2**n events, n the size of the space, solves
    one certified LP per event, as ``lower_envelope``'s batch of one
    does, and returns exactly the envelopes, witnesses included, of
    single queries made in the same order.  A batch of at least 2**n
    events, such as a sweep, gives the same values, and a witness may be
    another optimal point.  Most of its events need no LP: the batch
    keeps its certified witnesses and duals, and the pruned rows as
    duals, in two tables over the 2**n masks (see ``_Tables``), and
    solves an LP only where they do not meet.  So no table holds more
    entries than the batch has events, and each new witness or dual
    costs up to 2**n integer steps.  Raises ``InfeasibleError`` on an
    empty polytope, even for an empty batch.
    """
    events = list(events)
    for a in events:
        _same_space(poly.space, a.space, "event and polytope spaces differ")
    oracle = poly._oracle
    if oracle.solver is None:
        raise InfeasibleError("the credal polytope is empty")
    if len(events) < 1 << poly.space.size:
        return [_solve(oracle, a.mask)[0] for a in events]
    tables = _Tables(oracle, len(events))
    return [tables.envelope(a.mask) for a in events]


def upper_envelope(poly: CredalPolytope, a: Event) -> Envelope:
    """Exact maximum of P(a), 1 - min P(a^c), with the minimizer of P(a^c)."""
    value, witness = lower_envelope(poly, a.complement())
    return Envelope(1 - value, witness)


def is_empty(poly: CredalPolytope) -> bool:
    """True iff no probability vector satisfies all constraints."""
    return poly._oracle.solver is None


def is_coherent(poly: CredalPolytope) -> CoherenceReport:
    """Check that every stated bound is attained by the envelopes.

    Raises ``InfeasibleError`` on an empty polytope.  The report names
    each constraint side whose stated bound is not the exact envelope.
    """
    events = [event for event, _, _ in poly.constraints]
    # upper(A) = 1 - lower(A^c): one batch for both sides
    lowers = lower_envelopes(poly, events + [a.complement() for a in events])
    slack = []
    for (event, lo, hi), below, above in zip(poly.constraints, lowers, lowers[len(events):]):
        if below.value != lo:
            slack.append((event, "lower", lo, below.value))
        if 1 - above.value != hi:
            slack.append((event, "upper", hi, 1 - above.value))
    return CoherenceReport(not slack, tuple(slack))
