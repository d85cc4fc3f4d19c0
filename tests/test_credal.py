import random
from fractions import Fraction as F
from operator import mul

import pytest

import gen
import reference
from impbox import (
    CredalPolytope,
    FiniteSpace,
    InfeasibleError,
    OracleError,
    ProbabilityVector,
    ValidationError,
    enumerate_events,
    is_coherent,
    is_member,
    lower_envelope,
    upper_envelope,
)
from impbox import _simplex, credal, interval, possibility, randomset
from impbox.credal import is_empty
from impbox.pbox import to_polytope


@pytest.fixture
def expert_polytope(expert_pbox):
    return to_polytope(expert_pbox)


def test_probability_vector_validation():
    sp = FiniteSpace(["x1", "x2"])
    ProbabilityVector(sp, [F(1, 2), F(1, 2)])
    with pytest.raises(ValidationError):
        ProbabilityVector(sp, [F(1, 2), F(1, 4)])
    with pytest.raises(ValidationError):
        ProbabilityVector(sp, [F(3, 2), F(-1, 2)])


def test_constraint_bounds_validated():
    sp = FiniteSpace(["x1", "x2"])
    with pytest.raises(ValidationError):
        CredalPolytope(sp, [(sp.event(["x1"]), F(1, 2), F(1, 4))])


def test_uniform_vector_is_not_member(expert_polytope, space6):
    uniform = ProbabilityVector(space6, [F(1, 6)] * 6)
    assert not is_member(expert_polytope, uniform)  # P({x1,x2}) = 1/3 > 3/10


def test_member_vector(expert_polytope, space6):
    p = ProbabilityVector(
        space6, [F(1, 10), F(1, 10), F(3, 10), F(1, 5), F(1, 10), F(1, 5)]
    )
    assert is_member(expert_polytope, p)


def test_unconstrained_polytope_accepts_everything():
    rng = random.Random(3)
    sp = gen.SPACES[4]
    poly = CredalPolytope(sp, [])
    for _ in range(10):
        assert is_member(poly, gen.rand_probability(rng, sp))


def test_unconstrained_envelopes_are_vacuous():
    sp = FiniteSpace(["x1", "x2", "x3"])
    poly = CredalPolytope(sp, [])
    a = sp.event(["x1", "x3"])
    assert lower_envelope(poly, a).value == 0
    assert upper_envelope(poly, a).value == 1


def test_expert_envelope_at_stated_constraint(expert_polytope, space6):
    a2 = space6.event(["x1", "x2", "x3"])
    assert lower_envelope(expert_polytope, a2).value == F(1, 5)


def test_expert_envelope_interior_event(expert_polytope, space6):
    a = space6.event(["x3", "x4", "x5"])
    assert lower_envelope(expert_polytope, a).value == F(1, 5)


def test_envelope_degenerate_events(expert_polytope, space6):
    assert lower_envelope(expert_polytope, space6.empty).value == 0
    assert upper_envelope(expert_polytope, space6.empty).value == 0
    assert lower_envelope(expert_polytope, space6.full).value == 1


def test_is_empty_cases(expert_polytope):
    sp = FiniteSpace(["x1", "x2"])
    over = CredalPolytope(
        sp,
        [
            (sp.event(["x1"]), F(3, 5), F(1)),
            (sp.event(["x2"]), F(3, 5), F(1)),
        ],
    )
    assert is_empty(over)
    assert not is_empty(expert_polytope)
    assert not is_empty(CredalPolytope(sp, []))


def test_envelope_on_empty_polytope_raises():
    sp = FiniteSpace(["x1", "x2"])
    over = CredalPolytope(
        sp,
        [
            (sp.event(["x1"]), F(3, 5), F(1)),
            (sp.event(["x2"]), F(3, 5), F(1)),
        ],
    )
    with pytest.raises(InfeasibleError):
        lower_envelope(over, sp.event(["x1"]))


def test_expert_polytope_is_coherent(expert_polytope):
    assert is_coherent(expert_polytope).coherent


def test_incoherent_constraint_is_reported():
    sp = FiniteSpace(["x1", "x2"])
    poly = CredalPolytope(
        sp,
        [
            (sp.event(["x1"]), F(0), F(1, 5)),
            (sp.full, F(9, 10), F(1)),
        ],
    )
    report = is_coherent(poly)
    assert not report.coherent
    events_with_slack = {(e.mask, side) for e, side, _, _ in report.slack}
    assert (sp.full.mask, "lower") in events_with_slack


def test_an_unattained_upper_bound_is_reported_on_its_side():
    sp = FiniteSpace(["x1", "x2"])
    x1 = sp.event(["x1"])
    # P(x2) >= 1/2 caps P(x1) at 1/2, below the stated 1; P(x1) = 0 is attained
    poly = CredalPolytope(sp, [(x1, F(0), F(1)), (sp.event(["x2"]), F(1, 2), F(1))])
    assert is_coherent(poly) == (False, ((x1, "upper", F(1), F(1, 2)),))


def test_trivial_constraint_is_coherent():
    sp = FiniteSpace(["x1", "x2"])
    poly = CredalPolytope(sp, [(sp.event(["x1"]), F(0), F(1))])
    assert is_coherent(poly).coherent


def test_conjugacy_and_witnesses_random():
    rng = random.Random(29)
    for _ in range(15):
        sp = gen.SPACES[rng.randint(2, 4)]
        ms = gen.rand_mass(rng, sp)
        from impbox.randomset import to_polytope as rs_polytope

        poly = rs_polytope(ms)
        for event in enumerate_events(sp):
            lo = lower_envelope(poly, event)
            hi = upper_envelope(poly, event.complement())
            assert lo.value == 1 - hi.value
            assert is_member(poly, lo.witness)
            assert is_member(poly, hi.witness)


def _pbox_polytope(rng, sp):
    return to_polytope(gen.rand_pbox(rng, sp, ties=rng.random() < 0.5))


MODELS = {
    "mass": lambda rng, sp: randomset.to_polytope(gen.rand_mass(rng, sp)),
    "interval": lambda rng, sp: interval.to_polytope(gen.rand_reachable_interval(rng, sp)),
    "pbox": _pbox_polytope,
    "possibility": lambda rng, sp: possibility.to_polytope(gen.rand_possibility(rng, sp)),
}


@pytest.mark.parametrize("model", MODELS)
def test_shared_polytope_is_order_independent(model):
    """A polytope keeps a warm solver; answers must not depend on query order."""
    rng = random.Random(37)
    for _ in range(5):
        sp = gen.SPACES[rng.randint(1, 5)]
        poly = MODELS[model](rng, sp)
        queries = [
            (envelope, event)
            for event in enumerate_events(sp)
            for envelope in (lower_envelope, upper_envelope)
        ]
        rng.shuffle(queries)
        for envelope, event in queries:
            fresh = CredalPolytope(sp, poly.constraints)
            shared = envelope(poly, event)
            assert shared.value == envelope(fresh, event).value
            assert is_member(poly, shared.witness)
            assert shared.witness.prob(event) == shared.value
            assert fresh == poly and hash(fresh) == hash(poly)


@pytest.mark.parametrize(
    "p",
    [
        [F(1, 2), F(1, 2), F(0)],
        [F(1, 3), F(1, 3), F(1, 3)],
        [F(1), F(0), F(0)],
        [F(0), F(1, 4), F(3, 4)],
    ],
)
def test_point_polytope_envelopes_are_its_probabilities(p):
    # the polytope of a probability document; phase 1 ends with the
    # artificial basic at zero and drives it out
    sp = FiniteSpace(["x1", "x2", "x3"])
    poly = CredalPolytope(sp, [(sp.singleton(i), v, v) for i, v in enumerate(p)])
    for event in enumerate_events(sp):
        expected = sum((p[i] for i in event.indices()), F(0))
        assert lower_envelope(poly, event).value == expected
        assert upper_envelope(poly, event).value == expected
        assert lower_envelope(poly, event).witness.p == tuple(p)


def test_duplicated_constraints_do_not_change_envelopes():
    rng = random.Random(41)
    for _ in range(5):
        sp = gen.SPACES[rng.randint(2, 4)]
        poly = randomset.to_polytope(gen.rand_mass(rng, sp))
        doubled = CredalPolytope(sp, poly.constraints + poly.constraints[::-1])
        for event in enumerate_events(sp):
            assert lower_envelope(doubled, event).value == lower_envelope(poly, event).value
            assert upper_envelope(doubled, event).value == upper_envelope(poly, event).value


def test_polytope_with_only_vacuous_rows():
    sp = FiniteSpace(["x1", "x2", "x3"])
    poly = CredalPolytope(
        sp, [(sp.event(["x1"]), F(0), F(1)), (sp.full, F(1), F(1)), (sp.empty, F(0), F(0))]
    )
    assert not is_empty(poly)
    for event in enumerate_events(sp):
        assert lower_envelope(poly, event).value == (1 if event.is_full else 0)
        assert upper_envelope(poly, event).value == (0 if event.is_empty else 1)


def test_empty_polytope_raises_on_every_call():
    sp = FiniteSpace(["x1", "x2"])
    over = CredalPolytope(
        sp, [(sp.event(["x1"]), F(3, 5), F(1)), (sp.event(["x2"]), F(3, 5), F(1))]
    )
    for _ in range(2):
        for event in enumerate_events(sp):
            with pytest.raises(InfeasibleError):
                lower_envelope(over, event)
            with pytest.raises(InfeasibleError):
                upper_envelope(over, event)
        assert is_empty(over)


def _objective(event):
    return [event.mask >> i & 1 for i in range(event.space.size)]


_HONEST_MINIMIZE = _simplex.Simplex.minimize


def _all_rows_but_the_last(oracle):
    """A solver over the oracle's pruned rows without the last one.

    Its answers come with a zero dual appended for the missing row, so
    they pass every check of the full certificate that depends on the
    objective, and fail it exactly when the witness breaks the last row.
    """
    n = oracle.space.size
    rows = oracle.rows[:-1]
    solver = _simplex.Simplex(
        n,
        [[int(i in members) for i in range(n)] for members, *_ in rows],
        [F(num, den) for _, num, den, _ in rows],
    )

    def minimize(c):
        sol = _HONEST_MINIMIZE(solver, c)  # even while a test patches it
        return sol._replace(y=sol.y[:-1] + (0, sol.y[-1]))

    return minimize


def _breaks_the_last_row(oracle, sol):
    members, num, den, _ = oracle.rows[-1]
    return sum(sol.x[i] for i in members) * den > num * sol.x_den


#: id -> (labels of the event queried, a wrong answer made from the honest
#: answer ``sol`` to objective ``c``); ``swept`` maps each objective of a
#: full sweep to its honest answer, whose witness is in the table
TAMPERS = {
    "value": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(value=sol.value + F(1, 7)),
    ),
    "dual-value": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(y=sol.y[:-1] + (sol.y[-1] + sol.y_den,)),
    ),
    "wrong-length": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(x=sol.x[:-1]),
    ),
    "witness": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(x=(sol.x_den,) + (0,) * (len(sol.x) - 1)),
    ),
    "dual-sign": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(y=(sol.y_den,) + sol.y[1:]),
    ),
    # the whole answer the complement got: a certified witness, with the
    # complement's value, 1/10 where 9/10 is what it attains here
    "table-witness": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: swept[tuple(1 - ci for ci in c)],
    ),
    # the expert polytope's last pruned row is P({x4,x5,x6}) <= 4/5; without
    # it, min P({x1,x2,x3}) is 0, at x4 = 9/10, x6 = 1/10
    "all-rows-but-the-last": (
        ["x1", "x2", "x3"],
        lambda sol, c, oracle, swept: _all_rows_but_the_last(oracle)(c),
    ),
}

#: tampers that need a table warmed by a sweep
WARM_ONLY = ("table-witness", "all-rows-but-the-last")


@pytest.mark.parametrize("tamper", TAMPERS)
def test_tampered_solver_answer_raises(monkeypatch, expert_pbox, space6, tamper):
    """Each wrong answer raises on a fresh polytope and after a full sweep
    has filled the witness table, and leaves the table as it was."""
    labels, wrong = TAMPERS[tamper]
    honest = _simplex.Simplex.minimize
    for warm in (True,) if tamper in WARM_ONLY else (False, True):
        poly = to_polytope(expert_pbox)
        oracle = credal._oracle(poly)
        swept = {}
        if warm:
            monkeypatch.setattr(
                _simplex.Simplex,
                "minimize",
                lambda self, c: swept.setdefault(tuple(c), honest(self, c)),
            )
            for event in enumerate_events(space6):
                lower_envelope(poly, event)
            assert len(oracle.witnesses) > 1
        table = dict(oracle.witnesses)
        monkeypatch.setattr(
            _simplex.Simplex,
            "minimize",
            lambda self, c: wrong(honest(self, c), c, oracle, swept),
        )
        with pytest.raises(OracleError):
            lower_envelope(poly, space6.event(labels))
        assert oracle.witnesses == table


def _wrong_answers(oracle, c, sol, earlier):
    """Answers to objective ``c`` that are wrong whatever the polytope."""
    yield sol._replace(value=sol.value + F(1, 7))
    yield sol._replace(y=sol.y[:-1] + (sol.y[-1] + sol.y_den,))
    yield sol._replace(x=(sol.x[0] + 1,) + sol.x[1:])  # off the simplex
    if oracle.rows:
        yield sol._replace(y=(sol.y_den,) + sol.y[1:])  # a positive row dual
        # a vertex of the simplex that breaks the first row, at its value
        i = oracle.rows[0][0][0]
        x = tuple(int(j == i) for j in range(len(sol.x)))
        yield sol._replace(x=x, x_den=1, value=F(c[i]))
    # an earlier witness, which the table may hold, that misses the value
    for other in earlier:
        if sum(map(mul, c, other.x)) * sol.value.denominator != (
            sol.value.numerator * other.x_den
        ):
            yield sol._replace(x=other.x, x_den=other.x_den)
            break


@pytest.mark.parametrize("model", MODELS)
def test_the_certificate_agrees_with_the_full_reference_check(model):
    """The once-per-witness row check accepts and rejects what checking
    every row on every answer does, as the witness table fills up."""
    rng = random.Random(f"certificate/{model}")
    for n in range(1, 7):
        for _ in range(2):
            sp = gen.SPACES[n]
            poly = MODELS[model](rng, sp)
            oracle = credal._oracle(poly)
            lacking = _all_rows_but_the_last(oracle) if oracle.rows else None
            objectives = [
                _objective(side)
                for event in enumerate_events(sp)
                for side in (event, event.complement())
            ]
            rng.shuffle(objectives)
            earlier = []
            for c in objectives:
                sol = oracle.solver.minimize(c)
                assert reference.certified(oracle, c, sol)
                witness = oracle.certified(c, sol)
                assert witness.p == tuple(F(v, sol.x_den) for v in sol.x)
                for wrong in _wrong_answers(oracle, c, sol, earlier):
                    assert not reference.certified(oracle, c, wrong)
                    assert oracle.certified(c, wrong) is None
                if lacking:
                    other = lacking(c)
                    valid = not _breaks_the_last_row(oracle, other)
                    assert reference.certified(oracle, c, other) == valid
                    assert (oracle.certified(c, other) is not None) == valid
                earlier.append(sol)


@pytest.mark.parametrize("model", MODELS)
def test_equal_witnesses_are_one_object_from_the_oracles_table(model):
    rng = random.Random(f"witnesses/{model}")
    for n in range(1, 7):
        for _ in range(2):
            sp = gen.SPACES[n]
            poly = MODELS[model](rng, sp)
            queries = [
                (envelope, event)
                for event in enumerate_events(sp)
                for envelope in (lower_envelope, upper_envelope)
            ]
            rng.shuffle(queries)
            by_point = {}
            for envelope, event in queries:
                witness = envelope(poly, event).witness
                assert by_point.setdefault(witness.p, witness) is witness
                assert is_member(poly, witness)
            table = credal._oracle(poly).witnesses
            assert len(table) == len(by_point)
            assert {id(w) for w in table.values()} == {id(w) for w in by_point.values()}


def _assert_optimal(a_ub, b_ub, a_eq, b_eq, c, sol):
    """Primal and dual feasibility and equal objectives, in Fractions."""
    x = [F(v, sol.x_den) for v in sol.x]
    y = [F(v, sol.y_den) for v in sol.y]
    rows = list(a_ub) + list(a_eq)
    assert all(v >= 0 for v in x)
    for r, (a, b) in enumerate(zip(rows, list(b_ub) + list(b_eq))):
        lhs = sum(ai * xi for ai, xi in zip(a, x))
        assert lhs <= b if r < len(a_ub) else lhs == b
    assert all(v <= 0 for v in y[: len(a_ub)])
    for j, cj in enumerate(c):
        assert sum(a[j] * yr for a, yr in zip(rows, y)) <= cj
    assert sum(ci * xi for ci, xi in zip(c, x)) == sol.value
    assert sum(b * yr for b, yr in zip(list(b_ub) + list(b_eq), y)) == sol.value


def _rand_rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _rand_simplex_system(rng, n):
    """``<=`` rows over the simplex: feasible around a random point, or
    (``None`` point) made infeasible by a row that sums past every x."""
    point = gen.rand_probability(rng, gen.SPACES[n]).p
    a_ub, b_ub = [], []
    for _ in range(rng.randint(0, 5)):
        a = rng.choice([[1] * n, [_rand_rational(rng) for _ in range(n)]])
        lhs = sum(ai * pi for ai, pi in zip(a, point))
        a_ub.append(a)
        b_ub.append(max(F(0), lhs + rng.choice([0, F(rng.randint(0, 4), 4)])))
    if rng.random() < 0.25:
        r = rng.randint(0, len(a_ub))
        a_ub.insert(r, [F(rng.randint(4, 8), 4) for _ in range(n)])
        b_ub.insert(r, F(rng.randint(0, 3), 4))
        point = None
    return a_ub, b_ub, point


def test_simplex_solves_le_systems_over_the_probability_simplex():
    rng = random.Random(8082747)
    solved = infeasible = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        a_ub, b_ub, point = _rand_simplex_system(rng, n)
        if point is None:
            with pytest.raises(_simplex.Infeasible):
                _simplex.Simplex(n, a_ub, b_ub)
            infeasible += 1
            continue
        solver = _simplex.Simplex(n, a_ub, b_ub)
        for _ in range(3):
            c = [_rand_rational(rng) for _ in range(n)]
            sol = solver.minimize(c)
            _assert_optimal(a_ub, b_ub, [[1] * n], [1], c, sol)
            assert sol.value <= sum(ci * pi for ci, pi in zip(c, point))
            solved += 1
    assert solved and infeasible


def test_simplex_rejects_negative_rhs_and_reports_infeasible():
    with pytest.raises(ValueError):
        _simplex.Simplex(1, [[1]], [-1])
    with pytest.raises(_simplex.Infeasible):
        _simplex.Simplex(2, [[1, 1]], [F(1, 2)])
