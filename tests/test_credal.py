import itertools
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
    lower_envelopes,
    upper_envelope,
)
from impbox import _simplex, credal, docio, interval, possibility, randomset
from impbox._exact import over_lcd
from impbox.credal import is_empty
from impbox.pbox import from_functions, to_polytope


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
    n, lcd = oracle.space.size, oracle.lcd
    rows = oracle.rows[:-1]
    solver = _simplex.Simplex(
        n,
        [[lcd * (mask >> i & 1) for i in range(n)] for mask, _ in rows],
        [weight for _, weight in rows],
    )

    def minimize(c):
        sol = _HONEST_MINIMIZE(solver, c)  # even while a test patches it
        return sol._replace(y=sol.y[:-1] + (0, sol.y[-1]))

    return minimize


def _breaks_the_last_row(oracle, sol):
    mask, weight = oracle.rows[-1]
    attained = sum(v for i, v in enumerate(sol.x) if mask >> i & 1)
    return attained * oracle.lcd > weight * sol.d


#: id -> (labels of the event queried, a wrong answer made from the honest
#: answer ``sol`` to objective ``c``); ``swept`` maps each objective of a
#: full sweep to its honest answer, whose witness is in the table
TAMPERS = {
    "dual-value": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(y=sol.y[:-1] + (sol.y[-1] + sol.d,)),
    ),
    # the honest x and y over 2d: feasible duals at the witness's value,
    # but the witness sums to 1/2
    "denominator": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(d=2 * sol.d),
    ),
    # the same fractions over -d
    "sign": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(
            x=tuple(-v for v in sol.x), y=tuple(-v for v in sol.y), d=-sol.d
        ),
    ),
    "wrong-length": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(x=sol.x[:-1]),
    ),
    # every number 0: the duals are feasible and meet the vertex's value,
    # but d = 0 is no denominator
    "zero": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: _simplex.Solution(
            (0,) * len(sol.x), (0,) * len(sol.y), 0
        ),
    ),
    "witness": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(x=(sol.d,) + (0,) * (len(sol.x) - 1)),
    ),
    "dual-sign": (
        ["x3", "x4", "x5"],
        lambda sol, c, oracle, swept: sol._replace(y=(sol.d,) + sol.y[1:]),
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
        oracle = poly._oracle
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
    yield sol._replace(y=sol.y[:-1] + (sol.y[-1] + sol.d,))
    yield sol._replace(x=(sol.x[0] + 1,) + sol.x[1:])  # off the simplex
    yield sol._replace(d=2 * sol.d)  # the witness sums to 1/2
    # the same fractions over -d, and every number 0
    yield sol._replace(x=tuple(-v for v in sol.x), y=tuple(-v for v in sol.y), d=-sol.d)
    yield _simplex.Solution((0,) * len(sol.x), (0,) * len(sol.y), 0)
    if oracle.rows:
        yield sol._replace(y=(sol.d,) + sol.y[1:])  # a positive row dual
        # a vertex of the simplex that breaks the first row
        mask = oracle.rows[0][0]
        i = (mask & -mask).bit_length() - 1  # the row's first element
        yield sol._replace(x=tuple(sol.d * (j == i) for j in range(len(sol.x))))
    # an earlier witness, which the table may hold, with the honest duals
    # over the two answers' common denominator, where it misses their value
    value = sum(map(mul, c, sol.x))
    for other in earlier:
        if sum(map(mul, c, other.x)) * sol.d != value * other.d:
            yield _simplex.Solution(
                tuple(v * sol.d for v in other.x),
                tuple(v * other.d for v in sol.y),
                sol.d * other.d,
            )
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
            oracle = poly._oracle
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
                proof = oracle.certified(c, sol)
                assert proof.witness.p == tuple(F(v, sol.d) for v in sol.x)
                assert proof.witness.p == tuple(F(v, proof.x_den) for v in proof.x)
                # a dual of min P(B) is feasible only for events holding its reach
                assert not proof.reach & ~sum(ci << i for i, ci in enumerate(c))
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
            table = poly._oracle.witnesses
            assert len(table) == len(by_point)
            assert {id(w) for w in table.values()} == {id(w) for w in by_point.values()}


def _raw_interval(rng, sp):
    """Bounds l(x) <= u(x) with free sums, so often an empty polytope."""
    lower = [F(rng.randint(0, 6), 12) for _ in range(sp.size)]
    upper = [min(F(1), lo + F(rng.randint(0, 6), 12)) for lo in lower]
    return interval.ProbabilityInterval(sp, lower, upper)


#: (generator, kind) for every kind with a polytope, plus the dense masses
#: and intervals whose bounds need not meet
ENVELOPE_SOURCES = {
    "mass": (gen.rand_mass, "mass"),
    "dense-mass": (gen.rand_dense_mass, "mass"),
    "interval": (gen.rand_reachable_interval, "interval"),
    "raw-interval": (_raw_interval, "interval"),
    "gen_pbox": (lambda rng, sp: gen.rand_pbox(rng, sp, ties=rng.random() < 0.5), "gen_pbox"),
    "nested_bounds": (gen.rand_nested_pbox, "nested_bounds"),
    "possibility": (gen.rand_possibility, "possibility"),
    "probability": (gen.rand_probability, "probability"),
}

#: 200 space sizes per source, so 1600 polytopes; dense rows make n = 6, 7 slow
SIZES = [1, 2, 3, 4, 5] * 38 + [6] * 8 + [7] * 2
DENSE_SIZES = [1, 2, 3, 4, 5] * 39 + [6] * 4 + [7]


@pytest.mark.parametrize("source", ENVELOPE_SOURCES)
def test_lower_envelopes_equal_single_queries(source):
    """A batch gives the values of one ``lower_envelope`` per event, with
    member witnesses, and is refused on exactly the empty polytopes: for
    a sweep on a fresh polytope, as ``verify`` sends it, and for two
    shuffled samples with repeats on the queried one: one of any length,
    and one of 2**n to 2**(n+1) events, which the tables answer out of
    mask order."""
    rng = random.Random(f"envelopes/{source}")
    long_rng = random.Random(f"envelopes/{source}/long")
    make, kind = ENVELOPE_SOURCES[source]
    empty = 0
    for n in DENSE_SIZES if source == "dense-mass" else SIZES:
        sp = gen.SPACES[n]
        poly = docio.KINDS[kind].polytope(make(rng, sp))
        events = list(enumerate_events(sp))
        sample = rng.choices(events, k=rng.randint(1, 2 * len(events)))
        long_sample = long_rng.choices(events, k=long_rng.randint(len(events), 2 * len(events)))
        batches = [
            (CredalPolytope(sp, poly.constraints), events),
            (poly, sample),
            (poly, long_sample),
        ]
        try:
            singles = [lower_envelope(poly, event).value for event in events]
        except InfeasibleError:
            empty += 1
            for fresh, batch in batches:
                with pytest.raises(InfeasibleError):
                    lower_envelopes(fresh, batch)
            continue
        witnesses = {}
        for fresh, batch in batches:
            found = lower_envelopes(fresh, batch)
            assert [env.value for env in found] == [singles[event.mask] for event in batch]
            for env, event in zip(found, batch):
                assert env.witness.prob(event) == env.value
                witnesses[id(env.witness)] = env.witness
        assert all(is_member(poly, witness) for witness in witnesses.values())
    assert (empty > 0) == (source == "raw-interval")


def _unordered_interval(rng, sp):
    """Bounds drawn apart, so often some l(x) > u(x), which
    ``interval.to_polytope`` writes as the point constraints l and u."""
    lower = [F(rng.randint(0, 12), 12) for _ in range(sp.size)]
    upper = [F(rng.randint(0, 12), 12) for _ in range(sp.size)]
    return interval.ProbabilityInterval(sp, lower, upper)


def _padded(rng, poly):
    """``poly``'s constraints twice over, shuffled among vacuous ones."""
    sp = poly.space
    events = list(enumerate_events(sp))
    vacuous = [(rng.choice(events), F(0), F(1)) for _ in range(3)]
    vacuous += [(sp.full, F(1), F(1)), (sp.empty, F(0), F(0))]
    constraints = list(poly.constraints) * 2 + vacuous
    rng.shuffle(constraints)
    return CredalPolytope(sp, constraints)


PRUNE_SOURCES = {**ENVELOPE_SOURCES, "unordered-interval": (_unordered_interval, "interval")}


@pytest.mark.parametrize("source", PRUNE_SOURCES)
def test_pruned_rows_imply_every_constraint_and_none_another(source):
    """``_le_rows`` keeps the rows no other kept row implies: each stated
    side P(B) <= b that the simplex does not already give is implied by a
    kept row P(A) <= a with A holding B and a <= b; no kept row implies
    another; and each kept ``weight / lcd`` is the bound stated on its
    event."""
    rng = random.Random(f"prune/{source}")
    make, kind = PRUNE_SOURCES[source]
    unordered = 0
    for n in [1, 2, 3, 4, 5] * 8 + [6]:
        sp = gen.SPACES[n]
        full = (1 << n) - 1
        model = make(rng, sp)
        if source == "unordered-interval":
            unordered += any(map(F.__gt__, model.lower, model.upper))
        plain = docio.KINDS[kind].polytope(model)
        for poly in (plain, _padded(rng, plain)):
            lcd, rows = credal._le_rows(poly)
            stated = {}  # each event's least stated upper bound
            for event, lo, hi in poly.constraints:
                for mask, bound in ((event.mask, hi), (full ^ event.mask, 1 - lo)):
                    stated[mask] = min(bound, stated.get(mask, bound))
            for mask, weight in rows:
                assert mask and F(weight, lcd) == stated[mask] < 1
            for mask, bound in stated.items():
                if mask and bound < 1:
                    assert any(
                        mask & ~kept == 0 and F(weight, lcd) <= bound for kept, weight in rows
                    )
            for (a, a_weight), (b, b_weight) in itertools.permutations(rows, 2):
                assert not (b & ~a == 0 and a_weight <= b_weight)
    assert (unordered > 0) == (source == "unordered-interval")


@pytest.mark.parametrize("source", PRUNE_SOURCES)
def test_the_solver_gets_the_rows_as_integers(monkeypatch, source):
    """The oracle builds its solver from exactly ``lcd * P(mask) <= weight``
    for each pruned row, in order, every entry an ``int``."""
    built = []
    honest = _simplex.Simplex.__init__
    monkeypatch.setattr(
        _simplex.Simplex,
        "__init__",
        lambda self, n, a_ub, b_ub: built.append((n, a_ub, b_ub)) or honest(self, n, a_ub, b_ub),
    )
    rng = random.Random(f"integer-rows/{source}")
    make, kind = PRUNE_SOURCES[source]
    for n in [1, 2, 3, 4, 5] * 4 + [6]:
        sp = gen.SPACES[n]
        oracle = docio.KINDS[kind].polytope(make(rng, sp))._oracle
        (n_given, a_ub, b_ub), = built
        built.clear()
        assert n_given == n
        assert a_ub == [[oracle.lcd * (mask >> i & 1) for i in range(n)] for mask, _ in oracle.rows]
        assert b_ub == [weight for _, weight in oracle.rows]
        assert all(type(v) is int for row in a_ub for v in row)
        assert all(type(v) is int for v in b_ub)


def _refuse_tables(monkeypatch):
    def refuse(tables, *args):
        raise AssertionError("a batch shorter than 2**n events built tables")

    monkeypatch.setattr(credal._Tables, "__init__", refuse)


@pytest.mark.parametrize("source", ENVELOPE_SOURCES)
def test_a_short_batch_is_its_single_queries(monkeypatch, source):
    """A batch of fewer than 2**n events builds no tables and returns
    exactly the envelopes, witnesses included, of single queries made in
    the same order on a copy of the polytope."""
    _refuse_tables(monkeypatch)
    rng = random.Random(f"short/{source}")
    make, kind = ENVELOPE_SOURCES[source]
    answered = 0
    for n in [1, 2, 3, 4, 5] * 6:
        sp = gen.SPACES[n]
        poly = docio.KINDS[kind].polytope(make(rng, sp))
        if is_empty(poly):
            continue
        events = list(enumerate_events(sp))
        batch = rng.choices(events, k=rng.randrange(len(events)))
        twin = CredalPolytope(sp, poly.constraints)
        assert lower_envelopes(poly, batch) == [lower_envelope(twin, event) for event in batch]
        answered += 1
    assert answered > 0


def test_is_coherent_on_a_24_element_pbox_builds_no_tables(monkeypatch):
    """A strictly ordered p-box has 24 levels, so ``is_coherent`` asks 48
    envelopes, far fewer than the 2**24 events a table would span."""
    _refuse_tables(monkeypatch)
    n = 24
    sp = FiniteSpace([f"x{i}" for i in range(1, n + 1)])
    fupp = [F(i, n) for i in range(1, n + 1)]
    flow = [v / 2 for v in fupp[:-1]] + [F(1)]
    poly = to_polytope(from_functions(sp, flow, fupp))
    assert len(poly.constraints) == n
    assert is_coherent(poly) == (True, ())


def test_an_empty_polytope_refuses_every_batch():
    sp = gen.SPACES[3]
    events = list(enumerate_events(sp))
    constraints = [(sp.event(["x1"]), F(3, 5), F(1)), (sp.event(["x2"]), F(3, 5), F(1))]
    for batch in ([], events[:3], events, events * 2):
        with pytest.raises(InfeasibleError):
            lower_envelopes(CredalPolytope(sp, constraints), batch)


def test_a_witness_with_a_new_denominator_rescales_both_tables(monkeypatch):
    """The rows' lcd is 2, and the sweep's witness (1/4, 1/4, 1/4, 1/4)
    puts both tables over 4 once; the sweep still gives each event's
    single-query value, with member witnesses, from 6 LPs."""
    sp = FiniteSpace(["a", "b", "c", "d"])
    constraints = [(sp.event(pair), F(0), F(1, 2)) for pair in ("ab", "bc", "ac")]
    poly = CredalPolytope(sp, constraints)
    rescales = []
    honest = credal._Tables._rescale
    monkeypatch.setattr(
        credal._Tables,
        "_rescale",
        lambda tables, den: rescales.append((tables.den, den)) or honest(tables, den),
    )
    events = list(enumerate_events(sp))
    found = lower_envelopes(poly, events)
    assert rescales == [(2, 4)]
    assert [env.value for env in found] == [
        lower_envelope(CredalPolytope(sp, constraints), event).value for event in events
    ]
    assert all(is_member(poly, env.witness) for env in found)
    assert poly._oracle.solver.lps == 6


@pytest.mark.parametrize("tamper", ["dual-reach", "witness-value"])
def test_a_stored_certificate_that_fails_its_check_raises(monkeypatch, expert_pbox, space6, tamper):
    """The tables only pick certificates; each answer they give is proven
    again, so a stored dual that is not feasible for the event, or a
    stored witness that misses the value, raises instead of answering."""
    full = (1 << space6.size) - 1
    poly = to_polytope(expert_pbox)
    events = list(enumerate_events(space6))
    assert [env.value for env in lower_envelopes(poly, events)] == [
        lower_envelope(poly, event).value for event in events
    ]
    if tamper == "dual-reach":
        honest_dual = credal._Tables.add_dual

        def add_dual(tables, reach, value):
            stored = len(tables.duals)
            honest_dual(tables, reach, value)
            if len(tables.duals) > stored:  # placed on reach, kept as needing every element
                tables.duals[-1] = (full, value)

        monkeypatch.setattr(credal._Tables, "add_dual", add_dual)
    else:
        honest_point = credal._Tables.add_point

        def add_point(tables, proof):
            honest_point(tables, proof)  # placed by its sums, kept with one more unit on x1
            tables.points[-1] = proof._replace(x=(proof.x[0] + 1,) + proof.x[1:])

        monkeypatch.setattr(credal._Tables, "add_point", add_point)
    with pytest.raises(OracleError):
        lower_envelopes(poly, events)


def _assert_optimal(a_ub, b_ub, a_eq, b_eq, c, sol):
    """Primal and dual feasibility and equal objectives, in Fractions;
    returns the optimum."""
    x = [F(v, sol.d) for v in sol.x]
    y = [F(v, sol.d) for v in sol.y]
    rows = list(a_ub) + list(a_eq)
    assert all(v >= 0 for v in x)
    for r, (a, b) in enumerate(zip(rows, list(b_ub) + list(b_eq))):
        lhs = sum(ai * xi for ai, xi in zip(a, x))
        assert lhs <= b if r < len(a_ub) else lhs == b
    assert all(v <= 0 for v in y[: len(a_ub)])
    for j, cj in enumerate(c):
        assert sum(a[j] * yr for a, yr in zip(rows, y)) <= cj
    value = sum(ci * xi for ci, xi in zip(c, x))
    assert sum(b * yr for b, yr in zip(list(b_ub) + list(b_eq), y)) == value
    return value


def _rand_rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _rand_objective(rng, n):
    """Random rationals put over the lcm of their denominators."""
    return over_lcd([_rand_rational(rng) for _ in range(n)])[1]


def _rand_simplex_system(rng, n):
    """Integer ``<=`` rows over the simplex, each a rational row put over
    the lcm of its denominators: feasible around a random point, or
    (``None`` point) made infeasible by a row that sums past every x."""
    point = gen.rand_probability(rng, gen.SPACES[n]).p
    rows = []
    for _ in range(rng.randint(0, 5)):
        a = rng.choice([[1] * n, [_rand_rational(rng) for _ in range(n)]])
        lhs = sum(ai * pi for ai, pi in zip(a, point))
        rows.append(a + [max(F(0), lhs + rng.choice([0, F(rng.randint(0, 4), 4)]))])
    if rng.random() < 0.25:
        r = rng.randint(0, len(rows))
        rows.insert(r, [F(rng.randint(4, 8), 4) for _ in range(n)] + [F(rng.randint(0, 3), 4)])
        point = None
    rows = [over_lcd(row)[1] for row in rows]
    return [row[:-1] for row in rows], [row[-1] for row in rows], point


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
            c = _rand_objective(rng, n)
            sol = solver.minimize(c)
            value = _assert_optimal(a_ub, b_ub, [[1] * n], [1], c, sol)
            assert value <= sum(ci * pi for ci, pi in zip(c, point))
            solved += 1
    assert solved and infeasible


def test_simplex_rejects_negative_rhs_and_reports_infeasible():
    with pytest.raises(ValueError):
        _simplex.Simplex(1, [[1]], [-1])
    with pytest.raises(_simplex.Infeasible):
        _simplex.Simplex(2, [[2, 2]], [1])


def test_simplex_counts_its_lps_and_phase_2_pivots(monkeypatch):
    pivots = []
    honest = _simplex.Simplex._pivot
    monkeypatch.setattr(
        _simplex.Simplex, "_pivot", lambda self, *args: pivots.append(args) or honest(self, *args)
    )
    rng = random.Random(3)
    for n in range(1, 6):
        for _ in range(10):
            a_ub, b_ub, point = _rand_simplex_system(rng, n)
            if point is None:
                continue
            solver = _simplex.Simplex(n, a_ub, b_ub)
            pivots.clear()  # phase 1's pivots are not counted
            assert (solver.lps, solver.pivots) == (0, 0)
            for lps in range(1, 4):
                solver.minimize(_rand_objective(rng, n))
                assert (solver.lps, solver.pivots) == (lps, len(pivots))
    assert len(pivots) > 0
