"""The closed forms each model answers from its cached integer view.

Every lower and upper bound must equal the oracle's envelope, and the
per-event loops of ``reference`` on masks with bits in all three bytes
of the byte tables, and come back as an exact ``Fraction``, equal
answers of one model as one object from its view's table; a model that
has answered queries keeps its cache outside ``==``, ``hash`` and
``repr``, and copies and pickles like a fresh one.
"""

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

import gen
import reference
from impbox import (
    Event,
    FiniteSpace,
    capacity,
    credal,
    enumerate_events,
    interval,
    pbox,
    possibility,
    randomset,
    space,
)
from impbox._exact import Ratios

#: kind -> (generator, lower bound, upper bound, credal set)
MODELS = {
    "gen_pbox": (gen.rand_pbox, pbox.lower_prob, pbox.upper_prob, pbox.to_polytope),
    "gen_pbox_ties": (
        lambda rng, sp: gen.rand_pbox(rng, sp, ties=True),
        pbox.lower_prob,
        pbox.upper_prob,
        pbox.to_polytope,
    ),
    "nested_pbox": (
        gen.rand_nested_pbox,
        pbox.lower_prob,
        pbox.upper_prob,
        pbox.to_polytope,
    ),
    # distinct bounds at every level: about 2n focal sets in its random set
    "gen_pbox_fine": (
        lambda rng, sp: gen.rand_pbox(rng, sp, denom=1 << 12),
        pbox.lower_prob,
        pbox.upper_prob,
        pbox.to_polytope,
    ),
    "mass": (gen.rand_mass, randomset.bel, randomset.pl, randomset.to_polytope),
    # mass on every event of one or two elements: n(n + 1)/2 focal sets,
    # so a hit set is wider than a machine word from n = 11 on
    "dense_mass": (gen.rand_dense_mass, randomset.bel, randomset.pl, randomset.to_polytope),
    "possibility": (
        gen.rand_possibility,
        possibility.necessity,
        possibility.possibility,
        possibility.to_polytope,
    ),
    "interval": (
        gen.rand_reachable_interval,
        lambda iv, a: interval.event_bounds(iv, a)[0],
        lambda iv, a: interval.event_bounds(iv, a)[1],
        interval.to_polytope,
    ),
}


@pytest.mark.parametrize("kind", MODELS)
def test_closed_forms_and_conjugates_equal_the_oracle(kind):
    make, lower, upper, polytope = MODELS[kind]
    rng = random.Random(f"closed-forms/{kind}")
    for n in (1, 2, 4, 6):
        sp = gen.SPACES[n]
        for _ in range(3):
            obj = make(rng, sp)
            poly = polytope(obj)
            for a in enumerate_events(sp):
                lo, hi = lower(obj, a), upper(obj, a)
                assert type(lo) is Fraction and type(hi) is Fraction
                assert lo == credal.lower_envelope(poly, a).value
                assert hi == credal.upper_envelope(poly, a).value
                assert hi == 1 - lower(obj, a.complement())


#: kind -> the per-event loop of ``reference`` for its (lower, upper) bounds
REFERENCES = {
    "gen_pbox": reference.pbox_bounds,
    "gen_pbox_ties": reference.pbox_bounds,
    "nested_pbox": reference.pbox_bounds,
    "gen_pbox_fine": reference.pbox_bounds,
    "mass": reference.mass_bounds,
    "dense_mass": reference.mass_bounds,
    "possibility": reference.possibility_bounds,
    "interval": reference.interval_bounds,
}


def _three_byte_masks(rng, n, count):
    """``count`` seeded masks of an n-element space with a bit in each of
    the bytes 0-7, 8-15 and 16 up, and 3 to n bits in all: a sparse
    event or a sparse complement is where a sum over it decides a bound."""
    masks = []
    for _ in range(count):
        mask = 1 << rng.randrange(8) | 1 << rng.randrange(8, 16) | 1 << rng.randrange(16, n)
        for i in rng.sample(range(n), rng.randrange(n)):
            mask |= 1 << i
        masks.append(mask)
    return masks


@pytest.mark.parametrize("kind", MODELS)
def test_closed_forms_equal_the_per_event_loops_in_every_byte(kind):
    assert space.MAX_ELEMENTS <= 24, (
        "the closed forms fold masks through three byte tables t0, t1, t2, "
        "which cover 24 elements"
    )
    assert set(REFERENCES) == set(MODELS)
    make, lower, upper, _ = MODELS[kind]
    rng = random.Random(f"byte-tables/{kind}")
    for n in (*range(1, 9), 17, 24):
        sp = gen.SPACES.get(n) or FiniteSpace([f"x{i}" for i in range(1, n + 1)])
        for _ in range(2 if n <= 8 else 4):
            obj = make(rng, sp)
            if n <= 8:
                events = list(enumerate_events(sp))
            else:
                events = [Event(sp, mask) for mask in _three_byte_masks(rng, n, 150)]
            for a in events:
                assert (lower(obj, a), upper(obj, a)) == REFERENCES[kind](obj, a)


def test_sufficiency_is_the_smallest_degree():
    rng = random.Random("sufficiency")
    for n in (1, 3, 6):
        d = gen.rand_possibility(rng, gen.SPACES[n])
        for a in enumerate_events(d.space):
            degrees = [d.pi[i] for i in a.indices()]
            assert possibility.sufficiency(d, a) == min(degrees, default=1)
            assert possibility.possibility(d, a) == max(degrees, default=0)
            assert type(possibility.sufficiency(d, a)) is Fraction


def _bounds(lower, upper):
    return lambda obj: [(lower(obj, a), upper(obj, a)) for a in enumerate_events(obj.space)]


#: kind -> (builder from a seeded generator, every answer the object gives)
OBJECTS = {
    **{kind: (make, _bounds(lower, upper)) for kind, (make, lower, upper, _) in MODELS.items()},
    "capacity": (
        gen.rand_capacity,
        lambda c: [capacity.is_2_monotone(c), capacity.is_infty_monotone(c), capacity.is_additive(c)],
    ),
    "polytope": (
        lambda rng, sp: pbox.to_polytope(gen.rand_pbox(rng, sp)),
        lambda poly: [credal.lower_envelope(poly, a).value for a in enumerate_events(poly.space)],
    ),
}


@pytest.mark.parametrize("kind", OBJECTS)
def test_a_queried_object_equals_hashes_copies_and_pickles_like_a_fresh_one(kind):
    make, ask = OBJECTS[kind]
    queried = make(random.Random(kind), gen.SPACES[4])
    fresh = make(random.Random(kind), gen.SPACES[4])
    answers = ask(queried)
    # the query left cached state behind: a view (or its answers' table)
    # the fresh object lacks, since a p-box's constructor builds its view
    assert vars(queried) != vars(fresh)
    clones = [
        copy.copy(queried),
        copy.deepcopy(queried),
        pickle.loads(pickle.dumps(queried)),
    ]
    for obj in (queried, *clones):
        assert obj == fresh
        assert hash(obj) == hash(fresh)
        assert repr(obj) == repr(fresh)
    for obj in (*clones, fresh):
        assert ask(obj) == answers


def _table(obj) -> Ratios:
    """The answers' table in a queried model's integer view; a p-box or a
    possibility distribution answers from the view of its random set."""
    view = vars(vars(obj).get("_random_set", obj))["_ints"]
    [table] = [entry for entry in view if isinstance(entry, Ratios)]
    return table


@pytest.mark.parametrize("kind", MODELS)
def test_equal_answers_are_one_object_from_the_views_table(kind):
    make, lower, upper, _ = MODELS[kind]
    rng = random.Random(f"ratios/{kind}")
    for n in (1, 3, 5, 6):
        for _ in range(4):
            obj = make(rng, gen.SPACES[n])
            answers = [v for pair in _bounds(lower, upper)(obj) for v in pair]
            first = {}
            for ans in answers:
                assert type(ans) is Fraction
                assert ans == Fraction(ans.numerator, ans.denominator)
                assert first.setdefault(ans, ans) is ans
            assert len(_table(obj)) == len(first)


@pytest.mark.parametrize("kind", MODELS)
def test_threads_querying_one_fresh_model_agree_with_one_thread(kind):
    make, lower, upper, _ = MODELS[kind]
    serial = _bounds(lower, upper)(make(random.Random("threads"), gen.SPACES[6]))
    shared = make(random.Random("threads"), gen.SPACES[6])
    answers = []

    def query():
        answers.append(_bounds(lower, upper)(shared))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [serial] * len(threads)
