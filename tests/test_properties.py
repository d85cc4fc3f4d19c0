"""Property tests for the document format, the CLI boundary, the checked
constructors and the paper's structural claims about each kind's lower
probability.

Hypothesis runs derandomized with a bounded example count, so every run
draws the same examples and the suite stays fast; the structural claims
run on seeded documents and the integer classifier in ``capacity``.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from impbox import (
    Capacity,
    FiniteSpace,
    GeneralizedPBox,
    MobiusAssignment,
    ValidationError,
    credal,
    enumerate_events,
    mobius_inverse,
    pbox,
    possibility,
)
from impbox._exact import over_lcd
from impbox.capacity import is_2_monotone, is_infty_monotone, mobius_transform
from impbox.cli import main
from impbox.docio import KINDS, Document, DocumentError, parse, serialize

PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)

#: one seeded generator per document kind; both p-box kinds take a p-box
BUILDERS = {
    "capacity": gen.rand_capacity,
    "mass": gen.rand_mass,
    "possibility": gen.rand_possibility,
    "interval": gen.rand_reachable_interval,
    "gen_pbox": gen.rand_pbox,
    "nested_bounds": gen.rand_pbox,
    "probability": gen.rand_probability,
}

# commas are drawn often: event keys join labels with them
LABELS = st.lists(
    st.text(
        st.one_of(st.just(","), st.characters(blacklist_categories=("Cs",))),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=4,
    unique=True,
)

NUMBER_TEXT = st.from_regex(
    r"-?[0-9]{1,3}(\.[0-9]{1,3})?([eE]-?[0-9]{1,8})?|[0-9]{1,3}/[0-9]{1,3}",
    fullmatch=True,
)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | NUMBER_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _build(kind, seed, space):
    return Document(kind, space, BUILDERS[kind](random.Random(seed), space))


@PROPERTY
@given(kind=st.sampled_from(list(BUILDERS)), seed=st.integers(0, 2**32), labels=LABELS)
def test_parse_inverts_serialize(kind, seed, labels):
    doc = _build(kind, seed, FiniteSpace(labels))
    if any("," in label for label in labels):
        # parse would refuse the document, so serialize does not write it
        with pytest.raises(DocumentError) as exc:
            serialize(doc)
        assert exc.value.path == "$.space"
        return
    text = serialize(doc)
    again = parse(text)
    assert again.kind == kind
    assert again.obj == doc.obj
    assert serialize(again) == text


def _exits_cleanly(value, command=("check",)):
    name, *options = command
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.json", "w", encoding="utf-8") as handle:
            json.dump(value, handle)
        result = runner.invoke(main, [name, "doc.json", *options])
    assert result.exit_code in (0, 1, 2, 3)
    assert result.exception is None or isinstance(result.exception, SystemExit)


@PROPERTY
@given(value=JSON)
def test_check_on_any_json_value_exits_cleanly(value):
    _exits_cleanly(value)


def _paths(value, path=()):
    """The path to every node of a JSON value, the root's included."""
    yield path
    if isinstance(value, list):
        children = enumerate(value)
    elif isinstance(value, dict):
        children = value.items()
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _mutate(data, value):
    """Replace or delete one node of a JSON value, in place."""
    # deepest first: draws lean to early entries, and the leaves are the
    # fields a reader has to check
    path = data.draw(st.sampled_from(sorted(_paths(value), key=len, reverse=True)))
    if not path:
        return data.draw(JSON)
    *parents, last = path
    node = value
    for key in parents:
        node = node[key]
    if data.draw(st.booleans()):
        node[last] = data.draw(JSON)
    else:
        del node[last]
    return value


@PROPERTY
@given(kind=st.sampled_from(list(BUILDERS)), seed=st.integers(0, 2**32), data=st.data())
def test_check_on_a_mutated_document_exits_cleanly(kind, seed, data):
    space = gen.SPACES[data.draw(st.integers(1, 4))]
    valid = json.loads(serialize(_build(kind, seed, space)))
    _exits_cleanly(_mutate(data, valid))


def _command(data, labels):
    """A query, convert or verify command line, options drawn from labels."""
    some_labels = st.lists(st.sampled_from(labels) | st.text(max_size=3), max_size=4)
    name = data.draw(st.sampled_from(["query", "convert", "verify"]))
    if name == "query":
        event = ",".join(data.draw(some_labels))
        bound = data.draw(st.sampled_from(["lower", "upper"]))
        return ["query", "--event", event, "--bound", bound]
    if name == "convert":
        # the targets of the supported conversions, or any kind
        target = st.sampled_from(["mass", "interval", "gen_pbox"]) | st.sampled_from(
            list(BUILDERS)
        )
        options = ["--to", data.draw(target)]
        if data.draw(st.booleans()):
            options += ["--sigma", ",".join(data.draw(some_labels))]
        return ["convert", *options]
    return ["verify"]


@PROPERTY
@given(kind=st.sampled_from(list(BUILDERS)), seed=st.integers(0, 2**32), data=st.data())
def test_other_commands_on_a_mutated_document_exit_cleanly(kind, seed, data):
    space = gen.SPACES[data.draw(st.integers(1, 4))]
    valid = json.loads(serialize(_build(kind, seed, space)))
    command = _command(data, list(space.labels))
    if data.draw(st.booleans()):  # else the command gets past parsing
        valid = _mutate(data, valid)
    _exits_cleanly(valid, command)


@PROPERTY
@given(values=st.lists(st.integers(-1000, 1000) | st.fractions(), max_size=8))
def test_over_lcd_puts_values_over_the_lcm_of_their_denominators(values):
    den, nums = over_lcd(values)
    assert den > 0 and len(nums) == len(values)
    assert all(Fraction(num, den) == v for num, v in zip(nums, values))
    # den is a common multiple, and no smaller one works: were den = k*lcm
    # with k > 1, k would divide den and every numerator
    assert all(den % Fraction(v).denominator == 0 for v in values)
    assert math.gcd(den, *nums) == 1


@PROPERTY
@given(values=st.lists(st.integers(), max_size=8))
def test_over_lcd_of_ints_is_the_ints_over_one(values):
    assert over_lcd(values) == (1, values)


#: documents per kind for the structural claims, at n = 1-6 in turn
CLAIM_DOCS = 300

#: the kinds the paper shows to be random sets: the ``KINDS`` entry that
#: reads their lower probability, a generator, and the random set itself;
#: the p-box generator runs with and without crossing ties
RANDOM_SET_KINDS = {
    "gen_pbox": ("gen_pbox", gen.rand_pbox, pbox.to_random_set),
    "gen_pbox-ties": (
        "gen_pbox",
        lambda rng, space: gen.rand_pbox(rng, space, ties=True),
        pbox.to_random_set,
    ),
    "possibility": ("possibility", gen.rand_possibility, possibility.to_random_set),
    "mass": ("mass", gen.rand_mass, lambda ms: ms),
}


def _tables(kind, builder, seed):
    """``(obj, table)`` for CLAIM_DOCS seeded documents: the table is the
    kind's lower probability on every event, as a validated capacity."""
    rng = random.Random(seed)
    for i in range(CLAIM_DOCS):
        space = gen.SPACES[1 + i % 6]
        obj = builder(rng, space)
        lower = KINDS[kind].lower
        yield obj, Capacity(space, [lower(obj, e) for e in enumerate_events(space)])


def _mobius_focal(table):
    """The non-zero Möbius masses of a table, keyed by event mask."""
    return {mask: m for mask, m in enumerate(mobius_transform(table).masses) if m}


@pytest.mark.parametrize("name", list(RANDOM_SET_KINDS))
def test_random_set_kinds_have_infinity_monotone_lower_probabilities(name):
    kind, builder, random_set = RANDOM_SET_KINDS[name]
    for obj, table in _tables(kind, builder, seed=17):
        assert is_infty_monotone(table), obj
        # the table's Möbius masses are the kind's own random set
        assert _mobius_focal(table) == dict(random_set(obj).focal), obj


def test_possibility_tables_have_nested_focal_sets():
    for obj, table in _tables("possibility", gen.rand_possibility, seed=19):
        chain = sorted(_mobius_focal(table), key=int.bit_count)
        assert all(a & ~b == 0 for a, b in zip(chain, chain[1:])), obj


def test_reachable_interval_tables_are_2_monotone_but_not_all_random_sets():
    tables = [t for _, t in _tables("interval", gen.rand_reachable_interval, seed=23)]
    assert all(is_2_monotone(t) for t in tables)
    assert not all(is_infty_monotone(t) for t in tables)


#: rationals in [0, 1] with small denominators, so draws often tie
BOUND = st.fractions(0, 1, max_denominator=6)


def _fault(draw, odds: int) -> bool:
    """True once in ``odds`` draws; Hypothesis shrinks it to False."""
    return draw(st.integers(1, odds)) == odds


@st.composite
def pbox_fields(draw):
    """Raw ``GeneralizedPBox`` fields at n <= 5: an ordered partition into
    blocks with one (alpha, beta) each, non-decreasing with alpha <= beta
    and a last level [1, 1], each rule broken now and then."""
    n = draw(st.integers(1, 5))
    if _fault(draw, 5):
        blocks = draw(st.lists(st.integers(-1, 1 << n), max_size=n + 1))
    else:
        order = draw(st.permutations(range(n)))
        cuts = sorted({0, n, *(c for c in draw(st.sets(st.integers(1, 4))) if c < n)})
        blocks = [sum(1 << i for i in order[a:b]) for a, b in zip(cuts, cuts[1:])]
    m = max(0, len(blocks) + draw(st.sampled_from([1, -1])) * _fault(draw, 8))
    alpha, beta = (draw(st.lists(BOUND, min_size=m, max_size=m)) for _ in "ab")
    if not _fault(draw, 4):
        alpha.sort()
    if not _fault(draw, 4):
        beta.sort()
    if not _fault(draw, 4):
        beta = [max(a, b) for a, b in zip(alpha, beta)]
    if m and not _fault(draw, 4):
        alpha[-1] = beta[-1] = Fraction(1)
    if m and _fault(draw, 6):
        bounds = draw(st.sampled_from([alpha, beta]))
        bounds[draw(st.integers(0, m - 1))] = draw(st.sampled_from([Fraction(-1, 2), Fraction(3, 2)]))
    return gen.SPACES[n], blocks, alpha, beta


@PROPERTY
@given(fields=pbox_fields())
def test_a_pbox_the_constructor_accepts_matches_the_oracle(fields):
    try:
        pb = GeneralizedPBox(*fields)
    except ValidationError:
        return
    poly = pbox.to_polytope(pb)
    for event in enumerate_events(pb.space):
        assert pbox.lower_prob(pb, event) == credal.lower_envelope(poly, event).value


@st.composite
def capacity_fields(draw):
    """Raw ``Capacity`` values at n <= 5, monotonized by a cumulative max
    over the lattice half of the time, with c(empty) = 0 and c(X) = 1
    most of the time."""
    n = draw(st.integers(1, 5))
    table = draw(st.lists(BOUND, min_size=1 << n, max_size=1 << n))
    if not _fault(draw, 2):
        for mask in range(1, 1 << n):
            for i in range(n):
                if mask >> i & 1:
                    table[mask] = max(table[mask], table[mask ^ 1 << i])
    if not _fault(draw, 5):
        table[0], table[-1] = Fraction(0), Fraction(1)
    return gen.SPACES[n], table


@PROPERTY
@given(fields=capacity_fields())
def test_a_capacity_the_constructor_accepts_is_monotone_and_normalized(fields):
    # checked against its definition, as the oracle takes no capacity yet
    try:
        c = Capacity(*fields)
    except ValidationError:
        return
    v = c.values
    assert v[0] == 0 and v[-1] == 1
    assert all(v[a] <= v[b] for a in range(len(v)) for b in range(len(v)) if a & ~b == 0)


@st.composite
def mobius_fields(draw):
    """Raw ``MobiusAssignment`` masses at n <= 5: a sparse mapping of
    signed masses, scaled to sum to 1 and off the empty set most of the
    time."""
    n = draw(st.integers(1, 5))
    masses = draw(
        st.dictionaries(
            st.integers(1 - _fault(draw, 5), (1 << n) - 1),
            st.fractions(-1, 1, max_denominator=6),
            min_size=1,
            max_size=6,
        )
    )
    total = sum(masses.values())
    if total and not _fault(draw, 5):
        masses = {mask: m / total for mask, m in masses.items()}
    return gen.SPACES[n], masses


@PROPERTY
@given(fields=mobius_fields())
def test_a_mobius_assignment_the_constructor_accepts_has_unit_total(fields):
    try:
        m = MobiusAssignment(*fields)
    except ValidationError:
        return
    assert m.masses[0] == 0 and sum(m.masses) == 1
    try:
        c = mobius_inverse(m)
    except ValidationError:
        return
    assert mobius_transform(c) == m


_TWO = FiniteSpace(["x1", "x2"])


@pytest.mark.parametrize(
    "build",
    [
        # overlapping blocks, one level for two blocks, beta = 2
        lambda: GeneralizedPBox(_TWO, (1, 1), (Fraction(1, 2),), (Fraction(2),)),
        # c(X) = 1/2, and c({x1}) = 1 exceeds it
        lambda: Capacity(_TWO, (0, 1, 0, Fraction(1, 2))),
        # masses summing to 3
        lambda: MobiusAssignment(_TWO, (0, 3, 0, 0)),
    ],
    ids=["GeneralizedPBox", "Capacity", "MobiusAssignment"],
)
def test_the_constructors_reject_the_bad_fields_the_readme_names(build):
    with pytest.raises(ValidationError):
        build()
