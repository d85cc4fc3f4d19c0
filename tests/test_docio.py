import json
import random
import sys
import time
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

import gen
from impbox import (
    Capacity,
    FiniteSpace,
    GeneralizedPBox,
    MassAssignment,
    NotReachableError,
    ValidationError,
    bel,
    credal,
    docio,
    is_member,
    randomset,
)
from impbox.cli import main
from impbox.docio import Document, DocumentError, parse, serialize
from impbox.pbox import lower_prob, upper_prob
from impbox.space import enumerate_events


EXPERT_DOC = json.dumps(
    {
        "kind": "gen_pbox",
        "space": ["x1", "x2", "x3", "x4", "x5", "x6"],
        "F_low": ["0", "0", "0.2", "0.5", "0.5", "1"],
        "F_upp": ["0.3", "0.3", "0.7", "0.9", "0.9", "1"],
    }
)


def test_parse_expert_pbox(expert_pbox):
    doc = parse(EXPERT_DOC)
    assert doc.kind == "gen_pbox"
    assert doc.obj == expert_pbox


def test_parse_probability():
    doc = parse('{"kind": "probability", "space": ["x1", "x2"], "p": ["1/2", "1/2"]}')
    assert doc.obj.p == (F(1, 2), F(1, 2))


def test_shape_error_names_the_field():
    bad = json.loads(EXPERT_DOC)
    bad["F_low"] = bad["F_low"] + ["0"]
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps(bad))
    assert "F_low" in str(exc.value)


def test_out_of_range_number_names_the_field():
    with pytest.raises(DocumentError) as exc:
        parse('{"kind": "probability", "space": ["x1"], "p": ["3/2"]}')
    assert exc.value.path == "$.p[0]"


def test_unknown_kind_rejected():
    for kind in ('"mystery"', '["mass"]', "{}", "null"):
        with pytest.raises(DocumentError):
            parse('{"kind": %s, "space": ["x1"]}' % kind)


def test_malformed_json_rejected():
    with pytest.raises(DocumentError):
        parse("{not json")


def test_decimals_parse_exactly():
    doc = parse('{"kind": "probability", "space": ["x1", "x2"], "p": [0.3, "0.7"]}')
    assert doc.obj.p == (F(3, 10), F(7, 10))


def test_roundtrip_identity_on_canonical_documents(expert_pbox, expert_mass):
    for obj in (expert_pbox, expert_mass):
        text = serialize(docio.document_for(obj))
        again = parse(text)
        assert again.obj == obj
        assert serialize(again) == text


def test_roundtrip_other_kinds():
    samples = [
        '{"kind": "possibility", "space": ["x1", "x2"], "pi": ["1", "0.5"]}',
        '{"kind": "interval", "space": ["x1", "x2"], "l": ["0.2", "0.3"], '
        '"u": ["0.7", "0.8"]}',
        '{"kind": "capacity", "space": ["x1", "x2"], "values": '
        '{"": "0", "x1": "0.5", "x2": "0.5", "x1,x2": "1"}}',
        '{"kind": "nested_bounds", "space": ["x1", "x2", "x3"], "levels": '
        '[{"event": "x1", "lo": "0.1", "hi": "0.4"}]}',
    ]
    for text in samples:
        doc = parse(text)
        canonical = serialize(doc)
        assert serialize(parse(canonical)) == canonical


def test_nested_bounds_builds_a_pbox():
    doc = parse(
        '{"kind": "nested_bounds", "space": ["x1", "x2", "x3"], "levels": '
        '[{"event": "x1", "lo": "0.1", "hi": "0.4"}]}'
    )
    assert isinstance(doc.obj, GeneralizedPBox)


def test_mass_document():
    doc = parse(
        '{"kind": "mass", "space": ["x1", "x2"], '
        '"focal": {"x1": "0.25", "x1,x2": "0.75"}}'
    )
    assert isinstance(doc.obj, MassAssignment)
    assert dict(doc.obj.focal) == {0b01: F(1, 4), 0b11: F(3, 4)}


def _probability_text(n):
    labels = [f"x{i}" for i in range(1, n + 1)]
    return json.dumps({"kind": "probability", "space": labels, "p": ["1"] + ["0"] * (n - 1)})


def test_space_size_cap():
    """``FiniteSpace``'s ``MAX_ELEMENTS`` is the one cap on a document's space."""
    assert parse(_probability_text(24)).space.size == 24
    with pytest.raises(DocumentError) as exc:
        parse(_probability_text(25))
    assert exc.value.path == "$.space"
    assert str(exc.value) == "$.space: space has 25 elements, maximum is 24"


def test_space_size_cap_env(monkeypatch):
    """``IMPBOX_MAX_N`` is not read: it neither lowers nor raises the cap."""
    monkeypatch.setenv("IMPBOX_MAX_N", "2")
    assert parse(_probability_text(3)).space.size == 3
    with pytest.raises(DocumentError) as exc:
        parse(_probability_text(25))
    assert str(exc.value) == "$.space: space has 25 elements, maximum is 24"


@pytest.mark.parametrize("value", ["abc", "-5", "0", "25", "30"])
def test_space_size_cap_env_out_of_range(monkeypatch, value):
    monkeypatch.setenv("IMPBOX_MAX_N", value)
    assert parse(_probability_text(1)).space.size == 1


def test_unknown_label_in_event_key():
    with pytest.raises(DocumentError) as exc:
        parse(
            '{"kind": "mass", "space": ["x1", "x2"], "focal": {"x9": "1"}}'
        )
    assert "x9" in str(exc.value)


def test_oversized_rational_rejected_at_its_field():
    # 10**5000 has more digits than str() may print (sys.int_max_str_digits)
    with pytest.raises(DocumentError) as exc:
        parse('{"kind": "possibility", "space": ["a", "b"], "pi": ["1", "1e-5000"]}')
    assert exc.value.path == "$.pi[1]"


def test_rational_at_the_digit_limit_round_trips():
    limit = sys.get_int_max_str_digits()
    text = (
        '{"kind": "possibility", "space": ["a", "b"], '
        f'"pi": ["1", "1e-{limit - 1}"]}}'
    )
    assert serialize(parse(serialize(parse(text)))) == serialize(parse(text))
    with pytest.raises(DocumentError):
        parse(text.replace(f"1e-{limit - 1}", f"1e-{limit}"))


@pytest.mark.parametrize("form", ['"1/{}"', "0.{}"], ids=["string", "json-decimal"])
def test_a_literal_is_read_up_to_the_digit_limit(form):
    limit = sys.get_int_max_str_digits()

    def text(digits):
        value = form.format("1" * digits)
        return '{"kind": "possibility", "space": ["a", "b"], "pi": ["1", ' + value + "]}"

    # 1/11...1 and 11...1/10**(limit - 1): every numerator and denominator prints
    assert 0 < parse(text(limit - 1)).obj.pi[1] < 1
    with pytest.raises(DocumentError) as exc:
        parse(text(limit + 1))
    assert str(exc.value) == f"$.pi[1]: numerator or denominator exceeds {limit} digits"


def test_oversized_json_integer_is_a_document_error():
    with pytest.raises(DocumentError):
        parse('{"kind": "probability", "space": ["a"], "p": [' + "1" * 5000 + "]}")


@pytest.mark.parametrize(
    "text",
    ['"1e-100000000"', "0e9999999", "1e99999999999999999999", '"0e5000"', '" 1E+4301 "'],
)
def test_exponent_past_the_digit_limit_is_rejected_unbuilt(text):
    # building 10**exponent first would take seconds to minutes
    start = time.perf_counter()
    with pytest.raises(DocumentError) as exc:
        parse('{"kind": "possibility", "space": ["a", "b"], "pi": ["1", ' + text + "]}")
    assert time.perf_counter() - start < 5
    assert exc.value.path == "$.pi[1]"
    assert "exceeds" in str(exc.value)


@pytest.mark.parametrize("event", [1, ["a"], None, {"a": 1}])
def test_level_event_must_be_a_string(event):
    text = json.dumps(
        {"kind": "nested_bounds", "space": ["a", "b"], "levels": [{"event": event}]}
    )
    with pytest.raises(DocumentError) as exc:
        parse(text)
    assert exc.value.path == "$.levels[0].event"


def test_deeply_nested_json_is_a_document_error():
    with pytest.raises(DocumentError) as exc:
        parse("[" * 100_000 + "]" * 100_000)
    assert "nested too deeply" in str(exc.value)


def test_label_with_a_comma_is_rejected():
    # event keys join labels with ","; "a,b" would read back as {a, b}
    with pytest.raises(DocumentError) as exc:
        parse('{"kind": "possibility", "space": ["a,b", "c"], "pi": ["1", "1/2"]}')
    assert exc.value.path == "$.space"


def test_a_label_with_a_comma_is_not_serialized():
    # a library object may carry such a label; its document would not parse
    sp = FiniteSpace(["a,b", "c"])
    doc = docio.document_for(MassAssignment(sp, {sp.full: F(1)}))
    with pytest.raises(DocumentError, match="label 'a,b' contains ','") as exc:
        serialize(doc)
    assert exc.value.path == "$.space"


def _pbox_sources(rng, count):
    """(kind, object, --sigma text) for intervals along a random order and
    p-boxes, their levels tied (from nested sets) or not (from functions)."""
    for _ in range(count):
        space = gen.SPACES[rng.randint(1, 6)]
        kind = rng.choice(["interval", "gen_pbox", "nested_bounds"])
        if kind == "interval":
            iv = gen.rand_reachable_interval(rng, space, denom=rng.choice([4, 20]))
            sigma = gen.rand_permutation(rng, space).order
            yield kind, iv, ",".join(space.labels[i] for i in sigma)
        elif kind == "gen_pbox":
            yield kind, gen.rand_pbox(rng, space, ties=rng.random() < 0.5), None
        else:
            yield kind, gen.rand_nested_pbox(rng, space), None


def _reread(kind, pb):
    return parse(serialize(Document(kind, pb.space, pb))).obj


def test_pbox_conversions_write_the_pbox_or_refuse():
    rng = random.Random(2747)
    written = rejected = 0
    for kind, obj, sigma in _pbox_sources(rng, 300):
        arrows = docio.KINDS[kind].to
        pb = arrows["nested_bounds"](obj, sigma)
        again = _reread("nested_bounds", pb)
        assert again == pb
        for event in enumerate_events(pb.space):
            assert lower_prob(again, event) == lower_prob(pb, event)
            assert upper_prob(again, event) == upper_prob(pb, event)
        # refused exactly when two levels share both bounds
        pairs = list(zip(pb.level_alpha, pb.level_beta))
        try:
            functions = arrows["gen_pbox"](obj, sigma)
        except ValidationError:
            assert len(set(pairs)) < len(pairs)
            rejected += 1
        else:
            assert len(set(pairs)) == len(pairs)
            assert _reread("gen_pbox", functions) == pb
            written += 1
    assert written and rejected


#: a seeded generator for each kind whose ``KINDS`` entry states its random set
RANDOM_SET_SOURCES = {
    "mass": gen.rand_mass,
    "possibility": gen.rand_possibility,
    "gen_pbox": lambda rng, space: gen.rand_pbox(rng, space, ties=rng.random() < 0.5),
    "nested_bounds": gen.rand_nested_pbox,
}


def test_the_random_set_sources_are_the_kinds_with_a_random_set():
    assert {k for k, e in docio.KINDS.items() if e.random_set} == set(RANDOM_SET_SOURCES)


@pytest.mark.parametrize("kind", RANDOM_SET_SOURCES)
def test_the_random_set_conversions_keep_their_claims(kind):
    """``to["mass"]`` is exact, ``to["interval"]`` is outer and tightest per
    element, and the mass document parses back to the random set."""
    entry, interval_lower = docio.KINDS[kind], docio.KINDS["interval"].lower
    rng = random.Random(5323)
    for i in range(120):
        space = gen.SPACES[1 + i % 6]
        obj = RANDOM_SET_SOURCES[kind](rng, space)
        ms, iv = entry.to["mass"](obj, None), entry.to["interval"](obj, None)
        for event in enumerate_events(space):
            lower = entry.lower(obj, event)
            assert bel(ms, event) == lower, (obj, event)
            assert interval_lower(iv, event) <= lower, (obj, event)
            if event.mask.bit_count() == 1:
                assert interval_lower(iv, event) == lower, (obj, event)
                upper = 1 - entry.lower(obj, event.complement())
                assert 1 - interval_lower(iv, event.complement()) == upper, (obj, event)
        again = parse(serialize(Document("mass", space, ms))).obj
        assert again == ms
        assert kind != "mass" or again == obj


def _reference_read(kind, payload):
    """What ``parse`` must give for a ``capacity`` or ``mass`` payload:
    each key through ``space.event`` over its labels, each value as the
    JSON reader hands it over (a float as the ``_Number`` that keeps its
    text) through ``_rational``, and the model built on the ``Event``-keyed table.
    Returns the object, or the ``(message, path)`` of the error."""
    space = FiniteSpace(payload["space"])
    field = "values" if kind == "capacity" else "focal"
    table, keys = {}, {}
    try:
        for key, val in payload[field].items():
            path = f"$.{field}[{key!r}]"
            try:
                event = space.event(part for part in key.split(",") if part)
            except ValidationError as exc:
                raise DocumentError(str(exc), path) from None
            if event.mask in keys:
                raise DocumentError(f"same event as {keys[event.mask]!r}", path)
            keys[event.mask] = key
            val = json.loads(json.dumps(val), parse_float=docio._Number)
            table[event] = docio._rational(val, path)
        build = Capacity if kind == "capacity" else MassAssignment
        try:
            return build(space, table)
        except ValidationError as exc:
            raise DocumentError(str(exc)) from None
    except DocumentError as exc:
        return str(exc), exc.path


def _outcome(text):
    try:
        return parse(text).obj
    except DocumentError as exc:
        return str(exc), exc.path


def _spelling(rng, space, mask):
    """A key for ``mask``: its labels shuffled, maybe one named twice, and
    maybe empty parts."""
    parts = [space.labels[i] for i in range(space.size) if mask >> i & 1]
    if parts and rng.random() < 0.2:
        parts.append(rng.choice(parts))
    rng.shuffle(parts)
    for _ in range(rng.choice([0, 0, 1, 2])):
        parts.insert(rng.randint(0, len(parts)), "")
    return ",".join(parts)


def _value(rng, q):
    """``q`` as a JSON value: a string ("p/q" or decimal), an int or a float."""
    if q.denominator == 1 and rng.random() < 0.5:
        return q.numerator
    if 1000 % q.denominator == 0:  # a short exact decimal
        return rng.choice([float(q), str(float(q)), str(q)])
    return str(q)


def _keyed_payload(rng, kind):
    space = gen.SPACES[rng.randint(1, 4)]
    if kind == "capacity":
        # few distinct values on many keys: value texts repeat
        c = gen.rand_capacity(rng, space, denom=rng.choice([2, 4, 5]))
        table = dict(enumerate(c.values))
    else:
        table = dict(gen.rand_mass(rng, space).focal)
    field = "values" if kind == "capacity" else "focal"
    entries = [(_spelling(rng, space, m), _value(rng, q)) for m, q in table.items()]
    rng.shuffle(entries)
    fault = rng.choice([None, None, "label", "twice", "range", "missing", "boolean"])
    if fault == "label":
        i = rng.randrange(len(entries))
        entries[i] = (entries[i][0] + ",q", entries[i][1])
    elif fault == "twice":
        mask = rng.choice(list(table))
        entries.insert(rng.randint(0, len(entries)), (_spelling(rng, space, mask) + ",", "0"))
    elif fault == "range":
        i = rng.randrange(len(entries))
        entries[i] = (entries[i][0], rng.choice(["3/2", -1, 2, "-0.5"]))
    elif fault == "missing" and len(entries) > 1:
        del entries[rng.randrange(len(entries))]
    elif fault == "boolean":
        i = rng.randrange(len(entries))
        entries[i] = (entries[i][0], rng.choice([True, False]))
    keys = [key for key, _ in entries]
    if len(set(keys)) < len(keys):  # a JSON object states each key once
        return None
    return {"kind": kind, "space": list(space.labels), field: dict(entries)}


@pytest.mark.parametrize("kind", ["capacity", "mass"])
def test_keyed_payloads_read_as_the_reference_reads_them(kind):
    rng = random.Random(8117)
    read, errors = 0, set()
    for _ in range(400):
        payload = _keyed_payload(rng, kind)
        if payload is None:
            continue
        expected = _reference_read(kind, payload)
        assert _outcome(json.dumps(payload)) == expected
        if isinstance(expected, tuple):
            errors.add(expected[0].split(": ", 1)[1].split(" ")[0])
        else:
            read += 1
    assert read > 100
    # every error case was met: unknown label, second spelling, out of
    # range or boolean value, and (for capacities) a missing event
    assert {"unknown", "same", "value", "expected"} <= errors
    assert ("set" in errors) == (kind == "capacity")


def test_value_texts_are_parsed_again_on_every_read():
    text = json.dumps(
        {
            "kind": "capacity",
            "space": ["x1", "x2"],
            "values": {"": "0", "x1": "1e-700", "x2": "1e-700", "x1,x2": "1"},
        }
    )
    assert parse(text).obj.values[1] == F(1, 10**700)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(DocumentError) as exc:
            parse(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(exc.value) == "$.values['x1']: numerator or denominator exceeds 640 digits"


#: (kind, a payload with the constant at one value position, that position)
CONSTANT_POSITIONS = [
    ("probability", lambda v: {"p": [v, "1"]}, "$.p[0]"),
    ("interval", lambda v: {"l": [v, "0"], "u": ["1", "1"]}, "$.l[0]"),
    ("interval", lambda v: {"l": ["0", "0"], "u": ["1", v]}, "$.u[1]"),
    ("gen_pbox", lambda v: {"F_low": [v, "1"], "F_upp": ["1", "1"]}, "$.F_low[0]"),
    ("gen_pbox", lambda v: {"F_low": ["0", "1"], "F_upp": [v, "1"]}, "$.F_upp[0]"),
    ("nested_bounds", lambda v: {"levels": [{"event": "x1", "lo": v}]}, "$.levels[0].lo"),
    ("nested_bounds", lambda v: {"levels": [{"event": "x1", "hi": v}]}, "$.levels[0].hi"),
    ("possibility", lambda v: {"pi": ["1", v]}, "$.pi[1]"),
    ("mass", lambda v: {"focal": {"x1,x2": v}}, "$.focal['x1,x2']"),
    ("capacity", lambda v: {"values": {"": "0", "x1": v}}, "$.values['x1']"),
]


@pytest.mark.parametrize("constant", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize(
    "kind, payload, path",
    CONSTANT_POSITIONS,
    ids=[position for _, _, position in CONSTANT_POSITIONS],
)
def test_json_nan_and_infinity_are_not_rationals(tmp_path, constant, kind, payload, path):
    # json writes and reads these floats as NaN, Infinity and -Infinity
    text = json.dumps({"kind": kind, "space": ["x1", "x2"], **payload(constant)})
    with pytest.raises(DocumentError) as exc:
        parse(text)
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: cannot parse {constant!r} as a rational"
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    result = CliRunner().invoke(main, ["check", str(doc)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == f"error: {str(exc.value)}\n"


def _cli_report(tmp_path, text) -> list[str]:
    path = tmp_path / "doc.json"
    path.write_text(text)
    result = CliRunner().invoke(main, ["verify", str(path)])
    assert (result.exit_code, result.stdout) == (3, "")
    return result.stderr.splitlines()


def _assert_report_is_printed_and_attained(tmp_path, text, report):
    """The CLI prints the report, and its witness is a member of the
    polytope that attains the oracle's bound on the report's side."""
    doc = parse(text)
    (lo, hi), (oracle_lo, oracle_hi) = report.formula, report.oracle
    witness = ", ".join(f"{lab}={v}" for lab, v in zip(doc.space.labels, report.witness.p))
    assert _cli_report(tmp_path, text) == [
        f"mismatch on {report.event!r}: formula [{lo}, {hi}] vs oracle [{oracle_lo}, {oracle_hi}]",
        f"oracle {report.side} witness: {witness}",
    ]
    assert is_member(docio.KINDS[doc.kind].polytope(doc.obj), report.witness)
    bound = oracle_lo if report.side == "lower" else oracle_hi
    assert report.witness.prob(report.event) == bound


def test_verify_reports_nothing_when_every_event_agrees():
    assert docio.verify(parse(EXPERT_DOC)) is None


@pytest.mark.parametrize(
    "masks, side, formula",
    [
        ((0b011100,), "lower", (F(3, 10), F(9, 10))),
        ((0b100011,), "upper", (F(1, 5), F(4, 5))),
        # {x3,x4,x5} comes before the first wrong mask, and its upper reads the later mask
        ((0b011110, 0b100011), "upper", (F(1, 5), F(4, 5))),
    ],
    ids=["lower", "upper", "upper-of-a-later-mask"],
)
def test_verify_reports_the_first_mismatch(tmp_path, monkeypatch, masks, side, formula):
    honest = randomset.bel
    monkeypatch.setattr(
        randomset, "bel", lambda ms, a: honest(ms, a) + (F(1, 10) if a.mask in masks else 0)
    )
    doc = parse(EXPERT_DOC)
    report = docio.verify(doc)
    assert report[:4] == (
        doc.space.event(["x3", "x4", "x5"]), side, formula, (F(1, 5), F(9, 10))
    )
    _assert_report_is_printed_and_attained(tmp_path, EXPERT_DOC, report)


def test_verify_reports_a_coherent_but_wrong_belief(tmp_path, monkeypatch):
    # the pignistic probability lies in the credal set, yet is not its lower envelope
    def pignistic(ms, a):
        return sum(
            (m * (mask & a.mask).bit_count() / mask.bit_count() for mask, m in ms.focal),
            F(0),
        )

    monkeypatch.setattr(randomset, "bel", pignistic)
    text = (
        '{"kind": "mass", "space": ["x1", "x2", "x3"], '
        '"focal": {"x1": "1/2", "x1,x2,x3": "1/2"}}'
    )
    doc = parse(text)
    report = docio.verify(doc)
    assert report[:4] == (
        doc.space.event(["x1"]), "lower", (F(2, 3), F(2, 3)), (F(1, 2), F(1))
    )
    _assert_report_is_printed_and_attained(tmp_path, text, report)


def test_verify_refuses_a_non_reachable_interval_before_the_sweep(monkeypatch):
    sweeps = []
    monkeypatch.setattr(credal, "lower_envelopes", lambda poly, events: sweeps.append(poly))
    doc = parse(
        '{"kind": "interval", "space": ["a", "b", "c"], '
        '"l": ["0", "0", "0"], "u": ["1", "1/4", "1/4"]}'
    )
    with pytest.raises(NotReachableError):
        docio.verify(doc)
    assert sweeps == []
