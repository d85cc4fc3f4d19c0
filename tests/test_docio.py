import json
import sys
from fractions import Fraction as F

import pytest

from impbox import GeneralizedPBox, MassAssignment, docio
from impbox.docio import DocumentError, parse, serialize


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
    assert doc.obj.as_dict() == {0b01: F(1, 4), 0b11: F(3, 4)}


def test_space_size_cap_env(monkeypatch):
    monkeypatch.setenv("IMPBOX_MAX_N", "2")
    with pytest.raises(DocumentError) as exc:
        parse('{"kind": "probability", "space": ["x1", "x2", "x3"], '
              '"p": ["1/3", "1/3", "1/3"]}')
    assert "IMPBOX_MAX_N" in str(exc.value)


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


def test_oversized_json_integer_is_a_document_error():
    with pytest.raises(DocumentError):
        parse('{"kind": "probability", "space": ["a"], "p": [' + "1" * 5000 + "]}")
