import json

import pytest
from click.testing import CliRunner

from impbox.cli import main

EXPERT_TEXT = json.dumps(
    {
        "kind": "gen_pbox",
        "space": ["x1", "x2", "x3", "x4", "x5", "x6"],
        "F_low": ["0", "0", "0.2", "0.5", "0.5", "1"],
        "F_upp": ["0.3", "0.3", "0.7", "0.9", "0.9", "1"],
    }
)

EXPECTED_MASS_OUTPUT = """\
{
  "kind": "mass",
  "space": [
    "x1",
    "x2",
    "x3",
    "x4",
    "x5",
    "x6"
  ],
  "focal": {
    "x1,x2,x3": "1/5",
    "x3,x4,x5": "1/5",
    "x1,x2,x3,x4,x5": "1/10",
    "x6": "1/10",
    "x4,x5,x6": "1/5",
    "x3,x4,x5,x6": "1/5"
  }
}
"""


@pytest.fixture
def expert_file(tmp_path):
    path = tmp_path / "expert.json"
    path.write_text(EXPERT_TEXT)
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


def test_check_valid_document(runner, expert_file):
    result = runner.invoke(main, ["check", expert_file])
    assert result.exit_code == 0
    assert "valid: yes" in result.output
    assert "blocks: 4" in result.output


def test_check_invalid_document(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "probability", "space": ["x1"], "p": ["1/2"]}')
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1


def test_convert_to_mass_golden(runner, expert_file):
    result = runner.invoke(main, ["convert", expert_file, "--to", "mass"])
    assert result.exit_code == 0
    assert result.output == EXPECTED_MASS_OUTPUT


def test_convert_matches_api(runner, expert_file):
    from impbox import docio
    from impbox.pbox import to_random_set

    doc = docio.parse(EXPERT_TEXT)
    expected = docio.serialize(docio.document_for(to_random_set(doc.obj)))
    result = runner.invoke(main, ["convert", expert_file, "--to", "mass"])
    assert result.output == expected


def test_convert_unsupported_arrow(runner, expert_file):
    result = runner.invoke(main, ["convert", expert_file, "--to", "possibility"])
    assert result.exit_code == 2
    assert "supported" in result.output


def test_convert_interval_with_sigma(runner, tmp_path):
    path = tmp_path / "iv.json"
    path.write_text(
        '{"kind": "interval", "space": ["x1", "x2"], '
        '"l": ["0.2", "0.3"], "u": ["0.7", "0.8"]}'
    )
    result = runner.invoke(
        main, ["convert", str(path), "--to", "gen_pbox", "--sigma", "x2,x1"]
    )
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["kind"] == "gen_pbox"
    assert body["F_low"] == ["1", "3/10"]


def test_query_golden(runner, expert_file):
    result = runner.invoke(
        main, ["query", expert_file, "--event", "x3,x4,x5", "--bound", "lower"]
    )
    assert result.exit_code == 0
    assert result.output == "1/5 = 0.2\n"


def test_query_upper(runner, expert_file):
    result = runner.invoke(
        main, ["query", expert_file, "--event", "x3,x4,x5", "--bound", "upper"]
    )
    assert result.output == "9/10 = 0.9\n"


def test_verify_golden(runner, expert_file):
    result = runner.invoke(main, ["verify", expert_file])
    assert result.exit_code == 0
    assert result.output == "64/64 events agree\n"


def test_verify_interval(runner, tmp_path):
    path = tmp_path / "iv.json"
    path.write_text(
        '{"kind": "interval", "space": ["x1", "x2"], '
        '"l": ["0.2", "0.3"], "u": ["0.7", "0.8"]}'
    )
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0
    assert result.output == "4/4 events agree\n"


def test_missing_file_is_a_validation_failure(runner, tmp_path):
    result = runner.invoke(main, ["check", str(tmp_path / "nope.json")])
    assert result.exit_code == 1


# One small document of every kind, run through every command.  The
# expected exit code, stdout and stderr pin the CLI byte for byte.

ALL_KIND_DOCS = {
    "capacity": {
        "values": {
            "": "0", "x1": "0.1", "x2": "0.2", "x3": "0.3", "x1,x2": "0.25",
            "x1,x3": "0.5", "x2,x3": "0.6", "x1,x2,x3": "1",
        }
    },
    "mass": {"focal": {"x1": "1/4", "x1,x2": "1/2", "x2,x3": "1/4"}},
    "possibility": {"pi": ["1", "1/2", "1/4"]},
    "interval": {"l": ["0.1", "0.2", "0.3"], "u": ["0.4", "0.5", "0.6"]},
    "gen_pbox": {"F_low": ["0", "0.2", "1"], "F_upp": ["0.3", "0.7", "1"]},
    "nested_bounds": {
        "levels": [
            {"event": "x1", "lo": "0.1", "hi": "0.4"},
            {"event": "x1,x2", "lo": "0.5", "hi": "0.8"},
        ]
    },
    "probability": {"p": ["1/4", "1/4", "1/2"]},
    "mystery": {},
}

ALL_KIND_COMMANDS = {
    "check": ["check"],
    "lower": ["query", "--event", "x1,x2", "--bound", "lower"],
    "upper": ["query", "--event", "x1,x2", "--bound", "upper"],
    "verify": ["verify"],
    "to_mass": ["convert", "--to", "mass"],
    "to_interval": ["convert", "--to", "interval"],
    "to_gen_pbox": ["convert", "--to", "gen_pbox"],
    "to_gen_pbox_sigma": ["convert", "--to", "gen_pbox", "--sigma", "x3,x1,x2"],
    "to_banana": ["convert", "--to", "banana"],
}

KIND_CHOICES = (
    "'capacity', 'mass', 'possibility', 'interval', 'gen_pbox', "
    "'nested_bounds', 'probability'"
)


def _usage_error(command, message):
    return (
        2,
        "",
        f"Usage: main {command} [OPTIONS] FILE\n"
        f"Try 'main {command} --help' for help.\n\nError: {message}\n",
    )


def _unsupported(source, target):
    return _usage_error(
        "convert",
        f"unsupported conversion {source}->{target}; supported: gen_pbox->interval, "
        "gen_pbox->mass, interval->gen_pbox, mass->interval, possibility->mass",
    )


def _document(kind, **payload):
    body = {"kind": kind, "space": ["x1", "x2", "x3"], **payload}
    return 0, json.dumps(body, indent=2) + "\n", ""


def _check(kind, *facts):
    return 0, "".join(f"{line}\n" for line in (
        f"kind: {kind}", "space: 3 elements", "valid: yes", *facts
    )), ""


def _ok(line):
    return 0, f"{line}\n", ""


AGREE = _ok("8/8 events agree")

ALL_KINDS_GOLDEN = {
    ("capacity", "check"): _check(
        "capacity", "2-monotone: no", "infinity-monotone: no", "additive: no"
    ),
    ("capacity", "lower"): _ok("1/4 = 0.25"),
    ("capacity", "upper"): _ok("7/10 = 0.7"),
    ("capacity", "verify"): _usage_error(
        "verify",
        "verify does not support capacity documents; supported kinds: "
        "gen_pbox, nested_bounds, mass, possibility, interval, probability",
    ),
    ("capacity", "to_mass"): _unsupported("capacity", "mass"),
    ("capacity", "to_interval"): _unsupported("capacity", "interval"),
    ("capacity", "to_gen_pbox"): _unsupported("capacity", "gen_pbox"),
    ("mass", "check"): _check("mass", "focal events: 3", "nested: no"),
    ("mass", "lower"): _ok("3/4 = 0.75"),
    ("mass", "upper"): _ok("1 = 1.0"),
    ("mass", "verify"): AGREE,
    ("mass", "to_mass"): _unsupported("mass", "mass"),
    ("mass", "to_interval"): _document(
        "interval", l=["1/4", "0", "0"], u=["3/4", "3/4", "1/4"]
    ),
    ("mass", "to_gen_pbox"): _unsupported("mass", "gen_pbox"),
    ("possibility", "check"): _check("possibility", "distinct levels: 3"),
    ("possibility", "lower"): _ok("3/4 = 0.75"),
    ("possibility", "upper"): _ok("1 = 1.0"),
    ("possibility", "verify"): AGREE,
    ("possibility", "to_mass"): _document(
        "mass", focal={"x1": "1/2", "x1,x2": "1/4", "x1,x2,x3": "1/4"}
    ),
    ("possibility", "to_interval"): _unsupported("possibility", "interval"),
    ("possibility", "to_gen_pbox"): _unsupported("possibility", "gen_pbox"),
    ("interval", "check"): _check("interval", "non-empty: yes", "reachable: yes"),
    ("interval", "lower"): _ok("2/5 = 0.4"),
    ("interval", "upper"): _ok("7/10 = 0.7"),
    ("interval", "verify"): AGREE,
    ("interval", "to_mass"): _unsupported("interval", "mass"),
    ("interval", "to_interval"): _unsupported("interval", "interval"),
    ("interval", "to_gen_pbox"): _document(
        "gen_pbox", F_low=["1/10", "2/5", "1"], F_upp=["2/5", "7/10", "1"]
    ),
    ("interval", "to_gen_pbox_sigma"): _document(
        "gen_pbox", F_low=["1/2", "1", "3/10"], F_upp=["4/5", "1", "3/5"]
    ),
    ("interval", "to_banana"): _usage_error(
        "convert",
        f"Invalid value for '--to': 'banana' is not one of {KIND_CHOICES}.",
    ),
    ("gen_pbox", "check"): _check(
        "gen_pbox", "comonotone: yes", "levels: 3", "blocks: 3"
    ),
    ("gen_pbox", "lower"): _ok("1/5 = 0.2"),
    ("gen_pbox", "upper"): _ok("7/10 = 0.7"),
    ("gen_pbox", "verify"): AGREE,
    ("gen_pbox", "to_mass"): _document(
        "mass",
        focal={"x1,x2": "1/5", "x3": "3/10", "x2,x3": "2/5", "x1,x2,x3": "1/10"},
    ),
    ("gen_pbox", "to_interval"): _document(
        "interval", l=["0", "0", "3/10"], u=["3/10", "7/10", "4/5"]
    ),
    ("gen_pbox", "to_gen_pbox"): _document(
        "gen_pbox", F_low=["0", "1/5", "1"], F_upp=["3/10", "7/10", "1"]
    ),
    ("nested_bounds", "check"): _check(
        "nested_bounds", "comonotone: yes", "levels: 3", "blocks: 3"
    ),
    ("nested_bounds", "lower"): _ok("1/2 = 0.5"),
    ("nested_bounds", "upper"): _ok("4/5 = 0.8"),
    ("nested_bounds", "verify"): AGREE,
    ("nested_bounds", "to_mass"): _document(
        "mass",
        focal={
            "x1": "1/10", "x2": "1/10", "x1,x2": "3/10", "x3": "1/5",
            "x2,x3": "3/10",
        },
    ),
    ("nested_bounds", "to_interval"): _document(
        "interval", l=["1/10", "1/10", "1/5"], u=["2/5", "7/10", "1/2"]
    ),
    ("nested_bounds", "to_gen_pbox"): _document(
        "gen_pbox", F_low=["1/10", "1/2", "1"], F_upp=["2/5", "4/5", "1"]
    ),
    ("probability", "check"): _check("probability"),
    ("probability", "lower"): _ok("1/2 = 0.5"),
    ("probability", "upper"): _ok("1/2 = 0.5"),
    ("probability", "verify"): AGREE,
    ("probability", "to_mass"): _unsupported("probability", "mass"),
    ("probability", "to_interval"): _unsupported("probability", "interval"),
    ("probability", "to_gen_pbox"): _unsupported("probability", "gen_pbox"),
    ("mystery", "check"): (
        1,
        "",
        f"error: $.kind: kind must be one of ({KIND_CHOICES}), got 'mystery'\n",
    ),
}


@pytest.mark.parametrize(
    "kind, command", ALL_KINDS_GOLDEN, ids=[f"{k}-{c}" for k, c in ALL_KINDS_GOLDEN]
)
def test_all_kinds_golden(runner, tmp_path, kind, command):
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps({"kind": kind, "space": ["x1", "x2", "x3"], **ALL_KIND_DOCS[kind]})
    )
    name, *options = ALL_KIND_COMMANDS[command]
    result = runner.invoke(main, [name, str(path), *options])
    assert (result.exit_code, result.stdout, result.stderr) == ALL_KINDS_GOLDEN[
        kind, command
    ]


@pytest.mark.parametrize(
    "text, args",
    [
        (
            '{"kind": "possibility", "space": ["a", "b"], "pi": ["1", "1e-5000"]}',
            ["convert", "--to", "mass"],
        ),
        (
            '{"kind": "possibility", "space": ["a", "b"], "pi": ["1", "1e-5000"]}',
            ["query", "--event", "b", "--bound", "upper"],
        ),
        ('{"kind": "probability", "space": ["a"], "p": [' + "1" * 5000 + "]}", ["check"]),
    ],
    ids=["convert-1e-5000", "query-1e-5000", "check-5000-digit-int"],
)
def test_oversized_numbers_are_validation_failures(runner, tmp_path, text, args):
    path = tmp_path / "big.json"
    path.write_text(text)
    name, *options = args
    result = runner.invoke(main, [name, str(path), *options])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith("error: ")
