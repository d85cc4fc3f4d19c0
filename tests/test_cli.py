import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import gen

from impbox import (
    ProbabilityVector,
    credal,
    docio,
    interval,
    is_member,
    pbox,
    possibility,
    randomset,
)
from impbox._exact import too_long_message
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
    assert "levels: 4" in result.output


def test_the_cli_module_runs_as_a_script(runner, expert_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = subprocess.run(
        [sys.executable, "-m", "impbox.cli", "check", expert_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert script.returncode == 0, script.stderr
    assert script.stdout == runner.invoke(main, ["check", expert_file]).stdout


def test_check_invalid_document(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "probability", "space": ["x1"], "p": ["1/2"]}')
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1


def test_check_echoes_a_warning_as_one_line(runner, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        '{"kind": "gen_pbox", "space": ["a", "b", "c"], '
        '"F_low": ["0", "0", "1"], "F_upp": ["0", "1/2", "1"]}'
    )
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 0
    assert result.stderr == (
        "warning: first level has upper bound 0; the innermost level set "
        "is then forced to probability 0\n"
    )
    assert result.stdout == (
        "kind: gen_pbox\nspace: 3 elements\nvalid: yes\n"
        "comonotone: yes\nlevels: 3\n"
    )
    path.write_text(
        '{"kind": "nested_bounds", "space": ["a", "b", "c"], "levels": ['
        '{"event": "a", "lo": "0", "hi": "0"}, {"event": "a,b", "lo": "0", "hi": "1/2"}]}'
    )
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 0
    assert result.stderr == (
        "warning: first level has upper bound 0; the innermost level set "
        "is then forced to probability 0\n"
    )
    assert result.stdout == (
        "kind: nested_bounds\nspace: 3 elements\nvalid: yes\n"
        "comonotone: yes\nlevels: 3\n"
    )
    # a possibility distribution with a zero degree has the same p-box, silently
    path.write_text(
        '{"kind": "possibility", "space": ["a", "b", "c"], "pi": ["0", "1/2", "1"]}'
    )
    result = runner.invoke(main, ["check", str(path)])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == (
        "kind: possibility\nspace: 3 elements\nvalid: yes\ndistinct levels: 3\n"
    )


def test_query_keeps_equal_nested_levels(runner, tmp_path):
    path = tmp_path / "tied.json"
    path.write_text(
        '{"kind": "nested_bounds", "space": ["x1", "x2", "x3"], "levels": ['
        '{"event": "x2", "lo": "1/5", "hi": "1/2"}, '
        '{"event": "x1,x2", "lo": "1/5", "hi": "1/2"}]}'
    )
    result = runner.invoke(main, ["query", str(path), "--event", "x2", "--bound", "lower"])
    assert (result.exit_code, result.output) == (0, "1/5 = 0.2\n")
    result = runner.invoke(main, ["check", str(path)])
    assert "levels: 3\n" in result.output


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


def test_convert_refuses_sigma_from_a_source_that_reads_no_order(runner, expert_file):
    result = runner.invoke(main, ["convert", expert_file, "--to", "mass", "--sigma", "x9"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.endswith(
        "Error: --sigma applies only to conversions from interval\n"
    )


def test_convert_sigma_label_error_names_the_option(runner, tmp_path):
    path = tmp_path / "iv.json"
    path.write_text(
        '{"kind": "interval", "space": ["x1", "x2"], '
        '"l": ["0.2", "0.3"], "u": ["0.7", "0.8"]}'
    )
    result = runner.invoke(
        main, ["convert", str(path), "--to", "gen_pbox", "--sigma", "x2,x9"]
    )
    assert (result.exit_code, result.stdout, result.stderr) == (
        1,
        "",
        "error: --sigma: unknown element label 'x9'\n",
    )


@pytest.mark.parametrize(
    "sigma, message",
    [("", "unknown element label ''"), ("x1", "permutation size does not match the space")],
    ids=["empty", "too-short"],
)
def test_convert_sigma_order_errors_name_the_option(runner, tmp_path, sigma, message):
    path = tmp_path / "iv.json"
    path.write_text(
        '{"kind": "interval", "space": ["x1", "x2", "x3"], '
        '"l": ["1/5", "0", "0"], "u": ["1", "1/5", "4/5"]}'
    )
    result = runner.invoke(
        main, ["convert", str(path), "--to", "nested_bounds", "--sigma", sigma]
    )
    assert (result.exit_code, result.stdout, result.stderr) == (
        1,
        "",
        f"error: --sigma: {message}\n",
    )


# Neighbouring levels that share both bounds: F_low/F_upp would tie them
# into one block and drop the inner lower bound; nested_bounds keeps them.
TIED_LEVELS = {
    "interval": (
        '{"kind": "interval", "space": ["x1", "x2", "x3"], '
        '"l": ["1/5", "0", "0"], "u": ["1", "1/5", "4/5"]}',
        "x1",
        "{x1} and {x1,x2}, which share bounds [1/5, 1]",
    ),
    "nested_bounds": (
        '{"kind": "nested_bounds", "space": ["x1", "x2", "x3"], "levels": ['
        '{"event": "x2", "lo": "1/5", "hi": "1/2"}, '
        '{"event": "x1,x2", "lo": "1/5", "hi": "1/2"}]}',
        "x2",
        "{x2} and {x1,x2}, which share bounds [1/5, 1/2]",
    ),
}


@pytest.mark.parametrize("kind", TIED_LEVELS)
def test_tied_levels_convert_to_nested_bounds_only(runner, tmp_path, kind):
    text, event, levels = TIED_LEVELS[kind]
    source = tmp_path / "tied.json"
    source.write_text(text)
    result = runner.invoke(main, ["convert", str(source), "--to", "gen_pbox"])
    assert (result.exit_code, result.stdout, result.stderr) == (
        1,
        "",
        f"error: gen_pbox cannot state levels {levels}; "
        "convert --to nested_bounds instead\n",
    )
    result = runner.invoke(main, ["convert", str(source), "--to", "nested_bounds"])
    assert result.exit_code == 0
    converted = tmp_path / "nested.json"
    converted.write_text(result.stdout)
    query = ["query", str(converted), "--event", event, "--bound", "lower"]
    result = runner.invoke(main, query)
    assert (result.exit_code, result.output) == (0, "1/5 = 0.2\n")


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


def test_query_unknown_label_names_the_option(runner, expert_file):
    result = runner.invoke(main, ["query", expert_file, "--event", "x9", "--bound", "lower"])
    assert (result.exit_code, result.stderr) == (
        1,
        "error: --event: unknown element label 'x9'\n",
    )


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


@pytest.mark.parametrize(
    "args",
    [
        ["check"],
        ["convert", "--to", "mass"],
        ["query", "--event", "x1", "--bound", "lower"],
        ["verify"],
    ],
    ids=["check", "convert", "query", "verify"],
)
def test_a_file_that_is_not_utf8_is_one_error_line(runner, tmp_path, args):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"kind": "mass"}'.encode("utf-16-le"))
    name, *options = args
    result = runner.invoke(main, [name, str(path), *options])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {path}: not UTF-8 text (byte 0: invalid start byte)\n"


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
    "to_nested_bounds": ["convert", "--to", "nested_bounds"],
    "to_nested_bounds_sigma": ["convert", "--to", "nested_bounds", "--sigma", "x3,x1,x2"],
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
        "gen_pbox->mass, gen_pbox->nested_bounds, interval->gen_pbox, "
        "interval->nested_bounds, mass->interval, nested_bounds->gen_pbox, "
        "nested_bounds->interval, nested_bounds->mass, possibility->mass",
    )


def _document(kind, **payload):
    body = {"kind": kind, "space": ["x1", "x2", "x3"], **payload}
    return 0, json.dumps(body, indent=2) + "\n", ""


def _levels(*levels):
    """A ``nested_bounds`` document on x1, x2, x3 from (event, lo, hi) triples."""
    return _document(
        "nested_bounds",
        levels=[{"event": event, "lo": lo, "hi": hi} for event, lo, hi in levels],
    )


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
        "mass, possibility, interval, gen_pbox, nested_bounds, probability",
    ),
    ("capacity", "to_mass"): _unsupported("capacity", "mass"),
    ("capacity", "to_interval"): _unsupported("capacity", "interval"),
    ("capacity", "to_gen_pbox"): _unsupported("capacity", "gen_pbox"),
    ("capacity", "to_nested_bounds"): _unsupported("capacity", "nested_bounds"),
    ("mass", "check"): _check("mass", "focal events: 3", "nested: no"),
    ("mass", "lower"): _ok("3/4 = 0.75"),
    ("mass", "upper"): _ok("1 = 1.0"),
    ("mass", "verify"): AGREE,
    ("mass", "to_mass"): _unsupported("mass", "mass"),
    ("mass", "to_interval"): _document(
        "interval", l=["1/4", "0", "0"], u=["3/4", "3/4", "1/4"]
    ),
    ("mass", "to_gen_pbox"): _unsupported("mass", "gen_pbox"),
    ("mass", "to_nested_bounds"): _unsupported("mass", "nested_bounds"),
    ("possibility", "check"): _check("possibility", "distinct levels: 3"),
    ("possibility", "lower"): _ok("3/4 = 0.75"),
    ("possibility", "upper"): _ok("1 = 1.0"),
    ("possibility", "verify"): AGREE,
    ("possibility", "to_mass"): _document(
        "mass", focal={"x1": "1/2", "x1,x2": "1/4", "x1,x2,x3": "1/4"}
    ),
    ("possibility", "to_interval"): _unsupported("possibility", "interval"),
    ("possibility", "to_gen_pbox"): _unsupported("possibility", "gen_pbox"),
    ("possibility", "to_nested_bounds"): _unsupported("possibility", "nested_bounds"),
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
    ("interval", "to_nested_bounds"): _levels(
        ("x1", "1/10", "2/5"), ("x1,x2", "2/5", "7/10"), ("x1,x2,x3", "1", "1")
    ),
    ("interval", "to_nested_bounds_sigma"): _levels(
        ("x3", "3/10", "3/5"), ("x1,x3", "1/2", "4/5"), ("x1,x2,x3", "1", "1")
    ),
    ("interval", "to_banana"): _usage_error(
        "convert",
        f"Invalid value for '--to': 'banana' is not one of {KIND_CHOICES}.",
    ),
    ("gen_pbox", "check"): _check("gen_pbox", "comonotone: yes", "levels: 3"),
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
    ("gen_pbox", "to_nested_bounds"): _levels(
        ("x1", "0", "3/10"), ("x1,x2", "1/5", "7/10"), ("x1,x2,x3", "1", "1")
    ),
    ("nested_bounds", "check"): _check("nested_bounds", "comonotone: yes", "levels: 3"),
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
    ("nested_bounds", "to_nested_bounds"): _levels(
        ("x1", "1/10", "2/5"), ("x1,x2", "1/2", "4/5"), ("x1,x2,x3", "1", "1")
    ),
    ("probability", "check"): _check("probability"),
    ("probability", "lower"): _ok("1/2 = 0.5"),
    ("probability", "upper"): _ok("1/2 = 0.5"),
    ("probability", "verify"): AGREE,
    ("probability", "to_mass"): _unsupported("probability", "mass"),
    ("probability", "to_interval"): _unsupported("probability", "interval"),
    ("probability", "to_gen_pbox"): _unsupported("probability", "gen_pbox"),
    ("probability", "to_nested_bounds"): _unsupported("probability", "nested_bounds"),
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


#: every value prints, but bel({a, b}) = 1/P + 1/Q has a 6000-digit denominator
BIG_BELIEF_TEXT = json.dumps(
    {
        "kind": "mass",
        "space": ["a", "b", "c", "d"],
        "focal": {
            "a": f"1/{10**2999 + 1}",
            "b": f"1/{10**2999 + 3}",
            "c": str(F(1, 2) - F(1, 10**2999 + 1)),
            "d": str(F(1, 2) - F(1, 10**2999 + 3)),
        },
    }
)


#: prefixes {a,b} and {a,b,c} tie at [0, u(a) + u(b)], whose denominator
#: has about 4400 digits
TIED_PREFIXES_TEXT = json.dumps(
    {
        "kind": "interval",
        "space": ["a", "b", "c", "d", "e"],
        "l": ["0"] * 5,
        "u": [
            str(F(1, 4) + F(1, 10**2200 + 1)),
            str(F(1, 4) + F(1, 10**2200 + 3)),
            "0",
            "1/2",
            "1/2",
        ],
    }
)


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
        (
            '{"kind": "possibility", "space": ["a", "b"], "pi": ["1", "1e-100000000"]}',
            ["check"],
        ),
        ('{"kind": "possibility", "space": ["a", "b"], "pi": ["1", 0e9999999]}', ["check"]),
        # each value prints; the masses' denominators have 8000 digits
        (
            json.dumps(
                {
                    "kind": "possibility",
                    "space": ["a", "b", "c"],
                    "pi": ["1", f"1/1{'7' * 3999}1", f"1/1{'3' * 3999}1"],
                }
            ),
            ["convert", "--to", "mass"],
        ),
        (BIG_BELIEF_TEXT, ["query", "--event", "a,b", "--bound", "lower"]),
        (
            json.dumps(
                {
                    "kind": "capacity",
                    "space": ["a", "b"],
                    "values": {
                        "": "0",
                        "a": f"1/1{'0' * 2199}1",
                        "b": f"1/1{'0' * 2199}3",
                        "a,b": "1",
                    },
                }
            ),
            ["check"],
        ),
        # each value prints; the sums in the messages have 4400-digit denominators
        (
            json.dumps(
                {
                    "kind": "probability",
                    "space": ["a", "b"],
                    "p": [f"1/1{'0' * 2199}1", f"1/1{'0' * 2199}3"],
                }
            ),
            ["check"],
        ),
        (
            json.dumps(
                {
                    "kind": "mass",
                    "space": ["a", "b"],
                    "focal": {"a": f"1/1{'0' * 2199}1", "b": f"1/1{'0' * 2199}3"},
                }
            ),
            ["check"],
        ),
        (TIED_PREFIXES_TEXT, ["convert", "--to", "gen_pbox"]),
    ],
    ids=[
        "convert-1e-5000",
        "query-1e-5000",
        "check-5000-digit-int",
        "check-string-exponent-bomb",
        "check-json-exponent-bomb",
        "convert-4001-digit-possibility-to-mass",
        "query-6000-digit-belief",
        "check-capacity-common-denominator",
        "check-probability-sum",
        "check-mass-sum",
        "convert-tied-prefixes-to-gen_pbox",
    ],
)
def test_oversized_numbers_are_validation_failures(runner, tmp_path, text, args):
    _assert_validation_failure(runner, tmp_path, text, args)


@pytest.mark.parametrize("target", ["gen_pbox", "nested_bounds"])
def test_a_tie_too_long_to_print_ends_in_the_digit_limit_error(runner, tmp_path, target):
    path = tmp_path / "doc.json"
    path.write_text(TIED_PREFIXES_TEXT)
    result = runner.invoke(main, ["convert", str(path), "--to", target])
    assert result.exit_code == 1
    assert result.stderr == f"error: $: {too_long_message()}\n"


@pytest.mark.parametrize(
    "text, args",
    [
        (
            '{"kind": "nested_bounds", "space": ["a", "b"], "levels": [{"event": 1}]}',
            ["check"],
        ),
        (
            '{"kind": "nested_bounds", "space": ["a", "b"], "levels": [{"event": ["a"]}]}',
            ["check"],
        ),
        ("[" * 100_000 + "]" * 100_000, ["check"]),
        (
            '{"kind": "possibility", "space": ["a,b", "c"], "pi": ["1", "1/2"]}',
            ["convert", "--to", "mass"],
        ),
        (
            '{"kind": "nested_bounds", "space": ["a", "b"], '
            '"levels": [{"event": "", "lo": "1/5", "hi": "1/2"}]}',
            ["check"],
        ),
        # two spellings of one event, or one key twice: json and a dict
        # would both keep the last silently
        (
            '{"kind": "capacity", "space": ["a", "b"], "values": {"": "0", '
            '"a": "1/5", "b": "1/5", "b,a": "1/2", "a,b": "1"}}',
            ["check"],
        ),
        (
            '{"kind": "mass", "space": ["a", "b"], '
            '"focal": {"a,b": "1/2", "b,a": "1/2", "a": "1/2"}}',
            ["check"],
        ),
        (
            '{"kind": "capacity", "kind": "probability", "space": ["a"], "p": ["1"]}',
            ["check"],
        ),
    ],
    ids=[
        "check-number-event",
        "check-list-event",
        "check-deep-nesting",
        "convert-comma-label",
        "check-empty-event-lower-bound",
        "check-capacity-event-twice",
        "check-mass-event-twice",
        "check-key-twice",
    ],
)
def test_malformed_documents_are_validation_failures(runner, tmp_path, text, args):
    _assert_validation_failure(runner, tmp_path, text, args)


def test_verify_mismatch_too_long_to_print_exits_3_without_a_traceback(
    runner, tmp_path, monkeypatch
):
    path = tmp_path / "doc.json"
    path.write_text(BIG_BELIEF_TEXT)
    result = runner.invoke(main, ["verify", str(path)])
    assert (result.exit_code, result.output) == (0, "16/16 events agree\n")
    honest = randomset.bel
    monkeypatch.setattr(
        randomset, "bel", lambda ms, a: honest(ms, a) + (F(1, 10) if a.mask == 0b0011 else 0)
    )
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stdout == ""
    assert result.stderr == f"mismatch on {{a,b}}: {too_long_message()}\n"


def _assert_validation_failure(runner, tmp_path, text, args):
    path = tmp_path / "doc.json"
    path.write_text(text)
    name, *options = args
    result = runner.invoke(main, [name, str(path), *options])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "masks, side, formula",
    [
        ((0b011100,), "lower", "[3/10, 9/10]"),
        ((0b100011,), "upper", "[1/5, 4/5]"),
        # the first wrong mask is {x2,x3,x4,x5}, but {x3,x4,x5} comes
        # before it in mask order and its upper reads the later mask
        ((0b011110, 0b100011), "upper", "[1/5, 4/5]"),
    ],
    ids=["lower", "upper", "upper-of-a-later-mask"],
)
def test_verify_mismatch_exits_3_with_witness(
    runner, expert_file, monkeypatch, masks, side, formula
):
    # wrong closed forms; upper({x3,x4,x5}) reads lower({x1,x2,x6})
    honest = pbox.lower_prob
    monkeypatch.setattr(
        pbox,
        "lower_prob",
        lambda pb, a: honest(pb, a) + (F(1, 10) if a.mask in masks else 0),
    )
    result = runner.invoke(main, ["verify", expert_file])
    assert result.exit_code == 3
    assert result.stdout == ""
    mismatch, witness_line, rest = result.stderr.split("\n")
    assert mismatch == (
        f"mismatch on {{x3,x4,x5}}: formula {formula} vs oracle [1/5, 9/10]"
    )
    assert rest == ""
    prefix = f"oracle {side} witness: "
    assert witness_line.startswith(prefix)
    pairs = [item.split("=") for item in witness_line[len(prefix):].split(", ")]
    doc = docio.parse(EXPERT_TEXT)
    assert [label for label, _ in pairs] == list(doc.space.labels)
    witness = ProbabilityVector(doc.space, [F(v) for _, v in pairs])
    assert is_member(pbox.to_polytope(doc.obj), witness)
    event = doc.space.event(["x3", "x4", "x5"])
    assert witness.prob(event) == (F(1, 5) if side == "lower" else F(9, 10))


@pytest.mark.parametrize(
    "module, name, text",
    [
        (pbox, "lower_prob", EXPERT_TEXT),
        (
            possibility,
            "necessity",
            '{"kind": "possibility", "space": ["a", "b", "c", "d"], '
            '"pi": ["1/4", "1", "1/2", "0"]}',
        ),
        (
            randomset,
            "bel",
            '{"kind": "mass", "space": ["a", "b", "c", "d"], '
            '"focal": {"a": "1/5", "b,c": "3/10", "a,c,d": "1/10", "a,b,c,d": "2/5"}}',
        ),
        (
            interval,
            "event_bounds",
            '{"kind": "interval", "space": ["a", "b", "c"], '
            '"l": ["1/10", "1/5", "3/10"], "u": ["1/2", "1/2", "3/5"]}',
        ),
        (
            pbox,
            "lower_prob",
            '{"kind": "nested_bounds", "space": ["a", "b", "c"], "levels": ['
            '{"event": "b", "lo": "1/10", "hi": "2/5"}, '
            '{"event": "a,b", "lo": "1/2", "hi": "4/5"}]}',
        ),
        (
            ProbabilityVector,
            "prob",
            '{"kind": "probability", "space": ["a", "b", "c"], '
            '"p": ["1/6", "1/3", "1/2"]}',
        ),
    ],
    ids=["gen_pbox", "possibility", "mass", "interval", "nested_bounds", "probability"],
)
def test_verify_makes_one_closed_form_call_per_event(
    runner, tmp_path, monkeypatch, module, name, text
):
    # every upper bound is read as 1 - lower(A^c), so one call per event,
    # and no polytope is built from the closed form it checks
    calls = []
    honest = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda obj, a: calls.append(a.mask) or honest(obj, a)
    )
    path = tmp_path / "doc.json"
    path.write_text(text)
    result = runner.invoke(main, ["verify", str(path)])
    n_events = 2 ** len(json.loads(text)["space"])
    assert result.output == f"{n_events}/{n_events} events agree\n"
    assert sorted(calls) == list(range(n_events))


@pytest.mark.parametrize(
    "value", ["abc", "-5", "0", "30", "25", "", " 5", "4.0", "6", "24", "5", "1"]
)
def test_max_n_is_not_read(runner, expert_file, monkeypatch, value):
    """``IMPBOX_MAX_N`` no longer caps the space nor fails a run."""
    monkeypatch.delenv("IMPBOX_MAX_N", raising=False)
    commands = (["check", expert_file], ["verify", expert_file])
    unset = [runner.invoke(main, args) for args in commands]
    monkeypatch.setenv("IMPBOX_MAX_N", value)
    for args, before in zip(commands, unset):
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout, result.stderr) == (
            before.exit_code, before.stdout, before.stderr
        )


OVER_CAP_TEXT = json.dumps(
    {"kind": "probability", "space": [f"x{i}" for i in range(1, 26)], "p": ["1"] + ["0"] * 24}
)
OVER_CAP_LINE = "$.space: space has 25 elements, maximum is 24"


@pytest.mark.parametrize(
    "text, args, line",
    [
        (OVER_CAP_TEXT, ["check"], OVER_CAP_LINE),
        (OVER_CAP_TEXT, ["verify"], OVER_CAP_LINE),
        (OVER_CAP_TEXT, ["query", "--event", "x1", "--bound", "lower"], OVER_CAP_LINE),
        (OVER_CAP_TEXT, ["convert", "--to", "interval"], OVER_CAP_LINE),
        (
            '{"kind": "nested_bounds", "space": ["a", "b"], "levels": []}',
            ["check"],
            "$: at least one nested level is required",
        ),
    ],
    ids=["check-25", "verify-25", "query-25", "convert-25", "check-no-levels"],
)
def test_a_refused_document_prints_one_error_line(runner, tmp_path, text, args, line):
    path = tmp_path / "doc.json"
    path.write_text(text)
    name, *options = args
    result = runner.invoke(main, [name, str(path), *options])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", f"error: {line}\n")


def _dense_mass_text():
    ms = gen.rand_dense_mass(random.Random(6), gen.SPACES[6])
    return docio.serialize(docio.Document("mass", ms.space, ms))


@pytest.mark.parametrize(
    "text", [EXPERT_TEXT, _dense_mass_text()], ids=["expert-pbox", "dense-mass"]
)
def test_verify_solves_fewer_lps_than_it_has_events(runner, tmp_path, monkeypatch, text):
    polytopes = []
    honest = credal.lower_envelopes
    monkeypatch.setattr(
        credal, "lower_envelopes", lambda poly, events: polytopes.append(poly) or honest(poly, events)
    )
    path = tmp_path / "doc.json"
    path.write_text(text)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.output == "64/64 events agree\n"
    [poly] = polytopes
    assert 0 < poly._oracle.solver.lps < 64


def test_verify_catches_a_coherent_but_wrong_belief(runner, tmp_path, monkeypatch):
    # the pignistic probability BetP(A) = sum of m(F) |F & A| / |F| lies in
    # the credal set, so only a polytope built apart from bel tells it from bel
    def pignistic(ms, a):
        return sum(
            (m * (mask & a.mask).bit_count() / mask.bit_count() for mask, m in ms.focal),
            F(0),
        )

    monkeypatch.setattr(randomset, "bel", pignistic)
    path = tmp_path / "mass.json"
    path.write_text(
        '{"kind": "mass", "space": ["x1", "x2", "x3"], '
        '"focal": {"x1": "1/2", "x1,x2,x3": "1/2"}}'
    )
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        "mismatch on {x1}: formula [2/3, 2/3] vs oracle [1/2, 1]\n"
        "oracle lower witness: x1=1/2, x2=1/2, x3=0\n"
    )


def _keyed(kind, payload):
    field = "values" if kind == "capacity" else "focal"
    return json.dumps({"kind": kind, "space": ["a", "b"], field: payload})


TOO_LONG = too_long_message("numerator or denominator")

#: keyed-payload documents the key reader rejects, each with its one
#: ``error:`` line; the first bad key in document order is the one named
KEY_READER_ERRORS = {
    "capacity-unknown-label": (
        _keyed("capacity", {"": "0", "a": "1/5", "b,q": "1/2", "a,b": "1"}),
        "$.values['b,q']: unknown element label 'q'",
    ),
    "capacity-empty-label-part": (
        _keyed("capacity", {"": "0", "a": "1/5", "b": "1/5", ",a": "1/5", "a,b": "1"}),
        "$.values[',a']: same event as 'a'",
    ),
    "capacity-event-twice": (
        _keyed("capacity", {"": "0", "a": "1/5", "b": "1/5", "b,a": "1/2", "a,b": "1"}),
        "$.values['a,b']: same event as 'b,a'",
    ),
    "capacity-boolean": (
        _keyed("capacity", {"": "0", "a": True, "b": "1/5", "a,b": "1"}),
        "$.values['a']: expected a rational number, got a boolean",
    ),
    "capacity-bad-value-text": (
        _keyed("capacity", {"": "0", "a": "1/5", "b": "one fifth", "a,b": "1"}),
        "$.values['b']: cannot parse 'one fifth' as a rational",
    ),
    "capacity-huge-exponent": (
        _keyed("capacity", {"": "0", "a": "1e99999", "b": "1/5", "a,b": "1"}),
        f"$.values['a']: {TOO_LONG}",
    ),
    "capacity-bad-value-before-unknown-label": (
        _keyed("capacity", {"": "0", "a": "1/5", "b": "1//5", "q": "1/2", "a,b": "1"}),
        "$.values['b']: cannot parse '1//5' as a rational",
    ),
    "mass-unknown-label": (
        _keyed("mass", {"q": "1/2", "a,b": "1/2"}),
        "$.focal['q']: unknown element label 'q'",
    ),
    "mass-empty-label-part": (
        _keyed("mass", {"a": "1/2", "a,": "1/2"}),
        "$.focal['a,']: same event as 'a'",
    ),
    "mass-event-twice": (
        _keyed("mass", {"a,b": "1/2", "b,a": "1/2"}),
        "$.focal['b,a']: same event as 'a,b'",
    ),
    "mass-boolean": (
        _keyed("mass", {"a": "1/2", "b": False}),
        "$.focal['b']: expected a rational number, got a boolean",
    ),
    "mass-bad-value-text": (
        _keyed("mass", {"a": "1/2", "b": "1//2"}),
        "$.focal['b']: cannot parse '1//2' as a rational",
    ),
    "mass-huge-exponent": (
        _keyed("mass", {"a": "1/2", "b": "5e-99999"}),
        f"$.focal['b']: {TOO_LONG}",
    ),
    "mass-huge-json-exponent": (
        '{"kind": "mass", "space": ["a", "b"], "focal": {"a": 1e99999, "b": "1/2"}}',
        f"$.focal['a']: {TOO_LONG}",
    ),
}


@pytest.mark.parametrize("text, message", KEY_READER_ERRORS.values(), ids=KEY_READER_ERRORS)
@pytest.mark.parametrize("args", [["check"], ["convert", "--to", "interval"]], ids=["check", "convert"])
def test_key_reader_errors_name_the_first_bad_key(runner, tmp_path, text, message, args):
    path = tmp_path / "doc.json"
    path.write_text(text)
    name, *options = args
    result = runner.invoke(main, [name, str(path), *options])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", f"error: {message}\n")
