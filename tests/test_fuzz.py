"""A seeded fuzz test of the CLI boundary: every input ends in a
documented exit code (0 success, 1 validation failure, 2 usage error,
3 oracle mismatch), never in a traceback.

Documents of every kind at n = 1-4 are mutated at a fixed seed: keys
are dropped, stated twice or given values of the wrong type, numbers
are made too long to print, labels are broken, and each kind gets the
faults its constructor or builder must catch (levels that are not
nested or whose bounds fall outward, capacity values that are not
monotone, ...).  Each document then goes through ``check``, ``verify``,
``convert`` with and without ``--sigma``, and ``query``.
"""

import json
import random
import warnings

from click.testing import CliRunner

import gen
from impbox.cli import main
from impbox.docio import Document, serialize

SEED = 20260
DOCUMENTS = 300

BUILDERS = {
    "capacity": gen.rand_capacity,
    "mass": gen.rand_mass,
    "possibility": gen.rand_possibility,
    "interval": gen.rand_reachable_interval,
    "gen_pbox": lambda rng, sp: gen.rand_pbox(rng, sp, ties=rng.random() < 0.5),
    "nested_bounds": gen.rand_nested_pbox,
    "probability": gen.rand_probability,
}

#: values of the wrong type, or of the right type but unreadable
JUNK = [None, True, 7, -1, 1.5, "x", "1/0", "nan", "-1/2", "3/2", [], {}, ["1"], {"a": "1"}]

#: numbers past the int->str digit limit, as JSON text
HUGE = ["1e999999", "9" * 5000, '"1/' + "7" * 5000 + '"', '"0.' + "3" * 5000 + '"']


def _nodes(value, path=()):
    """The path to every node of a JSON value below the root."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield (*path, key)
        yield from _nodes(child, (*path, key))


def _node(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _parent(payload, path):
    return _node(payload, path[:-1])


def _drop(rng, payload):
    path = rng.choice(list(_nodes(payload)))
    del _parent(payload, path)[path[-1]]
    return json.dumps(payload)


def _retype(rng, payload):
    path = rng.choice(list(_nodes(payload)))
    _parent(payload, path)[path[-1]] = rng.choice(JUNK)
    return json.dumps(payload)


def _twice(rng, payload):
    """A key stated twice in one object, the second time with junk."""
    objects = [payload, *(_node(payload, path) for path in _nodes(payload))]
    objects = [obj for obj in objects if isinstance(obj, dict) and obj]
    target = rng.choice(objects)
    key = rng.choice(list(target))
    target[key + "\0twice"] = rng.choice(JUNK)
    return json.dumps(payload).replace(json.dumps(key + "\0twice"), json.dumps(key))


def _huge(rng, payload):
    leaves = [p for p in _nodes(payload) if isinstance(_parent(payload, p)[p[-1]], str)]
    path = rng.choice(leaves)
    _parent(payload, path)[path[-1]] = "\0huge"
    return json.dumps(payload).replace('"\\u0000huge"', rng.choice(HUGE))


def _bad_label(rng, payload):
    labels = payload["space"]
    broken = rng.choice(["", "a,b", labels[0], "zz"])
    if rng.random() < 0.5:
        labels[rng.randrange(len(labels))] = broken
    else:
        labels.append(broken)
    return json.dumps(payload)


def _fault(rng, payload):
    """A fault of the document's own kind, in otherwise well-formed fields."""
    kind = payload["kind"]
    if kind == "capacity":
        values = payload["values"]
        key = rng.choice(list(values))
        values[key] = rng.choice(["0", "1", "1/2", "1/3"])
    elif kind == "nested_bounds":
        levels = payload["levels"]
        level = rng.choice(levels)
        fault = rng.randrange(5)
        if fault == 0 and len(levels) > 1:
            i = rng.randrange(len(levels) - 1)
            levels[i], levels[i + 1] = levels[i + 1], levels[i]
        elif fault == 1:
            level["lo"], level["hi"] = level["hi"], rng.choice(["0", "1/4"])
        elif fault == 2:
            levels.insert(0, {"event": "", "lo": rng.choice(["0", "1/3"]), "hi": "1"})
        elif fault == 3:
            levels[-1]["lo"] = rng.choice(["0", "1/2"])
        else:
            level["event"] = rng.choice(payload["space"])
    elif kind == "gen_pbox":
        i = rng.randrange(len(payload["space"]))
        payload["F_low"][i], payload["F_upp"][i] = payload["F_upp"][i], payload["F_low"][i]
        payload["F_upp"][rng.randrange(len(payload["space"]))] = "0"
    elif kind == "interval":
        payload["l"], payload["u"] = payload["u"], payload["l"]
    elif kind == "mass":
        payload["focal"][rng.choice(list(payload["focal"]))] = rng.choice(["0", "1"])
    else:
        field = "pi" if kind == "possibility" else "p"
        payload[field] = [rng.choice(["0", "1/2"]) for _ in payload[field]]
    return json.dumps(payload)


MUTATIONS = [_drop, _retype, _twice, _huge, _bad_label, _fault, _fault]


def _corpus(rng):
    """``DOCUMENTS`` pairs of a document text, one in seven left valid and
    the rest mutated, and the labels of the space it was built on."""
    texts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a p-box may have a first level at 0
        for _ in range(DOCUMENTS):
            kind = rng.choice(sorted(BUILDERS))
            space = gen.SPACES[rng.randint(1, 4)]
            text = serialize(Document(kind, space, BUILDERS[kind](rng, space)))
            if rng.random() >= 1 / 7:
                text = rng.choice(MUTATIONS)(rng, json.loads(text))
            texts.append((text, list(space.labels)))
    return texts


def _commands(rng, labels):
    some = rng.sample(labels, rng.randint(0, len(labels)))
    sigma = rng.sample(labels, len(labels)) if rng.random() < 0.8 else [*labels, "zz"]
    target = rng.choice(sorted(BUILDERS))
    return [
        ["check"],
        ["verify"],
        ["convert", "--to", target],
        ["convert", "--to", target, "--sigma", ",".join(sigma)],
        ["query", "--event", ",".join(some), "--bound", rng.choice(["lower", "upper"])],
    ]


def test_mutated_documents_end_in_a_documented_exit_code(tmp_path):
    rng = random.Random(SEED)
    runner = CliRunner()
    codes = set()
    outputs = []
    for i, (text, labels) in enumerate(_corpus(rng)):
        path = tmp_path / f"doc{i}.json"
        path.write_text(text, encoding="utf-8")
        for command in _commands(rng, labels):
            result = runner.invoke(main, [command[0], str(path), *command[1:]])
            assert result.exit_code in (0, 1, 2, 3), (text, command, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                text,
                command,
                result.exc_info,
            )
            codes.add(result.exit_code)
            outputs.append(result.output)
    # the corpus reaches success, validation failures and usage errors,
    # the reader's checks and the faults the constructors catch
    assert {0, 1, 2} <= codes
    output = "".join(outputs)
    for message in (
        "appears twice",
        "digits",
        "unknown element label",
        "contains ','",
        "level sets must be strictly nested",
        "level bounds must be non-decreasing outward",
        "bounds must satisfy 0 <= lo <= hi <= 1",
        "the empty set cannot have lower bound",
        "the whole space must carry bounds [1, 1]",
        "monotonicity violated",
        "lower exceeds upper",
    ):
        assert message in output
