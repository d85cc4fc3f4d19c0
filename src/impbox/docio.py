"""JSON document format for every representation the library handles.

Numbers are parsed as exact rationals ("3/10", "0.3" or plain integers)
and always serialized back as rationals, so parse/serialize round trips
are exact and canonical output is byte-stable.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator

from . import capacity, convert, credal, interval, pbox, possibility, randomset
from ._exact import too_long, too_long_message, unprintable
from .errors import ImpboxError, SpaceMismatchError, ValidationError
from .space import Event, FiniteSpace, Permutation, enumerate_events


class DocumentError(ImpboxError):
    """A document failed to parse; ``path`` locates the offending field."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Document:
    kind: str
    space: FiniteSpace
    #: the constructed domain object for this kind
    obj: Any


@dataclass(frozen=True)
class _HugeExponent:
    """A JSON number whose exponent is past the digit limit, left unbuilt."""

    text: str


_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def _huge_exponent(text: str) -> bool:
    """Whether a decimal literal's exponent exceeds the int->str digit limit,
    read off the text: ``Fraction`` would first build 10**exponent."""
    limit = sys.get_int_max_str_digits()
    match = _EXPONENT.search(text)
    if not limit or not match:
        return False
    digits = match.group(1).lstrip("+-").replace("_", "").lstrip("0")
    return len(digits) > len(str(limit)) or int(digits or 0) > limit


def _json_number(text: str) -> Fraction | _HugeExponent:
    return _HugeExponent(text) if _huge_exponent(text) else Fraction(text)


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("expected a rational number, got a boolean", path)
    if isinstance(value, _HugeExponent) or isinstance(value, str) and _huge_exponent(value):
        raise DocumentError(too_long_message("numerator or denominator"), path)
    try:
        q = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise DocumentError(f"cannot parse {value!r} as a rational", path) from None
    # every accepted value must print again: str() of a longer int raises
    if too_long(max(abs(q.numerator), q.denominator)):
        raise DocumentError(too_long_message("numerator or denominator"), path)
    if not 0 <= q <= 1:
        raise DocumentError(f"value {q} outside [0, 1]", path)
    return q


def _vector(payload, field: str, space: FiniteSpace) -> list[Fraction]:
    if field not in payload:
        raise DocumentError("missing field", f"$.{field}")
    raw = payload[field]
    if not isinstance(raw, list):
        raise DocumentError("expected a list", f"$.{field}")
    if len(raw) != space.size:
        raise DocumentError(
            f"expected {space.size} entries, got {len(raw)}", f"$.{field}"
        )
    return [_rational(v, f"$.{field}[{i}]") for i, v in enumerate(raw)]


def _key_masks(space: FiniteSpace, keys, path: Callable[[Any], str]) -> Iterator[int]:
    """The bitmask of each event key, its labels joined by commas: the one
    place ``docio`` turns labels into masks. ``path(key)`` is called only
    to locate a key that names no event."""
    # each label's bit, and 0 for the empty part of a key such as ",x1"
    get = {"": 0, **{label: 1 << i for i, label in enumerate(space.labels)}}.get
    for key in keys:
        if not isinstance(key, str):
            raise DocumentError("expected a string of comma-separated labels", path(key))
        mask = 0
        for part in key.split(","):
            bit = get(part)
            if bit is None:
                raise DocumentError(f"unknown element label {part!r}", path(key))
            mask |= bit
        yield mask


def _event(space: FiniteSpace, key, path: str) -> Event:
    return Event(space, next(_key_masks(space, (key,), lambda _: path)))


def _event_key(event: Event) -> str:
    return ",".join(event.labels)


def _event_map(payload, field: str, space: FiniteSpace) -> dict[int, Fraction]:
    """The mask-keyed table of a ``values`` or ``focal`` object.

    Each distinct value text is parsed once per call: the digit limit the
    parse reads may change between calls, so nothing is kept past one.
    """
    raw = payload.get(field)
    if not isinstance(raw, dict):
        raise DocumentError(f"{field} must be an object", f"$.{field}")

    def path(key) -> str:
        return f"$.{field}[{key!r}]"

    table, keys, texts = {}, {}, {}
    for mask, (key, val) in zip(_key_masks(space, raw, path), raw.items()):
        if mask in keys:
            raise DocumentError(f"same event as {keys[mask]!r}", path(key))
        keys[mask] = key
        if type(val) is not str:  # True == 1, so only texts share a parse
            table[mask] = _rational(val, path(key))
        elif val in texts:
            table[mask] = texts[val]
        else:
            table[mask] = texts[val] = _rational(val, path(key))
    return table


def _read_levels(payload, space: FiniteSpace) -> pbox.GeneralizedPBox:
    levels = payload.get("levels")
    if not isinstance(levels, list):
        raise DocumentError("levels must be a list", "$.levels")
    parsed = []
    for i, level in enumerate(levels):
        if not isinstance(level, dict) or "event" not in level:
            raise DocumentError("each level needs an event", f"$.levels[{i}]")
        parsed.append(
            (
                _event(space, level["event"], f"$.levels[{i}].event"),
                _rational(level.get("lo", 0), f"$.levels[{i}].lo"),
                _rational(level.get("hi", 1), f"$.levels[{i}].hi"),
            )
        )
    return pbox.from_nested_sets(space, parsed)


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _gen_pbox_form(pb: pbox.GeneralizedPBox) -> pbox.GeneralizedPBox:
    """``pb``, unless two levels share bounds: ``F_low``/``F_upp`` would tie
    them into one block.  Bounds are non-decreasing, so such levels are neighbours."""
    levels = pb.levels()
    for (inner, lo, hi), (outer, *bounds) in zip(levels, levels[1:]):
        if bounds == [lo, hi]:
            if unprintable(lo, hi):
                raise DocumentError(too_long_message())
            raise ValidationError(
                f"gen_pbox cannot state levels {inner!r} and {outer!r}, which "
                f"share bounds [{lo}, {hi}]; convert --to nested_bounds instead"
            )
    return pb


def _sigma_pbox(iv: interval.ProbabilityInterval, sigma: str | None) -> pbox.GeneralizedPBox:
    """The interval's p-box along ``sigma``'s comma-joined labels, else label order."""
    labels = iv.space.labels if sigma is None else sigma.split(",")
    try:
        return convert.interval_to_sigma_pbox(iv, Permutation.from_labels(iv.space, labels))
    except (ValidationError, SpaceMismatchError) as exc:  # sigma's, not the interval's
        raise DocumentError(str(exc), "--sigma") from None


@dataclass(frozen=True)
class Kind:
    """Everything the library and the CLI need to handle one document kind.

    Entries call layer functions through their modules (``pbox.lower_prob``
    inside a lambda, not the function object), so the names resolve at
    call time and wrappers rebound on module attributes, such as
    ``perfbench/tracer.py``'s, see every call.
    """

    #: class of the domain object; ``document_for`` picks the first match
    cls: type
    #: ``read(payload, space)``: the validated domain object
    read: Callable[[dict, FiniteSpace], Any]
    #: ``write(obj)``: the kind-specific fields of the canonical form
    write: Callable[[Any], dict]
    #: ``lower(obj, event)``: closed-form lower probability; upper is its conjugate
    lower: Callable[[Any, Event], Fraction]
    #: ``polytope(obj)``: the credal set ``verify`` checks against, if any
    polytope: Callable[[Any], credal.CredalPolytope] | None
    #: ``facts(obj)``: the ``name: value`` lines ``check`` reports
    facts: Callable[[Any], dict[str, Any]]
    #: ``to[target](obj, sigma)``: ``obj`` as kind ``target``; ``sigma``: ``--sigma``
    to: dict[str, Callable[[Any, str | None], Any]] = field(default_factory=dict)
    #: whether the ``to`` conversions read ``sigma``; if not, it is refused
    sigma: bool = False
    #: ``warnings(obj)``: the ``warning:`` lines the CLI prints for a valid document
    warnings: Callable[[Any], tuple[str, ...]] = lambda obj: ()


#: the two p-box kinds differ only in their payload
_PBOX = dict(
    cls=pbox.GeneralizedPBox,
    lower=lambda pb, a: pbox.lower_prob(pb, a),
    polytope=lambda pb: pbox.to_polytope(pb),
    facts=lambda pb: {"comonotone": True, "levels": len(pb.block_masks)},
    to={
        "mass": lambda pb, sigma: pbox.to_random_set(pb),
        "interval": lambda pb, sigma: convert.pbox_to_interval(pb),
        "gen_pbox": lambda pb, sigma: _gen_pbox_form(pb),
        "nested_bounds": lambda pb, sigma: pb,
    },
    warnings=lambda pb: () if pb.level_beta[0] else (
        "first level has upper bound 0; the innermost level set is then "
        "forced to probability 0",
    ),
)

#: every document kind, in document-format order
KINDS: dict[str, Kind] = {
    "capacity": Kind(
        cls=capacity.Capacity,
        read=lambda payload, space: capacity.Capacity(
            space, _event_map(payload, "values", space)
        ),
        write=lambda c: {
            "values": {
                _event_key(event): str(c.values[event.mask])
                for event in enumerate_events(c.space)
            }
        },
        lower=lambda c, a: c(a),
        polytope=None,
        facts=lambda c: {
            "2-monotone": capacity.is_2_monotone(c),
            "infinity-monotone": capacity.is_infty_monotone(c),
            "additive": capacity.is_additive(c),
        },
    ),
    "mass": Kind(
        cls=randomset.MassAssignment,
        read=lambda payload, space: randomset.MassAssignment(
            space, _event_map(payload, "focal", space)
        ),
        write=lambda ms: {
            "focal": {
                _event_key(Event(ms.space, mask)): str(m) for mask, m in ms.focal
            }
        },
        lower=lambda ms, a: randomset.bel(ms, a),
        polytope=lambda ms: randomset.to_polytope(ms),
        facts=lambda ms: {
            "focal events": len(ms.focal),
            "nested": randomset.is_nested(ms),
        },
        to={"interval": lambda ms, sigma: randomset.to_interval(ms)},
    ),
    "possibility": Kind(
        cls=possibility.PossibilityDistribution,
        read=lambda payload, space: possibility.PossibilityDistribution(
            space, _vector(payload, "pi", space)
        ),
        write=lambda d: {"pi": _strs(d.pi)},
        lower=lambda d, a: possibility.necessity(d, a),
        polytope=lambda d: possibility.to_polytope(d),
        facts=lambda d: {"distinct levels": len(d.levels())},
        to={"mass": lambda d, sigma: possibility.to_random_set(d)},
    ),
    "interval": Kind(
        cls=interval.ProbabilityInterval,
        read=lambda payload, space: interval.ProbabilityInterval(
            space, _vector(payload, "l", space), _vector(payload, "u", space)
        ),
        write=lambda iv: {"l": _strs(iv.lower), "u": _strs(iv.upper)},
        lower=lambda iv, a: interval.event_bounds(iv, a)[0],
        polytope=lambda iv: interval.to_polytope(iv),
        facts=lambda iv: {"non-empty": iv.non_empty, "reachable": iv.reachable},
        to={
            "gen_pbox": lambda iv, sigma: _gen_pbox_form(_sigma_pbox(iv, sigma)),
            "nested_bounds": lambda iv, sigma: _sigma_pbox(iv, sigma),
        },
        sigma=True,
    ),
    "gen_pbox": Kind(
        read=lambda payload, space: pbox.from_functions(
            space, _vector(payload, "F_low", space), _vector(payload, "F_upp", space)
        ),
        write=lambda pb: {"F_low": _strs(pb.f_lower), "F_upp": _strs(pb.f_upper)},
        **_PBOX,
    ),
    "nested_bounds": Kind(
        read=_read_levels,
        write=lambda pb: {
            "levels": [
                {"event": _event_key(event), "lo": str(lo), "hi": str(hi)}
                for event, lo, hi in pb.levels()
            ]
        },
        **_PBOX,
    ),
    "probability": Kind(
        cls=credal.ProbabilityVector,
        read=lambda payload, space: credal.ProbabilityVector(
            space, _vector(payload, "p", space)
        ),
        write=lambda p: {"p": _strs(p.p)},
        lower=lambda p, a: p.prob(a),
        polytope=lambda p: credal.CredalPolytope(
            p.space, [(p.space.singleton(i), v, v) for i, v in enumerate(p.p)]
        ),
        facts=lambda p: {},
    ),
}


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object; a key stated twice is rejected (``json`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise DocumentError(f"key {key!r} appears twice")
    return obj


def _check_labels(labels) -> None:
    """Event keys join labels with ",": ``parse`` and ``serialize`` refuse a label with one."""
    if commas := [label for label in labels if "," in label]:
        raise DocumentError(f"label {commas[0]!r} contains ','", "$.space")


def parse(text: str) -> Document:
    """Parse a document, building and validating its domain object."""
    try:
        payload = json.loads(text, parse_float=_json_number, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("malformed JSON: nested too deeply") from None
    except ValueError as exc:  # an integer past the int->str digit limit
        raise DocumentError(str(exc)) from None
    if not isinstance(payload, dict):
        raise DocumentError("top level must be an object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise DocumentError(
            f"kind must be one of {tuple(KINDS)}, got {kind!r}", "$.kind"
        )
    labels = payload.get("space")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise DocumentError("space must be a list of labels", "$.space")
    _check_labels(labels)
    try:
        space = FiniteSpace(labels)
    except ImpboxError as exc:
        raise DocumentError(str(exc), "$.space") from None
    try:
        obj = KINDS[kind].read(payload, space)
    except DocumentError:
        raise
    except ImpboxError as exc:
        raise DocumentError(str(exc)) from None
    return Document(kind=kind, space=space, obj=obj)


def serialize(doc: Document) -> str:
    """Canonical text form: fixed key order, rationals as "p/q" strings."""
    _check_labels(doc.space.labels)
    body = {"kind": doc.kind, "space": list(doc.space.labels)}
    try:
        body.update(KINDS[doc.kind].write(doc.obj))
    except ValueError:  # str() of an int past the int->str digit limit
        raise DocumentError(too_long_message()) from None
    return json.dumps(body, indent=2) + "\n"


def document_for(obj: Any) -> Document:
    """Wrap a domain object in a document of the first matching kind."""
    for kind, entry in KINDS.items():
        if isinstance(obj, entry.cls):
            return Document(kind=kind, space=obj.space, obj=obj)
    raise DocumentError(f"no document kind for {type(obj).__name__}")
