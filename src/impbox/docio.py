"""JSON document format for every representation the library handles.

Numbers are parsed as exact rationals ("3/10", "0.3" or plain integers)
and always serialized back as rationals, so parse/serialize round trips
are exact and canonical output is byte-stable.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import capacity, credal, interval, pbox, possibility, randomset
from .errors import ImpboxError
from .space import Event, FiniteSpace, enumerate_events


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


def _max_elements() -> int:
    try:
        return int(os.environ.get("IMPBOX_MAX_N", "24"))
    except ValueError:
        return 24


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("expected a rational number, got a boolean", path)
    try:
        q = Fraction(value) if not isinstance(value, float) else Fraction(str(value))
    except (ValueError, ZeroDivisionError, TypeError):
        raise DocumentError(f"cannot parse {value!r} as a rational", path) from None
    # every accepted value must print again: str() of a longer int raises.
    # An int below 2**(3 * limit) = 8**limit has fewer than limit digits.
    limit = sys.get_int_max_str_digits()
    big = max(abs(q.numerator), q.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise DocumentError(f"numerator or denominator exceeds {limit} digits", path)
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


def _event(space: FiniteSpace, key: str, path: str) -> Event:
    labels = [part for part in key.split(",") if part]
    try:
        return space.event(labels)
    except ImpboxError as exc:
        raise DocumentError(str(exc), path) from None


def _event_key(event: Event) -> str:
    return ",".join(event.labels)


def _event_map(payload, field: str, space: FiniteSpace) -> dict[Event, Fraction]:
    raw = payload.get(field)
    if not isinstance(raw, dict):
        raise DocumentError(f"{field} must be an object", f"$.{field}")
    table = {}
    for key, val in raw.items():
        path = f"$.{field}[{key!r}]"
        table[_event(space, key, path)] = _rational(val, path)
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
    #: ``bounds(obj, event)``: closed-form (lower, upper) probability
    bounds: Callable[[Any, Event], tuple[Fraction, Fraction]]
    #: ``polytope(obj)``: the credal set ``verify`` checks against, if any
    polytope: Callable[[Any], credal.CredalPolytope] | None
    #: ``facts(obj)``: the ``name: value`` lines ``check`` reports
    facts: Callable[[Any], dict[str, Any]]


#: the two p-box kinds differ only in their payload
_PBOX = dict(
    cls=pbox.GeneralizedPBox,
    bounds=lambda pb, a: (pbox.lower_prob(pb, a), pbox.upper_prob(pb, a)),
    polytope=lambda pb: pbox.to_polytope(pb),
    facts=lambda pb: {
        "comonotone": True,
        "levels": len(pb.level_masks),
        "blocks": len(pb.block_masks),
    },
)

#: every document kind, in document-format order
KINDS: dict[str, Kind] = {
    "capacity": Kind(
        cls=capacity.Capacity,
        read=lambda payload, space: capacity.validate_capacity(
            space, _event_map(payload, "values", space)
        ),
        write=lambda c: {
            "values": {
                _event_key(event): str(c.values[event.mask])
                for event in enumerate_events(c.space)
            }
        },
        bounds=lambda c, a: (c(a), 1 - c(a.complement())),
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
        bounds=lambda ms, a: (randomset.bel(ms, a), randomset.pl(ms, a)),
        polytope=lambda ms: randomset.to_polytope(ms),
        facts=lambda ms: {
            "focal events": len(ms.focal),
            "nested": randomset.is_nested(ms),
        },
    ),
    "possibility": Kind(
        cls=possibility.PossibilityDistribution,
        read=lambda payload, space: possibility.PossibilityDistribution(
            space, _vector(payload, "pi", space)
        ),
        write=lambda d: {"pi": _strs(d.pi)},
        bounds=lambda d, a: (possibility.necessity(d, a), possibility.possibility(d, a)),
        polytope=lambda d: possibility.to_polytope(d),
        facts=lambda d: {"distinct levels": len(d.levels())},
    ),
    "interval": Kind(
        cls=interval.ProbabilityInterval,
        read=lambda payload, space: interval.ProbabilityInterval(
            space, _vector(payload, "l", space), _vector(payload, "u", space)
        ),
        write=lambda iv: {"l": _strs(iv.lower), "u": _strs(iv.upper)},
        bounds=lambda iv, a: interval.event_bounds(iv, a),
        polytope=lambda iv: interval.to_polytope(iv),
        facts=lambda iv: {"non-empty": iv.non_empty, "reachable": iv.reachable},
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
        bounds=lambda p, a: (p.prob(a),) * 2,
        polytope=lambda p: credal.CredalPolytope(
            p.space, [(p.space.singleton(i), v, v) for i, v in enumerate(p.p)]
        ),
        facts=lambda p: {},
    ),
}


def parse(text: str) -> Document:
    """Parse a document, building and validating its domain object."""
    try:
        payload = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from None
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
    if len(labels) > _max_elements():
        raise DocumentError(
            f"space exceeds the configured maximum of {_max_elements()} elements "
            "(IMPBOX_MAX_N)",
            "$.space",
        )
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
    body = {"kind": doc.kind, "space": list(doc.space.labels)}
    body.update(KINDS[doc.kind].write(doc.obj))
    return json.dumps(body, indent=2) + "\n"


def document_for(obj: Any) -> Document:
    """Wrap a domain object in a document of the first matching kind."""
    for kind, entry in KINDS.items():
        if isinstance(obj, entry.cls):
            return Document(kind=kind, space=obj.space, obj=obj)
    raise DocumentError(f"no document kind for {type(obj).__name__}")
