"""Canonical values: the one equality rule everything else leans on.

Every payload that moves through the pipeline — expert intermediates,
candidate responses, tool outcomes, fact statements — is a :class:`Value`
of one of five kinds: number, text, boolean, quantity (number tagged with
a unit) or composite (ordered list of values).

Equality is canonical rather than structural:

* text compares trimmed and case-folded,
* numbers compare within ``|a - b| <= max(ABS_TOL, REL_TOL * max(|a|, |b|))``,
* quantities compare only when their units match exactly,
* composites compare element-wise,
* values of different kinds are never equal.

``Value.__eq__`` stays structural (safe for dedup and dict keys); use
:func:`values_equal` wherever the canonical rule is meant. The compact
literal form (``num:42``, ``txt:"x"``, ``qty:3.5:"m"``, ``list:[...]``)
is the wire encoding used in verdict tables, audit logs, and reports.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Iterable, TypeVar

from .errors import ParseError

ABS_TOL = 1e-9
REL_TOL = 1e-9
# The most composites a decoded value may nest, one inside the next. A
# deeper one is a ParseError: every stage recurses once per level, so an
# unbounded depth ends in RecursionError somewhere in a run.
MAX_NESTING = 64
_FLOAT_MAX = sys.float_info.max

NUMBER = "number"
TEXT = "text"
BOOLEAN = "boolean"
QUANTITY = "quantity"
COMPOSITE = "composite"
# The keys of each kind's explicit JSON form (``value_to_json``); a decoded object may hold no other.
_FORM_KEYS = {NUMBER: ("kind", "value"), TEXT: ("kind", "value"), BOOLEAN: ("kind", "value"),
              QUANTITY: ("kind", "value", "unit"), COMPOSITE: ("kind", "items")}

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class Value:
    """A kind-tagged payload. Build through the constructor helpers below."""

    kind: str
    payload: object


def number(x: int | float) -> Value:
    """A number value; an int must lie within float range, since the tolerance rule multiplies it by a float."""
    # Plain ints in float range and finite floats, the common case, skip the checks below.
    if (type(x) is int and -_FLOAT_MAX <= x <= _FLOAT_MAX) or (type(x) is float and math.isfinite(x)):
        return Value(NUMBER, x)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"number payload must be int or float, got {type(x).__name__}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ParseError(f"number payload must be finite, got {x!r}")
    if abs(x) > _FLOAT_MAX:
        raise ParseError(f"number payload must lie within float range, got an int of {x.bit_length()} bits")
    return Value(NUMBER, x)


def text(s: str) -> Value:
    if not isinstance(s, str):
        raise ParseError(f"text payload must be str, got {type(s).__name__}")
    return Value(TEXT, s)


def boolean(b: bool) -> Value:
    if not isinstance(b, bool):
        raise ParseError(f"boolean payload must be bool, got {type(b).__name__}")
    return Value(BOOLEAN, b)


def quantity(x: int | float, unit: str) -> Value:
    magnitude = number(x).payload
    if not isinstance(unit, str) or not unit.strip():
        raise ParseError("quantity unit must be a nonempty string")
    return Value(QUANTITY, (magnitude, unit.strip()))


def composite(items: Iterable[Value]) -> Value:
    tup = tuple(items)
    for item in tup:
        if not isinstance(item, Value):
            raise ParseError("composite items must be Values")
    return Value(COMPOSITE, tup)


def numbers_close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def values_equal(a: Value, b: Value) -> bool:
    """Canonical equality; see the module docstring for the full rule."""
    if a.kind != b.kind:
        return False
    if a.kind == NUMBER:
        # The rule of numbers_close, inlined: numbers are the commonest kind compared.
        x, y = a.payload, b.payload
        return abs(x - y) <= max(ABS_TOL, REL_TOL * max(abs(x), abs(y)))  # type: ignore[operator, arg-type]
    if a.kind == TEXT:
        return _fold(a.payload) == _fold(b.payload)  # type: ignore[arg-type]
    if a.kind == BOOLEAN:
        return a.payload is b.payload
    if a.kind == QUANTITY:
        (xa, ua), (xb, ub) = a.payload, b.payload  # type: ignore[misc]
        return ua == ub and numbers_close(xa, xb)
    items_a, items_b = a.payload, b.payload  # type: ignore[misc]
    if len(items_a) != len(items_b):  # type: ignore[arg-type]
        return False
    return all(values_equal(x, y) for x, y in zip(items_a, items_b))  # type: ignore[arg-type]


def values_comparable(a: Value, b: Value) -> bool:
    """Whether two values live in the same comparison domain.

    Distinct kinds are incomparable; quantities additionally need matching
    units. Comparable-and-unequal is what the note summarizer treats as a
    genuine conflict, as opposed to merely incommensurate observations.
    """
    if a.kind != b.kind:
        return False
    if a.kind == QUANTITY:
        return a.payload[1] == b.payload[1]  # type: ignore[index]
    if a.kind == COMPOSITE:
        items_a, items_b = a.payload, b.payload  # type: ignore[misc]
        if len(items_a) != len(items_b):  # type: ignore[arg-type]
            return False
        return all(values_comparable(x, y) for x, y in zip(items_a, items_b))  # type: ignore[arg-type]
    return True


def _fold(s: str) -> str:
    return s.strip().casefold()


_KEYED_TYPES = {NUMBER: (int, float), TEXT: (str,), BOOLEAN: (bool,)}


def _exact_key(v: Value) -> tuple | None:
    """A hashable key on which equal keys mean interchangeable values.

    Two values with equal keys have the same kind and payloads of the same
    types with equal contents, so :func:`values_equal` answers the same for
    both against any third value. Structural ``Value`` equality is not
    enough: ``1 == 1.0``, yet an int and a float take different arithmetic in
    :func:`numbers_close` at the tolerance edge. A payload outside the types
    the constructors make, or a NaN (equal to nothing, itself included),
    gets no key.
    """
    kind, p = v.kind, v.payload
    if kind == COMPOSITE:
        if type(p) is not tuple or not all(isinstance(item, Value) for item in p):
            return None
        keys = tuple(map(_exact_key, p))
        return None if None in keys else (kind, keys)
    if kind == QUANTITY:
        if type(p) is not tuple or len(p) != 2 or type(p[1]) is not str:
            return None
        magnitude = p[0]
        if type(magnitude) not in (int, float) or magnitude != magnitude:
            return None
        return (kind, type(magnitude), p)
    if type(p) not in _KEYED_TYPES.get(kind, ()) or p != p:
        return None
    return (kind, type(p), p)


def group_values(items: Iterable[tuple[Value, _T]]) -> list[tuple[Value, list[_T]]]:
    """Group tagged values by canonical equality, first-seen value as representative.

    Each value joins the first group whose representative it equals, or
    opens a new group. Representatives are never replaced, so iteration
    order decides them deterministically. That matters because tolerance
    equality is not transitive: with ``1e9``, ``1e9+1`` and ``1e9+2`` the
    neighbours are equal but the ends are not, so the result depends on
    which value stands for a group, and grouping cannot be done by hashing
    canonical forms.
    """
    groups: list[tuple[Value, list[_T]]] = []
    for value, tag in items:
        for rep, tags in groups:
            if values_equal(rep, value):
                break
        else:
            tags = []
            groups.append((value, tags))
        tags.append(tag)
    return groups


# --- literal encoding -------------------------------------------------------

def _format_number(x: int | float) -> str:
    # repr() gives the shortest round-trip decimal for floats.
    return repr(x) if isinstance(x, float) else str(x)


def format_literal(v: Value) -> str:
    if v.kind == NUMBER:
        return f"num:{_format_number(v.payload)}"  # type: ignore[arg-type]
    if v.kind == TEXT:
        return f"txt:{encode_basestring(v.payload)}"
    if v.kind == BOOLEAN:
        return "bool:true" if v.payload else "bool:false"
    if v.kind == QUANTITY:
        magnitude, unit = v.payload  # type: ignore[misc]
        return f"qty:{_format_number(magnitude)}:{encode_basestring(unit)}"
    inner = ",".join(format_literal(item) for item in v.payload)  # type: ignore[union-attr]
    return f"list:[{inner}]"


_JSON = json.JSONDecoder()


def _decode_json_at(s: str, pos: int) -> tuple[object, int]:
    try:
        return _JSON.raw_decode(s, pos)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad literal payload at offset {pos} in {s!r}") from exc


def _too_deep(depth: int) -> None:
    if depth >= MAX_NESTING:
        raise ParseError(f"composite values nest more than {MAX_NESTING} levels deep")


def _parse_literal_at(s: str, pos: int, depth: int) -> tuple[Value, int]:
    for prefix in ("num:", "txt:", "bool:", "qty:", "list:["):
        if s.startswith(prefix, pos):
            break
    else:
        raise ParseError(f"unknown literal kind at offset {pos} in {s!r}")
    pos += len(prefix)
    if prefix == "num:":
        payload, end = _decode_json_at(s, pos)
        if isinstance(payload, bool) or not isinstance(payload, (int, float)):
            raise ParseError(f"num literal is not numeric in {s!r}")
        return number(payload), end
    if prefix == "txt:":
        payload, end = _decode_json_at(s, pos)
        if not isinstance(payload, str):
            raise ParseError(f"txt literal is not a JSON string in {s!r}")
        return text(payload), end
    if prefix == "bool:":
        for token, flag in (("true", True), ("false", False)):
            if s.startswith(token, pos):
                return boolean(flag), pos + len(token)
        raise ParseError(f"bool literal must be true or false in {s!r}")
    if prefix == "qty:":
        magnitude, end = _decode_json_at(s, pos)
        if isinstance(magnitude, bool) or not isinstance(magnitude, (int, float)):
            raise ParseError(f"qty magnitude is not numeric in {s!r}")
        if not s.startswith(":", end):
            raise ParseError(f"qty literal missing unit separator in {s!r}")
        unit, end = _decode_json_at(s, end + 1)
        if not isinstance(unit, str):
            raise ParseError(f"qty unit is not a JSON string in {s!r}")
        return quantity(magnitude, unit), end
    # list:[
    _too_deep(depth)
    items: list[Value] = []
    if s.startswith("]", pos):
        return composite(items), pos + 1
    while True:
        item, pos = _parse_literal_at(s, pos, depth + 1)
        items.append(item)
        if s.startswith(",", pos):
            pos += 1
            continue
        if s.startswith("]", pos):
            return composite(items), pos + 1
        raise ParseError(f"list literal expects ',' or ']' at offset {pos} in {s!r}")


def parse_literal(s: str) -> Value:
    value, end = _parse_literal_at(s, 0, 0)
    if end != len(s):
        raise ParseError(f"trailing characters after literal in {s!r}")
    return value


# The process's one object per shared id; emptied when it holds SHARED_BOUND ids.
_SHARED: dict[str, str] = {}
SHARED_BOUND = 1 << 16


def shared_text(s: _T) -> _T:
    """The process's one object for the text of ``s`` when ``s`` is exactly a ``str``; else ``s`` unchanged.

    A load passes each id through this once the id has passed its own
    check, so equal ids share one object within and across loaded
    scenarios. Emptying the table lets an id that no scenario holds be
    freed (``sys.intern`` would keep it for good on CPython 3.12 and
    later). A ``str`` subclass or a non-string is returned as it is, so
    it loads or fails exactly as it would without the sharing.
    """
    if type(s) is not str:
        return s
    if s not in _SHARED and len(_SHARED) >= SHARED_BOUND:
        _SHARED.clear()
    return _SHARED.setdefault(s, s)  # type: ignore[return-value]


# --- statement keys ---------------------------------------------------------

def statement_key(step: str, value: Value) -> str:
    """Encode a (step, value) statement as ``<step>|<literal>``."""
    if "|" in step:
        raise ParseError(f"step id may not contain '|': {step!r}")
    return f"{step}|{format_literal(value)}"


def parse_statement_key(key: str) -> tuple[str, Value]:
    step, sep, rest = key.partition("|")
    if not sep or not step:
        raise ParseError(f"statement key must look like '<step>|<literal>': {key!r}")
    return step, parse_literal(rest)


# --- JSON forms (scenario files, dumps) -------------------------------------

def value_to_json(v: Value) -> object:
    if v.kind == NUMBER:
        return {"kind": NUMBER, "value": v.payload}
    if v.kind == TEXT:
        return {"kind": TEXT, "value": v.payload}
    if v.kind == BOOLEAN:
        return {"kind": BOOLEAN, "value": v.payload}
    if v.kind == QUANTITY:
        magnitude, unit = v.payload  # type: ignore[misc]
        return {"kind": QUANTITY, "value": magnitude, "unit": unit}
    return {"kind": COMPOSITE, "items": [value_to_json(item) for item in v.payload]}  # type: ignore[union-attr]


def value_from_json(obj: object) -> Value:
    """Decode the explicit form, accepting bare JSON scalars as shorthand."""
    return _value_from_json(obj, 0)


def _value_from_json(obj: object, depth: int) -> Value:
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind == NUMBER:
            value = number(obj["value"])
        elif kind == TEXT:
            value = text(obj["value"])
        elif kind == BOOLEAN:
            value = boolean(obj["value"])
        elif kind == QUANTITY:
            value = quantity(obj["value"], obj["unit"])
        elif kind == COMPOSITE:
            _too_deep(depth)
            items = obj["items"]
            # A string or an object iterates too, into a wrong value; only an array is a composite's items.
            if not isinstance(items, list):
                raise ParseError(f"composite items must be a JSON array, got {type(items).__name__}")
            value = composite(_value_from_json(item, depth + 1) for item in items)
        else:
            raise ParseError(f"unknown value kind {kind!r}")
        if len(obj) != len(_FORM_KEYS[kind]):
            extra = next(key for key in obj if key not in _FORM_KEYS[kind])
            raise ParseError(f"a {kind} value takes no key {extra!r}")
        return value
    if isinstance(obj, bool):
        return boolean(obj)
    if isinstance(obj, (int, float)):
        return number(obj)
    if isinstance(obj, str):
        return text(obj)
    if isinstance(obj, list):
        _too_deep(depth)
        return composite(_value_from_json(item, depth + 1) for item in obj)
    raise ParseError(f"cannot decode value from {type(obj).__name__}")
