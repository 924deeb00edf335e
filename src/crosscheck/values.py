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
from dataclasses import dataclass
from typing import Iterable, TypeVar

from .errors import ParseError

ABS_TOL = 1e-9
REL_TOL = 1e-9

NUMBER = "number"
TEXT = "text"
BOOLEAN = "boolean"
QUANTITY = "quantity"
COMPOSITE = "composite"

_T = TypeVar("_T")


@dataclass(frozen=True)
class Value:
    """A kind-tagged payload. Build through the constructor helpers below."""

    kind: str
    payload: object


def number(x: int | float) -> Value:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"number payload must be int or float, got {type(x).__name__}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ParseError(f"number payload must be finite, got {x!r}")
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
        return numbers_close(a.payload, b.payload)  # type: ignore[arg-type]
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

    What can be hashed is exact identity. A memo maps each value's
    :func:`_exact_key` to the group it joined, and an exact twin of an
    earlier value joins that group without the scan over representatives.
    The scan would pick the same group: the twin equals the same
    representatives as its first occurrence. Values without a key always
    take the scan.
    """
    groups: list[tuple[Value, list[_T]]] = []
    memo: dict[tuple, list[_T]] = {}
    for value, tag in items:
        key = _exact_key(value)
        tags = memo.get(key) if key is not None else None
        if tags is None:
            for rep, rep_tags in groups:
                if values_equal(rep, value):
                    tags = rep_tags
                    break
            else:
                tags = []
                groups.append((value, tags))
            if key is not None:
                memo[key] = tags
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
        return f"txt:{json.dumps(v.payload, ensure_ascii=False)}"
    if v.kind == BOOLEAN:
        return "bool:true" if v.payload else "bool:false"
    if v.kind == QUANTITY:
        magnitude, unit = v.payload  # type: ignore[misc]
        return f"qty:{_format_number(magnitude)}:{json.dumps(unit, ensure_ascii=False)}"
    inner = ",".join(format_literal(item) for item in v.payload)  # type: ignore[union-attr]
    return f"list:[{inner}]"


_JSON = json.JSONDecoder()


def _decode_json_at(s: str, pos: int) -> tuple[object, int]:
    try:
        return _JSON.raw_decode(s, pos)
    except ValueError as exc:
        raise ParseError(f"bad literal payload at offset {pos} in {s!r}") from exc


def _parse_literal_at(s: str, pos: int) -> tuple[Value, int]:
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
    items: list[Value] = []
    if s.startswith("]", pos):
        return composite(items), pos + 1
    while True:
        item, pos = _parse_literal_at(s, pos)
        items.append(item)
        if s.startswith(",", pos):
            pos += 1
            continue
        if s.startswith("]", pos):
            return composite(items), pos + 1
        raise ParseError(f"list literal expects ',' or ']' at offset {pos} in {s!r}")


def parse_literal(s: str) -> Value:
    value, end = _parse_literal_at(s, 0)
    if end != len(s):
        raise ParseError(f"trailing characters after literal in {s!r}")
    return value


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
    if isinstance(obj, bool):
        return boolean(obj)
    if isinstance(obj, (int, float)):
        return number(obj)
    if isinstance(obj, str):
        return text(obj)
    if isinstance(obj, list):
        return composite(value_from_json(item) for item in obj)
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind == NUMBER:
            return number(obj["value"])
        if kind == TEXT:
            return text(obj["value"])
        if kind == BOOLEAN:
            return boolean(obj["value"])
        if kind == QUANTITY:
            return quantity(obj["value"], obj["unit"])
        if kind == COMPOSITE:
            return composite(value_from_json(item) for item in obj["items"])
        raise ParseError(f"unknown value kind {kind!r}")
    raise ParseError(f"cannot decode value from {type(obj).__name__}")

