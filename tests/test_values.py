from __future__ import annotations

import json
import re
import sys

import pytest
from hypothesis import given, strategies as st

from crosscheck.errors import ParseError
from crosscheck.values import (
    boolean,
    composite,
    format_literal,
    group_values,
    number,
    parse_literal,
    parse_statement_key,
    quantity,
    statement_key,
    text,
    value_from_json,
    value_to_json,
    values_comparable,
    values_equal,
)


def test_text_equality_folds_case_and_whitespace():
    assert values_equal(text("  Hello "), text("hello"))
    assert not values_equal(text("hello"), text("world"))


def test_number_equality_uses_tolerance():
    assert values_equal(number(42), number(42.0))
    assert values_equal(number(1.0), number(1.0 + 5e-10))
    assert not values_equal(number(42), number(17))
    assert not values_equal(number(1.0), number(1.0001))


def test_quantities_compare_only_with_identical_units():
    assert values_equal(quantity(3.5, "m"), quantity(3.5, "m"))
    assert not values_equal(quantity(3.5, "m"), quantity(3.5, "ft"))
    assert not values_comparable(quantity(1, "m"), quantity(1, "ft"))
    assert values_comparable(quantity(1, "m"), quantity(2, "m"))


def test_kinds_never_cross_compare():
    assert not values_equal(number(1), text("1"))
    assert not values_equal(boolean(True), number(1))
    assert not values_comparable(number(1), boolean(True))


def test_composite_equality_is_elementwise():
    a = composite([number(1), text("X")])
    b = composite([number(1.0), text("x ")])
    assert values_equal(a, b)
    assert not values_equal(a, composite([number(1)]))


def test_number_rejects_nan_and_bool():
    with pytest.raises(ParseError):
        number(float("nan"))
    with pytest.raises(ParseError):
        number(True)


@pytest.mark.parametrize("x", [10**400, -(10**400), int(sys.float_info.max) + 1], ids=["1e400", "-1e400", "max+1"])
def test_an_int_beyond_float_range_is_rejected(x):
    # The tolerance rule multiplies an int by a float, which raised OverflowError mid-run.
    with pytest.raises(ParseError, match="within float range"):
        number(x)
    with pytest.raises(ParseError, match="within float range"):
        quantity(x, "m")


def test_a_num_literal_beyond_float_range_is_rejected():
    with pytest.raises(ParseError):
        parse_literal("num:1" + "0" * 400)


def test_the_largest_int_in_float_range_is_a_number():
    big = int(sys.float_info.max)
    assert values_equal(number(big), number(sys.float_info.max))
    assert not values_equal(number(big), number(-big))
    assert parse_literal(f"num:{big}") == number(big)


_scalar = st.one_of(
    st.integers(-10**6, 10**6).map(number),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(number),
    st.text(max_size=12).map(text),
    st.booleans().map(boolean),
    st.tuples(st.integers(-100, 100), st.sampled_from(["m", "s", "kg", "m/s"])).map(
        lambda t: quantity(t[0], t[1])
    ),
)
_value = st.recursive(_scalar, lambda inner: st.lists(inner, max_size=3).map(composite), max_leaves=6)


@given(_value)
def test_literal_round_trip(v):
    assert values_equal(parse_literal(format_literal(v)), v)
    # round-tripping is also structurally exact, not just canonical
    assert parse_literal(format_literal(v)) == v


@given(st.text(), st.text().filter(str.strip), st.integers(-10**6, 10**6))
def test_text_and_unit_literals_are_json_strings(s, unit, magnitude):
    assert format_literal(text(s)) == f"txt:{json.dumps(s, ensure_ascii=False)}"
    assert format_literal(quantity(magnitude, unit)) == f"qty:{magnitude}:{json.dumps(unit.strip(), ensure_ascii=False)}"


@given(_value)
def test_json_round_trip(v):
    assert value_from_json(value_to_json(v)) == v


@given(st.text(alphabet=st.characters(blacklist_characters="|", blacklist_categories=("Cs",)), min_size=1, max_size=10), _value)
def test_statement_key_round_trip(step, v):
    key = statement_key(step, v)
    parsed_step, parsed_value = parse_statement_key(key)
    assert parsed_step == step
    assert values_equal(parsed_value, v)


def test_statement_key_rejects_pipe_in_step():
    with pytest.raises(ParseError):
        statement_key("a|b", number(1))


@pytest.mark.parametrize("bad", ["", "num:", "num:abc", "bool:maybe", "qty:1", "list:[num:1", "float:1"])
def test_parse_literal_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_literal(bad)


def test_shorthand_json_values():
    assert value_from_json(42) == number(42)
    assert value_from_json("x") == text("x")
    assert value_from_json(True) == boolean(True)
    assert value_from_json([1, "a"]) == composite([number(1), text("a")])


# "ab" once decoded as list:[txt:"a",txt:"b"], {"x": 1} as list:[txt:"x"], and 5 raised a raw TypeError.
COMPOSITE_ITEMS_NOT_AN_ARRAY = ["ab", {"x": 1}, 5, None, True]


@pytest.mark.parametrize("items", COMPOSITE_ITEMS_NOT_AN_ARRAY)
def test_composite_items_must_be_a_json_array(items):
    with pytest.raises(ParseError, match="composite items must be a JSON array"):
        value_from_json({"kind": "composite", "items": items})
    with pytest.raises(ParseError, match="composite items must be a JSON array"):
        value_from_json([1, {"kind": "composite", "items": items}])
    assert value_from_json({"kind": "composite", "items": []}) == composite([])


# Each once decoded with the extra key dropped: the first as num:1, without the unit it meant.
EXTRA_KEYS = [
    ({"kind": "number", "value": 1, "unit": "m"}, "unit"),
    ({"kind": "text", "value": "x", "items": [1]}, "items"),
    ({"kind": "boolean", "value": True, "unit": "m"}, "unit"),
    ({"kind": "quantity", "value": 1, "unit": "m", "items": []}, "items"),
    ({"kind": "composite", "items": [], "value": 1}, "value"),
]


@pytest.mark.parametrize("obj, key", EXTRA_KEYS)
def test_a_key_its_kind_does_not_read_is_a_parse_error(obj, key):
    message = re.escape(f"a {obj['kind']} value takes no key {key!r}")
    with pytest.raises(ParseError, match=message):
        value_from_json(obj)
    with pytest.raises(ParseError, match=message):
        value_from_json([1, {"kind": "composite", "items": [obj]}])


def test_a_missing_field_is_named_before_an_extra_key():
    with pytest.raises(KeyError, match="'value'"):
        value_from_json({"kind": "number", "unit": "m"})
    with pytest.raises(KeyError, match="'items'"):
        value_from_json({"kind": "composite", "value": [1], "unit": "m"})


def test_group_values_uses_representatives():
    groups = group_values([(number(42), "a"), (number(42.0), "b"), (number(17), "c")])
    assert len(groups) == 2
    assert groups[0][1] == ["a", "b"]
    assert groups[1][1] == ["c"]
