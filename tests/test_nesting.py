"""Deeply nested input: a typed error from every reader, never a RecursionError.

Composite values may nest ``MAX_NESTING`` levels deep, in JSON and in
literals alike; one level more is a ``ParseError`` where the value is
decoded. JSON nested past what ``json`` itself can decode is the typed
error of the reader that loads it. Two cases live with their reader's
other malformed inputs: a store record one level past the bound
(``test_malformed_dump_record_is_schema_error``) and backend content
nested past ``json`` (``test_http_content_that_json_cannot_read_fails_only_that_expert``).
"""

from __future__ import annotations

import io
import json
import urllib.request

import pytest

from crosscheck.auditlog import AuditLog, AuditLogEntry, replay
from crosscheck.engine import run_pipeline
from crosscheck.ensemble import CONSERVATIVE, ExpertConfig, HttpBackend
from crosscheck.errors import BackendError, ParseError, SchemaError, ValidationError
from crosscheck.facts import FactStore
from crosscheck.scenario import SCHEMA_TEXT, load_scenario, scenario_from_dict
from crosscheck.values import MAX_NESTING, format_literal, parse_literal, value_from_json, values_equal

# Deeper than json's own decoder goes, on any interpreter's recursion limit.
TOO_DEEP_FOR_JSON = 100_000


def _nested(depth, leaf=1):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


def _nested_text(depth, leaf="1"):
    return "[" * depth + leaf + "]" * depth


def _literal(depth):
    return "list:[" * depth + "num:1" + "]" * depth


def _scenario_text(value_text, **overrides):
    """Three experts agree on ``value_text`` at s1 and answer it; a fourth dissents."""
    experts = [
        {"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1, "seed": i,
         "traces": [{"steps": {"s1": {"value": "@V" if i < 4 else 2, "confidence": 0.9}},
                     "response": "@V" if i < 4 else 2}]}
        for i in range(1, 5)
    ]
    obj = {"query": "q", "dag": {"steps": ["s1"], "edges": []}, "experts": experts, **overrides}
    return json.dumps(obj).replace('"@V"', value_text)


def test_values_nest_to_the_bound_and_no_further():
    assert value_from_json(_nested(MAX_NESTING)) == parse_literal(_literal(MAX_NESTING))
    assert format_literal(parse_literal(_literal(MAX_NESTING))) == _literal(MAX_NESTING)
    explicit = {"kind": "number", "value": 1}
    for _ in range(MAX_NESTING + 1):
        explicit = {"kind": "composite", "items": [explicit]}
    for decode, raw in ((value_from_json, _nested(MAX_NESTING + 1)), (value_from_json, explicit),
                        (parse_literal, _literal(MAX_NESTING + 1)), (parse_literal, _literal(2000))):
        with pytest.raises(ParseError, match=f"more than {MAX_NESTING} levels"):
            decode(raw)


def test_a_literal_payload_json_cannot_decode_is_parse_error():
    with pytest.raises(ParseError, match="bad literal payload"):
        parse_literal("num:" + "[" * TOO_DEEP_FOR_JSON)


def test_a_run_over_values_nested_to_the_bound_replays_clean(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_scenario_text(_nested_text(MAX_NESTING)), encoding="utf-8")
    result = run_pipeline(load_scenario(path))
    assert values_equal(result.answer, value_from_json(_nested(MAX_NESTING)))
    state = replay(AuditLog.from_lines(result.audit_log.to_text().splitlines()))
    assert state.ok, state.violations
    assert state.anchors == {"s1": _literal(MAX_NESTING)}


@pytest.mark.parametrize("depth, error, message", [
    (MAX_NESTING + 1, ValidationError, f"more than {MAX_NESTING} levels"),
    (600, ValidationError, f"more than {MAX_NESTING} levels"),
    (TOO_DEEP_FOR_JSON, ParseError, "recursion"),
], ids=["past-the-bound", "600", "past-json"])
def test_load_scenario_rejects_a_value_nested_too_deep(tmp_path, depth, error, message):
    path = tmp_path / "deep.json"
    path.write_text(_scenario_text(_nested_text(depth)), encoding="utf-8")
    with pytest.raises(error, match=message):
        load_scenario(path)


def test_scenario_keys_nested_too_deep_are_validation_errors():
    obj = json.loads(_scenario_text("1"))
    with pytest.raises(ValidationError, match=r"verdict_table\["):
        scenario_from_dict({**obj, "verdict_table": {"s1|" + _literal(2000): "support"}})
    with pytest.raises(ValidationError, match=r"tool_scripts\["):
        scenario_from_dict({**obj, "tool_scripts": {"calc|" + _nested_text(TOO_DEEP_FOR_JSON, ""): 1}})


def test_a_store_record_nested_deeper_than_json_decodes_is_schema_error():
    line = '{"kind": "tool", "id": "t1", "tool_name": "calc", "outcome": ' + _nested_text(TOO_DEEP_FOR_JSON) + "}"
    with pytest.raises(SchemaError, match="bad store record on line 1"):
        FactStore.from_lines([line])


def test_an_audit_line_nested_too_deep_is_parse_error():
    line = '{"seq":1,"stage":"gate","event":"accept","payload":{"x":' + _nested_text(TOO_DEEP_FOR_JSON) + "}}"
    with pytest.raises(ParseError, match="audit log line 7"):
        AuditLogEntry.from_line(line, 7)


def test_an_http_envelope_nested_deeper_than_json_decodes_is_backend_error(monkeypatch):
    # Content nested that deep is a case of test_http_content_that_json_cannot_read_fails_only_that_expert.
    def fake_urlopen(request, timeout=None):
        return io.BytesIO(('{"choices": ' + _nested_text(TOO_DEEP_FOR_JSON) + "}").encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    backend = HttpBackend(endpoint="http://backend.test/v1/chat")
    with pytest.raises(BackendError, match="backend transport failure"):
        backend.sample(ExpertConfig("e01", CONSERVATIVE, 0.1, 1), "q")


def test_schema_text_states_the_nesting_bound():
    assert f"composites nest at most {MAX_NESTING} deep" in SCHEMA_TEXT
