from __future__ import annotations

import io
import json
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import crosscheck
from crosscheck.ensemble import (
    CONSERVATIVE,
    ExpertConfig,
    ExpertOutput,
    HttpBackend,
    ScriptedBackend,
    collect,
    parse_expert_output,
)
from crosscheck.errors import AllExpertsFailedError, BackendError, SchemaError
from crosscheck.values import number


def _trace(value=42, confidence=0.9, response=42):
    return {
        "steps": {"s1": {"value": value, "confidence": confidence}},
        "analysis": "scripted",
        "response": response,
    }


def _stub_http(monkeypatch, content_for):
    """Answer every POST with ``content_for(request_body)`` as the first choice's content."""

    def fake_urlopen(request, timeout=None):
        content = content_for(json.loads(request.data.decode("utf-8")))
        payload = {"choices": [{"message": {"content": json.dumps(content)}}]}
        return io.BytesIO(json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return HttpBackend(endpoint="http://backend.test/v1/chat")


def test_scripted_passthrough():
    config = ExpertConfig("e01", CONSERVATIVE, 0.1, 7)
    scripted = [parse_expert_output("e01", _trace()), parse_expert_output("e01", _trace(value=17, response=17))]
    backend = ScriptedBackend({"e01": scripted})
    outputs = backend.sample(config, "q")
    assert len(outputs) == 2
    assert outputs[0].value_at("s1") == number(42)
    assert outputs[1].response == number(17)


def test_out_of_range_confidence_is_schema_error(monkeypatch):
    config = ExpertConfig("e01", CONSERVATIVE, 0.1, 7)
    backend = _stub_http(monkeypatch, lambda body: [_trace(confidence=1.3)])
    with pytest.raises(SchemaError):
        backend.sample(config, "q")


def test_float_drift_confidence_is_clamped():
    output = parse_expert_output("e01", _trace(confidence=1.0 + 1e-12))
    assert output.confidence_at("s1") == 1.0


def test_missing_response_is_schema_error():
    with pytest.raises(SchemaError):
        parse_expert_output("e01", {"steps": {}, "analysis": ""})


def test_scripted_determinism():
    config = ExpertConfig("e01", CONSERVATIVE, 0.1, 7)
    backend = ScriptedBackend({"e01": [parse_expert_output("e01", _trace())]})
    assert backend.sample(config, "q") == backend.sample(config, "q")


def _configs(*ids):
    return [ExpertConfig(i, CONSERVATIVE, 0.1, 0) for i in ids]


def test_collect_orders_by_expert_id():
    backend = ScriptedBackend({i: [parse_expert_output(i, _trace(response=n))]
                               for n, i in enumerate(["e02", "e01", "e03"])})
    result = collect("q", _configs("e02", "e01", "e03"), backend)
    assert [o.expert_id for o in result.outputs] == ["e01", "e02", "e03"]
    assert result.failures == []


def test_collect_tolerates_partial_failure():
    backend = ScriptedBackend({i: [parse_expert_output(i, _trace())] for i in ("e01", "e03")}, failing={"e02"})
    result = collect("q", _configs("e01", "e02", "e03"), backend)
    assert [o.expert_id for o in result.outputs] == ["e01", "e03"]
    assert [f.expert_id for f in result.failures] == ["e02"]


def test_collect_all_failed():
    backend = ScriptedBackend({}, failing={"e01", "e02"})
    with pytest.raises(AllExpertsFailedError):
        collect("q", _configs("e01", "e02"), backend)


def test_collect_records_a_backend_that_returns_no_traces_as_that_experts_failure():
    backend = ScriptedBackend({"e01": [], "e02": [parse_expert_output("e02", _trace())]})
    result = collect("q", _configs("e01", "e02"), backend)
    assert [o.expert_id for o in result.outputs] == ["e02"]
    assert [(f.expert_id, f.error) for f in result.failures] == [("e01", "backend returned no traces for expert 'e01'")]
    with pytest.raises(AllExpertsFailedError, match="e01: backend returned no traces.*e02: backend returned no traces"):
        collect("q", _configs("e01", "e02"), ScriptedBackend({"e01": [], "e02": []}))


def test_unscripted_expert_is_backend_error():
    backend = ScriptedBackend({})
    with pytest.raises(BackendError):
        backend.sample(ExpertConfig("e09", CONSERVATIVE, 0.1, 0), "q")


@pytest.mark.parametrize("content", ['[{"steps": {}, "response": ' + "1" * 5000 + '}]', 5, "[" * 100_000],
                         ids=["integer-too-long-to-convert", "not-a-string", "nested-deeper-than-json-decodes"])
def test_http_content_that_json_cannot_read_fails_only_that_expert(monkeypatch, content):
    # Each once escaped collect as a plain ValueError or TypeError.
    def fake_urlopen(request, timeout=None):
        seed = json.loads(request.data.decode("utf-8"))["seed"]
        message = {"content": content if seed == 1 else json.dumps([_trace()])}
        return io.BytesIO(json.dumps({"choices": [{"message": message}]}).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    backend = HttpBackend(endpoint="http://backend.test/v1/chat")
    configs = [ExpertConfig("e01", CONSERVATIVE, 0.1, 1), ExpertConfig("e02", CONSERVATIVE, 0.1, 2)]
    result = collect("q", configs, backend)
    assert [o.expert_id for o in result.outputs] == ["e02"]
    assert [f.expert_id for f in result.failures] == ["e01"]
    assert "backend content is not JSON" in result.failures[0].error


def test_http_backend_maps_content_and_errors(monkeypatch):
    import io
    import json as _json
    import urllib.request

    from crosscheck.ensemble import HttpBackend

    def fake_urlopen(request, timeout=None):
        body = _json.loads(request.data.decode("utf-8"))
        assert body["messages"][0]["content"] == "q"
        content = _json.dumps([_trace()])
        payload = {"choices": [{"message": {"content": content}}]}
        return io.BytesIO(_json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    backend = HttpBackend(endpoint="http://backend.test/v1/chat", token="tok")
    config = ExpertConfig("e01", CONSERVATIVE, 0.1, 7)
    outputs = backend.sample(config, "q")
    assert outputs[0].response == number(42)

    def bad_content(request, timeout=None):
        payload = {"choices": [{"message": {"content": "not json"}}]}
        return io.BytesIO(_json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", bad_content)
    with pytest.raises(SchemaError):
        backend.sample(config, "q")


def test_http_backend_requires_endpoint(monkeypatch):
    from crosscheck.ensemble import ENDPOINT_ENV, HttpBackend

    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    with pytest.raises(BackendError):
        HttpBackend()


def test_parsed_steps_are_sorted_with_their_confidences():
    output = parse_expert_output("e01", {
        "steps": {"s2": {"value": 1, "confidence": 0.25}, "s1": {"value": 2, "confidence": 0.75}},
        "response": 1,
    })
    assert list(output.step_ids) == ["s1", "s2"]  # sorted at parse
    assert [(s, output.confidence_at(s)) for s in output.step_ids] == [("s1", 0.75), ("s2", 0.25)]


@pytest.mark.parametrize("value, message", [
    ({"kind": "number"}, r"^missing field 'value'"),
    ({"kind": "weird", "value": 1}, "unknown value kind"),
    ({"kind": "composite", "items": 5}, "^malformed trace value"),
    ({"kind": "quantity", "value": 3}, r"^missing field 'unit'"),
    ({"kind": "number", "value": 1, "unit": "m"}, r"^malformed trace value: a number value takes no key 'unit'"),
])
def test_bad_trace_value_is_schema_error(value, message):
    with pytest.raises(SchemaError, match=message):
        parse_expert_output("e01", _trace(value=value))
    with pytest.raises(SchemaError, match=message):
        parse_expert_output("e01", _trace(response=value))


class _TwoExpertBackend:
    """One expert's content holds an undecodable value; the other's a good trace."""

    def sample(self, config, query):
        raw = _trace(value={"kind": "number"}) if config.expert_id == "e01" else _trace()
        return [parse_expert_output(config.expert_id, raw)]


def test_collect_records_an_undecodable_value_as_that_experts_failure():
    configs = [ExpertConfig("e01", CONSERVATIVE, 0.1, 1), ExpertConfig("e02", CONSERVATIVE, 0.1, 2)]
    result = collect("q", configs, _TwoExpertBackend())
    assert [o.expert_id for o in result.outputs] == ["e02"]
    assert [f.expert_id for f in result.failures] == ["e01"]
    assert result.failures[0].error.startswith("missing field 'value'")


def test_http_backend_parses_its_content(monkeypatch):
    configs = [ExpertConfig("e01", CONSERVATIVE, 0.1, 1), ExpertConfig("e02", CONSERVATIVE, 0.1, 2)]
    good = _stub_http(monkeypatch, lambda body: [_trace(), _trace(value=17, response=17)])
    outputs = good.sample(configs[0], "q")
    assert [type(o) for o in outputs] == [ExpertOutput, ExpertOutput]
    assert [o.expert_id for o in outputs] == ["e01", "e01"]
    assert outputs[1].value_at("s1") == number(17)

    # The request carries the expert's seed; seed 1 gets an undecodable value.
    mixed = _stub_http(monkeypatch, lambda body: [_trace(value={"kind": "number"}) if body["seed"] == 1 else _trace()])
    with pytest.raises(SchemaError, match=r"^missing field 'value'"):
        mixed.sample(configs[0], "q")
    result = collect("q", configs, mixed)
    assert [o.expert_id for o in result.outputs] == ["e02"]
    assert [f.expert_id for f in result.failures] == ["e01"]

    not_a_list = _stub_http(monkeypatch, lambda body: _trace())
    with pytest.raises(SchemaError, match="must be a JSON list"):
        not_a_list.sample(configs[0], "q")


def test_importing_the_package_loads_no_http_stack():
    """Only ``HttpBackend.sample`` needs urllib, so a fresh ``import crosscheck`` leaves it unloaded."""
    src = Path(crosscheck.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import crosscheck; "
            "print([m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
