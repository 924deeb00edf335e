from __future__ import annotations

import pytest

from crosscheck.ensemble import (
    CONSERVATIVE,
    ExpertConfig,
    ScriptedBackend,
    collect,
    parse_expert_output,
    sample_traces,
)
from crosscheck.errors import AllExpertsFailedError, BackendError, SchemaError
from crosscheck.values import number


def _trace(value=42, confidence=0.9, response=42):
    return {
        "steps": {"s1": {"value": value, "confidence": confidence}},
        "analysis": "scripted",
        "response": response,
    }


def test_scripted_passthrough():
    config = ExpertConfig("e01", CONSERVATIVE, 0.1, 7)
    backend = ScriptedBackend({"e01": [_trace(), _trace(value=17, response=17)]})
    outputs = sample_traces(config, "q", backend)
    assert len(outputs) == 2
    assert outputs[0].steps["s1"].value == number(42)
    assert outputs[1].response == number(17)


def test_out_of_range_confidence_is_schema_error():
    config = ExpertConfig("e01", CONSERVATIVE, 0.1, 7)
    backend = ScriptedBackend({"e01": [_trace(confidence=1.3)]})
    with pytest.raises(SchemaError):
        sample_traces(config, "q", backend)


def test_float_drift_confidence_is_clamped():
    output = parse_expert_output("e01", _trace(confidence=1.0 + 1e-12))
    assert output.steps["s1"].confidence == 1.0


def test_missing_response_is_schema_error():
    with pytest.raises(SchemaError):
        parse_expert_output("e01", {"steps": {}, "analysis": ""})


def test_scripted_determinism():
    config = ExpertConfig("e01", CONSERVATIVE, 0.1, 7)
    backend = ScriptedBackend({"e01": [_trace()]})
    assert sample_traces(config, "q", backend) == sample_traces(config, "q", backend)


def _configs(*ids):
    return [ExpertConfig(i, CONSERVATIVE, 0.1, 0) for i in ids]


def test_collect_orders_by_expert_id():
    backend = ScriptedBackend({i: [_trace(response=n)] for n, i in enumerate(["e02", "e01", "e03"])})
    result = collect("q", _configs("e02", "e01", "e03"), backend)
    assert [o.expert_id for o in result.outputs] == ["e01", "e02", "e03"]
    assert result.failures == []


def test_collect_tolerates_partial_failure():
    backend = ScriptedBackend({"e01": [_trace()], "e03": [_trace()]}, failing={"e02"})
    result = collect("q", _configs("e01", "e02", "e03"), backend)
    assert [o.expert_id for o in result.outputs] == ["e01", "e03"]
    assert [f.expert_id for f in result.failures] == ["e02"]


def test_collect_all_failed():
    backend = ScriptedBackend({}, failing={"e01", "e02"})
    with pytest.raises(AllExpertsFailedError):
        collect("q", _configs("e01", "e02"), backend)


def test_unscripted_expert_is_backend_error():
    backend = ScriptedBackend({})
    with pytest.raises(BackendError):
        sample_traces(ExpertConfig("e09", CONSERVATIVE, 0.1, 0), "q", backend)


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
    outputs = sample_traces(config, "q", backend)
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


def test_confidences_view_matches_steps():
    output = parse_expert_output("e01", {
        "steps": {"s2": {"value": 1, "confidence": 0.25}, "s1": {"value": 2, "confidence": 0.75}},
        "response": 1,
    })
    assert output.confidences == {"s1": 0.75, "s2": 0.25}
    assert list(output.steps) == ["s1", "s2"]  # sorted at parse


@pytest.mark.parametrize("value, message", [
    ({"kind": "number"}, r"^missing field 'value'"),
    ({"kind": "weird", "value": 1}, "unknown value kind"),
    ({"kind": "composite", "items": 5}, "^malformed trace value"),
    ({"kind": "quantity", "value": 3}, r"^missing field 'unit'"),
])
def test_bad_trace_value_is_schema_error(value, message):
    with pytest.raises(SchemaError, match=message):
        parse_expert_output("e01", _trace(value=value))
    with pytest.raises(SchemaError, match=message):
        parse_expert_output("e01", _trace(response=value))


class _TwoExpertBackend:
    """One expert returns an undecodable value; the other a good trace."""

    def sample(self, config, query):
        if config.expert_id == "e01":
            return [_trace(value={"kind": "number"})]
        return [_trace()]


def test_collect_records_an_undecodable_value_as_that_experts_failure():
    configs = [ExpertConfig("e01", CONSERVATIVE, 0.1, 1), ExpertConfig("e02", CONSERVATIVE, 0.1, 2)]
    result = collect("q", configs, _TwoExpertBackend())
    assert [o.expert_id for o in result.outputs] == ["e02"]
    assert [f.expert_id for f in result.failures] == ["e01"]
    assert result.failures[0].error.startswith("missing field 'value'")
