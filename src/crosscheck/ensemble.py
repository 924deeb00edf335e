"""Expert ensembles: diversified configs, trace sampling, tuple collection.

Experts share one pluggable backend and differ in their sampling
regime: each config names a role (conservative or radical), a
temperature and a seed. Low-temperature conservative experts anchor the
stable consensus; higher-temperature radical experts widen coverage and
make disagreements informative. The mix is the caller's choice; scenario
files carry their own expert configs.

Backends return validated :class:`ExpertOutput` tuples — intermediates
with confidences, an overall analysis, and a final response. Each trace is
parsed once, by :func:`parse_expert_output`, where its bytes enter the
program: the scenario loader parses scripted traces when it reads the
file, sharing one value object per distinct printed value across them,
and :class:`ScriptedBackend` replays those outputs on every run,
which is what every test in this repository runs against. The minimal
HTTP adapter for a chat-completion-style endpoint parses its response
content as it arrives; it is for live use and is tested only against a
stubbed transport.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

from .errors import AllExpertsFailedError, BackendError, InvalidPlanError, ParseError, SchemaError
from .plandag import StepResult
from .values import Value, format_literal, value_from_json

CONSERVATIVE = "conservative"
RADICAL = "radical"

# Confidences drift by a whisker when they round-trip through JSON; clamp
# within tolerance, reject anything genuinely out of range.
_CONFIDENCE_SLACK = 1e-9

ENDPOINT_ENV = "CROSSCHECK_BACKEND_URL"
TOKEN_ENV = "CROSSCHECK_BACKEND_TOKEN"


@dataclass(frozen=True)
class ExpertConfig:
    expert_id: str
    role: str
    temperature: float
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.expert_id, str) or not self.expert_id:
            raise InvalidPlanError(f"expert_id must be a nonempty string, got {self.expert_id!r}")
        if self.role not in (CONSERVATIVE, RADICAL):
            raise InvalidPlanError(f"unknown expert role {self.role!r}")
        t = self.temperature
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= t < math.inf:
            raise InvalidPlanError(f"temperature must be a finite number >= 0, got {t!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidPlanError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True, slots=True)
class ExpertOutput:
    """One expert trace: intermediates, confidences, analysis, response.

    A scenario's outputs are shared by every run of it, so nothing may
    mutate one; ``restricted_to`` builds a new output instead.
    """

    expert_id: str
    steps: dict[str, StepResult]
    analysis: str
    response: Value

    @property
    def confidences(self) -> dict[str, float]:
        return {step: res.confidence for step, res in self.steps.items()}

    def restricted_to(self, keep: set[str]) -> "ExpertOutput":
        """A fragment containing only the retained steps; shares StepResults."""
        kept = {s: r for s, r in self.steps.items() if s in keep}
        return ExpertOutput(self.expert_id, kept, self.analysis, self.response)


class ExpertBackend(Protocol):
    """Produces the validated traces of one expert config for a query.

    Malformed content raises SchemaError, a transport problem BackendError.
    """

    def sample(self, config: ExpertConfig, query: str) -> list[ExpertOutput]: ...


def _raw_key(obj: object) -> tuple | None:
    """A key on which equal keys mean one decoded value, for the explicit forms worth caching.

    A two-key form ``{"kind": k, "value": v}`` keys as ``(k, type(v), v)``,
    a three-key form with a string ``unit`` as ``(k, type(v), v, unit)``.
    Equal keys then mean equal forms: a form with as many keys that
    decodes holds exactly those. The payload's type is in the key, so
    ``1``, ``1.0`` and ``true`` key apart. Only ``int``, ``str``, ``bool``
    and nonzero ``float`` payloads get a key, since ``-0.0 == 0.0``; every
    other form gets None and is decoded each time.
    """
    if type(obj) is not dict:
        return None
    kind = obj.get("kind")
    payload = obj.get("value")
    payload_type = type(payload)
    if type(kind) is not str or not (payload_type is int or payload_type is str or payload_type is bool
                                     or (payload_type is float and payload)):
        return None
    size = len(obj)
    if size == 2:
        return (kind, payload_type, payload)
    unit = obj.get("unit")
    if size == 3 and type(unit) is str:
        return (kind, payload_type, payload, unit)
    return None


# The default of an absent provenance; a JSON document never holds this object.
_NO_PROVENANCE = object()


def parse_expert_output(expert_id: str, raw: dict, interned: dict[object, Value] | None = None) -> ExpertOutput:
    """Validate one raw trace payload into an ExpertOutput; SchemaError on violation.

    A value that does not decode is a SchemaError too, so ``collect``
    records that expert as failed instead of aborting.

    ``interned`` is a table that a caller keeps across the traces it
    parses. It maps each printed literal (``format_literal``) to a value,
    so each step value and the response is the table's object for its
    literal and equal values share one object. Values that print
    differently, such as ``-0.0`` and ``0.0`` or ``1`` and ``1.0``, stay
    distinct objects. The table also maps each raw form's key
    (``_raw_key``) to that object once the form has decoded, so a form
    seen again is neither decoded nor printed; a form that fails to decode
    is never entered.
    """
    if interned is None:
        decode = value_from_json
    else:
        def decode(obj: object) -> Value:
            key = _raw_key(obj)
            if key is not None:
                value = interned.get(key)
                if value is not None:
                    return value
            value = value_from_json(obj)
            value = interned.setdefault(format_literal(value), value)
            if key is not None:
                interned[key] = value
            return value
    if not isinstance(raw, dict):
        raise SchemaError(f"trace payload must be an object, got {type(raw).__name__}")
    steps_raw = raw.get("steps", {})
    if not isinstance(steps_raw, dict):
        raise SchemaError("trace 'steps' must be a map of step id to result")
    steps: dict[str, StepResult] = {}
    try:
        for step in sorted(steps_raw):
            entry = steps_raw[step]
            if not isinstance(entry, dict) or "value" not in entry:
                raise SchemaError(f"step {step!r} entry must be an object with a 'value'")
            confidence = entry.get("confidence", 1.0)
            if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
                raise SchemaError(f"step {step!r} confidence must be numeric")
            if -_CONFIDENCE_SLACK <= confidence < 0.0:
                confidence = 0.0
            elif 1.0 < confidence <= 1.0 + _CONFIDENCE_SLACK:
                confidence = 1.0
            if not 0.0 <= confidence <= 1.0:
                raise SchemaError(f"step {step!r} confidence {confidence!r} outside [0,1]")
            provenance = entry.get("provenance", _NO_PROVENANCE)
            if provenance is _NO_PROVENANCE:
                provenance = ()
            elif isinstance(provenance, list) and all(isinstance(p, str) for p in provenance):
                provenance = tuple(provenance)
            else:
                raise SchemaError(f"step {step!r} provenance must be a list of tool record ids")
            steps[step] = StepResult(decode(entry["value"]), float(confidence), provenance)
        if "response" not in raw:
            raise SchemaError("trace payload missing 'response'")
        response = decode(raw["response"])
    except KeyError as exc:
        raise SchemaError(f"missing field {exc} in a trace value") from exc
    except (TypeError, ParseError) as exc:
        raise SchemaError(f"malformed trace value: {exc}") from exc
    analysis = raw.get("analysis", "")
    if not isinstance(analysis, str):
        raise SchemaError("trace 'analysis' must be a string")
    return ExpertOutput(expert_id=expert_id, steps=steps, analysis=analysis, response=response)


def sample_traces(config: ExpertConfig, query: str, backend: ExpertBackend) -> list[ExpertOutput]:
    """Draw this expert's candidate traces; a backend that returns none has failed."""
    outputs = backend.sample(config, query)
    if not outputs:
        raise BackendError(f"backend returned no traces for expert {config.expert_id!r}")
    return outputs


@dataclass
class ExpertFailure:
    expert_id: str
    error: str


@dataclass
class CollectResult:
    outputs: list[ExpertOutput]
    failures: list[ExpertFailure] = field(default_factory=list)


def collect(query: str, configs: Sequence[ExpertConfig], backend: ExpertBackend) -> CollectResult:
    """Gather every expert's traces, in expert-id order.

    Individual backend failures are tolerated and reported alongside the
    survivors; the whole collection fails only when nobody answered.
    """
    if not configs:
        raise AllExpertsFailedError("no expert configs supplied")
    outputs: list[ExpertOutput] = []
    failures: list[ExpertFailure] = []
    for config in sorted(configs, key=lambda c: c.expert_id):
        try:
            outputs.extend(sample_traces(config, query, backend))
        except (BackendError, SchemaError) as exc:
            failures.append(ExpertFailure(config.expert_id, str(exc)))
    if not outputs:
        raise AllExpertsFailedError(
            "all experts failed: " + "; ".join(f"{f.expert_id}: {f.error}" for f in failures)
        )
    return CollectResult(outputs=outputs, failures=failures)


class ScriptedBackend:
    """Replays outputs parsed in advance, unchanged; concurrent-safe and exact."""

    def __init__(self, outputs_by_expert: Mapping[str, Sequence[ExpertOutput]], failing: set[str] | None = None) -> None:
        self._outputs = outputs_by_expert
        self._failing = failing or set()

    def sample(self, config: ExpertConfig, query: str) -> list[ExpertOutput]:
        if config.expert_id in self._failing:
            raise BackendError(f"scripted failure for expert {config.expert_id!r}")
        try:
            return list(self._outputs[config.expert_id])
        except KeyError:
            raise BackendError(f"no scripted traces for expert {config.expert_id!r}") from None


class HttpBackend:
    """Chat-completion-style JSON adapter.

    POSTs ``{model, messages, temperature, seed}`` to the endpoint named by
    ``CROSSCHECK_BACKEND_URL`` (bearer token from ``CROSSCHECK_BACKEND_TOKEN``)
    and expects the first choice's message content to be a JSON list of raw
    trace payloads in the same shape scenario files use, each parsed here.
    Transport problems surface as BackendError, malformed content as
    SchemaError. Live use only; no acceptance path depends on it.
    """

    def __init__(self, endpoint: str | None = None, token: str | None = None, model: str = "default", timeout: float = 60.0) -> None:
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV, "")
        self.model = model
        self.timeout = timeout
        if not self.endpoint:
            raise BackendError(f"no endpoint configured; set {ENDPOINT_ENV}")

    def sample(self, config: ExpertConfig, query: str) -> list[ExpertOutput]:
        # Imported here: only a live run needs them, and they are a third of ``import crosscheck``.
        import urllib.error
        import urllib.request

        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": query}],
            "temperature": config.temperature,
            "seed": config.seed,
        }).encode("utf-8")
        request = urllib.request.Request(self.endpoint, data=body, method="POST")
        request.add_header("Content-Type", "application/json")
        if self.token:
            request.add_header("Authorization", f"Bearer {self.token}")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError, RecursionError) as exc:  # undecodable bytes or JSON
            raise BackendError(f"backend transport failure: {exc}") from exc
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise SchemaError(f"backend response missing choices[0].message.content: {exc}") from exc
        try:
            traces = json.loads(content)
        except (TypeError, ValueError, RecursionError) as exc:  # not a string, not JSON, an overlong int, deep nesting
            raise SchemaError(f"backend content is not JSON: {exc}") from exc
        if not isinstance(traces, list):
            raise SchemaError("backend content must be a JSON list of trace payloads")
        return [parse_expert_output(config.expert_id, raw) for raw in traces]
