"""Expert ensembles: diversified configs, trace sampling, tuple collection.

Experts share one pluggable backend and differ in their sampling
regime: each config names a role (conservative or radical), a
temperature and a seed. Low-temperature conservative experts anchor the
stable consensus; higher-temperature radical experts widen coverage and
make disagreements informative. The mix is the caller's choice; scenario
files carry their own expert configs.

Backends return raw trace payloads (JSON-shaped dicts); this module is the
schema boundary that turns them into validated :class:`ExpertOutput`
tuples — intermediates with confidences, an overall analysis, and a final
response. Scripted backends replay scenario-specified traces verbatim,
which is what every test in this repository runs against. A minimal HTTP
adapter for a chat-completion-style endpoint is provided for live use and
is exercised nowhere in the test suite.
"""

from __future__ import annotations

import json
import math
import os
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .errors import AllExpertsFailedError, BackendError, InvalidPlanError, ParseError, SchemaError
from .plandag import StepResult
from .values import Value, value_from_json

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


@dataclass(frozen=True)
class ExpertOutput:
    """One expert trace: intermediates, confidences, analysis, response."""

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
    """Produces raw trace payloads for one expert config and query."""

    def sample(self, config: ExpertConfig, query: str) -> list[dict]: ...


def parse_expert_output(expert_id: str, raw: dict) -> ExpertOutput:
    """Validate one raw trace payload into an ExpertOutput; SchemaError on violation.

    A value that does not decode is a SchemaError too, so ``collect``
    records that expert as failed instead of aborting.
    """
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
            provenance = entry.get("provenance", [])
            if not isinstance(provenance, list) or not all(isinstance(p, str) for p in provenance):
                raise SchemaError(f"step {step!r} provenance must be a list of tool record ids")
            steps[step] = StepResult(
                step=step,
                value=value_from_json(entry["value"]),
                confidence=float(confidence),
                provenance=tuple(provenance),
            )
        if "response" not in raw:
            raise SchemaError("trace payload missing 'response'")
        response = value_from_json(raw["response"])
    except KeyError as exc:
        raise SchemaError(f"missing field {exc} in a trace value") from exc
    except (TypeError, ParseError) as exc:
        raise SchemaError(f"malformed trace value: {exc}") from exc
    analysis = raw.get("analysis", "")
    if not isinstance(analysis, str):
        raise SchemaError("trace 'analysis' must be a string")
    return ExpertOutput(expert_id=expert_id, steps=steps, analysis=analysis, response=response)


def sample_traces(config: ExpertConfig, query: str, backend: ExpertBackend) -> list[ExpertOutput]:
    """Draw this expert's candidate traces and validate each against the schema."""
    raw_traces = backend.sample(config, query)
    if not raw_traces:
        raise BackendError(f"backend returned no traces for expert {config.expert_id!r}")
    return [parse_expert_output(config.expert_id, raw) for raw in raw_traces]


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
    """Replays scenario-specified traces verbatim; concurrent-safe and exact."""

    def __init__(self, traces_by_expert: dict[str, list[dict]], failing: set[str] | None = None) -> None:
        self._traces = traces_by_expert
        self._failing = failing or set()

    def sample(self, config: ExpertConfig, query: str) -> list[dict]:
        if config.expert_id in self._failing:
            raise BackendError(f"scripted failure for expert {config.expert_id!r}")
        try:
            return self._traces[config.expert_id]
        except KeyError:
            raise BackendError(f"no scripted traces for expert {config.expert_id!r}") from None


class HttpBackend:
    """Chat-completion-style JSON adapter.

    POSTs ``{model, messages, temperature, seed}`` to the endpoint named by
    ``CROSSCHECK_BACKEND_URL`` (bearer token from ``CROSSCHECK_BACKEND_TOKEN``)
    and expects the first choice's message content to be a JSON list of raw
    trace payloads in the same shape scenario files use. Transport problems
    surface as BackendError, malformed content as SchemaError. Live use
    only; no acceptance path depends on it.
    """

    def __init__(self, endpoint: str | None = None, token: str | None = None, model: str = "default", timeout: float = 60.0) -> None:
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV, "")
        self.model = model
        self.timeout = timeout
        if not self.endpoint:
            raise BackendError(f"no endpoint configured; set {ENDPOINT_ENV}")

    def sample(self, config: ExpertConfig, query: str) -> list[dict]:
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
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise BackendError(f"backend transport failure: {exc}") from exc
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise SchemaError(f"backend response missing choices[0].message.content: {exc}") from exc
        try:
            traces = json.loads(content)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"backend content is not JSON: {exc}") from exc
        if not isinstance(traces, list):
            raise SchemaError("backend content must be a JSON list of trace payloads")
        return traces
