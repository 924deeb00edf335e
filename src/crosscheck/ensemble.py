"""Expert ensembles: diversified configs, trace sampling, tuple collection.

Experts share one pluggable backend and differ in their sampling
regime: each config names a role (conservative or radical), a
temperature and a seed. Low-temperature conservative experts anchor the
stable consensus; higher-temperature radical experts widen coverage and
make disagreements informative. The mix is the caller's choice; scenario
files carry their own expert configs.

Backends return validated :class:`ExpertOutput` tuples — intermediates
with confidences, and a final response; a trace's free-text analysis is
checked to be a string and not kept, since nothing reads it. Each trace is
parsed once, by :func:`parse_expert_output`, where its bytes enter the
program; that parse is the one validated way to build a trace. It is
held as columns, its only form, rather than one object per statement:
its step ids in sorted order, each mapped to a column, a tuple of the
step values and an ``array('d')`` of the confidences, about 16 bytes per
statement. The scenario loader parses scripted traces when it reads the
file, sharing one value object per distinct printed value across them,
and one step-to-column dict across the traces with the same step set;
:class:`ScriptedBackend` replays those outputs on every run,
which is what every test in this repository runs against. The minimal
HTTP adapter for a chat-completion-style endpoint parses its response
content as it arrives; it is for live use and is tested only against a
stubbed transport.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import dataclass, field
from itertools import compress
from types import MappingProxyType
from typing import AbstractSet, Any, Callable, KeysView, Mapping, NamedTuple, Protocol, Sequence

from .errors import AllExpertsFailedError, BackendError, InvalidPlanError, ParseError, SchemaError
from .values import Value, _exact_key, format_literal, shared_text, sum_in_order, value_from_json, values_equal

CONSERVATIVE = "conservative"
RADICAL = "radical"

# Confidences drift by a whisker when they round-trip through JSON; clamp
# within tolerance, reject anything genuinely out of range.
_CONFIDENCE_SLACK = 1e-9

ENDPOINT_ENV = "CROSSCHECK_BACKEND_URL"
TOKEN_ENV = "CROSSCHECK_BACKEND_TOKEN"


@dataclass(frozen=True, slots=True)
class ExpertConfig:
    """One expert's sampling regime; a checked id and role, held as shared strings.

    Once checked, the role is the module's constant for it and an id that
    is exactly a ``str`` is the interpreter's one object for its text, so a
    scenario of thousands of experts holds two role words and one string per
    distinct id.
    """

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
        object.__setattr__(self, "expert_id", shared_text(self.expert_id))
        object.__setattr__(self, "role", CONSERVATIVE if self.role == CONSERVATIVE else RADICAL)


# The provenance of a trace whose steps cite no tool records.
_NO_PROVENANCE_STEPS: Mapping[str, tuple[str, ...]] = MappingProxyType({})


@dataclass(frozen=True, slots=True, eq=False)
class ExpertOutput:
    """One expert trace: intermediates, confidences, response.

    The trace is held as columns, not as one object per statement.
    ``_positions`` maps each step id, in trace order, to its column in
    ``_values`` and ``_confidences`` (an ``array('d')``); ``_provenance``
    maps only the steps that cite tool records to their ids. Columns
    ascend in trace order: a parsed trace numbers its steps from 0 in
    order, and a fragment keeps a subsequence of them. A loaded scenario
    shares one ``_positions`` dict among all its traces with the same
    step set.

    :func:`parse_expert_output` is the one validated way to build a
    trace; the constructor takes the columns as they are and checks
    nothing. A scenario's outputs are shared by every run of it, so
    nothing may mutate one: the columns are private, nothing here writes
    to them, and ``restricted_to`` builds a new output that shares its
    source's columns. Outputs compare by identity.
    """

    expert_id: str
    response: Value
    _positions: Mapping[str, int] = field(repr=False)
    _values: tuple[Value, ...] = field(repr=False)
    _confidences: array = field(repr=False)
    _provenance: Mapping[str, tuple[str, ...]] = field(repr=False)

    @property
    def step_ids(self) -> KeysView[str]:
        """The trace's step ids in trace order; a set-like view with O(1) membership."""
        return self._positions.keys()

    def value_at(self, step: str) -> Value:
        """The value asserted at ``step``; KeyError where the trace lacks it."""
        return self._values[self._positions[step]]

    def confidence_at(self, step: str) -> float:
        """The confidence at ``step``; KeyError where the trace lacks it."""
        return self._confidences[self._positions[step]]

    def mean_confidence(self, skip: AbstractSet[str] = frozenset()) -> float:
        """The mean confidence of the trace's steps outside ``skip``; 0.0 where none is left.

        The confidences are added left to right in trace order
        (``values.sum_in_order``), so a logged mean has the same last digit
        on every supported interpreter.
        """
        column = confidences = self._confidences
        if skip or len(self._positions) != len(self._values):
            confidences = [column[col] for step, col in self._positions.items() if step not in skip]
        return sum_in_order(confidences) / len(confidences) if confidences else 0.0

    def provenance(self, step: str) -> tuple[str, ...]:
        """The tool record ids behind ``step``; empty where the trace cites none or lacks the step."""
        return self._provenance.get(step, ()) if step in self._positions else ()

    def restricted_to(self, keep: AbstractSet[str]) -> "ExpertOutput":
        """A fragment containing only the retained steps; shares this output's columns."""
        return ExpertOutput(self.expert_id, self.response, {s: col for s, col in self._positions.items() if s in keep},
                            self._values, self._confidences, self._provenance)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_bytes(mask: int) -> bytes:
    """Bit ``p`` of ``mask`` as byte ``p``, 0 or 1, up to its highest set bit: selectors for ``itertools.compress``."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class StatementIndex(NamedTuple):
    """Which outputs assert which value at each step, and which of a step's values are equal.

    Bit ``p`` of a mask stands for ``outputs[p]``, of expert ``experts[p]``.
    At each of ``steps`` (sorted), the statements of one value object form
    a class; a value without an exact key (``values._exact_key``: a NaN,
    an ill-typed payload) is a class of its own at every statement.
    ``reps`` holds each class's value, step after step, and ``equal`` the
    mask of its step's classes whose values are ``values_equal`` to it;
    ``holders[j]`` packs the holder masks of ``steps[j]``'s classes,
    ``len(outputs)`` bits each from the lowest. ``distinct`` says that
    expert ids strictly ascend with position, as in collect order where
    each expert has one output, so a mask's bits are distinct experts in
    order. Runs only read the index.
    """

    outputs: tuple[ExpertOutput, ...]
    steps: tuple[str, ...]
    reps: tuple[Value, ...]
    holders: tuple[int, ...]
    equal: bytes | tuple[int, ...]
    experts: tuple[str, ...]
    distinct: bool

    def supporters(self, mask: int) -> tuple[str, ...]:
        """The distinct experts of the outputs in ``mask``, sorted."""
        # A list first: ``tuple()`` of an iterator resizes its tuple, which leaves CPython spare tuples for good.
        experts = [*compress(self.experts, mask_bytes(mask))]
        return tuple(experts) if self.distinct else tuple(sorted(set(experts)))


def index_statements(outputs: Sequence[ExpertOutput]) -> StatementIndex:
    """Class every statement of ``outputs`` once, and compare each unordered pair of a step's classes once.

    A value object is checked for an exact key once per step. A class
    with a key equals itself without a call: equal keys mean
    interchangeable values.
    """
    by_step: dict[str, dict[int, int]] = {}  # step -> id() of a value -> the mask of its holders
    layouts: dict[int, list[dict[int, int]]] = {}  # id() of a step order -> its steps' entries in by_step
    bit = 1
    for output in outputs:
        columns = layouts.get(id(output._positions))
        if columns is None:
            columns = layouts[id(output._positions)] = [by_step.setdefault(step, {}) for step in output.step_ids]
        # Columns ascend in trace order (see ExpertOutput), so an output that holds every column holds them in order.
        values = output._values
        if len(columns) != len(values):
            values = map(values.__getitem__, output._positions.values())
        for classes, key in zip(columns, map(id, values)):
            classes[key] = classes.get(key, 0) | bit
        bit <<= 1
    width, steps = len(outputs), sorted(by_step)
    reps: list[Value] = []
    equal: list[int] = []
    packed: list[int] = []
    for step in steps:
        first = len(reps)
        shift = holders = 0
        for mask in by_step[step].values():
            value = outputs[mask.bit_length() - 1].value_at(step)
            keyed = _exact_key(value) is not None  # else each of its statements is a class of its own
            own = keyed or values_equal(value, value)
            for held in [mask] if keyed else [1 << p for p in range(mask.bit_length()) if mask >> p & 1]:
                equal.append(own << len(reps) - first)
                reps.append(value)
                holders |= held << shift
                shift += width
        for a in range(first + 1, len(reps)):
            for b in range(first, a):
                if values_equal(reps[a], reps[b]):
                    equal[a] |= 1 << b - first
                    equal[b] |= 1 << a - first
        packed.append(holders)
    experts = tuple([output.expert_id for output in outputs])
    # A step of at most eight classes has rows below 256, so its rows fit in bytes.
    return StatementIndex(tuple(outputs), tuple(steps), tuple(reps), tuple(packed),
                          bytes(equal) if max(equal, default=0) < 256 else tuple(equal), experts,
                          experts == tuple(sorted(set(experts))))


class ExpertBackend(Protocol):
    """Produces the validated traces of one expert config for a query.

    Malformed content raises SchemaError, a transport problem BackendError.
    """

    def sample(self, config: ExpertConfig, query: str) -> list[ExpertOutput]: ...


def interned_decoder(interned: dict[object, Any]) -> Callable[[object], Value]:
    """``value_from_json`` through a load's intern table (see :func:`parse_expert_output`).

    The decoded value is the table's object for its printed literal. A
    raw form ``{"kind": k, "value": v}`` keys as ``(k, type(v), v)``, one
    with a string ``unit`` too as ``(k, type(v), v, unit)``, and is decoded
    only when first seen. The payload's type is in the key, so ``1``,
    ``1.0`` and ``true`` key apart. Only ``int``, ``str``, ``bool`` and
    nonzero ``float`` payloads get a key, since ``-0.0 == 0.0``.
    """
    def decode(obj: object) -> Value:
        key = None  # the form's key, inline: this runs once per value a load reads
        if type(obj) is dict:
            kind, payload = obj.get("kind"), obj.get("value")
            payload_type = type(payload)
            if type(kind) is str and (payload_type is int or payload_type is str or payload_type is bool
                                      or (payload_type is float and payload)):
                if len(obj) == 2:
                    key = (kind, payload_type, payload)
                elif len(obj) == 3 and type(obj.get("unit")) is str:
                    key = (kind, payload_type, payload, obj["unit"])
        if key is not None:
            value = interned.get(key)
            if value is not None:
                return value
        value = value_from_json(obj)
        value = interned.setdefault(format_literal(value), value)
        if key is not None:
            interned[key] = value
        return value

    return decode


# The default of an absent provenance; a JSON document never holds this object.
_NO_PROVENANCE = object()


def parse_expert_output(expert_id: str, raw: dict, interned: dict[object, Any] | None = None) -> ExpertOutput:
    """Validate one raw trace payload into an ExpertOutput; SchemaError on violation.

    A value that does not decode is a SchemaError too, so ``collect``
    records that expert as failed instead of aborting. The steps are kept
    in sorted order.

    ``interned`` is a table that a caller keeps across the traces it
    parses. It maps each printed literal (``format_literal``) to a value,
    so each step value and the response is the table's object for its
    literal and equal values share one object. Values that print
    differently, such as ``-0.0`` and ``0.0`` or ``1`` and ``1.0``, stay
    distinct objects. The table also maps each raw form's key
    (``interned_decoder``) to that object once the form has decoded, so a form
    seen again is neither decoded nor printed; a form that fails to decode
    is never entered. And it maps each sorted tuple of step ids to the
    step-to-column dict of the traces with that step set, so they share
    one; its step ids are shared strings (``values.shared_text``), as the
    loader's other step ids are. None of these keys can equal another: a
    literal is a string, a raw form's key holds a type, and a step tuple
    holds only strings.
    """
    decode = value_from_json if interned is None else interned_decoder(interned)
    if not isinstance(raw, dict):
        raise SchemaError(f"trace payload must be an object, got {type(raw).__name__}")
    steps_raw = raw.get("steps", {})
    if not isinstance(steps_raw, dict):
        raise SchemaError("trace 'steps' must be a map of step id to result")
    values: list[Value] = []
    confidences: list[float] = []
    provenance_by_step: dict[str, tuple[str, ...]] = {}
    try:
        order = tuple(sorted(steps_raw))
        for step in order:
            entry = steps_raw[step]
            if not isinstance(entry, dict) or "value" not in entry:
                raise SchemaError(f"step {step!r} entry must be an object with a 'value'")
            confidence = entry.get("confidence", 1.0)
            if type(confidence) is not float or not 0.0 <= confidence <= 1.0:  # a float in range is kept as it is
                if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
                    raise SchemaError(f"step {step!r} confidence must be numeric")
                if -_CONFIDENCE_SLACK <= confidence < 0.0:
                    confidence = 0.0
                elif 1.0 < confidence <= 1.0 + _CONFIDENCE_SLACK:
                    confidence = 1.0
                if not 0.0 <= confidence <= 1.0:
                    raise SchemaError(f"step {step!r} confidence {confidence!r} outside [0,1]")
            provenance = entry.get("provenance", _NO_PROVENANCE)
            if provenance is not _NO_PROVENANCE:
                if not isinstance(provenance, list) or not all(isinstance(p, str) for p in provenance):
                    raise SchemaError(f"step {step!r} provenance must be a list of tool record ids")
                if provenance:
                    provenance_by_step[step] = tuple(provenance)
            values.append(decode(entry["value"]))
            confidences.append(confidence)
        if "response" not in raw:
            raise SchemaError("trace payload missing 'response'")
        response = decode(raw["response"])
    except KeyError as exc:
        raise SchemaError(f"missing field {exc} in a trace value") from exc
    except (TypeError, ParseError) as exc:
        raise SchemaError(f"malformed trace value: {exc}") from exc
    if not isinstance(raw.get("analysis", ""), str):
        raise SchemaError("trace 'analysis' must be a string")
    positions = interned.get(order) if interned is not None else None
    if positions is None:
        positions = {shared_text(step): col for col, step in enumerate(order)}
        if interned is not None:
            interned[order] = positions
    return ExpertOutput(expert_id, response, positions, tuple(values), array("d", confidences),
                        provenance_by_step or _NO_PROVENANCE_STEPS)


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

    Individual backend failures, returning no traces among them, are
    tolerated and reported alongside the survivors; the whole collection
    fails only when nobody answered.
    """
    if not configs:
        raise AllExpertsFailedError("no expert configs supplied")
    outputs: list[ExpertOutput] = []
    failures: list[ExpertFailure] = []
    for config in sorted(configs, key=lambda c: c.expert_id):
        try:
            sampled = backend.sample(config, query)
            if not sampled:
                raise BackendError(f"backend returned no traces for expert {config.expert_id!r}")
            outputs.extend(sampled)
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
