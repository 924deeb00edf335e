"""Scenario files: the hermetic, replayable unit of work.

A scenario bundles everything one run needs — the query, the step DAG,
serializable constraints, scripted expert traces, a verdict table for the
scripted falsifier, scripted tool outcomes for cross-execution, optional
ground truth, and optional seed records for the facts store. One scenario
per JSON file; a corpus is a directory of them, ordered by filename.

Loading validates every cross-reference (trace steps, verdict-table keys,
oracle keys, facts provenance) so a scenario that loads is a scenario
that runs. It is also the one decode boundary: each field is decoded
here, once, and runs read only what it yields. Traces become
:class:`ExpertOutput` objects that every run replays through
:class:`ScriptedBackend`, with one value object per distinct printed
value (``format_literal``) across all of them; the verdict table
becomes the scripted operator's entries; tool scripts are keyed by the
canonical invocation key (:func:`facts.params_key`), so a key's spacing
and params order do not matter, but two keys naming one invocation are
rejected; seed records become frozen store entries. The fields as
written are kept, as ``marshal`` blobs, only to save the scenario again,
byte for byte: ``load(save(load(path)))`` is structurally identical to
``load(path)``.

A load holds each repeated thing once. Every id it keeps, once the id
has passed its check, is passed through ``values.shared_text``: DAG
steps and edges, trace step keys, oracle truth keys, verdict steps,
facts keys, constraint step patterns and expert ids. So equal ids are one object within a scenario and across
scenarios. An id that is not exactly a ``str`` is kept as it is and
loads or fails as it would unshared. Closed-vocabulary words (expert
role, constraint scope, fact category and status, verdict) are the
module constants. The oracle's values and the tool outcomes decode
through the load's intern table, and a verdict-table key whose text
after ``|`` is a literal that table holds takes its value from it; only
other keys are parsed (``parse_statement_key``), so a non-canonical
spelling such as ``num:1.00`` still reads as it always did. The DAG
keeps its edges once, and the per-expert records are slotted.

Loading is cheap for its size in two ways. :func:`load_scenario` pauses
the cyclic garbage collector while it decodes one file, and restores the
state it found, whether the load succeeds or raises. Everything it builds
is acyclic, so no collection could free any of it, yet loading the
``wide`` benchmark inputs used to run about a thousand collections over
the growing heap. And the load's intern table also maps each explicit
raw value form (``{"kind": ..., "value": ...}``, plus ``"unit"`` for a
quantity) with an int, str, bool or nonzero float payload to the value
it decoded to, so only the first sighting of each distinct form is
decoded and printed. On the ``wide`` benchmark inputs that serves nine
of ten trace values.
"""

from __future__ import annotations

import gc
import json
import marshal
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

from .ensemble import (CONSERVATIVE, ExpertConfig, ExpertOutput, ScriptedBackend, StatementIndex, index_statements,
                       interned_decoder, parse_expert_output)
from .errors import CrosscheckError, ParseError, UnknownIdError, ValidationError
from .facts import Fact, FactStore, Note, ToolRecord, decode_record, params_key
from .plandag import PlanDag
from .values import Value, parse_statement_key, shared_text, value_to_json
from .verifiers import RESPONSE_KEY, VERDICTS, Constraint, OperatorRegistry, constraint_from_spec, default_registry


@dataclass(frozen=True, slots=True)
class ScriptedExpert:
    """One scripted expert: its traces parsed at load, and their saved form.

    ``outputs`` is what every run replays. The traces as written (shorthand
    values, key order) matter only when the scenario is saved again, so
    they are kept as one ``marshal`` blob, far smaller than the dicts it
    encodes; it never leaves memory.

    A file can hold thousands of experts, so the record is slotted, and
    what it holds is shared: its config's id and role are the load's
    shared strings, and its outputs' values and step orders are the load's
    one object per printed value and per step set.
    """

    config: ExpertConfig
    outputs: tuple[ExpertOutput, ...]
    saved_traces: bytes
    fail: bool = False

    @property
    def raw_traces(self) -> tuple[dict, ...]:
        """The traces as written, decoded afresh on every read."""
        return marshal.loads(self.saved_traces)


@dataclass(frozen=True)
class Oracle:
    """Ground truth for synthetic evaluation; answer mandatory, truth may be partial."""

    answer: Value
    truth: dict[str, Value] = field(default_factory=dict)


@dataclass
class Scenario:
    query: str
    dag: PlanDag
    experts: tuple[ScriptedExpert, ...]
    constraints: tuple[Constraint, ...]
    verdicts: tuple[tuple[str, Value, str], ...]
    tool_outcomes: MappingProxyType[str, Value]
    oracle: Oracle | None
    facts_seed: tuple[ToolRecord | Note | Fact, ...]
    saved_fields: bytes
    name: str
    # Over ``scenario_expert_outputs``, in the order every run collects them; runs only read it.
    statement_index: StatementIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.statement_index = index_statements(scenario_expert_outputs(self))

    def expert_configs(self) -> list[ExpertConfig]:
        return [e.config for e in self.experts]

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend(
            {e.config.expert_id: e.outputs for e in self.experts},
            failing={e.config.expert_id for e in self.experts if e.fail},
        )

    def registry(self, facts: FactStore) -> OperatorRegistry:
        """This run's operators, over the run's store (for tool records)."""
        # An empty table registers no scripted operator: it could only cost an invocation.
        return default_registry(facts, self.tool_runner(), self.verdicts or None)

    def tool_runner(self) -> Callable[[str, dict], Value]:
        def run_tool(tool_name: str, params: dict) -> Value:
            key = params_key(tool_name, params)
            try:
                return self.tool_outcomes[key]
            except KeyError:
                raise UnknownIdError(f"no scripted outcome for {key!r}") from None

        return run_tool


# What reading untrusted input raises when a key is missing, a value has
# the wrong type or JSON nests too deep to decode, plus the typed errors
# the builders raise themselves.
_REJECTED = (CrosscheckError, KeyError, TypeError, AttributeError, ValueError, RecursionError)


def _marshal(value: object) -> bytes:
    """Plain JSON data as ``marshal`` bytes; loading them back gives a copy that shares nothing."""
    try:
        return marshal.dumps(value)
    except ValueError:
        raise ValidationError("must hold plain JSON values only (no dict subclasses or objects)") from None


_NOUNS = {dict: "an object", list: "a list", str: "a string"}


def _expect(value: object, kind: type):
    if not isinstance(value, kind):
        raise TypeError(f"must be {_NOUNS[kind]}, got {type(value).__name__}")
    return value


def _statement(key: str, interned: Mapping[object, object]) -> tuple[str, Value]:
    """``parse_statement_key(key)``, taking the value from the load's intern table where it holds the literal.

    The table maps each literal that a value decoded at this load prints
    to (``format_literal``) to that value, which is the value the literal
    parses to. Any other literal, a non-canonical spelling such as
    ``num:1.00`` or a malformed one alike, and any key that is not
    exactly a ``str``, is parsed, so it loads or fails as it would
    without the table.
    """
    if type(key) is str:
        step, _, literal = key.partition("|")
        value = interned.get(literal)
        if step and value is not None:
            return step, value  # type: ignore[return-value]
    return parse_statement_key(key)


def scenario_from_dict(obj: dict, name: str = "") -> Scenario:
    """Build and fully validate a scenario; every dangling reference is named.

    A scenario file is untrusted input: a missing key or a wrong type
    surfaces as KeyError, TypeError, AttributeError or ValueError in the
    code that reads it. One boundary around the build turns each rejection
    into a ValidationError naming the field ``at`` marks as being read.
    Marking is a plain assignment, so a valid file pays nothing for it; a
    context manager per expert and trace would add two calls to each.
    """
    if not isinstance(obj, dict):
        raise ParseError("scenario must be a JSON object")
    at: tuple = ("query", None)
    try:
        query = _expect(obj.get("query", ""), str)
        at = ("name", None)
        saved_name = _expect(obj.get("name", ""), str)
        at = ("dag", None)
        dag_obj = _expect(obj["dag"], dict)
        steps = []
        for step in _expect(dag_obj.get("steps", []), list):
            if not isinstance(step, str) or "|" in step:
                raise ValidationError(f"step ids must be strings without '|', got {step!r}")
            if step == RESPONSE_KEY:  # its facts would also gate every final answer
                raise ValidationError(f"step id {step!r} is reserved for the response's facts")
            steps.append(shared_text(step))
        at = ("dag.edges", None)
        edges = []
        for edge in _expect(dag_obj.get("edges", []), list):
            if not isinstance(edge, list) or len(edge) != 2 or not all(isinstance(step, str) for step in edge):
                raise ValidationError(f"an edge must be a list of two step ids, got {edge!r}")
            edges.append((shared_text(edge[0]), shared_text(edge[1])))
        at = ("dag", None)
        dag = PlanDag(steps, edges)
        known_steps = frozenset(dag.steps)

        at = ("constraints", None)
        specs = _expect(obj.get("constraints", []), list)
        constraints = []
        for c_idx, spec in enumerate(specs):
            at = ("constraints", c_idx)
            constraints.append(constraint_from_spec(spec))

        at = ("experts", None)
        experts = []
        seen_ids: set[str] = set()
        # One object per distinct printed value across the whole file; the table ends with the load.
        interned: dict[object, object] = {}
        decode = interned_decoder(interned)
        for e_idx, block in enumerate(_expect(obj.get("experts", []), list)):
            at = ("experts", e_idx)
            config = ExpertConfig(
                expert_id=_expect(block, dict).get("expert_id", ""),
                role=block.get("class", CONSERVATIVE),
                temperature=block.get("temperature", 0.1),
                seed=block.get("seed", 0),
            )
            expert_id = config.expert_id
            if expert_id in seen_ids:
                raise ValidationError(f"duplicate expert_id {expert_id!r}")
            seen_ids.add(expert_id)
            fail = block.get("fail", False)
            if type(fail) is not bool:
                raise ValidationError(f"'fail' must be a bool, got {fail!r}")
            raw_traces = tuple(block.get("traces", []))
            if not raw_traces and not fail:
                raise ValidationError(f"expert {expert_id!r} has no traces and is not marked failing")
            outputs = []
            for t_idx, raw in enumerate(raw_traces):
                at = (f"experts[{e_idx}].traces", t_idx)
                output = parse_expert_output(expert_id, raw, interned)
                if not output.step_ids <= known_steps:
                    raise ValidationError(f"references unknown step {min(output.step_ids - known_steps)!r}")
                outputs.append(output)
            at = (f"experts[{e_idx}].traces", None)
            experts.append(ScriptedExpert(config=config, outputs=tuple(outputs), saved_traces=_marshal(raw_traces),
                                          fail=fail))
        if not experts:
            raise ValidationError("scenario needs at least one expert")

        at = ("verdict_table", None)
        verdict_table = _expect(obj.get("verdict_table", {}), dict)
        verdicts = []
        for key, verdict in sorted(verdict_table.items()):
            at = ("verdict_table", key)
            if verdict not in VERDICTS:
                raise ValidationError(f"unknown verdict {verdict!r}")
            step, value = _statement(key, interned)
            if step not in dag:
                raise ValidationError(f"references unknown step {step!r}")
            # Many keys, few steps and verdicts: share one string per step and per verdict.
            verdicts.append((shared_text(step), value, VERDICTS[VERDICTS.index(verdict)]))

        at = ("tool_scripts", None)
        tool_scripts = _expect(obj.get("tool_scripts", {}), dict)
        tool_outcomes: dict[str, Value] = {}
        for key, outcome in sorted(tool_scripts.items()):
            at = ("tool_scripts", key)
            tool_name, sep, params_json = key.partition("|")
            if not sep or not tool_name:
                raise ValidationError("key must look like 'tool|{params-json}'")
            # Runs look outcomes up by the canonical key, whatever spacing or key order the file uses.
            canonical = params_key(tool_name, json.loads(params_json))
            if canonical in tool_outcomes:
                raise ValidationError(f"names the invocation {canonical!r} a second time")
            tool_outcomes[canonical] = decode(outcome)

        at = ("oracle", None)
        oracle = None
        if obj.get("oracle") is not None:
            oracle_obj = _expect(obj["oracle"], dict)
            answer = decode(oracle_obj["answer"])
            truth = {}
            for step, raw_value in sorted(_expect(oracle_obj.get("truth", {}), dict).items()):
                at = ("oracle.truth", step)
                if step not in dag:
                    raise ValidationError(f"references unknown step {step!r}")
                truth[shared_text(step)] = decode(raw_value)
            oracle = Oracle(answer=answer, truth=truth)

        at = ("facts_seed", None)
        seed_records = _expect(obj.get("facts_seed", []), list)
        at = ("constraints, verdict_table, tool_scripts and facts_seed", None)
        saved_fields = _marshal({"constraints": specs, "verdict_table": verdict_table,
                                 "tool_scripts": tool_scripts, "facts_seed": seed_records})
        facts_seed = []
        probe = FactStore()  # checks that every id a record derives from is seeded before it
        for r_idx, record in enumerate(seed_records):
            at = ("facts_seed", r_idx)
            facts_seed.append(decode_record(record))
            probe.insert(facts_seed[-1])
    except _REJECTED as exc:
        where, index = at
        if index is not None:
            where = f"{where}[{index!r}]"
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"{where}: {detail}") from exc

    return Scenario(
        query=query,
        dag=dag,
        experts=tuple(experts),
        constraints=tuple(constraints),
        verdicts=tuple(verdicts),
        tool_outcomes=MappingProxyType(tool_outcomes),
        oracle=oracle,
        facts_seed=tuple(facts_seed),
        saved_fields=saved_fields,
        name=name or saved_name,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    saved = marshal.loads(scenario.saved_fields)
    obj: dict = {
        "name": scenario.name,
        "query": scenario.query,
        "dag": {
            "steps": list(scenario.dag.steps),
            "edges": [list(edge) for edge in scenario.dag.edges],
        },
        "constraints": saved["constraints"],
        "experts": [
            {
                "expert_id": e.config.expert_id,
                "class": e.config.role,
                "temperature": e.config.temperature,
                "seed": e.config.seed,
                "traces": list(e.raw_traces),
                **({"fail": True} if e.fail else {}),
            }
            for e in scenario.experts
        ],
        "verdict_table": {k: saved["verdict_table"][k] for k in sorted(saved["verdict_table"])},
        "tool_scripts": {k: saved["tool_scripts"][k] for k in sorted(saved["tool_scripts"])},
    }
    if scenario.oracle is not None:
        obj["oracle"] = {
            "answer": value_to_json(scenario.oracle.answer),
            "truth": {s: value_to_json(v) for s, v in sorted(scenario.oracle.truth.items())},
        }
    if saved["facts_seed"]:
        obj["facts_seed"] = saved["facts_seed"]
    return obj


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    # Decoding builds acyclic data only, so a collection during it could free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # an integer literal longer than int() converts, or deep nesting
            raise ParseError(f"{path}: {exc}") from exc
        return scenario_from_dict(obj, name=path.stem)
    finally:
        if enabled:
            gc.enable()


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    path = Path(path)
    path.write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, ensure_ascii=False, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def load_corpus(directory: str | Path) -> list[Scenario]:
    """Every ``*.json`` scenario in the directory, ordered by filename.

    ParseError when ``directory`` is missing or is not a directory, so a
    mistyped path does not read as an empty corpus.
    """
    directory = Path(directory)
    if not directory.exists():
        raise ParseError(f"corpus directory {directory} does not exist")
    if not directory.is_dir():
        raise ParseError(f"corpus path {directory} is not a directory")
    scenarios = []
    for path in sorted(directory.glob("*.json")):
        scenarios.append(load_scenario(path))
    return scenarios


SCHEMA_TEXT = """\
scenario file (JSON, one scenario per file)
  name            optional string; defaults to the filename stem
  query           string
  dag             {"steps": [step-id...], "edges": [[dep, dependent]...]}
                  step ids are unique strings without '|', and not "response"
                  (the facts key of the final answer); graph must be acyclic
  constraints     list of constraint specs:
                    {"id": str, "check": "range",  "scope": "step"|"response",
                     "step_pattern": glob?, "min": num?, "max": num?}
                    {"id": str, "check": "regex",  "pattern": str, ...}
                    {"id": str, "check": "kind",   "expect": "number"|"text"|"boolean"|"quantity"|"composite", ...}
                    {"id": str, "check": "unit",   "unit": str, ...}
                    {"id": str, "check": "facts",  ...}   (consistency with verified facts)
  experts         list of scripted expert blocks:
                    {"expert_id": str, "class": "conservative"|"radical",
                     "temperature": num, "seed": int,
                     "traces": [{"steps": {step-id: {"value": V, "confidence": num,
                                                     "provenance": [tool-id...]?}},
                                 "analysis": str, "response": V}],
                     "fail": bool?}
  verdict_table   {"<step>|<value-literal>": "support"|"refute"|"inconclusive"}
  tool_scripts    {"<tool>|<params-json-object>": V}
                  params numbers must be finite; a key is read as its canonical
                  form (sorted keys, no spaces), and two keys naming one
                  invocation are rejected
  oracle          {"answer": V, "truth": {step-id: V}} or absent
  facts_seed      list of store records, the same line format the store dumps:
                    {"kind": "tool"|"note"|"fact", ...}
                  a tool record's tool_name holds no '|', so a tool_scripts key can name it

values V are JSON scalars/lists (shorthand) or explicit objects, with no other keys
  {"kind": "number", "value": 42}
  {"kind": "text", "value": "s"}
  {"kind": "boolean", "value": true}
  {"kind": "quantity", "value": 3.5, "unit": "m"}
  {"kind": "composite", "items": [V...]}
  numbers (and quantity magnitudes) are finite, and an integer lies within
  float range (|x| <= 1.7976931348623157e308)
  composites nest at most 64 deep, in values and in literals alike

value literals (verdict-table keys, audit-log payloads)
  num:42   txt:"s"   bool:true   qty:3.5:"m"   list:[num:1,num:2]

audit log (line-delimited JSON, fields in order)
  {"seq": int, "stage": "gate|prune|anchor|audit|synthesize|ensemble|facts",
   "event": str, "payload": {sorted keys}, "parent_refs": [str...]}

facts store dump (line-delimited JSON; tools, then notes, then facts, by id)
  {"kind": "tool", "id", "tool_name", "params", "outcome", "source_url", "retrieved_at"}
  {"kind": "note", "id", "summary", "credibility", "derived_from"}
  {"kind": "fact", "id", "category", "key", "value", "status", "version", "derived_from"}
"""


def scenario_expert_outputs(scenario: Scenario) -> list[ExpertOutput]:
    """The outputs parsed at load, for baseline methods that skip the pipeline entirely."""
    outputs: list[ExpertOutput] = []
    for expert in sorted(scenario.experts, key=lambda e: e.config.expert_id):
        if not expert.fail:
            outputs.extend(expert.outputs)
    return outputs
