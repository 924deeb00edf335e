"""Scenario files: the hermetic, replayable unit of work.

A scenario bundles everything one run needs — the query, the step DAG,
serializable constraints, scripted expert traces, a verdict table for the
scripted falsifier, scripted tool outcomes for cross-execution, optional
ground truth, and optional seed records for the facts store. One scenario
per JSON file; a corpus is a directory of them, ordered by filename.

Loading validates every cross-reference (trace steps, verdict-table keys,
oracle keys, facts provenance) so a scenario that loads is a scenario
that runs. ``load(save(load(path)))`` is structurally identical to
``load(path)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .ensemble import CONSERVATIVE, ExpertConfig, ScriptedBackend, parse_expert_output
from .errors import CrosscheckError, ParseError, UnknownIdError, ValidationError
from .facts import FactStore, params_key
from .plandag import PlanDag, build_plan
from .values import Value, parse_statement_key, value_from_json, value_to_json
from .verifiers import (
    Constraint,
    OperatorRegistry,
    VERDICTS,
    constraint_from_spec,
    default_registry,
)


@dataclass(frozen=True)
class ScriptedExpert:
    config: ExpertConfig
    raw_traces: tuple[dict, ...]
    fail: bool = False


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
    constraints: tuple[Constraint, ...] = ()
    verdict_table: dict[str, str] = field(default_factory=dict)
    tool_scripts: dict[str, object] = field(default_factory=dict)
    oracle: Oracle | None = None
    facts_seed: tuple[dict, ...] = ()
    name: str = ""

    def expert_configs(self) -> list[ExpertConfig]:
        return [e.config for e in self.experts]

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend(
            {e.config.expert_id: list(e.raw_traces) for e in self.experts},
            failing={e.config.expert_id for e in self.experts if e.fail},
        )

    def registry(self) -> OperatorRegistry:
        return default_registry(self.constraints, self.verdict_table or None)

    def tool_runner(self) -> Callable[[str, dict], Value]:
        scripts = {key: value_from_json(outcome) for key, outcome in self.tool_scripts.items()}

        def run_tool(tool_name: str, params: dict) -> Value:
            key = params_key(tool_name, params)
            try:
                return scripts[key]
            except KeyError:
                raise UnknownIdError(f"no scripted outcome for {key!r}") from None

        return run_tool


# What reading untrusted input raises when a key is missing or a value has
# the wrong type, plus the typed errors the builders raise themselves.
_REJECTED = (CrosscheckError, KeyError, TypeError, AttributeError, ValueError)


def _expect(value: object, kind: type):
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise TypeError(f"must be {noun}, got {type(value).__name__}")
    return value


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
    at: tuple = ("dag", None)
    try:
        dag_obj = _expect(obj["dag"], dict)
        steps = dag_obj.get("steps", [])
        for step in steps:
            if not isinstance(step, str) or "|" in step:
                raise ValidationError(f"step ids must be strings without '|', got {step!r}")
        at = ("dag.edges", None)
        edges = [tuple(edge) for edge in dag_obj.get("edges", [])]
        at = ("dag", None)
        dag = build_plan(steps, edges)

        at = ("constraints", None)
        constraints = []
        for c_idx, spec in enumerate(_expect(obj.get("constraints", []), list)):
            at = ("constraints", c_idx)
            constraints.append(constraint_from_spec(spec))

        at = ("experts", None)
        experts = []
        seen_ids: set[str] = set()
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
            raw_traces = tuple(block.get("traces", []))
            if not raw_traces and not block.get("fail", False):
                raise ValidationError(f"expert {expert_id!r} has no traces and is not marked failing")
            for t_idx, raw in enumerate(raw_traces):
                at = (f"experts[{e_idx}].traces", t_idx)
                for step in parse_expert_output(expert_id, raw).steps:
                    if step not in dag:
                        raise ValidationError(f"references unknown step {step!r}")
            experts.append(ScriptedExpert(config=config, raw_traces=raw_traces, fail=bool(block.get("fail", False))))
        if not experts:
            raise ValidationError("scenario needs at least one expert")

        at = ("verdict_table", None)
        verdict_table = dict(_expect(obj.get("verdict_table", {}), dict))
        for key, verdict in sorted(verdict_table.items()):
            at = ("verdict_table", key)
            if verdict not in VERDICTS:
                raise ValidationError(f"unknown verdict {verdict!r}")
            step, _ = parse_statement_key(key)
            if step not in dag:
                raise ValidationError(f"references unknown step {step!r}")

        at = ("tool_scripts", None)
        tool_scripts = dict(_expect(obj.get("tool_scripts", {}), dict))
        for key, outcome in sorted(tool_scripts.items()):
            at = ("tool_scripts", key)
            tool_name, sep, params_json = key.partition("|")
            if not sep or not tool_name:
                raise ValidationError("key must look like 'tool|{params-json}'")
            json.loads(params_json)
            value_from_json(outcome)

        at = ("oracle", None)
        oracle = None
        if obj.get("oracle") is not None:
            oracle_obj = _expect(obj["oracle"], dict)
            answer = value_from_json(oracle_obj["answer"])
            truth = {}
            for step, raw_value in sorted(_expect(oracle_obj.get("truth", {}), dict).items()):
                at = ("oracle.truth", step)
                if step not in dag:
                    raise ValidationError(f"references unknown step {step!r}")
                truth[step] = value_from_json(raw_value)
            oracle = Oracle(answer=answer, truth=truth)

        at = ("facts_seed", None)
        facts_seed = tuple(_expect(obj.get("facts_seed", []), list))
        probe = FactStore()
        for r_idx, record in enumerate(facts_seed):
            at = ("facts_seed", r_idx)
            probe.load_record(record)
    except _REJECTED as exc:
        where, index = at
        if index is not None:
            where = f"{where}[{index!r}]"
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"{where}: {detail}") from exc

    return Scenario(
        query=str(obj.get("query", "")),
        dag=dag,
        experts=tuple(experts),
        constraints=tuple(constraints),
        verdict_table=verdict_table,
        tool_scripts=tool_scripts,
        oracle=oracle,
        facts_seed=facts_seed,
        name=name or str(obj.get("name", "")),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    obj: dict = {
        "name": scenario.name,
        "query": scenario.query,
        "dag": {
            "steps": list(scenario.dag.steps),
            "edges": [list(edge) for edge in scenario.dag.edges],
        },
        "constraints": [c.spec for c in scenario.constraints if c.spec is not None],
        "experts": [
            {
                "expert_id": e.config.expert_id,
                "class": e.config.role,
                "temperature": e.config.temperature,
                "seed": e.config.seed,
                "traces": [dict(raw) for raw in e.raw_traces],
                **({"fail": True} if e.fail else {}),
            }
            for e in scenario.experts
        ],
        "verdict_table": {k: scenario.verdict_table[k] for k in sorted(scenario.verdict_table)},
        "tool_scripts": {k: scenario.tool_scripts[k] for k in sorted(scenario.tool_scripts)},
    }
    if scenario.oracle is not None:
        obj["oracle"] = {
            "answer": value_to_json(scenario.oracle.answer),
            "truth": {s: value_to_json(v) for s, v in sorted(scenario.oracle.truth.items())},
        }
    if scenario.facts_seed:
        obj["facts_seed"] = [dict(r) for r in scenario.facts_seed]
    return obj


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(obj, name=path.stem)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    path = Path(path)
    path.write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_corpus(directory: str | Path) -> list[Scenario]:
    """Every ``*.json`` scenario in the directory, ordered by filename."""
    directory = Path(directory)
    scenarios = []
    for path in sorted(directory.glob("*.json")):
        scenarios.append(load_scenario(path))
    return scenarios


SCHEMA_TEXT = """\
scenario file (JSON, one scenario per file)
  name            optional string; defaults to the filename stem
  query           string
  dag             {"steps": [step-id...], "edges": [[dep, dependent]...]}
                  step ids are unique strings without '|'; graph must be acyclic
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
  tool_scripts    {"<tool>|<canonical-params-json>": V}
  oracle          {"answer": V, "truth": {step-id: V}} or absent
  facts_seed      list of store records, the same line format the store dumps:
                    {"kind": "tool"|"note"|"fact", ...}

values V are JSON scalars/lists (shorthand) or explicit objects
  {"kind": "number", "value": 42}
  {"kind": "text", "value": "s"}
  {"kind": "boolean", "value": true}
  {"kind": "quantity", "value": 3.5, "unit": "m"}
  {"kind": "composite", "items": [V...]}

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


def scenario_expert_outputs(scenario: Scenario) -> list:
    """Parsed outputs for baseline methods that skip the pipeline entirely."""
    outputs = []
    for expert in sorted(scenario.experts, key=lambda e: e.config.expert_id):
        if expert.fail:
            continue
        for raw in expert.raw_traces:
            outputs.append(parse_expert_output(expert.config.expert_id, raw))
    return outputs
