from __future__ import annotations

import gc
import hashlib
import json
import sys
from collections import Counter, OrderedDict
from dataclasses import replace
from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import crosscheck
from crosscheck import ensemble
from crosscheck import scenario as scenario_mod
from crosscheck.auditlog import AuditLog, replay
from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus, random_scenario, write_corpus
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.facts import FactStore
from crosscheck.errors import CrosscheckError, DuplicateIdError, ParseError, UnknownIdError, ValidationError
from crosscheck.scenario import (
    Oracle,
    load_scenario,
    save_scenario,
    scenario_expert_outputs,
    scenario_from_dict,
    scenario_to_dict,
)
from crosscheck.values import (
    Value,
    format_literal,
    number,
    parse_statement_key,
    value_from_json,
    value_to_json,
    values_equal,
)
from crosscheck.verifiers import VERDICTS
from oracles import reference_line


def _minimal(**overrides):
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 1, "confidence": 0.9}}, "response": 1}]},
        ],
    }
    obj.update(overrides)
    return obj


def test_minimal_scenario_loads():
    scenario = scenario_from_dict(_minimal(), name="m")
    assert scenario.query == "q"
    assert len(scenario.experts) == 1
    assert scenario.dag.steps == ("s1",)


def test_a_step_named_like_the_response_facts_key_is_rejected():
    # A given fact seeded for such a step would also gate every final answer.
    obj = _minimal(dag={"steps": ["s1", "response"], "edges": [["s1", "response"]]},
                   facts_seed=[{"kind": "fact", "id": "f1", "category": "given", "key": "response",
                                "value": 1, "status": "verified"}])
    with pytest.raises(ValidationError, match="'response'"):
        scenario_from_dict(obj)


def test_verdict_table_unknown_step_is_named():
    obj = _minimal(verdict_table={"s9|num:1": "refute"})
    with pytest.raises(ValidationError, match="s9"):
        scenario_from_dict(obj)


def test_verdict_table_bad_literal_rejected():
    obj = _minimal(verdict_table={"s1|float:1": "refute"})
    with pytest.raises(ValidationError):
        scenario_from_dict(obj)


def test_trace_with_unknown_step_rejected():
    obj = _minimal()
    obj["experts"][0]["traces"][0]["steps"]["s9"] = {"value": 1, "confidence": 0.5}
    with pytest.raises(ValidationError, match="s9"):
        scenario_from_dict(obj)


def test_out_of_range_confidence_rejected_at_load():
    obj = _minimal()
    obj["experts"][0]["traces"][0]["steps"]["s1"]["confidence"] = 1.3
    with pytest.raises(ValidationError):
        scenario_from_dict(obj)


def test_duplicate_expert_rejected():
    obj = _minimal()
    obj["experts"].append(dict(obj["experts"][0]))
    with pytest.raises(ValidationError, match="duplicate"):
        scenario_from_dict(obj)


def test_cyclic_dag_rejected():
    obj = _minimal()
    obj["dag"] = {"steps": ["s1", "s2"], "edges": [["s1", "s2"], ["s2", "s1"]]}
    with pytest.raises(ValidationError):
        scenario_from_dict(obj)


def test_oracle_truth_must_reference_steps():
    obj = _minimal(oracle={"answer": 1, "truth": {"s9": 1}})
    with pytest.raises(ValidationError, match="s9"):
        scenario_from_dict(obj)


def test_facts_seed_must_load():
    obj = _minimal(facts_seed=[
        {"kind": "note", "id": "n1", "summary": "s", "credibility": "high",
         "derived_from": ["missing-tool"]},
    ])
    with pytest.raises(ValidationError):
        scenario_from_dict(obj)


def test_tool_scripts_key_shape():
    obj = _minimal(tool_scripts={"no-separator": 1})
    with pytest.raises(ValidationError):
        scenario_from_dict(obj)


def _expert(**fields):
    obj = _minimal()
    obj["experts"][0].update(fields)
    return obj


def _dag(steps, edges):
    return _minimal(dag={"steps": steps, "edges": edges})


def _constraint(**spec):
    return _minimal(constraints=[spec])


TOOL_RECORD = {"kind": "tool", "tool_name": "calc", "params": {}, "outcome": 1}


class _Str(str):
    """A ``str`` subclass, as a library caller may pass for an id; ``sys.intern`` raises TypeError for one."""


# Each of these once escaped the loader as a raw Python exception, or loaded
# and then crashed inside run_pipeline.
@pytest.mark.parametrize("obj, field", [
    (_constraint(check="kind", expect="number"), r"constraints\[0\].*'id'"),
    (_constraint(id="c", check="regex", pattern="("), "'pattern' does not compile"),
    (_minimal(experts=["e01"]), r"experts\[0\]: must be an object"),
    (_minimal(constraints=["c"]), r"constraints\[0\]"),
    (_minimal(facts_seed=["tool"]), r"facts_seed\[0\]: store record must be an object"),
    (_expert(temperature="hot"), r"experts\[0\]: temperature"),
    (_expert(seed="x"), "seed"),
    (_dag(["s1"], [1]), r"dag\.edges: "),
    (_dag([["s1"]], []), r"dag: step ids"),
    (_minimal(verdict_table=["s1|num:1"]), "verdict_table: must be an object"),
    (_minimal(facts_seed=[TOOL_RECORD]), r"facts_seed\[0\].*'id'"),
    (_constraint(id="c", check="range", min="a"), "'min'"),
    (_expert(expert_id=7), "expert_id"),
    (_constraint(id="c", check="regex", pattern=3), "'pattern'"),
    (_constraint(id="c", check="kind", expect="number", step_pattern=3), "'step_pattern'"),
    (_expert(temperature=float("nan")), "temperature"),
    (_expert(temperature=float("inf")), "temperature"),
    (_expert(temperature=-0.5), "temperature"),
    (_expert(**{"class": "wild"}), "role 'wild'"),
    (_constraint(id="c", check="range", max=float("inf")), "'max'"),
    (_constraint(id="c", check="range", min=True), "'min'"),
    (_constraint(id="c", check="unit", unit=5), "'unit'"),
    (_constraint(id="c", check="kind", expect=None), "'expect'"),
    (_expert(traces=[{"steps": {"s1": {"value": {"kind": "number"}}}, "response": 1}]),
     r"experts\[0\]\.traces\[0\]: missing field 'value'"),
    (_expert(traces=[OrderedDict(steps={}, response=1)]), r"experts\[0\]\.traces: must hold plain JSON"),
    (_minimal(facts_seed=[{**TOOL_RECORD, "id": "a"}, {**TOOL_RECORD, "id": 5}]),
     r"facts_seed\[1\]: tool record field 'id' must be a string"),
    (_minimal(facts_seed=[{"kind": "fact", "id": "f1", "category": "given", "key": 3, "value": 1}]),
     r"facts_seed\[0\]: fact record field 'key' must be a string"),
    # Runs look scripts up by the canonical key of an object's params: these could never match.
    (_minimal(tool_scripts={"calc|[1]": 1}), r"tool_scripts\['calc\|\[1\]'\]: params must be an object"),
    (_minimal(tool_scripts={"calc|3": 1}), r"tool_scripts\['calc\|3'\]: params must be an object"),
    (_minimal(tool_scripts={'calc|{"x": NaN}': 1}), r"tool_scripts\['calc\|\{\"x\": NaN\}'\]: Out of range"),
    (_minimal(tool_scripts={'calc|{"x": 1, "y": 2}': 1, 'calc|{"y":2,"x":1}': 2}),
     r"""tool_scripts\['calc\|\{"y":2,"x":1\}'\]: names the invocation 'calc\|\{"x":1,"y":2\}' a second time"""),
    (_minimal(facts_seed=[{**TOOL_RECORD, "id": "t1", "params": {"x": float("nan")}}]),
     r"facts_seed\[0\]: tool record field 'params'"),
    (_minimal(facts_seed=[{**TOOL_RECORD, "id": "t1", "source_url": 5}]),
     r"facts_seed\[0\]: tool record field 'source_url' must be a string or null"),
    (_minimal(facts_seed=[{"kind": "fact", "id": "f1", "category": "given", "key": "s1", "value": 1, "version": "3"}]),
     r"facts_seed\[0\]: fact record field 'version': must be an int >= 1"),
    (_minimal(verdict_table=OrderedDict({"s1|num:1": "refute"})),
     r"constraints, verdict_table, tool_scripts and facts_seed: must hold plain JSON"),
    # A tool_scripts key splits at its first '|', so it could never name this tool.
    (_minimal(facts_seed=[{**TOOL_RECORD, "id": "t1", "tool_name": "a|b"}]),
     r"facts_seed\[0\]: tool record field 'tool_name' must not contain '\|'"),
    # Each of these once loaded coerced: "ab" and {"a": 1, "b": 2} as the edge a->b,
    # "false" as a failing expert, null as the query "None", ["x"] as the name "['x']".
    (_dag(["a", "b"], ["ab"]), r"dag\.edges: an edge must be a list of two step ids, got 'ab'"),
    (_dag(["a", "b"], [{"a": 1, "b": 2}]), r"dag\.edges: an edge must be a list of two step ids"),
    (_dag(["a", "b"], [("a", "b")]), r"dag\.edges: an edge must be a list of two step ids"),
    (_dag(["a", "b", "c"], [["a", "b", "c"]]), r"dag\.edges: an edge must be a list of two step ids"),
    (_dag(["a", "b"], [["a", 2]]), r"dag\.edges: an edge must be a list of two step ids"),
    (_dag(["a", "b"], "ab"), r"dag\.edges: must be a list, got str"),
    (_dag("ab", []), r"dag: must be a list, got str"),
    (_expert(fail="false"), r"experts\[0\]: 'fail' must be a bool, got 'false'"),
    (_expert(fail=1), r"experts\[0\]: 'fail' must be a bool, got 1"),
    (_minimal(query=None), r"query: must be a string, got NoneType"),
    (_minimal(query=7), r"query: must be a string, got int"),
    (_minimal(name=["x"]), r"name: must be a string, got list"),
    (_expert(traces=[{"steps": {"s1": {"value": {"kind": "number", "value": 1, "unit": "m"}}}, "response": 1}]),
     r"experts\[0\]\.traces\[0\]: malformed trace value: a number value takes no key 'unit'"),
    # The load decodes each raw form once: a valid form seen first must not let a near-copy through.
    (_expert(traces=[{"steps": {"s1": {"value": {"kind": "number", "value": 1}}},
                      "response": {"kind": "number", "value": 1, "unit": "m"}}]),
     r"experts\[0\]\.traces\[0\]: malformed trace value: a number value takes no key 'unit'"),
    (_expert(traces=[{"steps": {"s1": {"value": {"kind": "quantity", "value": 1, "unit": "m"}}},
                      "response": {"kind": "quantity", "value": 1, "unit": ["m"]}}]),
     r"experts\[0\]\.traces\[0\]: malformed trace value: quantity unit must be a nonempty string"),
    (_expert(traces=[{"steps": {"s1": {"value": 1}}, "response": {"kind": ["number"], "value": 1}}]),
     r"experts\[0\]\.traces\[0\]: malformed trace value: unknown value kind \['number'\]$"),
    # Of several unknown steps, the first in sorted order is named.
    (_expert(traces=[{"steps": {"s1": {"value": 1}, "s9": {"value": 1}, "s10": {"value": 1}}, "response": 1}]),
     r"^experts\[0\]\.traces\[0\]: references unknown step 's10'$"),
    # Ids the load would share, were they exactly strings: each fails as it did before the sharing.
    (_expert(traces=[{"steps": {5: {"value": 1}}, "response": 1}]),
     r"^experts\[0\]\.traces\[0\]: references unknown step 5$"),
    (_expert(traces=[{"steps": {_Str("s1"): {"value": 1}}, "response": 1}]),
     r"^experts\[0\]\.traces: must hold plain JSON values only"),
    (_expert(**{"class": 5}), r"^experts\[0\]: unknown expert role 5$"),
    (_minimal(oracle={"answer": 1, "truth": {5: 1}}), r"^oracle\.truth\[5\]: references unknown step 5$"),
    (_minimal(verdict_table={5: "refute"}), r"^verdict_table\[5\]: 'int' object has no attribute 'partition'$"),
    (_minimal(verdict_table={_Str("s1|num:1"): "refute"}),
     r"^constraints, verdict_table, tool_scripts and facts_seed: must hold plain JSON values only"),
    (_constraint(id="c", check="kind", expect="number", step_pattern=_Str("s*")),
     r"^constraints, verdict_table, tool_scripts and facts_seed: must hold plain JSON values only"),
    (_minimal(facts_seed=[{"kind": "fact", "id": "f1", "category": "given", "key": _Str("s1"), "value": 1}]),
     r"^constraints, verdict_table, tool_scripts and facts_seed: must hold plain JSON values only"),
    # A verdict key whose literal the trace holds (num:1) is read from the load's intern table
    # only when it is well formed: these fail as their parse does.
    (_minimal(verdict_table={"|num:1": "refute"}),
     r"^verdict_table\['\|num:1'\]: statement key must look like '<step>\|<literal>': '\|num:1'$"),
    (_minimal(verdict_table={"s1|num:1 ": "refute"}), r"^verdict_table\['s1\|num:1 '\]: trailing characters"),
    (_minimal(verdict_table={"s1|num:": "refute"}), r"^verdict_table\['s1\|num:'\]: bad literal payload"),
    (_minimal(verdict_table={"s1": "refute"}), r"^verdict_table\['s1'\]: statement key must look like"),
    (_minimal(verdict_table={"s1|num:1|x": "refute"}), r"^verdict_table\['s1\|num:1\|x'\]: trailing characters"),
])
def test_malformed_scenario_is_validation_error(obj, field):
    with pytest.raises(ValidationError, match=field):
        scenario_from_dict(obj)


# Each id is a str subclass, which the load keeps as it is rather than share it.
@pytest.mark.parametrize("obj", [
    _dag([_Str("s1")], []),
    _dag(["s1", "s2"], [[_Str("s1"), _Str("s2")]]),
    _expert(expert_id=_Str("e01")),
    _expert(**{"class": _Str("radical")}),
    _minimal(oracle={"answer": 1, "truth": {_Str("s1"): 1}}),
], ids=["step", "edge", "expert-id", "role", "oracle-truth-key"])
def test_an_id_the_load_cannot_share_loads_as_a_plain_one(obj):
    scenario = scenario_from_dict(obj)
    plain = scenario_from_dict(json.loads(json.dumps(obj)))
    assert scenario_to_dict(scenario) == scenario_to_dict(plain)
    assert _log_text(scenario, EngineConfig()) == _log_text(plain, EngineConfig())


# A key whose literal is not the one a held value prints to, though it parses to an equal value.
@pytest.mark.parametrize("value, key", [
    (1, "s1|num:1.00"),
    (1, "s1|num:1.0"),
    (1, "s1|num:1e0"),
    ("a", 's1|txt:"\\u0061"'),
    ("a", 's1|txt:"a" '),
], ids=["padded", "float-of-an-int", "exponent", "escaped", "trailing-space"])
def test_a_verdict_key_the_intern_table_lacks_is_parsed(value, key):
    obj = _expert(traces=[{"steps": {"s1": {"value": value}}, "response": value}])
    obj["verdict_table"] = {key: "refute"}
    try:
        expected = parse_statement_key(key)
    except ParseError as exc:
        with pytest.raises(ValidationError) as rejected:
            scenario_from_dict(obj)
        assert str(rejected.value) == f"verdict_table[{key!r}]: {exc}"
        return
    ((step, entry, verdict),) = scenario_from_dict(obj).verdicts
    assert (step, format_literal(entry), verdict) == (expected[0], format_literal(expected[1]), "refute")


@pytest.mark.parametrize("items", ["ab", {"x": 1}, 5])
def test_a_composite_whose_items_are_not_an_array_is_rejected_at_load(items):
    bad = {"kind": "composite", "items": items}
    for obj, field in (
        (_two_experts(1, bad), r"experts\[1\]\.traces\[0\]: malformed trace value"),
        (_minimal(oracle={"answer": bad}), r"oracle: composite items must be a JSON array"),
        (_minimal(tool_scripts={'calc|{"expr":"1"}': bad}), r"tool_scripts\['calc"),
        (_minimal(facts_seed=[{"kind": "fact", "id": "f1", "category": "given", "key": "s1", "value": bad}]),
         r"facts_seed\[0\]: fact record field 'value': composite items must be a JSON array"),
    ):
        with pytest.raises(ValidationError, match=field):
            scenario_from_dict(obj)


def test_tool_runner_resolves_scripts():
    obj = _minimal(tool_scripts={'calc|{"expr":"6*7"}': 42})
    scenario = scenario_from_dict(obj)
    runner = scenario.tool_runner()
    assert values_equal(runner("calc", {"expr": "6*7"}), number(42))
    with pytest.raises(UnknownIdError):
        runner("calc", {"expr": "1+1"})


def test_a_tool_key_names_its_invocation_however_it_is_spaced():
    canonical = _log_text(scenario_from_dict(_tool_scenario()), EngineConfig())
    assert "tool:t1" in canonical
    for key in ('calc|{"expr": "2*3"}', 'calc| { "expr" : "2*3" } '):
        obj = _tool_scenario()
        obj["tool_scripts"] = {key: 6}
        assert _log_text(scenario_from_dict(obj), EngineConfig()) == canonical


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"query": "q", }', encoding="utf-8")
    with pytest.raises(ParseError, match=r"broken\.json:1:"):
        load_scenario(path)


def test_an_integer_literal_too_long_to_convert_is_parse_error(tmp_path):
    # json.loads raises a plain ValueError here, not a JSONDecodeError.
    path = tmp_path / "long.json"
    path.write_text('{"query": "q", "dag": {"steps": [' + "1" * 5000 + ']}}', encoding="utf-8")
    with pytest.raises(ParseError, match=r"long\.json: Exceeds the limit"):
        load_scenario(path)


def _two_experts(first, second, **overrides):
    """Two experts asserting ``first`` and ``second`` at step s1 and answering 1."""
    return _minimal(experts=[
        {"expert_id": f"e0{i}", "traces": [{"steps": {"s1": {"value": v, "confidence": 0.9}}, "response": 1}]}
        for i, v in ((1, first), (2, second))
    ], **overrides)


# Each of these loaded, then raised OverflowError from the tolerance rule mid-run.
@pytest.mark.parametrize("obj", [
    _two_experts(10**400, 10**400 + 1),
    _two_experts({"kind": "quantity", "value": 10**400, "unit": "m"},
                 {"kind": "quantity", "value": 10**400 + 1, "unit": "m"}),
    _two_experts(10**400, 10**400, facts_seed=[{"kind": "fact", "id": "f1", "category": "given", "key": "s1",
                                                 "value": 1.5, "status": "verified"}]),
], ids=["numbers", "quantities", "against-a-given-fact"])
def test_an_int_beyond_float_range_is_rejected_at_load(obj):
    with pytest.raises(ValidationError, match="within float range"):
        scenario_from_dict(obj)


def test_the_largest_int_in_float_range_loads_and_runs():
    big = int(sys.float_info.max)
    given_max = [{"kind": "fact", "id": "f1", "category": "given", "key": "s1", "value": sys.float_info.max,
                  "status": "verified"}]
    gated = _two_experts(big, -big, facts_seed=given_max)  # the gate excises -big, which conflicts
    audited = _two_experts(big, -big, verdict_table={f"s1|num:{big}": "refute"})
    for obj, answer_from in ((gated, "e01"), (audited, "e02")):
        result = run_pipeline(scenario_from_dict(obj))
        assert result.winner_expert == answer_from
        state = replay(AuditLog.from_lines(result.audit_log.to_lines()))
        assert state.ok, state.violations


_FLOAT_MAX = sys.float_info.max
_HOSTILE_NUMBERS = [
    _FLOAT_MAX, -_FLOAT_MAX, int(_FLOAT_MAX), -int(_FLOAT_MAX), int(_FLOAT_MAX) + 1, -int(_FLOAT_MAX) - 1, 10**400,
    5e-324, -5e-324, -0.0, 0, 10**9, 10**9 + 1, 10**9 + 2, 1e-9, 2e-9,
    73786976294838212674, 73786976221051232256, 73786976221051232256.0, float("inf"), float("nan"),
]
_hostile_values = st.one_of(
    st.sampled_from(_HOSTILE_NUMBERS),
    st.sampled_from(_HOSTILE_NUMBERS).map(lambda x: {"kind": "quantity", "value": x, "unit": "m"}),
)


@st.composite
def hostile_scenarios(draw):
    """A small scenario whose step values, responses, given facts, range bounds and verdict keys are hostile numbers."""
    steps = [f"s{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    experts = [
        {"expert_id": f"e{i:02d}",
         "traces": [{"steps": {step: {"value": draw(_hostile_values), "confidence": 0.9}
                               for step in steps if draw(st.booleans())},
                     "response": draw(_hostile_values)}]}
        for i in range(1, draw(st.integers(1, 4)) + 1)
    ]
    obj = _minimal(dag={"steps": steps, "edges": [[a, b] for a, b in zip(steps, steps[1:])]}, experts=experts)
    obj["facts_seed"] = [{"kind": "fact", "id": f"f{i}", "category": "given", "key": draw(st.sampled_from(steps)),
                          "value": draw(_hostile_values), "status": "verified"}
                         for i in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        bound = draw(st.sampled_from([x for x in _HOSTILE_NUMBERS if x == x]))
        obj["constraints"] = [{"id": "range", "check": "range", draw(st.sampled_from(["min", "max"])): bound}]
    obj["verdict_table"] = {f"{draw(st.sampled_from(steps))}|num:{x!r}": draw(st.sampled_from(VERDICTS))
                            for x in draw(st.lists(st.sampled_from(_HOSTILE_NUMBERS), max_size=2))}
    return obj


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@given(hostile_scenarios(), st.integers(1, 3), st.sampled_from([None, 1]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_hostile_numbers_raise_a_typed_error_or_run_to_a_clean_log(obj, theta, budget, facts_enabled):
    try:
        scenario = scenario_from_dict(obj)
        result = run_pipeline(scenario, EngineConfig(theta=theta, budget=budget, facts_enabled=facts_enabled))
    except CrosscheckError:
        return
    lines = result.audit_log.to_text().splitlines()
    for line in lines:
        json.loads(line, parse_constant=_refuse)  # strict JSON: no NaN or Infinity
    state = replay(AuditLog.from_lines(lines))
    assert state.ok, state.violations


_BAD_JSON = '{"query": "q", }'


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("text, error", [
    (json.dumps(_minimal()), None),
    (_BAD_JSON, ParseError),
    (json.dumps(_expert(traces=[{"steps": {"s9": {"value": 1}}, "response": 1}])), ValidationError),
], ids=["clean", "parse-error", "validation-error"])
def test_loading_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, text, error, enabled):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    during = []

    def spy(obj, name=""):
        during.append(gc.isenabled())
        return real(obj, name)

    real = scenario_mod.scenario_from_dict
    monkeypatch.setattr(scenario_mod, "scenario_from_dict", spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            load_scenario(path)
        else:
            with pytest.raises(error):
                load_scenario(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == ([] if error is ParseError else [False])


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


def test_a_file_that_is_not_utf8_is_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"query": "\xff"}')
    with pytest.raises(ParseError, match=r"cannot read scenario .*latin1\.json"):
        load_scenario(path)


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_round_trip_is_structurally_stable(tmp_path, seed):
    scenario = random_scenario(seed, GeneratorParams(with_constraints=True, with_facts=True))
    path = tmp_path / f"{scenario.name}.json"
    save_scenario(scenario, path)
    first_bytes = path.read_text()
    once = load_scenario(path)
    assert scenario_to_dict(once) == scenario_to_dict(scenario)
    save_scenario(once, path)
    assert path.read_text() == first_bytes
    twice = load_scenario(path)
    assert scenario_to_dict(twice) == scenario_to_dict(once)


def test_save_emits_explicit_value_forms(tmp_path):
    scenario = scenario_from_dict(_minimal(), name="m")
    path = tmp_path / "m.json"
    save_scenario(scenario, path)
    obj = json.loads(path.read_text())
    assert obj["experts"][0]["traces"][0]["response"] == 1  # raw traces kept verbatim
    reloaded = load_scenario(path)
    assert scenario_to_dict(reloaded)["experts"] == scenario_to_dict(scenario)["experts"]


def test_save_refuses_a_non_finite_number(tmp_path):
    scenario = scenario_from_dict(_minimal(), name="m")
    scenario.oracle = Oracle(Value("number", float("nan")))  # no decoder makes one; build it directly
    path = tmp_path / "m.json"
    with pytest.raises(ValueError):
        save_scenario(scenario, path)
    assert not path.exists()


def test_writing_two_scenarios_of_one_name_is_refused_before_any_file(tmp_path):
    first = random_corpus(1, 2)[0]
    clash = random_scenario(10_000, GeneratorParams())
    assert clash.name == first[0].name == "rnd010000"
    out = tmp_path / "corpus"
    with pytest.raises(DuplicateIdError, match="'rnd010000'"):
        write_corpus([*first, clash], out)
    assert not out.exists()
    assert [p.name for p in write_corpus(first, out)] == ["rnd010000.json", "rnd010001.json"]


def _log_text(scenario, config) -> str:
    return run_pipeline(scenario, config).audit_log.to_text()


def _mixed_corpus():
    desk, _ = random_corpus(3, 30, GeneratorParams(with_constraints=True, with_facts=True))
    return [(s, EngineConfig()) for s in desk] + [(s, EngineConfig(theta=3)) for s in adversarial_corpus(5)]


def test_runs_replay_the_outputs_parsed_at_load(monkeypatch):
    parsed = []

    def spy(expert_id, raw, interned=None):
        parsed.append(expert_id)
        return real(expert_id, raw, interned)

    real = ensemble.parse_expert_output
    monkeypatch.setattr(ensemble, "parse_expert_output", spy)
    monkeypatch.setattr(scenario_mod, "parse_expert_output", spy)
    scenario_from_dict(_minimal())
    assert parsed == ["e01"]  # the spy sees the parse at load

    runs = _mixed_corpus()
    parsed.clear()
    for scenario, config in runs:
        _log_text(scenario, config)
        scenario_expert_outputs(scenario)
    assert parsed == []


# Values at one step that are equal or near-equal, yet print differently; the
# int/float twins come from tests/test_grouping.py.
TWIN_INT = 73786976221051232256
_LOOKALIKES = [0.0, -0.0, 0, 1, 1.0, True, 1e9, 1e9 + 1, TWIN_INT, float(TWIN_INT), "Paris", " paris"]
# Each lookalike bare and in explicit form, which a load decodes once per distinct
# form; and one quantity written with two spellings of its unit, which trim to one.
_LOOKALIKE_FORMS = [*_LOOKALIKES, *(value_to_json(value_from_json(v)) for v in _LOOKALIKES),
                    *({"kind": "quantity", "value": 1, "unit": unit} for unit in ("m", " m"))]


def _lookalikes_scenario():
    """Two experts per lookalike form at step s1, each answering with the value it asserts."""
    return _minimal(experts=[
        {"expert_id": f"e{i:02d}",
         "traces": [{"steps": {"s1": {"value": v, "confidence": 0.5 + i / 200}}, "response": v}]}
        for i, v in enumerate(_LOOKALIKE_FORMS + _LOOKALIKE_FORMS[::-1])
    ])


def _trace_values(scenario):
    return [value for expert in scenario.experts for output in expert.outputs
            for value in [output.value_at(step) for step in output.step_ids] + [output.response]]


def _parsed_without_a_table(scenario):
    """The same scenario with every trace parsed again on its own, so that each value is a fresh object."""
    experts = tuple(
        replace(e, outputs=tuple(ensemble.parse_expert_output(e.config.expert_id, raw) for raw in e.raw_traces))
        for e in scenario.experts
    )
    return replace(scenario, experts=experts)


_WIDE = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4, edge_prob=0.1,
                        with_constraints=True)


@pytest.mark.parametrize("make", [lambda: scenario_from_dict(_lookalikes_scenario()),
                                  lambda: random_scenario(3, _WIDE)], ids=["lookalikes", "wide"])
def test_interning_at_load_changes_no_logged_byte(make):
    scenario = make()
    fresh = _parsed_without_a_table(scenario)
    fresh_values = _trace_values(fresh)
    assert len({id(v) for v in fresh_values}) == len(fresh_values)
    for config in (EngineConfig(), EngineConfig(theta=3)):
        assert _log_text(scenario, config) == _log_text(fresh, config)


def test_a_loaded_scenario_holds_one_object_per_printed_value():
    scenario = scenario_from_dict(_lookalikes_scenario())
    by_literal = {}
    for value in _trace_values(scenario):
        assert by_literal.setdefault(format_literal(value), value) is value
    assert len(by_literal) == len(_LOOKALIKES) + 1
    # Each form, bare or explicit, first seen or not, prints as it decodes on its own.
    for expert in scenario.experts:
        (raw,), (output,) = expert.raw_traces, expert.outputs
        literal = format_literal(value_from_json(raw["response"]))
        assert format_literal(output.response) == format_literal(output.value_at("s1")) == literal
    assert by_literal["num:-0.0"] is not by_literal["num:0.0"]
    assert len({id(by_literal[literal]) for literal in ("num:1", "num:1.0", "bool:true")}) == 3
    assert 'qty:1:"m"' in by_literal
    # The table that shared them died with the load: no dict keyed by a literal still holds a value.
    gc.collect()
    for literal, value in by_literal.items():
        assert not any(isinstance(r, dict) and literal in r for r in gc.get_referrers(value) if r is not by_literal)

    wide_values = _trace_values(random_scenario(3, _WIDE))
    literals = {format_literal(v) for v in wide_values}
    assert len({id(v) for v in wide_values}) == len(literals) < len(wide_values) / 5


def test_a_raw_form_seen_again_is_not_decoded_again(monkeypatch):
    decoded = []

    def spy(obj):
        decoded.append(obj)
        return real(obj)

    real = ensemble.value_from_json
    monkeypatch.setattr(ensemble, "value_from_json", spy)
    form = {"kind": "number", "value": 5}
    scenario = scenario_from_dict(_two_experts(form, dict(form)))
    first, second = (expert.outputs[0].value_at("s1") for expert in scenario.experts)
    assert first is second
    assert decoded.count(form) == 1


def test_runs_read_the_fields_decoded_at_load(monkeypatch):
    calls = Counter()

    def spy(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("value_from_json", "parse_statement_key"):
        for module in vars(crosscheck).values():
            if isinstance(module, ModuleType) and hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(FactStore, "load_record", spy("load_record", FactStore.load_record))
    tool_scenario = scenario_from_dict(_tool_scenario())
    # No trace asserts num:2, so the load parses this key rather than reading the intern table.
    scenario_from_dict(_minimal(verdict_table={"s1|num:2": "support"}))
    FactStore.from_lines(['{"kind": "tool", "id": "t1", "tool_name": "calc", "outcome": 1}'])
    assert all(calls[name] for name in ("value_from_json", "parse_statement_key", "load_record"))

    runs = _mixed_corpus() + [(tool_scenario, EngineConfig())]
    calls.clear()
    for scenario, config in runs:
        _log_text(scenario, config)
    assert "tool:t1" in _log_text(tool_scenario, EngineConfig())
    assert calls == Counter()


def test_one_scenario_object_runs_to_the_same_log_every_time():
    # Runs share the scenario's parsed outputs; none may leave a mark on them.
    for scenario, config in _mixed_corpus():
        first = _log_text(scenario, config)
        assert _log_text(scenario, config) == first
        assert _log_text(scenario_from_dict(scenario_to_dict(scenario)), config) == first


def _tool_scenario():
    """Two experts disagree at s1; the audit settles it by re-running the tool both cite."""
    return {
        "query": "q",
        "dag": {"steps": ["s1", "s2"], "edges": [["s1", "s2"]]},
        "constraints": [{"id": "r", "check": "range", "scope": "step", "step_pattern": "s*", "min": 0, "max": 100}],
        "experts": [
            {"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1, "seed": i,
             "traces": [{"steps": {"s1": {"value": value, "confidence": 0.9, "provenance": ["t1"]},
                                   "s2": {"value": value + 1, "confidence": 0.8}},
                         "response": value + 1}]}
            for i, value in ((1, 6), (2, 7))
        ],
        "tool_scripts": {'calc|{"expr":"2*3"}': {"kind": "number", "value": 6}},
        "facts_seed": [{**TOOL_RECORD, "id": "t1", "params": {"expr": "2*3"},
                        "outcome": {"kind": "number", "value": 6}}],
        "oracle": {"answer": 7, "truth": {"s1": 6}},
    }


def _scramble(node):
    """Empty every dict and list reachable from ``node``, innermost first."""
    for child in list(node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            _scramble(child)
    node.clear()


def test_a_loaded_scenario_shares_nothing_with_the_callers_dict():
    pristine = scenario_from_dict(_tool_scenario())
    obj = _tool_scenario()
    scenario = scenario_from_dict(obj)
    _scramble(obj)
    assert scenario_to_dict(scenario) == scenario_to_dict(pristine)
    log = _log_text(scenario, EngineConfig())
    assert log == _log_text(pristine, EngineConfig())
    assert "tool:t1" in log  # the audit re-ran the scripted tool


def _tool_variants():
    """``_tool_scenario`` and two variants: the script contradicts e01, and the
    scripts cover only a second tool, which e02 cites and a note summarizes."""
    base = _tool_scenario()
    contradicting = _tool_scenario()
    contradicting["tool_scripts"] = {'calc|{"expr":"2*3"}': 7}
    second_tool = _tool_scenario()
    second_tool["experts"][1]["traces"][0]["steps"]["s1"]["provenance"] = ["t2", "t1"]
    second_tool["tool_scripts"] = {'calc|{"expr":"3+4"}': {"kind": "number", "value": 7.0}}
    second_tool["facts_seed"] += [
        {**TOOL_RECORD, "id": "t2", "params": {"expr": "3+4"}, "outcome": 7,
         "source_url": "https://example.org/calc", "retrieved_at": "2024-01-01T00:00:00Z"},
        {"kind": "note", "id": "n1", "summary": "seven", "credibility": "medium", "derived_from": ["t2"]},
        {"kind": "fact", "id": "f1", "category": "derived", "key": "s2", "value": 8, "derived_from": ["n1"]},
    ]
    return [base, contradicting, second_tool]


# sha256 over the audit logs of every ``_tool_variants`` scenario under each config,
# in order. The golden corpora never reach cross-execution; these runs do.
TOOL_LOGS_SHA256 = "ad292f7911d2f2474b4d1e4cd6f1e004d8cbcf1fdc313cf97a78c9849bd54f17"


TOOL_CONFIGS = (EngineConfig(), EngineConfig(theta=3, budget=1), EngineConfig(facts_enabled=False))


def test_cross_execution_logs_are_pinned():
    digest = hashlib.sha256()
    for obj in _tool_variants():
        for config in TOOL_CONFIGS:
            digest.update(_log_text(scenario_from_dict(obj), config).encode("utf-8"))
    assert digest.hexdigest() == TOOL_LOGS_SHA256


def test_cross_execution_lines_match_the_reference_encoder(json_path):
    for obj in _tool_variants():
        for config in TOOL_CONFIGS:
            for entry in run_pipeline(scenario_from_dict(obj), config).audit_log:
                assert entry.to_line() == reference_line(entry)


def test_cross_execution_logs_replay_clean():
    for obj in _tool_variants():
        for config in TOOL_CONFIGS:
            state = replay(AuditLog.from_lines(_log_text(scenario_from_dict(obj), config).splitlines()))
            assert state.ok, state.violations
