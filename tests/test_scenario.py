from __future__ import annotations

import json

import pytest

from crosscheck.corpus import GeneratorParams, random_scenario
from crosscheck.errors import ParseError, UnknownIdError, ValidationError
from crosscheck.scenario import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from crosscheck.values import number, values_equal


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
])
def test_malformed_scenario_is_validation_error(obj, field):
    with pytest.raises(ValidationError, match=field):
        scenario_from_dict(obj)


def test_tool_runner_resolves_scripts():
    obj = _minimal(tool_scripts={'calc|{"expr":"6*7"}': 42})
    scenario = scenario_from_dict(obj)
    runner = scenario.tool_runner()
    assert values_equal(runner("calc", {"expr": "6*7"}), number(42))
    with pytest.raises(UnknownIdError):
        runner("calc", {"expr": "1+1"})


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"query": "q", }', encoding="utf-8")
    with pytest.raises(ParseError, match=r"broken\.json:1:"):
        load_scenario(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


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
