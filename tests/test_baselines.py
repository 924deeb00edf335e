from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck.baselines import (
    AblationConfig,
    DEFAULT_ABLATION_ROWS,
    evaluate_methods,
    majority_vote,
    pass_at_n,
    run_ablation,
    simple_verification,
)
from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.ensemble import parse_expert_output
from crosscheck.errors import InvalidConfigError
from crosscheck.scenario import Oracle, scenario_from_dict
from crosscheck.values import number, text, values_equal

from oracles import modal_value


def test_majority_clear_mode():
    assert values_equal(majority_vote([number(42), number(42), number(17)]), number(42))


def test_majority_tie_goes_to_first_asserter():
    assert values_equal(majority_vote([number(42), number(17)]), number(42))
    assert values_equal(majority_vote([number(17), number(42)]), number(17))


def test_majority_requires_input():
    with pytest.raises(InvalidConfigError):
        majority_vote([])


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_majority_matches_counting_oracle(raw):
    responses = [number(v) for v in raw]
    assert values_equal(majority_vote(responses), modal_value(responses))


def _sv_output(expert_id, confidence, response):
    return parse_expert_output(expert_id, {
        "steps": {"s1": {"value": response, "confidence": confidence}},
        "response": response,
    })


def test_sv_single_expert_identity():
    out = _sv_output("e01", 0.5, 7)
    assert values_equal(simple_verification([out]), number(7))


def test_sv_prefers_higher_confidence():
    outputs = [_sv_output("e01", 0.9, 1), _sv_output("e02", 0.4, 2)]
    assert values_equal(simple_verification(outputs), number(1))


def test_sv_chases_confidence_into_infeasibility_where_the_pipeline_does_not():
    # paired scenario: the confident response violates the response constraint
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "constraints": [{"id": "resp", "check": "kind", "scope": "response", "expect": "text"}],
        "experts": [
            {"expert_id": "e01", "class": "radical", "temperature": 0.9, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 9, "confidence": 0.95}}, "response": 9}]},
            {"expert_id": "e02", "class": "conservative", "temperature": 0.1, "seed": 2,
             "traces": [{"steps": {"s1": {"value": "paris", "confidence": 0.6}},
                         "response": "paris"}]},
        ],
        "oracle": {"answer": "paris"},
    }
    scenario = scenario_from_dict(obj, name="gap")
    from crosscheck.scenario import scenario_expert_outputs

    sv_answer = simple_verification(scenario_expert_outputs(scenario))
    assert values_equal(sv_answer, number(9))  # wins under SV
    result = run_pipeline(scenario)
    assert values_equal(result.answer, text("paris"))  # pruned away under the pipeline


def test_pass_at_n_membership():
    oracle = Oracle(answer=number(42))
    assert pass_at_n([number(17), number(42)], oracle) is True
    assert pass_at_n([number(17), number(18)], oracle) is False


@given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_pass_at_n_matches_membership_oracle(raw, truth):
    responses = [number(v) for v in raw]
    oracle = Oracle(answer=number(truth))
    assert pass_at_n(responses, oracle) == any(v == truth for v in raw)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_pass_at_n_monotone_in_n(raw, truth):
    oracle = Oracle(answer=number(truth))
    hits = [pass_at_n([number(v) for v in raw[:k]], oracle) for k in range(1, len(raw) + 1)]
    assert all(not earlier or later for earlier, later in zip(hits, hits[1:]))


def _unanimous_corpus(n=3):
    scenarios = []
    for i in range(n):
        obj = {
            "query": f"q{i}",
            "dag": {"steps": ["s1"], "edges": []},
            "experts": [
                {"expert_id": f"e0{j}", "class": "conservative", "temperature": 0.1, "seed": j,
                 "traces": [{"steps": {"s1": {"value": i, "confidence": 0.9}}, "response": i}]}
                for j in (1, 2)
            ],
            "oracle": {"answer": i},
        }
        scenarios.append(scenario_from_dict(obj, name=f"u{i:02d}"))
    return scenarios


def test_unanimous_corpus_is_a_ceiling_for_everyone():
    report = run_ablation(_unanimous_corpus())
    assert set(report.scores.values()) == {1.0}
    assert list(report.scores) == [row.label for row in DEFAULT_ABLATION_ROWS]


def test_audit_requires_synth():
    with pytest.raises(InvalidConfigError):
        AblationConfig("broken", facts=False, synth=False, audit=True)


@pytest.mark.parametrize("synth", [False, True])
def test_facts_require_audit(synth):
    # Facts reach a run only through the audited pipeline; such a row would
    # repeat the row without facts.
    with pytest.raises(InvalidConfigError):
        AblationConfig("inert", facts=True, synth=synth, audit=False)


def test_default_ablation_rows():
    assert [row.label for row in DEFAULT_ABLATION_ROWS] == ["baseline", "synthesis", "audited", "audited+facts"]


def test_adversarial_corpus_separates_methods():
    corpus = adversarial_corpus(size=8, master_seed=3)
    report = evaluate_methods(corpus, ["audit", "mv", "sv", "passn"],
                              EngineConfig(theta=3, budget=2))
    assert report.scores["audit"] == 1.0
    assert report.scores["mv"] == 0.0
    assert report.scores["sv"] <= 0.5
    assert report.scores["passn"] == 1.0
    assert len(report.verify_calls["audit"]) == 8


def test_ablation_rows_on_adversarial_corpus():
    corpus = adversarial_corpus(size=6, master_seed=5)
    report = run_ablation(corpus, config=EngineConfig(theta=3, budget=2))
    assert report.scores["audited"] == 1.0
    assert report.scores["audited+facts"] == 1.0
    assert report.scores["synthesis"] == 0.0  # confidence-chasing follows the wrong majority
    assert "audited" in report.verify_calls and "synthesis" not in report.verify_calls


def test_facts_gating_separates_ablation_rows():
    # e02 is confident but contradicts a seeded verified fact at the answer
    # step; with facts on the gate excises it, with facts off it wins on
    # confidence (no verdict table to overturn it)
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 5, "confidence": 0.6}}, "response": 5}]},
            {"expert_id": "e02", "class": "radical", "temperature": 0.9, "seed": 2,
             "traces": [{"steps": {"s1": {"value": 9, "confidence": 0.95}}, "response": 9}]},
        ],
        "facts_seed": [
            {"kind": "fact", "id": "f1", "category": "given", "key": "s1",
             "value": 5, "status": "verified", "version": 1, "derived_from": []},
        ],
        "oracle": {"answer": 5},
    }
    corpus = [scenario_from_dict(obj, name="facts-gap")]
    report = run_ablation(corpus)
    assert report.scores["audited+facts"] == 1.0
    assert report.scores["audited"] == 0.0


def test_methods_agree_on_unanimous_singletons():
    corpus, _ = random_corpus(master_seed=12, size=6)
    singletons = [s for s in corpus if len(s.experts) == 1]
    if not singletons:
        singletons = _unanimous_corpus(1)
    report = evaluate_methods(singletons, ["audit", "mv", "sv"])
    assert report.verdicts["audit"] == report.verdicts["mv"] == report.verdicts["sv"]


@given(st.integers(0, 2000))
@settings(max_examples=15, deadline=None)
def test_pass_at_n_dominates_on_random_corpora(master_seed):
    corpus, _ = random_corpus(master_seed=master_seed, size=4)
    report = evaluate_methods(corpus, ["audit", "mv", "sv", "passn"])
    ceiling = report.scores["passn"]
    assert all(report.scores[m] <= ceiling for m in ("audit", "mv", "sv"))


def test_empty_corpus_rejected():
    with pytest.raises(InvalidConfigError):
        evaluate_methods([], ["mv"])


def test_unknown_method_rejected():
    with pytest.raises(InvalidConfigError):
        evaluate_methods(_unanimous_corpus(1), ["voting"])


@pytest.mark.parametrize("methods", [[], ["passn", "passn"], ["mv", "passn", "mv"]])
def test_empty_or_repeated_methods_rejected(methods):
    # A repeated method was scored twice: passn read 2.0 and the table 8/4.
    with pytest.raises(InvalidConfigError):
        evaluate_methods(adversarial_corpus(4), methods)


@pytest.mark.parametrize("rows", [
    [],
    [DEFAULT_ABLATION_ROWS[0]] * 2,
    [DEFAULT_ABLATION_ROWS[1], DEFAULT_ABLATION_ROWS[0],
     AblationConfig("synthesis", facts=False, synth=True, audit=True)],
])
def test_empty_or_repeated_ablation_rows_rejected(rows):
    # A repeated row was scored twice: baseline read 2.0 and the table 8/4; no rows gave an empty report.
    with pytest.raises(InvalidConfigError):
        run_ablation(adversarial_corpus(4), rows)


def test_missing_oracle_rejected():
    scenario = _unanimous_corpus(1)[0]
    scenario.oracle = None
    with pytest.raises(InvalidConfigError):
        evaluate_methods([scenario], ["mv"])


def test_report_table_and_json_shapes():
    report = evaluate_methods(_unanimous_corpus(2), ["mv", "passn"])
    table = report.to_table()
    assert "mv" in table and "passn" in table
    payload = report.to_json()
    assert payload["scores"]["mv"] == 1.0
    assert len(payload["scenarios"]) == 2
    assert sorted(payload["params"]) == ["budget", "gate_threshold", "theta", "weights"]
    assert sorted(run_ablation(_unanimous_corpus(2)).params) == ["budget", "rows", "theta"]


def _all_failed(name):
    return scenario_from_dict({
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "experts": [{"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1,
                     "seed": i, "fail": True} for i in (1, 2)],
        "oracle": {"answer": 5},
    }, name=name)


def test_all_experts_failed_scores_abstain_not_abort():
    corpus = [_all_failed("a-failed"), *random_corpus(master_seed=3, size=2)[0]]
    report = evaluate_methods(corpus, ["audit", "mv", "sv", "passn"])
    assert report.scenario_names[0] == "a-failed"
    assert {m: report.verdicts[m][0] for m in report.verdicts} == {
        "audit": "abstain", "mv": "abstain", "sv": "abstain", "passn": "wrong"}
    assert all(len(v) == 3 for v in report.verdicts.values())
    ablation = run_ablation(corpus)
    assert {label: v[0] for label, v in ablation.verdicts.items()} == {
        row.label: "abstain" for row in DEFAULT_ABLATION_ROWS}


def test_sv_requires_input():
    with pytest.raises(InvalidConfigError):
        simple_verification([])


@pytest.mark.parametrize("corpus", [
    random_corpus(3, 60, GeneratorParams(with_constraints=True, with_facts=True))[0],
    adversarial_corpus(6),
    [_all_failed("a-failed"), *random_corpus(master_seed=3, size=2)[0]],
], ids=["random", "adversarial", "all-failed"])
def test_methods_and_ablation_rows_agree_where_they_name_one_answerer(corpus):
    # sv is the synthesis row, and audit the audited row with facts as its config says.
    ablation = run_ablation(corpus, config=EngineConfig())
    methods = evaluate_methods(corpus, ["audit", "sv"], EngineConfig())
    no_facts = evaluate_methods(corpus, ["audit"], EngineConfig(facts_enabled=False))
    assert methods.verdicts["sv"] == ablation.verdicts["synthesis"]
    assert "sv" not in methods.verify_calls and "synthesis" not in ablation.verify_calls
    assert methods.verdicts["audit"] == ablation.verdicts["audited+facts"]
    assert methods.verify_calls["audit"] == ablation.verify_calls["audited+facts"]
    assert no_facts.verdicts["audit"] == ablation.verdicts["audited"]
    assert no_facts.verify_calls["audit"] == ablation.verify_calls["audited"]
