from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck import engine, ensemble, facts, values, verifiers
from crosscheck.auditlog import replay
from crosscheck.baselines import majority_vote
from crosscheck.corpus import GeneratorParams, adversarial_scenario, random_corpus, random_scenario
from crosscheck.engine import (
    AuditBudget,
    EngineConfig,
    GatedTrace,
    anchor,
    conflicts,
    rank_conflicts,
    run_audit,
    run_pipeline,
    statements,
    synthesize,
)
from crosscheck.ensemble import parse_expert_output
from crosscheck.errors import InvalidConfigError, InvalidThetaError, NoFeasibleCandidateError
from crosscheck.facts import FactStore
from crosscheck.plandag import build_plan
from crosscheck.scenario import scenario_expert_outputs, scenario_from_dict, scenario_to_dict
from crosscheck.values import (NUMBER, Value, format_literal, number, parse_literal, parse_statement_key, statement_key,
                              values_equal)
from crosscheck.verifiers import Constraint, OperatorRegistry, ScriptedTableOperator

from oracles import Stmt, count_filter_anchors, flat_pool, pairwise_conflicts, synthesis_score, trace, trace_rows
from test_golden_digest import _golden_runs


def _output(expert_id, values, response, confidence=0.8):
    return parse_expert_output(expert_id, {
        "steps": {s: {"value": v, "confidence": confidence} for s, v in values.items()},
        "analysis": "t",
        "response": response,
    })


def _stmt(step, value, expert, confidence=0.8):
    return Stmt(step, number(value) if isinstance(value, (int, float)) else value, expert, confidence)


def _gated(outputs):
    return [GatedTrace(output, i) for i, output in enumerate(outputs)]


def _anchored(anchors):
    """The anchors by step, steps ascending."""
    return {a.step: a for a in anchors.items()}


def _table(pool):
    """The engine's table over a statement list: one single-step trace per statement, in pool order."""
    return statements(_gated(trace(s.expert_id, {s.step: (s.value, s.confidence)}, s.value) for s in pool))


# --- statements ---------------------------------------------------------------

def test_statements_counts_duplicates():
    a = _output("e01", {"s1": 1, "s2": 2, "s3": 3}, 3)
    b = _output("e02", {"s1": 1, "s2": 2, "s3": 3}, 3)
    pool = statements(_gated([a, b]))
    assert len(pool) == 6
    distinct = {(step, format_literal(value)) for step, sc in pool.steps.items() for value, _, _ in sc.groups}
    assert len(distinct) == 3


def test_statements_empty():
    assert len(statements([])) == 0 and statements([]).steps == {}


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_statements_cardinality_oracle(seed):
    scenario = random_scenario(seed)
    outputs = [parse_expert_output(e.config.expert_id, e.raw_traces[0]) for e in scenario.experts]
    pool = statements(_gated(outputs))
    assert len(pool) == sum(len(o.step_ids) for o in outputs)


# --- anchoring ------------------------------------------------------------------

def test_anchor_quorum_met():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3")]
    anchors, collisions = anchor(_table(pool), theta=2)
    assert collisions == []
    assert list(_anchored(anchors)) == ["s"]
    assert values_equal(_anchored(anchors)["s"].value, number(42))
    assert _anchored(anchors)["s"].supporters == ("e1", "e2")


def test_anchor_quorum_unmet():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3")]
    anchors, _ = anchor(_table(pool), theta=3)
    assert len(anchors) == 0


def test_anchor_theta_below_two_rejected():
    with pytest.raises(InvalidThetaError):
        anchor(_table([]), theta=1)


def test_anchor_collision_tie_goes_to_conflicts():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3"), _stmt("s", 17, "e4")]
    anchors, collisions = anchor(_table(pool), theta=2)
    assert len(anchors) == 0
    assert collisions == ["s"]
    conflict_set = conflicts(_table(pool), anchors)
    assert conflict_set.steps() == ("s",)


def test_anchor_collision_majority_wins():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 42, "e5"),
            _stmt("s", 17, "e3"), _stmt("s", 17, "e4")]
    anchors, collisions = anchor(_table(pool), theta=2)
    assert collisions == []
    assert values_equal(_anchored(anchors)["s"].value, number(42))


def test_anchor_counts_distinct_experts_not_traces():
    # one expert asserting twice does not reach a quorum of two
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e1")]
    anchors, _ = anchor(_table(pool), theta=2)
    assert len(anchors) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_anchor_matches_count_filter_oracle(seed):
    scenario = random_scenario(seed)
    outputs = [parse_expert_output(e.config.expert_id, e.raw_traces[0]) for e in scenario.experts]
    pool = flat_pool(outputs)
    anchors, _ = anchor(statements(_gated(outputs)), theta=2)
    got = {a.step: format_literal(a.value) for a in anchors.items()}
    assert got == count_filter_anchors(pool, 2)


# --- conflicts ------------------------------------------------------------------

def test_conflicts_empty_on_unanimity():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2")]
    anchors, _ = anchor(_table(pool), theta=2)
    assert len(conflicts(_table(pool), anchors)) == 0


def test_conflicts_below_quorum():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 17, "e2")]
    anchors, _ = anchor(_table(pool), theta=2)
    conflict_set = conflicts(_table(pool), anchors)
    item = conflict_set.get("s")
    assert len(item.candidates) == 2
    literals = {format_literal(c.value) for c in item.candidates}
    assert literals == {"num:42", "num:17"}


def test_anchored_step_excluded_despite_dissent():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3")]
    anchors, _ = anchor(_table(pool), theta=2)
    assert "s" in anchors
    assert len(conflicts(_table(pool), anchors)) == 0


def test_single_expert_disagreeing_with_itself_is_no_conflict():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 17, "e1")]
    anchors, _ = anchor(_table(pool), theta=2)
    assert len(conflicts(_table(pool), anchors)) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_conflicts_match_pairwise_oracle(seed):
    scenario = random_scenario(seed)
    outputs = [parse_expert_output(e.config.expert_id, e.raw_traces[0]) for e in scenario.experts]
    pool = flat_pool(outputs)
    table = statements(_gated(outputs))
    anchors, _ = anchor(table, theta=2)
    conflict_set = conflicts(table, anchors)
    assert set(conflict_set.steps()) == pairwise_conflicts(pool, set(_anchored(anchors)))


# --- ranking --------------------------------------------------------------------

def test_rank_singleton():
    pool = [_stmt("s", 1, "e1", 0.9), _stmt("s", 2, "e2", 0.2)]
    anchors, _ = anchor(_table(pool), theta=2)
    conflict_set = conflicts(_table(pool), anchors)
    dag = build_plan(["s"], [])
    assert rank_conflicts(conflict_set, dag, _table(pool)) == ["s"]


def test_rank_prefers_root_with_dependents():
    dag = build_plan(["root", "x1", "x2", "x3", "sink"],
                     [("root", "x1"), ("root", "x2"), ("root", "x3")])
    pool = []
    for step in ("root", "sink"):
        pool += [_stmt(step, 1, "e1", 0.9), _stmt(step, 2, "e2", 0.5)]
    anchors, _ = anchor(_table(pool), theta=2)
    conflict_set = conflicts(_table(pool), anchors)
    # equal spreads (0.4); root has 3 dependents, sink none
    assert rank_conflicts(conflict_set, dag, _table(pool)) == ["root", "sink"]


def test_rank_ties_break_by_step_id():
    dag = build_plan(["a", "b", "c"], [])
    pool = []
    for step in ("c", "a", "b"):
        pool += [_stmt(step, 1, "e1", 0.7), _stmt(step, 2, "e2", 0.3)]
    anchors, _ = anchor(_table(pool), theta=2)
    conflict_set = conflicts(_table(pool), anchors)
    assert rank_conflicts(conflict_set, dag, _table(pool)) == ["a", "b", "c"]


# --- auditing -------------------------------------------------------------------

def _scripted(table):
    """The scripted operator over a ``{statement key: verdict}`` table, decoded as loading does."""
    return ScriptedTableOperator([(*parse_statement_key(key), table[key]) for key in sorted(table)])


def _audit_fixture(n_steps, table, b_max):
    steps = [f"s{i:02d}" for i in range(n_steps)]
    dag = build_plan(steps, [])
    pool = []
    for step in steps:
        pool += [_stmt(step, 1, "e1", 0.9), _stmt(step, 2, "e2", 0.5)]
    anchors, _ = anchor(_table(pool), theta=2)
    conflict_set = conflicts(_table(pool), anchors)
    ranked = rank_conflicts(conflict_set, dag, _table(pool))
    registry = OperatorRegistry().register(_scripted(table))
    budget = AuditBudget(b_max=b_max)
    from crosscheck.auditlog import AuditLog

    log = AuditLog()
    for item in conflict_set.items():
        log.append("audit", "conflict", {"step": item.step})
    run_audit(ranked, conflict_set, anchors, budget, registry, _table(pool), log)
    return anchors, conflict_set, budget, log


def test_budget_caps_verify_calls():
    table = {statement_key(f"s{i:02d}", number(1)): "support" for i in range(10)}
    anchors, conflict_set, budget, log = _audit_fixture(10, table, b_max=3)
    verify_events = [e for e in log if e.stage == "audit" and e.event == "verify"]
    assert len(verify_events) == 3
    assert budget.consumed == 3
    assert sum(item.state == "open" for item in conflict_set.items()) == 7


def test_supported_value_promoted_to_anchor():
    table = {statement_key("s00", number(1)): "support"}
    anchors, conflict_set, budget, _ = _audit_fixture(1, table, b_max=4)
    assert "s00" in anchors
    assert conflict_set.get("s00").state == "supported"
    assert budget.consumed == 1


def test_minority_value_wins_after_majority_refuted():
    steps = ["s"]
    dag = build_plan(steps, [])
    pool = [_stmt("s", 7, "e1", 0.6), _stmt("s", 9, "e2", 0.9), _stmt("s", 9, "e3", 0.9)]
    anchors, _ = anchor(_table(pool), theta=3)
    conflict_set = conflicts(_table(pool), anchors)
    item = conflict_set.get("s")
    assert [format_literal(c.value) for c in item.candidates] == ["num:9", "num:7"]
    table = {statement_key("s", number(9)): "refute", statement_key("s", number(7)): "support"}
    registry = OperatorRegistry().register(_scripted(table))
    budget = AuditBudget(b_max=2)
    from crosscheck.auditlog import AuditLog

    run_audit(["s"], conflict_set, anchors, budget, registry, _table(pool), AuditLog())
    assert budget.consumed == 2
    assert values_equal(_anchored(anchors)["s"].value, number(7))
    assert item.state == "supported"
    assert [format_literal(v) for v in item.refuted_values] == ["num:9"]


def test_all_refuted_resolves_refuted():
    table = {statement_key("s00", number(1)): "refute", statement_key("s00", number(2)): "refute"}
    _, conflict_set, budget, _ = _audit_fixture(1, table, b_max=5)
    assert conflict_set.get("s00").state == "refuted"
    assert budget.consumed == 2


def test_undecided_resolves_inconclusive_and_still_spends():
    _, conflict_set, budget, _ = _audit_fixture(1, {}, b_max=5)
    assert conflict_set.get("s00").state == "inconclusive"
    assert budget.consumed == 2  # inconclusive statements still consume budget


def test_budget_exhausted_mid_item_leaves_it_open():
    table = {statement_key("s00", number(1)): "refute", statement_key("s00", number(2)): "support"}
    _, conflict_set, budget, _ = _audit_fixture(1, table, b_max=1)
    assert conflict_set.get("s00").state == "open"
    assert budget.consumed == 1


# --- synthesis ------------------------------------------------------------------

def test_synthesize_single_expert_degenerate():
    from crosscheck.engine import AnchorSet, ConflictSet

    trace = _output("e01", {"s1": 5}, 5, confidence=0.7)
    winner, score, fallback = synthesize(
        statements([GatedTrace(trace, 0)]), AnchorSet(), ConflictSet(), (0.5, 0.3, 0.2)
    )
    assert winner.expert_id == "e01"
    assert score.anchor_support == 1.0  # vacuous with no anchors
    assert score.conflict_agreement == 0.5  # neutral with nothing resolved
    assert score.mean_confidence == 0.7
    assert not fallback


def test_synthesize_anchor_dominance():
    from crosscheck.engine import Anchor, AnchorSet, ConflictSet

    anchors = AnchorSet()
    for i, v in enumerate((1, 2, 3)):
        anchors.add(Anchor(f"s{i}", number(v), ("e01", "e02")))
    agree = _output("e01", {"s0": 1, "s1": 2, "s2": 3}, 3, confidence=0.5)
    dissent = _output("e02", {"s0": 1, "s1": 9, "s2": 9}, 9, confidence=0.5)
    winner, score, _ = synthesize(
        statements([GatedTrace(agree, 0), GatedTrace(dissent, 1)]),
        anchors, ConflictSet(), (0.5, 0.3, 0.2),
    )
    assert winner.expert_id == "e01"
    assert score.anchor_support == 1.0


def test_synthesize_raises_without_candidates():
    from crosscheck.engine import AnchorSet, ConflictSet

    with pytest.raises(NoFeasibleCandidateError):
        synthesize(statements([]), AnchorSet(), ConflictSet(), (0.5, 0.3, 0.2))


def test_synthesize_tie_breaks_to_lowest_expert_id():
    from crosscheck.engine import AnchorSet, ConflictSet

    a = _output("e02", {"s1": 5}, 5, confidence=0.6)
    b = _output("e01", {"s1": 7}, 7, confidence=0.6)
    winner, _, _ = synthesize(
        statements([GatedTrace(a, 1), GatedTrace(b, 0)]),
        AnchorSet(), ConflictSet(), (0.5, 0.3, 0.2),
    )
    assert winner.expert_id == "e01"


# --- full pipeline ----------------------------------------------------------------

def _unanimous_scenario():
    trace = {"steps": {"s1": {"value": 10, "confidence": 0.9},
                       "s2": {"value": 20, "confidence": 0.9}},
             "analysis": "a", "response": 20}
    return scenario_from_dict({
        "query": "q",
        "dag": {"steps": ["s1", "s2"], "edges": [["s1", "s2"]]},
        "experts": [
            {"expert_id": f"e0{i}", "class": "radical" if i > 1 else "conservative",
             "temperature": 0.1 * i, "seed": i, "traces": [dict(trace)]}
            for i in (1, 2, 3)
        ],
        "oracle": {"answer": 20, "truth": {"s1": 10, "s2": 20}},
    }, name="unanimous")


def test_unanimous_consensus_short_circuits():
    result = run_pipeline(_unanimous_scenario())
    assert values_equal(result.answer, number(20))
    assert len(result.conflicts) == 0
    assert result.verify_calls == 0
    assert list(_anchored(result.anchors)) == ["s1", "s2"]


def test_zero_budget_synthesis_on_anchors_alone():
    scenario = adversarial_scenario(3)
    result = run_pipeline(scenario, EngineConfig(theta=3, budget=0))
    assert result.verify_calls == 0
    assert any(e.stage == "audit" for e in result.audit_log)  # conflicts still registered


def test_adversarial_majority_is_overturned():
    scenario = adversarial_scenario(11)
    result = run_pipeline(scenario, EngineConfig(theta=3, budget=2))
    assert values_equal(result.answer, scenario.oracle.answer)
    responses = [o.response for o in scenario_expert_outputs(scenario)]
    assert not values_equal(majority_vote(responses), scenario.oracle.answer)
    assert result.verify_calls == 2


def _tolerance_edge_scenario():
    """Both values lie within tolerance of the verified fact at s1, so the gate
    keeps both, but not of each other, so s1 is a conflict."""
    return scenario_from_dict({
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "experts": [
            {"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1, "seed": i,
             "traces": [{"steps": {"s1": {"value": value, "confidence": 0.9}}, "response": value}]}
            for i, value in ((1, 1_000_000_000), (2, 1_000_000_002))
        ],
        "facts_seed": [{"kind": "fact", "id": "f1", "category": "given", "key": "s1",
                        "value": 1_000_000_001, "status": "verified"}],
    }, name="tolerance-edge")


def test_tolerance_edge_conflict_is_left_to_synthesis():
    # Both candidates agree with the fact, so the facts cannot tell them apart:
    # the one verify call is inconclusive, and synthesis breaks the tie.
    result = run_pipeline(_tolerance_edge_scenario())
    verifies = [e.payload for e in result.audit_log if e.stage == "audit" and e.event == "verify"]
    assert [(v["verdict"], v["operator"], v["evidence"], v["cost"]) for v in verifies] == [
        ("inconclusive", None, [], 1)
    ]
    assert result.winner_expert == "e01"
    assert replay(result.audit_log).ok


def test_every_conflict_candidate_agrees_with_the_verified_facts_at_its_step():
    # The audit asks no facts question because the gate already answered it for every candidate.
    runs = _golden_runs() + [(_tolerance_edge_scenario(), EngineConfig())]
    checked = 0
    for scenario, config in runs:
        result = run_pipeline(scenario, config)
        verified = result.facts.verified_by_key()
        for entry in result.audit_log:
            if entry.stage == "audit" and entry.event == "conflict" and entry.payload["step"] in verified:
                same_key = verified[entry.payload["step"]]
                for literal in entry.payload["candidates"]:
                    assert facts.conflicting_fact_ids(same_key, parse_literal(literal)) == (), (scenario.name, literal)
                    checked += 1
    assert checked >= 2


def test_fallback_rescores_over_non_refuted():
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 1, "confidence": 0.9}}, "response": 1}]},
            {"expert_id": "e02", "class": "radical", "temperature": 0.9, "seed": 2,
             "traces": [{"steps": {"s1": {"value": 2, "confidence": 0.5}}, "response": 2}]},
        ],
        "verdict_table": {
            statement_key("s1", number(1)): "refute",
            statement_key("s1", number(2)): "refute",
        },
    }
    result = run_pipeline(scenario_from_dict(obj, name="allbad"), EngineConfig(budget=4))
    assert result.fallback_used
    assert result.answer is not None
    assert result.winner_expert == "e01"  # symmetric after exclusion; lowest id wins


def test_infeasible_everything_abstains_with_partial_result():
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "constraints": [{"id": "resp", "check": "kind", "scope": "response", "expect": "text"}],
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 1, "confidence": 0.9}}, "response": 1}]},
        ],
    }
    partial = run_pipeline(scenario_from_dict(obj, name="infeasible"))
    assert partial is not None
    assert partial.answer is None
    assert list(partial.audit_log)
    rejects = [e.payload for e in partial.audit_log if e.stage == "gate" and e.event == "reject"]
    assert rejects[0]["reason"] == "infeasible-response"
    assert partial.abstained
    assert replay(partial.audit_log).ok
    last = list(partial.audit_log)[-1]
    assert (last.stage, last.event) == ("synthesize", "abstain")


def test_a_run_abstains_exactly_when_its_log_ends_in_an_abstention():
    infeasible = scenario_from_dict({
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "constraints": [{"id": "resp", "check": "kind", "scope": "response", "expect": "text"}],
        "experts": [
            {"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1, "seed": i,
             "traces": [{"steps": {"s1": {"value": i, "confidence": 0.9}}, "response": i}]}
            for i in (1, 2)
        ],
    }, name="infeasible")
    corpus, _ = random_corpus(3, 30, GeneratorParams(with_constraints=True, with_facts=True))
    outcomes = Counter()
    for scenario in [infeasible, *corpus]:
        result = run_pipeline(scenario)
        last = list(result.audit_log)[-1]
        assert result.abstained == ((last.stage, last.event) == ("synthesize", "abstain")), scenario.name
        assert result.abstained == (result.answer is None and result.winner_expert is None and result.score is None)
        outcomes[result.abstained] += 1
    assert outcomes[True] == 1 and outcomes[False] == 30


def test_backtrack_salvages_low_scoring_traces():
    # every trace fails the default threshold, but responses are feasible:
    # the backtracking fallback keeps the upstream fragments
    obj = {
        "query": "q",
        "dag": {"steps": ["s1", "s2", "s3", "s4"],
                "edges": [["s1", "s2"], ["s2", "s3"], ["s3", "s4"]]},
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {s: {"value": i, "confidence": 0.8}
                                   for i, s in enumerate(["s1", "s2", "s3", "s4"])},
                         "response": 3}]},
        ],
        "facts_seed": [
            {"kind": "fact", "id": "f1", "category": "given", "key": "s2",
             "value": 99, "status": "verified", "version": 1, "derived_from": []},
        ],
    }
    result = run_pipeline(scenario_from_dict(obj, name="salvage"), EngineConfig(gate_threshold=0.5))
    assert result.answer is not None
    assert [e.event for e in result.audit_log if e.stage == "prune"].count("backtrack") == 1
    retained_steps = set(result.retained[0].trace.step_ids)
    assert retained_steps == {"s1"}


def test_excised_claims_still_count_against_candidates():
    # e01 is confidently wrong at the answer step; the gate excises that
    # statement (verified fact), but the excision must not launder e01's
    # anchor disagreement away — its original claim still counts.
    def block(expert_id, klass, sb_value, confidence):
        return {
            "expert_id": expert_id, "class": klass, "temperature": 0.1, "seed": 1,
            "traces": [{"steps": {"sA": {"value": 1, "confidence": confidence},
                                  "sB": {"value": sb_value, "confidence": confidence}},
                        "response": sb_value}],
        }

    obj = {
        "query": "q",
        "dag": {"steps": ["sA", "sB"], "edges": []},
        "experts": [
            block("e01", "radical", 93, 0.99),
            block("e02", "conservative", 92, 0.55),
            block("e03", "conservative", 92, 0.55),
        ],
        "facts_seed": [
            {"kind": "fact", "id": "f1", "category": "given", "key": "sB",
             "value": 92, "status": "verified", "version": 1, "derived_from": []},
        ],
        "oracle": {"answer": 92},
    }
    result = run_pipeline(scenario_from_dict(obj, name="laundering"))
    assert values_equal(result.answer, number(92))
    assert result.winner_expert in ("e02", "e03")


def test_scripted_expert_failure_is_logged_and_run_proceeds():
    obj = {
        "query": "q",
        "dag": {"steps": ["s1"], "edges": []},
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 1, "confidence": 0.9}}, "response": 1}]},
            {"expert_id": "e02", "class": "radical", "temperature": 0.9, "seed": 2,
             "traces": [], "fail": True},
        ],
    }
    result = run_pipeline(scenario_from_dict(obj, name="partial"))
    failures = [e for e in result.audit_log if e.stage == "ensemble" and e.event == "expert_failure"]
    assert len(failures) == 1
    assert failures[0].payload["expert"] == "e02"
    assert values_equal(result.answer, number(1))


def test_run_is_replay_deterministic_and_replayable():
    scenario = adversarial_scenario(21)
    config = EngineConfig(theta=3, budget=2)
    first = run_pipeline(scenario, config)
    second = run_pipeline(scenario, config)
    assert first.audit_log.to_text() == second.audit_log.to_text()
    state = replay(first.audit_log)
    assert state.ok, state.violations
    assert state.anchors == {a.step: format_literal(a.value) for a in first.anchors.items()}
    assert state.verify_calls == first.verify_calls


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_budget_bound_on_random_scenarios(seed):
    scenario = random_scenario(seed)
    result = run_pipeline(scenario)
    assert result.verify_calls <= min(len(result.conflicts), 16)
    verify_events = [e for e in result.audit_log if e.stage == "audit" and e.event == "verify"]
    assert len(verify_events) == result.verify_calls


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_anchored_steps_never_open_conflicts(seed):
    result = run_pipeline(random_scenario(seed))
    open_steps = {item.step for item in result.conflicts.items() if item.state == "open"}
    assert not (set(_anchored(result.anchors)) & open_steps)


@given(st.integers(0, 10**6), st.floats(0.1, 50.0))
@settings(max_examples=30, deadline=None)
def test_weight_scaling_preserves_answer(seed, scale):
    scenario = random_scenario(seed)
    base = EngineConfig()
    scaled = EngineConfig(weights=tuple(w * scale for w in base.weights))
    a = run_pipeline(scenario, base)
    b = run_pipeline(scenario, scaled)
    assert format_literal(a.answer) == format_literal(b.answer)
    assert a.winner_expert == b.winner_expert


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_synthesis_matches_direct_formula_oracle(seed):
    scenario = random_scenario(seed)
    config = EngineConfig()
    result = run_pipeline(scenario, config)
    anchors = {a.step: a.value for a in result.anchors.items()}
    supported = result.conflicts.supported_statements()
    refuted = result.conflicts.refuted_statements()
    weights = config.normalized_weights
    best_total, best_expert = None, None
    for gt in sorted(result.retained, key=lambda g: (g.expert_id, g.trace_index)):
        asserted = {s: (value, confidence) for s, value, confidence, _ in trace_rows(gt.asserted)}
        surviving = {s: (value, confidence) for s, value, confidence, _ in trace_rows(gt.trace)}
        if result.fallback_used:
            def drop_refuted(steps):
                return {
                    s: vc for s, vc in steps.items()
                    if not any(s == rs and values_equal(vc[0], rv) for rs, rv in refuted)
                }
            asserted = drop_refuted(asserted)
            surviving = drop_refuted(surviving)
        total = synthesis_score(asserted, surviving, anchors, supported, refuted, weights)
        if best_total is None or total > best_total:
            best_total, best_expert = total, gt.expert_id
    assert result.winner_expert == best_expert
    assert result.score.total == pytest.approx(best_total, abs=1e-12)


@pytest.mark.parametrize("weights", [
    (float("nan"), 1.0, 1.0),
    (1.0, float("inf"), 1.0),
    (1.0, 1.0, float("-inf")),
    (1e308, 1e308, 1.0),  # each finite, but the sum overflows
])
def test_config_rejects_non_finite_weights(weights):
    with pytest.raises(InvalidConfigError):
        EngineConfig(weights=weights)


@pytest.mark.parametrize("theta", [2.5, 3.0, float("nan"), float("inf"), True, "3"])
def test_config_rejects_a_theta_that_is_not_an_int(theta):
    with pytest.raises(InvalidThetaError):
        EngineConfig(theta=theta)


@pytest.mark.parametrize("budget", [1.5, 0.5, 2.0, float("nan"), float("inf"), True, False, -1])
def test_config_rejects_a_budget_that_is_not_a_nonnegative_int(budget):
    with pytest.raises(InvalidConfigError):
        EngineConfig(theta=3, budget=budget)


@pytest.mark.parametrize("threshold", [True, False, "0.5", None, float("nan"), 1.5, -0.1])
def test_config_rejects_a_gate_threshold_that_is_not_a_real_in_range(threshold):
    with pytest.raises(InvalidConfigError, match="gate_threshold"):
        EngineConfig(gate_threshold=threshold)


@pytest.mark.parametrize("weights", [
    (True, 0.3, 0.2),
    [0.5, 0.3, 0.2],  # a list would make the frozen config unhashable
    ("a", 0.3, 0.2),
    (0.5, None, 0.2),
    (0.5, 0.3),
    "abc",
])
def test_config_rejects_weights_that_are_not_three_reals(weights):
    with pytest.raises(InvalidConfigError, match="weights"):
        EngineConfig(weights=weights)


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_config_rejects_a_facts_enabled_that_is_not_a_bool(flag):
    with pytest.raises(InvalidConfigError, match="facts_enabled"):
        EngineConfig(facts_enabled=flag)


def test_config_accepts_int_settings_and_logs_them_as_given():
    config = EngineConfig(gate_threshold=1, weights=(1, 0, 0), facts_enabled=False)
    assert hash(config) == hash(EngineConfig(gate_threshold=1, weights=(1, 0, 0), facts_enabled=False))
    payload = next(e for e in run_pipeline(adversarial_scenario(3), config).audit_log if e.stage == "ensemble").payload
    assert (payload["gate_threshold"], payload["weights"], payload["facts_enabled"]) == (1, [1.0, 0.0, 0.0], False)


def test_config_budget_caps_verify_calls_at_its_int_value():
    scenario = adversarial_scenario(3)
    for budget in (0, 1, 2):
        result = run_pipeline(scenario, EngineConfig(theta=3, budget=budget))
        plan = [e.payload for e in result.audit_log if e.stage == "audit" and e.event == "plan"]
        assert plan and plan[0]["budget"] == budget
        assert result.verify_calls <= budget
        result.audit_log.to_text()


# --- scaling guards ---------------------------------------------------------------

def test_statement_stages_compare_classes_not_statements(monkeypatch):
    # 57 experts x 31 steps: the shape the `wide` benchmark is made of.
    params = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4, edge_prob=0.1,
                             with_constraints=True)
    scenario = random_scenario(3, params)
    equal_calls = [0]
    real_equal = values.values_equal

    def counting_equal(a, b):
        equal_calls[0] += 1
        return real_equal(a, b)

    for module in (engine, values, verifiers, facts):
        monkeypatch.setattr(module, "values_equal", counting_equal)
    applied = Counter()
    real_applies = Constraint.applies_to_step

    def counting_applies(self, step):
        applied[(step, self.id)] += 1
        return real_applies(self, step)

    monkeypatch.setattr(Constraint, "applies_to_step", counting_applies)
    table_sizes = []
    real_statements = engine.statements
    monkeypatch.setattr(engine, "statements", lambda retained, index=None: table_sizes.append(
                        len(real_statements(retained, index))) or real_statements(retained, index))

    result = run_pipeline(scenario)
    retained = sum(len(gt.trace.step_ids) for gt in result.retained)
    assert retained > 1000 and len(scenario.constraints) > 0
    assert equal_calls[0] < retained / 2
    assert set(applied) <= {(step, c.id) for step in scenario.dag.steps for c in scenario.constraints}
    assert max(applied.values()) == 1
    assert table_sizes == [retained]


def test_statements_check_each_value_object_for_an_exact_key_once(monkeypatch):
    # A loaded scenario shares one object per printed value, so a step's
    # classes are its distinct values, not its statements. The load builds
    # the index, and checks each value object once per step it opens a class at.
    params = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4, edge_prob=0.1,
                             with_constraints=True)
    keyed = []
    real_key = ensemble._exact_key
    monkeypatch.setattr(ensemble, "_exact_key", lambda value: keyed.append(value) or real_key(value))
    scenario = random_scenario(3, params)
    assert len(keyed) == len(scenario.statement_index.reps)
    tables = []
    real_statements = engine.statements
    monkeypatch.setattr(engine, "statements", lambda retained, index=None: tables.append(
                        real_statements(retained, index)) or tables[-1])

    run_pipeline(scenario)
    (table,) = tables
    assert table.index is scenario.statement_index
    assert len(keyed) == len(scenario.statement_index.reps)  # the run checks no key
    assert len(keyed) < len(table) / 5


def _classes_per_step(index):
    """The number of classes at each of the index's steps, read from its packed holder masks."""
    for packed in index.holders:
        count = 0
        while packed:
            count, packed = count + 1, packed >> len(index.outputs)
        yield count


def test_a_load_compares_each_pair_of_a_steps_classes_once(monkeypatch):
    params = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4, edge_prob=0.1,
                             with_constraints=True)
    data = scenario_to_dict(random_scenario(3, params))
    calls = []
    real_equal = ensemble.values_equal
    monkeypatch.setattr(ensemble, "values_equal", lambda a, b: calls.append((a, b)) or real_equal(a, b))
    scenario = scenario_from_dict(data)
    assert len(calls) == sum(k * (k - 1) // 2 for k in _classes_per_step(scenario.statement_index)) > 100
    # A value without a key is a class of its own at each statement; each
    # of its classes is compared once with each other class, and the value once with itself.
    nan, one = Value(NUMBER, float("nan")), number(1)
    outputs = [trace(f"e{i}", {"a": (value, 0.9, ())}, number(0)) for i, value in enumerate([nan, nan, one, one, nan])]
    calls.clear()
    index = ensemble.index_statements(outputs)
    assert list(_classes_per_step(index)) == [4] and len(calls) == 4 * 3 // 2 + 1


@given(st.integers(0, 600), st.integers(1, 40), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_per_position_counts_match_a_bit_by_bit_count(n_masks, width, rng):
    # Both of its paths, and more masks than one base-256 digit can count.
    masks = [rng.getrandbits(width) for _ in range(n_masks)]
    positions = tuple(sorted(rng.sample(range(width), rng.randint(1, width))))
    assert engine._per_position(masks, positions) == [sum(mask >> p & 1 for mask in masks) for p in positions]


def test_a_loaded_index_serves_runs_under_any_config():
    # The index is built at load and only read by runs: runs under one config
    # leave nothing behind that a later run under another config would read.
    params = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4, edge_prob=0.1,
                             with_constraints=True)
    a = EngineConfig()
    b = EngineConfig(theta=3, gate_threshold=0.95, facts_enabled=False)  # retains 26 of the wide scenario's 57 traces
    for generated in (random_scenario(3, params), adversarial_scenario(11)):
        data = scenario_to_dict(generated)
        loaded = scenario_from_dict(data)
        logs = [run_pipeline(loaded, config).audit_log.to_text() for config in (a, b, a)]
        assert logs == [run_pipeline(scenario_from_dict(data), config).audit_log.to_text() for config in (a, b, a)]


def test_a_run_lists_its_verified_facts_once_and_checks_them_only_in_the_audit(monkeypatch):
    """A run reads its store's verified facts through one listing, however many statements it has.

    The gate and the audit's facts operator both decide from that listing,
    so no run calls ``check_consistency``; the corpus still makes verify calls.
    """
    listed, checks = [], []
    real_listing, real_check = FactStore.verified_facts, FactStore.check_consistency

    def listing(self):
        listed.append(self)
        return real_listing(self)

    def check(self, candidate):
        checks.append(candidate)
        return real_check(self, candidate)

    monkeypatch.setattr(FactStore, "verified_facts", listing)
    monkeypatch.setattr(FactStore, "check_consistency", check)
    corpus, _ = random_corpus(1, 50, GeneratorParams(with_constraints=True, with_facts=True))
    seen_statements, seen_verify_calls = set(), 0
    for scenario in corpus:
        listed.clear()
        result = run_pipeline(scenario)
        assert listed == [result.facts], scenario.name
        seen_statements.add(sum(len(o.step_ids) for o in scenario_expert_outputs(scenario)))
        seen_verify_calls += result.verify_calls
    assert checks == []
    assert max(seen_statements) >= 30 and seen_verify_calls > 0


def test_mean_confidence_sums_left_to_right_on_every_interpreter():
    # sum() compensates float rounding since CPython 3.12 and would log 0.1 here.
    steps = [f"s{i}" for i in range(10)]
    scenario = scenario_from_dict({
        "query": "q",
        "dag": {"steps": steps, "edges": []},
        "experts": [{"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
                     "traces": [{"steps": {s: {"value": 1, "confidence": 0.1} for s in steps}, "response": 1}]}],
    })
    result = run_pipeline(scenario)
    assert result.score.mean_confidence == 0.09999999999999999
    assert '"mean_confidence":0.09999999999999999,' in result.audit_log.to_text()
