from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck.auditlog import replay
from crosscheck.baselines import majority_vote
from crosscheck.corpus import adversarial_scenario, random_scenario
from crosscheck.engine import (
    AuditBudget,
    EngineConfig,
    GatedTrace,
    Statement,
    anchor,
    conflicts,
    group_by_step,
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
from crosscheck.scenario import scenario_expert_outputs, scenario_from_dict
from crosscheck.values import format_literal, number, statement_key, values_equal
from crosscheck.verifiers import OperatorRegistry, ScriptedTableOperator

from oracles import count_filter_anchors, pairwise_conflicts, synthesis_score


def _output(expert_id, values, response, confidence=0.8):
    return parse_expert_output(expert_id, {
        "steps": {s: {"value": v, "confidence": confidence} for s, v in values.items()},
        "analysis": "t",
        "response": response,
    })


def _stmt(step, value, expert, confidence=0.8):
    return Statement(step, number(value) if isinstance(value, (int, float)) else value, expert, confidence)


# --- statements ---------------------------------------------------------------

def test_statements_counts_duplicates():
    a = _output("e01", {"s1": 1, "s2": 2, "s3": 3}, 3)
    b = _output("e02", {"s1": 1, "s2": 2, "s3": 3}, 3)
    pool = statements([a, b])
    assert len(pool) == 6
    distinct = {(s.step, format_literal(s.value)) for s in pool}
    assert len(distinct) == 3


def test_statements_empty():
    assert statements([]) == []


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_statements_cardinality_oracle(seed):
    scenario = random_scenario(seed)
    outputs = [parse_expert_output(e.config.expert_id, e.raw_traces[0]) for e in scenario.experts]
    pool = statements(outputs)
    assert len(pool) == sum(len(o.steps) for o in outputs)


# --- anchoring ------------------------------------------------------------------

def test_anchor_quorum_met():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3")]
    anchors, collisions = anchor(group_by_step(pool), theta=2)
    assert collisions == []
    assert anchors.steps() == ("s",)
    assert values_equal(anchors.get("s").value, number(42))
    assert anchors.get("s").supporters == ("e1", "e2")


def test_anchor_quorum_unmet():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3")]
    anchors, _ = anchor(group_by_step(pool), theta=3)
    assert len(anchors) == 0


def test_anchor_theta_below_two_rejected():
    with pytest.raises(InvalidThetaError):
        anchor(group_by_step([]), theta=1)


def test_anchor_collision_tie_goes_to_conflicts():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3"), _stmt("s", 17, "e4")]
    anchors, collisions = anchor(group_by_step(pool), theta=2)
    assert len(anchors) == 0
    assert collisions == ["s"]
    conflict_set = conflicts(group_by_step(pool), anchors)
    assert conflict_set.steps() == ("s",)


def test_anchor_collision_majority_wins():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 42, "e5"),
            _stmt("s", 17, "e3"), _stmt("s", 17, "e4")]
    anchors, collisions = anchor(group_by_step(pool), theta=2)
    assert collisions == []
    assert values_equal(anchors.get("s").value, number(42))


def test_anchor_counts_distinct_experts_not_traces():
    # one expert asserting twice does not reach a quorum of two
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e1")]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    assert len(anchors) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_anchor_matches_count_filter_oracle(seed):
    scenario = random_scenario(seed)
    outputs = [parse_expert_output(e.config.expert_id, e.raw_traces[0]) for e in scenario.experts]
    pool = statements(outputs)
    anchors, _ = anchor(group_by_step(pool), theta=2)
    got = {a.step: format_literal(a.value) for a in anchors.items()}
    assert got == count_filter_anchors(pool, 2)


# --- conflicts ------------------------------------------------------------------

def test_conflicts_empty_on_unanimity():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2")]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    assert len(conflicts(group_by_step(pool), anchors)) == 0


def test_conflicts_below_quorum():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 17, "e2")]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    conflict_set = conflicts(group_by_step(pool), anchors)
    item = conflict_set.get("s")
    assert len(item.candidates) == 2
    literals = {format_literal(c.value) for c in item.candidates}
    assert literals == {"num:42", "num:17"}


def test_anchored_step_excluded_despite_dissent():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 42, "e2"), _stmt("s", 17, "e3")]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    assert "s" in anchors
    assert len(conflicts(group_by_step(pool), anchors)) == 0


def test_single_expert_disagreeing_with_itself_is_no_conflict():
    pool = [_stmt("s", 42, "e1"), _stmt("s", 17, "e1")]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    assert len(conflicts(group_by_step(pool), anchors)) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_conflicts_match_pairwise_oracle(seed):
    scenario = random_scenario(seed)
    outputs = [parse_expert_output(e.config.expert_id, e.raw_traces[0]) for e in scenario.experts]
    pool = statements(outputs)
    anchors, _ = anchor(group_by_step(pool), theta=2)
    conflict_set = conflicts(group_by_step(pool), anchors)
    assert set(conflict_set.steps()) == pairwise_conflicts(pool, set(anchors.steps()))


# --- ranking --------------------------------------------------------------------

def test_rank_singleton():
    pool = [_stmt("s", 1, "e1", 0.9), _stmt("s", 2, "e2", 0.2)]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    conflict_set = conflicts(group_by_step(pool), anchors)
    dag = build_plan(["s"], [])
    assert rank_conflicts(conflict_set, dag, group_by_step(pool)) == ["s"]


def test_rank_prefers_root_with_dependents():
    dag = build_plan(["root", "x1", "x2", "x3", "sink"],
                     [("root", "x1"), ("root", "x2"), ("root", "x3")])
    pool = []
    for step in ("root", "sink"):
        pool += [_stmt(step, 1, "e1", 0.9), _stmt(step, 2, "e2", 0.5)]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    conflict_set = conflicts(group_by_step(pool), anchors)
    # equal spreads (0.4); root has 3 dependents, sink none
    assert rank_conflicts(conflict_set, dag, group_by_step(pool)) == ["root", "sink"]


def test_rank_ties_break_by_step_id():
    dag = build_plan(["a", "b", "c"], [])
    pool = []
    for step in ("c", "a", "b"):
        pool += [_stmt(step, 1, "e1", 0.7), _stmt(step, 2, "e2", 0.3)]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    conflict_set = conflicts(group_by_step(pool), anchors)
    assert rank_conflicts(conflict_set, dag, group_by_step(pool)) == ["a", "b", "c"]


# --- auditing -------------------------------------------------------------------

def _audit_fixture(n_steps, table, b_max):
    steps = [f"s{i:02d}" for i in range(n_steps)]
    dag = build_plan(steps, [])
    pool = []
    for step in steps:
        pool += [_stmt(step, 1, "e1", 0.9), _stmt(step, 2, "e2", 0.5)]
    anchors, _ = anchor(group_by_step(pool), theta=2)
    conflict_set = conflicts(group_by_step(pool), anchors)
    ranked = rank_conflicts(conflict_set, dag, group_by_step(pool))
    registry = OperatorRegistry().register(ScriptedTableOperator(table))
    budget = AuditBudget(b_max=b_max)
    from crosscheck.auditlog import AuditLog

    log = AuditLog()
    for item in conflict_set.items():
        log.append("audit", "conflict", {"step": item.step})
    run_audit(ranked, conflict_set, anchors, budget, registry, [], FactStore(), {}, None, (), log)
    return anchors, conflict_set, budget, log


def test_budget_caps_verify_calls():
    table = {statement_key(f"s{i:02d}", number(1)): "support" for i in range(10)}
    anchors, conflict_set, budget, log = _audit_fixture(10, table, b_max=3)
    verify_events = [e for e in log if e.stage == "audit" and e.event == "verify"]
    assert len(verify_events) == 3
    assert budget.consumed == 3
    assert len(conflict_set.open_steps()) == 7


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
    anchors, _ = anchor(group_by_step(pool), theta=3)
    conflict_set = conflicts(group_by_step(pool), anchors)
    item = conflict_set.get("s")
    assert [format_literal(c.value) for c in item.candidates] == ["num:9", "num:7"]
    table = {statement_key("s", number(9)): "refute", statement_key("s", number(7)): "support"}
    registry = OperatorRegistry().register(ScriptedTableOperator(table))
    budget = AuditBudget(b_max=2)
    from crosscheck.auditlog import AuditLog

    run_audit(["s"], conflict_set, anchors, budget, registry, [], FactStore(), {}, None, (), AuditLog())
    assert budget.consumed == 2
    assert values_equal(anchors.get("s").value, number(7))
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
        [GatedTrace(trace, 1.0, 0)], AnchorSet(), ConflictSet(), (0.5, 0.3, 0.2)
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
        [GatedTrace(agree, 1.0, 0), GatedTrace(dissent, 1.0, 1)],
        anchors, ConflictSet(), (0.5, 0.3, 0.2),
    )
    assert winner.expert_id == "e01"
    assert score.anchor_support == 1.0


def test_synthesize_raises_without_candidates():
    from crosscheck.engine import AnchorSet, ConflictSet

    with pytest.raises(NoFeasibleCandidateError):
        synthesize([], AnchorSet(), ConflictSet(), (0.5, 0.3, 0.2))


def test_synthesize_tie_breaks_to_lowest_expert_id():
    from crosscheck.engine import AnchorSet, ConflictSet

    a = _output("e02", {"s1": 5}, 5, confidence=0.6)
    b = _output("e01", {"s1": 7}, 7, confidence=0.6)
    winner, _, _ = synthesize(
        [GatedTrace(a, 1.0, 1), GatedTrace(b, 1.0, 0)],
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
    assert result.anchors.steps() == ("s1", "s2")


def test_zero_budget_synthesis_on_anchors_alone():
    scenario = adversarial_scenario(3)
    result = run_pipeline(scenario, EngineConfig(theta=3, budget=0))
    assert result.verify_calls == 0
    assert len(result.audit_log.stage_entries("audit")) >= 1  # conflicts still registered


def test_adversarial_majority_is_overturned():
    scenario = adversarial_scenario(11)
    result = run_pipeline(scenario, EngineConfig(theta=3, budget=2))
    assert values_equal(result.answer, scenario.oracle.answer)
    responses = [o.response for o in scenario_expert_outputs(scenario)]
    assert not values_equal(majority_vote(responses), scenario.oracle.answer)
    assert result.verify_calls == 2


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
    with pytest.raises(NoFeasibleCandidateError) as excinfo:
        run_pipeline(scenario_from_dict(obj, name="infeasible"))
    partial = excinfo.value.result
    assert partial is not None
    assert partial.answer is None
    assert len(partial.audit_log) > 0
    assert partial.screening[0].reason == "infeasible-response"


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
    assert [e.event for e in result.audit_log.stage_entries("prune")].count("backtrack") == 1
    retained_steps = set(result.retained[0].trace.steps)
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
    failures = [e for e in result.audit_log.stage_entries("ensemble") if e.event == "expert_failure"]
    assert len(failures) == 1
    assert failures[0].payload["expert"] == "e02"
    assert values_equal(result.answer, number(1))


def test_run_is_replay_deterministic_and_replayable():
    scenario = adversarial_scenario(21)
    config = EngineConfig(theta=3, budget=2)
    first = run_pipeline(scenario, config)
    second = run_pipeline(scenario, config)
    assert first.audit_log.to_text() == second.audit_log.to_text()
    state = replay(first.audit_log.entries)
    assert state.ok, state.violations
    assert state.anchors == {a.step: format_literal(a.value) for a in first.anchors.items()}
    assert state.verify_calls == first.verify_calls


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_budget_bound_on_random_scenarios(seed):
    scenario = random_scenario(seed)
    result = run_pipeline(scenario)
    assert result.verify_calls <= min(len(result.conflicts), 16)
    verify_events = [e for e in result.audit_log.stage_entries("audit") if e.event == "verify"]
    assert len(verify_events) == result.verify_calls


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_anchored_steps_never_open_conflicts(seed):
    result = run_pipeline(random_scenario(seed))
    assert not (set(result.anchors.steps()) & set(result.conflicts.open_steps()))


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
        asserted = {s: (r.value, r.confidence) for s, r in gt.asserted.steps.items()}
        surviving = {s: (r.value, r.confidence) for s, r in gt.trace.steps.items()}
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
