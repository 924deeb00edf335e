"""Scores from tallies: the statement stages over loaded traces, the fallback, and confidence means.

``synthesize`` adds each value class's answer into per-candidate tallies
and keeps a mark only for the statements that lean on a refuted value;
``ExpertOutput.mean_confidence`` reads a trace's confidence column left to
right. Both must give exactly what the plain scans give, on the traces a
loaded scenario holds: one object per printed value, one step dict per
step set, and fragments that share their source's columns.
"""

from __future__ import annotations

import functools
import hashlib
import operator

from hypothesis import given, settings, strategies as st

from crosscheck.auditlog import AuditLog
from crosscheck.baselines import simple_verification
from crosscheck.corpus import random_corpus
from crosscheck.engine import (
    AuditBudget,
    GatedTrace,
    anchor,
    conflicts,
    rank_conflicts,
    run_audit,
    statements,
    synthesize,
)
from crosscheck.ensemble import parse_expert_output
from crosscheck.scenario import scenario_expert_outputs
from crosscheck.values import format_literal, number, value_to_json
from crosscheck.verifiers import INCONCLUSIVE, REFUTE, SUPPORT, OperatorRegistry

from oracles import trace_rows
from test_grouping import (
    DAG,
    EXPERTS,
    NAN,
    STEPS,
    WEIGHTS,
    _assert_table_matches_oracles,
    _gated,
    _reference_scores,
    _ScriptedVerdicts,
    statement_values,
)

# sha256 over simple_verification's answer literals on random_corpus(1, 200),
# one per line; the answers of the mean over a list built from every row.
SV_ANSWERS_SHA256 = "596ac98ed7f8710d85c03f4f094e75d060b79fd448014e469cff51ae0e18bfb3"


def _reference_mean(confidences):
    return functools.reduce(operator.add, confidences, 0) / len(confidences) if confidences else 0.0


# --- the statement stages over loaded traces -------------------------------------


@st.composite
def loaded_traces(draw):
    """Retained traces parsed with one intern table, as the scenario loader parses them.

    Equal printed values share one object and traces with one step set
    share one step dict; a trace the gate cut is a fragment of its parsed
    source, sharing its columns.
    """
    interned: dict = {}
    traces = []
    for index in range(draw(st.integers(0, 8))):
        steps = draw(st.lists(st.sampled_from(STEPS), unique=True, max_size=5))
        raw_steps = {}
        for step in steps:
            value = draw(statement_values.filter(lambda v: v is not NAN))  # a NaN does not load
            raw_steps[step] = {"value": value_to_json(value),
                               "confidence": draw(st.sampled_from((0.1, 0.5, 0.9, 1.0))),
                               "provenance": [f"t{index}{step}"]}
        source = parse_expert_output(draw(st.sampled_from(EXPERTS)), {"steps": raw_steps, "response": 0}, interned)
        kept = draw(st.sets(st.sampled_from(steps))) if steps and draw(st.booleans()) else None
        if kept is None or kept == set(steps):
            traces.append(GatedTrace(source, index))
        else:
            traces.append(GatedTrace(source.restricted_to(kept), index, source))
    return traces


@given(loaded_traces(), st.integers(2, 3), st.lists(st.sampled_from((SUPPORT, REFUTE, INCONCLUSIVE)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_stages_over_loaded_traces_match_the_scans(traces, theta, verdicts):
    _assert_table_matches_oracles(traces, theta, verdicts)


# --- the fallback ----------------------------------------------------------------


def test_fallback_drops_the_marks_of_every_leaning_statement():
    # Step a is a quorum tie between 1e9 and 1e9+2, so it is a conflict:
    # 1e9 is refuted, then 1e9+2 supported and anchored, so e1 and e2 lean
    # on a refuted value at an anchored step they contradict. e5's excised
    # 1e9+1 is within tolerance of both, so it leans there and agrees too.
    # At b every value is refuted, so e3, e4 and e5 lean as well. Step c
    # anchors 20, which e4's excised 21 and e5's 22 contradict.
    traces = [
        _gated("e1", 0, {"a": number(1e9), "c": number(20), "d": number(5)}, confidence={"a": 0.9, "c": 0.5}),
        _gated("e2", 1, {"a": number(1e9), "c": number(20), "e": number(6)}, confidence={"a": 0.1}),
        _gated("e3", 2, {"a": number(1e9 + 2), "b": number(12), "c": number(20)}, confidence={"b": 0.5}),
        _gated("e4", 3, {"a": number(1e9 + 2), "b": number(13), "c": number(21)}, kept=["a", "b"]),
        _gated("e5", 4, {"a": number(1e9 + 1), "b": number(14), "c": number(22)}, kept=["b", "c"],
               confidence={"c": 1.0}),
    ]
    verdicts = [REFUTE, SUPPORT, REFUTE, REFUTE, REFUTE]
    _assert_table_matches_oracles(traces, 2, verdicts)

    table = statements(traces)
    anchors, collisions = anchor(table, 2)
    assert collisions == ["a"]
    conflict_set = conflicts(table, anchors)
    ranked = rank_conflicts(conflict_set, DAG, table)
    assert ranked == ["a", "b"]
    registry = OperatorRegistry().register(_ScriptedVerdicts(verdicts))
    run_audit(ranked, conflict_set, anchors, AuditBudget(b_max=100), registry, table, AuditLog())
    assert {a.step: format_literal(a.value) for a in anchors.items()} == {"a": "num:1000000002.0", "c": "num:20"}
    assert [format_literal(v) for _, v in conflict_set.refuted_statements()] == [
        "num:1000000000.0", "num:12", "num:13", "num:14"]

    log = AuditLog()
    winner, score, fallback = synthesize(table, anchors, conflict_set, WEIGHTS, log)
    ref_fallback, ref_scores = _reference_scores(traces, anchors, conflict_set)
    assert fallback is True and ref_fallback is True
    assert [e.event for e in log][0] == "fallback"
    got = [(e.payload["expert"], e.payload["trace"], e.payload["total"]) for e in log if e.event == "score"]
    assert got == ref_scores
    assert (winner.expert_id, winner.trace_index, score.total) == max(ref_scores, key=lambda t: t[2])


# --- confidence means --------------------------------------------------------------


def test_mean_confidence_matches_a_left_to_right_sum_over_the_rows():
    corpus, _ = random_corpus(1, 50)
    for scenario in corpus:
        for output in scenario_expert_outputs(scenario):
            rows = trace_rows(output)
            assert output.mean_confidence() == _reference_mean([c for _, _, c, _ in rows])
            steps = list(output.step_ids)
            skip = set(steps[::2])
            assert output.mean_confidence(skip) == _reference_mean([c for s, _, c, _ in rows if s not in skip])
            fragment = output.restricted_to(set(steps[1::3]))
            assert fragment.mean_confidence() == _reference_mean([c for _, _, c, _ in trace_rows(fragment)])
            assert output.restricted_to(set()).mean_confidence() == 0.0


def test_simple_verification_answers_are_unchanged():
    corpus, _ = random_corpus(1, 200)
    digest = hashlib.sha256()
    for scenario in corpus:
        outputs = scenario_expert_outputs(scenario)
        answer = simple_verification(outputs)
        ranked = sorted(outputs, key=lambda o: o.expert_id)
        expected = max(ranked, key=lambda o: _reference_mean([c for _, _, c, _ in trace_rows(o)])).response
        assert answer is expected
        digest.update(format_literal(answer).encode() + b"\n")
    assert digest.hexdigest() == SV_ANSWERS_SHA256
