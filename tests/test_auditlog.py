from __future__ import annotations

import pytest

from crosscheck.auditlog import AuditLog, AuditLogEntry, replay
from crosscheck.errors import ParseError


def _sample_log():
    log = AuditLog()
    log.append("ensemble", "config", {"theta": 2})
    log.append("gate", "accept", {"expert": "e01", "score": 1.0})
    log.append("anchor", "promote", {"step": "s1", "value": "num:1", "supporters": 2})
    log.append("audit", "conflict", {"step": "s2", "candidates": ["num:2", "num:3"]})
    log.append("audit", "verify", {"step": "s2", "value": "num:2", "verdict": "support",
                                   "cost": 1, "evidence": [], "budget_used": 1})
    log.append("audit", "promote", {"step": "s2", "value": "num:2"})
    log.append("synthesize", "answer", {"expert": "e01", "response": "num:2", "total": 0.9})
    return log


def test_seq_strictly_increases():
    log = _sample_log()
    seqs = [e.seq for e in log]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_payload_never_reaches_the_text(number):
    log = _sample_log()
    log.append("synthesize", "score", {"expert": "e01", "total": number})
    with pytest.raises(ValueError):
        log.to_text()


def test_unknown_stage_rejected():
    log = AuditLog()
    with pytest.raises(ValueError):
        log.append("bogus", "x", {})


def test_line_round_trip():
    log = _sample_log()
    lines = log.to_lines()
    reloaded = AuditLog.from_lines(lines)
    assert reloaded.to_lines() == lines


def test_payload_keys_are_sorted_in_serialized_form():
    entry = AuditLogEntry(1, "gate", "accept", {"zeta": 1, "alpha": 2})
    line = entry.to_line()
    assert line.index('"alpha"') < line.index('"zeta"')


def test_malformed_line_is_parse_error():
    fields = '"stage":"gate","event":"accept","payload":{},"parent_refs":[]'
    AuditLog.from_lines(['{"seq":1,' + fields + '}'])  # the well-formed line the cases below break
    for line in [
        "{not json",
        '{"seq": 1}',
        "[]",
        '"seq"',
        '{"seq":1,' + fields.replace('"payload":{}', '"payload":[]') + '}',
        '{"seq":"a",' + fields + '}',
        '{"seq":true,' + fields + '}',
        '{"seq":1.0,' + fields + '}',
        '{"seq":1,' + fields.replace('"gate"', '7') + '}',
        '{"seq":1,' + fields.replace('"accept"', 'null') + '}',
        '{"seq":1,' + fields.replace('"parent_refs":[]', '"parent_refs":"ab"') + '}',
        '{"seq":1,' + fields.replace('"parent_refs":[]', '"parent_refs":[1]') + '}',
    ]:
        with pytest.raises(ParseError):
            AuditLog.from_lines([line])


def test_replay_reconstructs_state():
    state = replay(_sample_log().entries)
    assert state.ok, state.violations
    assert state.anchors == {"s1": "num:1", "s2": "num:2"}
    assert state.conflict_states == {"s2": "supported"}
    assert state.verify_calls == 1


def test_replay_flags_verify_without_conflict():
    log = AuditLog()
    log.append("audit", "verify", {"step": "sX", "value": "num:1", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 1})
    state = replay(log.entries)
    assert not state.ok
    assert any("unregistered" in v for v in state.violations)


def test_replay_flags_double_anchor():
    log = AuditLog()
    log.append("anchor", "promote", {"step": "s1", "value": "num:1", "supporters": 2})
    log.append("anchor", "promote", {"step": "s1", "value": "num:2", "supporters": 2})
    state = replay(log.entries)
    assert any("anchored twice" in v for v in state.violations)


def test_replay_flags_budget_counter_gap():
    log = AuditLog()
    log.append("audit", "conflict", {"step": "s1"})
    log.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 5})
    state = replay(log.entries)
    assert any("budget counter" in v for v in state.violations)


def test_replay_flags_non_increasing_seq():
    entries = [
        AuditLogEntry(2, "gate", "accept", {}),
        AuditLogEntry(1, "gate", "accept", {}),
    ]
    state = replay(entries)
    assert any("not increasing" in v for v in state.violations)


def test_replay_flags_verify_after_the_conflict_closed():
    # conflict -> verify -> promote -> verify at the same step: the second
    # verify examines a conflict that the first one already settled.
    log = _sample_log()
    log.append("audit", "verify", {"step": "s2", "value": "num:3", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 2})
    state = replay(log.entries)
    assert any("non-open conflict" in v for v in state.violations)
    resolved = AuditLog()
    resolved.append("audit", "conflict", {"step": "s1"})
    resolved.append("audit", "resolve", {"step": "s1", "state": "inconclusive"})
    resolved.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                        "cost": 1, "evidence": [], "budget_used": 1})
    assert any("non-open conflict" in v for v in replay(resolved.entries).violations)


@pytest.mark.parametrize("event", ["promote", "conflict", "verify", "resolve"])
def test_replay_flags_a_non_string_step(event):
    stage = "anchor" if event == "promote" else "audit"
    line = AuditLogEntry(1, stage, event, {"step": ["x"], "state": "refuted", "budget_used": 1}).to_line()
    state = replay(AuditLog.from_lines([line]))
    assert any("not a string" in v for v in state.violations)
