from __future__ import annotations

import json.encoder

import pytest

from crosscheck import auditlog
from crosscheck.auditlog import AuditLog, AuditLogEntry, replay
from crosscheck.errors import ParseError
from crosscheck.values import format_literal, quantity, text
from oracles import reference_line


def _sample_log():
    log = AuditLog()
    log.append("ensemble", "config", {"theta": 2})
    log.append("gate", "accept", {"expert": "e01", "score": 1.0})
    log.append("anchor", "promote", {"step": "s1", "value": "num:1", "supporters": 2})
    log.append("audit", "conflict", {"step": "s2", "candidates": ["num:2", "num:3"]})
    log.append("audit", "plan", {"order": ["s2"], "budget": 1})
    log.append("audit", "verify", {"step": "s2", "value": "num:2", "verdict": "support",
                                   "cost": 1, "evidence": [], "budget_used": 1})
    log.append("audit", "promote", {"step": "s2", "value": "num:2"})
    log.append("synthesize", "answer", {"expert": "e01", "response": "num:2", "total": 0.9})
    return log


def _violations(text: str) -> list[str]:
    """What ``replay`` flags in a log read back from its text."""
    return replay(AuditLog.from_lines(text.splitlines())).violations


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


def test_nested_payload_keys_are_sorted_at_every_level(json_path):
    entry = AuditLogEntry(1, "gate", "accept", {"b": {"z": 1, "a": [{"y": 2, "x": 3}]}, "a": 0})
    assert entry.to_line() == ('{"seq":1,"stage":"gate","event":"accept",'
                               '"payload":{"a":0,"b":{"a":[{"x":3,"y":2}],"z":1}},"parent_refs":[]}')


HAND_MADE_PAYLOADS = [
    {},
    {"zeta": 1, "alpha": [1.5, "x"], "mid": None},
    {"text": "naïve — 東京 ☃ 🙂", "quote": 'say "hi" \\ back/slash'},
    {"controls": "\t\n\r\x00\x1f\x7f\u2028\u2029\ud800"},
    {"big": 1e16, "neg_zero": -0.0, "tiny": 5e-324, "third": 1 / 3, "int": 10**40, "neg": -(2**70)},
    {"empty": [], "nested": [[], [[]]], "flags": [True, False], "zero": 0},
]


@pytest.mark.parametrize("payload", HAND_MADE_PAYLOADS)
def test_lines_match_the_reference_encoder(payload, json_path):
    for entry in (
        AuditLogEntry(1, "gate", "accept", payload),
        AuditLogEntry(10**6, "audit", "vérify\n", payload, ("s1", "ü\t\"", "")),
    ):
        assert entry.to_line() == reference_line(entry)


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_raise_on_either_encoder(number, json_path):
    for payload in ({"total": number}, {"terms": [0.5, number]}):
        with pytest.raises(ValueError):
            AuditLogEntry(1, "synthesize", "score", payload).to_line()


@pytest.mark.skipif(auditlog.c_make_encoder is None, reason="the interpreter has no C JSON encoder")
def test_lines_and_literals_build_no_encoder_per_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an encoder was built per call")

    monkeypatch.setattr(json.encoder, "c_make_encoder", refuse)
    monkeypatch.setattr(json.JSONEncoder, "__init__", refuse)
    assert _sample_log().to_text().count("\n") == len(_sample_log())
    assert format_literal(text("x")) == 'txt:"x"'
    assert format_literal(quantity(2, "m")) == 'qty:2:"m"'


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


def test_an_integer_literal_too_long_to_convert_is_parse_error():
    # json.loads raises a plain ValueError here, not a JSONDecodeError.
    line = '{"seq":' + "1" * 5000 + ',"stage":"gate","event":"accept","payload":{},"parent_refs":[]}'
    with pytest.raises(ParseError, match="audit log line 1"):
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


@pytest.mark.parametrize("counter", ["true", "1.0", '"1"'])
def test_replay_flags_a_budget_counter_that_is_not_an_integer(counter):
    text = _sample_log().to_text().replace('"budget_used":1', f'"budget_used":{counter}')
    assert f'"budget_used":{counter}' in text
    assert any("budget counter" in v for v in _violations(text))


def test_replay_flags_verify_before_the_plan():
    text = "\n".join(line for line in _sample_log().to_lines() if '"event":"plan"' not in line)
    assert any("before the audit plan" in v for v in _violations(text))


def test_replay_flags_verify_outside_the_plan_order():
    text = _sample_log().to_text().replace('"order":["s2"]', '"order":["s1"]')
    assert any("outside the plan order" in v for v in _violations(text))


def test_replay_flags_verify_going_back_in_the_plan_order():
    def backtracking_log(order):
        log = AuditLog()
        log.append("audit", "conflict", {"step": "s1"})
        log.append("audit", "conflict", {"step": "s2"})
        log.append("audit", "plan", {"order": order, "budget": 2})
        log.append("audit", "verify", {"step": "s2", "value": "num:1", "verdict": "refute",
                                       "cost": 1, "evidence": [], "budget_used": 1})
        log.append("audit", "resolve", {"step": "s2", "state": "refuted"})
        log.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                       "cost": 1, "evidence": [], "budget_used": 2})
        return log.to_text()

    assert _violations(backtracking_log(["s2", "s1"])) == []
    assert any("goes back" in v for v in _violations(backtracking_log(["s1", "s2"])))


def test_replay_flags_verify_over_the_planned_budget():
    text = _sample_log().to_text().replace('"budget":1', '"budget":0')
    assert any("over the planned budget" in v for v in _violations(text))


@pytest.mark.parametrize("plan", ['"budget":true,"order":["s2"]', '"budget":1,"order":"s2"', '"order":["s2"]'])
def test_replay_flags_a_malformed_plan(plan):
    text = _sample_log().to_text().replace('"budget":1,"order":["s2"]', plan)
    assert plan in text
    assert any("malformed plan" in v for v in _violations(text))


def test_replay_flags_a_second_plan():
    # A second plan could raise the budget the first one set.
    log = AuditLog()
    log.append("audit", "conflict", {"step": "s1"})
    for budget in (0, 1):
        log.append("audit", "plan", {"order": ["s1"], "budget": budget})
    log.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 1})
    assert _violations(log.to_text()) == ["seq 3: audit planned twice"]
