from __future__ import annotations

import json.encoder

import pytest

from crosscheck import auditlog
from crosscheck.auditlog import AuditLog, AuditLogEntry, replay
from crosscheck.corpus import adversarial_scenario, random_scenario
from crosscheck.engine import EngineConfig, run_pipeline
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
    before = log.to_text()
    with pytest.raises(ValueError):
        log.append("synthesize", "score", {"expert": "e01", "total": number})
    assert log.to_text() == before


@pytest.mark.parametrize("stage, payload", [("synthesize", {"total": float("nan")}), ("bogus", {})])
def test_a_failed_append_leaves_the_log_as_it_was(stage, payload):
    log = _sample_log()
    before = log.to_text()
    with pytest.raises(ValueError):
        log.append(stage, "score", payload)
    assert log.to_text() == before
    log.append("facts", "seeded", {"facts": 1})
    assert [e.seq for e in log][-2:] == [8, 9]


def test_iterating_a_log_reads_back_its_text():
    log = run_pipeline(adversarial_scenario(3), EngineConfig(theta=3)).audit_log
    assert list(log) == list(AuditLog.from_lines(log.to_text().splitlines()))
    assert [e.to_line() for e in log] == log.to_lines()
    assert AuditLog().to_text() == ""
    assert list(AuditLog()) == []


def test_an_entry_read_back_holds_what_its_line_holds():
    log = AuditLog()
    log.append("gate", "accept", {"pair": (1, 2), "by_id": {3: "x"}}, ("r1",))
    (entry,) = log
    assert entry.payload == {"by_id": {"3": "x"}, "pair": [1, 2]}
    assert entry.parent_refs == ("r1",)


def test_a_recorded_non_finite_number_is_parse_error():
    # json.loads reads NaN and Infinity tokens; a log holding one does not load.
    line = '{"seq":1,"stage":"gate","event":"accept","payload":{"score":NaN},"parent_refs":[]}'
    with pytest.raises(ParseError, match="line 1"):
        AuditLog.from_lines([line])


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
    assert _sample_log().to_text().count("\n") == len(list(_sample_log()))
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
    state = replay(_sample_log())
    assert state.ok, state.violations
    assert state.anchors == {"s1": "num:1", "s2": "num:2"}
    assert state.conflict_states == {"s2": "supported"}
    assert state.verify_calls == 1


def test_replay_flags_verify_without_conflict():
    log = AuditLog()
    log.append("audit", "verify", {"step": "sX", "value": "num:1", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 1})
    state = replay(log)
    assert not state.ok
    assert any("unregistered" in v for v in state.violations)


def test_replay_flags_double_anchor():
    log = AuditLog()
    log.append("anchor", "promote", {"step": "s1", "value": "num:1", "supporters": 2})
    log.append("anchor", "promote", {"step": "s1", "value": "num:2", "supporters": 2})
    state = replay(log)
    assert any("anchored twice" in v for v in state.violations)


def test_replay_flags_budget_counter_gap():
    log = AuditLog()
    log.append("audit", "conflict", {"step": "s1"})
    log.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 5})
    state = replay(log)
    assert any("budget counter" in v for v in state.violations)


def test_replay_flags_non_increasing_seq():
    entries = [
        AuditLogEntry(2, "gate", "accept", {}),
        AuditLogEntry(1, "gate", "accept", {}),
    ]
    state = replay(entries)
    assert any("not increasing" in v for v in state.violations)


def _adversarial_lines() -> list[str]:
    """A logged run with a conflict, verify calls and one score line per candidate."""
    return run_pipeline(adversarial_scenario(3), EngineConfig(theta=3)).audit_log.to_lines()


def test_replay_flags_a_deleted_score_line():
    lines = _adversarial_lines()
    assert _violations("\n".join(lines)) == []
    del lines[next(i for i, line in enumerate(lines) if '"event":"score"' in line)]
    assert any("not increasing by one" in v for v in _violations("\n".join(lines)))


def test_replay_flags_a_deleted_first_line():
    violations = _violations("\n".join(_adversarial_lines()[1:]))
    assert "seq 2 not increasing by one after 0" in violations


def test_replay_flags_verify_after_the_conflict_closed():
    # conflict -> verify -> promote -> verify at the same step: the second
    # verify examines a conflict that the first one already settled.
    log = _sample_log()
    log.append("audit", "verify", {"step": "s2", "value": "num:3", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 2})
    state = replay(log)
    assert any("non-open conflict" in v for v in state.violations)
    resolved = AuditLog()
    resolved.append("audit", "conflict", {"step": "s1"})
    resolved.append("audit", "resolve", {"step": "s1", "state": "inconclusive"})
    resolved.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                        "cost": 1, "evidence": [], "budget_used": 1})
    assert any("non-open conflict" in v for v in replay(resolved).violations)


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
        log.append("audit", "conflict", {"step": "s1", "candidates": ["num:1", "num:2"]})
        log.append("audit", "conflict", {"step": "s2", "candidates": ["num:1", "num:2"]})
        log.append("audit", "plan", {"order": order, "budget": 3})
        for used, value in enumerate(["num:1", "num:2"], start=1):
            log.append("audit", "verify", {"step": "s2", "value": value, "verdict": "refute",
                                           "cost": 1, "evidence": [], "budget_used": used})
        log.append("audit", "resolve", {"step": "s2", "state": "refuted"})
        log.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                       "cost": 1, "evidence": [], "budget_used": 3})
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
    log.append("audit", "conflict", {"step": "s1", "candidates": ["num:1", "num:2"]})
    for budget in (0, 1):
        log.append("audit", "plan", {"order": ["s1"], "budget": budget})
    log.append("audit", "verify", {"step": "s1", "value": "num:1", "verdict": "refute",
                                   "cost": 1, "evidence": [], "budget_used": 1})
    assert _violations(log.to_text()) == ["seq 3: audit planned twice"]


def _verify(step, value, verdict, used):
    return {"step": step, "value": value, "verdict": verdict, "cost": 1, "evidence": [], "budget_used": used}


def test_replay_flags_a_promote_without_a_verify():
    text = "\n".join(line for line in _sample_log().to_lines() if '"event":"verify"' not in line)
    assert any("without a support verdict" in v for v in _violations(text))


@pytest.mark.parametrize("verdict", ["refute", "inconclusive"])
def test_replay_flags_a_promote_after_a_verdict_other_than_support(verdict):
    text = _sample_log().to_text().replace('"verdict":"support"', f'"verdict":"{verdict}"')
    assert _violations(text) == ["seq 7: promote at 's2' without a support verdict for its value"]


def test_replay_flags_a_promote_of_another_value_than_the_supported_one():
    text = _sample_log().to_text().replace('"event":"promote","payload":{"step":"s2","value":"num:2"}',
                                           '"event":"promote","payload":{"step":"s2","value":"num:3"}')
    assert _violations(text) == ["seq 7: promote at 's2' without a support verdict for its value"]


@pytest.mark.parametrize("verdicts, state, flagged", [
    (["inconclusive", "inconclusive"], "refuted", True),
    (["refute", "inconclusive"], "refuted", True),
    (["refute", "refute"], "inconclusive", True),
    (["refute", "refute"], "refuted", False),
    (["refute", "inconclusive"], "inconclusive", False),
])
def test_replay_flags_a_resolve_that_does_not_follow_from_its_verdicts(verdicts, state, flagged):
    log = AuditLog()
    log.append("audit", "conflict", {"step": "s1", "candidates": ["num:1", "num:2"]})
    log.append("audit", "plan", {"order": ["s1"], "budget": 2})
    for used, (value, verdict) in enumerate(zip(["num:1", "num:2"], verdicts), start=1):
        log.append("audit", "verify", _verify("s1", value, verdict, used))
    log.append("audit", "resolve", {"step": "s1", "state": state})
    expected = [f"seq 5: resolve {state!r} at 's1' after verdicts {verdicts!r}"] if flagged else []
    assert _violations(log.to_text()) == expected


@pytest.mark.parametrize("seed", [10_031, 10_066, 10_076])
def test_replay_flags_a_resolve_logged_before_its_conflicts_last_candidate(seed):
    # Scenarios 31, 66 and 76 of random_corpus(1, 500), the first three whose log has a refute verify just
    # before a resolve. Once that verify is dropped and seq and budget_used renumbered, every other check holds.
    entries = list(run_pipeline(random_scenario(seed), EngineConfig(budget=10_000)).audit_log)
    assert replay(entries).ok
    at = next(i for i, e in enumerate(entries)
              if e.event == "resolve" and entries[i - 1].payload.get("verdict") == "refute")
    resolve, dropped = entries[at], entries[at - 1]
    assert (dropped.event, dropped.payload["step"]) == ("verify", resolve.payload["step"])
    forged: list[AuditLogEntry] = []
    for entry in entries:
        if entry is not dropped:
            payload = dict(entry.payload)
            if entry.event == "verify" and entry.seq > dropped.seq:
                payload["budget_used"] -= 1
            forged.append(AuditLogEntry(len(forged) + 1, entry.stage, entry.event, payload, entry.parent_refs))
    step = resolve.payload["step"]
    assert replay(forged).violations == [f"seq {resolve.seq - 1}: resolve at {step!r} before its last candidate"]


@pytest.mark.parametrize("value", ["num:4", "num:3"], ids=["not-a-candidate", "out-of-candidate-order"])
def test_replay_flags_a_verify_that_is_not_its_conflicts_next_candidate(value):
    text = _sample_log().to_text().replace('"value":"num:2","verdict"', f'"value":"{value}","verdict"')
    assert f"seq 6: verify of {value!r} at 's2' is not its next candidate" in _violations(text)


def test_replay_flags_a_verify_past_the_last_candidate():
    log = AuditLog()
    log.append("audit", "conflict", {"step": "s1", "candidates": ["num:1", "num:2"]})
    log.append("audit", "plan", {"order": ["s1"], "budget": 3})
    for used, value in enumerate(["num:1", "num:2", "num:1"], start=1):
        log.append("audit", "verify", _verify("s1", value, "inconclusive", used))
    assert _violations(log.to_text()) == ["seq 5: verify of 'num:1' at 's1' is not its next candidate"]


@pytest.mark.parametrize("candidates", ['"candidates":"num:2"', '"candidates":[2,3]', '"other":[]'])
def test_replay_flags_a_conflict_without_a_list_of_candidate_literals(candidates):
    text = _sample_log().to_text().replace('"candidates":["num:2","num:3"]', candidates)
    assert candidates in text
    assert any("malformed candidates" in v for v in _violations(text))


@pytest.mark.parametrize("final", ["answer", "abstain"])
def test_replay_flags_any_event_after_the_final_answer_or_abstention(final):
    log = _sample_log()
    if final == "abstain":
        log = AuditLog.from_lines(log.to_lines()[:-1])
        log.append("synthesize", "abstain", {"reason": "no feasible candidate"})
    assert _violations(log.to_text()) == []
    log.append("synthesize", "score", {"expert": "e02", "total": 1.0})
    log.append("synthesize", final, {})
    assert _violations(log.to_text()) == [
        f"seq 9: event after the final synthesize/{final}",
        f"seq 10: event after the final synthesize/{final}",
    ]
