from __future__ import annotations

import dataclasses
import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck.errors import BrokenChainError, DuplicateIdError, SchemaError, UnknownIdError
from crosscheck.facts import (
    CONFLICT,
    CONSISTENT,
    DERIVED,
    GIVEN,
    HIGH,
    LOW,
    MEDIUM,
    REFUTED,
    RETRIEVED,
    UNKNOWN,
    UNVERIFIED,
    VERIFIED,
    ConsistencyReport,
    Fact,
    FactStore,
    Note,
    ToolRecord,
    default_summarizer,
)
from crosscheck.scenario import SCHEMA_TEXT
from crosscheck.values import format_literal, number, quantity, text

from storegen import build_random_store


def _tool(tid="t1", outcome=None, **kw):
    return ToolRecord(
        id=tid,
        tool_name=kw.get("tool_name", "search"),
        params=kw.get("params", {"q": "x"}),
        outcome=outcome if outcome is not None else number(42),
        source_url=kw.get("source_url"),
        retrieved_at=kw.get("retrieved_at"),
    )


def test_record_round_trip_with_metadata():
    store = FactStore()
    record = _tool(source_url="https://example.test/a", retrieved_at="T001")
    store.record_tool(record)
    assert store.get_tool("t1") == record


def test_duplicate_tool_id_rejected():
    store = FactStore()
    store.record_tool(_tool())
    with pytest.raises(DuplicateIdError):
        store.record_tool(_tool())


def test_hundred_records_indexed():
    store = FactStore()
    for i in range(100):
        store.record_tool(_tool(tid=f"t{i:03d}"))
    assert len(store.tools()) == 100
    assert store.version == 100


def test_identity_summary_for_single_tool():
    store = FactStore()
    store.record_tool(_tool(outcome=number(42)))
    note = store.summarize_to_note(["t1"])
    assert note.summary == format_literal(number(42))
    assert note.credibility == HIGH
    assert note.derived_from == ("t1",)


def test_empty_provenance_forbidden():
    store = FactStore()
    with pytest.raises(UnknownIdError):
        store.summarize_to_note([])


def test_conflicting_outcomes_force_low_credibility():
    store = FactStore()
    store.record_tool(_tool("t1", number(42)))
    store.record_tool(_tool("t2", number(17)))
    note = store.summarize_to_note(["t1", "t2"])
    assert note.credibility == LOW


def test_incomparable_outcomes_are_medium():
    records = [_tool("t1", quantity(1, "m")), _tool("t2", quantity(1, "ft"))]
    _, credibility = default_summarizer(records)
    assert credibility == MEDIUM
    _, credibility = default_summarizer([_tool("t1", number(1)), _tool("t2", text("one"))])
    assert credibility == MEDIUM


def test_agreeing_outcomes_are_high():
    _, credibility = default_summarizer([_tool("t1", number(42)), _tool("t2", number(42.0))])
    assert credibility == HIGH


# Beside an outcome of 1: equal is high, a number against text is medium, 2 is low.
_SECOND_OUTCOME = {HIGH: number(1), MEDIUM: text("one"), LOW: number(2)}


@pytest.mark.parametrize(
    "credibility,verdict",
    list(itertools.product((HIGH, MEDIUM, LOW), (CONSISTENT, CONFLICT, UNKNOWN))),
)
def test_promotion_rule_table(credibility, verdict):
    # verified iff verdict=consistent and credibility != low; exhaustive 3x3
    store = FactStore()
    store.record_tool(_tool("t1", number(1)))
    store.record_tool(_tool("t2", _SECOND_OUTCOME[credibility]))
    note = store.summarize_to_note(["t1", "t2"])
    assert note.credibility == credibility
    report = ConsistencyReport(verdict, ("fx",) if verdict == CONFLICT else ())
    fact = store.promote_fact(note.id, RETRIEVED, report, "k", number(1))
    expected = VERIFIED if (verdict == CONSISTENT and credibility != LOW) else UNVERIFIED
    assert fact.status == expected
    assert store.get_fact(fact.id) == fact  # retained either way, for audit


def test_promotion_rejects_base_categories():
    store = FactStore()
    store.record_tool(_tool())
    note = store.summarize_to_note(["t1"])
    with pytest.raises(Exception):
        store.promote_fact(note.id, GIVEN, ConsistencyReport(CONSISTENT), "k", number(1))


def test_check_consistency_three_ways():
    store = FactStore()
    assert store.check_consistency(("k", number(42))).verdict == UNKNOWN
    store.add_given("k", number(42))
    assert store.check_consistency(("k", number(42))).verdict == CONSISTENT
    report = store.check_consistency(("k", number(17)))
    assert report.verdict == CONFLICT
    assert len(report.conflicting_fact_ids) == 1


def test_unverified_facts_do_not_gate():
    store = FactStore()
    store.add_assumption("k", number(42))
    assert store.check_consistency(("k", number(17))).verdict == UNKNOWN


def test_provenance_chain_lengths():
    store = FactStore()
    store.record_tool(_tool("t1", number(1)))
    store.record_tool(_tool("t2", number(1)))
    note = store.summarize_to_note(["t1", "t2"])
    fact = store.promote_fact(note.id, DERIVED, ConsistencyReport(CONSISTENT), "k", number(1))
    chain = store.provenance_chain(fact.id)
    assert len(chain) == 4
    assert isinstance(chain[0], Fact)
    assert isinstance(chain[1], Note)
    assert isinstance(chain[2], ToolRecord) and isinstance(chain[3], ToolRecord)

    given = store.add_given("g", number(7))
    assert store.provenance_chain(given.id) == [given]


def test_broken_chain_detected():
    store = FactStore()
    store.record_tool(_tool())
    note = store.summarize_to_note(["t1"])
    fact = store.promote_fact(note.id, RETRIEVED, ConsistencyReport(CONSISTENT), "k", number(1))
    store._notes.pop(note.id)  # simulate corruption
    with pytest.raises(BrokenChainError):
        store.provenance_chain(fact.id)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_randomized_store_has_complete_chains(seed):
    store = build_random_store(seed, n_ops=50)
    for fact in store.verified_facts():
        if fact.category in (RETRIEVED, DERIVED):
            chain = store.provenance_chain(fact.id)
            assert sum(1 for x in chain if isinstance(x, ToolRecord)) >= 1
    assert store.verify_promotion_soundness() == []


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_versions_strictly_increase(seed):
    import random as _random

    from storegen import apply_random_ops

    store = FactStore()
    rng = _random.Random(seed)
    seen = [store.version]
    for _ in range(15):
        apply_random_ops(store, rng, 1)
        assert store.version > seen[-1]
        seen.append(store.version)


def _promoted_store():
    store = FactStore()
    store.record_tool(_tool())
    note = store.summarize_to_note(["t1"], note_id="n1")
    store.promote_fact(note.id, RETRIEVED, ConsistencyReport(CONSISTENT), "k", number(42), fact_id="f1")
    store.add_given("g", number(7), fact_id="g1")
    assert store.verify_promotion_soundness() == []
    return store


def _promote_against_the_rule(store):
    """A fact f2 promoted to verified from a low-credibility note, journaled as it is stored."""
    store._facts["f2"] = Fact("f2", RETRIEVED, "k2", number(1), VERIFIED, derived_from=("n1",))
    store.oplog.append(("promote", "f2", CONSISTENT, LOW, VERIFIED))


def test_soundness_reports_a_promotion_against_the_rule():
    store = _promoted_store()
    _promote_against_the_rule(store)
    assert store.verify_promotion_soundness() == [
        "promotion of f2 recorded status verified, rules say unverified"]


def test_soundness_reports_every_violation_after_a_promotion_against_the_rule():
    store = _promoted_store()
    _promote_against_the_rule(store)
    del store._facts["g1"]
    assert store.verify_promotion_soundness() == [
        "promotion of f2 recorded status verified, rules say unverified",
        "journaled fact g1 missing from store (deletion is forbidden)",
    ]


def test_soundness_reports_a_status_changed_after_its_journal_entry():
    store = _promoted_store()
    store._facts["f1"] = dataclasses.replace(store.get_fact("f1"), status=UNVERIFIED)
    store._facts["g1"] = dataclasses.replace(store.get_fact("g1"), status=REFUTED)
    assert store.verify_promotion_soundness() == [
        "fact f1 has status unverified, journal implies verified",
        "fact g1 has status refuted, journal implies verified",
    ]


def test_soundness_reports_a_fact_without_a_journal_entry():
    store = _promoted_store()
    store._facts["f9"] = Fact("f9", GIVEN, "k", number(1), VERIFIED)
    assert store.verify_promotion_soundness() == ["fact f9 present without any journal entry"]


def test_soundness_reports_a_journaled_fact_that_is_missing():
    store = _promoted_store()
    del store._facts["f1"]
    assert store.verify_promotion_soundness() == [
        "journaled fact f1 missing from store (deletion is forbidden)"]


def test_store_serialization_round_trip():
    store = build_random_store(99, n_ops=40)
    lines = store.to_lines()
    reloaded = FactStore.from_lines(lines)
    assert reloaded.to_lines() == lines
    assert {f.id for f in reloaded.facts()} == {f.id for f in store.facts()}


def test_reloaded_store_passes_soundness_replay():
    store = build_random_store(7, n_ops=40)
    reloaded = FactStore.from_lines(store.to_lines())
    assert reloaded.verify_promotion_soundness() == []


_TOOL = {"kind": "tool", "id": "t1", "tool_name": "calc", "params": {}, "outcome": 1}
_NOTE = {"kind": "note", "id": "n1", "summary": "1", "credibility": "high", "derived_from": ["t1"]}
_FACT = {"kind": "fact", "id": "f1", "category": "retrieved", "key": "k", "value": 1,
         "status": "verified", "version": 1, "derived_from": ["n1"]}


@pytest.mark.parametrize("record, message", [
    ({"kind": "tool"}, r"missing field 'id'"),
    ({**_TOOL, "id": ["t9"]}, r"field 'id'"),
    ({**_TOOL, "params": 5}, r"field 'params'"),
    ({**_TOOL, "outcome": {"kind": "number"}}, r"missing field 'value'"),
    ({**_TOOL, "outcome": {"kind": "weird"}}, r"field 'outcome'.*unknown value kind"),
    ({**_NOTE, "derived_from": 5}, r"field 'derived_from'"),
    ({**_NOTE, "derived_from": [["t1"]]}, r"field 'derived_from'"),
    ({**_FACT, "version": "x"}, r"field 'version'"),
    ({**_FACT, "derived_from": 5}, r"field 'derived_from'"),
    ({**_FACT, "value": {"kind": "composite", "items": 5}}, r"field 'value'"),
    ({k: v for k, v in _FACT.items() if k != "key"}, r"missing field 'key'"),
    ({**_FACT, "version": "3"}, r"field 'version': must be an int >= 1"),
    ({**_FACT, "version": 2.9}, r"field 'version': must be an int >= 1"),
    ({**_FACT, "version": True}, r"field 'version': must be an int >= 1"),
    ({**_FACT, "version": 0}, r"field 'version': must be an int >= 1"),
    ({**_FACT, "version": -4}, r"field 'version': must be an int >= 1"),
    ({**_TOOL, "params": [["x", 1]]}, r"field 'params': params must be an object"),
    ({**_TOOL, "params": {"x": float("nan")}}, r"field 'params': Out of range float"),
    ({**_TOOL, "params": {"x": [float("-inf")]}}, r"field 'params': Out of range float"),
    ({**_TOOL, "source_url": 5}, r"field 'source_url' must be a string or null"),
    ({**_TOOL, "retrieved_at": ["2024"]}, r"field 'retrieved_at' must be a string or null"),
    ({**_TOOL, "id": "t2", "tool_name": "a|b"}, r"tool record field 'tool_name' must not contain '\|'"),
    ({**_FACT, "value": 10**400}, r"field 'value': number payload must lie within float range"),
    ({**_TOOL, "id": "t2", "outcome": {"kind": "quantity", "value": -(10**400), "unit": "m"}},
     r"field 'outcome': number payload must lie within float range"),
])
def test_malformed_dump_record_is_schema_error(record, message):
    lines = [json.dumps(r) for r in (_TOOL, _NOTE, record)]
    with pytest.raises(SchemaError, match=message):
        FactStore.from_lines(lines)


def test_an_integer_literal_too_long_to_convert_is_schema_error():
    # json.loads raises a plain ValueError here, not a JSONDecodeError.
    line = json.dumps(_FACT).replace('"value": 1', '"value": ' + "1" * 5000)
    with pytest.raises(SchemaError, match="bad store record on line 3"):
        FactStore.from_lines([json.dumps(_TOOL), json.dumps(_NOTE), line])


@pytest.mark.parametrize("record, field", [
    ({**_TOOL, "id": 5}, "id"),
    ({**_TOOL, "id": "t2", "tool_name": 5}, "tool_name"),
    ({**_NOTE, "id": 5}, "id"),
    ({**_NOTE, "id": "n2", "summary": 5}, "summary"),
    ({**_FACT, "id": 5}, "id"),
    ({**_FACT, "id": "f2", "key": 5}, "key"),
])
def test_non_string_id_or_key_is_schema_error(record, field):
    # Loaded, a number among string ids made every sorted listing raise TypeError.
    lines = [json.dumps(r) for r in (_TOOL, _NOTE, _FACT, record)]
    with pytest.raises(SchemaError, match=rf"field '{field}' must be a string, got int"):
        FactStore.from_lines(lines)


def test_dump_refuses_a_non_finite_number():
    store = FactStore()
    store.record_tool(_tool(params={"q": float("nan")}))
    with pytest.raises(ValueError):
        store.to_lines()


def test_schema_text_lists_the_dumped_fields_in_order():
    store = FactStore()
    store.record_tool(_tool())
    store.summarize_to_note(["t1"], note_id="n1")
    store.promote_fact("n1", RETRIEVED, ConsistencyReport(CONSISTENT), "k", number(42), fact_id="f1")
    emitted = {}
    for line in store.to_lines():
        record = json.loads(line)
        emitted[record["kind"]] = list(record)
    documented = {}
    dump_section = SCHEMA_TEXT.split("facts store dump", 1)[1]
    for line in dump_section.splitlines()[1:]:
        names = re.findall(r'"([^"]*)"', line)
        if names:
            assert names[0] == "kind"
            documented[names[1]] = ["kind"] + names[2:]
    assert documented == emitted
    assert list(documented) == ["tool", "note", "fact"]
