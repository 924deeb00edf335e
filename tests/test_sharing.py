"""What a load shares: one object per id, word and printed value, and the heap a loaded statement holds.

Scenarios are written to files and loaded back, as the product and the
benchmark load them. Within a scenario and across scenarios, equal step
ids, expert ids and constraint step patterns must be one string object,
and every closed-vocabulary word (role, scope, fact category and status,
verdict) the module's constant. Within a scenario, a verdict entry,
oracle value or tool outcome whose literal a trace value prints to must
be that value's object. The table that shares ids stays within its
bound and keeps no id alive for good, and a scenario's statement index
adds a few bytes per statement.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

from crosscheck import values
from crosscheck.corpus import GeneratorParams, random_corpus, random_scenario, write_corpus
from crosscheck.ensemble import CONSERVATIVE, RADICAL, index_statements
from crosscheck.facts import CATEGORIES, STATUSES, Fact
from crosscheck.scenario import load_corpus, scenario_expert_outputs, scenario_from_dict, scenario_to_dict
from crosscheck.values import format_literal, shared_text
from crosscheck.verifiers import RESPONSE_SCOPE, STEP_SCOPE, VERDICTS
from test_scenario import _tool_scenario

DESK_PARAMS = GeneratorParams(with_constraints=True, with_facts=True)
# The bench's ``wide`` generator settings.
WIDE_PARAMS = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4,
                              edge_prob=0.1, with_constraints=True)


def _strings(scenario):
    """Every id the scenario holds, as ``(what, string)``."""
    dag = scenario.dag
    yield from (("dag step", step) for step in dag.steps)
    yield from (("dag edge", step) for edge in dag.edges for step in edge)
    for expert in scenario.experts:
        yield "expert id", expert.config.expert_id
        for output in expert.outputs:
            yield "expert id", output.expert_id
            yield from (("trace step", step) for step in output.step_ids)
    yield from (("verdict step", step) for step, _, _ in scenario.verdicts)
    if scenario.oracle is not None:
        yield from (("oracle step", step) for step in scenario.oracle.truth)
    yield from (("step pattern", c.step_pattern) for c in scenario.constraints if c.step_pattern is not None)
    yield from (("fact key", record.key) for record in scenario.facts_seed if isinstance(record, Fact))


def _assert_shared(scenarios) -> None:
    seen: dict[str, str] = {}
    counts = dict.fromkeys(["dag step", "dag edge", "expert id", "trace step", "verdict step", "oracle step",
                            "step pattern", "fact key"], 0)
    for scenario in scenarios:
        for what, string in _strings(scenario):
            assert seen.setdefault(string, string) is string, (scenario.name, what, string)
            counts[what] += 1
        assert all(e.config.role is CONSERVATIVE or e.config.role is RADICAL for e in scenario.experts)
        assert all(c.scope is STEP_SCOPE or c.scope is RESPONSE_SCOPE for c in scenario.constraints)
        assert all(any(verdict is word for word in VERDICTS) for _, _, verdict in scenario.verdicts)
        for record in scenario.facts_seed:
            if isinstance(record, Fact):
                assert any(record.category is word for word in CATEGORIES)
                assert any(record.status is word for word in STATUSES)
    assert all(counts.values()), counts  # the corpus exercises every kind of id


def _assert_values_shared(scenario) -> int:
    """Each decoded value whose literal a trace value prints to is that value; returns how many were."""
    held = {}
    for expert in scenario.experts:
        for output in expert.outputs:
            for value in (*(output.value_at(step) for step in output.step_ids), output.response):
                assert held.setdefault(format_literal(value), value) is value
    others = [entry for _, entry, _ in scenario.verdicts] + list(scenario.tool_outcomes.values())
    if scenario.oracle is not None:
        others += [scenario.oracle.answer, *scenario.oracle.truth.values()]
    shared = 0
    for value in others:
        twin = held.get(format_literal(value))
        if twin is not None:
            assert value is twin, format_literal(value)
            shared += 1
    return shared


def _write_corpus(directory) -> None:
    """Forty desk-shaped scenarios, two wide-shaped ones and the cross-execution scenario, as files."""
    desk, _ = random_corpus(5, 40, DESK_PARAMS)
    write_corpus([*desk, random_scenario(20_007, WIDE_PARAMS), random_scenario(10_004, WIDE_PARAMS)], directory)
    (directory / "tools.json").write_text(json.dumps(_tool_scenario()), encoding="utf-8")


def test_a_loaded_corpus_holds_one_object_per_id_and_word(tmp_path):
    _write_corpus(tmp_path)
    loaded = load_corpus(tmp_path)
    _assert_shared(loaded)
    # A second load of the same files shares with the first.
    _assert_shared([*loaded, *load_corpus(tmp_path)])


def test_a_shared_id_is_not_kept_alive_for_good():
    # sys.intern makes every string it shares immortal on CPython 3.12 and later.
    text = "".join(["an id no scenario holds ", str(id(object()))])
    assert shared_text(text) is text
    assert shared_text("".join(["an id no scenario holds ", text.rsplit(" ", 1)[1]])) is text
    assert sys.getrefcount(text) < 2**30


def test_the_shared_table_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(values, "_SHARED", {})
    monkeypatch.setattr(values, "SHARED_BOUND", 8)
    for i in range(100):
        first = shared_text(f"id {i}")
        assert shared_text(f"id {i}") is first  # shared until the table is next emptied
        assert len(values._SHARED) <= 8


def test_a_decoded_value_a_trace_holds_is_the_traces_object(tmp_path):
    _write_corpus(tmp_path)
    loaded = load_corpus(tmp_path)
    shared = sum(_assert_values_shared(s) for s in loaded)
    total = sum(len(s.verdicts) for s in loaded)
    assert shared > total / 2, (shared, total)  # most verdict keys name a value some trace asserts
    tools = next(s for s in loaded if s.name == "tools")
    (outcome,) = tools.tool_outcomes.values()
    assert outcome is tools.experts[0].outputs[0].value_at("s1")


# --- the heap a loaded statement holds ---------------------------------------

# Four of the larger ``wide`` scenarios, 13,678 statements in 239 traces
# (the seeds of tests/test_columns.py), and 200 ``desk`` scenarios,
# 2,696 statements.
WIDE_HEAP_SEEDS = (10_004, 10_012, 10_047, 10_051)
DESK_HEAP_CORPUS = (7, 200)
# Measured per statement, with the ``marshal`` blobs a load keeps to save
# the file again set aside: ``wide`` 35.7 B on CPython 3.11 (35.1 to 36.7
# on 3.10 to 3.13), ``desk`` 445.6 B (438.6 to 479.5). Before loads
# shared their ids, words and verdict values they held 54.5 B (52.5 to
# 57.2) and 666.4 B (636.7 to 720.1). Each bound lies about a fifth above
# the highest figure measured and below the lowest figure before.
WIDE_HEAP_BYTES_PER_STATEMENT = 45
DESK_HEAP_BYTES_PER_STATEMENT = 560


def _held_per_statement(texts: list[str]) -> float:
    """Load each scenario from its JSON text and weigh what the loaded scenarios keep, blobs aside."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = [scenario_from_dict(json.loads(text)) for text in texts]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    blobs = sum(sys.getsizeof(s.saved_fields) + sum(sys.getsizeof(e.saved_traces) for e in s.experts)
                for s in loaded)
    statements = sum(len(o.step_ids) for s in loaded for e in s.experts for o in e.outputs)
    assert statements > 2_000
    return (held - blobs) / statements


# The statement index alone, per statement: ``wide`` 2.6 B and ``desk``
# 41.7 B on CPython 3.11. Its masks and equality rows are ints and bytes,
# not objects per statement; the fixed tuples of a ``desk`` scenario are
# shared by its few statements. Each bound lies about a fifth above.
WIDE_INDEX_BYTES_PER_STATEMENT = 3
DESK_INDEX_BYTES_PER_STATEMENT = 50


def _index_per_statement(scenarios) -> float:
    """Build each loaded scenario's statement index again and weigh what the index adds."""
    outputs = [scenario_expert_outputs(s) for s in scenarios]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        indexes = [index_statements(o) for o in outputs]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert indexes == [s.statement_index for s in scenarios]
    return held / sum(len(o.step_ids) for os in outputs for o in os)


def test_a_statement_index_holds_few_bytes():
    per_statement = _index_per_statement([random_scenario(seed, WIDE_PARAMS) for seed in WIDE_HEAP_SEEDS])
    assert per_statement < WIDE_INDEX_BYTES_PER_STATEMENT, f"wide: {per_statement:.2f} B per statement"
    per_statement = _index_per_statement(random_corpus(*DESK_HEAP_CORPUS, DESK_PARAMS)[0])
    assert per_statement < DESK_INDEX_BYTES_PER_STATEMENT, f"desk: {per_statement:.2f} B per statement"


def test_a_loaded_statement_holds_few_bytes():
    wide = [json.dumps(scenario_to_dict(random_scenario(seed, WIDE_PARAMS))) for seed in WIDE_HEAP_SEEDS]
    per_statement = _held_per_statement(wide)
    assert per_statement < WIDE_HEAP_BYTES_PER_STATEMENT, f"wide: {per_statement:.1f} B per statement"
    desk = [json.dumps(scenario_to_dict(s)) for s in random_corpus(*DESK_HEAP_CORPUS, DESK_PARAMS)[0]]
    per_statement = _held_per_statement(desk)
    assert per_statement < DESK_HEAP_BYTES_PER_STATEMENT, f"desk: {per_statement:.1f} B per statement"
