"""Columnar traces: the parse against a naive reference, read-only outputs, the heap per statement.

A parsed :class:`ExpertOutput` holds columns, the only form a trace has.
Read through its public API (``oracles.trace_rows``), it must give exactly
the ``(value, confidence, provenance)`` rows of ``oracles.reference_parse``,
with every value the intern table's object; ``restricted_to`` must keep
the reference's rows at the kept steps, in the same order; and no public
attribute may let a caller rebind a field or write a confidence, since a
loaded scenario's outputs are shared by all its runs.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck.corpus import GeneratorParams, random_scenario
from crosscheck.ensemble import ExpertOutput, parse_expert_output
from crosscheck.errors import SchemaError
from crosscheck.scenario import scenario_from_dict, scenario_to_dict
from crosscheck.values import format_literal
from oracles import reference_parse, trace, trace_rows
from test_scenario import _tool_variants

DESK_PARAMS = GeneratorParams(with_constraints=True, with_facts=True)
# The bench's ``wide`` generator settings.
WIDE_PARAMS = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4,
                              edge_prob=0.1, with_constraints=True)

ABSENT = object()
RAW_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["x", "y", 2.5, -0.0, 0.0, True, False, [1, "x"]]),
    st.sampled_from([{"kind": "number", "value": v} for v in (1, 1.0, 2.5, -0.0)]),
    st.sampled_from([{"kind": "quantity", "value": 1.5, "unit": u} for u in ("m", "s")]),
)
CONFIDENCES = st.one_of(
    st.just(ABSENT),
    st.integers(0, 1),
    st.floats(0.0, 1.0),
    # Just outside [0, 1], within the slack that parsing clamps away.
    st.sampled_from([-1e-10, -1e-9, 1.0 + 1e-10, 1.0 + 1e-9]),
)
PROVENANCE = st.sampled_from([ABSENT, [], ["t2", "t1"], ["t1"], {"t1"}])


@st.composite
def hostile_traces(draw):
    """Raw traces built by hand: keys in any order, int and edge confidences, every provenance form, no steps."""
    steps = {}
    for step in draw(st.lists(st.sampled_from(["s2", "a", "s10", "z", "s1", "b"]), unique=True, max_size=6)):
        entry = {"value": draw(RAW_VALUES)}
        for name, strategy in (("confidence", CONFIDENCES), ("provenance", PROVENANCE)):
            field = draw(strategy)
            if field is not ABSENT:
                entry[name] = field
        steps[step] = entry
    raw = {"response": draw(RAW_VALUES)}
    if steps or draw(st.booleans()):
        raw["steps"] = steps
    return raw


def _generated(source: str, seed: int) -> dict:
    if source == "tools":
        return _tool_variants()[seed % 3]
    return scenario_to_dict(random_scenario(seed, DESK_PARAMS if source == "desk" else WIDE_PARAMS))


def _assert_read_only(output: ExpertOutput) -> None:
    """No public attribute can be rebound, and no mapping it offers can be written."""
    before = trace_rows(output)
    step = next(iter(output.step_ids), "s1")
    for name in dir(output):
        if name.startswith("_"):
            continue
        attr = getattr(output, name)
        # A frozen slotted dataclass raises TypeError for a name that is not a field, before CPython 3.12.
        with pytest.raises((AttributeError, TypeError)):
            setattr(output, name, attr)
        if isinstance(attr, Mapping):
            with pytest.raises(TypeError):
                attr[step] = 0.5  # type: ignore[index]
    assert trace_rows(output) == before


def _assert_matches_reference(output: ExpertOutput, raw: dict, interned: dict[str, object]) -> None:
    """``output`` holds what the reference parse holds, each value the one object for its literal."""
    expected, response = reference_parse(raw)
    rows = [(step, *entry) for step, entry in expected.items()]
    assert trace_rows(output) == rows
    assert output.response == response
    for step, (value, _, _) in expected.items():
        assert output.value_at(step) is interned.setdefault(format_literal(value), output.value_at(step))
    assert output.response is interned.setdefault(format_literal(response), output.response)
    steps = list(expected)
    for keep in (set(steps[::2]), set(steps[1::3]), set(), set(steps)):
        fragment = output.restricted_to(keep)
        kept = [row for row in rows if row[0] in keep]
        assert trace_rows(fragment) == kept
        assert (fragment.expert_id, fragment.response) == (output.expert_id, output.response)
        # A step the fragment lacks has no provenance, even where its source cites some.
        assert [fragment.provenance(s) for s in steps] == [expected[s][2] if s in keep else () for s in steps]
        # A fragment of a fragment keeps the first fragment's rows at the inner steps.
        inner = set(steps[:2])
        assert trace_rows(fragment.restricted_to(inner)) == [row for row in kept if row[0] in inner]
        _assert_read_only(fragment)
    _assert_read_only(output)


@given(st.sampled_from(["desk", "wide", "tools"]), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_loaded_traces_match_the_reference_parse(source, seed):
    obj = _generated(source, seed)
    scenario = scenario_from_dict(obj)
    # One object per printed value across the whole scenario, as the load's intern table gives.
    interned: dict[str, object] = {}
    for expert in scenario.experts:
        assert len(expert.raw_traces) == len(expert.outputs)
        for raw, output in zip(expert.raw_traces, expert.outputs):
            _assert_matches_reference(output, raw, interned)


@given(st.lists(hostile_traces(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_hand_built_traces_match_the_reference_parse(raws):
    interned: dict[object, object] = {}
    for raw in raws:
        try:
            expected = reference_parse(raw)
        except ValueError:
            with pytest.raises(SchemaError, match="provenance"):
                parse_expert_output("e01", raw, interned)
            continue
        output = parse_expert_output("e01", raw, interned)
        _assert_matches_reference(output, raw, {k: v for k, v in interned.items() if isinstance(k, str)})
        # The same rows through the unchecked constructor read back the same.
        rebuilt = trace("e01", *expected)
        assert trace_rows(rebuilt) == trace_rows(output)
        assert (rebuilt.expert_id, rebuilt.response) == (output.expert_id, output.response)
        _assert_read_only(rebuilt)


def test_a_hand_built_output_keeps_its_step_order():
    output = parse_expert_output("e01", {"steps": {"b": {"value": 1}, "a": {"value": 2, "confidence": 0.25}},
                                         "response": 1})
    reordered = trace("e01", {step: entry for step, *entry in reversed(trace_rows(output))}, output.response)
    assert list(output.step_ids) == ["a", "b"] and list(reordered.step_ids) == ["b", "a"]
    assert trace_rows(reordered) == trace_rows(output)[::-1]
    assert list(reordered.restricted_to({"a", "b"}).step_ids) == ["b", "a"]
    assert reordered.mean_confidence() == output.mean_confidence() == 0.625
    # Outputs compare by identity: the same rows in two outputs are two traces.
    assert reordered != output and output == output


def test_traces_with_one_step_set_share_their_step_order():
    raw = {"steps": {"s2": {"value": 1}, "s1": {"value": 2, "confidence": 0.5}}, "response": 1}
    interned: dict[object, object] = {}
    first, second = (parse_expert_output(e, raw, interned) for e in ("e01", "e02"))
    other = parse_expert_output("e03", {"steps": {"s1": {"value": 2}}, "response": 1}, interned)
    assert first._positions is second._positions
    assert other._positions is not first._positions


# --- the heap a parsed statement holds -----------------------------------------

# Four of the larger ``wide`` scenarios, 13,678 statements in 239 traces.
HEAP_SEEDS = (10_004, 10_012, 10_047, 10_051)
# Measured at 26.3 B per statement on CPython 3.11 (25.9 to 27.1 on 3.10
# to 3.13): the value tuples and confidence arrays, the shared step
# orders, and the values and strings that outlive the load. A dict of
# one slotted object per statement, the form the columns replaced, held
# 114.9 B. The bound leaves half the measured figure
# again as headroom.
HEAP_BYTES_PER_STATEMENT = 40


def test_a_parsed_statement_holds_few_bytes():
    """Parse a handful of ``wide`` scenarios' traces from JSON text and weigh what the outputs keep.

    The JSON text of each scenario is decoded and parsed inside the
    measurement, as a load does, and the raw dicts and the intern table
    are dropped before it ends, so what remains is what the outputs keep
    alive. The ``marshal`` blobs that a load also keeps, to save the file
    again, are not built.
    """
    texts = [json.dumps(scenario_to_dict(random_scenario(seed, WIDE_PARAMS))) for seed in HEAP_SEEDS]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outputs = []
        for text in texts:
            interned: dict[object, object] = {}
            for block in json.loads(text)["experts"]:
                outputs.extend(parse_expert_output(block["expert_id"], raw, interned) for raw in block["traces"])
            del interned
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    statements = sum(len(o.step_ids) for o in outputs)
    assert statements > 10_000
    assert held / statements < HEAP_BYTES_PER_STATEMENT, f"{held / statements:.1f} B per statement"
