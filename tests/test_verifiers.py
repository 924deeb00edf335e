from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from crosscheck import verifiers
from crosscheck.corpus import GeneratorParams, adversarial_scenario, random_corpus, random_scenario
from crosscheck.ensemble import parse_expert_output
from crosscheck.errors import DuplicateIdError, UnknownStepError
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.facts import CONFLICT, FactStore, ToolRecord, conflicting_fact_ids
from crosscheck.plandag import build_plan
from crosscheck.scenario import scenario_expert_outputs, scenario_from_dict
from crosscheck.values import number, quantity, text
from crosscheck.verifiers import (
    INCONCLUSIVE,
    REFUTE,
    RESPONSE_KEY,
    RESPONSE_SCOPE,
    SUPPORT,
    CrossExecutionOperator,
    OperatorRegistry,
    ScriptedTableOperator,
    Verdict,
    check_response,
    constraint_from_spec,
    default_registry,
    gate,
    index_constraints,
)

from oracles import conjunction, reference_gate, removal_oracle, trace, trace_rows
from test_golden_digest import WIDE_PARAMS
from test_scenario import TOOL_CONFIGS, _tool_variants

CHAIN = build_plan(["s1", "s2", "s3", "s4"], [("s1", "s2"), ("s2", "s3"), ("s3", "s4")])


def _trace(values: dict[str, object], response: object, confidence: float = 0.8):
    return parse_expert_output("e01", {
        "steps": {s: {"value": v, "confidence": confidence} for s, v in values.items()},
        "analysis": "t",
        "response": response,
    })


def test_gate_vacuous_pass():
    trace = _trace({"s1": 1, "s2": 2, "s3": 3, "s4": 4}, 4)
    result = gate(trace, index_constraints((), CHAIN), CHAIN, threshold=0.5)
    assert not result.rejected
    assert result.score == 1.0
    assert list(result.trace.step_ids) == list(trace.step_ids)


def test_gate_rejects_infeasible_response():
    constraint = constraint_from_spec(
        {"id": "resp-m", "check": "unit", "scope": "response", "unit": "m"}
    )
    trace = _trace({"s1": 1}, {"kind": "quantity", "value": 3.0, "unit": "ft"})
    result = gate(trace, index_constraints((constraint,), CHAIN), CHAIN, threshold=0.0)
    assert result.rejected
    assert not result.response_ok


def test_gate_excises_facts_conflict_and_dependents():
    facts = FactStore()
    facts.add_given("s2", number(99))
    trace = _trace({"s1": 1, "s2": 2, "s3": 3, "s4": 4}, 4)
    result = gate(trace, index_constraints((), CHAIN, facts), CHAIN, threshold=0.2)
    assert not result.rejected
    assert result.failing == ("s2",)
    assert result.removed == ("s2", "s3", "s4")
    assert set(result.trace.step_ids) == {"s1"}
    assert result.score == 0.25


def test_gate_threshold_rejects_thin_remainder():
    facts = FactStore()
    facts.add_given("s2", number(99))
    trace = _trace({"s1": 1, "s2": 2, "s3": 3, "s4": 4}, 4)
    result = gate(trace, index_constraints((), CHAIN, facts), CHAIN, threshold=0.5)
    assert result.rejected
    assert result.response_ok  # rejected on score, not feasibility


def test_gate_statement_free_trace_scores_one():
    trace = _trace({}, 42)
    result = gate(trace, index_constraints((), CHAIN), CHAIN, threshold=0.9)
    assert not result.rejected
    assert result.score == 1.0


def test_check_response_empty_constraints():
    assert check_response(number(5), ()) is True


def test_check_response_unit_mismatch():
    constraint = constraint_from_spec(
        {"id": "meters", "check": "unit", "scope": "response", "unit": "meters"}
    )
    assert check_response(quantity(3, "feet"), (constraint,)) is False
    assert check_response(quantity(3, "meters"), (constraint,)) is True


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_check_response_matches_conjunction_oracle(seed):
    rng = random.Random(seed)
    specs = []
    for i in range(10):
        kind = rng.choice(["range", "kind", "unit"])
        if kind == "range":
            lo = rng.randint(-50, 50)
            specs.append({"id": f"c{i}", "check": "range", "scope": "response",
                          "min": lo, "max": lo + rng.randint(0, 40)})
        elif kind == "kind":
            specs.append({"id": f"c{i}", "check": "kind", "scope": "response",
                          "expect": rng.choice(["number", "text"])})
        else:
            specs.append({"id": f"c{i}", "check": "unit", "scope": "response",
                          "unit": rng.choice(["m", "s"])})
    constraints = tuple(constraint_from_spec(s) for s in specs)
    response = number(rng.randint(-60, 60)) if rng.random() < 0.8 else text("x")
    predicates = [lambda v, c=c: c.holds(v) for c in constraints]
    assert check_response(response, constraints) == conjunction(response, predicates)


def test_verify_scripted_refute_cost_one():
    registry = OperatorRegistry().register(
        ScriptedTableOperator([("s1", number(5), "refute")])
    )
    verdict = registry.verify(("s1", number(5)), ())
    assert verdict.value == REFUTE
    assert verdict.cost == 1
    # fixed registry + scripted operators: identical inputs, identical verdicts
    assert registry.verify(("s1", number(5)), ()) == verdict


def test_verify_cross_execution_support_and_refute():
    store = FactStore()
    store.record_tool(ToolRecord("t1", "calc", {"expr": "6*7"}, number(42)))
    runner_calls = []

    def runner(tool_name, params):
        runner_calls.append((tool_name, params))
        return number(42)

    registry = OperatorRegistry().register(CrossExecutionOperator(store, runner))
    verdict = registry.verify(("s1", number(42)), ("t1",))
    assert verdict.value == SUPPORT
    assert verdict.evidence == ("tool:t1",)
    assert runner_calls == [("calc", {"expr": "6*7"})]
    assert registry.verify(("s1", number(41)), ("t1",)).value == REFUTE
    # a provenance id the store does not hold is skipped, not an error
    assert registry.verify(("s1", number(42)), ("t9",)).value == INCONCLUSIVE
    assert len(runner_calls) == 2


def test_registry_order_is_part_of_the_contract():
    store = FactStore()
    store.record_tool(ToolRecord("t1", "calc", {}, number(5)))
    cross_exec = CrossExecutionOperator(store, lambda tool_name, params: number(5))
    table = ScriptedTableOperator([("s1", number(5), "refute")])
    cross_first = OperatorRegistry().register(cross_exec).register(table)
    table_first = OperatorRegistry().register(table).register(cross_exec)
    cross_verdict = cross_first.verify(("s1", number(5)), ("t1",))
    table_verdict = table_first.verify(("s1", number(5)), ("t1",))
    assert (cross_verdict.value, cross_verdict.operator, cross_verdict.cost) == (SUPPORT, "cross-exec", 1)
    assert (table_verdict.value, table_verdict.operator, table_verdict.cost) == (REFUTE, "scripted", 1)


def test_duplicate_operator_rejected():
    registry = OperatorRegistry().register(ScriptedTableOperator([]))
    with pytest.raises(DuplicateIdError):
        registry.register(ScriptedTableOperator([("s1", number(5), "refute")]))


def test_empty_registry_is_inconclusive_and_free():
    verdict = OperatorRegistry().verify(("s1", number(1)), ())
    assert verdict.value == INCONCLUSIVE
    assert verdict.cost == 0


def test_crashing_operator_treated_as_inconclusive():
    class Crasher:
        op_id = "crasher"
        scripted = False

        def examine(self, step, value, provenance):
            raise RuntimeError("boom")

    errors = []
    registry = OperatorRegistry().register(Crasher()).register(
        ScriptedTableOperator([("s1", number(1), "support")])
    )
    verdict = registry.verify(("s1", number(1)), (),
                              on_error=lambda op, msg: errors.append((op, msg)))
    assert verdict.value == SUPPORT
    assert verdict.cost == 2
    assert errors and errors[0][0] == "crasher"


def test_evidence_free_commitment_is_discarded():
    class Overconfident:
        op_id = "overconfident"
        scripted = False

        def examine(self, step, value, provenance):
            return Verdict(SUPPORT, ())

    errors = []
    registry = OperatorRegistry().register(Overconfident())
    verdict = registry.verify(("s1", number(1)), (),
                              on_error=lambda op, msg: errors.append(op))
    assert verdict.value == INCONCLUSIVE
    assert errors == ["overconfident"]


# Tolerance-edge values: a chain whose neighbours are equal but whose ends are not,
# int/float twins, signed zeros, the smallest subnormal, and text that folds together.
_EDGE_VALUES = st.sampled_from([
    number(10**9), number(10**9 + 1), number(10**9 + 2), number(1e9 + 1),
    number(73786976294838212674), number(73786976221051232256), number(73786976221051232256.0),
    number(0), number(0.0), number(-0.0), number(5e-324), number(1e-9), number(2e-9),
    quantity(10**9, "m"), quantity(10**9 + 2, "m"), quantity(10**9, "s"), text("Paris"), text(" paris"),
])


@st.composite
def fact_stores(draw):
    """A store of given (verified) and assumption (unverified) facts at a few keys, ids in shuffled order."""
    entries = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(["s1", "s2"]), _EDGE_VALUES), max_size=8))
    ids = draw(st.permutations([f"f{i}" for i in range(len(entries))]))
    store = FactStore()
    for fact_id, (given_fact, key, value) in zip(ids, entries):
        (store.add_given if given_fact else store.add_assumption)(key, value, fact_id)
    return store


FLAT = build_plan(["s1", "s2", "s3"], [])


def _chain_ends_at_s1():
    """Two verified facts at s1 whose values are unequal, ids ascending."""
    store = FactStore()
    store.add_given("s1", number(10**9), "f0")
    store.add_given("s1", number(10**9 + 2), "f1")
    return store


@given(fact_stores(), st.sampled_from(["s1", "s2", "s3"]), _EDGE_VALUES)
@example(_chain_ends_at_s1(), "s1", number(10**9))  # agrees with f0 only: every fact must be asked
@settings(max_examples=200, deadline=None)
def test_gate_rule_over_the_verified_facts_matches_asking_the_store(store, step, value):
    # The gate reads the verified facts grouped by key, as index_constraints hands them over;
    # check_consistency scans the whole store. Both must find the same conflicts, with the same ids.
    report = store.check_consistency((step, value))
    assert conflicting_fact_ids(store.verified_by_key().get(step, ()), value) == report.conflicting_fact_ids
    output = trace("e01", {step: (value, 0.9)}, value)
    failing = gate(output, index_constraints((), FLAT, store), FLAT, threshold=0.0).failing
    assert failing == ((step,) if report.verdict == CONFLICT else ())


def test_default_registry_order():
    # Cross-execution can decide s1 (it cites t1), the table both; the verified fact at s2 decides nothing.
    store = FactStore()
    store.add_given("s2", number(7))
    store.record_tool(ToolRecord("t1", "calc", {}, number(7)))
    table = [(step, number(7), REFUTE) for step in ("s1", "s2")]
    registry = default_registry(store, lambda tool_name, params: number(7), table)
    decided = [registry.verify((step, number(7)), provenance) for step, provenance in (("s1", ("t1",)), ("s2", ()))]
    assert [(v.operator, v.cost) for v in decided] == [("cross-exec", 1), ("scripted", 2)]


def test_every_default_operator_decides_some_verify_call():
    # A verify call that nothing decides costs one invocation per registered operator.
    registered = default_registry(FactStore(), lambda tool_name, params: number(0),
                                  [("s1", number(1), SUPPORT)]).verify(("s9", text("x")), ()).cost
    desk, _ = random_corpus(1, 500, GeneratorParams(with_constraints=True, with_facts=True))
    runs = [(scenario, EngineConfig()) for scenario in desk]
    runs += [(scenario_from_dict(obj), config) for obj in _tool_variants() for config in TOOL_CONFIGS]
    deciding = {entry.payload["operator"] for scenario, config in runs
                for entry in run_pipeline(scenario, config).audit_log
                if entry.stage == "audit" and entry.event == "verify"}
    deciding.discard(None)
    assert len(deciding) == registered, sorted(deciding)


@st.composite
def gate_cases(draw):
    n = draw(st.integers(1, 6))
    steps = [f"s{i+1}" for i in range(n)]
    edges = [
        (steps[i], steps[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    bad = draw(st.lists(st.sampled_from(steps), unique=True, max_size=n))
    return steps, edges, bad


@given(gate_cases())
@settings(max_examples=60, deadline=None)
def test_gate_partial_retention_matches_closure_oracle(case):
    steps, edges, bad = case
    dag = build_plan(steps, edges)
    facts = FactStore()
    for s in bad:
        facts.add_given(s, number(999))  # every trace value below conflicts with this
    trace = _trace({s: i for i, s in enumerate(steps)}, 0)
    result = gate(trace, index_constraints((), dag, facts), dag, threshold=0.0)
    expected_removed = removal_oracle(steps, edges, bad)
    assert set(result.removed) == expected_removed & set(steps)
    assert set(result.failing) == set(bad)
    # monotonicity: re-gating the filtered remainder can only score higher
    if not result.rejected:
        again = gate(result.trace, index_constraints((), dag, facts), dag, threshold=0.0)
        assert again.score >= result.score
        assert again.score == 1.0


# --- the gate and the facts store ------------------------------------------------

class SpyFactStore(FactStore):
    """Records the name of every public method called on it, nested calls included."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[str] = []

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name.startswith("_") or name == "calls" or not callable(attr):
            return attr
        calls = super().__getattribute__("calls")

        def recorded(*args, **kwargs):
            calls.append(name)
            return attr(*args, **kwargs)

        return recorded


FACTS_CHECK = constraint_from_spec({"id": "facts", "check": "facts", "step_pattern": "*"})
RESPONSE_FACTS_CHECK = constraint_from_spec({"id": "response-facts", "check": "facts", "scope": "response"})


def _corpus_cases(seed):
    scenario = random_scenario(seed, GeneratorParams(with_constraints=True, with_facts=True))
    return scenario, scenario_expert_outputs(scenario)


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_index_over_empty_store_equals_index_over_none(seed, with_facts_check):
    scenario, outputs = _corpus_cases(seed)
    constraints = scenario.constraints + ((FACTS_CHECK, RESPONSE_FACTS_CHECK) if with_facts_check else ())
    over_empty = index_constraints(constraints, scenario.dag, FactStore())
    over_none = index_constraints(constraints, scenario.dag, None)
    assert over_empty == over_none
    for output in outputs:
        by_empty, by_none = (_gate_view(gate(output, index, scenario.dag, 0.5)) for index in (over_empty, over_none))
        assert by_empty == by_none


def _gate_view(result):
    """A gate result with its fragment read as rows; outputs compare by identity."""
    rows = None if result.trace is None else trace_rows(result.trace)
    return rows, result.score, result.failing, result.removed, result.response_ok


def _holds_by_store(constraint, value, facts, key):
    """A constraint asked the plain way: a consistency constraint asks the store."""
    if constraint.predicate is None:
        return facts.check_consistency((key, value)).verdict != CONFLICT
    return constraint.holds(value)


def _reference_failing(trace, facts, constraints):
    """The gate's rule asked the plain way: every constraint, then the store, statement by statement."""
    failing = []
    for step, value, _, _ in trace_rows(trace):
        ok = all(_holds_by_store(c, value, facts, step) for c in constraints if c.applies_to_step(step))
        ok = ok and facts.check_consistency((step, value)).verdict != CONFLICT
        if not ok:
            failing.append(step)
    return tuple(sorted(failing))


@given(st.integers(0, 10**6), st.sampled_from(["first", "last", "twice"]))
@settings(max_examples=40, deadline=None)
def test_index_lists_the_store_once_and_the_gate_never_asks_it(seed, placement):
    scenario, outputs = _corpus_cases(seed)
    constraints = {
        "first": (FACTS_CHECK,) + scenario.constraints,
        "last": scenario.constraints + (FACTS_CHECK,),
        "twice": (FACTS_CHECK,) + scenario.constraints + (FACTS_CHECK,),
    }[placement] + (RESPONSE_FACTS_CHECK,)
    facts = SpyFactStore()
    for entry in scenario.facts_seed:
        facts.insert(entry)
    for step in scenario.dag.steps[::2]:
        facts.add_given(step, number(0))  # so that many statements conflict
    facts.add_given(RESPONSE_KEY, number(0))  # and many responses
    facts.calls.clear()
    index = index_constraints(constraints, scenario.dag, facts)
    # One sorted listing of the store, and no consistency check.
    assert [name for name in facts.calls if name in ("facts", "tools", "notes")] == ["facts"]
    assert "check_consistency" not in facts.calls
    for output in outputs:
        facts.calls.clear()
        result = gate(output, index, scenario.dag, 0.5)
        assert facts.calls == []
        assert result.failing == _reference_failing(output, facts, constraints)
        assert result.response_ok == all(
            _holds_by_store(c, output.response, facts, RESPONSE_KEY) for c in constraints if c.scope == RESPONSE_SCOPE
        )
    wanted = set(scenario.dag.steps) | {RESPONSE_KEY}
    assert index.facts == {
        key: tuple(f for f in facts.verified_facts() if f.key == key)
        for key in sorted({f.key for f in facts.verified_facts()} & wanted)
    }


# --- the gate visits only the checked steps ----------------------------------------

RANGE_CHECK = constraint_from_spec({"id": "band", "check": "range", "step_pattern": "s0[13579]", "min": 0, "max": 50})
EXTRA_CHECKS = {"none": (), "steps": (RANGE_CHECK, FACTS_CHECK), "all": (RANGE_CHECK, FACTS_CHECK, RESPONSE_FACTS_CHECK)}


def _gate_case(scenario, checks, stride):
    """The scenario's traces, its constraints plus ``EXTRA_CHECKS[checks]``, and its store plus given facts."""
    outputs = scenario_expert_outputs(scenario)
    constraints = scenario.constraints + EXTRA_CHECKS[checks]
    facts = FactStore()
    for entry in scenario.facts_seed:
        facts.insert(entry)
    seeded = {f.key for f in facts.verified_facts()}
    for i, step in enumerate(scenario.dag.steps[::stride]):
        if step not in seeded:
            # Half the givens repeat an expert's value, half contradict most of them.
            facts.add_given(step, outputs[0].value_at(step) if i % 2 and step in outputs[0].step_ids else number(0))
    facts.add_given(RESPONSE_KEY, outputs[0].response)
    return outputs, constraints, facts


def _with_unknown_steps(output):
    """The output with two steps outside every DAG, in the middle and at the end of its order.

    The later one sorts first, so only a gate that reports the first in
    trace order names the one in the middle.
    """
    items = [(step, (value, confidence, provenance)) for step, value, confidence, provenance in trace_rows(output)]
    if not items:
        return output
    extra = items[0][1]
    middle = len(items) // 2
    steps = dict(items[:middle] + [("zz-unknown", extra)] + items[middle:] + [("aa-unknown", extra)])
    return trace(output.expert_id, steps, output.response)


def _assert_gate_matches_reference(scenario, checks, stride, threshold):
    outputs, constraints, facts = _gate_case(scenario, checks, stride)
    index = index_constraints(constraints, scenario.dag, facts)
    verified = facts.verified_facts()
    # Traces that skip steps, so that some removed steps are not theirs, and traces with unknown steps.
    partial = [o.restricted_to(set(list(o.step_ids)[1::2])) for o in outputs]
    for output in outputs + partial + [_with_unknown_steps(o) for o in outputs[:2]]:
        try:
            expected = reference_gate(output, constraints, scenario.dag, verified, threshold)
        except UnknownStepError as exc:
            with pytest.raises(UnknownStepError) as raised:
                gate(output, index, scenario.dag, threshold)
            assert str(raised.value) == str(exc)
            continue
        result = gate(output, index, scenario.dag, threshold)
        kept = None if result.trace is None else trace_rows(result.trace)
        assert (kept, result.score, result.failing, result.removed, result.response_ok) == expected


@given(st.integers(0, 10**6), st.sampled_from(sorted(EXTRA_CHECKS)), st.integers(1, 4), st.sampled_from([0.0, 0.5, 0.9]))
@settings(max_examples=60, deadline=None)
def test_gate_matches_the_statement_by_statement_reference(seed, checks, stride, threshold):
    _assert_gate_matches_reference(random_scenario(seed, GeneratorParams(with_constraints=True, with_facts=True)),
                                   checks, stride, threshold)
    _assert_gate_matches_reference(adversarial_scenario(seed), checks, stride, threshold)


@pytest.mark.parametrize("seed", [20_007, 20_011, 20_013])
def test_gate_matches_the_statement_by_statement_reference_on_wide_scenarios(seed):
    scenario = random_scenario(seed, WIDE_PARAMS)
    for checks, stride, threshold in (("none", 3, 0.5), ("steps", 7, 0.5), ("steps", 2, 0.0), ("all", 5, 0.0)):
        _assert_gate_matches_reference(scenario, checks, stride, threshold)


def test_the_gate_checks_only_the_steps_that_have_a_check(monkeypatch):
    steps = [f"s{i:02d}" for i in range(1, 13)]
    dag = build_plan(steps, [(steps[i], steps[i + 1]) for i in range(0, 11, 3)])
    facts = FactStore()
    facts.add_given("s04", number(4))
    facts.add_given("s12", number(0))
    index = index_constraints((RANGE_CHECK, FACTS_CHECK), dag, facts)
    assert index.checked == {"s01", "s03", "s04", "s05", "s07", "s09", "s12"}
    seen = []
    real = verifiers._statement_admissible

    def spy(value, applicable, verified):
        seen.append(value)
        return real(value, applicable, verified)

    monkeypatch.setattr(verifiers, "_statement_admissible", spy)
    for output in (_trace({s: i for i, s in enumerate(steps)}, 0),
                   _trace({s: 60 for s in steps[1::2]}, 0),
                   _trace({}, 0)):
        seen.clear()
        gate(output, index, dag, 0.0)
        wanted = sorted(index.checked & output.step_ids)
        assert [id(v) for v in seen] == [id(output.value_at(s)) for s in wanted]
