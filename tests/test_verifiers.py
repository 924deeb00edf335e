from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck.corpus import GeneratorParams, random_scenario
from crosscheck.ensemble import parse_expert_output
from crosscheck.errors import DuplicateIdError
from crosscheck.facts import CONFLICT, FactStore, ToolRecord
from crosscheck.plandag import build_plan
from crosscheck.scenario import scenario_expert_outputs
from crosscheck.values import format_literal, number, quantity, text
from crosscheck.verifiers import (
    INCONCLUSIVE,
    REFUTE,
    SUPPORT,
    CrossExecutionOperator,
    FactsConsistencyOperator,
    OperatorRegistry,
    ScriptedTableOperator,
    Verdict,
    VerifyContext,
    check_response,
    constraint_from_spec,
    default_registry,
    gate,
    index_constraints,
)

from oracles import conjunction, removal_oracle

CHAIN = build_plan(["s1", "s2", "s3", "s4"], [("s1", "s2"), ("s2", "s3"), ("s3", "s4")])


def _trace(values: dict[str, object], response: object, confidence: float = 0.8):
    return parse_expert_output("e01", {
        "steps": {s: {"value": v, "confidence": confidence} for s, v in values.items()},
        "analysis": "t",
        "response": response,
    })


def test_gate_vacuous_pass():
    trace = _trace({"s1": 1, "s2": 2, "s3": 3, "s4": 4}, 4)
    result = gate(trace, None, index_constraints((), CHAIN), CHAIN, threshold=0.5)
    assert not result.rejected
    assert result.score == 1.0
    assert result.trace.steps.keys() == trace.steps.keys()


def test_gate_rejects_infeasible_response():
    constraint = constraint_from_spec(
        {"id": "resp-m", "check": "unit", "scope": "response", "unit": "m"}
    )
    trace = _trace({"s1": 1}, {"kind": "quantity", "value": 3.0, "unit": "ft"})
    result = gate(trace, None, index_constraints((constraint,), CHAIN), CHAIN, threshold=0.0)
    assert result.rejected
    assert not result.response_ok


def test_gate_excises_facts_conflict_and_dependents():
    facts = FactStore()
    facts.add_given("s2", number(99))
    trace = _trace({"s1": 1, "s2": 2, "s3": 3, "s4": 4}, 4)
    result = gate(trace, facts, index_constraints((), CHAIN), CHAIN, threshold=0.2)
    assert not result.rejected
    assert result.failing == ("s2",)
    assert result.removed == ("s2", "s3", "s4")
    assert set(result.trace.steps) == {"s1"}
    assert result.score == 0.25


def test_gate_threshold_rejects_thin_remainder():
    facts = FactStore()
    facts.add_given("s2", number(99))
    trace = _trace({"s1": 1, "s2": 2, "s3": 3, "s4": 4}, 4)
    result = gate(trace, facts, index_constraints((), CHAIN), CHAIN, threshold=0.5)
    assert result.rejected
    assert result.response_ok  # rejected on score, not feasibility


def test_gate_statement_free_trace_scores_one():
    trace = _trace({}, 42)
    result = gate(trace, None, index_constraints((), CHAIN), CHAIN, threshold=0.9)
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
    predicates = [lambda v, c=c: c.holds(v, None, "response") for c in constraints]
    assert check_response(response, constraints) == conjunction(response, predicates)


def test_verify_scripted_refute_cost_one():
    registry = OperatorRegistry().register(
        ScriptedTableOperator([("s1", number(5), "refute")])
    )
    verdict = registry.verify(("s1", number(5)), VerifyContext())
    assert verdict.value == REFUTE
    assert verdict.cost == 1
    # fixed registry + scripted operators: identical inputs, identical verdicts
    assert registry.verify(("s1", number(5)), VerifyContext()) == verdict


def test_verify_cross_execution_support_and_refute():
    store = FactStore()
    store.record_tool(ToolRecord("t1", "calc", {"expr": "6*7"}, number(42)))
    runner_calls = []

    def runner(tool_name, params):
        runner_calls.append((tool_name, params))
        return number(42)

    registry = OperatorRegistry().register(CrossExecutionOperator())
    ctx = VerifyContext(facts=store, tool_runner=runner, provenance=("t1",))
    verdict = registry.verify(("s1", number(42)), ctx)
    assert verdict.value == SUPPORT
    assert verdict.evidence == ("tool:t1",)
    assert runner_calls == [("calc", {"expr": "6*7"})]
    assert registry.verify(("s1", number(41)), ctx).value == REFUTE
    # a provenance id the store does not hold is skipped, not an error
    unknown = VerifyContext(facts=store, tool_runner=runner, provenance=("t9",))
    assert registry.verify(("s1", number(42)), unknown).value == INCONCLUSIVE
    assert len(runner_calls) == 2


def test_registry_order_is_part_of_the_contract():
    store = FactStore()
    store.add_given("s1", number(5))
    table = ScriptedTableOperator([("s1", number(5), "refute")])
    facts_first = OperatorRegistry().register(FactsConsistencyOperator()).register(table)
    table_first = OperatorRegistry().register(table).register(FactsConsistencyOperator())
    ctx = VerifyContext(facts=store)
    assert facts_first.order == ("facts", "scripted")
    assert facts_first.verify(("s1", number(5)), ctx).value == SUPPORT
    assert table_first.verify(("s1", number(5)), ctx).value == REFUTE


def test_duplicate_operator_rejected():
    registry = OperatorRegistry().register(FactsConsistencyOperator())
    with pytest.raises(DuplicateIdError):
        registry.register(FactsConsistencyOperator())


def test_empty_registry_is_inconclusive_and_free():
    verdict = OperatorRegistry().verify(("s1", number(1)), VerifyContext())
    assert verdict.value == INCONCLUSIVE
    assert verdict.cost == 0


def test_crashing_operator_treated_as_inconclusive():
    class Crasher:
        op_id = "crasher"
        scripted = False

        def examine(self, step, value, ctx):
            raise RuntimeError("boom")

    errors = []
    registry = OperatorRegistry().register(Crasher()).register(
        ScriptedTableOperator([("s1", number(1), "support")])
    )
    verdict = registry.verify(("s1", number(1)), VerifyContext(),
                              on_error=lambda op, msg: errors.append((op, msg)))
    assert verdict.value == SUPPORT
    assert verdict.cost == 2
    assert errors and errors[0][0] == "crasher"


def test_evidence_free_commitment_is_discarded():
    class Overconfident:
        op_id = "overconfident"
        scripted = False

        def examine(self, step, value, ctx):
            return Verdict(SUPPORT, ())

    errors = []
    registry = OperatorRegistry().register(Overconfident())
    verdict = registry.verify(("s1", number(1)), VerifyContext(),
                              on_error=lambda op, msg: errors.append(op))
    assert verdict.value == INCONCLUSIVE
    assert errors == ["overconfident"]


def test_facts_operator_decides_from_store():
    store = FactStore()
    store.add_given("s1", number(42))
    registry = OperatorRegistry().register(FactsConsistencyOperator())
    ctx = VerifyContext(facts=store)
    support = registry.verify(("s1", number(42)), ctx)
    assert support.value == SUPPORT and support.evidence
    refute = registry.verify(("s1", number(17)), ctx)
    assert refute.value == REFUTE and refute.evidence
    assert registry.verify(("s9", number(1)), ctx).value == INCONCLUSIVE


def test_default_registry_order():
    registry = default_registry({})
    assert registry.order == ("facts", "cross-exec", "scripted")


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
    result = gate(trace, facts, index_constraints((), dag), dag, threshold=0.0)
    expected_removed = removal_oracle(steps, edges, bad)
    assert set(result.removed) == expected_removed & set(steps)
    assert set(result.failing) == set(bad)
    # monotonicity: re-gating the filtered remainder can only score higher
    if not result.rejected:
        again = gate(result.trace, facts, index_constraints((), dag), dag, threshold=0.0)
        assert again.score >= result.score
        assert again.score == 1.0


# --- the gate and the facts store ------------------------------------------------

class SpyFactStore(FactStore):
    """Records every consistency check as (key, value literal)."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, str]] = []

    def check_consistency(self, candidate):
        self.calls.append((candidate[0], format_literal(candidate[1])))
        return super().check_consistency(candidate)


FACTS_CHECK = constraint_from_spec({"id": "facts", "check": "facts", "step_pattern": "*"})


def _corpus_cases(seed):
    scenario = random_scenario(seed, GeneratorParams(with_constraints=True, with_facts=True))
    return scenario, scenario_expert_outputs(scenario)


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_gate_with_empty_store_equals_gate_without_store(seed, with_facts_check):
    scenario, outputs = _corpus_cases(seed)
    constraints = scenario.constraints + ((FACTS_CHECK,) if with_facts_check else ())
    for output in outputs:
        with_store = gate(output, FactStore(), index_constraints(constraints, scenario.dag), scenario.dag, 0.5)
        without = gate(output, None, index_constraints(constraints, scenario.dag), scenario.dag, 0.5)
        assert with_store == without


def _reference_failing(trace, facts, constraints):
    """The gate's rule asked the plain way: every constraint, then the store."""
    failing = []
    for step, result in trace.steps.items():
        ok = all(c.holds(result.value, facts, step) for c in constraints if c.applies_to_step(step))
        ok = ok and facts.check_consistency((step, result.value)).verdict != CONFLICT
        if not ok:
            failing.append(step)
    return tuple(sorted(failing))


@given(st.integers(0, 10**6), st.sampled_from(["first", "last", "twice"]))
@settings(max_examples=40, deadline=None)
def test_gate_asks_the_store_once_per_statement(seed, placement):
    scenario, outputs = _corpus_cases(seed)
    constraints = {
        "first": (FACTS_CHECK,) + scenario.constraints,
        "last": scenario.constraints + (FACTS_CHECK,),
        "twice": (FACTS_CHECK,) + scenario.constraints + (FACTS_CHECK,),
    }[placement]
    facts = SpyFactStore()
    for entry in scenario.facts_seed:
        facts.insert(entry)
    for step in scenario.dag.steps[::2]:
        facts.add_given(step, number(0))  # so that many statements conflict
    for output in outputs:
        facts.calls.clear()
        result = gate(output, facts, index_constraints(constraints, scenario.dag), scenario.dag, 0.5)
        calls = list(facts.calls)
        assert result.failing == _reference_failing(output, facts, constraints)
        # Only a statement whose step predicates all hold reaches the store, wherever the facts checks stand.
        assert calls == [
            (step, format_literal(r.value))
            for step, r in output.steps.items()
            if all(c.holds(r.value, None, step) for c in scenario.constraints if c.applies_to_step(step))
        ]
