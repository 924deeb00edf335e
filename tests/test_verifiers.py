from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck.corpus import GeneratorParams, random_scenario
from crosscheck.ensemble import parse_expert_output
from crosscheck.errors import DuplicateIdError
from crosscheck.facts import CONFLICT, CONSISTENT, FactStore, ToolRecord
from crosscheck.plandag import build_plan
from crosscheck.scenario import scenario_expert_outputs
from crosscheck.values import number, quantity, text, values_equal
from crosscheck.verifiers import (
    INCONCLUSIVE,
    REFUTE,
    RESPONSE_KEY,
    RESPONSE_SCOPE,
    SUPPORT,
    CrossExecutionOperator,
    FactsConsistencyOperator,
    OperatorRegistry,
    ScriptedTableOperator,
    Verdict,
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
    result = gate(trace, index_constraints((), CHAIN), CHAIN, threshold=0.5)
    assert not result.rejected
    assert result.score == 1.0
    assert result.trace.steps.keys() == trace.steps.keys()


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
    assert set(result.trace.steps) == {"s1"}
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
    store.add_given("s1", number(5))
    table = ScriptedTableOperator([("s1", number(5), "refute")])
    verified = store.verified_by_key()
    facts_first = OperatorRegistry().register(FactsConsistencyOperator(verified)).register(table)
    table_first = OperatorRegistry().register(table).register(FactsConsistencyOperator(verified))
    facts_verdict = facts_first.verify(("s1", number(5)), ())
    table_verdict = table_first.verify(("s1", number(5)), ())
    assert (facts_verdict.value, facts_verdict.operator, facts_verdict.cost) == (SUPPORT, "facts", 1)
    assert (table_verdict.value, table_verdict.operator, table_verdict.cost) == (REFUTE, "scripted", 1)


def test_duplicate_operator_rejected():
    registry = OperatorRegistry().register(FactsConsistencyOperator({}))
    with pytest.raises(DuplicateIdError):
        registry.register(FactsConsistencyOperator({}))


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


def test_facts_operator_decides_from_store():
    store = FactStore()
    store.add_given("s1", number(42))
    registry = OperatorRegistry().register(FactsConsistencyOperator(store.verified_by_key()))
    support = registry.verify(("s1", number(42)), ())
    assert support.value == SUPPORT and support.evidence
    refute = registry.verify(("s1", number(17)), ())
    assert refute.value == REFUTE and refute.evidence
    assert registry.verify(("s9", number(1)), ()).value == INCONCLUSIVE


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


def _reference_facts_verdict(store, step, value):
    """The facts operator asking the store: ``check_consistency``, then the agreeing ids from a second listing."""
    report = store.check_consistency((step, value))
    if report.verdict == CONFLICT:
        return Verdict(REFUTE, tuple(f"fact:{i}" for i in report.conflicting_fact_ids))
    if report.verdict == CONSISTENT:
        agreeing = [f for f in store.verified_facts() if f.key == step and values_equal(f.value, value)]
        return Verdict(SUPPORT, tuple(f"fact:{f.id}" for f in agreeing))
    return Verdict(INCONCLUSIVE, ())


@given(fact_stores(), st.sampled_from(["s1", "s2", "s3"]), _EDGE_VALUES)
@settings(max_examples=200, deadline=None)
def test_facts_operator_over_the_verified_facts_matches_asking_the_store(store, step, value):
    operator = FactsConsistencyOperator(store.verified_by_key())
    assert operator.examine(step, value, ()) == _reference_facts_verdict(store, step, value)


def test_default_registry_order():
    # The facts operator can decide only s1, cross-execution s1 and s2 (both cite t1), the table all three.
    store = FactStore()
    store.add_given("s1", number(7))
    store.record_tool(ToolRecord("t1", "calc", {}, number(7)))
    table = [(step, number(7), REFUTE) for step in ("s1", "s2", "s3")]
    registry = default_registry(store.verified_by_key(), store, lambda tool_name, params: number(7), table)
    decided = [registry.verify((step, number(7)), provenance)
               for step, provenance in (("s1", ("t1",)), ("s2", ("t1",)), ("s3", ()))]
    assert [(v.operator, v.cost) for v in decided] == [("facts", 1), ("cross-exec", 2), ("scripted", 3)]


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
        assert gate(output, over_empty, scenario.dag, 0.5) == gate(output, over_none, scenario.dag, 0.5)


def _holds_by_store(constraint, value, facts, key):
    """A constraint asked the plain way: a consistency constraint asks the store."""
    if constraint.predicate is None:
        return facts.check_consistency((key, value)).verdict != CONFLICT
    return constraint.holds(value)


def _reference_failing(trace, facts, constraints):
    """The gate's rule asked the plain way: every constraint, then the store, statement by statement."""
    failing = []
    for step, result in trace.steps.items():
        ok = all(_holds_by_store(c, result.value, facts, step) for c in constraints if c.applies_to_step(step))
        ok = ok and facts.check_consistency((step, result.value)).verdict != CONFLICT
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
