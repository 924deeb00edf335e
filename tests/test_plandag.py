from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from crosscheck.errors import CycleError, UnknownStepError
from crosscheck.plandag import build_plan, removal_set

from oracles import all_valid_orders, dfs_reachable, removal_oracle

DIAMOND = (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@st.composite
def random_dags(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    steps = [f"n{i:02d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((steps[i], steps[j]))
    return steps, edges


def test_chain_builds():
    dag = build_plan(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert dag.topological_order() == ("a", "b", "c")


def test_self_loop_is_a_cycle():
    with pytest.raises(CycleError):
        build_plan(["a"], [("a", "a")])


def test_longer_cycle_rejected():
    with pytest.raises(CycleError):
        build_plan(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_dangling_edge_rejected():
    with pytest.raises(UnknownStepError):
        build_plan(["a"], [("a", "b")])


def test_duplicate_steps_rejected():
    with pytest.raises(ValueError):
        build_plan(["a", "a"], [])


def test_diamond_order_matches_enumeration_oracle():
    steps, edges = DIAMOND
    dag = build_plan(steps, edges)
    order = list(dag.topological_order())
    valid = all_valid_orders(steps, edges)
    assert order in valid
    assert order == min(valid)  # id-order tie-break picks the lexicographically least
    assert order[0] == "a" and order[-1] == "d"


def test_no_edges_orders_by_id():
    dag = build_plan(["c", "a", "b"], [])
    assert dag.topological_order() == ("a", "b", "c")


def test_diamond_closures():
    dag = build_plan(*DIAMOND)
    assert dag.dependents_closure("a") == {"b", "c", "d"}
    assert dag.dependents_closure("d") == frozenset()
    with pytest.raises(UnknownStepError):
        dag.dependents_closure("zz")


def test_random_20_node_closure_matches_dfs_oracle():
    rng = random.Random(20_001)
    steps = [f"n{i:02d}" for i in range(20)]
    edges = [
        (steps[i], steps[j])
        for i in range(20)
        for j in range(i + 1, 20)
        if rng.random() < 0.15
    ]
    dag = build_plan(steps, edges)
    for step in steps:
        assert dag.dependents_closure(step) == dfs_reachable(edges, step)


def test_backtrack_no_violation_keeps_everything():
    dag = build_plan(*DIAMOND)
    assert removal_set(dag, set()) == frozenset()


def test_backtrack_chain_removes_downstream():
    dag = build_plan(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert removal_set(dag, {"b"}) == {"b", "c"}


def test_backtrack_diamond_spares_sibling():
    dag = build_plan(*DIAMOND)
    assert removal_set(dag, {"b"}) == {"b", "d"}
    # sibling c is genuinely not downstream of b
    assert "c" not in dfs_reachable(DIAMOND[1], "b")


def test_backtrack_unknown_step():
    dag = build_plan(*DIAMOND)
    with pytest.raises(UnknownStepError):
        removal_set(dag, {"zz"})


@given(random_dags())
def test_topological_order_respects_every_edge(dag_spec):
    steps, edges = dag_spec
    dag = build_plan(steps, edges)
    position = {s: i for i, s in enumerate(dag.topological_order())}
    assert all(position[u] < position[v] for u, v in edges)


@given(random_dags())
def test_no_step_in_its_own_closure(dag_spec):
    dag = build_plan(*dag_spec)
    for step in dag.steps:
        assert step not in dag.dependents_closure(step)


@given(random_dags(), st.data())
def test_backtrack_locality_properties(dag_spec, data):
    steps, edges = dag_spec
    dag = build_plan(steps, edges)
    violated = set(data.draw(st.lists(st.sampled_from(steps), max_size=len(steps))))
    removed = removal_set(dag, violated)
    assert removed == removal_oracle(steps, edges, violated)
    # retained steps have no violated ancestor
    for step in set(steps) - removed:
        assert step not in violated
        assert all(step not in dfs_reachable(edges, v) for v in violated)


@given(random_dags())
def test_determinism_across_construction(dag_spec):
    steps, edges = dag_spec
    a = build_plan(steps, edges)
    b = build_plan(list(reversed(steps)), list(reversed(edges)))
    assert a.topological_order() == b.topological_order()
    for step in steps:
        assert a.dependents_closure(step) == b.dependents_closure(step)


def test_empty_dag_is_legal():
    dag = build_plan([], [])
    assert dag.topological_order() == ()
    assert len(dag) == 0
