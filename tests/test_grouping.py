"""Memoized grouping and the step-bucketed engine stages against naive scans.

``group_values`` memoizes exact twins, and ``anchor``/``conflicts``/
``rank_conflicts`` read the pool bucketed by step. Both must give exactly
what the plain scans give: the same groups in the same order with the same
first-seen representatives, and the same anchors, collisions, conflict
items and audit order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from crosscheck.engine import (
    Anchor,
    Candidate,
    ConflictItem,
    Statement,
    anchor,
    conflicts,
    group_by_step,
    rank_conflicts,
)
from crosscheck.plandag import build_plan
from crosscheck.values import (
    COMPOSITE,
    NUMBER,
    QUANTITY,
    TEXT,
    Value,
    boolean,
    composite,
    format_literal,
    group_values,
    number,
    quantity,
    text,
)

from oracles import group_by_equality

# An int above 2**53 and a float of equal value: equal as Python numbers, yet
# numbers_close(BIG, TWIN_INT) is False while numbers_close(BIG, TWIN_FLOAT)
# is True, because int and float subtraction round differently.
BIG = 73786976294838212674
TWIN_INT = 73786976221051232256
TWIN_FLOAT = float(TWIN_INT)

EDGE_NUMBERS = (
    1_000_000_000, 1_000_000_001, 1_000_000_002,  # neighbours equal, ends not
    1e9, 1e9 + 1, 1e9 + 2,
    0, 0.0, -0.0, 1, 1.0, 2, 5e-10, -5e-10,
    BIG, TWIN_INT, TWIN_FLOAT,
)
WORDS = ("Paris", " paris", "PARIS ", "Lyon", "lyon")
UNITS = ("m", "ft")

scalars = st.one_of(
    st.sampled_from(EDGE_NUMBERS).map(number),
    st.sampled_from(WORDS).map(text),
    st.booleans().map(boolean),
    st.tuples(st.sampled_from(EDGE_NUMBERS), st.sampled_from(UNITS)).map(lambda t: quantity(*t)),
)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3).map(composite), max_leaves=6)


def _grouping(groups, items):
    """Groups as tag lists, plus whether each representative is its first member."""
    return [(tags, rep is items[tags[0]][0]) for rep, tags in groups]


def _assert_matches_scan(vals):
    items = [(v, i) for i, v in enumerate(vals)]
    assert _grouping(group_values(items), items) == _grouping(group_by_equality(items), items)


@given(st.lists(values, max_size=30))
@settings(max_examples=300, deadline=None)
def test_group_values_matches_first_seen_scan(vals):
    _assert_matches_scan(vals)


def test_tolerance_edge_chain_keeps_first_representative():
    chain = [number(1e9), number(1e9 + 1), number(1e9 + 2)]
    groups = group_values((v, i) for i, v in enumerate(chain + chain))
    assert [tags for _, tags in groups] == [[0, 1, 3, 4], [2, 5]]
    _assert_matches_scan(chain + chain[::-1] + chain)


def test_int_float_twins_are_not_interchangeable_at_the_edge():
    groups = group_values([(number(BIG), "big"), (number(TWIN_INT), "int"), (number(TWIN_FLOAT), "float")])
    assert [tags for _, tags in groups] == [["big", "float"], ["int"]]
    _assert_matches_scan([number(BIG), number(TWIN_INT), number(TWIN_FLOAT), number(TWIN_INT)])


def test_zero_signs_case_folds_and_units():
    _assert_matches_scan([number(0.0), number(-0.0), number(0), number(-0.0)])
    _assert_matches_scan([text("Paris"), text(" paris"), text("PARIS "), text("Paris")])
    _assert_matches_scan([quantity(1, "m"), quantity(1, "ft"), quantity(1.0, "m"), quantity(1, "ft")])


def test_nested_composites():
    inner = [composite([number(1), text("a")]), composite([number(1.0), text(" A")])]
    outer = [composite([inner[0], quantity(2, "m")]), composite([inner[1], quantity(2.0, "m")])]
    _assert_matches_scan(inner + outer + inner[::-1] + outer[::-1])


def test_payloads_without_an_exact_key_take_the_scan():
    unhashable = [
        Value(COMPOSITE, [number(1), number(2)]),  # list, not tuple
        Value(QUANTITY, [3.0, "m"]),
        Value(COMPOSITE, [number(1), number(2)]),
        Value(QUANTITY, [3, "m"]),
    ]
    _assert_matches_scan(unhashable)
    nan = float("nan")
    _assert_matches_scan([Value(NUMBER, nan), Value(NUMBER, nan), Value(NUMBER, 1)])
    _assert_matches_scan([Value(NUMBER, True), Value(NUMBER, 1), Value(TEXT, "x"), Value(TEXT, "x")])


# --- engine stages against steps x pool scans ---------------------------------

STEPS = ("a", "b", "c", "d", "e")
EXPERTS = ("e1", "e2", "e3", "e4", "e5")
DAG = build_plan(list(STEPS), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")])

statements_st = st.builds(
    Statement,
    st.sampled_from(STEPS),
    st.one_of(st.sampled_from((1, 1.0, 2, 1e9, 1e9 + 1, 1e9 + 2)).map(number), st.sampled_from(WORDS).map(text)),
    st.sampled_from(EXPERTS),
    st.sampled_from((0.1, 0.5, 0.9, 1.0)),
)


def _step_groups(pool, step):
    return group_by_equality([(s.value, s.expert_id) for s in pool if s.step == step])


def _reference_anchor(pool, theta):
    anchors, collisions = [], []
    for step in sorted({s.step for s in pool}):
        eligible = [
            Anchor(step, rep, tuple(sorted(set(ids))))
            for rep, ids in _step_groups(pool, step)
            if len(set(ids)) >= theta
        ]
        if not eligible:
            continue
        eligible.sort(key=lambda a: (-len(a.supporters), format_literal(a.value)))
        if len(eligible) > 1 and len(eligible[0].supporters) == len(eligible[1].supporters):
            collisions.append(step)
        else:
            anchors.append(eligible[0])
    return anchors, collisions


def _reference_conflicts(pool, anchored):
    items = []
    for step in sorted({s.step for s in pool}):
        groups = _step_groups(pool, step)
        experts = [set(ids) for _, ids in groups]
        if step in anchored or not any(
            len(experts[i] | experts[j]) >= 2 for i in range(len(experts)) for j in range(i + 1, len(experts))
        ):
            continue
        candidates = sorted(
            (Candidate(rep, tuple(sorted(set(ids)))) for rep, ids in groups),
            key=lambda c: (-len(c.supporters), c.supporters[0], format_literal(c.value)),
        )
        items.append(ConflictItem(step=step, candidates=tuple(candidates)))
    return items


def _reference_rank(steps, pool):
    def impact(step):
        confs = [s.confidence for s in pool if s.step == step]
        return (1 + len(DAG.dependents_closure(step))) * (max(confs) - min(confs))

    return sorted(steps, key=lambda s: (-impact(s), s))


def _literals(objs):
    # Structural equality takes 1 == 1.0; the literal form tells them apart.
    return [format_literal(o.value) for o in objs]


@given(st.lists(statements_st, max_size=40), st.integers(2, 3))
@settings(max_examples=200, deadline=None)
def test_bucketed_stages_match_steps_times_pool_scans(pool, theta):
    buckets = group_by_step(pool)
    assert list(buckets) == sorted({s.step for s in pool})
    assert [s for bucket in buckets.values() for s in bucket] == sorted(pool, key=lambda s: s.step)

    ref_anchors, ref_collisions = _reference_anchor(pool, theta)
    anchors, collisions = anchor(buckets, theta)
    assert list(anchors.items()) == ref_anchors
    assert _literals(anchors.items()) == _literals(ref_anchors)
    assert collisions == ref_collisions

    conflict_set = conflicts(buckets, anchors)
    ref_items = _reference_conflicts(pool, set(anchors.steps()))
    assert list(conflict_set.items()) == ref_items
    assert [_literals(i.candidates) for i in conflict_set.items()] == [_literals(i.candidates) for i in ref_items]

    assert rank_conflicts(conflict_set, DAG, buckets) == _reference_rank(conflict_set.steps(), pool)
